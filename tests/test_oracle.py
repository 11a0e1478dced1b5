import time

import pytest

from reference import from_bits as bv
from thlrecon.bits import BitVector, hamming
from thlrecon.oracle import gen_instance, oracle_is_thl, oracle_symdiff
from thlrecon.params import params_build


A5 = {bv([0, 0, 0, 0, 0]), bv([1, 0, 1, 1, 1])}
B5 = {bv([0, 0, 0, 0, 0]), bv([1, 1, 0, 0, 1])}


def test_symdiff():
    assert oracle_symdiff(A5, B5) == {bv([1, 0, 1, 1, 1]), bv([1, 1, 0, 0, 1])}
    assert oracle_symdiff(A5, A5) == frozenset()
    assert oracle_symdiff(A5, set()) == frozenset(A5)


def test_is_thl_example():
    ok, witness = oracle_is_thl(A5, B5, 1, 2, 3)
    assert ok and len(witness) == 1 and len(witness[0]) == 2
    ok, _ = oracle_is_thl(A5, B5, 1, 2, 2)
    assert not ok  # distance 3 > 2 within the single necessary block
    ok, witness = oracle_is_thl(A5, A5, 1, 1, 1)
    assert ok and witness == ()


def test_is_thl_with_index_set():
    # the example pair is constant on positions {1, 5}
    ok, _ = oracle_is_thl(A5, B5, 1, 2, 3, I=(1, 5))
    assert ok
    ok, _ = oracle_is_thl(A5, B5, 1, 2, 3, I=(2,))
    assert not ok  # differs on position 2 within the block


def test_is_thl_too_large():
    big = {BitVector(i, 20) for i in range(13)}
    with pytest.raises(ValueError):
        oracle_is_thl(big, set(), 13, 1, 20)


def test_gen_deterministic():
    p = params_build(63, 1, 3, 2)
    a = gen_instance(p, 17, 5)
    b = gen_instance(p, 17, 5)
    assert a == b
    c = gen_instance(p, 18, 5)
    assert c != a


def test_gen_validity_and_common():
    p = params_build(63, 2, 3, 2)
    for seed in range(100):
        SA, SB, delta = gen_instance(p, seed, 7)
        assert oracle_symdiff(SA, SB) == delta
        ok, _ = oracle_is_thl(SA, SB, p.t, p.h, p.ell, p.I)
        assert ok
        assert not (set(SA) & set(SB)) & set(delta)
        assert len(set(SA) & set(SB)) == 7


def test_gen_rejects_more_shared_elements_than_strings_at_once():
    # 7-bit elements: 128 shared ones leave no string for the difference
    p = params_build(7, 1, 1, 1)
    for common in (128, 136):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no 7-bit string left"):
            gen_instance(p, 0, common)
        assert time.perf_counter() - start < 0.1


def test_gen_coverage():
    # max offset weight and max block size both occur over many seeds
    p = params_build(63, 1, 3, 2)
    saw_max_weight = saw_max_block = False
    for seed in range(300):
        _, _, delta = gen_instance(p, seed, 0)
        elems = sorted(delta, key=lambda x: x.value)
        if len(elems) == p.h:
            saw_max_block = True
        for i, x in enumerate(elems):
            for y in elems[:i]:
                if hamming(x, y) == p.ell:
                    saw_max_weight = True
    assert saw_max_block and saw_max_weight

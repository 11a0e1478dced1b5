import pytest

from thlrecon.bits import BitVector
from thlrecon.errors import InconsistentDigests, ParamsError
from thlrecon.params import (
    accept,
    cond4_violation_prob,
    default_index_set,
    params_build,
    params_from_text,
    parse_params_text,
)


def test_t1_127_pinned():
    p = params_build(127, 1, 3, 1)
    assert p.r == 7
    assert p.N == 128
    assert p.digest_field.degree == 120


def test_t1_infeasible_small_n():
    with pytest.raises(ParamsError) as e:
        params_build(5, 1, 2, 3)
    assert e.value.constraint == "cl_distance"


def test_t2_63_pinned():
    p = params_build(63, 2, 2, 1, I=range(1, 7))
    assert p.nbar == 57
    assert p.q_degree == 14
    assert p.comp_field.degree == 14
    assert p.ibar == tuple(range(7, 64))


def test_default_index_set():
    assert default_index_set(63) == (1, 2, 3, 4, 5, 6)
    assert default_index_set(127) == (1, 2, 3, 4, 5, 6, 7)
    p = params_build(63, 2, 2, 1)
    assert p.I == (1, 2, 3, 4, 5, 6)


def test_bh_width_constraint_named():
    with pytest.raises(ParamsError) as e:
        params_build(15, 1, 3, 1)
    assert e.value.constraint == "bh_width"


def test_i_rules():
    with pytest.raises(ParamsError) as e:
        params_build(63, 1, 2, 1, I=(1, 2))
    assert e.value.constraint == "i_empty_for_t1"
    with pytest.raises(ParamsError) as e:
        params_build(63, 2, 2, 1, I=(0, 1))
    assert e.value.constraint == "i_subset"


def test_fingerprint_deterministic_and_sensitive():
    a = params_build(63, 2, 2, 1)
    b = params_build(63, 2, 2, 1)
    c = params_build(63, 2, 2, 2)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert len(a.fingerprint) == 32


def test_canonical_text():
    p = params_build(63, 2, 2, 1, I=(1, 2, 3))
    assert p.canonical_text() == "n=63\nt=2\nh=2\nell=1\nI=1,2,3\n"
    q = params_build(63, 1, 2, 1)
    assert q.canonical_text().endswith("I=\n")


def test_cond4_violation_prob():
    # t=2, h=2, ell=1, |I|=6, n=63: 8*6/63 + 16/64 > 1 -> clipped
    p = params_build(63, 2, 2, 1, I=range(1, 7))
    assert cond4_violation_prob(p) == 1.0
    # t=1, h=1: ell*|I|/n + 1/2^|I| with the default |I|
    q = params_build(63, 1, 1, 1)
    assert cond4_violation_prob(q) == pytest.approx(1 * 6 / 63 + 1 / 64)


def test_params_text_roundtrip():
    p = params_build(63, 2, 3, 2)
    q = params_from_text(p.canonical_text())
    assert q.fingerprint == p.fingerprint
    with pytest.raises(ParamsError):
        parse_params_text("n=63\nt=1\n")  # missing keys
    with pytest.raises(ParamsError):
        parse_params_text("n=63\nbogus=1\nt=1\nh=2\nell=1\n")


@pytest.mark.parametrize(
    "n,t,h,ell",
    [(63, 2, 2, 1), (63, 2, 3, 2), (63, 3, 2, 1), (127, 2, 2, 1),
     (127, 2, 3, 2), (127, 3, 2, 1)],
)
def test_t_grid_builds(n, t, h, ell):
    p = params_build(n, t, h, ell)
    assert p.s_prime >= (h + 1) // 2
    assert p.s_prime * (p.r + 1) <= p.nbar
    assert (1 << p.comp_field.degree) > p.N


@pytest.mark.parametrize(
    "blocks,reason",
    [
        # I = (1, 2): bits 0 and 1 hold an element's I-projection
        (((0b100,), (0b101,), (0b110,)), "more blocks than t"),
        (((0b100, 0b1000), (0b100,)), "repeats"),
        (((0b100, 0b1000, 0b10000),), "larger than h"),
        (((0b100, 0b11000),), "distance"),
        (((0b100, 0b101),), "not constant on I"),
        (((0b100,), (0b1000,)), "share an I-projection"),
    ],
)
def test_accept_rejects_broken_promise(blocks, reason):
    p = params_build(15, 2, 2, 1, I=(1, 2))
    blocks = tuple(tuple(BitVector(v, 15) for v in b) for b in blocks)
    with pytest.raises(InconsistentDigests, match=reason):
        accept(p, blocks, None, lambda params, delta: None)


def test_accept_requires_re_encoding():
    p = params_build(15, 2, 2, 1, I=(1, 2))
    blocks = ((BitVector(0b100, 15), BitVector(0b1100, 15)), (BitVector(0b101, 15),))
    encode = lambda params, delta: len(delta)  # noqa: E731
    assert accept(p, blocks, 3, encode) == {x for b in blocks for x in b}
    with pytest.raises(InconsistentDigests, match="re-encoding"):
        accept(p, blocks, 2, encode)

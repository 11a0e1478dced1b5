import dataclasses
import hashlib
import random

import pytest

from reference import cond4_violation_prob, mul_vec_rows
from thlrecon.bits import BitVector, project
from thlrecon.errors import InconsistentDigests, ParamsError
from thlrecon.linalg import full_rank_completion
from thlrecon.params import (
    accept,
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
    assert p.comp_rs.field.degree == 14
    assert p.ibar == tuple(range(7, 64))


def test_tables_only_for_multiplied_matrices():
    p, p511 = params_build(63, 1, 4, 2), params_build(511, 1, 4, 2)
    # encodes and the decode anchor multiply by these: set-up builds
    # their product tables, so no encode state is left to first use
    assert all(m._tables is not None for m in (p.cl.parity, p.hf_inv))
    # comp syndromes are column sums, and BCH(4096, 4) tables would be
    # megabytes no session reads
    assert p.comp.parity._tables is None and p.comp._lift._tables is None
    assert p.cl.parity._tables  # H_l at 12x63: tables beat 12 row parities
    # H_l at 18x511 has fewer rows than byte tables: row parities, no tables
    assert p511.cl.parity._tables == [] and p511.hf_inv._tables
    # the B_h key multiplies from x^3 on, x^2 from the squaring matrix;
    # with h <= 3 it multiplies nothing, and no column field is kept.
    # Over N = 4096 positions the column field GF(2^12) has exp/log
    # tables.
    assert p.bh._square._tables and p511.bh._square._tables
    assert p.bh._col_field._exp is not None
    for h in (2, 3):
        bh = params_build(63, 1, h, 1).bh
        assert bh._col_field is None and bh._square is None
    # t > 1: map_f and gamma multiply in the beta and delta fields per
    # element; the grid field GF(2^120) is past the table limit
    p = params_build(127, 3, 2, 1)
    assert p.beta_field._exp is not None and p.delta_field._exp is not None
    assert p.nbar_field._exp is None


@pytest.mark.parametrize("point", [(63, 1, 4, 2), (127, 1, 2, 1), (511, 1, 4, 2)])
def test_tail_projection_is_h_bar_product(point):
    p = params_build(*point)
    assert len(p.tail) == p.n - p.r
    h_bar = full_rank_completion(p.cl.parity)
    rng = random.Random(point[0])
    for _ in range(30):
        x = BitVector(rng.getrandbits(p.n), p.n)
        assert project(x, p.tail) == mul_vec_rows(h_bar, x.value)


def test_default_index_set():
    assert default_index_set(63) == (1, 2, 3, 4, 5, 6)
    assert default_index_set(127) == (1, 2, 3, 4, 5, 6, 7)
    p = params_build(63, 2, 2, 1)
    assert p.I == (1, 2, 3, 4, 5, 6)


def test_bh_width_constraint_named():
    with pytest.raises(ParamsError) as e:
        params_build(15, 1, 3, 1)
    assert e.value.constraint == "bh_width"


def test_t1_comp_field_degree_named():
    # C_l of (n=511, ell=3) has r = 27, so the comp code's locator field
    # GF(2^28) is past the degrees whose group order can be factored
    with pytest.raises(ParamsError) as e:
        params_build(511, 1, 1, 3)
    assert e.value.constraint == "comp_field_degree"


def test_i_rules():
    with pytest.raises(ParamsError) as e:
        params_build(63, 1, 2, 1, I=(1, 2))
    assert e.value.constraint == "i_empty_for_t1"
    with pytest.raises(ParamsError) as e:
        params_build(63, 2, 2, 1, I=(0, 1))
    assert e.value.constraint == "i_subset"


@pytest.mark.parametrize(
    "point,I,constraint",
    [
        ((3, 1, 1, 1), None, "n_range"),
        ((2049, 1, 1, 1), None, "n_range"),
        ((63, 1, 0, 1), None, "h_range"),
        ((63, 1, 1, 0), None, "ell_range"),
        ((63, 2, 2, 1), (), "i_nonempty"),
        ((15, 2, 1, 1), range(1, 16), "i_subset"),
        ((5, 1, 1, 2), None, "digest_width"),
        ((4, 4, 1, 1), None, "f_width"),
        ((4, 2, 1, 1), None, "q_width"),
        ((23, 3, 1, 4), None, "comp_field_degree"),
        ((14, 2, 4, 1), None, "comp_distance"),
        ((14, 2, 3, 2), None, "gamma_width"),
        ((63.0, 1, 2, 1), None, "integers"),
        (("63", 1, 2, 1), None, "integers"),
        ((63, 1.0, 2, 1), None, "integers"),
        ((63, 1, 2.0, 1), None, "integers"),
        ((63, 1, 2, 1.0), None, "integers"),
        ((63, 2, 2, 1), (1.5, 2), "integers"),
        ((63, 2, 2, 1), (1, "2"), "integers"),
        ((63, 2, 2, 1), ("a",), "integers"),
        ((63, 2, 2, 1), 3, "integers"),
    ],
)
def test_each_constraint_named(point, I, constraint):
    with pytest.raises(ParamsError) as e:
        params_build(*point, I=I)
    assert e.value.constraint == constraint


def test_fingerprint_deterministic_and_sensitive():
    a = params_build(63, 2, 2, 1)
    b = params_build(63, 2, 2, 1)
    c = params_build(63, 2, 2, 2)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert len(a.fingerprint) == 32


def test_fingerprint_follows_replace():
    # the fingerprint is computed once per instance; replace builds a
    # new instance, so a cached value never outlives its fields
    p = params_build(63, 2, 2, 1)
    before = p.fingerprint
    q = dataclasses.replace(p, n=64)
    assert p.fingerprint is before
    assert q.fingerprint == hashlib.sha256(q.canonical_text().encode("ascii")).digest()
    assert q.fingerprint != before


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
    blank = parse_params_text("n=63\n\nt=1\nh=2\nell=1\n")
    assert blank == {"n": 63, "t": 1, "h": 2, "ell": 1}


def test_params_text_rejects_a_repeated_key():
    with pytest.raises(ParamsError) as e:
        parse_params_text("n=63\nt=1\nh=2\nell=1\nn=127\n")
    assert str(e.value) == "params_file: line 5: duplicate key 'n'"


@pytest.mark.parametrize(
    "text,line",
    [
        ("n=abc\nt=1\nh=2\nell=1\n", 1),
        ("n=63\nt=2\nh=2\nell=1\nI=1,x\n", 5),
        ("n=63\nt 1\n", 2),
    ],
    ids=["n", "I", "no-equals"],
)
def test_params_text_rejects_non_integers(text, line):
    with pytest.raises(ParamsError) as e:
        parse_params_text(text)
    assert e.value.constraint == "params_file"
    assert f"line {line}:" in str(e.value)


@pytest.mark.parametrize(
    "n,t,h,ell",
    [(63, 2, 2, 1), (63, 2, 3, 2), (63, 3, 2, 1), (127, 2, 2, 1),
     (127, 2, 3, 2), (127, 3, 2, 1), (16, 2, 2, 2)],
)
def test_t_grid_builds(n, t, h, ell):
    p = params_build(n, t, h, ell)
    assert p.s_prime >= (h + 1) // 2
    assert p.s_prime * (p.r + 1) <= p.nbar
    assert (1 << p.comp_rs.field.degree) > p.N


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

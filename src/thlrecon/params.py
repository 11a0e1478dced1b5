"""Shared reconciliation configuration and everything derived from it.

Both hosts must agree on (n, t, h, ell, I).  From those five values this
module deterministically derives every code, field, and map dimension
the schemes use, validates all width constraints up front (so both
hosts fail identically before any traffic), and computes the canonical
fingerprint used by the wire handshake.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field, replace

from .bits import Positions, hamming, project
from .codes import BchCode, BhSequence, RsCode, bch_build, bh_sequence, rs_code
from .errors import InconsistentDigests, ParamsError
from .gf2 import DLOG_MAX_DEGREE, FieldSpec, ff_make
from .linalg import BinaryMatrix, full_rank_completion, invert
from .maps_t import f_lanes, gamma


def default_index_set(n: int) -> tuple:
    """Default agreement positions: the first ceil(lg n) coordinates."""
    k = (n - 1).bit_length()
    return tuple(range(1, k + 1))


@dataclass(frozen=True)
class Params:
    """Agreed configuration plus all derived structure (immutable)."""

    n: int
    t: int
    h: int
    ell: int
    I: tuple

    # shared derivations
    r: int = field(repr=False, default=0)
    N: int = field(repr=False, default=0)
    cl: BchCode = field(repr=False, default=None)  # cl.parity is H_l

    # single-cluster (t = 1) scheme
    tail: tuple = field(repr=False, default=())  # H_l's non-pivot columns, 1-based
    hf_inv: BinaryMatrix = field(repr=False, default=None)
    digest_field: FieldSpec = field(repr=False, default=None)
    bh: BhSequence = field(repr=False, default=None)
    comp: BchCode = field(repr=False, default=None)

    # multi-cluster (t > 1) scheme
    nbar: int = field(repr=False, default=0)
    ibar: tuple = field(repr=False, default=())
    beta_field: FieldSpec = field(repr=False, default=None)
    comp_rs: RsCode = field(repr=False, default=None)
    nbar_field: FieldSpec = field(repr=False, default=None)
    delta_field: FieldSpec = field(repr=False, default=None)
    s_prime: int = field(repr=False, default=0)
    gamma_powers: tuple = field(repr=False, default=None)  # [j][row], small N only
    f_lane_table: tuple = field(repr=False, default=None)  # [x_I], small N only

    # SHA-256 of canonical_text(), set by __post_init__, so replace()
    # recomputes it; a cached_property would give the instance a
    # materialized __dict__ and slow every other attribute read
    fingerprint: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        text = self.canonical_text().encode("ascii")
        object.__setattr__(self, "fingerprint", hashlib.sha256(text).digest())

    def canonical_text(self) -> str:
        return (
            f"n={self.n}\n"
            f"t={self.t}\n"
            f"h={self.h}\n"
            f"ell={self.ell}\n"
            f"I={','.join(str(i) for i in self.I)}\n"
        )


def params_build(n: int, t: int, h: int, ell: int, I=None) -> Params:
    """Validate a configuration and derive all shared structure.

    Raises :class:`ParamsError` naming the first violated constraint.
    Identical inputs yield identical derivations on every host.
    """
    try:
        n, t, h, ell = map(operator.index, (n, t, h, ell))
        I = None if I is None else tuple(map(operator.index, I))
    except TypeError:
        raise ParamsError("integers", "n, t, h, ell and I must be integers") from None
    if not 4 <= n <= 2048:
        raise ParamsError("n_range", f"n={n} outside [4, 2048]")
    if t < 1:
        raise ParamsError("t_range", f"t={t} must be >= 1")
    if h < 1:
        raise ParamsError("h_range", f"h={h} must be >= 1")
    if not 1 <= ell < n:
        raise ParamsError("ell_range", f"ell={ell} outside [1, n)")
    if 2 * ell + 1 > n:
        raise ParamsError(
            "cl_distance", f"designed distance 2*ell+1={2 * ell + 1} exceeds n={n}"
        )

    if t == 1:
        if I:
            raise ParamsError("i_empty_for_t1", "index set I applies only when t > 1")
        I = Positions()  # accept projects every block onto it
    else:
        if I is None:
            I = default_index_set(n)
        I = Positions(sorted(set(I)))
        if not I:
            raise ParamsError("i_nonempty", "t > 1 requires a nonempty index set I")
        if I[0] < 1 or I[-1] > n:
            raise ParamsError("i_subset", "index set I must be a subset of [n]")
        if len(I) >= n:
            raise ParamsError("i_subset", "index set I must leave positions outside I")

    cl = bch_build(n, ell)
    r = cl.redundancy
    N = 1 << r
    h_l = cl.parity
    h_l.ensure_tables()  # every encode maps elements through it; short, wide: none

    # the comp code's field (t = 1: GF(2^(r+1)); t > 1: the stage-1
    # symbol field) needs discrete logs
    if t == 1:
        if r + 1 > DLOG_MAX_DEGREE:
            raise ParamsError(
                "comp_field_degree",
                f"comp code locator field degree {r + 1} exceeds {DLOG_MAX_DEGREE}",
            )
        if n - r < 1:
            raise ParamsError("digest_width", "C_l leaves no free coordinates")
        width = BhSequence.packed_width(N, h)
        if width > n - r:  # true whenever 2h+1 > N, as then h*r >= 2^r > n
            raise ParamsError(
                "bh_width",
                f"B_h column width {width} exceeds n-r={n - r} "
                f"(n={n}, ell={ell}, h={h})",
            )
        h_bar = full_rank_completion(h_l)
        hf_inv = invert(BinaryMatrix(n, n, h_l.row_data + h_bar.row_data))
        hf_inv.ensure_tables()  # the anchor of every decode
        # H_bar's rows are the unit vectors at H_l's non-pivot columns,
        # so H_bar x is the projection of x onto them
        tail = Positions(row.bit_length() for row in h_bar.row_data)
        digest_field = ff_make(n - r)
        bh = bh_sequence(N, h)
        comp = bch_build(N, h)
        return Params(
            n=n, t=1, h=h, ell=ell, I=I,
            r=r, N=N, cl=cl, tail=tail, hf_inv=hf_inv,
            digest_field=digest_field, bh=bh, comp=comp,
        )

    # multi-cluster derivations
    m = len(I)
    nbar = n - m
    ibar = Positions(p for p in range(1, n + 1) if p not in I)
    if 2 * t + 1 > (1 << (m + 1)) - 1:
        raise ParamsError(
            "f_width", f"2t+1={2 * t + 1} exceeds the nonzero patterns of {m + 1} bits"
        )
    q_degree = t * (m + 1)
    if q_degree > nbar:
        raise ParamsError(
            "q_width", f"packed f-value width {q_degree} exceeds nbar={nbar}"
        )
    a = q_degree
    while (1 << a) <= N:
        a += q_degree
    if a > DLOG_MAX_DEGREE:
        raise ParamsError(
            "comp_field_degree",
            f"stage-1 symbol field degree {a} exceeds {DLOG_MAX_DEGREE}",
        )
    if 2 * t * h + 1 > N:
        raise ParamsError("comp_distance", "2th+1 exceeds the position space")
    s_full = ((1 << t) - 1) * h
    s_prime = min((s_full + 1) // 2, nbar // (r + 1))
    if s_prime < (h + 1) // 2:
        raise ParamsError(
            "gamma_width",
            f"gamma column needs {(h + 1) // 2} odd powers of {r + 1} bits, "
            f"only {nbar // (r + 1)} fit in nbar={nbar}",
        )
    comp_rs = rs_code(ff_make(a), N, 2 * t * h + 1)
    beta_field, delta_field = ff_make(m + 1), ff_make(r + 1)
    for spec in (beta_field, delta_field):
        spec.ensure_tables()  # map_f and gamma multiply in them per element
    params = Params(
        n=n, t=t, h=h, ell=ell, I=I, r=r, N=N, cl=cl,
        nbar=nbar, ibar=ibar, beta_field=beta_field, comp_rs=comp_rs,
        nbar_field=ff_make(nbar), delta_field=delta_field, s_prime=s_prime,
    )
    if comp_rs.root_positions is None:  # N is above the position-table cap
        return params
    gammas = tuple(gamma(params, j) for j in range(N))
    lanes = None
    if 1 << m <= N:  # at most N entries, as for the gamma rows
        lanes = tuple(f_lanes(params, v) for v in range(1 << m))
    return replace(params, gamma_powers=gammas, f_lane_table=lanes)


class Digest(tuple):
    """A digest's fields in wire order, as :func:`digest_layout` lays
    them out.  Digests are XOR-linear: the XOR of two hosts' digests is
    the digest of their symmetric difference."""

    __slots__ = ()

    def __xor__(self, other: "Digest") -> "Digest":
        if len(self) != len(other):
            raise ValueError("digests of different layouts")
        return Digest(map(operator.xor, self, other))


def digest_layout(params: Params) -> tuple:
    """A digest's field widths in wire order, in sections that each start
    on a byte boundary: for t = 1, w1 then w2; for t > 1, one section of
    the 2th stage-1 symbols and then the t x t grid, row by row."""
    if params.t == 1:
        return ((params.comp.redundancy,), (params.n - params.r,))
    return (
        (params.comp_rs.field.degree,) * params.comp_rs.redundancy
        + (params.nbar,) * (params.t * params.t),
    )


def check_digest(params: Params, d) -> None:
    """Raise unless ``d`` is a :class:`Digest` whose fields fit
    :func:`digest_layout`: TypeError for another type, ValueError for
    another field count or a field outside [0, 2^width)."""
    if not isinstance(d, Digest):
        raise TypeError(f"expected a Digest, got {type(d).__name__}")
    widths = [w for section in digest_layout(params) for w in section]
    if len(d) != len(widths):
        raise ValueError("digest does not match the field layout")
    for width, v in zip(widths, d):
        if v < 0 or v >> width:
            raise ValueError("value wider than field width")


def digest_cost_bits(params: Params) -> int:
    """Exact digest size in bits, pad bits excluded."""
    return sum(map(sum, digest_layout(params)))


def accept(params: Params, blocks, d, encode) -> frozenset:
    """The difference made of ``blocks`` (tuples of elements), if it
    meets the (t, h, ell) promise and ``encode`` maps it to the digest
    sum ``d``.

    Digests are linear, so a candidate is correct exactly when both
    hold.  Raises :class:`InconsistentDigests` otherwise.
    """
    if len(blocks) > params.t:
        raise InconsistentDigests("more blocks than t")
    delta = frozenset(x for b in blocks for x in b)
    if len(delta) != sum(len(b) for b in blocks):
        raise InconsistentDigests("reconstructed difference has repeats")
    seen = set()
    for b in blocks:
        if len(b) > params.h:
            raise InconsistentDigests("block larger than h")
        for i, x in enumerate(b):
            for y in b[:i]:
                if hamming(x, y) > params.ell:
                    raise InconsistentDigests("cluster distance bound violated")
        proj = {project(x, params.I) for x in b}
        if len(proj) != 1:
            raise InconsistentDigests("block not constant on I")
        if proj <= seen:
            raise InconsistentDigests("blocks share an I-projection")
        seen |= proj
    if encode(params, delta) != d:
        raise InconsistentDigests("digest re-encoding mismatch")
    return delta


def parse_params_text(text: str) -> dict:
    """Parse the canonical key=value parameter file format."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsError("params_file", f"line {lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in ("n", "t", "h", "ell", "I"):
            raise ParamsError("params_file", f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ParamsError("params_file", f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "I":
                out["I"] = tuple(int(v) for v in val.split(",") if v.strip()) or None
            else:
                out[key] = int(val)
        except ValueError:
            raise ParamsError(
                "params_file", f"line {lineno}: {key} needs integers, got {val!r}"
            ) from None
    for req in ("n", "t", "h", "ell"):
        if req not in out:
            raise ParamsError("params_file", f"missing key {req!r}")
    return out


def params_from_text(text: str) -> Params:
    kw = parse_params_text(text)
    return params_build(kw["n"], kw["t"], kw["h"], kw["ell"], kw.get("I"))

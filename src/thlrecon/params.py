"""Shared reconciliation configuration and everything derived from it.

Both hosts must agree on (n, t, h, ell, I).  From those five values this
module deterministically derives every code, field, and map dimension
the schemes use, validates all width constraints up front (so both
hosts fail identically before any traffic), and computes the canonical
fingerprint used by the wire handshake.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .bits import hamming, project
from .codes import BchCode, BhSequence, RsCode, bch_build, bh_sequence, rs_code
from .errors import InconsistentDigests, ParamsError
from .gf2 import FieldSpec, ff_make
from .linalg import BinaryMatrix, full_rank_completion, invert

# Discrete logs in the stage-1 symbol field need its multiplicative
# group order factored; trial division covers degrees up to 26.
_COMP_FIELD_MAX_DEGREE = 26


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
    cl: BchCode = field(repr=False, default=None)
    h_l: BinaryMatrix = field(repr=False, default=None)

    # single-cluster (t = 1) scheme
    h_bar: BinaryMatrix = field(repr=False, default=None)
    hf_inv: BinaryMatrix = field(repr=False, default=None)
    digest_field: FieldSpec = field(repr=False, default=None)
    bh: BhSequence = field(repr=False, default=None)
    comp: BchCode = field(repr=False, default=None)

    # multi-cluster (t > 1) scheme
    nbar: int = field(repr=False, default=0)
    ibar: tuple = field(repr=False, default=())
    q_degree: int = field(repr=False, default=0)
    beta_field: FieldSpec = field(repr=False, default=None)
    comp_field: FieldSpec = field(repr=False, default=None)
    comp_rs: RsCode = field(repr=False, default=None)
    nbar_field: FieldSpec = field(repr=False, default=None)
    delta_field: FieldSpec = field(repr=False, default=None)
    s_prime: int = field(repr=False, default=0)

    @property
    def fingerprint(self) -> bytes:
        return hashlib.sha256(self.canonical_text().encode("ascii")).digest()

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
        I = ()
    else:
        if I is None:
            I = default_index_set(n)
        I = tuple(sorted(set(int(i) for i in I)))
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

    if t == 1:
        if n - r < 1:
            raise ParamsError("digest_width", "C_l leaves no free coordinates")
        width = BhSequence.packed_width(N, h)
        if width > n - r:
            raise ParamsError(
                "bh_width",
                f"B_h column width {width} exceeds n-r={n - r} "
                f"(n={n}, ell={ell}, h={h})",
            )
        if 2 * h + 1 > N:
            raise ParamsError("comp_distance", "2h+1 exceeds the position space")
        h_bar = full_rank_completion(h_l)
        hf_inv = invert(h_l.stack(h_bar))
        digest_field = ff_make(n - r)
        bh = bh_sequence(N, h, digest_field)
        comp = bch_build(N, h)
        return Params(
            n=n, t=1, h=h, ell=ell, I=(),
            r=r, N=N, cl=cl, h_l=h_l,
            h_bar=h_bar, hf_inv=hf_inv,
            digest_field=digest_field, bh=bh, comp=comp,
        )

    # multi-cluster derivations
    m = len(I)
    nbar = n - m
    ibar = tuple(p for p in range(1, n + 1) if p not in set(I))
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
    if a > _COMP_FIELD_MAX_DEGREE:
        raise ParamsError(
            "comp_field_degree",
            f"stage-1 symbol field degree {a} exceeds {_COMP_FIELD_MAX_DEGREE}",
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
    comp_field = ff_make(a)
    comp_rs = rs_code(comp_field, N, 2 * t * h + 1)
    nbar_field = ff_make(nbar)
    delta_field = ff_make(r + 1)
    return Params(
        n=n, t=t, h=h, ell=ell, I=I,
        r=r, N=N, cl=cl, h_l=h_l,
        nbar=nbar, ibar=ibar,
        q_degree=q_degree, beta_field=ff_make(m + 1),
        comp_field=comp_field, comp_rs=comp_rs,
        nbar_field=nbar_field, delta_field=delta_field,
        s_prime=s_prime,
    )


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


def cond4_violation_prob(params: Params) -> float:
    """Probability bound that a random instance breaks the index-set
    agreement conditions: t*h^2*ell*|I|/n + t^2*h^2/2^|I|, clipped to 1.

    For t = 1 configurations (empty I) the default index-set size is
    used so the estimate stays well defined.
    """
    m = len(params.I) or len(default_index_set(params.n))
    t, h = params.t, params.h
    p = t * h * h * params.ell * m / params.n + t * t * h * h / (1 << m)
    return min(1.0, p)


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
        if key in ("n", "t", "h", "ell"):
            out[key] = int(val)
        elif key == "I":
            out["I"] = tuple(int(v) for v in val.split(",") if v.strip()) or None
        else:
            raise ParamsError("params_file", f"line {lineno}: unknown key {key!r}")
    for req in ("n", "t", "h", "ell"):
        if req not in out:
            raise ParamsError("params_file", f"missing key {req!r}")
    return out


def params_from_text(text: str) -> Params:
    kw = parse_params_text(text)
    return params_build(kw["n"], kw["t"], kw["h"], kw["ell"], kw.get("I"))

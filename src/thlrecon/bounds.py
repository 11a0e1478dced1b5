"""Information-exchange bound calculators.

Exact lower/upper bounds on the log of the number of colors needed to
distinguish reconcilable sets (evaluated with exact big integers, then
reduced to log2), asymptotic rate bounds from the q-ary entropy
function, and the naive per-element transfer baseline used for
comparison.
"""

from __future__ import annotations

import math

Q = 2  # binary alphabet throughout


def sphere_size(q: int, n: int, k: int) -> int:
    """Exact number of words within Hamming distance k of a fixed word."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(k + 1))


def entropy_q(q: int, x: float) -> float:
    """q-ary entropy H_q(x), with 0*log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument outside [0, 1]")
    if q < 2:
        raise ValueError("need q >= 2")
    h = 0.0
    if 0.0 < x < 1.0:
        h = -(x * math.log(x, q)) - (1.0 - x) * math.log(1.0 - x, q)
    h += x * math.log(q - 1, q) if q > 2 else 0.0
    return h


def log2_big(x: int) -> float:
    """log2 of a positive big integer (``math.log2`` takes any int)."""
    if x <= 0:
        raise ValueError("log2 of nonpositive value")
    return math.log2(x)


def _unpack(params):
    if hasattr(params, "n"):
        return params.n, params.t, params.h, params.ell
    n, t, h, ell = params
    return n, t, h, ell


def chromatic_bounds(params):
    """(log2_lower, log2_upper) color-count bounds for (t,h,ell)
    reconciliation of n-bit strings, from exact big-integer sums.

    The lower bound counts difference configurations built from a code
    of minimum distance ell+1 and radius-floor(ell/2) spheres; the
    upper bound counts all configurations with radius-ell spheres.
    The code's size is the Gilbert-Varshamov estimate 2^n / V(n, ell).
    """
    n, t, h, ell = _unpack(params)
    if n > 512:
        raise ValueError("n > 512 rejected for runtime")
    code_size = (1 << n) // sphere_size(Q, n, ell)
    r1 = sphere_size(Q, n, ell // 2) - 1
    r2 = sphere_size(Q, n, ell) - 1
    inner1 = sum(math.comb(r1, k) for k in range(h))
    inner2 = sum(math.comb(r2, k) for k in range(h))
    lower = sum(math.comb(code_size, j) * inner1**j for j in range(1, t + 1))
    upper = sum(math.comb(1 << n, j) * inner2**j for j in range(2 * t + 1))
    return log2_big(lower), log2_big(upper)


def asymptotic_rates(q: int, lam: float, eta: float):
    """(rate_lower, rate_upper) per t*n*h symbol, for difference
    density lambda and redundancy-rate slack eta."""
    if not (math.isfinite(lam) and math.isfinite(eta)):
        raise ValueError("lambda and eta must be finite")
    if not 0.0 < lam < 1.0 - 1.0 / q:
        raise ValueError("lambda outside (0, 1-1/q)")
    upper_h = entropy_q(q, lam)
    if eta >= upper_h:
        raise ValueError("eta must be below H_q(lambda)")
    return entropy_q(q, lam / 2.0) - eta, 2.0 * (upper_h - eta)


def baseline_bits(params) -> int:
    """Naive per-element transfer cost: t * h * (n + 1) bits."""
    n, t, h, _ = _unpack(params)
    if min(n, t, h) < 1:
        raise ValueError("need n, t and h >= 1")
    return t * h * (n + 1)

import math

import pytest

from thlrecon.bounds import (
    asymptotic_rates,
    baseline_bits,
    chromatic_bounds,
    entropy_q,
    log2_big,
    sphere_size,
)
from thlrecon.params import digest_cost_bits, params_build


def test_sphere_size():
    assert sphere_size(2, 5, 0) == 1
    assert sphere_size(2, 5, 1) == 6
    assert sphere_size(2, 10, 10) == 1024
    assert sphere_size(3, 4, 1) == 1 + 4 * 2
    with pytest.raises(ValueError):
        sphere_size(2, 5, 6)


def test_entropy():
    assert entropy_q(2, 0.0) == 0.0
    assert entropy_q(2, 1.0) == pytest.approx(0.0)
    assert entropy_q(2, 0.5) == pytest.approx(1.0)
    assert entropy_q(2, 0.11) == pytest.approx(0.4999, abs=5e-4)
    with pytest.raises(ValueError):
        entropy_q(2, 1.5)


def test_log2_big():
    assert log2_big(1024) == pytest.approx(10.0)
    x = 3**2000
    assert log2_big(x) == pytest.approx(2000 * math.log2(3), rel=1e-12)
    assert log2_big(1 << 100000) == 100000.0
    for bad in (0, -1):
        with pytest.raises(ValueError):
            log2_big(bad)


def test_chromatic_bounds_basic():
    lo, hi = chromatic_bounds((31, 1, 2, 2))
    assert lo <= hi
    # t=1, h=1: lower sum reduces to the Gilbert-Varshamov code size
    lo1, _ = chromatic_bounds((31, 1, 1, 2))
    assert lo1 == pytest.approx(math.log2(2**31 // sphere_size(2, 31, 2)))


def test_chromatic_bounds_fixture_pinned():
    # regression fixture: values from this implementation's exact
    # big-integer evaluation at n=31, t=1, h=2, ell=2
    lo, hi = chromatic_bounds((31, 1, 2, 2))
    assert lo == pytest.approx(27.042898, abs=1e-4)
    assert hi == pytest.approx(78.914204, abs=1e-4)


# (digest bits, log2 lower, log2 upper, naive bits) at the five golden
# points, which include the three benchmark workload points, and the
# two README examples.  The digest is linear in n: the t = 1 w2 takes
# n - r bits and each t > 1 grid entry nbar bits.
DIGEST_SIZES = {
    (63, 1, 4, 2): (103, 67.3707, 185.6938, 256),
    (127, 1, 2, 1): (136, 120.0, 267.0, 256),
    (511, 1, 4, 2): (569, 518.4094, 1117.8132, 2048),
    (63, 2, 2, 1): (340, 113.0, 271.4150, 256),
    (127, 3, 2, 1): (1368, 357.4150, 794.5081, 768),
    (127, 1, 4, 1): (152, 120.0, 289.7631, 512),
    (127, 2, 4, 1): (736, 239.0, 576.9412, 1024),
}


@pytest.mark.parametrize("point", sorted(DIGEST_SIZES))
def test_digest_sizes_pinned(point):
    # two t > 1 points cost more than shipping the difference, and
    # (127, 2, 4, 1) less
    p = params_build(*point)
    bits, lower, upper, naive = DIGEST_SIZES[point]
    assert digest_cost_bits(p) == bits
    assert chromatic_bounds(p) == pytest.approx((lower, upper), abs=1e-4)
    assert baseline_bits(p) == naive


def test_chromatic_bounds_grid_monotone():
    for n in (15, 31, 63):
        for t in (1, 2, 3, 4):
            for h in (1, 2, 3, 4):
                for ell in (1, 2, 3):
                    lo, hi = chromatic_bounds((n, t, h, ell))
                    assert lo <= hi


def test_chromatic_bounds_rejects_huge_n():
    with pytest.raises(ValueError):
        chromatic_bounds((1024, 1, 2, 1))


def test_asymptotic_rates():
    lo, hi = asymptotic_rates(2, 0.5 - 1e-9, 0.0)
    assert lo == pytest.approx(entropy_q(2, 0.25), abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        asymptotic_rates(2, 0.6, 0.0)
    with pytest.raises(ValueError):
        asymptotic_rates(2, 0.1, 0.9)


def test_rate_curves_shape():
    for eta in (0.0, 0.05, 0.1):
        prev_lo = prev_hi = -10.0
        for i in range(1, 49):
            lam = i / 100.0
            if entropy_q(2, lam) <= eta:
                continue
            lo, hi = asymptotic_rates(2, lam, eta)
            assert lo <= hi
            assert lo >= prev_lo and hi >= prev_hi  # increasing in lambda
            prev_lo, prev_hi = lo, hi


def test_sphere_sandwich():
    # q^(n H(k/n)) / (n+1) <= V(n, k) <= q^(n H(k/n))
    for n in (8, 16, 32, 64, 128):
        for k in range(0, n // 2 + 1):
            v = sphere_size(2, n, k)
            exponent = n * entropy_q(2, k / n)
            assert log2_big(v) <= exponent + 1e-9
            assert log2_big(v) >= exponent - math.log2(n + 1) - 1e-9


def test_sphere_entropy_limit():
    # log2 V(n, n*kappa) / n approaches H(kappa) from below
    kappa = 0.3
    for n, tol in ((100, 0.05), (1000, 0.01), (10000, 0.002)):
        k = int(n * kappa)
        got = log2_big(sphere_size(2, n, k)) / n
        assert got <= entropy_q(2, kappa) + 1e-9
        assert got == pytest.approx(entropy_q(2, kappa), abs=tol)


def test_baseline_bits():
    assert baseline_bits((127, 1, 4, 1)) == 512
    assert baseline_bits((63, 2, 2, 1)) == 256
    assert baseline_bits(params_build(127, 1, 4, 1)) == 512

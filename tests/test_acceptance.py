"""Acceptance gate: eight end-to-end criteria, one printed line each.

Each test prints ``criterion N: PASS`` (or FAIL) on the real stdout so
the lines survive pytest's capture and appear in piped logs.
"""

import math
import threading
import time
from itertools import combinations

import pytest

from thlrecon.bits import BitVector
from thlrecon.bounds import (
    asymptotic_rates,
    baseline_bits,
    chromatic_bounds,
    entropy_q,
    log2_big,
    sphere_size,
)
from thlrecon.codes import bh_sequence
from thlrecon.gf2 import ff_make
from thlrecon.errors import ParamMismatch, ThlreconError
from thlrecon.maps_t import map_f, map_M
from thlrecon.oracle import gen_instance
from thlrecon.params import digest_cost_bits, params_build
from thlrecon.protocol import (
    FRAME_OVERHEAD,
    Transport,
    decode_digests,
    encode_digest,
    serialize_digest,
    session_run,
)
from thlrecon.recon1 import encode1
from thlrecon.recont import encode_t

T1_GRID = [
    (n, h, ell)
    for n in (15, 31, 63, 127)
    for ell in (1, 2, 3)
    for h in (2, 3, 4)
]
TT_GRID = [
    (n, t, h, ell)
    for n in (63, 127)
    for (t, h, ell) in ((2, 2, 1), (2, 3, 2), (3, 2, 1))
]
TRIALS = 1000


@pytest.fixture()
def report(capfd):
    """Run a criterion body and print its pass/fail line on the real
    terminal, outside pytest's capture."""

    class Reporter:
        def line(self, msg):
            with capfd.disabled():
                print(msg, flush=True)

        def run(self, num, body):
            try:
                result = body()
            except BaseException:
                self.line(f"criterion {num}: FAIL")
                raise
            self.line(f"criterion {num}: PASS")
            return result

    return Reporter()


def _t1_points():
    feasible, skipped = [], []
    for n, h, ell in T1_GRID:
        try:
            feasible.append(params_build(n, 1, h, ell))
        except ThlreconError as exc:
            skipped.append((n, h, ell, getattr(exc, "constraint", "?")))
    return feasible, skipped


def test_criterion_1_exact_reconciliation_t1(report):
    def body():
        t0 = time.monotonic()
        feasible, skipped = _t1_points()
        # the digest width for one difference-position label must fit the
        # n - r unconstrained bits; narrow n / wide h points cannot exist
        for n, h, ell, constraint in skipped:
            assert constraint == "bh_width", (n, h, ell, constraint)
            report.line(
                f"criterion 1: skip infeasible point n={n} h={h} ell={ell}"
                f" ({constraint})"
            )
        assert len(feasible) == 21 and len(skipped) == 15
        for p in feasible:
            for seed in range(TRIALS):
                SA, SB, delta = gen_instance(p, seed, seed % 51)
                got = decode_digests(p, encode1(p, SA), encode1(p, SB))
                assert got == delta, (p.n, p.h, p.ell, seed)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, elapsed

    report.run(1, body)


def test_criterion_2_exact_reconciliation_t_gt_1(report):
    def body():
        t0 = time.monotonic()
        for n, t, h, ell in TT_GRID:
            p = params_build(n, t, h, ell)
            for seed in range(TRIALS):
                SA, SB, delta = gen_instance(p, seed, seed % 51)
                got = decode_digests(p, encode_t(p, SA), encode_t(p, SB))
                assert got == delta, (n, t, h, ell, seed)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, elapsed

    report.run(2, body)


def test_criterion_3_digest1_size(report):
    def body():
        feasible, _ = _t1_points()
        for p in feasible:
            bits = digest_cost_bits(p)
            budget = 2 * (p.n + (p.h - 1) * p.ell * (math.ceil(math.log2(p.n)) + 1))
            assert bits <= budget, (p.n, p.h, p.ell, bits, budget)
            if p.n >= 63:
                assert bits < p.h * (p.n + 1), (p.n, p.h, p.ell, bits)
        p = params_build(127, 1, 4, 1)
        assert digest_cost_bits(p) == 152  # u=32 syndrome + 120 digest bits
        assert baseline_bits(p) == 512

    report.run(3, body)


def test_criterion_4_digestT_size(report):
    def body():
        points = TT_GRID + [(127, 2, 4, 1)]
        for n, t, h, ell in points:
            p = params_build(n, t, h, ell)
            bits = digest_cost_bits(p)
            lg = math.ceil(math.log2(n))
            budget = 2 * (t * t * n + 2 * t * h * (ell + t) * lg)
            assert bits <= budget, (n, t, h, ell, bits, budget)
        p = params_build(127, 2, 4, 1)
        assert digest_cost_bits(p) < 2 * 4 * 128

    report.run(4, body)


def test_criterion_5_bounds_order(report):
    def body():
        t0 = time.monotonic()
        for n in range(8, 64):
            for t in (1, 2, 3):
                for h in (1, 2, 3, 4):
                    for ell in (1, 2, 3):
                        lo, hi = chromatic_bounds((n, t, h, ell))
                        assert lo <= hi, (n, t, h, ell, lo, hi)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, elapsed

    report.run(5, body)


def test_criterion_6_rate_curves(report):
    def body():
        for eta in (0.0, 0.05, 0.1):
            prev_lo = prev_hi = -10.0
            for i in range(1, 50):
                lam = i / 100.0
                if entropy_q(2, lam) <= eta:
                    continue  # eta exceeds the rate budget; curve undefined
                lo, hi = asymptotic_rates(2, lam, eta)
                assert lo <= hi
                assert lo >= prev_lo and hi >= prev_hi
                prev_lo, prev_hi = lo, hi
        lo, hi = asymptotic_rates(2, 0.5 - 1e-12, 0.0)
        gap = hi - lo
        assert abs(gap - (2.0 - entropy_q(2, 0.25))) < 1e-3
        assert abs(gap - 1.1887) < 1e-3

    report.run(6, body)


def test_criterion_7_property_suites(report):
    def body():
        # no two distinct strings within distance ell share a syndrome;
        # by linearity: every nonzero pattern of weight <= ell has a
        # nonzero syndrome (exhaustive at n = 15)
        for ell in (1, 2):
            p = params_build(15, 2, 2, ell)
            for wt in range(1, ell + 1):
                for pos in combinations(range(15), wt):
                    v = 0
                    for i in pos:
                        v |= 1 << i
                    assert map_M(p, BitVector(v, 15)) != 0

        # any xor of 1..2t distinct f-values is nonzero (exhaustive)
        for p in (params_build(15, 2, 2, 1), params_build(63, 2, 2, 1)):
            vals = [map_f(p, x) for x in range(1 << len(p.I))]
            assert len(set(vals)) == len(vals)
            for size in range(1, 2 * p.t + 1):
                for sub in combinations(vals, size):
                    acc = 0
                    for v in sub:
                        acc ^= v
                    assert acc != 0

        # subset sums of the division sequence are nonzero (exhaustive)
        for m, h, degree in ((16, 2, 64), (32, 3, 120)):
            seq = bh_sequence(m, h)
            vals = seq.element_values(range(m))
            for size in range(1, h + 1):
                for sub in combinations(vals, size):
                    acc = 0
                    for v in sub:
                        acc ^= v
                    assert acc != 0, (m, h, sub)

        # sphere sandwich: 2^(nH(k/n)) / (n+1) <= V(n,k) <= 2^(nH(k/n))
        for n in range(1, 129):
            for k in range(0, n // 2 + 1):
                v = log2_big(sphere_size(2, n, k))
                exponent = n * entropy_q(2, k / n)
                assert v <= exponent + 1e-9
                assert v >= exponent - math.log2(n + 1) - 1e-9

    report.run(7, body)


class _Counting(Transport):
    """Counts frames alongside the byte totals."""

    frames_sent = 0

    def send_frame(self, msg_type, payload):
        self.frames_sent += 1
        super().send_frame(msg_type, payload)


def _run_pair(fn_a, fn_b):
    out = {}

    def run(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # noqa: BLE001 - checked by callers
            out[key] = exc

    ta = threading.Thread(target=run, args=("a", fn_a))
    tb = threading.Thread(target=run, args=("b", fn_b))
    ta.start(), tb.start()
    ta.join(30), tb.join(30)
    return out["a"], out["b"]


def test_criterion_8_protocol_sessions(report):
    import random
    import socket

    def body():
        t0 = time.monotonic()
        pool = [
            params_build(63, 1, 3, 2),
            params_build(127, 1, 2, 1),
            params_build(63, 2, 2, 1),
            params_build(127, 2, 3, 2),
        ]
        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]
        rng = random.Random(808)
        for session in range(100):
            p = pool[session % len(pool)]
            SA, SB, delta = gen_instance(p, rng.randrange(10**6), rng.randrange(30))
            digest_a = serialize_digest(p, encode_digest(p, SA))
            digest_b = serialize_digest(p, encode_digest(p, SB))

            ea, eb = _Counting.pair()
            with ea, eb:
                (dm_a, sm_a), (dm_b, sm_b) = _run_pair(
                    lambda: session_run(ea, p, SA), lambda: session_run(eb, p, SB)
                )

            def tcp_serve():
                conn, _ = srv.accept()
                with _Counting(conn) as t:
                    return session_run(t, p, SB), t

            def tcp_connect():
                with _Counting(socket.create_connection(("127.0.0.1", port))) as t:
                    return session_run(t, p, SA), t

            ((dt_a, st_a), ta), ((dt_b, st_b), tb) = _run_pair(
                tcp_connect, tcp_serve
            )

            # identical difference on both transports and both hosts
            assert dm_a == dm_b == dt_a == dt_b == delta
            # exactly two frames per host; identical payload byte totals
            for t in (ea, eb, ta, tb):
                assert t.frames_sent == 2
            expect_a = 2 * FRAME_OVERHEAD + 32 + len(digest_a)
            expect_b = 2 * FRAME_OVERHEAD + 32 + len(digest_b)
            for stats_a, stats_b in ((sm_a, sm_b), (st_a, st_b)):
                assert stats_a.bytes_sent == stats_b.bytes_received == expect_a
                assert stats_b.bytes_sent == stats_a.bytes_received == expect_b

        # fingerprint mismatch aborts before any digest bytes move
        pa, pb = pool[0], pool[1]
        SA, _, _ = gen_instance(pa, 1, 0)
        SB, _, _ = gen_instance(pb, 1, 0)
        ea, eb = _Counting.pair()
        with ea, eb:
            ra, rb = _run_pair(
                lambda: session_run(ea, pa, SA), lambda: session_run(eb, pb, SB)
            )
        assert isinstance(ra, ParamMismatch) and isinstance(rb, ParamMismatch)
        err_len = len(b"parameter fingerprint mismatch")
        assert ea.bytes_sent == 2 * FRAME_OVERHEAD + 32 + err_len

        srv.close()
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, elapsed

    report.run(8, body)

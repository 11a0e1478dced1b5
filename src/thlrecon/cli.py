"""Command-line interface.

Subcommands: gen (seeded instance files), digest (encode a set file),
reconcile (local digest file or TCP peer), bounds (CSV of exact and
asymptotic bounds), bench (digest size and timing table), verify
(oracle checks on set files).

Exit codes: 0 success, 2 usage/parameter error, 3 parameter mismatch,
4 inconsistent digests.
"""

from __future__ import annotations

import argparse
import socket
import sys
import time

from . import bounds as bounds_mod
from . import protocol
from .errors import InconsistentDigests, ParamMismatch, ThlreconError
from .oracle import gen_instance, oracle_is_thl, oracle_symdiff
from .params import digest_cost_bits, params_build, params_from_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INCONSISTENT = 4


def _load_params(path):
    with open(path, "r", encoding="ascii") as f:
        return params_from_text(f.read())


def _load_set(path, n):
    with open(path, "r", encoding="ascii") as f:
        return protocol.read_set_text(f.read(), n)


def _write(path, text):
    with open(path, "w", encoding="ascii") as f:
        f.write(text)


def cmd_gen(args):
    params = _load_params(args.params)
    SA, SB, delta = gen_instance(params, args.seed, args.common)
    _write(args.out_a, protocol.write_set_text(SA))
    _write(args.out_b, protocol.write_set_text(SB))
    if args.delta:
        _write(args.delta, protocol.write_set_text(delta))
    print(f"wrote {len(SA)} + {len(SB)} elements, |delta| = {len(delta)}")
    return EXIT_OK


def cmd_digest(args):
    params = _load_params(args.params)
    S = _load_set(args.set_file, params.n)
    d = protocol.encode_digest(params, S)
    data = protocol.serialize_digest(params, d)
    with open(args.out, "wb") as f:
        f.write(data)
    print(f"{len(data)} bytes ({digest_cost_bits(params)} digest bits)")
    return EXIT_OK


def _print_outcome(delta, params, stats=None):
    for x in sorted(delta, key=lambda v: v.value):
        print(x.hex())
    if stats is not None:
        print(
            f"# sent={stats.bytes_sent}B received={stats.bytes_received}B "
            f"digest={digest_cost_bits(params)}b "
            f"baseline={bounds_mod.baseline_bits(params)}b "
            f"outcome={stats.outcome}",
            file=sys.stderr,
        )


def cmd_reconcile(args):
    params = _load_params(args.params)
    S = _load_set(args.set_file, params.n)
    if args.peer_digest:
        with open(args.peer_digest, "rb") as f:
            peer = protocol.parse_digest(params, f.read())
        local = protocol.encode_digest(params, S)
        delta = protocol.decode_digests(params, local, peer)
        _print_outcome(delta, params)
        return EXIT_OK
    host, _, port = (args.connect or args.listen).rpartition(":")
    addr = (host or "127.0.0.1", int(port))
    if args.connect:
        sock = socket.create_connection(addr)
    else:
        with socket.create_server(addr) as srv:
            sock, _addr = srv.accept()
    with protocol.Transport(sock) as transport:
        delta, stats = protocol.session_run(transport, params, S)
    _print_outcome(delta, params, stats)
    return EXIT_OK


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def cmd_bounds(args):
    if args.curve:
        print("lambda,eta,rate_lower,rate_upper")
        etas = [float(v) for v in args.eta.split(",")]
        steps = args.steps
        for i in range(1, steps):
            lam = 0.5 * i / steps
            for eta in etas:
                try:
                    lo, hi = bounds_mod.asymptotic_rates(2, lam, eta)
                    print(f"{lam:.6f},{eta},{lo:.6f},{hi:.6f}")
                except ValueError:
                    print(f"{lam:.6f},{eta},error,error")
        return EXIT_OK
    print(
        "n,t,h,ell,log2_lower,log2_upper,rate_lower,rate_upper,"
        "baseline_bits,digest_bits"
    )
    for n in _int_list(args.n):
        for t in _int_list(args.t):
            for h in _int_list(args.h):
                for ell in _int_list(args.ell):
                    try:
                        lo, hi = bounds_mod.chromatic_bounds((n, t, h, ell))
                        log2s = f"{lo:.3f},{hi:.3f}"
                    except ValueError:
                        log2s = "error,error"
                    try:
                        lam = min(t * h / n, 0.49)
                        rlo, rhi = bounds_mod.asymptotic_rates(2, lam, 0.0)
                        rates = f"{rlo:.6f},{rhi:.6f}"
                    except (ValueError, ZeroDivisionError):
                        rates = "error,error"
                    try:
                        base = bounds_mod.baseline_bits((n, t, h, ell))
                    except ValueError:
                        base = "error"
                    try:
                        params = params_build(n, t, h, ell)
                        dig = str(digest_cost_bits(params))
                    except ThlreconError as exc:
                        dig = f"infeasible({getattr(exc, 'constraint', exc)})"
                    print(f"{n},{t},{h},{ell},{log2s},{rates},{base},{dig}")
    return EXIT_OK


def cmd_bench(args):
    params = _load_params(args.params)
    print("trial,digest_bits,baseline_bits,encode_s,decode_s,exact")
    dig = digest_cost_bits(params)
    base = bounds_mod.baseline_bits(params)
    for trial in range(args.trials):
        SA, SB, delta = gen_instance(params, args.seed + trial, args.common)
        t0 = time.perf_counter()
        dA = protocol.encode_digest(params, SA)
        dB = protocol.encode_digest(params, SB)
        t1 = time.perf_counter()
        got = protocol.decode_digests(params, dA, dB)
        t2 = time.perf_counter()
        print(
            f"{trial},{dig},{base},{t1 - t0:.6f},{t2 - t1:.6f},"
            f"{'yes' if got == delta else 'NO'}"
        )
    return EXIT_OK


def cmd_verify(args):
    params = _load_params(args.params)
    SA = _load_set(args.set_a, params.n)
    SB = _load_set(args.set_b, params.n)
    ok, witness = oracle_is_thl(
        SA, SB, params.t, params.h, params.ell, params.I or None
    )
    if not ok:
        print("invalid: difference is not a (t,h,ell) instance")
        return EXIT_INCONSISTENT
    if args.delta:
        expected = _load_set(args.delta, params.n)
        if oracle_symdiff(SA, SB) != expected:
            print("invalid: ground-truth delta file does not match")
            return EXIT_INCONSISTENT
    print(f"valid: {len(witness)} block(s)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thlrecon",
        description="Clustered set reconciliation digests over a one-round protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded valid instance")
    p.add_argument("params")
    p.add_argument("out_a")
    p.add_argument("out_b")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--common", type=int, default=0)
    p.add_argument("--delta", help="write ground-truth difference here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("digest", help="encode a set file into a digest")
    p.add_argument("params")
    p.add_argument("set_file")
    p.add_argument("out")
    p.set_defaults(func=cmd_digest)

    p = sub.add_parser("reconcile", help="decode against a peer digest or host")
    p.add_argument("params")
    p.add_argument("set_file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--peer-digest")
    group.add_argument("--connect", metavar="HOST:PORT")
    group.add_argument("--listen", metavar="HOST:PORT")
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("bounds", help="emit bound calculations as CSV")
    p.add_argument("--n", default="63")
    p.add_argument("--t", default="1")
    p.add_argument("--h", default="2")
    p.add_argument("--ell", default="1")
    p.add_argument("--curve", action="store_true", help="asymptotic rate curves")
    p.add_argument("--eta", default="0.0", help="comma-separated eta values")
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", help="digest size and timing over trials")
    p.add_argument("params")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--common", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="oracle-check a pair of set files")
    p.add_argument("params")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.add_argument("--delta")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParamMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InconsistentDigests as exc:
        print(f"error: inconsistent digests: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ThlreconError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

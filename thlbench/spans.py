"""Span tracing by wrapping thlrecon's public functions at run time.

Each wrapped call records a span (name, start, end, parent span,
session id) and adds to per-name call counts, self time and inclusive
time.  A name's self time is its span's duration minus the time its
wrapped children cover.  Targets reported only as ``.calls`` are
counted without a span, so their time stays in their caller's self
time.

A wrapper costs about a microsecond a call.  The hot targets (field
arithmetic, syndromes, matrix-vector products) are called thousands of
times a session, and a table-driven field multiply costs less than its
wrapper, so a traced run alternates two kinds of rounds:

* "session" rounds wrap everything.  They give every call count and
  the hot targets' own times.
* "light" rounds, like set-up, leave the hot targets unwrapped.  They
  give every other time, which then includes the hot calls made
  beneath it, at their true cost and with no wrapper cost.

So a hot target's time is counted twice: on its own, and in its
callers' self times.  ``BchCode.decode_positions.ms``, for one, is the
Chien scan with the field multiplications it makes.

The wrapper cost that remains is corrected: ``calibrate`` measures it
on a method that does nothing, split into the part inside a wrapped
call's span and the part outside it, which falls in the caller's span,
and self and inclusive times subtract it per wrapped or counted call
beneath them.  The cost moves with the machine's speed, so the
benchmark measures it again before every timed session.  The span
records keep the raw clock readings; hot calls are not kept as span
records, so the span list stays small.

Totals are kept per phase: "setup" (params_build and the warm-up
session), "session" and "light" (timed host sessions) and None (the
benchmark's own work, which is not recorded).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (group, target, reported figures, workloads that exercise it).  The
# "params" group is per run; every other group is per timed session.
LAYERS = (
    ("params", "params.params_build", ("ms",), "all"),
    ("params", "gf2.find_irreducible", ("ms",), "all"),
    ("params", "gf2.poly_is_irreducible", ("calls",), "all"),
    ("params", "gf2.FieldSpec.ensure_tables", ("ms",), "all"),
    ("params", "gf2.FieldSpec.generator", ("ms",), "all"),
    ("params", "linalg.full_rank_completion", ("ms",), "t1"),
    ("params", "linalg.invert", ("ms",), "t1"),
    ("params", "codes.bch_build", ("ms",), "all"),
    ("params", "codes.bh_sequence", ("ms",), "t1"),
    ("params", "codes.rs_code", ("ms",), "tT"),
    ("encode", "recon1.encode1", ("ms",), "t1"),
    ("encode", "recont.encode_t", ("ms",), "tT"),
    ("encode", "codes.BchCode.syndrome_bits", ("ms", "calls"), "all"),
    ("encode", "linalg.BinaryMatrix.mul_vec", ("ms", "calls"), "t1"),
    ("encode", "maps_t.map_f", ("ms",), "tT"),
    ("encode", "maps_t.gamma", ("ms",), "tT"),
    ("encode", "codes.RsCode.syndrome_sparse", ("ms",), "tT"),
    ("encode", "gf2.FieldSpec.mul", ("ms", "calls"), "all"),
    ("encode", "gf2.FieldSpec.sqr", ("calls",), "all"),
    ("decode", "recon1.decode1", ("ms",), "t1"),
    ("decode", "recont.decode_t", ("ms",), "tT"),
    ("decode", "codes.BchCode.decode_positions", ("ms", "calls"), "all"),
    ("decode", "codes.berlekamp_massey", ("ms",), "all"),
    ("decode", "codes.find_roots", ("ms",), ("t1-bulk", "tT-limit")),
    ("decode", "codes.RsCode.decode", ("ms",), "tT"),
    ("decode", "gf2.FieldSpec.dlog", ("ms", "calls"), ("t1-bulk", "tT-limit")),
    ("decode", "gf2.FieldSpec.inv", ("calls",), "all"),
    ("decode", "maps_t.f_sum_decompose", ("ms",), "tT"),
    ("decode", "maps_t.map_E", ("ms",), "tT"),
    ("protocol", "protocol.session_run", ("incl_ms",), "all"),
    ("protocol", "protocol.serialize_digest", ("ms",), "all"),
    ("protocol", "protocol.parse_digest", ("ms",), "all"),
    ("protocol", "protocol.Transport.send_frame", ("ms",), "all"),
    ("protocol", "protocol.Transport.recv_frame", ("ms",), "all"),
)

# Targets called thousands of times a session: timed or counted only in
# "session" rounds, and unwrapped in "light" ones.
HOT = frozenset((
    "gf2.FieldSpec.mul", "gf2.FieldSpec.sqr", "gf2.FieldSpec.inv",
    "codes.BchCode.syndrome_bits", "linalg.BinaryMatrix.mul_vec",
    "maps_t.map_f", "maps_t.gamma",
))

# Span records are kept for this many timed sessions; totals cover all.
KEEP_SESSIONS = 200

# Wrapper-cost calibration: the median of this many loops of this many
# calls.  About 20 ms, and its spread is a few percent.
CALIBRATE_ROUNDS = 3
CALIBRATE_CALLS = 2000


def layer_metrics():
    """[(metric name, unit, group, workloads that exercise it)]."""
    out = []
    for group, target, figures, where in LAYERS:
        for fig in figures:
            if fig == "calls":
                out.append((f"{target}.calls", "count", group, where))
            else:
                out.append((f"{target}.ms", "ms", group, where))
    out.append(("protocol.frames_sent.calls", "count", "protocol", "all"))
    out.append(("bench.connect.ms", "ms", "protocol", "all"))
    return out


def exercised(where, workload) -> bool:
    if where == "all":
        return True
    if where in ("t1", "tT"):
        return workload.startswith(where)
    return workload in where


class _Probe:
    """Stands in for a hot leaf such as ``FieldSpec.mul``: a method
    called with two ints that does nothing."""

    def op(self, a, b):
        return a


class Tracer:
    def __init__(self):
        self.phase = None
        self.session_id = None
        self.sessions = {}  # phase -> timed sessions run in it
        # Open spans: [child_ns, extra_ns, nested_ns, span_id].  child_ns
        # is the raw duration of the wrapped children, extra_ns the
        # wrappers' cost in this span's self time and nested_ns their
        # cost anywhere inside the span.
        self._stack = []
        self._next_id = 0
        # Wrapper cost per call, in ns (see calibrate).
        self.inside_ns = self.outside_ns = self.count_ns = 0.0
        # (phase, name) -> [calls, self_ns, incl_ns], the times corrected
        # for the wrappers' cost.
        self.totals = {}
        self.spans = []  # (span_id, parent_id, session_id, name, start_ns, end_ns)
        self._hot_refs = []  # (owner, attribute, original, wrapper)

    def calibrate(self):
        """Measure the wrappers' own cost per call on a method that does
        nothing, wrapped as a hot target, with a throwaway tracer.  Keep
        the median over
        CALIBRATE_ROUNDS loops: the part inside a wrapped call's span,
        the part outside it, and the cost of a count-only wrapper."""
        probe = Tracer()
        probe.phase = "calibrate"
        bare = _Probe()
        timed = type("Timed", (_Probe,), {
            "op": probe.wrap("calibrate", _Probe.op, hot=True)})()
        counted = type("Counted", (_Probe,), {
            "op": probe._wrap_count("calibrate", _Probe.op)})()
        clock = time.perf_counter_ns
        calls = CALIBRATE_CALLS

        def loop(obj):
            t0 = clock()
            for i in range(calls):
                obj.op(i, 5)
            return clock() - t0

        inside, outside, count = [], [], []
        for _ in range(CALIBRATE_ROUNDS):
            plain = loop(bare)
            t0 = clock()
            for i in range(calls):
                pass
            call = (plain - (clock() - t0)) / calls
            parent = [0, 0.0, 0.0, 0]
            probe._stack.append(parent)
            wrapped = loop(timed)
            probe._stack.pop()
            inside.append(parent[0] / calls - call)
            outside.append((wrapped - plain) / calls - inside[-1])
            count.append((loop(counted) - plain) / calls)
        self.inside_ns = statistics.median(inside)
        self.outside_ns = statistics.median(outside)
        self.count_ns = statistics.median(count)

    def install(self, package):
        """Calibrate, then replace each LAYERS target with a recording
        wrapper, in every module of ``package`` that holds a reference
        to it."""
        self.calibrate()
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in {target.split(".")[0] for _, target, _, _ in LAYERS}
        ]
        for _, target, figures, _ in LAYERS:
            mod_name, *path = target.split(".")
            owner = importlib.import_module(f"{package.__name__}.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, path[-1])
            hot = target in HOT
            if figures == ("calls",):
                wrapped = self._wrap_count(target, orig)
            else:
                wrapped = self.wrap(target, orig, hot)
            refs = [(owner, path[-1])] if isinstance(owner, type) else [
                (mod, key) for mod in modules
                for key, val in list(vars(mod).items()) if val is orig
            ]
            for obj, key in refs:
                setattr(obj, key, wrapped)
                if hot:
                    self._hot_refs.append((obj, key, orig, wrapped))

    def set_phase(self, phase):
        """Enter ``phase``; the hot targets are wrapped only in "session"."""
        for obj, key, orig, wrapped in self._hot_refs:
            setattr(obj, key, wrapped if phase == "session" else orig)
        self.phase = phase

    def begin_session(self, session_id):
        self.session_id = session_id
        self.sessions[self.phase] = self.sessions.get(self.phase, 0) + 1

    def _totals(self, phase, name) -> list:
        return self.totals.setdefault((phase, name), [0, 0.0, 0.0])

    def wrap(self, name, fn, hot=False):
        """``fn`` recording a span per call; span records are kept
        unless ``hot``.  The bookkeeping is inlined, as every step here
        is wrapper cost."""
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        totals = {}  # phase -> this name's totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [0, 0.0, 0.0, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                inside = tracer.inside_ns
                acc = totals.get(phase)
                if acc is None:
                    acc = totals[phase] = tracer._totals(phase, name)
                acc[0] += 1
                acc[1] += dur - frame[0] - frame[1] - inside
                acc[2] += dur - frame[2] - inside
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += tracer.outside_ns
                    parent[2] += frame[2] + inside + tracer.outside_ns
                if not hot and (phase == "setup" or tracer.session_id < KEEP_SESSIONS):
                    tracer.spans.append((
                        frame[3], stack[-1][3] if stack else None,
                        tracer.session_id, name, start, end,
                    ))

        return wrapper

    def _wrap_count(self, name, fn):
        """Count calls only; their time stays in the caller's self time."""
        tracer = self
        stack = self._stack
        totals = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is not None:
                acc = totals.get(phase)
                if acc is None:
                    acc = totals[phase] = tracer._totals(phase, name)
                acc[0] += 1
                if stack:
                    top = stack[-1]
                    top[1] += tracer.count_ns
                    top[2] += tracer.count_ns
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics: setup group per run, the rest per session.
        Call counts and hot targets' times come from "session" rounds,
        the other times from "light" rounds."""
        out = {}
        for name, unit, group, _ in layer_metrics():
            target, figure = name.rsplit(".", 1)
            if target == "protocol.frames_sent":
                target = "protocol.Transport.send_frame"
            if group == "params":
                phase = "setup"
            elif figure == "calls" or target in HOT:
                phase = "session"
            else:
                phase = "light"
            calls, self_ns, incl_ns = self._totals(phase, target)
            if figure == "calls":
                value = calls
            elif target == "protocol.session_run":
                value = incl_ns / 1e6
            else:
                value = self_ns / 1e6
            div = 1 if group == "params" else self.sessions[phase]
            out[name] = {"value": value / div, "unit": unit}
        return out

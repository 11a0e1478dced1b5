#!/usr/bin/env python3
"""Fast self-test of the benchmark; makes no timing assertions.

    python3 thlbench/selftest.py

Runs every workload declared in BENCHMARK.json at toy size, untraced and
traced, and checks that:

* every declared metric is printed with its declared unit and is above
  0.  A per-layer metric must be above 0 on the workloads that
  ``spans.LAYERS`` says exercise its layer (``t1-limit`` never finds
  roots by trace splitting or takes a discrete log, ``tT-limit`` has
  no comp code, and so on), and on at least one workload in any case,
  so a wrong entry there cannot hide a layer that nothing exercises;
* every printed metric is declared;
* the traced run yields every declared per-layer metric;
* a session given a wrong expected difference is counted as failed.
"""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import exercised, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402


def run_toy(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, declared, must_be_positive) -> set:
    """Check one run's result; return the metrics it printed above 0."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    printed = result["metrics"]
    assert set(printed) == set(declared), (
        f"{workload}: undeclared {set(printed) - set(declared)}, "
        f"missing {set(declared) - set(printed)}"
    )
    for name, unit in declared.items():
        got = printed[name]
        assert got["unit"] == unit, (workload, name, got)
        assert got["value"] >= 0, (workload, name, got)
        if must_be_positive(name):
            assert got["value"] > 0, (workload, name, got)
    return {name for name, got in printed.items() if got["value"] > 0}


def test_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    where = {name: w for name, _, _, w in layer_metrics()}
    assert set(where) == set(layer), "per_layer in BENCHMARK.json differs from spans.LAYERS"
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    positive_somewhere = set()
    for w in WORKLOADS:
        check_metrics(w, run_toy(w, 0), e2e, lambda name: True)
        positive_somewhere |= check_metrics(
            w, run_toy(w, 1), layer, lambda name: exercised(where[name], w))
        print(f"ok: {w} untraced and traced")
    never = set(layer) - positive_somewhere
    assert not never, f"per-layer metrics above 0 on no workload: {sorted(never)}"


def test_wrong_expected_counts_as_failed():
    lib = run.import_library()
    w = WORKLOADS["t1-limit"]
    bench = run.Bench(lib, lib.params_build(w.n, w.t, w.h, w.ell))
    try:
        inst = make_instance(random.Random(7), w, bench.params.I, w.toy_shared)
        good = bench.prepare(inst)
        tally = run.measure(bench, [good], 0, 0)
        assert (tally.attempted, tally.failed, tally.correct) == (2, 0, True), tally
        wrong = dataclasses.replace(good, delta=frozenset(list(good.delta)[1:]))
        tally = run.measure(bench, [wrong], 0, 0)
        assert (tally.attempted, tally.failed, tally.correct) == (2, 2, False), tally
    finally:
        bench.close()
    print("ok: wrong expected difference counted as failed")


if __name__ == "__main__":
    test_workloads()
    test_wrong_expected_counts_as_failed()
    print("selftest passed")

#!/usr/bin/env python3
"""Regenerate the reference figures in thlbench/README.md.

    python3 thlbench/report.py [--seed 1] [--seconds N]

Runs every workload once untraced and once traced, one after the other,
and prints Markdown: the end-to-end metrics, each layer's self time with
its share of the traced session (or, for set-up layers, of the traced
set-up), and the tracing overhead: the traced session means at the
reference speed against the untraced one, before and after the
correction for the wrappers' own cost.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import git_sha  # noqa: E402
from spans import layer_metrics  # noqa: E402
from speed import REF_NS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def traced_session_ms(result) -> float:
    """Corrected mean of the light-round traced sessions: connect plus
    session_run, in ms."""
    m = result["metrics"]
    return m["protocol.session_run.ms"]["value"] + m["bench.connect.ms"]["value"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: (run_once(w, args.seed, args.seconds, 0),
                run_once(w, args.seed, args.seconds, 1)) for w in workloads}

    print(f"`nproc` {os.cpu_count()}, CPython {platform.python_version()}, "
          f"git {git_sha()[:12]}, seed {args.seed}, {args.seconds:g} s per run.\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for m in spec["end_to_end"]:
        cells = [f"{runs[w][0][1]['metrics'][m['name']]['value']:.4g}" for w in workloads]
        print(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")
    cells = [f"{runs[w][0][1]['attempted']} / {runs[w][0][1]['failed']}" for w in workloads]
    print("| sessions attempted / failed | " + " | ".join(cells) + " |")
    rows = {"traced session mean, raw, session rounds (vs untraced)": [],
            "traced session mean, raw, light rounds (vs untraced)": [],
            "traced session mean, light rounds, corrected (vs untraced)": []}
    for w in workloads:
        plain, (traced, layers) = runs[w][0][1], runs[w][1]
        scale = REF_NS / (traced["kernel_ms.median"] * 1e6)
        untraced = 1e3 / plain["metrics"]["sessions_per_s"]["value"]
        means = (traced["session_ms.raw.mean.session"], traced["session_ms.raw.mean.light"],
                 traced_session_ms(layers))
        for cells, ms in zip(rows.values(), means):
            cells.append(f"{ms * scale:.4g} ms ({ms * scale / untraced - 1:+.0%})")
    for label, cells in rows.items():
        print(f"| {label} | " + " | ".join(cells) + " |")
    cells = [", ".join(f"{v:.0f}" for v in runs[w][1][0]["wrapper_ns.inside_outside_count"])
             for w in workloads]
    print("| wrapper ns per call: inside, outside, count-only | " + " | ".join(cells) + " |")

    print("\nPer-layer self time from the traced run, unscaled and corrected for the "
          "wrappers' cost, and its share of the corrected light-round session mean "
          "(set-up layers: of the traced set-up). Hot targets are also part of their "
          "callers' self times, so the shares add up to more than 100 %.\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name, unit, group, _ in layer_metrics():
        cells = []
        for w in workloads:
            info, result = runs[w][1]
            value = result["metrics"][name]["value"]
            if unit != "ms" or value == 0:
                cells.append(f"{value:.4g}" if value else "-")
                continue
            if group == "params":
                whole = info["setup_s.raw_and_scaled"][0][0] * 1e3
            else:
                whole = traced_session_ms(result)
            cells.append(f"{value:.4g} ({value / whole:.0%})")
        print(f"| {name} ({unit}) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()

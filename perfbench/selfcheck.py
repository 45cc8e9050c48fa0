"""The benchmark's own self-check.

    python3 perfbench/selfcheck.py

For every workload: one smoke-sized untraced run and two smoke-sized
traced runs on one seed. Fails (exit 1) unless

  * every run passes its oracle gate,
  * the metric names and units each run prints are exactly those
    BENCHMARK.json lists (end_to_end untraced, per_layer traced),
  * every count (calls, builds, steps, bytes, integrand evaluations,
    per-row ratios of counts) and every output-derived number (drift,
    oracle agreement) is identical in the two traced runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# metrics that depend only on the inputs, never on timing
REPEATABLE_UNITS = ("count", "bytes", "calls/row", "evals/row", "abs",
                    "rel")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}"
                         f"\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        results = {0: [run(wl, 0)], 1: [run(wl, 1), run(wl, 1)]}
        for trace, runs in results.items():
            for res in runs:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected[trace]:
                    problems.append(
                        f"{wl} trace {trace}: metrics differ from "
                        f"BENCHMARK.json: missing "
                        f"{sorted(set(expected[trace]) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected[trace]))}, units "
                        f"{[k for k in got if got[k] != expected[trace].get(k, got[k])]}")
                if not res["correct"]:
                    problems.append(f"{wl} trace {trace}: oracle gate failed")
        a, b = (r["metrics"] for r in results[1])
        for name, m in a.items():
            if m["unit"] in REPEATABLE_UNITS and m["value"] != b[name]["value"]:
                problems.append(f"{wl}: {name} differs between traced runs: "
                                f"{m['value']} vs {b[name]['value']}")
        print(f"{wl}: checked", flush=True)
    for p in problems:
        print("SELFCHECK FAILED: " + p)
    if not problems:
        print("selfcheck passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

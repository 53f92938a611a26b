#!/usr/bin/env python3
"""Paired before/after benchmark: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --pr 6 --parent HEAD --pairs 10

For each workload in BENCHMARK.json this runs --pairs pairs of
`perfbench/run.py --trace 0`, one on the parent and one on the working tree,
alternating which side goes first. Then it runs one `--trace 1` per side.
The parent is exported with `git archive` into a temporary directory, so a
killed run leaves nothing registered in the repository. Both sides run
under the same interpreter and with the same --seed and --seconds.

Before each pair a fixed pure-Python calibration loop (calibration_us:
calls, attribute and tuple work and float arithmetic, the kind of work a
session step does) is timed in this process, in µs per iteration, best of
three passes. Each run's us_per_step divided by it is recorded as
us_per_step_calibrated, the step's cost in loop iterations: a figure that
can be compared across BENCH files, where the raw figures of one tree
drift with the host.

The result is written to BENCH_<pr>.json at the repository root: per
workload and end-to-end metric, each side's runs, median and quartiles, how
many pairs the change won (ties count for neither side), the calibration
of each pair, and the traced per-layer metrics of each side. `host` records
the CPUs the runs could use, since a run's log writer process overlaps the
session only on a second CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export_commit(rev: str, dest: Path) -> str:
    """Unpack the tree of `rev` into dest; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _calibration_pass(n: int) -> float:
    def step(p: _Point, k: int) -> tuple[float, float]:
        return p.x * 0.5 + k, p.y - k * 0.25

    p, total = _Point(1.0, 2.0), 0.0
    for k in range(n):
        a, b = step(p, k)
        p.x, p.y = b, a
        total += a - b
    return total


def calibration_us(n: int = 200_000) -> float:
    """µs per iteration of a fixed pure-Python loop, best of three passes."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_pass(n)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6 / n


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`; its final JSON line, or a failure record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(pairs: list[tuple[dict, dict]], name: str, lower_is_better: bool) -> dict:
    """Both sides of one metric over the pairs that measured it on both."""
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]]
    if not both:
        return {"pairs": 0}
    parent, change = [p for p, _ in both], [c for _, c in both]
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in both)
    losses = sum(better(p, c) for p, c in both)
    out = {"parent": summary(parent), "change": summary(change), "pairs": len(both),
           "change_wins": wins, "ties": len(both) - wins - losses}
    p_med, c_med = out["parent"]["median"], out["change"]["median"]
    out["median_change_pct"] = 100.0 * (c_med - p_med) / p_med if p_med else None
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output file, BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="run only these workloads (repeatable)")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    report = {
        "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "release": platform.release(),
                 "usable_cpus": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_tree = Path(tmp)
        report["parent"] = export_commit(args.parent, parent_tree)
        report["change"] = "working tree at " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
        sides = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            pairs, calibrations = [], []
            for i in range(args.pairs):
                calibrations.append(calibration_us())
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_bench(sides[side], workload, args.seed, args.seconds, 0) for side in order}
                for run in runs.values():
                    us = run["metrics"].get("us_per_step")
                    if us is not None:
                        run["metrics"]["us_per_step_calibrated"] = {"value": us["value"] / calibrations[-1], "unit": "1"}
                pairs.append((runs["parent"], runs["change"]))
                us = {side: runs[side]["metrics"].get("us_per_step", {}).get("value") for side in order}
                print(f"{workload} pair {i + 1}/{args.pairs} us_per_step {us}", file=sys.stderr)
            traced = {side: run_bench(tree, workload, args.seed, args.seconds, 1) for side, tree in sides.items()}
            report["workloads"][workload] = {
                "end_to_end": {name: compare(pairs, name, lower)
                               for name, lower in {**metrics, "us_per_step_calibrated": True}.items()},
                "calibration_us": summary(calibrations),
                "operations": {side: {"attempted": sum(r["attempted"] for r in runs),
                                      "failed": sum(r["failed"] for r in runs)}
                               for side, runs in zip(("parent", "change"), zip(*pairs))},
                "trace": {side: {"failed": r["failed"], "attempted": r["attempted"],
                                 "metrics": {n: m["value"] for n, m in r["metrics"].items()}}
                          for side, r in traced.items()},
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        us = result["end_to_end"]["us_per_step"]
        if us["pairs"]:
            print(f"{workload}: us_per_step parent {us['parent']['median']:.1f}, change "
                  f"{us['change']['median']:.1f} ({us['median_change_pct']:+.1f}%), "
                  f"change won {us['change_wins']}/{us['pairs']} pairs")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

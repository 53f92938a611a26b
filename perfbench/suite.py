"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py                 # each workload once, seed 1
    python3 perfbench/suite.py --runs 10       # ten seeds each: medians, quartiles, spreads
    python3 perfbench/suite.py --trace         # the traced run of each workload

Each run is a fresh `perfbench/run.py` process, as the benchmark's command
line runs it. Workloads are taken round-robin within a seed, so slow drift
of the host spreads over all of them alike. The spread of a metric is the
distance between its first and third quartile over the runs, as a share of
the median. Raw results are saved as JSON under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--seed-base", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end")
    args = parser.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            seed = args.seed_base + i
            t0 = time.perf_counter()
            res = run_one(w, seed, args.seconds, args.trace)
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            results[w].append(res)
            print(f"# {w} seed {seed}: {res['attempted']} ops, {res['failed']} failed, {res['wall_s']:.0f} s", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, {attempted} operations attempted, {failed} failed, correct={correct}")
        summary[w] = {"attempted": attempted, "failed": failed, "correct": correct, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            s = summarise(values)
            summary[w]["metrics"][name] = {**s, "unit": unit, "values": values}
            line = f"  {name:40s} median {s['median']:14.4f} {unit:6s}"
            if "spread" in s:
                line += f" q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {100 * s['spread']:.2f}%"
                if name in bounds:
                    line += f" (bound {100 * bounds[name]:.0f}%)"
            print(line)

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = out / f"suite-{'trace-' if args.trace else ''}{stamp}.json"
    path.write_text(json.dumps({"args": vars(args), "summary": summary}, indent=2) + "\n", encoding="utf-8")
    print(f"\nsaved {path.relative_to(ROOT)}")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a parent commit.

    python3 scripts/same_artifacts.py --parent HEAD

The parent is exported with bench_pairs.export_commit into a temporary
directory. Then `pvsmooth run` runs every scenarios/*.json of the working
tree, the scenario of each benchmark workload at seed 1 (its input files
made by perfbench's `workloads.prepare`: CSV ingest, free-running with
jitter, two-day runs) and two synth scenarios written here (the
cloud_square and clear profiles, with delay jitter, SYNTH_STEPS long: a
multiple of neither the 12-step ramp evaluation interval nor BLOCK_ROWS),
once with each tree's source, and the two artifact sets of each run are
compared file by file. Each scenario runs on the
inproc and the socket transport. Exits 0 when every file is byte-identical,
and 1 naming the first file that differs or exists on one side only, or the
first run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_commit

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's input files, unchanged)

TRANSPORTS = ("inproc", "socket")
WORKLOAD_SEED = 1
SYNTH_STEPS = 3 * 1024 + 7  # 5 s steps
# profile: the scenario's transport section
SYNTH_TRANSPORTS = {
    "cloud_square": {"mode": "free_running", "latency_ms": 4000.0, "jitter_ms": 1500.0},
    "clear": {"mode": "lockstep", "latency_ms": 50.0, "jitter_ms": 20.0},
}


def write_synth_scenarios(workdir: Path) -> dict[str, Path]:
    """The synth scenarios, one file per profile in workdir, by name."""
    workdir.mkdir(parents=True)
    paths = {}
    for profile, transport in SYNTH_TRANSPORTS.items():
        source = {"kind": "synth", "profile": profile, "duration_s": SYNTH_STEPS * 5.0}
        path = paths[f"synth_{profile}"] = workdir / f"synth_{profile}.json"
        path.write_text(json.dumps({"sample_period_s": 5.0, "seed": 3, "transport": transport, "source": source}))
    return paths


def run_scenario(tree: Path, scenario: Path, transport: str, out: Path) -> None:
    """`pvsmooth run` of scenario with the source in tree; exits on failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pvsmooth.cli", "run", "--scenario", str(scenario), "--out", str(out),
           "--transport", transport]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{out}: pvsmooth run exited {proc.returncode}\n{proc.stderr}")


def first_difference(a: Path, b: Path) -> str | None:
    """The name of the first file, in sorted order, that differs between
    directories a and b or exists in only one; None if they are equal."""
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file() and fa.read_bytes() == fb.read_bytes()):
            return name
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        parent_tree, outs = Path(tmp) / "parent", Path(tmp) / "out"
        commit = export_commit(args.parent, parent_tree)
        scenarios = {path.stem: path for path in sorted((ROOT / "scenarios").glob("*.json"))}
        for name in workloads.WORKLOADS:
            scenarios[name] = workloads.prepare(name, WORKLOAD_SEED, Path(tmp) / "inputs" / name).scenario_path
        scenarios.update(write_synth_scenarios(Path(tmp) / "inputs" / "synth"))
        runs = 0
        for stem, scenario in scenarios.items():
            for transport in TRANSPORTS:
                run = f"{stem}/{transport}"
                runs += 1
                for side, tree in (("parent", parent_tree), ("change", ROOT)):
                    run_scenario(tree, scenario, transport, outs / side / run)
                differs = first_difference(outs / "parent" / run, outs / "change" / run)
                if differs is not None:
                    print(f"{run}/{differs} differs from {commit[:12]}")
                    return 1
    print(f"{len(scenarios)} scenarios, {runs} runs: artifacts identical to {commit[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

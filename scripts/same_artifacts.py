#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a parent commit.

    python3 scripts/same_artifacts.py --parent HEAD

The parent is exported with bench_pairs.export_commit into a temporary
directory. Then `pvsmooth run` runs every scenarios/*.json of the working
tree on the inproc and the socket transport, once with each tree's source,
and the two artifact sets of each run are compared file by file. Exits 0
when every file is byte-identical, and 1 naming the first file that differs
or exists on one side only, or the first run that fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_commit

TRANSPORTS = ("inproc", "socket")


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

    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        parent_tree, outs = Path(tmp) / "parent", Path(tmp) / "out"
        commit = export_commit(args.parent, parent_tree)
        for scenario in scenarios:
            for transport in TRANSPORTS:
                run = f"{scenario.stem}/{transport}"
                for side, tree in (("parent", parent_tree), ("change", ROOT)):
                    run_scenario(tree, scenario, transport, outs / side / run)
                differs = first_difference(outs / "parent" / run, outs / "change" / run)
                if differs is not None:
                    print(f"{run}/{differs} differs from {commit[:12]}")
                    return 1
    print(f"{len(scenarios)} scenarios x {len(TRANSPORTS)} transports: artifacts identical to {commit[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two or more source trees of finosc write the same bytes.

The ops are every op of the benchmark workloads (``perfbench/workloads.py``)
at the given seeds, plus ``verify --dim 3``, ``--dim 101`` and ``--dim 201``;
an op that two seeds share runs once.  Each op runs once per tree, in a
fresh process that imports finosc from that tree, with one BLAS thread and
without FINOSC_OUT_DIR, so its output goes to stdout.  An op differs when
its exit code, or the sha256 of its stdout or of its stderr, differs from
the first tree's.  The script prints each differing op and exits 1 if there
is one, 0 if there is none.

Usage: python scripts/compare_outputs.py --src parent=DIR --src change=DIR [--seeds 1,5]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VERIFY_OPS = [["verify", "--dim", d] for d in ("3", "101", "201")]
RUNNER = "import sys; from finosc.cli import main; sys.exit(main(sys.argv[1:]))"


def distinct_ops(seeds: list[int]) -> list[list[str]]:
    """Every workload op at each seed, then the extra verify ops, each once,
    in first-seen order."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = [op for seed in seeds for name in workloads.WORKLOADS for op in workloads.make_ops(name, seed)]
    return [list(op) for op in dict.fromkeys(map(tuple, ops + VERIFY_OPS))]


def run_op(src: Path, op: list[str]) -> tuple[int, str, str]:
    """The exit code and the sha256 of stdout and of stderr of one op."""
    env = dict(os.environ)
    env.pop("FINOSC_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in BLAS_ENV})
    proc = subprocess.run([sys.executable, "-c", RUNNER, *op], env=env, capture_output=True)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=DIR", help="a source tree (repeat)")
    parser.add_argument("--seeds", default="1,5", help="comma-separated workload seeds (default: 1,5)")
    args = parser.parse_args(argv)

    trees = {}
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "finosc").is_dir():
            parser.error(f"--src expects LABEL=DIR with DIR/finosc, got {spec!r}")
        trees[label] = Path(path).resolve()
    if len(trees) < 2:
        parser.error("--src: give at least two trees with distinct labels")
    seeds = [int(s) for s in args.seeds.split(",")]

    ops = distinct_ops(seeds)
    first, *others = trees
    differing = 0
    for op in ops:
        results = {label: run_op(src, op) for label, src in trees.items()}
        fields = [
            field
            for k, field in enumerate(("exit code", "stdout sha256", "stderr sha256"))
            if any(results[label][k] != results[first][k] for label in others)
        ]
        if fields:
            differing += 1
            print(f"differs: {' '.join(op)} ({', '.join(fields)})")
    print(f"{differing} of {len(ops)} ops differ across {', '.join(trees)}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())

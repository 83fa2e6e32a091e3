#!/usr/bin/env python3
"""Time the Kravchuk, frames, Gaussian, Harper basis, spectrum, revival and
Wigner layers of one or more source trees of finosc.

Thirteen cells are timed at each dimension, every run starting from empty
Kravchuk, coherent-family, Gaussian, Fourier and Harper caches:

* ``kravchuk_table``: building the table of K_m(n) and curly-K_m(n);
* ``check_kravchuk``: the Kravchuk identity checks that ``finosc verify`` runs;
* ``cli_kravchuk_table``: ``finosc kravchuk-table --dim d`` writing its CSV
  to a file;
* ``check_frames``: the Weyl-Heisenberg and coherent-frame checks that
  ``finosc verify`` runs;
* ``cli_frame_check``: ``finosc frame-check --family g4 --dim d`` writing its
  CSV to a file;
* ``check_gaussians``: the Gaussian and theta identity checks that
  ``finosc verify`` runs;
* ``cli_gaussian``: ``finosc gaussian --family g1 --kappa 1 --dim d`` writing
  its CSV to a file;
* ``frame_hamiltonian``: quantizing the harmonic symbol over the g1 coherent
  family (``frame_hamiltonian(dim, 1)``);
* ``harper_basis``: building the Harper eigenbasis (``harper_basis(dim)``);
* ``cli_spectrum``: ``finosc spectrum --kind harper --dim d`` writing its CSV
  to a file;
* ``cli_wigner``: ``finosc wigner --family g1 --kappa 1 --dim d`` writing its
  CSV to a file;
* ``cli_revival``: ``finosc revival --kind harper --dim d``, with its default
  random state, writing its CSV to a file;
* ``cli_verify``: ``finosc verify --dim d``, the whole identity-check suite,
  writing its report to a file.

Each cell runs REPEAT times at each dimension, every run in a fresh worker
process that imports finosc from its tree, so no run inherits caches,
allocations or one-time costs from another. Each run records its own
resident high-water mark (VmHWM) and OpenBLAS thread count with the probes
of ``perfbench/worker.py``. The trees alternate on every run, and take turns
going first, so slow drift on a shared machine falls on all trees alike. The
JSON output holds the median wall time with its lower and upper quartiles (so
a change can be told from the spread of the runs), every run's wall time,
VmHWM and BLAS thread count, and the machine facts. A worker still running
after TIMEOUT_S seconds is stopped; its cell keeps the runs it finished, runs
no more and is marked ``timed_out``. A worker may map at most
MEMORY_LIMIT_MIB of address space, so that a tree which builds d^3 arrays
cannot exhaust the machine at large d; a cell whose worker runs out is marked
``out_of_memory`` in the same way.

``--cells`` times a comma-separated subset of these cells (default: all).

Usage: python scripts/bench.py [--src LABEL=DIR ...] [--dims 101,201,401]
                               [--cells CELL,...] [--out FILE]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _ok(_result) -> str:
    return "ok"


def _passed(results) -> str:
    return f"{sum(r.passed for r in results)}/{len(results)} passed"


# every cell in timing order: a library cell is a callable of (finosc, dim)
# that returns its status; a CLI cell is the finosc argv that precedes
# ``--dim d --out FILE``, and its status is the exit code
CELLS = {
    "kravchuk_table": lambda finosc, dim: _ok(finosc.kravchuk.kravchuk_table(dim)),
    "check_kravchuk": lambda finosc, dim: _passed(finosc.checks._check_kravchuk(dim)),
    "cli_kravchuk_table": ["kravchuk-table"],
    "check_frames": lambda finosc, dim: _passed(finosc.checks._check_frames(dim)),
    "cli_frame_check": ["frame-check", "--family", "g4"],
    "check_gaussians": lambda finosc, dim: _passed(finosc.checks._check_gaussians(dim)),
    "cli_gaussian": ["gaussian", "--family", "g1", "--kappa", "1"],
    "frame_hamiltonian": lambda finosc, dim: _ok(finosc.oscillators.frame_hamiltonian(dim, 1)),
    "harper_basis": lambda finosc, dim: _ok(finosc.oscillators.harper_basis(dim)),
    "cli_spectrum": ["spectrum", "--kind", "harper"],
    "cli_wigner": ["wigner", "--family", "g1", "--kappa", "1"],
    "cli_revival": ["revival", "--kind", "harper"],
    "cli_verify": ["verify"],
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEAT = 3
TIMEOUT_S = 600.0
MEMORY_LIMIT_MIB = 3072
SRC = Path(__file__).resolve().parent.parent / "src"
WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def load_probes():
    """perfbench/worker.py, loaded by file path for its ``peak_rss_mb`` (VmHWM)
    and ``blas_threads`` probes, so both benchmarks measure alike."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cell(cell: str, d: int) -> None:
    """Worker: time one run of ``cell`` at dimension d and print it as JSON."""
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}; choose from {', '.join(CELLS)}")
    import resource

    limit = MEMORY_LIMIT_MIB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    probes = load_probes()
    import finosc
    from finosc.cli import main as cli  # also loads the library modules the cells call
    from finosc.grid import GridDim

    dim = GridDim.from_size(d)
    action = CELLS[cell]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        start = time.perf_counter()
        if callable(action):
            status = action(finosc, dim)
        else:
            status = f"exit {cli([*action, '--dim', str(d), '--out', out])}"
        seconds = time.perf_counter() - start
    peak, threads = probes.peak_rss_mb(), probes.blas_threads()
    print(json.dumps({"s": seconds, "vmhwm_mib": peak, "blas_threads": threads, "status": status}), flush=True)


def measure(src: Path, cell: str, d: int) -> dict:
    """One run of ``cell`` at d in a fresh worker importing finosc from ``src``;
    a run that timed out or ran out of memory comes back with that flag set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in BLAS_ENV})
    argv = [sys.executable, __file__, "--worker", cell, str(d)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"timed_out": True}
    if proc.returncode != 0:
        if "MemoryError" in proc.stderr:
            return {"out_of_memory": True}
        raise RuntimeError(f"{cell} d={d} in {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarize(runs: list[dict]) -> dict:
    done = [r for r in runs if "s" in r]
    times = [r["s"] for r in done]
    peaks = [r["vmhwm_mib"] for r in done]
    # inclusive quartiles interpolate between runs; one run is its own spread
    if len(times) > 1:
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    else:
        q1 = q3 = times[0] if times else None
    return {
        "median_s": statistics.median(times) if times else None,
        "q1_s": q1,
        "q3_s": q3,
        "runs_s": times,
        "vmhwm_mib": statistics.median(peaks) if peaks else None,
        "runs_vmhwm_mib": peaks,
        "runs_blas_threads": [r["blas_threads"] for r in done],
        "status": sorted({r["status"] for r in done}),
        "timed_out": any(r.get("timed_out") for r in runs),
        "out_of_memory": any(r.get("out_of_memory") for r in runs),
    }


def machine_facts() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_env": {k: "1" for k in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--src",
        action="append",
        metavar="LABEL=DIR",
        help="a source tree to time (repeatable); default: this checkout's src as 'current'",
    )
    parser.add_argument("--dims", default="101,201,401", help="comma-separated odd dimensions")
    parser.add_argument("--cells", default=",".join(CELLS), help="comma-separated cells to time (default: all)")
    parser.add_argument("--out", type=Path, help="JSON file to write (default: stdout)")
    parser.add_argument("--worker", nargs=2, metavar=("CELL", "D"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        run_cell(args.worker[0], int(args.worker[1]))
        return 0

    trees = {}
    for spec in args.src or [f"current={SRC}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "finosc").is_dir():
            parser.error(f"--src expects LABEL=DIR with DIR/finosc, got {spec!r}")
        trees[label] = Path(path).resolve()
    dims = [int(x) for x in args.dims.split(",")]
    if any(d < 3 or d % 2 == 0 for d in dims):
        parser.error(f"--dims must be odd and at least 3, got {args.dims}")
    cells = args.cells.split(",")
    unknown = sorted(set(cells) - set(CELLS))
    if unknown:
        parser.error(f"--cells: unknown {', '.join(unknown)}; choose from {', '.join(CELLS)}")

    results = {label: {cell: {} for cell in cells} for label in trees}
    order = list(trees)
    for cell in cells:
        for d in dims:
            runs = {label: [] for label in trees}
            for _ in range(REPEAT):
                for label in order:
                    # a cell that timed out or ran out of memory runs no more
                    if all("s" in r for r in runs[label]):
                        runs[label].append(measure(trees[label], cell, d))
                order.reverse()
            for label in trees:
                results[label][cell][str(d)] = summarize(runs[label])

    report = {
        "machine": machine_facts(),
        "dims": dims,
        "cells": cells,
        "repeat": REPEAT,
        "timeout_s": TIMEOUT_S,
        "memory_limit_mib": MEMORY_LIMIT_MIB,
        "results": results,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

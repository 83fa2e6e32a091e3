#!/usr/bin/env python3
"""finosc benchmark: CLI workloads timed end to end, per-layer spans traced.

    python3 perfbench/run.py --workload {spectra,tables,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it needs ``src/finosc`` and
``BENCHMARK.json``). A closed loop with one client: each repetition is one
fresh worker process that imports finosc and runs the workload's op list
through ``finosc.cli.main``, one op after another. Repetitions continue until
S seconds have passed and at least MIN_REPS have run; SETUP_PROBES extra
workers only import finosc, so that set-up time has enough samples. Each
op's output is checked (``validate.py``) after its worker has ended, so the
checks are neither timed nor counted in the worker's peak RSS.

With ``--trace 1`` one more repetition runs with every layer wrapped
(``tracer.py``) and the per-layer metrics are reported instead of the
end-to-end ones; ``trace.overhead_s`` is its run time minus the untraced
median.

Stdout ends with a detail record (op list, machine facts, every sample, as
one JSON line) and then the result line
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` is the
number of ops in the list and ``failed`` the ops that did not succeed with a
valid output in every repetition. ``correct`` is false when any output was
wrong; a clean refusal (exit 1 with a named computation error and no output)
counts as failed but not as wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def machine_facts(blas_threads: int | None) -> dict:
    """Machine and library facts; ``blas_threads`` as a worker reported it."""
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_env": {k: str(BLAS_THREADS) for k in BLAS_ENV},
        "load": {
            "processes": 1,
            "loop": "closed, one client",
            "blas_threads_at_most_nproc": None if blas_threads is None else blas_threads <= nproc,
        },
    }


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        # One BLAS thread: at d <= 201 the BLAS calls are too small to gain from
        # more, and idle helper threads spin on the other cores, which makes
        # the timings of the Python-bound work much noisier.
        env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
        self.env = env

    def run(self, ops, trace=False, setup_only=False) -> dict:
        self.count += 1
        tag = f"w{self.count:03d}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        spec_path, result_path = self.work / f"{tag}.spec.json", self.work / f"{tag}.result.json"
        spec_path.write_text(json.dumps({"ops": ops, "out_dir": str(out_dir), "trace": trace, "setup_only": setup_only}))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before a worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a worker ran past the time budget and was killed") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text())
        result["out_dir"] = out_dir
        return result


def _check_rep(ops, rep) -> list[tuple[str, str]]:
    """Validate one repetition's outputs, then delete them."""
    outcomes = [validate.classify(argv, r["rc"], r["stderr"], r["out"]) for argv, r in zip(ops, rep["ops"])]
    shutil.rmtree(rep["out_dir"])
    return outcomes


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    ops = workloads.make_ops(workload, seed)
    setup = [runner.run([], setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    reps, outcomes = [], []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        rep = runner.run(ops)
        reps.append(rep)
        outcomes.append(_check_rep(ops, rep))
    traced = None
    if trace:
        traced = runner.run(ops, trace=True)
        outcomes.append(_check_rep(ops, traced))
    setup += [r["setup_s"] for r in reps]
    samples = {
        "setup_s": setup,
        "run_s": [r["run_s"] for r in reps],
        "op_max_s": [max(o["seconds"] for o in r["ops"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    op_seconds = [[r["ops"][i]["seconds"] for r in reps] for i in range(len(ops))]
    return {"ops": ops, "reps": reps, "traced": traced, "outcomes": outcomes, "samples": samples, "op_seconds": op_seconds}


def tally(outcomes, n_ops: int) -> tuple[list[int], list[int]]:
    """Indices of the failed ops (not OK in some repetition) and of those with a wrong output."""
    failed = [i for i in range(n_ops) if any(rep[i][0] != validate.OK for rep in outcomes)]
    wrong = [i for i in failed if any(rep[i][0] == validate.WRONG for rep in outcomes)]
    return failed, wrong


def layer_metrics(workload: str, m: dict) -> dict[str, float]:
    traced = m["traced"]
    out = dict(traced["trace"])
    out["cli.bytes_out"] = traced["bytes_out"]
    out["trace.unattributed_s"] = traced["run_s"] - traced["trace_top_s"]
    out["trace.overhead_s"] = traced["run_s"] - statistics.median(m["samples"]["run_s"])
    silent = [name for name in workloads.EXPECTED_CALLS[workload] if not out[f"{name}.calls"]]
    if silent:
        raise BenchError(f"traced run saw no call to {', '.join(silent)} on {workload}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # waited for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "finosc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a finosc source checkout (needs src/finosc and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks build reference Hamiltonians with finosc
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(work, start + DEADLINE_S)
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), runner)
        if args.trace:
            values = layer_metrics(args.workload, m)
        else:
            values = {name: statistics.median(v) for name, v in m["samples"].items()}
        metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    ops, outcomes = m["ops"], m["outcomes"]
    failed, wrong = tally(outcomes, len(ops))
    facts = machine_facts(m["reps"][0]["blas_threads"])

    units = {w["name"]: w["unit"] for w in spec["end_to_end"]}
    print(f"finosc benchmark: workload={args.workload} seed={args.seed} reps={len(m['reps'])} trace={args.trace}")
    for name, v in m["samples"].items():
        s = _stats(v)
        print(f"  {name:<12} {s['median']:.6g} {units[name]} median (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'ops_failed':<12} {len(failed)} of {len(ops)} ops attempted ({len(wrong)} with wrong output)")
    for i in failed:
        kind, reason = next(rep[i] for rep in outcomes if rep[i][0] != validate.OK)
        print(f"    op {i} {' '.join(ops[i])}: {kind}: {reason}")
    if args.trace:
        for name, v in metrics.items():
            print(f"  {name} = {v['value']:.6g} {v['unit']}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "machine": facts,
        "samples": m["samples"],
        "op_seconds": m["op_seconds"],
        "outcomes": [[list(o) for o in rep] for rep in outcomes],
    }
    if args.trace:
        detail["layers"] = values
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

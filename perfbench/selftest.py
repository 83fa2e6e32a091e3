#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Runs one cheap op of each kind in a worker, expects every output to pass its
check, then corrupts each output and expects the op to count as failed with a
wrong output. It also expects a traced run to see the layers, a missing trace
target to fail, and the benchmark to refuse to run outside a source checkout.
Exits 0 when every case behaves.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import run
import tracer
import validate

OPS = [
    ["spectrum", "--kind", "fourier", "--dim", "9"],
    ["spectrum", "--kind", "gramschmidt", "--family", "g1", "--dim", "9"],
    ["spectrum", "--kind", "deformed-harper", "--alpha", "0.6", "--dim", "9"],
    ["kravchuk-table", "--dim", "9"],
    ["wigner", "--family", "g1", "--kappa", "1.3", "--dim", "9"],
    ["wigner", "--state", "delta0", "--dim", "9"],
    ["wigner", "--family", "g3", "--kappa", "0.7", "--dim", "9", "--format", "svg"],
    ["gaussian", "--family", "g3", "--kappa", "0.7", "--dim", "9"],
    ["gaussian", "--family", "g4", "--dim", "9"],
    ["gaussian", "--family", "g5", "--dim", "9", "--format", "svg"],
    ["frame-check", "--family", "g2", "--dim", "9"],
    ["revival", "--kind", "kravchuk", "--dim", "9", "--seed", "4"],
    ["revival", "--kind", "harper", "--dim", "9", "--seed", "5"],
    ["verify", "--dim", "5"],
    ["spectrum", "--kind", "gramschmidt", "--family", "g5", "--dim", "9"],  # refused: outside its range
]
REFUSED_OP = len(OPS) - 1


def corrupt(argv: list[str], text: str) -> str:
    """A plausible-looking but wrong version of an op's output."""
    if "svg" in argv:
        lines = text.splitlines()
        return "\n".join(lines[:-2] + lines[-1:]) + "\n"  # drop the last drawn element
    if argv[0] == "verify":
        return text.replace("PASS", "FAIL", 1)
    lines = text.rstrip("\n").split("\n")
    # revival: fidelity(0); otherwise the last field of the last row
    k = next(i for i, line in enumerate(lines) if line.startswith("fidelity,")) if argv[0] == "revival" else -1
    head, _, last = lines[k].rpartition(",")
    lines[k] = f"{head},{float(last) * 1.001 + 0.001!r}"
    return "\n".join(lines) + "\n"


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = run.Runner(work, time.monotonic() + run.DEADLINE_S)
        rep = runner.run(OPS, trace=True)
        for i, (argv, r) in enumerate(zip(OPS, rep["ops"])):
            kind, reason = validate.classify(argv, r["rc"], r["stderr"], r["out"])
            want = validate.REFUSED if i == REFUSED_OP else validate.OK
            expect(kind == want, f"{' '.join(argv)}: {kind} {reason}", failures)
            if kind != validate.OK:
                continue
            with open(r["out"]) as fh:
                bad = corrupt(argv, fh.read())
            with open(r["out"], "w") as fh:
                fh.write(bad)
            outcome = validate.classify(argv, r["rc"], r["stderr"], r["out"])
            failed, wrong = run.tally([[outcome]], 1)
            expect(failed == wrong == [0], f"  corrupted -> failed op, wrong output ({outcome[1]})", failures)

        layers = rep["trace"]
        for name in ("grid.eigendecompose_hermitian", "kravchuk.kravchuk_table", "frames.coherent_family", "cli.main"):
            expect(layers[f"{name}.calls"] > 0, f"traced run saw {name}", failures)
        expect(layers["checks.failed"] == 0, "traced verify counted no failed checks", failures)

        silent = {"traced": {**rep, "trace": {**layers, "wigner.wigner.calls": 0}}, "samples": {"run_s": [1.0]}}
        try:
            run.layer_metrics("tables", silent)
            raised = False
        except run.BenchError:
            raised = True
        expect(raised, "a workload layer with no calls fails the traced run", failures)

        saved = tracer.TARGETS
        tracer.TARGETS = saved + (("grid.renamed", "finosc.grid", "no_such_function"),)
        try:
            tracer.Tracer().install()
            raised = False
        except (AttributeError, ImportError, KeyError):
            raised = True
        finally:
            tracer.TARGETS = saved
        expect(raised, "a missing trace target raises", failures)

        bare = work / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "refuses to run outside a source checkout", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced runs must keep seeing the calls they expect.

``perfbench/run.py --trace 1`` refuses a workload whose op list no longer
calls one of the functions ``EXPECTED_CALLS`` names, so a library change that
routes around one of them (``frames.schwinger`` reaches ``verify`` only through
``difference_momentum_squared``) would break that run without failing a test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# One workload's op list at seed 1 under the tracer, run as perfbench's worker
# runs it; prints the names of the expected functions that were never called,
# and the ops that raised instead of exiting with a code.
TRACED_RUN = """
import json, sys
import finosc.cli
import workloads
from tracer import Tracer
from worker import run_ops

workload, out_dir = sys.argv[1:3]
tracer = Tracer()
tracer.install()
records, _ = run_ops(finosc.cli.main, workloads.make_ops(workload, 1), out_dir)
silent = [name for name in workloads.EXPECTED_CALLS[workload] if not tracer.stats[name][0]]
crashed = [r["stderr"] for r in records if r["rc"] is None]
print(json.dumps({"silent": silent, "crashed": crashed}))
"""


@pytest.mark.parametrize("workload", ["spectra", "verify"])
def test_traced_run_calls_every_expected_function(workload, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FINOSC_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing is written under the source tree
    env.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, workload, str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"silent": [], "crashed": []}

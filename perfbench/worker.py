"""One fresh client process of the benchmark.

It imports finosc (timed as set-up), then calls ``finosc.cli.main(argv)`` for
each op, one after another, each writing to its own output file, and writes
its timings to a JSON file. Caches are cold at the start, as a CLI user pays
on every invocation. Outputs are checked by the parent, after this process
has ended.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``ops`` (argv lists), ``out_dir``, ``trace`` and ``setup_only``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback


def run_ops(cli_main, ops, out_dir):
    records = []
    start = time.perf_counter()
    for i, argv in enumerate(ops):
        out = os.path.join(out_dir, f"op{i:02d}.out")
        err = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli_main([*argv, "--out", out])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        records.append({"rc": rc, "seconds": time.perf_counter() - t, "stderr": err.getvalue()[-4000:], "out": out})
    run_s = time.perf_counter() - start
    return records, run_s


def peak_rss_mb() -> float:
    """Resident high-water mark of this process's own address space, in MiB.

    On Linux ``ru_maxrss`` also keeps the spawning process's peak across
    exec, so the benchmark's own memory would leak into it; VmHWM does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy as np

    base = os.path.dirname(np.__file__)
    for path in glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(base, ".libs", "*openblas*")
    ):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import finosc  # noqa: F401  (set-up: the package and its CLI)
    import finosc.cli

    result = {"setup_s": time.perf_counter() - t0}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        records, run_s = run_ops(finosc.cli.main, spec["ops"], spec["out_dir"])
        result.update(ops=records, run_s=run_s)
        result["bytes_out"] = sum(os.path.getsize(r["out"]) for r in records if os.path.exists(r["out"]))
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["trace_top_s"] = tracer.top_s
    result["peak_rss_mb"] = peak_rss_mb()
    result["blas_threads"] = blas_threads()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

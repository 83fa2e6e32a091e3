"""Per-layer spans recorded from outside finosc, without editing it.

Each traced function is replaced, by identity, in every ``finosc`` module
namespace (modules bind names with ``from .grid import ...``, and the package
re-exports them), and ``LinearOperator.__matmul__`` is replaced on the class.
A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated in memory per function and read once the ops are done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" wraps a method on the class
TARGETS = (
    ("grid.eigendecompose_hermitian", "finosc.grid", "eigendecompose_hermitian"),
    ("grid.matmul", "finosc.grid", "LinearOperator.__matmul__"),
    ("grid.operator_exponential", "finosc.grid", "operator_exponential"),
    ("grid.fourier_operator", "finosc.grid", "fourier_operator"),
    ("gaussians.gaussian", "finosc.gaussians", "gaussian"),
    ("gaussians.theta", "finosc.gaussians", "theta"),
    ("kravchuk.kravchuk_table", "finosc.kravchuk", "kravchuk_table"),
    ("kravchuk.kravchuk_function_hypergeometric", "finosc.kravchuk", "kravchuk_function_hypergeometric"),
    ("wigner.wigner", "finosc.wigner", "wigner"),
    ("frames.schwinger", "finosc.frames", "schwinger"),
    ("frames.displacement", "finosc.frames", "displacement"),
    ("frames.coherent_family", "finosc.frames", "coherent_family"),
    ("frames.quantize", "finosc.frames", "quantize"),
    ("frames.dequantize", "finosc.frames", "dequantize"),
    ("frames.frame_analyze", "finosc.frames", "frame_analyze"),
    ("oscillators.hamiltonian", "finosc.oscillators", "hamiltonian"),
    ("oscillators.harper_basis", "finosc.oscillators", "harper_basis"),
    ("oscillators.fractional_fourier", "finosc.oscillators", "fractional_fourier"),
    ("oscillators.gram_schmidt_oscillator", "finosc.oscillators", "gram_schmidt_oscillator"),
    ("oscillators.evolve_spectral", "finosc.oscillators", "evolve_spectral"),
    ("oscillators.detect_revivals", "finosc.oscillators", "detect_revivals"),
    ("checks.run_checks", "finosc.checks", "run_checks"),
    ("cli.main", "finosc.cli", "main"),
)

_MIB = float(1 << 20)


class Tracer:
    """Counts calls, errors, total and self seconds per traced function."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self.work_d3 = 0
        self.families: set = set()
        self.checks_failed = 0
        self.originals: dict = {}
        self._stack: list[float] = []  # child seconds of each open span

    def wrap(self, name, fn, on_call=None, on_result=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        signature = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            if on_call:
                on_call(signature.bind(*args, **kwargs).arguments)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dur = perf_counter() - start
                stat[1] += dur
                stat[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                else:
                    self.top_s += dur
            if on_result:
                on_result(result)
            return result

        return traced

    def _count_eigensolve(self, arguments):
        self.work_d3 += arguments["M"].dim.d ** 3

    def _count_family(self, arguments):
        self.families.add((arguments["dim"], arguments["family"]))

    def _count_checks(self, results):
        self.checks_failed += sum(1 for r in results if not r.passed)

    def install(self) -> None:
        """Wrap every target; a missing or renamed target raises."""
        hooks = {
            "grid.eigendecompose_hermitian": {"on_call": self._count_eigensolve},
            "frames.coherent_family": {"on_call": self._count_family},
            "checks.run_checks": {"on_result": self._count_checks},
        }
        resolved = []  # resolve every target before wrapping any
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
                resolved.append((name, owner, fn_name, owner.__dict__[fn_name]))
            else:
                resolved.append((name, None, fn_name, getattr(owner, fn_name)))
        modules = [m for n, m in sys.modules.items() if n == "finosc" or n.startswith("finosc.")]
        for name, cls, fn_name, orig in resolved:
            wrapped = self.wrap(name, orig, **hooks.get(name, {}))
            self.originals[name] = orig
            if cls is not None:
                setattr(cls, fn_name, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _hit_ratio(self, name: str) -> float:
        info = self.originals[name].cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <layer>.<function>.<stat> plus counters."""
        out = {}
        for name, (calls, total_s, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total_s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
        out["grid.eigendecompose_hermitian.work_d3"] = self.work_d3
        out["kravchuk.kravchuk_table.hit_ratio"] = self._hit_ratio("kravchuk.kravchuk_table")
        out["frames.coherent_family.hit_ratio"] = self._hit_ratio("frames.coherent_family")
        # computed, not measured: 16 bytes per complex entry of each d^3 family
        out["frames.coherent_family.held_mb"] = sum(16 * dim.d**3 for dim, _ in self.families) / _MIB
        out["checks.failed"] = self.checks_failed
        return out

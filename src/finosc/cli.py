"""Command-line interface: CSV/SVG exports of Gaussian profiles, Wigner maps,
oscillator spectra, revival analyses and the identity-check suite.

Subcommands: gaussian, wigner, spectrum, verify, revival, kravchuk-table,
frame-check.  Every flag is checked, and --dim, --family and --out
resolved, in the parsed namespace before any computation; each command reads
its own flags from it.  Output goes to --out, then to
$FINOSC_OUT_DIR/<command>.<format>, then to stdout.  Exit codes: 0 success,
1 computation or verification failure, 2 an InputError (an argument outside
its domain, raised by the library's own input rules or by the few flags only
the command line has) or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, frames, kravchuk, oscillators
from .wigner import wigner as wigner_map
from .gaussians import Family, _check_kappa, normalized_gaussian
from .grid import GridDim, GridFunction, InputError, _SeededDraws, _check_tolerance, inner_product
from .grid import eigendecompose_hermitian, hermitian_eigenvalues
from .oscillators import _KINDS, _check_kind, _check_min_len, evolve_spectral

__all__ = ["main"]


def _check_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check every flag against the library's rules before any computation
    starts, and resolve the shared ones in place: ``dim`` to a GridDim,
    ``family`` (where the subcommand has --family) to a Family or None and
    ``out`` to a Path or None (flag, then FINOSC_OUT_DIR, with the --format
    suffix, csv where the subcommand has none).  Returns ``args``."""
    opts = vars(args)
    args.dim = GridDim.from_size(args.dim)
    if "family" in opts:
        args.family = Family.from_label(args.family) if args.family else None
    # a kappa is vetted even where --state delta0 ignores it, as a theta family's
    _check_kappa(opts.get("family") or Family.G1, opts.get("kappa"))
    if "tol" in opts:
        _check_tolerance(args.tol)
    if opts.get("kind") is not None:
        _check_kind(args.kind, args.family, args.alpha)
    if opts.get("min_len") is not None:
        _check_min_len(args.min_len)
    if opts.get("samples") is not None and args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if opts.get("seed") is not None and args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if args.out is not None:
        args.out = Path(args.out)
    elif os.environ.get("FINOSC_OUT_DIR"):
        name = f"{args.command.replace('-', '_')}.{opts.get('format', 'csv')}"
        args.out = Path(os.environ["FINOSC_OUT_DIR"]) / name
    return args


def _write_csv(args: argparse.Namespace, header: list[str], row_format: str, rows) -> None:
    """Write the header and one line ``row_format % row`` per row, streamed.
    Fields are integers (``%d``), floats (``%.17g``) or empty, so none needs
    CSV quoting."""
    lines = map((row_format + "\n").__mod__, rows)
    _write_text(args, itertools.chain([",".join(header) + "\n"], lines))


_SIGN_BIT = np.int64(-(2**63))


def _format_floats(a: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` for every entry x of the float array ``a``, as an object
    array of its shape.  Keyed on bits, not values, so -0.0 stays apart from
    0.0.  Each distinct magnitude is formatted once, and a distinct bit
    pattern with the sign bit set takes its magnitude's text with a ``-`` in
    front, except a NaN, which prints as ``nan`` whatever its sign."""
    a = np.ascontiguousarray(a, dtype=float)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    magnitudes, to_magnitude = np.unique(bits & ~_SIGN_BIT, return_inverse=True)
    text = np.array(["%.17g" % x for x in magnitudes.view(float).tolist()], dtype=object)[to_magnitude]
    # the sign bit makes an int64 negative, so negative patterns sort first
    negative = np.searchsorted(bits, 0)
    signed = ~np.isnan(bits[:negative].view(float))
    text[:negative][signed] = "-" + text[:negative][signed]
    return text[inverse.reshape(a.shape)]


def _write_grid_csv(args: argparse.Namespace, header: list[str], *tables: np.ndarray) -> None:
    """Write d x d tables as one line ``n,m,t1[n,m],t2[n,m],...`` per grid
    point in row-major order, the same bytes as ``_write_csv`` with
    ``"%d,%d,%.17g,..."``, streamed one grid row per chunk."""
    labels = [f"{n}," for n in args.dim.indices().tolist()]
    texts = [_format_floats(t) for t in tables]
    d, stride = len(labels), 2 + 2 * len(texts)
    # the pieces of one grid row: d lines of [row label, column label, value,
    # ",", ..., value, "\n"]; only the row label and the values change per row
    pieces = [","] * (stride * d)
    pieces[1::stride] = labels
    pieces[stride - 1 :: stride] = ["\n"] * d

    def rows():
        for r, label in enumerate(labels):
            pieces[::stride] = [label] * d
            for k, text in enumerate(texts):
                pieces[2 + 2 * k :: stride] = text[r].tolist()
            yield "".join(pieces)

    _write_text(args, itertools.chain([",".join(header) + "\n"], rows()))


def _write_text(args: argparse.Namespace, text) -> None:
    """Write ``text``, a string or an iterable of strings, to --out or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.writelines(chunks)


# --- minimal deterministic SVG renderers -------------------------------------


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _svg_stem(ns, values) -> str:
    w, h, pad = 480, 320, 30.0
    vmax = max(max(abs(v) for v in values), 1e-300)
    x0, x1 = min(ns), max(ns)
    sx = (w - 2 * pad) / max(x1 - x0, 1)
    base = h - pad
    scale = (h - 2 * pad) / (1.1 * vmax)
    body = [f'<line x1="{pad}" y1="{base}" x2="{w - pad}" y2="{base}" stroke="black"/>']
    for n, v in zip(ns, values):
        x = pad + (n - x0) * sx
        y = base - v * scale
        body.append(f'<line x1="{x:.2f}" y1="{base}" x2="{x:.2f}" y2="{y:.2f}" stroke="steelblue"/>')
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue"/>')
    return _svg_document(w, h, body)


def _svg_heatmap(matrix: np.ndarray) -> str:
    d = matrix.shape[0]
    cell = max(4, 320 // d)
    w = h = cell * d
    lo, hi = float(matrix.min()), float(matrix.max())
    shades = (255 * (1 - (matrix - lo) / max(hi - lo, 1e-300))).astype(int)
    xs = [f'<rect x="{c * cell}" y="' for c in range(d)]
    body = []
    for r, row in enumerate(shades.tolist()):
        y = f'{(d - 1 - r) * cell}" width="{cell}" height="{cell}" fill="rgb('
        body += [f'{x}{y}{shade},{shade},255)"/>' for x, shade in zip(xs, row)]
    return _svg_document(w, h, body)


def _svg_levels(eigenvalues) -> str:
    w, h, pad = 240, 400, 30.0
    lo, hi = min(eigenvalues), max(eigenvalues)
    span = max(hi - lo, 1e-300)
    body = []
    for e in eigenvalues:
        y = h - pad - (e - lo) / span * (h - 2 * pad)
        body.append(f'<line x1="60" y1="{y:.2f}" x2="180" y2="{y:.2f}" stroke="black"/>')
    return _svg_document(w, h, body)


def _svg_line(ts, values) -> str:
    w, h, pad = 480, 320, 30.0
    tmax = max(max(ts), 1e-300)
    vmax = max(max(values), 1e-300)
    pts = " ".join(
        f"{pad + t / tmax * (w - 2 * pad):.2f},{h - pad - v / vmax * (h - 2 * pad):.2f}"
        for t, v in zip(ts, values)
    )
    return _svg_document(w, h, [f'<polyline points="{pts}" fill="none" stroke="steelblue"/>'])


# --- subcommand implementations -----------------------------------------------


def _pick_state(args: argparse.Namespace) -> GridFunction:
    if args.state == "delta0":
        return GridFunction.delta(args.dim, 0)
    if args.state == "gaussian":
        return normalized_gaussian(args.dim, args.family or Family.G1)
    psi = GridFunction(args.dim, _SeededDraws(args.seed).complex_normals(args.dim.d))
    return psi / psi.norm()


def _cmd_gaussian(args: argparse.Namespace) -> int:
    g = normalized_gaussian(args.dim, args.family, args.kappa)
    ns = args.dim.indices()
    vals = g.values.real
    if args.format == "svg":
        _write_text(args, _svg_stem(ns, vals))
    else:
        rows = [(int(n), float(v), float(v * v)) for n, v in zip(ns, vals)]
        _write_csv(args, ["n", "value", "prob"], "%d,%.17g,%.17g", rows)
    return 0


def _cmd_wigner(args: argparse.Namespace) -> int:
    if args.state == "delta0":
        psi = GridFunction.delta(args.dim, 0)
    elif args.family is not None:
        psi = normalized_gaussian(args.dim, args.family, args.kappa)
    else:
        raise InputError("wigner requires --family or --state delta0")
    W = wigner_map(psi)
    if args.format == "svg":
        _write_text(args, _svg_heatmap(W.values))
        return 0
    _write_grid_csv(args, ["n", "m", "w"], W.values)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    H = oscillators.hamiltonian(args.dim, args.kind, family=args.family, alpha=args.alpha)
    eigs = hermitian_eigenvalues(H)
    if args.format == "svg":
        _write_text(args, _svg_levels(eigs))
    else:
        _write_csv(args, ["index", "eigenvalue"], "%d,%.17g", enumerate(eigs.tolist()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run_checks(args.dim)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.skipped:
            status = "SKIP"
        lines.append(f"{status}  {r.name}" + (f"  ({r.detail})" if r.detail else ""))
        failed += 0 if r.passed else 1
    skipped = sum(r.skipped for r in results)
    summary = f"{len(results) - failed}/{len(results)} checks passed at d={args.dim.d}"
    lines.append(summary + (f" ({skipped} skipped)" if skipped else ""))
    _write_text(args, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


def _cmd_revival(args: argparse.Namespace) -> int:
    H = oscillators.hamiltonian(args.dim, args.kind, family=args.family, alpha=args.alpha)
    dec = eigendecompose_hermitian(H)
    report = oscillators.detect_revivals(dec, min_len=args.min_len, tol=args.tol)
    if report.progressions:
        longest = max(report.progressions, key=lambda p: p.length)
        horizon = 2.0 * longest.period
    else:
        horizon = 4.0 * math.pi
    psi = _pick_state(args)
    ts = np.linspace(0.0, horizon, args.samples)
    fidelity = [abs(inner_product(psi, evolved)) for evolved in evolve_spectral(dec, psi, ts)]
    if args.format == "svg":
        _write_text(args, _svg_line(list(ts), fidelity))
        return 0
    rows = [
        "progression,%d,%d,%.17g,%.17g,," % (p.start, p.length, p.gap, p.period)
        for p in report.progressions
    ]
    rows += ["fidelity,,,,,%.17g,%.17g" % tf for tf in zip(ts.tolist(), fidelity)]
    _write_csv(args, ["record", "start", "length", "gap", "period", "t", "fidelity"], "%s", rows)
    return 0


def _cmd_kravchuk_table(args: argparse.Namespace) -> int:
    table = kravchuk.kravchuk_table(args.dim)
    _write_grid_csv(args, ["m", "n", "poly", "func"], table.poly, table.func)
    return 0


def _cmd_frame_check(args: argparse.Namespace) -> int:
    diag = frames.frame_analyze(frames.coherent_family(args.dim, args.family), tol=args.tol)
    _write_csv(
        args,
        ["lower", "upper", "spread", "weight_sum", "tight"],
        "%.17g,%.17g,%.17g,%.17g,%d",
        [(diag.lower, diag.upper, diag.upper - diag.lower, diag.weight_sum, diag.is_tight)],
    )
    return 1 if math.isnan(diag.weight_sum) else 0  # 0 only for a Parseval frame


_COMMANDS = {
    "gaussian": _cmd_gaussian,
    "wigner": _cmd_wigner,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "revival": _cmd_revival,
    "kravchuk-table": _cmd_kravchuk_table,
    "frame-check": _cmd_frame_check,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True, help="odd grid size d >= 3")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout or FINOSC_OUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finosc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaussian", help="normalized Gaussian profile as n,value,prob")
    _add_common(p)
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--kappa", type=float, default=None)

    p = sub.add_parser("wigner", help="Wigner map as n,m,w")
    _add_common(p)
    p.add_argument("--family", choices=[f.value for f in Family], default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--state", choices=("delta0",), default=None)

    p = sub.add_parser("spectrum", help="ascending oscillator eigenvalues")
    _add_common(p)
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], default=None)
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("verify", help="run the identity-check suite")
    _add_common(p)

    p = sub.add_parser("revival", help="equal-gap progressions and a fidelity trace")
    _add_common(p)
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--min-len", type=int, default=3, dest="min_len")
    p.add_argument("--state", choices=("random", "delta0", "gaussian"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("kravchuk-table", help="polynomial and function tables as m,n,poly,func")
    _add_common(p)

    p = sub.add_parser("frame-check", help="frame bounds of the scaled coherent family")
    _add_common(p)
    p.add_argument("--family", choices=[f.value for f in Family], required=True)

    for name in ("gaussian", "wigner", "spectrum", "revival"):
        sub.choices[name].add_argument("--format", choices=("csv", "svg"), default="csv")
    for name in ("revival", "frame-check"):
        sub.choices[name].add_argument("--tol", type=float, default=1e-10, help="tolerance (default 1e-10)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing keeps no state
    in it, and a process that runs many commands builds it once."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_check_args(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the library does no file I/O: only the output can fail
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Checks of each op's output against an independent reference.

No check compares bytes: a LAPACK or recurrence change that moves the last
bits is still correct. Each check raises ``Invalid`` with a reason.

- spectrum: ``np.linalg.eigvalsh`` of the same public ``hamiltonian(...)`` to
  1e-9 of the largest |eigenvalue|; gramschmidt and kravchuk spectra must be
  k + 1/2.
- kravchuk-table: ``poly`` is integral and tied to ``func`` by the binomial
  weight; ``func`` is symmetric and orthonormal.
- wigner: row and column sums equal the position and momentum marginals of
  the state, rebuilt here from the lattice, binomial or cosine formula.
- gaussian: equals that rebuilt profile, is even, and has total probability 1.
- frame-check: tight, bounds 1, ``weight_sum`` = d.
- revival: fidelity(0) = 1 and fidelity <= 1; the kravchuk ladder has one
  full progression of gap 1.
- verify: exit 0, no FAIL line, and all checks passed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import xml.etree.ElementTree as ET
from functools import lru_cache

import numpy as np

OK, REFUSED, WRONG = "ok", "refused", "wrong"


class Invalid(Exception):
    """The op's output contradicts its reference."""


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2) if argv[i].startswith("--")}


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise Invalid(reason)


def _grid(d: int) -> np.ndarray:
    j = (d - 1) // 2
    return np.arange(-j, j + 1)


def reference_state(d: int, family: str | None, kappa: float | None, delta0: bool = False) -> np.ndarray:
    """Normalized state on -j..j from the defining formulas (not finosc's code)."""
    n = _grid(d)
    j = (d - 1) // 2
    if delta0:
        return (n == 0).astype(float)
    k = 1.0 if kappa is None else kappa
    a = np.arange(-20, 21)[:, None]
    if family == "g1":
        v = np.exp(-k * math.pi * (a * d + n) ** 2 / d).sum(axis=0)
    elif family == "g2":
        v = np.exp(-k * math.pi * ((a + 0.5) * d + n) ** 2 / d).sum(axis=0)
    elif family == "g3":
        alt = np.where(a % 2, -1.0, 1.0) * np.exp(-k * math.pi * (a * d + n) ** 2 / d)
        v = np.where(n % 2, -1.0, 1.0) * alt.sum(axis=0)
    elif family == "g4":
        v = np.array([float(math.comb(2 * j, j + m)) for m in n])
    elif family == "g5":
        v = np.cos(n * math.pi / d) ** (2 * j)
    else:
        raise ValueError(f"unknown family {family!r}")
    return v / np.linalg.norm(v)


def _rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == header, f"header {rows[:1]} is not {header}")
    return rows[1:]


def _svg(text: str) -> ET.Element:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise Invalid(f"malformed SVG: {exc}") from None
    _require(root.tag.endswith("svg"), f"root element is {root.tag}")
    return root


@lru_cache(maxsize=None)
def _reference_spectrum(kind: str, d: int, family: str | None, alpha: float | None) -> np.ndarray:
    if kind in ("gramschmidt", "kravchuk"):
        return np.arange(d) + 0.5
    from finosc import GridDim, hamiltonian
    from finosc.gaussians import Family

    fam = Family(family) if family else None
    H = hamiltonian(GridDim.from_size(d), kind, family=fam, alpha=alpha)
    return np.linalg.eigvalsh(H.matrix)


def check_spectrum(argv, text):
    f = _flags(argv)
    d = int(f["dim"])
    alpha = float(f["alpha"]) if "alpha" in f else None
    ref = _reference_spectrum(f["kind"], d, f.get("family"), alpha)
    rows = _rows(text, ["index", "eigenvalue"])
    _require([int(r[0]) for r in rows] == list(range(d)), "indices are not 0..d-1")
    got = np.array([float(r[1]) for r in rows])
    err = float(np.max(np.abs(got - ref)))
    _require(err <= 1e-9 * float(np.max(np.abs(ref))), f"eigenvalues off by {err:.3e}")


def check_kravchuk_table(argv, text):
    d = int(_flags(argv)["dim"])
    j = (d - 1) // 2
    data = np.array([[float(x) for x in r] for r in _rows(text, ["m", "n", "poly", "func"])])
    _require(data.shape == (d * d, 4), f"{data.shape[0]} rows, expected {d * d}")
    n = _grid(d)
    _require(
        np.array_equal(data[:, 0], np.repeat(n, d)) and np.array_equal(data[:, 1], np.tile(n, d)),
        "rows are not (m, n) in ascending m-major order",
    )
    poly = data[:, 2].reshape(d, d)
    func = data[:, 3].reshape(d, d)
    _require(all(float(x).is_integer() for x in poly.flat), "poly has a non-integer entry")
    sym = float(np.max(np.abs(func - func.T)))
    _require(sym <= 1e-12, f"func is not symmetric: {sym:.3e}")
    orth = float(np.max(np.abs(func @ func.T - np.eye(d))))
    _require(orth <= 1e-10, f"func is not orthonormal: {orth:.3e}")
    # func[m, n] = 2^-j sqrt(C(2j, j+n) / C(2j, j+m)) poly[m, n]
    log_binom = np.array([math.lgamma(2 * j + 1) - math.lgamma(j + k + 1) - math.lgamma(j - k + 1) for k in n])
    weight = np.exp(0.5 * (log_binom[None, :] - log_binom[:, None]) - j * math.log(2.0))
    expect = weight * poly
    scale = np.maximum(np.abs(func), np.abs(expect))
    tie = float(np.max(np.abs(func - expect) / np.where(scale > 0, scale, 1.0)))
    _require(tie <= 1e-9, f"poly and func disagree by the binomial weight: {tie:.3e}")


def check_wigner(argv, text):
    f = _flags(argv)
    d = int(f["dim"])
    kappa = float(f["kappa"]) if "kappa" in f else None
    psi = reference_state(d, f.get("family"), kappa, delta0=f.get("state") == "delta0")
    if f.get("format") == "svg":
        rects = _svg(text).findall("{http://www.w3.org/2000/svg}rect")
        _require(len(rects) == d * d, f"{len(rects)} cells drawn, expected {d * d}")
        return
    data = np.array([[float(x) for x in r] for r in _rows(text, ["n", "m", "w"])])
    _require(data.shape == (d * d, 3), f"{data.shape[0]} rows, expected {d * d}")
    n = _grid(d)
    _require(
        np.array_equal(data[:, 0], np.repeat(n, d)) and np.array_equal(data[:, 1], np.tile(n, d)),
        "rows are not (n, m) in ascending n-major order",
    )
    W = data[:, 2].reshape(d, d)
    F = np.exp(-2j * math.pi * np.outer(n, n) / d) / math.sqrt(d)
    pos = float(np.max(np.abs(W.sum(axis=1) - np.abs(psi) ** 2)))
    mom = float(np.max(np.abs(W.sum(axis=0) - np.abs(F @ psi) ** 2)))
    _require(max(pos, mom) <= 1e-10, f"marginals off by {max(pos, mom):.3e}")


def check_gaussian(argv, text):
    f = _flags(argv)
    d = int(f["dim"])
    kappa = float(f["kappa"]) if "kappa" in f else None
    ref = reference_state(d, f["family"], kappa)
    if f.get("format") == "svg":
        root = _svg(text)
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        _require(len(circles) == d, f"{len(circles)} stems drawn, expected {d}")
        base = float(root.find("{http://www.w3.org/2000/svg}line").get("y1"))
        heights = np.array([base - float(c.get("cy")) for c in circles])
        shape = float(np.max(np.abs(heights / np.max(np.abs(heights)) - ref / np.max(np.abs(ref)))))
        _require(shape <= 1e-3, f"stem heights off the profile by {shape:.3e}")
        return
    data = np.array([[float(x) for x in r] for r in _rows(text, ["n", "value", "prob"])])
    _require(data.shape == (d, 3), f"{data.shape[0]} rows, expected {d}")
    _require(np.array_equal(data[:, 0], _grid(d)), "n is not -j..j")
    value, prob = data[:, 1], data[:, 2]
    _require(float(np.max(np.abs(value - value[::-1]))) <= 1e-15, "profile is not even")
    err = float(np.max(np.abs(value - ref)))
    _require(err <= 1e-12, f"profile off the reference by {err:.3e}")
    _require(float(np.max(np.abs(prob - value * value))) <= 1e-15, "prob is not value^2")
    _require(abs(prob.sum() - 1.0) <= 1e-12, f"total probability {prob.sum():.17g}")


def check_frame_check(argv, text):
    d = int(_flags(argv)["dim"])
    rows = _rows(text, ["lower", "upper", "spread", "weight_sum", "tight"])
    _require(len(rows) == 1, f"{len(rows)} rows, expected 1")
    lower, upper, spread, weight_sum, tight = (float(x) for x in rows[0])
    _require(tight == 1.0, "frame reported not tight")
    _require(max(abs(lower - 1.0), abs(upper - 1.0)) <= 1e-9, f"frame bounds {lower!r}, {upper!r} are not 1")
    _require(0.0 <= spread <= 1e-9, f"spread {spread!r}")
    _require(abs(weight_sum - d) <= 1e-9 * d, f"weight_sum {weight_sum!r}, expected {d}")


def check_revival(argv, text):
    f = _flags(argv)
    d = int(f["dim"])
    rows = _rows(text, ["record", "start", "length", "gap", "period", "t", "fidelity"])
    fid = np.array([[float(r[5]), float(r[6])] for r in rows if r[0] == "fidelity"])
    progs = [(int(r[1]), int(r[2]), float(r[3]), float(r[4])) for r in rows if r[0] == "progression"]
    _require(len(fid) == int(f.get("samples", 200)), f"{len(fid)} fidelity samples")
    _require(fid[0, 0] == 0.0 and bool(np.all(np.diff(fid[:, 0]) > 0)), "times do not ascend from 0")
    _require(abs(fid[0, 1] - 1.0) <= 1e-9, f"fidelity(0) = {fid[0, 1]!r}")
    _require(bool(np.all((fid[:, 1] >= 0.0) & (fid[:, 1] <= 1.0 + 1e-9))), "fidelity outside [0, 1]")
    for start, length, gap, period in progs:
        _require(gap > 0 and abs(period - 2 * math.pi / gap) <= 1e-9 * period, f"period {period!r} != 2 pi / {gap!r}")
    if f["kind"] == "kravchuk":
        _require(
            len(progs) == 1 and progs[0][:2] == (0, d) and abs(progs[0][2] - 1.0) <= 1e-9,
            f"kravchuk ladder progressions {progs}",
        )


def check_verify(argv, text):
    lines = text.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    _require(not fails, f"{len(fails)} FAIL lines, first: {fails[:1]}")
    last = lines[-1].split() if lines else []
    passed, _, total = (last[0] if last else "").partition("/")
    _require(passed.isdigit() and passed == total, f"summary line {lines[-1:]} does not report every check passed")


CHECKS = {
    "spectrum": check_spectrum,
    "kravchuk-table": check_kravchuk_table,
    "wigner": check_wigner,
    "gaussian": check_gaussian,
    "frame-check": check_frame_check,
    "revival": check_revival,
    "verify": check_verify,
}


def classify(argv: list[str], rc, stderr: str, out_path: str) -> tuple[str, str]:
    """(OK | REFUSED | WRONG, reason) for one op.

    REFUSED is a clean refusal: exit 1 with a named computation error and no
    output written. It counts as a failed op but not as a wrong output.
    """
    if rc == 1 and stderr.startswith("computation failed:") and not os.path.exists(out_path):
        return REFUSED, stderr.strip().splitlines()[0][:300]
    if rc != 0:
        return WRONG, f"exit {rc}: {stderr.strip()[-300:]}"
    try:
        with open(out_path) as fh:
            text = fh.read()
        CHECKS[argv[0]](argv, text)
    except Invalid as exc:
        return WRONG, str(exc)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return WRONG, f"unreadable output: {exc!r}"
    return OK, ""

"""The five finite Gaussian families, Jacobi theta evaluation and the
closed-form norm identities.

Families G1-G3 are lattice periodizations of e^{-kappa pi x^2 / d} (plain,
half-period shifted, and sign-alternating) and carry a width parameter
kappa > 0.  G4 is the centered binomial profile C(2j, j+n)/4^j, formed as an
exact integer ratio, and G5 the cosine power; both are parameter-free.
Values are real, even in n, and periodic mod d.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache
from math import comb, exp

import numpy as np

from .grid import GridDim, GridFunction, InputError

__all__ = [
    "Family",
    "theta",
    "gaussian",
    "normalized_gaussian",
    "norm_squared_closed_form",
]

# Lattice/theta series stop by the rule in _paired_sum; the terms decay
# super-exponentially, so an envelope of 1e-18 certifies full double precision.
SERIES_REL_TOL = 1e-18
SERIES_MIN_TERMS = 3
_SERIES_CAP = 10_000
# np.linalg.norm sums the squares unscaled: below this norm they are subnormal
# or 0, so the norm is inexact or 0
_TINY = float(np.finfo(float).tiny)
_NORM_FLOOR = math.sqrt(_TINY)
_GAUSSIAN_CACHE_SIZE = 256  # profiles kept, keyed by dimension, family and float kappa


class Family(Enum):
    """Tag for the five Gaussian families; G1-G3 take a width kappa > 0."""

    G1 = "g1"
    G2 = "g2"
    G3 = "g3"
    G4 = "g4"
    G5 = "g5"

    @classmethod
    def from_label(cls, label: str) -> "Family":
        try:
            return cls(label.lower())
        except ValueError:
            raise InputError(f"unknown Gaussian family {label!r}; expected g1..g5") from None

    @property
    def has_kappa(self) -> bool:
        return self in (Family.G1, Family.G2, Family.G3)

    @property
    def index(self) -> int:
        return int(self.value[1])


def _check_kappa(family: Family, kappa: float | None) -> float:
    if family.has_kappa:
        if kappa is None:
            return 1.0
        if not 0 < kappa < math.inf:
            raise InputError(f"kappa must be positive and finite, got {kappa}")
        return float(kappa)
    if kappa is not None:
        raise InputError(f"family {family.value} takes no kappa")
    return 1.0


def _paired_sum(pair, envelope, series: str):
    """Sum pair(a) over a = 0, 1, 2, ... of mirror-paired lattice series, one
    series per array entry: the one loop over lattice offsets in this module.

    ``pair(a)`` is the combined contribution of the mirror pair at offset a,
    and ``envelope(a)`` (per entry, or one for all) bounds |pair(a)| and, past
    its peak, every later pair.  Stops once, for every entry, envelope(a + 1)
    is at most SERIES_REL_TOL times the larger of the partial sum and the peak
    pair, after at least SERIES_MIN_TERMS pairs.  The envelope, not the pair
    value, drives the decision because an oscillatory factor can make single
    pairs vanish long before the tail is negligible; before its peak the
    envelope exceeds every pair so far, so the rule cannot stop there.
    """
    total = peak = 0.0
    for a in range(_SERIES_CAP + 1):
        t = pair(a)
        total += t
        peak = np.maximum(peak, np.abs(t))
        # <=, so a sum that underflows to 0 stops on an envelope that does too
        if a >= SERIES_MIN_TERMS and np.all(envelope(a + 1) <= SERIES_REL_TOL * np.maximum(np.abs(total), peak)):
            return total
    raise ValueError(f"{series} did not converge within {_SERIES_CAP} pairs")


def theta(kind: int, z, tau: complex) -> complex | np.ndarray:
    """Jacobi theta function theta_kind(z, tau) for kind in {2, 3, 4}.

    theta_3(z,tau) = sum_a e^{i pi tau a^2} e^{2 pi i a z}; theta_4 carries the
    alternating sign (-1)^a and theta_2 runs over half-integers a + 1/2.
    Requires Im(tau) > 0 for convergence.  ``z`` may be an array: each pair
    handed to ``_paired_sum`` is an array over every z, with one envelope for
    all entries, growing at the largest |Im z|.  The result has the shape of z
    (a Python complex for a scalar z).
    """
    if kind not in (2, 3, 4):
        raise InputError(f"theta kind must be 2, 3 or 4, got {kind}")
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise InputError(f"theta requires a finite tau, got {tau}")
    if not tau.imag > 0:
        raise InputError("theta requires Im(tau) > 0")
    zs = np.asarray(z, dtype=complex)
    bad = ~np.isfinite(zs)
    if bad.any():
        raise InputError(f"theta requires a finite z, got {zs[bad][0]}")
    decay = math.pi * tau.imag
    growth = 2.0 * math.pi * float(np.max(np.abs(zs.imag), initial=0.0))
    shift = 0.5 if kind == 2 else 0.0
    sign = -1.0 if kind == 4 else 1.0

    def pair(a):
        # the lattice points +-x, x = a + shift, each term
        # e^{i pi tau x^2 +- 2 pi i x z}; x = 0 is the single term 1
        x = a + shift
        if x == 0.0:
            return np.ones(zs.shape, dtype=complex)
        c, b = 1j * math.pi * tau * x * x, 2j * math.pi * x
        return sign**a * (np.exp(c + b * zs) + np.exp(c - b * zs))

    def envelope(a):
        x = a + shift
        arg = -decay * x**2 + growth * x
        return 2.0 * math.exp(arg) if arg < 700.0 else math.inf

    where = f"z = {complex(zs)}" if zs.ndim == 0 else f"{zs.size} points z"
    total = _paired_sum(pair, envelope, f"theta_{kind} series at {where}, tau = {tau}")
    return complex(total) if total.ndim == 0 else total


def _termwise(f, x: np.ndarray) -> np.ndarray:
    """f(x) entry by entry, f from the math module: numpy's exp rounds some
    arguments differently, which would move lattice values, and the CSV bytes
    that golden hashes pin, by an ulp."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _lattice_profile(d: int, kappa: float, offset: float, alternating: bool) -> np.ndarray:
    """sum_a (+-1)^a exp(-kappa pi ((a + offset) d + n)^2 / d) for n = 0..j, paired
    symmetrically and summed for all n at once.

    Both members of pair a lie at least (a + offset) d - n from the origin,
    which is positive for a >= 1 since n <= j < d/2.

    Where kappa d < 1 the alternating terms cancel, so that sum is taken in
    its Poisson dual instead, whose terms do not cancel:
    (2 / sqrt(kappa d)) sum_{k>=1} e^{-pi (k-1/2)^2 / (kappa d)} cos((2k-1) pi n / d).
    Each term is math.exp (math.cos) of its own argument; see ``_termwise``.
    """
    n = np.arange(d // 2 + 1)
    if alternating and kappa * d < 1.0:
        t = kappa * d
        scale = 2.0 / math.sqrt(t)

        def dual_envelope(a):
            return scale * exp(-math.pi * (a + 0.5) ** 2 / t)

        def dual_pair(a):
            return dual_envelope(a) * _termwise(math.cos, (2 * a + 1) * math.pi * n / d)

        return _paired_sum(dual_pair, dual_envelope, f"dual lattice series at kappa = {kappa:g}, d = {d}")

    c = kappa * np.pi / d

    def term(x):  # e^{-c (x d + n)^2} at every n
        return _termwise(exp, -c * (x * d + n) ** 2)

    def pair(a):
        s = term(a + offset) + (term(-a - offset) if a + offset else 0.0)
        return -s if alternating and a % 2 else s

    def envelope(a):  # twice the nearer member's term
        return 2.0 * term(-a - offset)

    return _paired_sum(pair, envelope, f"lattice series at kappa = {kappa:g}, d = {d}")


# lattice offset and alternating sign of G1-G3; G3 also carries (-1)^n
_LATTICE = {Family.G1: (0.0, False), Family.G2: (0.5, False), Family.G3: (0.0, True)}


@lru_cache(maxsize=_GAUSSIAN_CACHE_SIZE)
def _gaussian_cached(dim: GridDim, family: Family, kappa: float) -> GridFunction:
    j, d = dim.j, dim.d
    if family is Family.G4:
        # int / int true division rounds the exact ratio correctly at every d
        half = [comb(2 * j, j + n) / 4**j for n in range(j + 1)]
    elif family is Family.G5:
        half = [np.cos(n * np.pi / d) ** (2 * j) / np.sqrt(d) for n in range(j + 1)]
    else:
        half = _lattice_profile(d, kappa, *_LATTICE[family])
        if family is Family.G3:
            half[1::2] = -half[1::2]
    # mirror so that value(-n) == value(n) holds exactly
    half = np.array(half)
    return GridFunction(dim, np.concatenate([half[:0:-1], half]))


def gaussian(dim: GridDim, family: Family, kappa: float | None = None) -> GridFunction:
    """The (unnormalized) finite Gaussian of the given family on the grid."""
    return _gaussian_cached(dim, family, _check_kappa(family, kappa))


def normalized_gaussian(dim: GridDim, family: Family, kappa: float | None = None) -> GridFunction:
    """gaussian(...) scaled to unit l2 norm.  Below a norm of _NORM_FLOOR (g2,
    which peaks at e^{-kappa pi/(4d)}, once kappa exceeds about 451 d), and
    only there, the profile is divided by its peak before its norm is taken;
    a subnormal peak (kappa above about 902 d) raises ValueError, since the
    values themselves then carry few bits or are 0."""
    g = gaussian(dim, family, kappa)
    norm = g.norm()
    if norm >= _NORM_FLOOR:
        return g / norm
    peak = float(np.max(np.abs(g.values)))
    if not peak >= _TINY:
        raise ValueError(
            f"{family.value} at kappa = {_check_kappa(family, kappa):g}, d = {dim.d} cannot be "
            f"normalized: its peak {peak:.3g} is below {_TINY:.3g}, the smallest normal float"
        )
    g = g / peak
    return g / g.norm()


def norm_squared_closed_form(dim: GridDim, family: Family, kappa: float | None = None) -> float:
    """Closed form of ||g||^2, available for G1-G3 at kappa = 1 and for G4, G5.

    G1-G3 norms reduce to central values of the half-width families; G4 and G5
    share the central binomial ratio C(4j, 2j) / 16^j, rounded once.
    """
    kappa = _check_kappa(family, kappa)
    if family.has_kappa and kappa != 1.0:
        raise ValueError(f"closed-form norm only available at kappa=1 for {family.value}")
    j, d = dim.j, dim.d
    if family in (Family.G4, Family.G5):
        return comb(4 * j, 2 * j) / 16**j
    a0 = gaussian(dim, Family.G1, 2.0)[0]
    b0 = gaussian(dim, Family.G2, 2.0)[0].real
    a0 = a0.real
    if family is Family.G1:
        return np.sqrt(d / 2.0) * (a0 * a0 + 2.0 * a0 * b0 - b0 * b0)
    return np.sqrt(d / 2.0) * (a0 * a0 + b0 * b0)

"""Kravchuk polynomials and functions, the Kravchuk transform and the su(2)
generator calculus.

K_m(n) is the coefficient of X^{j+m} in (1-X)^{j+n} (1+X)^{j-n}.  The table
of all K_m(n) is built by a column recurrence by exact polynomial division
over one quadrant only, m <= 0 and n <= 0: column n = -j holds the binomials
C(2j, k), and column n+1 follows from column n by multiplying by (1-X) and
dividing synthetically by (1+X), one O(d) pass in Python integers whose
division leaves no remainder.  The other three quadrants follow from the two
reflections K_m(-n) = (-1)^{j+m} K_m(n) and K_{-m}(n) = (-1)^{j+n} K_m(n)
(Koekoek, Lesky & Swarttouw, section 9.11); a mirrored zero is stored as
+0.0.  The scalar route, and the test oracle, is the explicit alternating
binomial sum.  Both stay in exact integers until the final float conversion:
the alternating sum cancels from magnitude ~4^j down to O(1), so
floating-point binomials would lose ~j bits.  The weighted companions
curly-K_m(n) = 2^{-j} sqrt(C(2j,j+n)/C(2j,j+m)) K_m(n) form an orthonormal
basis diagonalizing J_x with integer eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, ldexp, sqrt

import numpy as np

from .grid import GridDim, GridFunction, InputError, LinearOperator, _adopt, _check_integer, _readonly_copy

__all__ = [
    "KravchukTable",
    "Su2Generators",
    "kravchuk_polynomial",
    "kravchuk_function",
    "kravchuk_function_hypergeometric",
    "kravchuk_table",
    "kravchuk_transform",
    "generalized_kravchuk_transform",
    "su2_generators",
]

_KRAVCHUK_CACHE_SIZE = 16  # tables, and generator sets, kept per dimension


def _check_grid(dim: GridDim, **indices: int) -> tuple[int, ...]:
    """The indices as ints, once each is an integer in [-j, j] and every
    K_m(n) of the grid fits in float64: by Vandermonde |K_m(n)| <= C(2j, j+m)
    <= C(2j, j), one exact test that bounds the binomial ratios too and passes
    to d = 1029."""
    j = dim.j
    labels = tuple(_check_integer(name, value) for name, value in indices.items())
    for name, value in zip(indices, labels):
        if not -j <= value <= j:
            raise InputError(f"{name}={value} outside the grid range [-{j}, {j}]")
    if comb(2 * j, j) >= 2**1024:
        raise InputError(
            f"Kravchuk values at d = {dim.d} reach C({2 * j}, {j}) >= 2^1024, past the float64 range"
        )
    return labels


def _kravchuk_polynomial_int(j: int, m: int, n: int) -> int:
    lo = max(0, m + n)
    hi = min(j + m, j + n)
    total = 0
    for k in range(lo, hi + 1):
        term = comb(j + n, k) * comb(j - n, j + m - k)
        total += -term if k % 2 else term
    return total


def kravchuk_polynomial(dim: GridDim, m: int, n: int) -> float:
    """K_m(n) via the alternating binomial sum, exact until the final rounding."""
    j = dim.j
    m, n = _check_grid(dim, m=m, n=n)
    return float(_kravchuk_polynomial_int(j, m, n))


def kravchuk_function(dim: GridDim, m: int, n: int) -> float:
    """The orthonormal weighted value sqrt(C(2j,j+n)/C(2j,j+m)) (K_m(n) 2^{-j})."""
    j = dim.j
    m, n = _check_grid(dim, m=m, n=n)
    ratio = comb(2 * j, j + n) / comb(2 * j, j + m)
    return sqrt(ratio) * ldexp(float(_kravchuk_polynomial_int(j, m, n)), -j)


def _hypergeometric_int(j: int, m: int, n: int) -> int:
    """(2j)! * 2F1(-j-m, -j-n; -2j | 2), summed exactly in integers."""
    a, b, c = -(j + m), -(j + n), -2 * j
    hyp = term = factorial(2 * j)
    for k in range(min(j + m, j + n)):
        term = term * (a + k) * (b + k) * 2 // ((c + k) * (k + 1))
        hyp += term
    return hyp


def kravchuk_function_hypergeometric(dim: GridDim, m: int, n: int) -> float:
    """Same value through the terminating 2F1(-j-m, -j-n; -2j | 2) sum.

    Kept as an independent route for testing the symmetry in (m, n); the
    series terminates at min(j+m, j+n) before the lower Pochhammer vanishes.
    Its terms are accumulated exactly as the integers
    (2j)! * term_k = (-2)^k C(j+m,k) C(j+n,k) k! (2j-k)!, each the previous
    one times the Pochhammer ratio (an exact integer division), and the sum
    is divided by (2j)! once.
    """
    j = dim.j
    m, n = _check_grid(dim, m=m, n=n)
    # >= 4^-j: subnormal only at the four corners from d = 1025, as the exact 2^-2j
    weight = comb(2 * j, j + m) * comb(2 * j, j + n) / 4**j
    return sqrt(weight) * (_hypergeometric_int(j, m, n) / factorial(2 * j))


@dataclass(frozen=True, eq=False)
class KravchukTable:
    """All K_m(n) and curly-K_m(n) for one grid, indexed [m + j, n + j]; an
    accessor refuses a label outside [-j, j] as the scalar routes do."""

    dim: GridDim
    poly: np.ndarray
    func: np.ndarray

    def __post_init__(self):
        shape = (self.dim.d, self.dim.d)
        object.__setattr__(self, "poly", _readonly_copy(self.poly, float, shape))
        object.__setattr__(self, "func", _readonly_copy(self.func, float, shape))

    def polynomial(self, m: int, n: int) -> float:
        m, n = _check_grid(self.dim, m=m, n=n)
        return float(self.poly[m + self.dim.j, n + self.dim.j])

    def function(self, m: int, n: int) -> float:
        m, n = _check_grid(self.dim, m=m, n=n)
        return float(self.func[m + self.dim.j, n + self.dim.j])

    def function_row(self, m: int) -> GridFunction:
        """The basis vector curly-K_m as a grid function."""
        (m,) = _check_grid(self.dim, m=m)
        return _adopt(GridFunction, self.dim, self.func[m + self.dim.j].astype(complex))


@lru_cache(maxsize=_KRAVCHUK_CACHE_SIZE)
def kravchuk_table(dim: GridDim) -> KravchukTable:
    """All K_m(n) and curly-K_m(n), by column recurrence by exact polynomial
    division on the quadrant m, n <= 0 and by reflection elsewhere; the
    alternating sum is the scalar route and the test oracle.

    Column n holds the coefficients k = 0..j of (1-X)^{j+n} (1+X)^{j-n}, kept
    as Python integers one column at a time; the division reads only lower
    k, so the truncated column is exact.  The 2^-j scales the rounded K_m(n),
    exactly, since every nonzero |K_m(n)| 2^-j >= 2^-514 is normal up to
    d = 1029; on the binomial ratio it would underflow from d = 515.  Every
    entry equals the scalar ``kravchuk_polynomial``/``kravchuk_function``
    value bit for bit: both round the same exact integers and correctly
    rounded ratios, and a reflection only flips signs.  A mirrored zero is
    stored as +0.0, as the scalar routes give it.
    """
    _check_grid(dim)
    j, d = dim.j, dim.d
    half = j + 1
    binom = [comb(2 * j, k) for k in range(half)]
    poly = np.empty((d, d))
    func = np.empty((d, d))
    col = binom
    for ni in range(half):
        if ni:
            # times (1-X), divided by (1+X): q_k = c_k - c_{k-1} - q_{k-1}
            prev = q = 0
            nxt = []
            for c in col:
                q = c - prev - q
                prev = c
                nxt.append(q)
            col = nxt
        poly[:half, ni] = [float(c) for c in col]
        func[:half, ni] = np.sqrt([binom[ni] / b for b in binom]) * np.ldexp(poly[:half, ni], -j)
    # (-1)^{j+i} for grid index i; the weights are even in m and in n
    sign = np.where((j + dim.indices()) % 2, -1.0, 1.0)
    for t in (poly, func):
        t[half:, :half] = sign[:half] * t[j - 1 :: -1, :half]  # K_{-m}(n) = (-1)^{j+n} K_m(n)
        t[:, half:] = sign[:, None] * t[:, j - 1 :: -1]  # K_m(-n) = (-1)^{j+m} K_m(n)
        t += 0.0  # -0.0 + 0.0 is +0.0
    return _adopt(KravchukTable, dim, poly, func)


def kravchuk_transform(dim: GridDim) -> LinearOperator:
    """The unitary K sending |j;n> to |curly-K_{-n}>; K^4 = identity."""
    func = kravchuk_table(dim).func
    # matrix[m_idx, n_idx] = curly-K_{-n}(m)
    return _adopt(LinearOperator, dim, func[::-1].T.astype(complex, order="C"))


def generalized_kravchuk_transform(dim: GridDim, phases) -> LinearOperator:
    """K with an extra unit phase e^{i alpha_n} per column; still maps J_z to J_x.
    A NaN or infinite phase raises ``InputError``."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (dim.d,):
        raise ValueError(f"expected {dim.d} phases, got shape {phases.shape}")
    finite = np.isfinite(phases)
    if not np.all(finite):
        raise InputError(f"Kravchuk phases must be finite, got {phases[~finite][0]}")
    return _adopt(
        LinearOperator, dim, kravchuk_transform(dim).matrix * np.exp(1j * phases)[None, :]
    )


@dataclass(frozen=True, eq=False)
class Su2Generators:
    """The spin-j generators on the grid: J_z diagonal, J_+/- ladders."""

    dim: GridDim
    jz: LinearOperator
    jplus: LinearOperator
    jminus: LinearOperator
    jx: LinearOperator
    jy: LinearOperator


@lru_cache(maxsize=_KRAVCHUK_CACHE_SIZE)
def su2_generators(dim: GridDim) -> Su2Generators:
    """J_z = diag(m); J_+ |m> = c_m |m+1> and J_- = J_+^T with
    c_m = sqrt((j-m)(j+m+1)); J_x = (J_+ + J_-)/2, J_y = (J_+ - J_-)/2i."""
    j = dim.j
    m = dim.indices()[:-1].astype(float)
    c = np.sqrt((j - m) * (j + m + 1)).astype(complex)
    jp, jm = np.diag(c, -1), np.diag(c, 1)
    ops = (np.diag(dim.indices().astype(complex)), jp, jm, (jp + jm) / 2.0, (jp - jm) / 2j)
    return Su2Generators(dim, *(_adopt(LinearOperator, dim, a) for a in ops))

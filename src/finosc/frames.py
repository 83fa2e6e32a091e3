"""Shift/modulation unitaries, finite displacement operators, coherent-state
tight frames and the quantization/dequantization maps.

The d^2 displaced copies |alpha,beta> of a normalized Gaussian G resolve the
identity with uniform weight 1/d, which turns phase-space functions
f(alpha, beta) into operators A_f = (1/d) sum f |alpha,beta><alpha,beta| and
back.  No d^3 array is held: the operators are monomial (one nonzero per
row), a family stores only G, and both maps sum over beta first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .gaussians import Family, normalized_gaussian
from .grid import (
    GridDim,
    GridFunction,
    InputError,
    JacobiConfig,
    DEFAULT_JACOBI,
    LinearOperator,
    hermitian_eigenvalues,
)
from .grid import _adopt, _assign, _phase, _readonly_copy, _same_dim, _stack, _views

__all__ = [
    "schwinger",
    "displacement",
    "CoherentFamily",
    "coherent_family",
    "quantize",
    "dequantize",
    "FiniteFrame",
    "FrameDiagnostics",
    "frame_analyze",
]

_FAMILY_CACHE_SIZE = 32  # coherent families kept; each holds O(d) numbers


def _monomial(dim: GridDim, shift: int, entries: np.ndarray) -> LinearOperator:
    """A^shift diag(entries): row n holds entries(n - shift) in column n - shift."""
    m = np.zeros((dim.d, dim.d), dtype=complex)
    cols = (np.arange(dim.d) - shift) % dim.d
    m[np.arange(dim.d), cols] = entries[cols]
    return _adopt(LinearOperator, dim, m)


def schwinger(dim: GridDim, which: str, power: int = 1) -> LinearOperator:
    """Power of the cyclic shift A ((A psi)(n) = psi(n-1)) or modulation B
    ((B psi)(n) = e^{2 pi i n/d} psi(n)), as A^a = D(a, 0) and B^b = D(0, b).

    The power is taken mod d, so A^d = B^d = identity exactly; A and B
    commute up to the phase e^{-2 pi i ab/d}.
    """
    if which not in ("A", "B"):
        raise InputError(f"which must be 'A' or 'B', got {which!r}")
    return displacement(dim, power, 0) if which == "A" else displacement(dim, 0, power)


def displacement(dim: GridDim, alpha: int, beta: int) -> LinearOperator:
    """The unitary D(alpha, beta) = e^{i pi alpha beta / d} A^alpha B^beta.

    Accepts arbitrary integer labels; the symmetric phase makes the
    composition law D(a1,b1) D(a2,b2) = e^{-i pi (a1 b2 - a2 b1)/d}
    D(a1+a2, b1+b2) hold for unreduced label arithmetic.  Note
    D(alpha + d, beta) = (-1)^beta D(alpha, beta), so reducing a label mod d
    can flip the overall sign.
    """
    B = _phase(dim.d, 2 * dim.indices() * (int(beta) % dim.d))
    return _monomial(dim, int(alpha), _phase(dim.d, int(alpha) * int(beta)) * B)


@dataclass(frozen=True, eq=False)
class CoherentFamily:
    """The d^2 states |alpha,beta>(n) = e^{-i pi alpha beta/d} e^{2 pi i beta n/d}
    G(n - alpha) displaced from the fiducial G, which is all that is stored;
    states are computed on demand, with labels wrapped mod d."""

    dim: GridDim
    family: Family
    fiducial: GridFunction

    def _states(self, alpha, beta) -> np.ndarray:
        """|alpha,beta> for broadcast label arrays, as an array [..., n + j]."""
        j, d, n = self.dim.j, self.dim.d, self.dim.indices()
        a, b = ((np.asarray(x)[..., None] + j) % d - j for x in (alpha, beta))
        states = _phase(d, -a * b) * self.fiducial.values[(n - a + j) % d]
        states *= _phase(d, 2 * b * n)
        return states

    def state(self, alpha: int, beta: int) -> GridFunction:
        return _adopt(GridFunction, self.dim, self._states(alpha, beta))

    def state_matrix(self) -> np.ndarray:
        """All states as the rows of a new (d^2, d) array, label-major."""
        n = self.dim.indices()
        return self._states(n[:, None], n).reshape(-1, self.dim.d)


@lru_cache(maxsize=_FAMILY_CACHE_SIZE)
def coherent_family(dim: GridDim, family: Family) -> CoherentFamily:
    """The coherent family displaced from the family's normalized Gaussian."""
    return _adopt(CoherentFamily, dim, family, normalized_gaussian(dim, family))


def _cyclic_diagonals(family: CoherentFamily):
    """Per offset k = n - m mod d: e^{2 pi i beta k/d} as [beta + j], the
    columns (n - k) mod d, and [alpha + j, n + j] = G(n - alpha) G*(n - k - alpha)."""
    dim, i = family.dim, np.arange(family.dim.d)
    G = family.fiducial.values[(i - i[:, None] + dim.j) % dim.d]  # [alpha + j, n + j] = G(n - alpha)
    for k in range(dim.d):
        cols = (i - k) % dim.d
        yield _phase(dim.d, 2 * k * dim.indices()), cols, G * G[:, cols].conj()


def quantize(family: CoherentFamily, f: Callable[[int, int], complex]) -> LinearOperator:
    """A_f = (1/d) sum_{alpha,beta} f(alpha,beta) |alpha,beta><alpha,beta|.

    ``f`` is called with Python int labels alpha, beta in -j..j, and A_f is
    Hermitian whenever f is real-valued.  Summed over beta first, A_f[n, m] =
    (1/d) sum_alpha G(n-alpha) G*(m-alpha) fhat(alpha, n-m) with fhat(alpha, k)
    = sum_beta f(alpha, beta) e^{2 pi i beta k/d}, one cyclic diagonal at a time.
    """
    j, d = family.dim.j, family.dim.d
    labels = range(-j, j + 1)
    w = np.array([[complex(f(a, b)) for b in labels] for a in labels]) / d
    A = np.empty((d, d), dtype=complex)
    for phases, cols, P in _cyclic_diagonals(family):
        A[np.arange(d), cols] = (w @ phases) @ P
    return _adopt(LinearOperator, family.dim, A)


def dequantize(family: CoherentFamily, M: LinearOperator) -> np.ndarray:
    """The symbol f_M(alpha, beta) = <alpha,beta| M |alpha,beta>, as a d x d array.

    Indexed [alpha + j, beta + j]; real (up to roundoff) for Hermitian M.  As
    in ``quantize``, summed over k of e^{-2 pi i beta k/d} sum_n G*(n-alpha) G(n-k-alpha) M[n, n-k].
    """
    _same_dim(M, family)
    f = 0
    for phases, cols, P in _cyclic_diagonals(family):
        f = f + np.outer(P.conj() @ M.matrix[np.arange(family.dim.d), cols], phases.conj())
    return f


def _frame_sums(rows: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_i w_i |u_i><u_i| and the norms ||u_i|| over the rows u_i, one block
    of d rows at a time, so a d^2-element system forms no d^2 x d temporary."""
    d = rows.shape[1]
    total = np.zeros((d, d), dtype=complex)
    norms = np.empty(len(rows))
    for start in range(0, len(rows), d):
        block = rows[start : start + d]
        norms[start : start + d] = np.linalg.norm(block, axis=1)
        total += (block.T * weights[start : start + d]) @ block.conj()
    return total, norms


@dataclass(frozen=True, eq=False, init=False)
class FiniteFrame:
    """Unit vectors u_i (the rows of ``rows``; ``vectors`` are read-only
    GridFunction views of them) with weights kappa_i resolving the identity.

    The constructor takes GridFunctions or an (N, d) array and validates the
    resolution sum kappa_i |u_i><u_i| = identity and sum kappa_i = d.
    """

    dim: GridDim
    rows: np.ndarray
    weights: np.ndarray

    def __init__(self, dim, vectors, weights):
        rows = _readonly_copy(_stack(vectors, 0), complex, (len(vectors), dim.d))
        w = np.array(weights, dtype=float)
        if len(w) != len(rows):
            raise ValueError("one weight per vector required")
        if np.any(w <= 0):
            raise ValueError("frame weights must be positive")
        resolution, norms = _frame_sums(rows, w)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("frame vectors must have unit norm")
        _check_resolution(resolution, w)
        _assign(self, (dim, rows, w))

    @property
    def vectors(self) -> tuple[GridFunction, ...]:
        return _views(self.dim, self.rows)


def _check_resolution(resolution: np.ndarray, weights: np.ndarray) -> None:
    """Refuse unless sum_i kappa_i |u_i><u_i| = ``resolution`` is the identity
    and the weights kappa_i sum to d."""
    d = len(resolution)
    if np.max(np.abs(resolution - np.eye(d))) > 1e-10:
        raise ValueError("weighted vectors do not resolve the identity")
    if abs(weights.sum() - d) > 1e-10:
        raise ValueError(f"weights sum to {weights.sum():.12g}, expected d = {d}")


@dataclass(frozen=True)
class FrameDiagnostics:
    """Extreme eigenvalues of the frame operator S = sum |w_i><w_i|."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    frame: FiniteFrame | None


def frame_analyze(
    vectors,
    tol: float = 1e-10,
    config: JacobiConfig = DEFAULT_JACOBI,
) -> FrameDiagnostics:
    """Classify a vector system by the spectrum of its frame operator.

    ``vectors`` is an (N, d) array with one vector per row, or a sequence of
    GridFunctions.  The system is a frame iff the lower bound is positive,
    and tight iff the eigenvalue spread is at most ``tol``.  When tight with common bound 1 the
    normalized FiniteFrame (kappa_i = ||w_i||^2) is attached; a tight frame
    with a different bound gets ``frame=None`` since its weight decomposition
    resolves a multiple of the identity instead.
    """
    W = np.asarray(_stack(vectors, 0), dtype=complex)
    if W.ndim != 2 or not W.size:
        raise ValueError(f"expected a non-empty (N, d) vector system, got shape {W.shape}")
    dim = GridDim.from_size(W.shape[1])
    S, norms = _frame_sums(W, np.ones(len(W)))
    if np.any(norms == 0.0):
        raise ValueError("frame vectors must be non-null")
    eigs = hermitian_eigenvalues(_adopt(LinearOperator, dim, S), config)
    lower = float(eigs[0])
    upper = float(eigs[-1])
    is_frame = lower > tol * upper
    is_tight = (upper - lower) <= tol
    frame = None
    if is_tight and abs(upper - 1.0) <= tol:
        # kappa_i |u_i><u_i| = |w_i><w_i|, so S is the unit rows' resolution
        weights = norms * norms
        _check_resolution(S, weights)
        frame = _adopt(FiniteFrame, dim, W / norms[:, None], weights)
    return FrameDiagnostics(lower, upper, is_frame, is_tight, frame)

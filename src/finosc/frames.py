"""Shift/modulation unitaries, finite displacement operators, coherent-state
tight frames and the quantization/dequantization maps.

The d^2 displaced copies |alpha,beta> of a normalized Gaussian G resolve the
identity with uniform weight 1/d, which turns phase-space functions
f(alpha, beta) into operators A_f = (1/d) sum f |alpha,beta><alpha,beta| and
back.  No d^3 array is held: the operators are monomial (one nonzero per
row) and a family stores only G.  Both maps sum over beta first, which
leaves one cyclic convolution in alpha per diagonal of A_f, all done by one
FFT pair in d x d arrays.  The frame operator of an (N, d) vector system is
read off one real rank-k product of its rows.  ``frame_analyze`` reads that
of a CoherentFamily off Walnut's representation instead: the sum over beta
leaves S = diag(s), s_n = sum_alpha |G(n - alpha)|^2, in O(d^2) work and
memory, and no row of the family is built.
"""

from __future__ import annotations

import itertools
import math
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


def _diagonal_products(family: CoherentFamily) -> np.ndarray:
    """[u, k] = P_k(u) = G(u) G*(u - k) for residues u, k = 0..d-1 (labels mod d)."""
    j, d, r = family.dim.j, family.dim.d, np.arange(family.dim.d)
    g = family.fiducial.values[(r + j) % d]  # [u] = G(u)
    return g[:, None] * g[(r[:, None] - r) % d].conj()


def _beta_phases(dim: GridDim) -> np.ndarray:
    """[beta + j, k] = e^{2 pi i beta k/d} for offsets k = 0..d-1."""
    return _phase(dim.d, 2 * np.outer(dim.indices(), np.arange(dim.d)))


def _diagonal_columns(dim: GridDim) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices [n + j, k] of the entries A[n, n - k]."""
    i = np.arange(dim.d)[:, None]
    return i, (i - np.arange(dim.d)) % dim.d


def quantize(family: CoherentFamily, f: Callable[[int, int], complex]) -> LinearOperator:
    """A_f = (1/d) sum_{alpha,beta} f(alpha,beta) |alpha,beta><alpha,beta|.

    ``f`` is called with Python int labels alpha, beta in -j..j, and A_f is
    Hermitian whenever f is real-valued.  Summed over beta first,
    A[n, n-k] = (1/d) sum_alpha P_k(n-alpha) fhat(alpha, k) with
    P_k(u) = G(u) G*(u-k) and fhat(alpha, k) = sum_beta f(alpha, beta)
    e^{2 pi i beta k/d}: a cyclic convolution in alpha for each offset k, so
    one FFT pair along the first axis of two d x d arrays gives every diagonal.
    """
    dim = family.dim
    labels = range(-dim.j, dim.j + 1)
    values = map(complex, itertools.starmap(f, itertools.product(labels, repeat=2)))
    w = np.fromiter(values, complex, dim.d**2).reshape(dim.d, dim.d) / dim.d
    fft = np.fft  # loaded on first use, so commands that never quantize skip it
    P, fhat = fft.fft(_diagonal_products(family), axis=0), fft.fft(w @ _beta_phases(dim), axis=0)
    A = np.empty((dim.d, dim.d), dtype=complex)
    A[_diagonal_columns(dim)] = fft.ifft(P * fhat, axis=0)
    return _adopt(LinearOperator, dim, A)


def dequantize(family: CoherentFamily, M: LinearOperator) -> np.ndarray:
    """The symbol f_M(alpha, beta) = <alpha,beta| M |alpha,beta>, as a d x d array.

    Indexed [alpha + j, beta + j]; real (up to roundoff) for Hermitian M.  The
    adjoint of ``quantize``: sum over k of e^{-2 pi i beta k/d} times the cyclic
    correlation sum_n P_k*(n-alpha) M[n, n-k], one FFT pair for every k.
    """
    _same_dim(M, family)
    fft = np.fft
    P = fft.fft(_diagonal_products(family), axis=0)
    m = fft.fft(M.matrix[_diagonal_columns(family.dim)], axis=0)
    return fft.ifft(P.conj() * m, axis=0) @ _beta_phases(family.dim).conj().T


def _gram(rows: np.ndarray) -> np.ndarray:
    """Z^T Z for the rows as a real (N, 2d) array Z sharing their memory: real
    and imaginary parts interleaved, one rank-k update (BLAS syrk)."""
    Z = rows.view(float)
    return Z.T @ Z


def _frame_sums(rows: np.ndarray, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """sum_i w_i |u_i><u_i| (every w_i = 1 when ``weights`` is None) and the
    norms ||u_i|| over the rows u_i of a C-ordered complex array.

    The frame operator is read off the real Gram matrix G of the rows:
    re S = G[::2, ::2] + G[1::2, 1::2] and im S = G[1::2, ::2] - G[::2, 1::2],
    half the flops of the complex product, and exactly Hermitian since G is
    exactly symmetric.  Norms and weighted rows go one block of d rows at a
    time (weights as sqrt(w_i) on each row), so a d^2-element system forms no
    d^2 x d temporary.
    """
    d = rows.shape[1]
    blocks = range(0, len(rows), d)
    norms = np.concatenate([np.linalg.norm(rows[s : s + d], axis=1) for s in blocks])
    if weights is None:
        G = _gram(rows)
    else:
        G = sum(_gram(rows[s : s + d] * np.sqrt(weights[s : s + d, None])) for s in blocks)
    total = np.empty((d, d), dtype=complex)
    total.real = G[::2, ::2] + G[1::2, 1::2]
    total.imag = G[1::2, ::2] - G[::2, 1::2]
    return total, norms


def _vector_system(vectors) -> np.ndarray:
    """GridFunctions or an (N, d) array as a C-ordered complex (N, d) array,
    N, d >= 1; a caller's array may come back as is, so it is never written."""
    W = np.ascontiguousarray(_stack(vectors, 0), dtype=complex)
    if W.ndim != 2 or not W.size:
        raise ValueError(f"expected a non-empty (N, d) vector system, got shape {W.shape}")
    return W


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
        W = _vector_system(vectors)
        rows = _readonly_copy(W, complex, (len(W), dim.d))
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


def _walnut_diagonal(family: CoherentFamily) -> np.ndarray:
    """s_n = sum_alpha |G(n - alpha)|^2, indexed [n + j]: the frame operator
    (1/d) sum_{alpha,beta} |alpha,beta><alpha,beta| of the scaled family is
    diag(s), because the sum over beta of e^{2 pi i beta (m - n)/d} cancels
    every entry off the diagonal (Walnut's representation)."""
    j, d, n = family.dim.j, family.dim.d, family.dim.indices()
    return (np.abs(family.fiducial.values) ** 2)[(n[:, None] - n + j) % d].sum(axis=1)


@dataclass(frozen=True)
class FrameDiagnostics:
    """Extreme eigenvalues of the frame operator S = sum |w_i><w_i|.  For a
    Parseval system (tight with bound 1) ``weight_sum`` is sum kappa_i = tr S
    and, unless it is a CoherentFamily, ``frame`` its normalized FiniteFrame;
    otherwise they are NaN and None."""

    lower: float
    upper: float
    is_frame: bool
    is_tight: bool
    frame: FiniteFrame | None
    weight_sum: float


def frame_analyze(
    vectors,
    tol: float = 1e-10,
    config: JacobiConfig = DEFAULT_JACOBI,
) -> FrameDiagnostics:
    """Classify a vector system by the spectrum of its frame operator.

    ``vectors`` is an (N, d) array with one vector per row, a sequence of
    GridFunctions, or a CoherentFamily, which stands for its d^2 states
    scaled by 1/sqrt(d) (weights 1/d, bound 1).  The system is a frame iff
    the lower bound is positive, and tight iff the eigenvalue spread is at
    most ``tol``.  When tight with common bound 1, S is checked against the
    identity and kappa_i = ||w_i||^2 are summed; an array or a sequence also
    gets its FiniteFrame, on new unit rows.  A family's S is the diagonal
    ``_walnut_diagonal``, read without its rows or an eigensolve.
    """
    if isinstance(vectors, CoherentFamily):
        dim, s = vectors.dim, _walnut_diagonal(vectors)
        # S = diag(s) has the eigenvalues s, and sum kappa_i = tr S = sum s
        S, eigs, weights = np.diag(s), s, s
    else:
        W = _vector_system(vectors)
        dim = GridDim.from_size(W.shape[1])
        S, norms = _frame_sums(W, None)
        if np.any(norms == 0.0):
            raise ValueError("frame vectors must be non-null")
        eigs = hermitian_eigenvalues(_adopt(LinearOperator, dim, S), config)
        # kappa_i |u_i><u_i| = |w_i><w_i|, so S is the unit rows' resolution
        weights = norms * norms
    lower = float(eigs.min())
    upper = float(eigs.max())
    is_frame = lower > tol * upper
    is_tight = (upper - lower) <= tol
    frame, weight_sum = None, math.nan
    if is_tight and abs(upper - 1.0) <= tol:
        _check_resolution(S, weights)
        weight_sum = float(weights.sum())
        if not isinstance(vectors, CoherentFamily):
            # the values of W / norms, by the reciprocal instead of a complex division
            frame = _adopt(FiniteFrame, dim, W * (1.0 / norms)[:, None], weights)
    return FrameDiagnostics(lower, upper, is_frame, is_tight, frame, weight_sum)

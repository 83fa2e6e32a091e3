"""Shift/modulation unitaries, finite displacement operators, coherent-state
tight frames and the quantization/dequantization maps.

The d^2 displaced copies of a normalized Gaussian resolve the identity with
uniform weight 1/d, which turns phase-space functions f(alpha, beta) into
operators A_f = (1/d) sum f |alpha,beta><alpha,beta| and back.
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
    JacobiConfig,
    DEFAULT_JACOBI,
    LinearOperator,
    eigendecompose_hermitian,
)
from .grid import _adopt, _assign, _readonly_copy, _stack, _views

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


def schwinger(dim: GridDim, which: str, power: int = 1) -> LinearOperator:
    """Power of the cyclic shift A ((A psi)(n) = psi(n-1)) or modulation B.

    A^d = B^d = identity; A and B commute up to the phase e^{-2 pi i ab/d}.
    """
    d = dim.d
    power = int(power)
    if which == "A":
        m = np.zeros((d, d), dtype=complex)
        i = np.arange(d)
        m[i, (i - power) % d] = 1.0
        return _adopt(LinearOperator, dim, m)
    if which == "B":
        return LinearOperator.diagonal(dim, np.exp(2j * np.pi * dim.indices() * power / d))
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


def displacement(dim: GridDim, alpha: int, beta: int) -> LinearOperator:
    """The unitary D(alpha, beta) = e^{i pi alpha beta / d} A^alpha B^beta.

    Accepts arbitrary integer labels; the symmetric phase makes the
    composition law D(a1,b1) D(a2,b2) = e^{-i pi (a1 b2 - a2 b1)/d}
    D(a1+a2, b1+b2) hold for unreduced label arithmetic.  Note
    D(alpha + d, beta) = (-1)^beta D(alpha, beta), so reducing a label mod d
    can flip the overall sign.
    """
    phase = np.exp(1j * np.pi * alpha * beta / dim.d)
    return phase * (schwinger(dim, "A", alpha) @ schwinger(dim, "B", beta))


@dataclass(frozen=True, eq=False)
class CoherentFamily:
    """The d^2 displaced copies of a fiducial normalized Gaussian.

    States are stored at labels (alpha, beta) on the symmetric range; lookups
    wrap arbitrary integers mod d.
    """

    dim: GridDim
    family: Family
    fiducial: GridFunction
    states: np.ndarray  # [alpha + j, beta + j, n + j]

    def __post_init__(self):
        d = self.dim.d
        object.__setattr__(self, "states", _readonly_copy(self.states, complex, (d, d, d)))

    def state(self, alpha: int, beta: int) -> GridFunction:
        """|alpha,beta> as a read-only view of the stored states."""
        j, d = self.dim.j, self.dim.d
        return _adopt(GridFunction, self.dim, self.states[(alpha + j) % d, (beta + j) % d])

    def state_matrix(self) -> np.ndarray:
        """States flattened to rows of a (d^2, d) array, label-major."""
        d = self.dim.d
        return self.states.reshape(d * d, d)


@lru_cache(maxsize=None)
def coherent_family(dim: GridDim, family: Family) -> CoherentFamily:
    """Build |alpha,beta> = D(alpha,beta)|G_family> for all labels.

    Expanded directly: e^{-i pi alpha beta/d} e^{2 pi i beta n/d} G(n - alpha).
    """
    j, d = dim.j, dim.d
    fid = normalized_gaussian(dim, family)
    n = dim.indices()
    i = np.arange(d)
    shifted = fid.values[(i[None, :] - i[:, None] + j) % d]  # [alpha + j, n + j] = G(n - alpha)
    mod = np.exp(2j * np.pi * np.outer(n, n) / d)  # [beta + j, n + j]
    pre = np.exp(-1j * np.pi * np.outer(n, n) / d)  # [alpha + j, beta + j]
    states = pre[:, :, None] * shifted[:, None, :] * mod[None, :, :]
    return _adopt(CoherentFamily, dim, family, fid, states)


def quantize(family: CoherentFamily, f: Callable[[int, int], complex]) -> LinearOperator:
    """A_f = (1/d) sum_{alpha,beta} f(alpha,beta) |alpha,beta><alpha,beta|.

    Hermitian whenever f is real-valued.
    """
    dim = family.dim
    n = dim.indices()
    w = np.array([[complex(f(a, b)) for b in n] for a in n]).reshape(-1)
    S = family.state_matrix()
    A = (S.T * w) @ S.conj() / dim.d
    return _adopt(LinearOperator, dim, A)


def dequantize(family: CoherentFamily, M: LinearOperator) -> np.ndarray:
    """The symbol f_M(alpha, beta) = <alpha,beta| M |alpha,beta>, as a d x d array.

    Indexed [alpha + j, beta + j]; real (up to roundoff) for Hermitian M.
    """
    if M.dim != family.dim:
        raise ValueError(f"dimension mismatch: {M.dim} vs {family.dim}")
    S = family.state_matrix()
    vals = np.einsum("in,nm,im->i", S.conj(), M.matrix, S)
    d = family.dim.d
    return vals.reshape(d, d)


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
        _assign(self, (dim, rows, np.array(weights, dtype=float)))._validate()

    @property
    def vectors(self) -> tuple[GridFunction, ...]:
        return _views(self.dim, self.rows)

    def _validate(self) -> "FiniteFrame":
        U, w, d = self.rows, self.weights, self.dim.d
        if len(w) != len(U):
            raise ValueError("one weight per vector required")
        if np.any(w <= 0):
            raise ValueError("frame weights must be positive")
        resolution, norms = _frame_sums(U, w)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("frame vectors must have unit norm")
        if np.max(np.abs(resolution - np.eye(d))) > 1e-10:
            raise ValueError("weighted vectors do not resolve the identity")
        if abs(w.sum() - d) > 1e-10:
            raise ValueError(f"weights sum to {w.sum():.12g}, expected d = {d}")
        return self


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
    dec = eigendecompose_hermitian(_adopt(LinearOperator, dim, S), config)
    lower = float(dec.eigenvalues[0])
    upper = float(dec.eigenvalues[-1])
    is_frame = lower > tol * upper
    is_tight = (upper - lower) <= tol
    frame = None
    if is_tight and abs(upper - 1.0) <= tol:
        frame = _adopt(FiniteFrame, dim, W / norms[:, None], norms * norms)._validate()
    return FrameDiagnostics(lower, upper, is_frame, is_tight, frame)

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
        return LinearOperator(dim, m)
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
        s = np.asarray(self.states, dtype=complex)
        d = self.dim.d
        if s.shape != (d, d, d):
            raise ValueError(f"expected states of shape {(d, d, d)}, got {s.shape}")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    def state(self, alpha: int, beta: int) -> GridFunction:
        j, d = self.dim.j, self.dim.d
        return GridFunction(self.dim, self.states[(alpha + j) % d, (beta + j) % d])

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
    return CoherentFamily(dim, family, fid, states)


def quantize(family: CoherentFamily, f: Callable[[int, int], complex]) -> LinearOperator:
    """A_f = (1/d) sum_{alpha,beta} f(alpha,beta) |alpha,beta><alpha,beta|.

    Hermitian whenever f is real-valued.
    """
    dim = family.dim
    n = dim.indices()
    w = np.array([[complex(f(a, b)) for b in n] for a in n]).reshape(-1)
    S = family.state_matrix()
    A = (S.T * w) @ S.conj() / dim.d
    return LinearOperator(dim, A)


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


def _row_blocks(vectors, block: int):
    """Yield (start, rows) with the values of ``block`` consecutive vectors
    stacked as rows, so the frame sums run as d x d matrix products without
    holding all vectors of a d^2-element system in one array."""
    for start in range(0, len(vectors), block):
        yield start, np.array([v.values for v in vectors[start : start + block]])


@dataclass(frozen=True, eq=False)
class FiniteFrame:
    """Unit vectors u_i with weights kappa_i resolving the identity.

    Construction validates the resolution sum kappa_i |u_i><u_i| = identity
    and the trace identity sum kappa_i = d.
    """

    dim: GridDim
    vectors: tuple[GridFunction, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if len(w) != len(self.vectors):
            raise ValueError("one weight per vector required")
        if np.any(w <= 0):
            raise ValueError("frame weights must be positive")
        d = self.dim.d
        resolution = np.zeros((d, d), dtype=complex)
        for start, U in _row_blocks(self.vectors, d):
            if np.any(np.abs(np.linalg.norm(U, axis=1) - 1.0) > 1e-12):
                raise ValueError("frame vectors must have unit norm")
            resolution += (U.T * w[start : start + len(U)]) @ U.conj()
        if np.max(np.abs(resolution - np.eye(d))) > 1e-10:
            raise ValueError("weighted vectors do not resolve the identity")
        if abs(w.sum() - d) > 1e-10:
            raise ValueError(f"weights sum to {w.sum():.12g}, expected d = {d}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


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

    The system is a frame iff the lower bound is positive, and tight iff the
    eigenvalue spread is at most ``tol``.  When tight with common bound 1 the
    normalized FiniteFrame (kappa_i = ||w_i||^2) is attached; a tight frame
    with a different bound gets ``frame=None`` since its weight decomposition
    resolves a multiple of the identity instead.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("empty vector system")
    dim = vectors[0].dim
    d = dim.d
    norms = np.empty(len(vectors))
    S = np.zeros((d, d), dtype=complex)
    for start, W in _row_blocks(vectors, d):
        norms[start : start + len(W)] = np.linalg.norm(W, axis=1)
        S += W.T @ W.conj()
    if np.any(norms == 0.0):
        raise ValueError("frame vectors must be non-null")
    dec = eigendecompose_hermitian(LinearOperator(dim, S), config)
    lower = float(dec.eigenvalues[0])
    upper = float(dec.eigenvalues[-1])
    is_frame = lower > tol * upper
    is_tight = (upper - lower) <= tol
    frame = None
    if is_tight and abs(upper - 1.0) <= tol:
        units = []
        for start, W in _row_blocks(vectors, d):
            units.extend(GridFunction(dim, u) for u in W / norms[start : start + len(W), None])
        frame = FiniteFrame(dim, tuple(units), norms * norms)
    return FrameDiagnostics(lower, upper, is_frame, is_tight, frame)

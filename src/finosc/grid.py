"""Index grid, inner-product space, discrete Fourier transform and a dense
Hermitian eigensolver.

The state space is the set of complex functions on the symmetric integer grid
{-j, ..., j} of odd size d = 2j+1, with periodic (mod d) index extension.
Everything downstream (Gaussians, Wigner maps, frames, oscillators) is built
on the types and operations defined here.

Values hold read-only arrays; an eigenbasis, ladder or frame holds one array
of vectors, whose per-vector GridFunctions are read-only views of it.  Public
constructors copy their input, results the library computes are taken over
without a copy (``_adopt``), and every operation is a pure function, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numbers

import numpy as np

__all__ = [
    "GridDim",
    "GridFunction",
    "LinearOperator",
    "SpectralDecomposition",
    "JacobiConfig",
    "ConvergenceError",
    "InputError",
    "inner_product",
    "fourier_operator",
    "fourier_transform",
    "inverse_fourier_transform",
    "parity_operator",
    "convolve",
    "outer",
    "canonical_phase",
    "eigendecompose_hermitian",
    "hermitian_eigenvalues",
    "operator_exponential",
]

_FOURIER_CACHE_SIZE = 16  # Fourier operators kept, one per dimension


class InputError(ValueError):
    """An argument outside the domain the function accepts; the CLI exits 2 on it."""


def _check_tolerance(tol: float) -> None:
    if not tol > 0:
        raise InputError(f"tolerance must be positive, got {tol}")


@dataclass(frozen=True, order=True)
class GridDim:
    """Grid size descriptor: half-width j >= 1, giving d = 2j+1 points."""

    j: int

    def __post_init__(self):
        if not isinstance(self.j, (int, np.integer)) or self.j < 1:
            raise ValueError(f"j must be a positive integer, got {self.j!r}")
        object.__setattr__(self, "j", int(self.j))

    @classmethod
    def from_size(cls, d: int) -> "GridDim":
        if d < 3 or d % 2 == 0:
            raise InputError(f"dimension must be odd and >= 3, got {d}")
        return cls((d - 1) // 2)

    @property
    def d(self) -> int:
        return 2 * self.j + 1

    def indices(self) -> np.ndarray:
        """The index set -j, ..., j in ascending order."""
        return np.arange(-self.j, self.j + 1)

    def wrap(self, n: int) -> int:
        """Reduce an arbitrary integer index to the symmetric range mod d."""
        return (int(n) + self.j) % self.d - self.j

    def __str__(self):
        return f"d={self.d}"


def _readonly_copy(values, dtype, shape: tuple) -> np.ndarray:
    """A read-only C-ordered copy of ``values`` as ``dtype``, of this shape."""
    a = np.array(values, dtype=dtype, order="C")
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


def _assign(obj, fields):
    """Set the dataclass fields of ``obj`` in order; arrays become read-only."""
    for name, value in zip(type(obj).__dataclass_fields__, fields):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _adopt(cls, *fields):
    """A ``cls`` holding ``fields`` as they are, without copy or validation:
    only for arrays the library has just computed, or read-only views."""
    return _assign(object.__new__(cls), fields)


def _stack(vectors, axis: int) -> np.ndarray:
    """``vectors`` as an array: GridFunctions become rows (``axis`` 0) or columns
    (1), and an empty sequence an empty (0, 0) array."""
    if isinstance(vectors, np.ndarray):
        return vectors
    values = [v.values for v in vectors]
    return np.stack(values, axis) if values else np.empty((0, 0))


def _views(dim: GridDim, rows: np.ndarray) -> tuple[GridFunction, ...]:
    """The rows of a read-only array as GridFunctions sharing its memory."""
    return tuple(_adopt(GridFunction, dim, row) for row in rows)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A complex-valued function on the grid; the state vector.

    Values are stored in index order n = -j, ..., j.  Item access wraps the
    index mod d (periodic extension).
    """

    dim: GridDim
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly_copy(self.values, complex, (self.dim.d,)))

    @classmethod
    def delta(cls, dim: GridDim, k: int) -> "GridFunction":
        v = np.zeros(dim.d, dtype=complex)
        v[(k + dim.j) % dim.d] = 1.0
        return _adopt(cls, dim, v)

    @classmethod
    def zero(cls, dim: GridDim) -> "GridFunction":
        return _adopt(cls, dim, np.zeros(dim.d, dtype=complex))

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[(int(n) + self.dim.j) % self.dim.d])

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def reflected(self) -> "GridFunction":
        """The parity image n -> value(-n)."""
        return _adopt(GridFunction, self.dim, self.values[::-1])

    def is_even(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values - self.values[::-1])) <= tol)

    def conjugated(self) -> "GridFunction":
        return _adopt(GridFunction, self.dim, np.conj(self.values))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _same_dim(self, other)
        return _adopt(GridFunction, self.dim, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _same_dim(self, other)
        return _adopt(GridFunction, self.dim, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _adopt(GridFunction, self.dim, self.values * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "GridFunction":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _adopt(GridFunction, self.dim, self.values / scalar)

    def __neg__(self) -> "GridFunction":
        return _adopt(GridFunction, self.dim, -self.values)


def _same_dim(a, b):
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A d x d complex matrix in the canonical basis, rows/cols ordered -j..j."""

    dim: GridDim
    matrix: np.ndarray

    def __post_init__(self):
        d = self.dim.d
        object.__setattr__(self, "matrix", _readonly_copy(self.matrix, complex, (d, d)))

    @classmethod
    def identity(cls, dim: GridDim) -> "LinearOperator":
        return _adopt(cls, dim, np.eye(dim.d, dtype=complex))

    @classmethod
    def diagonal(cls, dim: GridDim, entries) -> "LinearOperator":
        return _adopt(cls, dim, np.diag(_readonly_copy(entries, complex, (dim.d,))))

    def entry(self, n: int, m: int) -> complex:
        """Matrix element <j;n| M |j;m>, indices wrapped mod d."""
        j, d = self.dim.j, self.dim.d
        return complex(self.matrix[(n + j) % d, (m + j) % d])

    def apply(self, psi: GridFunction) -> GridFunction:
        _same_dim(self, psi)
        return _adopt(GridFunction, self.dim, self.matrix @ psi.values)

    __call__ = apply

    def adjoint(self) -> "LinearOperator":
        return _adopt(LinearOperator, self.dim, np.conjugate(self.matrix.T, order="C"))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def __matmul__(self, other):
        if isinstance(other, LinearOperator):
            _same_dim(self, other)
            return _adopt(LinearOperator, self.dim, self.matrix @ other.matrix)
        if isinstance(other, GridFunction):
            return self.apply(other)
        return NotImplemented

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        _same_dim(self, other)
        return _adopt(LinearOperator, self.dim, self.matrix + other.matrix)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        _same_dim(self, other)
        return _adopt(LinearOperator, self.dim, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "LinearOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return _adopt(LinearOperator, self.dim, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearOperator":
        return _adopt(LinearOperator, self.dim, -self.matrix)


def outer(phi: GridFunction, psi: GridFunction) -> LinearOperator:
    """The rank-one operator |phi><psi|."""
    _same_dim(phi, psi)
    return _adopt(LinearOperator, phi.dim, np.outer(phi.values, psi.values.conj()))


def inner_product(phi: GridFunction, psi: GridFunction) -> complex:
    """<phi, psi> = sum_n conj(phi(n)) psi(n); conjugate-linear in phi."""
    _same_dim(phi, psi)
    return complex(np.vdot(phi.values, psi.values))


def _phase(d: int, m):
    """e^{i pi m/d} for integers m (an array or any Python int), gathered from
    the 2d roots at m mod 2d, so its rounding does not grow with |m|.  Each
    root is evaluated at its exponent in (-d, d], so e^{-i pi m/d} is exactly
    the conjugate of e^{i pi m/d} for every m other than d mod 2d."""
    r = np.arange(2 * d)
    r[d + 1 :] -= 2 * d
    return np.exp(1j * np.pi * r / d)[m % (2 * d)]


@lru_cache(maxsize=_FOURIER_CACHE_SIZE)
def fourier_operator(dim: GridDim) -> LinearOperator:
    """The unitary discrete Fourier transform F[psi](k) = d^{-1/2} sum_n e^{-2pi i kn/d} psi(n)."""
    n = dim.indices()
    return _adopt(LinearOperator, dim, _phase(dim.d, -2 * np.outer(n, n)) / np.sqrt(dim.d))


def fourier_transform(psi: GridFunction) -> GridFunction:
    return fourier_operator(psi.dim).apply(psi)


def inverse_fourier_transform(psi: GridFunction) -> GridFunction:
    return fourier_operator(psi.dim).adjoint().apply(psi)


def parity_operator(dim: GridDim) -> LinearOperator:
    """The reflection n -> -n; equals F squared."""
    m = np.zeros((dim.d, dim.d), dtype=complex)
    i = np.arange(dim.d)
    m[i[::-1], i] = 1.0
    return _adopt(LinearOperator, dim, m)


def convolve(phi: GridFunction, psi: GridFunction) -> GridFunction:
    """Cyclic convolution (phi * psi)(n) = sum_m phi(m) psi(n - m), indices mod d."""
    _same_dim(phi, psi)
    d, j = phi.dim.d, phi.dim.j
    i = np.arange(d)
    # shifted[i_n, i_m] = psi(n - m) in storage indices (value n <-> index n + j)
    shifted = psi.values[(i[:, None] - i[None, :] + j) % d]
    return _adopt(GridFunction, phi.dim, shifted @ phi.values)


# ---------------------------------------------------------------------------
# Hermitian eigensolver: LAPACK or cyclic Jacobi, one output convention
# ---------------------------------------------------------------------------

_EIGEN_METHODS = ("lapack", "jacobi")


@dataclass(frozen=True)
class JacobiConfig:
    """Settings for the Hermitian eigensolver.

    ``method`` selects how the eigenpairs are computed: ``"lapack"`` (the
    default, ``numpy.linalg.eigh``) or ``"jacobi"`` (the self-contained
    cyclic Jacobi loop).  ``off_tol`` and ``max_sweeps`` apply to Jacobi
    only: it converges when the off-diagonal Frobenius mass drops below
    ``off_tol`` times the Frobenius norm of the input.  ``hermiticity_tol``
    and ``degeneracy_gap`` apply to both methods.
    """

    off_tol: float = 1e-14
    max_sweeps: int = 100
    hermiticity_tol: float = 1e-10
    degeneracy_gap: float = 1e-10
    method: str = "lapack"

    def __post_init__(self):
        if self.method not in _EIGEN_METHODS:
            raise ValueError(f"method must be one of {_EIGEN_METHODS}, got {self.method!r}")


DEFAULT_JACOBI = JacobiConfig()


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge: the Jacobi sweep cap was reached
    before the off-diagonal mass vanished, or LAPACK reported failure."""


@dataclass(frozen=True, eq=False, init=False)
class SpectralDecomposition:
    """Ascending real eigenvalues with orthonormal eigenvectors.

    ``columns`` holds eigenvector k in column k; ``eigenvectors`` and
    ``vector(k)`` are read-only GridFunction views of it.  The constructor
    takes the eigenvectors as GridFunctions or as such a d x d array.
    ``residual`` is max_k ||A v_k - lambda_k v_k|| / ||A||_F for the operator
    A that was decomposed (NaN when not computed).
    """

    dim: GridDim
    eigenvalues: np.ndarray
    columns: np.ndarray
    residual: float = float("nan")

    def __init__(self, dim, eigenvalues, eigenvectors, residual=float("nan")):
        columns = _readonly_copy(_stack(eigenvectors, 1), complex, (dim.d, dim.d))
        _assign(self, (dim, np.array(eigenvalues, dtype=float), columns, float(residual)))

    @property
    def eigenvectors(self) -> tuple[GridFunction, ...]:
        return _views(self.dim, self.columns.T)

    def vector(self, k: int) -> GridFunction:
        return _adopt(GridFunction, self.dim, self.columns[:, k])

    def vector_matrix(self) -> np.ndarray:
        """The stored d x d array of eigenvector columns (read-only)."""
        return self.columns

    def reconstruct(self) -> LinearOperator:
        """sum_k lambda_k |v_k><v_k|."""
        V = self.columns
        return _adopt(LinearOperator, self.dim, (V * self.eigenvalues) @ V.conj().T)


def _off_mass(a: np.ndarray) -> float:
    # summed directly over the off-diagonal: subtracting the diagonal mass
    # from the total cancels catastrophically once convergence sets in
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def canonical_phase(v: np.ndarray, tie_tol: float = 1e-9) -> np.ndarray:
    """Multiply by the unit phase making the largest-magnitude entry real positive.

    ``v`` is one vector or a (d, k) array whose k columns are phased each on
    its own, in one pass.  Ties (entries within tie_tol relative of the
    maximum) break toward the lowest index, so vectors with symmetric entries
    get a stable sign even when roundoff perturbs which entry is formally
    largest.  A zero vector (column) is left as it is.
    """
    mags = np.abs(v)
    top = mags.max(axis=0)
    pivot = np.expand_dims(np.argmax(mags >= top * (1.0 - tie_tol), axis=0), 0)
    entry = np.where(top == 0.0, 1.0, np.take_along_axis(v, pivot, 0)[0])
    return v * (np.conj(entry) / np.abs(entry))


def _jacobi_eigenpairs(
    A: np.ndarray, norm: float, config: JacobiConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations in lexicographic (p, q) order, applied to ``A``
    in place.  Returns the unsorted diagonal and the accumulated rotations
    as columns."""
    d = A.shape[0]
    V = np.eye(d, dtype=complex)
    threshold = config.off_tol * norm
    skip = threshold / (2.0 * d)
    converged = False
    for _ in range(config.max_sweeps):
        if _off_mass(A) < threshold:
            converged = True
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                tau = (A[q, q].real - A[p, p].real) / (2.0 * r)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * np.conj(phase) * col_q
                A[:, q] = s * phase * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * phase * row_q
                A[q, :] = s * np.conj(phase) * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * np.conj(phase) * vq
                V[:, q] = s * phase * vp + c * vq
    else:
        converged = _off_mass(A) < threshold
    if not converged:
        raise ConvergenceError(
            f"Jacobi did not converge in {config.max_sweeps} sweeps "
            f"(off mass {_off_mass(A):.3e}, target {threshold:.3e})"
        )
    return np.diag(A).real, V


def _sorted_eigenpairs(M: LinearOperator, config: JacobiConfig):
    """Validate, symmetrize, solve and sort: the Hermitian working copy, its
    Frobenius norm and the eigenvalues in ascending (stable) order with their
    eigenvectors as columns.  The zero matrix gives norm 0 and the identity."""
    d = M.dim.d
    A = M.matrix
    if not np.all(np.isfinite(A)):
        raise ValueError("operator has non-finite entries")
    if np.max(np.abs(A - A.conj().T)) > config.hermiticity_tol:
        raise ValueError("operator is not Hermitian within tolerance")
    A = (A + A.conj().T) / 2.0  # exact Hermitian working copy

    norm = float(np.linalg.norm(A))
    if norm == 0.0:
        return A, norm, np.zeros(d), np.eye(d, dtype=complex)

    if config.method == "jacobi":
        vals, V = _jacobi_eigenpairs(A.copy(), norm, config)
    else:
        try:
            vals, V = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc

    order = np.argsort(vals, kind="stable")
    return A, norm, vals[order], V[:, order]


def hermitian_eigenvalues(M: LinearOperator, config: JacobiConfig = DEFAULT_JACOBI) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian operator, exactly those of
    ``eigendecompose_hermitian(M, config)``, with the same errors; the
    eigenvector convention and the residual are not computed."""
    return _sorted_eigenpairs(M, config)[2]


def eigendecompose_hermitian(
    M: LinearOperator, config: JacobiConfig = DEFAULT_JACOBI
) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator with a deterministic eigenvector convention.

    The eigenpairs come from LAPACK (``numpy.linalg.eigh``) by default, or
    from the cyclic Jacobi loop with ``config.method == "jacobi"``; a solver
    failure raises ``ConvergenceError``.  Both methods share the output
    convention: eigenvalues ascend (stable sort), eigenvectors within a
    degenerate cluster (gap below ``config.degeneracy_gap``) are
    re-orthonormalized by modified Gram-Schmidt in index order, and each
    eigenvector carries the phase that makes its largest-magnitude entry
    real and positive.  Non-finite or non-Hermitian input raises
    ``ValueError``.  ``hermitian_eigenvalues`` gives the eigenvalues alone.
    """
    dim = M.dim
    d = dim.d
    A, norm, vals, V = _sorted_eigenpairs(M, config)
    if norm == 0.0:
        return _adopt(SpectralDecomposition, dim, vals, V, 0.0)

    # re-orthonormalize degenerate clusters in index order
    start = 0
    for k in range(1, d + 1):
        if k == d or vals[k] - vals[k - 1] >= config.degeneracy_gap:
            if k - start > 1:
                for a in range(start, k):
                    v = V[:, a]
                    for b in range(start, a):
                        v = v - np.vdot(V[:, b], v) * V[:, b]
                    V[:, a] = v / np.linalg.norm(v)
            start = k

    V = np.ascontiguousarray(canonical_phase(V))
    residual = float(np.max(np.linalg.norm(A @ V - V * vals, axis=0))) / norm
    return _adopt(SpectralDecomposition, dim, vals, V, residual)


def operator_exponential(
    M: LinearOperator, scale: complex, config: JacobiConfig = DEFAULT_JACOBI
) -> LinearOperator:
    """exp(scale * M) for Hermitian M, via the spectral decomposition.

    Unitary whenever ``scale`` is purely imaginary.
    """
    dec = eigendecompose_hermitian(M, config)
    V = dec.columns
    return _adopt(LinearOperator, M.dim, (V * np.exp(scale * dec.eigenvalues)) @ V.conj().T)

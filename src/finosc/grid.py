"""Index grid, inner-product space, discrete Fourier transform, a dense
Hermitian eigensolver and the library's seeded random draws.

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
import cmath
import math
import numbers
import operator
import random

import numpy as np

__all__ = [
    "GridDim",
    "GridFunction",
    "LinearOperator",
    "SpectralDecomposition",
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
_ROOTS_CACHE_SIZE = 32  # tables of 2d roots of unity kept, one per dimension


class InputError(ValueError):
    """An argument outside the domain the function accepts; the CLI exits 2 on it."""


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol}")


def _check_integer(name: str, value) -> int:
    """``value`` as an int, once it is integral: a Python or numpy int, or a
    float such as 2.0.  A fractional part, NaN or an infinity raises
    ``InputError`` naming it, so no label is truncated; so does a value that
    is not a real number, such as the string "7", which is never parsed."""
    try:
        return operator.index(value)
    except TypeError:
        if not isinstance(value, numbers.Real):
            raise InputError(f"{name} must be an integer, got {type(value).__name__} {value!r}") from None
        if not float(value).is_integer():
            raise InputError(f"{name} must be an integer, got {value}") from None
        return int(value)


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
        d = _check_integer("dimension", d)
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
        return (_check_integer("index", n) + self.j) % self.d - self.j

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
        v[(_check_integer("k", k) + dim.j) % dim.d] = 1.0
        return _adopt(cls, dim, v)

    @classmethod
    def zero(cls, dim: GridDim) -> "GridFunction":
        return _adopt(cls, dim, np.zeros(dim.d, dtype=complex))

    def __getitem__(self, n: int) -> complex:
        return complex(self.values[(_check_integer("index", n) + self.dim.j) % self.dim.d])

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def reflected(self) -> "GridFunction":
        """The parity image n -> value(-n)."""
        return _adopt(GridFunction, self.dim, self.values[::-1])

    def is_even(self) -> bool:
        """True iff no value differs from its parity image by more than 1e-12."""
        return bool(np.max(np.abs(self.values - self.values[::-1])) <= 1e-12)

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
        return complex(self.matrix[(_check_integer("n", n) + j) % d, (_check_integer("m", m) + j) % d])

    def apply(self, psi: GridFunction) -> GridFunction:
        _same_dim(self, psi)
        return _adopt(GridFunction, self.dim, self.matrix @ psi.values)

    __call__ = apply

    def adjoint(self) -> "LinearOperator":
        return _adopt(LinearOperator, self.dim, np.conjugate(self.matrix.T, order="C"))

    def is_hermitian(self) -> bool:
        """True iff no entry of M - M^+ exceeds 1e-10, the eigensolver's bound."""
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= _HERMITICITY_TOL)

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


@lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _roots(d: int) -> np.ndarray:
    """The read-only 2d roots e^{i pi r/d}, indexed by r mod 2d.  Each root is
    evaluated at its exponent r in (-d, d], so e^{-i pi m/d} is exactly the
    conjugate of e^{i pi m/d} for every m other than d mod 2d."""
    r = np.arange(2 * d)
    r[d + 1 :] -= 2 * d
    roots = np.exp(1j * np.pi * r / d)
    roots.flags.writeable = False
    return roots


def _phase(d: int, m):
    """e^{i pi m/d} for integers m (an array or any Python int), gathered from
    the 2d roots at m mod 2d, so its rounding does not grow with |m|."""
    return _roots(d)[m % (2 * d)]


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


def _circulant(values: np.ndarray) -> np.ndarray:
    """The circulant [n + j, m + j] = c(n - m), n - m taken mod d, of the
    values c(-j), ..., c(j) in index order."""
    d = len(values)
    i = np.arange(d)
    return values[(i[:, None] - i + d // 2) % d]


def convolve(phi: GridFunction, psi: GridFunction) -> GridFunction:
    """Cyclic convolution (phi * psi)(n) = sum_m phi(m) psi(n - m), indices mod d."""
    _same_dim(phi, psi)
    return _adopt(GridFunction, phi.dim, _circulant(psi.values) @ phi.values)


class _SeededDraws:
    """Seeded random draws: the identity checks' probes and the CLI's random
    state.  They come from the standard library's Mersenne Twister
    (``random.Random(seed)``) as raw bytes, turned into arrays in numpy, so
    no draw imports ``numpy.random``, whose import costs a one-shot command
    more than its draws do.  A seed gives the same draws on every run and
    platform; a negative seed draws as its absolute value does."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def words(self, *shape: int) -> np.ndarray:
        """Independent uniform 64-bit unsigned integers."""
        raw = self._rng.randbytes(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<u8").reshape(shape)

    def uniforms(self, *shape: int) -> np.ndarray:
        """Independent uniforms on [0, 1): the top 53 bits of each word, so
        every value is a multiple of 2^-53."""
        return (self.words(*shape) >> np.uint64(11)) * 2.0**-53

    def complex_normals(self, *shape: int) -> np.ndarray:
        """Independent complex values whose real and imaginary parts are
        independent N(0, 1), by Box-Muller on pairs of uniforms (u, v):
        sqrt(-2 ln(1 - u)) e^{2 pi i v}, with 1 - u in (0, 1]."""
        u, v = self.uniforms(2, *shape)
        return np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * np.pi * v)


# ---------------------------------------------------------------------------
# Hermitian eigensolver: LAPACK eigh under one output convention
# ---------------------------------------------------------------------------


# the largest entry of M - M^+ that the solver accepts, and the eigenvalue gap
# below which neighbours form one cluster, re-orthonormalized in index order
_HERMITICITY_TOL = 1e-10
_DEGENERACY_GAP = 1e-10


class ConvergenceError(RuntimeError):
    """The eigensolver did not converge: LAPACK reported failure."""


@dataclass(frozen=True, eq=False, init=False)
class SpectralDecomposition:
    """Ascending real eigenvalues with orthonormal eigenvectors.

    ``columns`` holds eigenvector k in column k; ``eigenvectors`` and
    ``vector(k)`` are read-only GridFunction views of it.  The constructor
    takes the eigenvectors as GridFunctions or as such a d x d array.
    ``residual`` is max_k ||A v_k - lambda_k v_k|| / ||A||_F for the operator
    A that was decomposed (NaN when not given to the constructor); for a
    decomposition ``eigendecompose_hermitian`` made, it is computed on first
    read, a d^3 product that a caller who never reads it does not pay.
    """

    dim: GridDim
    eigenvalues: np.ndarray
    columns: np.ndarray
    # the residual, or the decomposed operator until the residual is first read
    _residual: float | LinearOperator = float("nan")

    def __init__(self, dim, eigenvalues, eigenvectors, residual=float("nan")):
        columns = _readonly_copy(_stack(eigenvectors, 1), complex, (dim.d, dim.d))
        _assign(self, (dim, np.array(eigenvalues, dtype=float), columns, float(residual)))

    @property
    def residual(self) -> float:
        # read once: threads that race here compute the same bits
        value = self._residual
        if isinstance(value, LinearOperator):
            A, norm = _hermitian_working_copy(value)
            V = self.columns
            value = float(np.max(np.linalg.norm(A @ V - V * self.eigenvalues, axis=0))) / norm
            object.__setattr__(self, "_residual", value)
        return value

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


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Multiply by the unit phase making the largest-magnitude entry real positive.

    ``v`` is one vector or a (d, k) array whose k columns are phased each on
    its own, in one pass.  Ties (entries within 1e-9 relative of the
    maximum) break toward the lowest index, so vectors with symmetric entries
    get a stable sign even when roundoff perturbs which entry is formally
    largest.  A zero vector (column) is left as it is.
    """
    mags = np.abs(v)
    top = mags.max(axis=0)
    pivot = np.expand_dims(np.argmax(mags >= top * (1.0 - 1e-9), axis=0), 0)
    entry = np.where(top == 0.0, 1.0, np.take_along_axis(v, pivot, 0)[0])
    return v * (np.conj(entry) / np.abs(entry))


def _lapack(solve, A: np.ndarray):
    """``solve(A)`` for LAPACK's ``numpy.linalg.eigh`` or ``eigvalsh`` of a
    Hermitian array; its failure raises ``ConvergenceError``."""
    try:
        return solve(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc


def _hermitian_working_copy(M: LinearOperator):
    """Validate and symmetrize: the exact Hermitian working copy of M and its
    Frobenius norm."""
    A = M.matrix
    if not np.all(np.isfinite(A)):
        raise ValueError("operator has non-finite entries")
    if not M.is_hermitian():
        raise ValueError("operator is not Hermitian within tolerance")
    A = (A + A.conj().T) / 2.0
    return A, float(np.linalg.norm(A))


def hermitian_eigenvalues(M: LinearOperator) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian operator, with the errors of
    ``eigendecompose_hermitian(M)``, from LAPACK's values-only driver
    (``numpy.linalg.eigvalsh``); zeros for the zero matrix.  They agree with
    ``eigendecompose_hermitian(M).eigenvalues`` to rounding, not bit for bit;
    no eigenvector or residual is computed."""
    A, norm = _hermitian_working_copy(M)
    return _lapack(np.linalg.eigvalsh, A) if norm else np.zeros(M.dim.d)


def eigendecompose_hermitian(M: LinearOperator) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator with a deterministic eigenvector convention.

    The eigenpairs come from LAPACK (``numpy.linalg.eigh``); its failure
    raises ``ConvergenceError``.  The convention: eigenvalues ascend (LAPACK's
    order), eigenvectors within a degenerate cluster (gap below 1e-10) are
    re-orthonormalized by modified Gram-Schmidt in index order, and each
    eigenvector carries the phase that makes its largest-magnitude entry real
    and positive.  Non-finite input, or input whose largest entry of M - M^+
    exceeds 1e-10, raises ``ValueError``.  ``hermitian_eigenvalues`` solves
    for the eigenvalues alone.
    """
    dim = M.dim
    d = dim.d
    A, norm = _hermitian_working_copy(M)
    if norm == 0.0:
        return _adopt(SpectralDecomposition, dim, np.zeros(d), np.eye(d, dtype=complex), 0.0)
    vals, V = _lapack(np.linalg.eigh, A)
    # eigh's eigenvalues already ascend; the column-major copy is kept because
    # the cluster Gram-Schmidt's vdot rounds according to the memory layout
    V = np.asfortranarray(V)

    # re-orthonormalize degenerate clusters in index order
    start = 0
    for k in range(1, d + 1):
        if k == d or vals[k] - vals[k - 1] >= _DEGENERACY_GAP:
            if k - start > 1:
                for a in range(start, k):
                    v = V[:, a]
                    for b in range(start, a):
                        v = v - np.vdot(V[:, b], v) * V[:, b]
                    V[:, a] = v / np.linalg.norm(v)
            start = k

    V = np.ascontiguousarray(canonical_phase(V))
    return _adopt(SpectralDecomposition, dim, vals, V, M)


def operator_exponential(M: LinearOperator, scale: complex) -> LinearOperator:
    """exp(scale * M) for Hermitian M, via ``eigendecompose_hermitian``,
    with its errors.

    Unitary whenever ``scale`` is purely imaginary.  A ``scale`` with a NaN
    or infinite part raises ``InputError``.
    """
    if not cmath.isfinite(scale):
        raise InputError(f"exponential scale must be finite, got {scale}")
    dec = eigendecompose_hermitian(M)
    V = dec.columns
    return _adopt(LinearOperator, M.dim, (V * np.exp(scale * dec.eigenvalues)) @ V.conj().T)

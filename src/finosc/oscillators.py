"""Finite oscillator Hamiltonians, Harper eigenbasis, fractional Fourier
transform, weighted Gram-Schmidt oscillators, time evolution and revivals.

Five families: the Fourier-conjugated quadratic oscillator, the Harper
finite-difference oscillator, the diagonal ladder oscillator J_z + j + 1/2,
frame quantizations of the harmonic symbol (a^2+b^2)/2 over each coherent
family, and spectral sums over weighted-orthonormal polynomial bases with
half-integer levels.  Both ladders are built by construction: the Harper
eigenbasis is labelled by Fourier class and energy rank, and the weighted
bases are Lanczos vectors of diag(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import coherent_family, quantize, schwinger
from .gaussians import Family, gaussian, normalized_gaussian
from .grid import (
    GridDim,
    GridFunction,
    InputError,
    LinearOperator,
    SpectralDecomposition,
    canonical_phase,
    eigendecompose_hermitian,
    fourier_operator,
)
from .grid import _DEGENERACY_GAP, _adopt, _assign, _check_integer, _check_tolerance, _circulant, _lapack, _phase
from .grid import _readonly_copy, _same_dim, _stack, _views

__all__ = [
    "DegenerateSpectrumError",
    "HarperBasis",
    "GramSchmidtOscillator",
    "RevivalProgression",
    "RevivalReport",
    "fourier_hamiltonian",
    "harper_hamiltonian",
    "kravchuk_hamiltonian",
    "frame_hamiltonian",
    "deformed_fourier_hamiltonian",
    "deformed_harper_hamiltonian",
    "hamiltonian",
    "position_squared",
    "difference_momentum_squared",
    "sign_alternations",
    "harper_basis",
    "fractional_fourier",
    "orthonormal_functions_for_weight",
    "gram_schmidt_oscillator",
    "kravchuk_functions_via_orthonormalization",
    "evolve",
    "evolve_spectral",
    "detect_revivals",
]


# Lanczos on diag(n) refuses once beta_k / j falls below this (Krylov breakdown)
_BREAKDOWN = 1e-10
_LADDER_CACHE_SIZE = 32  # Harper bases kept


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalues too close to separate where a simple spectrum is required:
    two Harper energies of one Fourier class closer than the degeneracy gap,
    or Fourier classes of the wrong dimension."""


def position_squared(dim: GridDim) -> LinearOperator:
    """Q^2: multiplication by n^2."""
    return LinearOperator.diagonal(dim, dim.indices().astype(float) ** 2)


def difference_momentum_squared(dim: GridDim) -> LinearOperator:
    """The periodic second-difference operator (P^2 psi)(n) = -[psi(n+1) - 2 psi(n) + psi(n-1)],
    2 I - A^{-1} - A with the cyclic shift A, a permutation, so A^{-1} = A^T."""
    A = schwinger(dim, "A", 1).matrix
    return _adopt(LinearOperator, dim, 2.0 * np.eye(dim.d) - A.T - A)


def _symmetrized(op: LinearOperator) -> LinearOperator:
    return _adopt(LinearOperator, op.dim, (op.matrix + op.matrix.conj().T) / 2.0)


def fourier_hamiltonian(dim: GridDim) -> LinearOperator:
    """H = (1/2) F^+ Q^2 F + (1/2) Q^2; commutes with F.

    F^+ Q^2 F is the real circulant C[n, m] = c(n - m) with
    c(r) = (1/d) sum_m m^2 cos(2 pi m r/d), which sums to
    c(r) = (-1)^r cos(pi r/d) / (2 sin^2(pi r/d)) for r = -j..j other than 0,
    and c(0) = j(j+1)/3.  The cosine and sine are read off the root table
    e^{i pi r/d}, whose values at r and -r are exact conjugates, so c is
    exactly even and H is exactly real, symmetric and parity-invariant.
    """
    j, n = dim.j, dim.indices()
    root = _phase(dim.d, n)
    sine = np.where(n == 0, 1.0, root.imag)
    c = np.where(n == 0, j * (j + 1) / 3.0, (-1.0) ** n * root.real / (2.0 * sine**2))
    H = _circulant(0.5 * c) + np.diag(0.5 * n**2)
    return _adopt(LinearOperator, dim, H.astype(complex))


def harper_hamiltonian(dim: GridDim) -> LinearOperator:
    """H = (1/2) P^2 + (1/2) F P^2 F^+ with the second-difference P^2.

    F P^2 F^+ is exactly diag(2 - 2 cos 2 pi n/d) (Candan, Kutay & Ozaktas,
    IEEE TSP 48, 2000), with the cosine read off the root table, which is
    exactly even in n; H is exactly real, symmetric and parity-invariant.
    """
    clock = 1.0 - _phase(dim.d, 2 * dim.indices()).real
    return 0.5 * difference_momentum_squared(dim) + LinearOperator.diagonal(dim, clock)


def kravchuk_hamiltonian(dim: GridDim) -> LinearOperator:
    """The diagonal ladder oscillator J_z + j + 1/2 with eigenvalues n + j + 1/2."""
    return LinearOperator.diagonal(dim, dim.indices() + dim.j + 0.5)


def frame_hamiltonian(dim: GridDim, family: Family | int) -> LinearOperator:
    """Frame quantization of the harmonic symbol f(a, b) = (a^2 + b^2)/2.

    H_i = (1/d) sum_{a,b} f(a,b) |a,b>_i <a,b|_i over the coherent family of
    the i-th normalized Gaussian.  The spectrum already carries the harmonic
    zero-point offset; no additive constant is applied.
    """
    fam = Family.from_label(f"g{family}") if isinstance(family, int) else family
    n = dim.indices()  # the integers and the halving are exact in float64
    return _symmetrized(quantize(coherent_family(dim, fam), (n[:, None] ** 2 + n**2) / 2.0))


def _check_deformation(alpha: float) -> float:
    if not 0.0 < alpha < 2.0:
        raise InputError(f"deformation exponent alpha must lie in (0, 2), got {alpha}")
    return float(alpha)


def deformed_fourier_hamiltonian(dim: GridDim, alpha: float) -> LinearOperator:
    """H = (1/2) F^{-alpha} Q^2 F^{alpha} + (1/2) Q^2 with the fractional transform."""
    alpha = _check_deformation(alpha)
    Fa = fractional_fourier(dim, alpha)
    Q2 = position_squared(dim)
    return _symmetrized(0.5 * (Fa.adjoint() @ Q2 @ Fa) + 0.5 * Q2)


def deformed_harper_hamiltonian(dim: GridDim, alpha: float) -> LinearOperator:
    """H = (1/2) P^2 + (1/2) F^{alpha} P^2 F^{-alpha} with the fractional transform."""
    alpha = _check_deformation(alpha)
    Fa = fractional_fourier(dim, alpha)
    P2 = difference_momentum_squared(dim)
    return _symmetrized(0.5 * P2 + 0.5 * (Fa @ P2 @ Fa.adjoint()))


# kind tag -> the Hamiltonian built from (dim, family, alpha)
_BUILDERS = {
    "fourier": lambda dim, family, alpha: fourier_hamiltonian(dim),
    "harper": lambda dim, family, alpha: harper_hamiltonian(dim),
    "kravchuk": lambda dim, family, alpha: kravchuk_hamiltonian(dim),
    "frame": lambda dim, family, alpha: frame_hamiltonian(dim, family),
    "gramschmidt": lambda dim, family, alpha: gram_schmidt_oscillator(dim, family).operator,
    "deformed-fourier": lambda dim, family, alpha: deformed_fourier_hamiltonian(dim, alpha),
    "deformed-harper": lambda dim, family, alpha: deformed_harper_hamiltonian(dim, alpha),
}
_KINDS = tuple(_BUILDERS)


def _check_kind(kind: str, family: Family | int | None, alpha: float | None) -> str:
    """The lower-cased kind, once it is known and given what it needs: a
    family for frame/gramschmidt, an alpha in (0, 2) for the deformed kinds."""
    if not isinstance(kind, str):
        raise InputError(f"unknown oscillator kind {kind!r}")
    kind = kind.lower()
    if kind not in _BUILDERS:
        raise InputError(f"unknown oscillator kind {kind!r}")
    if kind in ("frame", "gramschmidt") and family is None:
        raise InputError(f"kind {kind} requires a Gaussian family")
    if kind.startswith("deformed-"):
        if alpha is None:
            raise InputError(f"kind {kind} requires a deformation exponent alpha")
        _check_deformation(alpha)
    return kind


def hamiltonian(
    dim: GridDim,
    kind: str,
    family: Family | int | None = None,
    alpha: float | None = None,
) -> LinearOperator:
    """Dispatch by kind tag: fourier, harper, kravchuk, frame, gramschmidt,
    deformed-fourier, deformed-harper."""
    return _BUILDERS[_check_kind(kind, family, alpha)](dim, family, alpha)


# ---------------------------------------------------------------------------
# Harper eigenbasis and the fractional Fourier transform
# ---------------------------------------------------------------------------


def sign_alternations(values: np.ndarray) -> int:
    """Number of adjacent strict sign flips, scanning n = -j..j.

    Entries below 1e-9 times the max magnitude count as exact zeros
    and are skipped.  Harper eigenvectors have near-zero tails and parity
    zeros at n = 0 that must not produce spurious flips.
    """
    v = np.asarray(values, dtype=float)
    cut = 1e-9 * np.max(np.abs(v))
    signs = [x > 0 for x in v if abs(x) > cut]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True, eq=False, init=False)
class HarperBasis:
    """Harper eigenfunctions h_0..h_{2j} labelled by Fourier class and energy.

    ``columns`` holds h_n in column n; ``functions`` are read-only
    GridFunction views of it.  ``fourier_eigenvalues[n]`` is (-i)^n, the
    eigenvalue of F on the class that h_n is built in.  ``energies`` are the
    Harper eigenvalues in label order; ``energy_order_consistent`` records
    whether that order coincides with ascending energy, which fails as soon as
    two Fourier classes interleave in the upper spectrum (a diagnostic).
    """

    dim: GridDim
    columns: np.ndarray
    energies: np.ndarray
    fourier_eigenvalues: np.ndarray
    energy_order_consistent: bool

    def __init__(self, dim, functions, energies, fourier_eigenvalues, energy_order_consistent):
        columns = _readonly_copy(_stack(functions, 1), complex, (dim.d, dim.d))
        energies = np.array(energies, dtype=float)
        phases = np.array(fourier_eigenvalues, dtype=complex)
        _assign(self, (dim, columns, energies, phases, bool(energy_order_consistent)))

    @property
    def functions(self) -> tuple[GridFunction, ...]:
        return _views(self.dim, self.columns.T)


@lru_cache(maxsize=_LADDER_CACHE_SIZE)
def harper_basis(dim: GridDim) -> HarperBasis:
    """The Harper eigenbasis, built one Fourier class at a time.

    On the real eigenspace of F for (-i)^r, F.real - 2 F.imag equals 1, 2,
    -1, -2 for r = 0..3, so one eigensolve of it splits the grid into the four
    classes, with gaps of at least 1.  H is real and commutes with F, so it is
    solved on each class, and the k-th lowest energy of class r gets label
    n = 4k + r (Candan, Kutay & Ozaktas, IEEE TSP 48, 2000).  A class of the
    wrong dimension, or two energies of one class closer than the degeneracy
    gap (1e-10), raises ``DegenerateSpectrumError``.  Cached per grid.
    """
    d = dim.d
    H = harper_hamiltonian(dim).matrix.real
    F = fourier_operator(dim).matrix
    w, U = _lapack(np.linalg.eigh, F.real - 2.0 * F.imag)
    columns, energies = np.empty((d, d)), np.empty(d)
    for r, t in enumerate((1.0, 2.0, -1.0, -2.0)):
        Q = U[:, np.abs(w - t) < 0.5]
        if Q.shape[1] != len(range(r, d, 4)):
            raise DegenerateSpectrumError(
                f"Fourier class {r} has dimension {Q.shape[1]}, not {len(range(r, d, 4))}: "
                f"Fourier classes are not separated at {dim}"
            )
        e, W = _lapack(np.linalg.eigh, Q.T @ H @ Q)
        gaps = np.diff(e)
        if np.any(gaps < _DEGENERACY_GAP):
            k = int(np.argmin(gaps))
            raise DegenerateSpectrumError(
                f"Harper eigenvalues {4 * k + r} and {4 * k + 4 + r} differ by {gaps[k]:.3e} "
                f"(< {_DEGENERACY_GAP:.1e}) at {dim}"
            )
        columns[:, r::4], energies[r::4] = Q @ W, e
    phases = np.array([1, -1j, -1, 1j])[np.arange(d) % 4]
    consistent = bool(np.all(np.diff(energies) > 0))
    columns = canonical_phase(columns.astype(complex))
    return _adopt(HarperBasis, dim, columns, energies, phases, consistent)


def fractional_fourier(dim: GridDim, alpha: float) -> LinearOperator:
    """F^alpha = sum_n e^{-i pi n alpha / 2} |h_n><h_n| over the Harper basis.

    The exponent branch e^{-i pi n alpha/2} is continuous in alpha and matches
    (-i)^n at integers; F^0 is the identity and F^1 the Fourier transform.
    The Harper basis is the grid's cached ``harper_basis(dim)``.  A NaN or
    infinite alpha raises ``InputError``.
    """
    if not math.isfinite(alpha):
        raise InputError(f"fractional Fourier power alpha must be finite, got {alpha}")
    V = harper_basis(dim).columns
    w = np.exp(-0.5j * np.pi * np.arange(dim.d) * alpha)
    return _adopt(LinearOperator, dim, (V * w) @ V.conj().T)


# ---------------------------------------------------------------------------
# Weighted Gram-Schmidt oscillators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class GramSchmidtOscillator:
    """Orthonormal ladder functions phi_m and the spectral-sum Hamiltonian.

    ``columns`` holds phi_m in column m + j; ``functions`` are read-only
    GridFunction views of it.  ``operator`` = sum_m (j + m + 1/2)
    |phi_m><phi_m| has eigenvalues exactly 1/2, 3/2, ..., 2j + 1/2 and ground
    state phi_{-j}.  ``min_beta`` is the smallest Lanczos coefficient
    beta_k / j, the margin to Krylov breakdown.
    """

    dim: GridDim
    family: Family
    columns: np.ndarray
    operator: LinearOperator
    min_beta: float

    def __init__(self, dim, family, functions, operator, min_beta):
        columns = _readonly_copy(_stack(functions, 1), complex, (dim.d, dim.d))
        _assign(self, (dim, family, columns, operator, float(min_beta)))

    @property
    def functions(self) -> tuple[GridFunction, ...]:
        return _views(self.dim, self.columns.T)


def orthonormal_functions_for_weight(dim: GridDim, amplitude: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormalize the polynomial ladder 1, X, ..., X^{2j} under
    <f, g> = sum_n a(n)^2 f(n) g(n) for the amplitude a, and return
    (Q, min_beta) with column k of Q the ladder function a * Phi_k.

    Lanczos (Stieltjes) on diag(n) from q_0 = a/||a||, with full
    reorthogonalization (two classical Gram-Schmidt passes), gives
    q_k = a Phi_k (Gragg & Harrod, Numer. Math. 44, 1984).  The weight a^2,
    which underflows long before a does, is never formed, and a may carry a
    sign.  Each beta_k > 0, so every Phi_k has a positive leading
    coefficient.  A non-finite amplitude, or one that vanishes somewhere,
    raises ``ValueError``, and so does a Krylov breakdown, beta_k / j < 1e-10,
    where the ladder would be noise.  ``min_beta`` is min_k beta_k / j.
    """
    a = np.asarray(amplitude, dtype=float)
    d, j = dim.d, dim.j
    if a.shape != (d,):
        raise ValueError(f"amplitude must have {d} entries")
    if not np.all(np.isfinite(a)):
        raise ValueError("amplitude must be finite")
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        # each run of consecutive labels as a..b, so the message stays short
        runs = np.split(zeros - j, np.flatnonzero(np.diff(zeros) > 1) + 1)
        labels = ", ".join(f"{r[0]}..{r[-1]}" if r.size > 1 else f"{r[0]}" for r in runs)
        raise ValueError(f"amplitude vanishes at n = [{labels}]; the inner product is degenerate")

    x = dim.indices().astype(float)
    Q = np.empty((d, d))
    Q[:, 0] = a / np.linalg.norm(a)
    betas = np.empty(d - 1)
    for k in range(1, d):
        v = x * Q[:, k - 1]
        for _ in range(2):
            v -= Q[:, :k] @ (Q[:, :k].T @ v)
        betas[k - 1] = np.linalg.norm(v)
        if betas[k - 1] < _BREAKDOWN * j:
            raise ValueError(
                f"Lanczos breakdown at step {k}: beta_k/j = {betas[k - 1] / j:.3e} "
                f"(< {_BREAKDOWN:.0e})"
            )
        Q[:, k] = v / betas[k - 1]
    return Q, float(betas.min()) / j


def gram_schmidt_oscillator(dim: GridDim, family: Family | int) -> GramSchmidtOscillator:
    """Oscillator with ground state G_i: phi_m = G_i * Phi_m for the polynomials
    orthonormal under the weight G_i^2, and H = sum (j+m+1/2) |phi_m><phi_m|."""
    fam = Family.from_label(f"g{family}") if isinstance(family, int) else family
    G = normalized_gaussian(dim, fam).values.real
    Phi, min_beta = orthonormal_functions_for_weight(dim, G)
    H = (Phi * (np.arange(dim.d) + 0.5)) @ Phi.T  # level j + m + 1/2 on column m + j
    H = _adopt(LinearOperator, dim, H.astype(complex))
    return _adopt(GramSchmidtOscillator, dim, fam, Phi.astype(complex), H, min_beta)


def kravchuk_functions_via_orthonormalization(dim: GridDim) -> tuple[GridFunction, ...]:
    """Recover the Kravchuk functions as sqrt(g4) times the polynomials
    orthonormal under the binomial weight g4 itself (not G4 squared).

    The classical normalization has leading-coefficient sign (-1)^{j+m}, so
    the positive-leading Gram-Schmidt output is sign-flipped accordingly.
    """
    g4 = gaussian(dim, Family.G4).values.real
    Q, _ = orthonormal_functions_for_weight(dim, np.sqrt(g4))
    rows = Q.T.astype(complex, order="C")
    rows[1::2] *= -1
    return _views(dim, rows)


# ---------------------------------------------------------------------------
# Time evolution and revivals
# ---------------------------------------------------------------------------


def evolve_spectral(
    dec: SpectralDecomposition, psi: GridFunction, t: float | np.ndarray
) -> GridFunction | tuple[GridFunction, ...]:
    """e^{-i t H} psi from a precomputed spectral decomposition.

    ``t`` is one time, giving a GridFunction, or a 1-D array of S times,
    giving a tuple of S GridFunction views of one (S, d) array; V^H psi is
    formed once.  One time and many take one path: numpy's stacked matmul
    solves each row by its own matrix-vector product, so row s equals the
    call at ``t[s]`` bit for bit, where a single (S, d) x (d, d) product
    would round differently.  ``t`` must hold integers or floats, be at most
    1-D and be finite, and ``psi`` must be on the decomposition's grid;
    anything else raises ``InputError`` before any product."""
    t = np.asarray(t)
    if t.ndim > 1:
        raise InputError(f"times must be one value or a 1-D array, got shape {t.shape}")
    if t.dtype.kind not in "iuf":
        raise InputError(f"evolution time t must be an integer or float, got dtype {t.dtype}")
    finite = np.isfinite(t)
    if not np.all(finite):
        raise InputError(f"evolution time t must be finite, got {t[~finite][0]}")
    _same_dim(dec, psi)
    V = dec.columns
    rows = np.exp(-1j * t[..., None] * dec.eigenvalues) * (V.conj().T @ psi.values)
    states = (V @ rows[..., None])[..., 0]
    return _adopt(GridFunction, dec.dim, states) if states.ndim == 1 else _views(dec.dim, states)


def evolve(H: LinearOperator, psi: GridFunction, t: float) -> GridFunction:
    """e^{-i t H} psi for Hermitian H, by ``eigendecompose_hermitian`` and
    ``evolve_spectral``, whose checks of ``t`` and ``psi`` it shares;
    preserves the norm."""
    return evolve_spectral(eigendecompose_hermitian(H), psi, t)


@dataclass(frozen=True)
class RevivalProgression:
    """A maximal run of equally spaced eigenvalues in the sorted spectrum."""

    start: int
    length: int
    gap: float
    max_deviation: float
    period: float


@dataclass(frozen=True)
class RevivalReport:
    progressions: tuple[RevivalProgression, ...]

    def full_length(self, d: int) -> bool:
        return any(p.length == d for p in self.progressions)


def _check_min_len(min_len: int) -> int:
    """``min_len`` as an int, once it is an integer of at least 3."""
    min_len = _check_integer("min_len", min_len)
    if min_len < 3:
        raise InputError(f"min_len must be at least 3, got {min_len}")
    return min_len


def detect_revivals(
    dec: SpectralDecomposition, min_len: int = 3, tol: float = 1e-8
) -> RevivalReport:
    """Find all maximal runs of >= min_len consecutive eigenvalues with a
    common gap (within tol); each run carries the revival period 2 pi / gap."""
    _check_tolerance(tol)
    min_len = _check_min_len(min_len)
    e = dec.eigenvalues
    found = []
    i = 0
    while i < len(e) - 1:
        ref = e[i + 1] - e[i]
        k = i + 1
        while k + 1 < len(e) and abs((e[k + 1] - e[k]) - ref) <= tol:
            k += 1
        length = k - i + 1
        if length >= min_len:
            gaps = np.diff(e[i : k + 1])
            mean = float(np.mean(gaps))
            dev = float(np.max(np.abs(gaps - mean)))
            period = 2.0 * np.pi / mean if mean > 0 else math.inf
            found.append(RevivalProgression(i, length, mean, dev, period))
            i = k
        else:
            i += 1
    return RevivalReport(tuple(found))

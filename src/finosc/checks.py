"""Named identity checks over every subsystem, runnable at any odd dimension.

Each check returns pass/fail plus a short detail string; the CLI ``verify``
subcommand prints one line per check.  At d = 3 the exact radical tables for
the Fourier eigenvectors, the Kravchuk functions and the normalized Gaussians
are compared entrywise (the g2/g3 pair through its combination relations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import frames, gaussians, kravchuk, oscillators
from .wigner import (
    wigner as wigner_map,
    wigner_fourier_covariance_check,
    wigner_product_decomposition,
)
from .gaussians import Family
from .grid import (
    GridDim,
    canonical_phase,
    GridFunction,
    LinearOperator,
    eigendecompose_hermitian,
    fourier_operator,
    fourier_transform,
    hermitian_eigenvalues,
    inner_product,
    inverse_fourier_transform,
    convolve,
    operator_exponential,
    parity_operator,
)
from .grid import _SeededDraws, _phase

__all__ = ["CheckResult", "run_checks", "GOLDEN_DIM"]

GOLDEN_DIM = GridDim.from_size(3)
_KAPPAS = (0.5, 1.0, 2.0)
_STATES_PER_CHUNK = 1024  # coherent states held at once by the coherent-state checks
_STATE_PROBES = 8  # seeded probe columns of the coherent-state checks
_ENTRY_TOL = 1e-10  # entry error of a coherent-state block that must not pass
_PROBE_TOL = 1e-11  # probe error allowed; see _probe_detail for what it bounds


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False


def _result(name: str, err: float, tol: float) -> CheckResult:
    return CheckResult(name, err <= tol, f"max error {err:.3e} (tol {tol:.1e})")


def _rand_state(dim: GridDim, seed: int) -> GridFunction:
    return GridFunction(dim, _SeededDraws(seed).complex_normals(dim.d))


def _op_err(a: LinearOperator, b: LinearOperator) -> float:
    return float(np.max(np.abs(a.matrix - b.matrix)))


def _ladder_error(gen: kravchuk.Su2Generators) -> float:
    """Distance of J_z, J_+- from the spin-j ladder, free of rounding that
    grows with d: J_z = diag(m), J_- = J_+^+ and J_+ on the subdiagonal hold
    exactly; c_m^2 = (j-m)(j+m+1) for c_m = <m+1|J_+|m> to about an ulp,
    relative.  These give [J_z, J_+-] = +-J_+- and [J_+, J_-] = 2 J_z."""
    dim, c = gen.dim, np.diag(gen.jplus.matrix, -1)
    m = dim.indices()[:-1]
    return max(
        _op_err(gen.jz, LinearOperator.diagonal(dim, dim.indices())),
        _op_err(gen.jplus, LinearOperator(dim, np.diag(c, -1))),
        _op_err(gen.jminus, gen.jplus.adjoint()),
        float(np.max(np.abs(np.abs(c) ** 2 / ((dim.j - m) * (dim.j + m + 1)) - 1.0))),
    )


def _su2_commutators(gen: kravchuk.Su2Generators) -> CheckResult:
    """The su(2) relations by structure: the ladder form (``_ladder_error``)
    and J_x, J_y built from J_+- as stated."""
    err = max(
        _ladder_error(gen),
        _op_err(gen.jx, 0.5 * (gen.jplus + gen.jminus)),
        _op_err(gen.jy, -0.5j * (gen.jplus - gen.jminus)),
    )
    return _result("su2-commutators", err, 1e-12)


def _ladder_oscillator_algebra(gen: kravchuk.Su2Generators, HK: LinearOperator) -> CheckResult:
    """[H_K, J_+-] = +-J_+- and H_K = [J_+, J_-]/2 + j + 1/2 by structure:
    H_K = diag(m + j + 1/2) exactly, and the ladder form (``_ladder_error``)."""
    dim = HK.dim
    exact = LinearOperator.diagonal(dim, dim.indices() + dim.j + 0.5)
    return _result("ladder-oscillator-algebra", max(_op_err(HK, exact), _ladder_error(gen)), 1e-12)


# --- d = 3 exact radicals ---------------------------------------------------

_S3 = 1.0 / math.sqrt(3.0)

D3_FOURIER_EIGENVECTORS = {
    # label -> (eigenvalue of F, column at n = -1, 0, 1)
    -1: (1.0, np.array([0.5 * math.sqrt(1 - _S3), math.sqrt((1 + _S3) / 2), 0.5 * math.sqrt(1 - _S3)])),
    0: (-1j, np.array([-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])),
    1: (-1.0, np.array([0.5 * math.sqrt(1 + _S3), -math.sqrt((1 - _S3) / 2), 0.5 * math.sqrt(1 + _S3)])),
}

D3_KRAVCHUK_COLUMNS = {
    -1: np.array([0.5, 1 / math.sqrt(2), 0.5]),
    0: np.array([1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)]),
    1: np.array([0.5, -1 / math.sqrt(2), 0.5]),
}

D3_GAUSSIANS = {
    # G2 and G3 have no radical closed form: the unit F-eigenvector relations
    # pinning G1 leave the (G2, G3) pair one parameter of freedom, so they are
    # checked through their combination relations instead
    Family.G1: np.array([0.5 * math.sqrt(1 - _S3), math.sqrt((1 + _S3) / 2), 0.5 * math.sqrt(1 - _S3)]),
    Family.G4: np.array([1, 2, 1]) / math.sqrt(6.0),
    Family.G5: np.array([1, 4, 1]) / (3 * math.sqrt(2.0)),
}

D3_SPECTRA = {
    "fourier": np.array([0.5 * (1 - _S3), 0.5 * (1 + _S3), 1.0]),
    # closed form from the parity-sector reduction of the defining formula
    "harper": np.array([(3 - math.sqrt(3)) / 2, (3 + math.sqrt(3)) / 2, 3.0]),
    "frame-g1": np.sort([0.5 * (1 - 0.5 * _S3), 0.75, 0.25 * (3 + _S3)]),
}


# --- check implementations ---------------------------------------------------


def _check_fourier_algebra(dim: GridDim) -> list[CheckResult]:
    out = []
    F = fourier_operator(dim)
    psi = _rand_state(dim, 1)
    out.append(
        _result("fourier-unitarity", abs(fourier_transform(psi).norm() - psi.norm()), 1e-12)
    )
    F2 = F @ F
    out.append(_result("fourier-parity", _op_err(F2, parity_operator(dim)), 1e-12))
    out.append(_result("fourier-fourth-power", _op_err(F2 @ F2, LinearOperator.identity(dim)), 1e-12))
    even = gaussians.gaussian(dim, Family.G1)
    err = np.max(np.abs(fourier_transform(even).values - inverse_fourier_transform(even).values))
    out.append(_result("fourier-even-selfdual", float(err), 1e-12))
    phi, psi = _rand_state(dim, 2), _rand_state(dim, 3)
    lhs = fourier_transform(convolve(phi, psi)).values
    rhs = math.sqrt(dim.d) * fourier_transform(phi).values * fourier_transform(psi).values
    out.append(_result("convolution-fourier-factorization", float(np.max(np.abs(lhs - rhs))), 1e-12))
    delta0 = GridFunction.delta(dim, 0)
    out.append(
        _result(
            "convolution-unit",
            float(np.max(np.abs(convolve(delta0, psi).values - psi.values))),
            1e-14,
        )
    )
    return out


def _check_eigensolver(dim: GridDim) -> list[CheckResult]:
    raw = _SeededDraws(7).complex_normals(dim.d, dim.d)
    M = LinearOperator(dim, (raw + raw.conj().T) / 2)
    dec = eigendecompose_hermitian(M)
    scale = M.frobenius_norm()
    rec = _op_err(dec.reconstruct(), M) / scale
    V = dec.vector_matrix()
    orth = float(np.max(np.abs(V.conj().T @ V - np.eye(dim.d))))
    U = operator_exponential(M, 1j * 0.37)
    uni = _op_err(U @ U.adjoint(), LinearOperator.identity(dim))
    return [
        _result("eigensolver-reconstruction", rec, 1e-10),
        _result("eigensolver-orthonormality", orth, 1e-10),
        _result("exponential-unitarity", uni, 1e-12),
    ]


def _check_gaussians(dim: GridDim) -> list[CheckResult]:
    out = []
    err = 0.0
    for kappa in _KAPPAS:
        img = {
            Family.G1: (Family.G1, kappa),
            Family.G2: (Family.G3, kappa),
            Family.G3: (Family.G2, kappa),
        }
        for fam, (tfam, k) in img.items():
            lhs = fourier_transform(gaussians.gaussian(dim, fam, k)).values
            rhs = gaussians.gaussian(dim, tfam, 1.0 / k).values / math.sqrt(k)
            err = max(err, float(np.max(np.abs(lhs - rhs))))
    out.append(_result("fourier-image-theta-families", err, 1e-10))
    e4 = np.max(np.abs(fourier_transform(gaussians.gaussian(dim, Family.G4)).values
                       - gaussians.gaussian(dim, Family.G5).values))
    e5 = np.max(np.abs(fourier_transform(gaussians.gaussian(dim, Family.G5)).values
                       - gaussians.gaussian(dim, Family.G4).values))
    out.append(_result("fourier-image-binomial-cosine", float(max(e4, e5)), 1e-12))
    G1 = gaussians.normalized_gaussian(dim, Family.G1)
    out.append(
        _result(
            "gaussian-fourier-fixed-point",
            float(np.max(np.abs(fourier_transform(G1).values - G1.values))),
            1e-10,
        )
    )

    d, n = dim.d, dim.indices()
    g1, g2, g3 = (gaussians.gaussian(dim, fam, 1.0).values for fam in (Family.G1, Family.G2, Family.G3))
    t3, t4, t2 = (gaussians.theta(kind, n / d, 1j / d) / math.sqrt(d) for kind in (3, 4, 2))
    err = np.max(np.abs([g1 - t3, g2 - t4, g3 - (-1.0) ** n * t2]))
    out.append(_result("theta-crosschecks", float(err), 1e-12))

    def values(fam, kappa):
        return gaussians.gaussian(dim, fam, kappa).values

    err = 0.0
    twice = (2 * dim.indices() + dim.j) % d  # the index of label 2m, for m = -j..j
    for kappa in _KAPPAS:
        g1k, g2k, g3k = (values(fam, kappa) for fam in (Family.G1, Family.G2, Family.G3))
        a1, a2 = values(Family.G1, 4 * kappa), values(Family.G2, 4 * kappa)
        b1, b2 = values(Family.G1, 2 * kappa), values(Family.G2, 2 * kappa)
        b10, b20 = b1[dim.j], b2[dim.j]  # the values at label 0
        err = max(
            err,
            float(np.max(np.abs(g1k[twice] - (a1 + a2)))),
            float(np.max(np.abs(g3k[twice] - (a1 - a2)))),
            float(np.max(np.abs(g1k**2 - (b10 * b1 + b20 * b2)))),
            float(np.max(np.abs(g2k**2 - (b10 * b2 + b20 * b1)))),
            float(np.max(np.abs(g3k**2 - (b10 * b1 - b20 * b2)))),
        )
    out.append(_result("doubling-and-modulus-identities", err, 1e-12))

    err = 0.0
    for fam in Family:
        g = gaussians.gaussian(dim, fam)
        err = max(err, float(np.max(np.abs(g.values - g.values[::-1]))))
        direct = float(np.sum(np.abs(g.values) ** 2))
        err = max(err, abs(direct - gaussians.norm_squared_closed_form(dim, fam)))
    out.append(_result("gaussian-evenness-and-norms", err, 1e-12))
    return out


_GRAM_PROBES = 3


def _kravchuk_integers(j: int) -> np.ndarray:
    """Every K_m(n) as an exact integer, indexed [m + j, n + j], by the
    three-term recurrence in the degree (Koekoek, Lesky & Swarttouw, 9.11):
    (j+m+1) K_{m+1}(n) = -2n K_m(n) - (j-m+1) K_{m-1}(n), with K_{-j} = 1.

    Each row takes O(d) integer operations over all n at once, and the
    division leaves no remainder.  It shares nothing with the table's
    recurrence in n.
    """
    d = 2 * j + 1
    n = np.arange(-j, j + 1).astype(object)
    K = np.empty((d, d), dtype=object)
    K[0] = 1
    prev = np.zeros(d, dtype=object)
    for mi in range(1, d):
        m = mi - 1 - j
        K[mi] = (-2 * n * K[mi - 1] - (j - m + 1) * prev) // (j + m + 1)
        prev = K[mi - 1]
    return K


def _gram_probe_failures(K: np.ndarray, weight: np.ndarray, target: np.ndarray) -> int:
    """How many of _GRAM_PROBES seeded Freivalds probes find
    K diag(weight) K^T != diag(target), all in exact integers.

    Each probe draws x of seeded uniform 64-bit integers and compares
    K (weight * K^T x) with target * x, O(d^2) work instead of the d^3 of
    the Gram matrix.  A wrong Gram entry escapes one probe with probability
    at most 2^-64 (Freivalds, IFIP 1977).
    """
    probes = _SeededDraws(13).words(_GRAM_PROBES, len(target)).astype(object)
    return sum(bool(np.any(K @ (weight * (K.T @ x)) != target * x)) for x in probes)


def _hypergeometric_route(dim: GridDim) -> np.ndarray:
    """curly-K_m(n) through H = (2j)! 2F1(-(j+m), -(j+n); -2j; 2) in integers.

    The first two columns are the exact scalar sums; Gauss's contiguous
    relation in b = -(j+n) gives the rest for all m at once:
    (n-j) H_{n+1} = 2m H_n + (j+n) H_{n-1}, an exact division.  Only two
    integer columns are held at a time.
    """
    j, d = dim.j, dim.d
    m = np.arange(-j, j + 1).astype(object)
    scale = math.factorial(2 * j)
    prev, cur = (
        np.array([kravchuk._hypergeometric_int(j, mm, n) for mm in range(-j, j + 1)], dtype=object)
        for n in (-j, 1 - j)
    )
    hyp = np.empty((d, d))
    hyp[:, 0], hyp[:, 1] = prev / scale, cur / scale
    for ni in range(1, d - 1):
        n = ni - j
        prev, cur = cur, (2 * m * cur + (j + n) * prev) // (n - j)
        hyp[:, ni + 1] = cur / scale
    # sqrt(C(2j, j+m) C(2j, j+n) / 4^j), split so neither factor leaves the float range
    root = np.sqrt([math.comb(2 * j, k) / 2**j for k in range(d)])
    return np.outer(root, root) * hyp


def _check_kravchuk(dim: GridDim) -> list[CheckResult]:
    out = []
    j, d = dim.j, dim.d
    table = kravchuk.kravchuk_table(dim)
    idx = dim.indices()

    # sum_n C(2j, j+n) K_m(n) K_l(n) = delta_ml 4^j C(2j, j+m), exactly in
    # integers (the float table passes 2^53 from d = 61), on the degree
    # recurrence's integers; the table must hold their correct rounding
    ints = _kravchuk_integers(j)
    binom = np.array([math.comb(2 * j, k) for k in range(d)], dtype=object)
    wrong_gram = _gram_probe_failures(ints, binom, binom * 4**j)
    wrong_table = int(np.count_nonzero(table.poly != ints.astype(float)))
    out.append(
        CheckResult(
            "kravchuk-orthogonality",
            wrong_gram == wrong_table == 0,
            f"exact: {wrong_table} table entries wrong, {wrong_gram} of {_GRAM_PROBES} Gram probes failed",
        )
    )

    sym = float(np.max(np.abs(table.func - table.func.T)))
    out.append(_result("kravchuk-symmetry", sym, 1e-9))

    # row n, column m: c_m f(m+1) + c_{m-1} f(m-1) = -2n f(m), f(+-(j+1)) = 0
    f = table.func
    up, dn = np.zeros((d, d)), np.zeros((d, d))
    up[:, :-1], dn[:, 1:] = f[:, 1:], f[:, :-1]
    lhs = np.sqrt((j - idx) * (j + idx + 1)) * up + np.sqrt((j + idx) * (j - idx + 1)) * dn
    out.append(_result("kravchuk-recurrence", float(np.max(np.abs(lhs + 2 * idx[:, None] * f))), 1e-10))

    # K_m(-n) = (-1)^{j+m} K_m(n) and K_{-m}(n) = (-1)^{j+n} K_m(n), exactly
    sign = np.where((j + idx) % 2, -1, 1)
    wrong_n = int(np.count_nonzero(ints[:, ::-1] != sign[:, None] * ints))
    wrong_m = int(np.count_nonzero(ints[::-1] != sign * ints))
    out.append(
        CheckResult(
            "kravchuk-parity",
            wrong_n == wrong_m == 0,
            f"exact: {wrong_n} entries break the n reflection, {wrong_m} the m reflection",
        )
    )
    comp = float(np.max(np.abs(table.func.T @ table.func - np.eye(d))))
    out.append(_result("kravchuk-completeness", comp, 1e-10))

    K = kravchuk.kravchuk_transform(dim)
    I = LinearOperator.identity(dim)
    out.append(_result("kravchuk-transform-unitarity", _op_err(K @ K.adjoint(), I), 1e-12))
    K2 = K @ K
    K2_expected = np.zeros((d, d), dtype=complex)
    K2_expected[j - idx, j + idx] = (-1.0) ** (j + idx)
    out.append(
        _result("kravchuk-transform-squared", float(np.max(np.abs(K2.matrix - K2_expected))), 1e-12)
    )
    out.append(_result("kravchuk-transform-fourth-power", _op_err(K2 @ K2, I), 1e-12))

    gen = kravchuk.su2_generators(dim)
    out.append(_su2_commutators(gen))
    out.append(_result("jx-from-jz-conjugation", _op_err(K @ gen.jz @ K.adjoint(), gen.jx), 1e-10))
    U = kravchuk.generalized_kravchuk_transform(dim, 2 * np.pi * _SeededDraws(11).uniforms(d))
    err = max(_op_err(U @ gen.jz @ U.adjoint(), gen.jx), _op_err(U @ U.adjoint(), I))
    out.append(_result("generalized-transform", err, 1e-10))

    # row n + j of the reversed table is curly-K_{-n}, the J_x eigenvector for n
    err = max(float(np.max(np.abs(gen.jx.matrix @ v - n * v))) for n, v in zip(idx, f[::-1]))
    out.append(_result("jx-eigenbasis", err, 1e-10))

    route = _hypergeometric_route(dim)
    # the scalar sum closes the relation at the far boundary column n = j
    scalar = [kravchuk.kravchuk_function_hypergeometric(dim, m, j) for m in range(-j, j + 1)]
    hyp = max(float(np.max(np.abs(route - table.func))), float(np.max(np.abs(route[:, -1] - scalar))))
    out.append(_result("kravchuk-hypergeometric-route", hyp, 1e-9))
    return out


def _check_wigner(dim: GridDim) -> list[CheckResult]:
    out = []
    psi = _rand_state(dim, 21)
    W = wigner_map(psi)
    pos = float(np.max(np.abs(W.values.sum(axis=1) - np.abs(psi.values) ** 2)))
    mom = float(np.max(np.abs(W.values.sum(axis=0) - np.abs(fourier_transform(psi).values) ** 2)))
    out.append(_result("wigner-marginals", max(pos, mom), 1e-10))
    even = gaussians.normalized_gaussian(dim, Family.G1)
    Weven = wigner_map(even)
    out.append(
        _result("wigner-even-center", abs(Weven.value(0, 0) - even.norm() ** 2 / dim.d), 1e-12)
    )
    cov = wigner_fourier_covariance_check(gaussians.gaussian(dim, Family.G4))
    cov2 = wigner_fourier_covariance_check(gaussians.gaussian(dim, Family.G1, 2.0))
    out.append(CheckResult("wigner-fourier-covariance", cov and cov2, "rotation by 90 degrees"))
    err = 0.0
    for fam in (Family.G1, Family.G2, Family.G3):
        for kappa in (1.0, 2.0):
            direct = wigner_map(gaussians.gaussian(dim, fam, kappa)).values
            product = wigner_product_decomposition(dim, fam, kappa).values
            err = max(err, float(np.max(np.abs(direct - product))))
    out.append(_result("wigner-product-decomposition", err, 1e-10))
    return out


def _schwinger_relations(dim: GridDim) -> CheckResult:
    """A^d = B^d = 1, and A^a B^b = e^{-2 pi i ab/d} B^b A^a at all d^2 labels, on the
    row entries that frames._weyl gives (row n of D(a, b) holds its one nonzero in
    column n - a): with va, vb the entries of A^a, B^b, row n of A^a B^b holds
    va(n) vb(n - a) and row n of B^b A^a holds vb(n) va(n), both in column n - a,
    so one cyclic roll of the B table lines the two sides up.  The relation cancels
    va and a constant phase of vb, so every entry of A^a and of B^b at n = 0 must
    also equal 1."""
    d, n = dim.d, dim.indices()
    err = max(float(np.max(np.abs(frames._weyl(dim, *p) - 1))) for p in ((d, 0), (0, d)))
    A, B = frames._weyl(dim, n, 0), frames._weyl(dim, 0, n)  # [a + j, n + j], [b + j, n + j]
    err = max(err, float(np.max(np.abs(A - 1))), float(np.max(np.abs(B[:, dim.j] - 1))))
    for a, va in zip(n, A):
        rhs = _phase(d, -2 * a * n)[:, None] * (B * va)
        err = max(err, float(np.max(np.abs(va * np.roll(B, a, axis=1) - rhs))))
    return _result("schwinger-relations", err, 1e-12)


def _state_probes(d: int) -> np.ndarray:
    """_STATE_PROBES seeded standard complex Gaussian columns, (d, k):
    real and imaginary parts independent N(0, 1/2), from the standard
    library's Mersenne Twister by Box-Muller (``grid._SeededDraws``)."""
    return _SeededDraws(17).complex_normals(d, _STATE_PROBES) / math.sqrt(2.0)


def _probe_detail(err: float, X: np.ndarray) -> str:
    """The probe error with its tolerance and what the tolerance means.

    Each block E (d x d, one per label alpha) is probed as E X, whose columns
    are the standard complex Gaussians of ``_state_probes``, drawn from the
    standard library's Mersenne Twister by Box-Muller.  For a standard
    complex Gaussian x, |(E x)_i|^2 is exponential with mean
    sum_m |E_im|^2 >= max_m |E_im|^2, so a row holding an entry error above
    _ENTRY_TOL keeps |(E x)_i| <= _PROBE_TOL with probability below
    (_PROBE_TOL/_ENTRY_TOL)^2, and escapes all k independent probes with
    probability below (_PROBE_TOL/_ENTRY_TOL)^(2k).  Conversely
    |(E X)_ik| <= max|E| ||X_k||_1, so a block whose entries all err by at most
    _PROBE_TOL / max_k ||X_k||_1 always passes.
    """
    escape = (_PROBE_TOL / _ENTRY_TOL) ** (2 * _STATE_PROBES)
    level = _PROBE_TOL / float(np.abs(X).sum(axis=0).max())
    return (
        f"probe error {err:.3e} (tol {_PROBE_TOL:.1e}); {_STATE_PROBES} seeded probes: "
        f"a block with an entry off by > {_ENTRY_TOL:.0e} escapes them with probability "
        f"< {escape:.0e}, one within {level:.1e} passes"
    )


def _label_chunks(dim: GridDim) -> list[np.ndarray]:
    """The labels alpha, a few at a time, so that about _STATES_PER_CHUNK
    states |alpha, beta> are held at once, not d^2."""
    return np.array_split(dim.indices(), math.ceil(dim.d * dim.d / _STATES_PER_CHUNK))


def _coherent_resolution(dim: GridDim, X: np.ndarray) -> CheckResult:
    """Unit states, and (1/d) sum_b |a,b><a,b| = diag(|G(n - a)|^2) for each a,
    which sums over a to the identity, probed as S_a^T (S_a^* X)/d against
    diag(|G(n - a)|^2) X for the (b, n) state block S_a of each label a."""
    d, j, n = dim.d, dim.j, dim.indices()
    norm_err = err = 0.0
    for fam in Family:
        family = frames.coherent_family(dim, fam)
        for a in _label_chunks(dim):
            S = family._states(a[:, None], n)  # [a, b + j, n + j]
            # the squares of the real and imaginary parts, summed in place of
            # np.linalg.norm, which makes a conjugate copy of the chunk
            parts = S.view(float)
            norms = np.sqrt(np.einsum("abk,abk->ab", parts, parts))
            norm_err = max(norm_err, float(np.max(np.abs(norms - 1.0))))
            # S_a^* X = (S_a X^*)^*, one GEMM over the whole chunk
            Y = (S.reshape(-1, d) @ X.conj()).conj().reshape(len(a), d, -1)
            E = S.transpose(0, 2, 1) @ Y
            E /= d
            E -= (np.abs(family.fiducial.values[(n - a[:, None] + j) % d]) ** 2)[..., None] * X
            err = max(err, float(np.max(np.abs(E))))
    passed = err <= _PROBE_TOL and norm_err <= _ENTRY_TOL
    detail = f"{_probe_detail(err, X)}; norm error {norm_err:.3e} (tol {_ENTRY_TOL:.1e})"
    return CheckResult("coherent-resolution-of-identity", passed, detail)


def _coherent_covariance(dim: GridDim, X: np.ndarray) -> CheckResult:
    """F |a, b>_2 = |b, -a>_3, probed for the (b, n) block of each label a as
    |a, .>_2 (F^T X) against |., -a>_3 X."""
    d, n = dim.d, dim.indices()
    fam2, fam3 = (frames.coherent_family(dim, fam) for fam in (Family.G2, Family.G3))
    FX = fourier_operator(dim).matrix.T @ X
    err = 0.0
    for a in _label_chunks(dim):
        E = fam2._states(a[:, None], n).reshape(-1, d) @ FX
        E -= fam3._states(n, -a[:, None]).reshape(-1, d) @ X
        err = max(err, float(np.max(np.abs(E))))
    return CheckResult("coherent-fourier-covariance", err <= _PROBE_TOL, _probe_detail(err, X))


def _check_frames(dim: GridDim) -> list[CheckResult]:
    out = [_schwinger_relations(dim)]
    d, j = dim.d, dim.j
    I = LinearOperator.identity(dim)
    D = partial(frames.displacement, dim)
    err = _op_err(D(0, 0), I)
    # four labels in -j..j; the modulo's bias, below d 2^-64, is immaterial here
    labels = [(a % d - j, b % d - j) for a, b in _SeededDraws(31).words(4, 2).tolist()]
    F = fourier_operator(dim)
    Fh = F.adjoint()
    labelled = [D(a, b) for a, b in labels]
    for (a1, b1), D1 in zip(labels, labelled):
        for (a2, b2), D2 in zip(labels, labelled):
            phase = _phase(d, a2 * b1 - a1 * b2)
            err = max(err, _op_err(D1 @ D2, phase * D(a1 + a2, b1 + b2)))
        err = max(err, _op_err(F @ D1 @ Fh, D(b1, -a1)))
    out.append(_result("displacement-composition-and-rotation", err, 1e-12))

    X = _state_probes(d)
    out.append(_coherent_resolution(dim, X))
    out.append(_coherent_covariance(dim, X))

    fam1 = frames.coherent_family(dim, Family.G1)
    err = _op_err(frames.quantize(fam1, lambda a, b: 1.0), I)
    err = max(err, float(np.max(np.abs(frames.dequantize(fam1, I) - 1.0))))
    out.append(_result("quantization-constant", err, 1e-10))

    canonical = [GridFunction.delta(dim, k) for k in dim.indices()]
    parseval = (frames.frame_analyze(canonical), frames.frame_analyze(fam1))
    ok = all(diag.is_tight and abs(diag.weight_sum - d) < 1e-10 for diag in parseval)
    ok = ok and not frames.frame_analyze(canonical[:1]).is_frame
    out.append(CheckResult("frame-analysis", ok, "canonical, scaled coherent, deficient"))
    return out


def _check_oscillators(dim: GridDim) -> list[CheckResult]:
    out = []
    d = dim.d
    F = fourier_operator(dim)
    HF = oscillators.fourier_hamiltonian(dim)
    HH = oscillators.harper_hamiltonian(dim)
    H = {i: oscillators.frame_hamiltonian(dim, i) for i in range(1, 6)}
    err = max(
        _op_err(F @ HF, HF @ F),
        _op_err(F @ HH, HH @ F),
        _op_err(F @ H[1], H[1] @ F),
    )
    out.append(_result("oscillator-fourier-invariance", err, 1e-10))
    # one product per side: F H F^+ would round the O(d^2) entries twice
    err = max(_op_err(F @ H[2], H[3] @ F), _op_err(F @ H[4], H[5] @ F))
    out.append(_result("frame-oscillator-covariance", err, 1e-10))

    HK = oscillators.kravchuk_hamiltonian(dim)
    out.append(_ladder_oscillator_algebra(kravchuk.su2_generators(dim), HK))

    try:
        basis = oscillators.harper_basis(dim)
    except oscillators.DegenerateSpectrumError as exc:
        out.append(CheckResult("harper-basis", False, str(exc)))
        for name in ("fractional-fourier", "deformed-reduction"):
            out.append(CheckResult(name, True, "skipped: harper-basis failed", skipped=True))
    else:
        err = max(
            float(np.max(np.abs(F.matrix @ h.values - e * h.values)))
            for e, h in zip(basis.fourier_eigenvalues, basis.functions)
        )
        out.append(_result("harper-basis", err, 1e-8))

        I = LinearOperator.identity(dim)
        err = max(
            _op_err(oscillators.fractional_fourier(dim, 0.0), I),
            _op_err(oscillators.fractional_fourier(dim, 1.0), F),
        )
        half = oscillators.fractional_fourier(dim, 0.5)
        err = max(err, _op_err(half @ half, F))
        err = max(err, _op_err(half @ half.adjoint(), I))
        out.append(_result("fractional-fourier", err, 1e-8))
        err = max(
            _op_err(oscillators.deformed_fourier_hamiltonian(dim, 1.0), HF),
            _op_err(oscillators.deformed_harper_hamiltonian(dim, 1.0), HH),
        )
        out.append(_result("deformed-reduction", err, 1e-8))

    err = 0.0
    refusals = []
    for fam in Family:
        try:
            osc = oscillators.gram_schmidt_oscillator(dim, fam)
        except ValueError as exc:
            refusals.append(f"{fam.value}: {exc}")  # refuse, do not fudge
            continue
        G = gaussians.normalized_gaussian(dim, fam)
        err = max(err, float(np.max(np.abs(osc.operator.matrix @ G.values - 0.5 * G.values))))
        eigs = hermitian_eigenvalues(osc.operator)
        err = max(err, float(np.max(np.abs(eigs - (np.arange(d) + 0.5)))))
    refused = f"refused {'; '.join(refusals)}"
    if len(refusals) == len(Family):
        out.append(CheckResult("gram-schmidt-ground-states", True, refused, skipped=True))
    else:
        detail = f"max error {err:.3e} (tol 1.0e-10)"
        if refusals:
            detail += f"; {refused}"
        out.append(CheckResult("gram-schmidt-ground-states", err <= 1e-10, detail))
    try:
        ks = oscillators.kravchuk_functions_via_orthonormalization(dim)
    except ValueError as exc:
        out.append(CheckResult("kravchuk-weight-factorization", True, f"skipped: {exc}", skipped=True))
    else:
        rows = kravchuk.kravchuk_table(dim).func
        err = max(float(np.max(np.abs(k.values - row))) for k, row in zip(ks, rows))
        out.append(_result("kravchuk-weight-factorization", err, 1e-8))

    dec = eigendecompose_hermitian(HK)
    report = oscillators.detect_revivals(dec, min_len=3, tol=1e-8)
    ok = report.full_length(d)
    if ok:
        prog = report.progressions[0]
        ok = abs(prog.gap - 1.0) < 1e-10 and abs(prog.period - 2 * np.pi) < 1e-8
        psi = _rand_state(dim, 5)
        psi = psi / psi.norm()
        evolved = oscillators.evolve_spectral(dec, psi, prog.period)
        ok = ok and abs(abs(inner_product(psi, evolved)) - 1.0) < 1e-8
    out.append(CheckResult("ladder-oscillator-revival", ok, "full progression, period 2 pi"))
    return out


def _check_goldens_d3() -> list[CheckResult]:
    dim = GOLDEN_DIM
    out = []
    dec = eigendecompose_hermitian(oscillators.fourier_hamiltonian(dim))
    F = fourier_operator(dim)
    # ascending Fourier-oscillator eigenvalues pick out the F eigenvectors
    # labelled -1, 1, 0
    err = 0.0
    for k, label in enumerate((-1, 1, 0)):
        f_eig, column = D3_FOURIER_EIGENVECTORS[label]
        v = dec.vector(k).values
        err = max(err, float(np.max(np.abs(v - canonical_phase(column.astype(complex))))))
        err = max(err, float(np.max(np.abs(F.matrix @ v - f_eig * v))))
    out.append(_result("golden-fourier-eigenvectors", err, 1e-12))

    table = kravchuk.kravchuk_table(dim)
    err = max(
        float(np.max(np.abs(table.func[m + 1] - D3_KRAVCHUK_COLUMNS[m]))) for m in (-1, 0, 1)
    )
    out.append(_result("golden-kravchuk-functions", err, 1e-12))

    err = 0.0
    for fam, expected in D3_GAUSSIANS.items():
        got = gaussians.normalized_gaussian(dim, fam).values.real
        err = max(err, float(np.max(np.abs(got - expected))))
    out.append(_result("golden-gaussians", err, 1e-12))

    # F[G1] = G1, F[G2 + G3] = G2 + G3, F[G2 - G3] = -(G2 - G3), unit norms
    G = {fam: gaussians.normalized_gaussian(dim, fam) for fam in Family}
    plus = G[Family.G2] + G[Family.G3]
    minus = G[Family.G2] - G[Family.G3]
    err = max(
        float(np.max(np.abs(fourier_transform(G[Family.G1]).values - G[Family.G1].values))),
        float(np.max(np.abs(fourier_transform(plus).values - plus.values))),
        float(np.max(np.abs(fourier_transform(minus).values + minus.values))),
        abs(G[Family.G2].norm() - 1.0),
        abs(G[Family.G3].norm() - 1.0),
    )
    out.append(_result("golden-gaussian-eigenvector-relations", err, 1e-12))

    for kind, expected in D3_SPECTRA.items():
        name = kind.split("-")[0]
        Hm = oscillators.hamiltonian(dim, name, family=1 if name == "frame" else None)
        got = hermitian_eigenvalues(Hm)
        out.append(
            _result(f"golden-spectrum-{kind}", float(np.max(np.abs(got - expected))), 1e-10)
        )
    return out


def run_checks(dim: GridDim) -> list[CheckResult]:
    """Run every check at the given dimension; d = 3 adds the radical tables.

    A grid past the Kravchuk float64 range raises ``InputError`` before any
    check runs."""
    kravchuk._check_grid(dim)
    results = []
    results += _check_fourier_algebra(dim)
    results += _check_eigensolver(dim)
    results += _check_gaussians(dim)
    results += _check_kravchuk(dim)
    results += _check_wigner(dim)
    results += _check_frames(dim)
    results += _check_oscillators(dim)
    if dim == GOLDEN_DIM:
        results += _check_goldens_d3()
    return results

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from finosc import checks, oscillators
from finosc.frames import schwinger
from finosc.gaussians import Family, gaussian, normalized_gaussian
from finosc.grid import (
    GridDim,
    GridFunction,
    InputError,
    LinearOperator,
    eigendecompose_hermitian,
    fourier_operator,
    inner_product,
    parity_operator,
)
from finosc.kravchuk import kravchuk_table, su2_generators
from finosc.oscillators import (
    DegenerateSpectrumError,
    deformed_fourier_hamiltonian,
    deformed_harper_hamiltonian,
    detect_revivals,
    difference_momentum_squared,
    evolve,
    evolve_spectral,
    fourier_hamiltonian,
    fractional_fourier,
    frame_hamiltonian,
    gram_schmidt_oscillator,
    hamiltonian,
    harper_basis,
    harper_hamiltonian,
    kravchuk_functions_via_orthonormalization,
    kravchuk_hamiltonian,
    orthonormal_functions_for_weight,
    position_squared,
    sign_alternations,
)
from finosc.oscillators import _symmetrized
from conftest import rand_state

S3 = 1 / math.sqrt(3)


def op_err(a, b):
    return np.max(np.abs(a.matrix - b.matrix))


class TestSpectraD3:
    def test_fourier_oscillator(self, d3):
        got = eigendecompose_hermitian(fourier_hamiltonian(d3)).eigenvalues
        expected = [0.5 * (1 - S3), 0.5 * (1 + S3), 1.0]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_harper_oscillator(self, d3):
        # parity-sector reduction of the circulant-plus-diagonal form gives
        # the closed-form spectrum (3 -+ sqrt(3))/2 on the even sector and 3
        # on the odd vector; at d = 3 the whole operator equals 3x the
        # Fourier oscillator
        got = eigendecompose_hermitian(harper_hamiltonian(d3)).eigenvalues
        expected = [(3 - math.sqrt(3)) / 2, (3 + math.sqrt(3)) / 2, 3.0]
        assert np.max(np.abs(got - expected)) < 1e-12
        assert op_err(harper_hamiltonian(d3), 3.0 * fourier_hamiltonian(d3)) < 1e-13

    def test_frame_oscillator(self, d3):
        got = eigendecompose_hermitian(frame_hamiltonian(d3, 1)).eigenvalues
        expected = np.sort([0.5 * (1 - 0.5 * S3), 0.75, 0.25 * (3 + S3)])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_ladder_oscillator_diagonal(self, d3):
        H = kravchuk_hamiltonian(d3)
        assert np.max(np.abs(H.matrix - np.diag([0.5, 1.5, 2.5]))) == 0.0


class TestStructure:
    @pytest.mark.parametrize("d", [3, 5, 101])
    def test_second_difference_matches_loop_reference(self, d):
        ref = 2.0 * np.eye(d, dtype=complex)
        for i in range(d):
            ref[i, (i + 1) % d] -= 1.0
            ref[i, (i - 1) % d] -= 1.0
        assert np.array_equal(difference_momentum_squared(GridDim.from_size(d)).matrix, ref)

    @pytest.mark.parametrize("d", [3, 5, 15, 101, 401])
    def test_second_difference_equals_the_two_weyl_power_form(self, d):
        # the former build, 2 I - A^{-1} - A from two dense Weyl powers
        dim = GridDim.from_size(d)
        weyl = 2.0 * LinearOperator.identity(dim) - schwinger(dim, "A", -1) - schwinger(dim, "A", 1)
        assert difference_momentum_squared(dim).matrix.tobytes() == weyl.matrix.tobytes()

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_hermitian_all_kinds(self, d):
        dim = GridDim.from_size(d)
        ops = [
            fourier_hamiltonian(dim),
            harper_hamiltonian(dim),
            kravchuk_hamiltonian(dim),
            frame_hamiltonian(dim, 2),
            deformed_fourier_hamiltonian(dim, 0.9),
            deformed_harper_hamiltonian(dim, 1.1),
        ]
        for H in ops:
            assert H.is_hermitian()

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_fourier_invariance(self, d):
        dim = GridDim.from_size(d)
        F = fourier_operator(dim)
        for H in (fourier_hamiltonian(dim), harper_hamiltonian(dim), frame_hamiltonian(dim, 1)):
            assert op_err(F @ H, H @ F) < 1e-10

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_frame_family_covariance(self, d):
        dim = GridDim.from_size(d)
        F = fourier_operator(dim)
        H = {i: frame_hamiltonian(dim, i) for i in (2, 3, 4, 5)}
        assert op_err(F @ H[2] @ F.adjoint(), H[3]) < 1e-10
        assert op_err(F @ H[4] @ F.adjoint(), H[5]) < 1e-10

    def test_ladder_commutators(self, d7):
        H = kravchuk_hamiltonian(d7)
        gen = su2_generators(d7)
        assert op_err(H @ gen.jplus - gen.jplus @ H, gen.jplus) < 1e-12
        assert op_err(H @ gen.jminus - gen.jminus @ H, -1.0 * gen.jminus) < 1e-12

    def test_ladder_normal_form(self, d7):
        gen = su2_generators(d7)
        built = 0.5 * (gen.jplus @ gen.jminus - gen.jminus @ gen.jplus) + (
            d7.j + 0.5
        ) * LinearOperator.identity(d7)
        assert op_err(kravchuk_hamiltonian(d7), built) < 1e-12

    def test_dispatcher(self, d3):
        assert op_err(hamiltonian(d3, "fourier"), fourier_hamiltonian(d3)) == 0.0
        assert op_err(hamiltonian(d3, "frame", family=2), frame_hamiltonian(d3, 2)) == 0.0
        with pytest.raises(ValueError):
            hamiltonian(d3, "frame")
        with pytest.raises(ValueError):
            hamiltonian(d3, "nonsense")
        with pytest.raises(ValueError):
            hamiltonian(d3, "deformed-fourier")


U = 2.0**-53  # the unit roundoff of float64


def product_forms(dim):
    """The Fourier and Harper Hamiltonians as the conjugations that define
    them, by dense complex products, as they were built before the closed
    forms."""
    F = fourier_operator(dim)
    Q2, P2 = position_squared(dim), difference_momentum_squared(dim)
    fourier = _symmetrized(0.5 * (F.adjoint() @ Q2 @ F) + 0.5 * Q2)
    harper = _symmetrized(0.5 * P2 + 0.5 * (F @ P2 @ F.adjoint()))
    return fourier, harper


def circulant_reference(d):
    """c(r) = (1/d) sum_m m^2 cos(2 pi m r/d) for r = -j..j, summed in 30-digit
    mpmath over the exact residues m r mod d."""
    j = (d - 1) // 2
    with mpmath.workdps(30):
        cos = [mpmath.cos(2 * mpmath.pi * k / d) for k in range(d)]
        half = [2 * mpmath.fsum(m * m * cos[m * r % d] for m in range(1, j + 1)) / d for r in range(j + 1)]
    return np.array([float(half[abs(r)]) for r in range(-j, j + 1)])


class TestClosedForms:
    """F^+ Q^2 F is the real circulant c(n - m) and F P^2 F^+ is
    diag(2 - 2 cos 2 pi n/d); both Hamiltonians are built from these forms."""

    @pytest.mark.parametrize("d", [3, 15, 101, 401])
    def test_match_the_product_forms(self, d):
        # Each product rounds length-d complex inner products whose absolute
        # terms sum to at most S = max_n (1/d) sum_m m^2 = c(0) = j(j+1)/3
        # (Fourier) or 4 (Harper): at most sqrt(2) gamma_{d+2} S, plus about
        # 5u S from the rounded entries of F.  Halved, and with the closed
        # forms' own rounding (below 10u S), that stays under 8 gamma_d S for
        # every d >= 3, gamma_d = d u.
        dim = GridDim.from_size(d)
        gamma = d * U
        fourier, harper = product_forms(dim)
        assert op_err(fourier_hamiltonian(dim), fourier) <= 8 * gamma * dim.j * (dim.j + 1) / 3
        assert op_err(harper_hamiltonian(dim), harper) <= 8 * gamma * 4

    @pytest.mark.parametrize("d", [3, 15, 101, 401])
    def test_circulant_matches_mpmath(self, d):
        # c(r) = (-1)^r cos x / (2 sin^2 x), x = pi r/d: the cosine errs by at
        # most about 5u absolutely and 1/(2 sin^2 x) <= d^2/8 < 1.7 c(0); the
        # sine, the square and the division add about 11u relatively, and
        # |c(r)| <= c(0), so c errs by less than 32 u c(0).
        dim = GridDim.from_size(d)
        # row n = 0 of 2H is c(-m) + 0 m^2, and c is even
        c = 2.0 * fourier_hamiltonian(dim).matrix[dim.j].real
        ref = circulant_reference(d)
        assert np.max(np.abs(c - ref)) <= 32 * U * ref[dim.j]

    @pytest.mark.parametrize("d", [3, 5, 15, 101, 401])
    @pytest.mark.parametrize("build", [fourier_hamiltonian, harper_hamiltonian])
    def test_exactly_real_symmetric_and_parity_invariant(self, d, build):
        dim = GridDim.from_size(d)
        H, P = build(dim), parity_operator(dim)
        assert np.all(H.matrix.imag == 0.0)
        assert np.array_equal(H.matrix, H.matrix.T)
        assert np.array_equal((P @ H).matrix, (H @ P).matrix)

    def test_harper_is_periodic_tridiagonal(self, d7):
        # 1/2 P^2 + diag(1 - cos 2 pi n/d): 2 - cos 2 pi n/d on the diagonal,
        # -1/2 beside it and in the corners
        n = d7.indices()
        H = harper_hamiltonian(d7).matrix.real
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(np.diag(H) - (2.0 - np.cos(2 * np.pi * n / d7.d)))) <= 4 * U
        assert np.array_equal(off, -0.5 * (np.roll(np.eye(7), 1, 0) + np.roll(np.eye(7), -1, 0)))


class TestSignAlternations:
    def test_simple_patterns(self):
        assert sign_alternations(np.array([1.0, 2.0, 1.0])) == 0
        assert sign_alternations(np.array([-1.0, 0.0, 1.0])) == 1
        assert sign_alternations(np.array([1.0, -1.0, 1.0])) == 2

    def test_near_zero_entries_skipped(self):
        v = np.array([1.0, 1e-12, 1.0])
        assert sign_alternations(v) == 0


class TestHarperBasis:
    def test_counts_are_a_permutation(self):
        # the Fourier-class labels coincide with the alternation counts
        # wherever the counts form a permutation
        for d in range(3, 39, 2):
            basis = harper_basis(GridDim.from_size(d))
            counts = [sign_alternations(h.values.real) for h in basis.functions]
            assert counts == list(range(d)), d

    def test_unseparated_classes_raise(self, d7, monkeypatch):
        # with F replaced by the identity every vector falls in class 0, so
        # the residual certificate must refuse the labelling
        H = harper_hamiltonian(d7)
        monkeypatch.setattr(oscillators, "harper_hamiltonian", lambda dim: H)
        monkeypatch.setattr(oscillators, "fourier_operator", LinearOperator.identity)
        with pytest.raises(DegenerateSpectrumError, match="Fourier classes are not separated"):
            harper_basis.__wrapped__(d7)

    @pytest.mark.parametrize("d", [39, 51, 101, 201])
    def test_fourier_class_labels_beyond_alternation_range(self, d):
        dim = GridDim.from_size(d)
        F = fourier_operator(dim).matrix
        H = harper_hamiltonian(dim).matrix
        basis = harper_basis(dim)
        V = np.column_stack([h.values for h in basis.functions])
        assert np.max(np.abs(F @ V - V * (-1j) ** np.arange(d))) < 1e-8
        assert np.max(np.abs(H @ V - V * basis.energies)) < 1e-10
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) < 1e-10
        for r in range(4):
            assert np.all(np.diff(basis.energies[r::4]) > 0)

    def test_fourier_eigenvalue_tags(self, d15):
        F = fourier_operator(d15)
        basis = harper_basis(d15)
        for n, h in enumerate(basis.functions):
            resid = np.max(np.abs(F.matrix @ h.values - (-1j) ** n * h.values))
            assert resid < 1e-8

    def test_ground_state_is_fourier_invariant(self, d15):
        F = fourier_operator(d15)
        h0 = harper_basis(d15).functions[0].values
        assert np.max(np.abs(F.matrix @ h0 - h0)) < 1e-8

    def test_orthonormal(self, d15):
        basis = harper_basis(d15)
        V = np.column_stack([h.values for h in basis.functions])
        assert np.max(np.abs(V.conj().T @ V - np.eye(d15.d))) < 1e-10

    def test_one_eigensolve_per_grid(self):
        # the checks and fractional_fourier share one cached basis per grid
        harper_basis.cache_clear()
        checks._check_oscillators(GridDim.from_size(37))
        assert harper_basis.cache_info().misses == 1

    @pytest.mark.parametrize("d", list(range(3, 33, 2)))
    def test_no_degeneracies_through_d31(self, d):
        harper_basis(GridDim.from_size(d))  # raises DegenerateSpectrumError on failure

    def test_energies_follow_alternation_order(self, d7):
        basis = harper_basis(d7)
        H = harper_hamiltonian(d7)
        for e, h in zip(basis.energies, basis.functions):
            assert np.max(np.abs(H.matrix @ h.values - e * h.values)) < 1e-10
        # alternation order differs from energy order: the odd top state
        # outranks its even neighbour
        assert not basis.energy_order_consistent


# --- the reference implementation: the former classifier, which solves H
# whole and guesses each eigenvector's Fourier class from the phase of <v, Fv>


def classified_harper_basis(dim):
    """(columns, energies) of the Harper basis labelled 4k + r by classifying
    one eigenbasis of H, certified by max |F h_n - (-i)^n h_n| <= 1e-8."""
    dec = eigendecompose_hermitian(harper_hamiltonian(dim))
    assert np.all(np.diff(dec.eigenvalues) >= 1e-10)
    V = dec.columns
    FV = fourier_operator(dim).matrix @ V
    classes = np.rint(-np.angle(np.sum(V.conj() * FV, axis=0)) / (np.pi / 2)).astype(int) % 4
    rank = np.array([np.count_nonzero(classes[:i] == r) for i, r in enumerate(classes)])
    order = np.argsort(4 * rank + classes)
    phases = np.array([(-1j) ** n for n in range(dim.d)])
    assert np.max(np.abs(FV[:, order] - V[:, order] * phases)) <= 1e-8
    return V[:, order], dec.eigenvalues[order]


class TestHarperBasisByClass:
    @pytest.mark.parametrize("d", list(range(3, 63, 2)) + [201, 401])
    def test_matches_the_classifier(self, d):
        dim = GridDim.from_size(d)
        columns, energies = classified_harper_basis(dim)
        basis = harper_basis(dim)
        assert np.max(np.abs(basis.columns - columns)) <= 1e-12
        assert np.max(np.abs(basis.energies - energies)) <= 1e-12

    def test_fourier_residual_at_rounding_level(self):
        # eps d / 2 = 2.2e-14 at d = 201; classifying one eigenbasis gave 4.7e-14
        dim = GridDim.from_size(201)
        basis = harper_basis(dim)
        V = basis.columns
        resid = np.max(np.abs(fourier_operator(dim).matrix @ V - V * basis.fourier_eigenvalues))
        assert resid <= np.finfo(float).eps * dim.d / 2

    @pytest.mark.parametrize("d", [101, 103, 201])
    def test_fourier_eigenvalues_are_exact(self, d):
        # (-1j) ** n in floating point drifts from n = 101 on
        exact = [(1, -1j, -1, 1j)[n % 4] for n in range(d)]
        assert np.array_equal(harper_basis(GridDim.from_size(d)).fourier_eigenvalues, exact)

    def test_tie_inside_one_class_raises(self, d7, monkeypatch):
        # with H the identity every class is one degenerate eigenspace; the
        # first tie is between the two labels of class 0
        monkeypatch.setattr(oscillators, "harper_hamiltonian", LinearOperator.identity)
        with pytest.raises(DegenerateSpectrumError, match="Harper eigenvalues 0 and 4 differ"):
            harper_basis.__wrapped__(d7)

    def test_solves_no_complex_eigenbasis(self, d7, monkeypatch):
        def fail(M):
            raise AssertionError("harper_basis solved H whole")

        monkeypatch.setattr(oscillators, "eigendecompose_hermitian", fail)
        basis = harper_basis.__wrapped__(d7)
        assert np.array_equal(basis.columns, harper_basis(d7).columns)


class TestFractionalFourier:
    def test_zeroth_power_is_identity(self, d15):
        assert op_err(fractional_fourier(d15, 0.0), LinearOperator.identity(d15)) < 1e-10

    def test_first_power_is_fourier(self, d15):
        assert op_err(fractional_fourier(d15, 1.0), fourier_operator(d15)) < 1e-8

    def test_half_powers_compose(self, d15):
        half = fractional_fourier(d15, 0.5)
        assert op_err(half @ half, fourier_operator(d15)) < 1e-8

    def test_additivity_and_unitarity(self, d15):
        a, b = 0.37, 0.81
        lhs = fractional_fourier(d15, a) @ fractional_fourier(d15, b)
        assert op_err(lhs, fractional_fourier(d15, a + b)) < 1e-10
        U = fractional_fourier(d15, a)
        assert op_err(U @ U.adjoint(), LinearOperator.identity(d15)) < 1e-12

    @pytest.mark.parametrize("d", [39, 51, 101, 201])
    def test_large_dimensions(self, d):
        dim = GridDim.from_size(d)
        F = fourier_operator(dim)
        half = fractional_fourier(dim, 0.5)
        assert op_err(fractional_fourier(dim, 1.0), F) < 1e-8
        assert op_err(half @ half, F) < 1e-8
        assert op_err(half @ half.adjoint(), LinearOperator.identity(dim)) < 1e-12


class TestDeformed:
    def test_reduce_at_unit_exponent(self):
        for d in (15, 39, 51, 101, 201):
            dim = GridDim.from_size(d)
            assert op_err(deformed_fourier_hamiltonian(dim, 1.0), fourier_hamiltonian(dim)) < 1e-8
            assert op_err(deformed_harper_hamiltonian(dim, 1.0), harper_hamiltonian(dim)) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5, 2.7])
    def test_exponent_range_enforced(self, d7, alpha):
        with pytest.raises(ValueError):
            deformed_fourier_hamiltonian(d7, alpha)
        with pytest.raises(ValueError):
            deformed_harper_hamiltonian(d7, alpha)


class TestKindDispatch:
    @pytest.mark.parametrize("kind, shown", [(3, "3"), (None, "None"), ("Lattice", "'lattice'")])
    def test_unknown_kinds_are_refused_by_name(self, d7, kind, shown):
        with pytest.raises(InputError, match=f"^unknown oscillator kind {shown}$"):
            hamiltonian(d7, kind)

    def test_kind_is_read_case_blind(self, d7):
        assert np.array_equal(hamiltonian(d7, "Harper").matrix, harper_hamiltonian(d7).matrix)


class TestGramSchmidt:
    def test_ground_state_eigenvalue(self, d15):
        osc = gram_schmidt_oscillator(d15, Family.G1)
        G = normalized_gaussian(d15, Family.G1)
        assert np.max(np.abs(osc.operator.matrix @ G.values - 0.5 * G.values)) < 1e-10

    def test_spectrum_is_half_integers_d3(self, d3):
        osc = gram_schmidt_oscillator(d3, Family.G4)
        got = eigendecompose_hermitian(osc.operator).eigenvalues
        assert np.max(np.abs(got - [0.5, 1.5, 2.5])) < 1e-12

    def test_functions_orthonormal(self, d15):
        osc = gram_schmidt_oscillator(d15, Family.G3)
        V = np.column_stack([f.values.real for f in osc.functions])
        assert np.max(np.abs(V.T @ V - np.eye(d15.d))) < 1e-12

    def test_binomial_weight_recovers_kravchuk(self, d7):
        table = kravchuk_table(d7)
        funcs = kravchuk_functions_via_orthonormalization(d7)
        for mi in range(d7.d):
            assert np.max(np.abs(funcs[mi].values.real - table.func[mi])) < 1e-8

    def test_zero_weight_rejected(self, d3):
        with pytest.raises(ValueError, match=r"^amplitude vanishes at n = \[0\]"):
            orthonormal_functions_for_weight(d3, np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_input_rejected(self, d3, bad):
        with pytest.raises(ValueError, match="^amplitude must be finite$"):
            orthonormal_functions_for_weight(d3, np.array([1.0, bad, 1.0]))

    def test_gaussian_with_a_zero_refused_by_name(self):
        # G1 at d = 949 is 0.0 in float64 at n = +-474 and nowhere else
        with pytest.raises(ValueError, match=r"^amplitude vanishes at n = \[-474, 474\]; "):
            gram_schmidt_oscillator(GridDim.from_size(949), Family.G1)

    def test_runs_of_zero_labels_are_named_by_their_ends(self):
        # G5 at d = 601 is 0.0 in float64 on the 112 labels 245 <= |n| <= 300
        with pytest.raises(ValueError, match=r"^amplitude vanishes at n = \[-300\.\.-245, 245\.\.300\]; "):
            gram_schmidt_oscillator(GridDim.from_size(601), Family.G5)

    def test_signed_amplitude_flips_the_ladder_exactly(self, d15):
        # a sign pattern s commutes with diag(n), so Lanczos from s*a is s times Lanczos from a
        a = normalized_gaussian(d15, Family.G1).values.real
        s = np.where(d15.indices() % 3, -1.0, 1.0)
        Q, beta = orthonormal_functions_for_weight(d15, a)
        Qs, beta_s = orthonormal_functions_for_weight(d15, s * a)
        assert np.array_equal(Qs, s[:, None] * Q) and beta_s == beta

    def test_lanczos_breakdown_refused(self):
        # the cosine-power weight G5^2 collapses the Krylov space from d = 25
        with pytest.raises(ValueError, match=r"Lanczos breakdown at step \d+: beta_k/j = "):
            gram_schmidt_oscillator(GridDim.from_size(31), Family.G5)

    def test_min_beta_reported(self, d7):
        osc = gram_schmidt_oscillator(d7, Family.G1)
        Q = np.column_stack([f.values.real for f in osc.functions])
        beta = np.diag(Q.T @ np.diag(d7.indices().astype(float)) @ Q, 1)
        assert osc.min_beta == pytest.approx(np.min(np.abs(beta)) / d7.j, rel=1e-12)
        assert 1e-10 <= osc.min_beta < 1.0

    # from d = 475 the weight G^2 underflows to 0 at the edges, but G does not
    @pytest.mark.parametrize("d", [25, 51, 101, 201, 601])
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_large_dimensions(self, d, i):
        dim = GridDim.from_size(d)
        osc = gram_schmidt_oscillator(dim, i)
        G = normalized_gaussian(dim, Family(f"g{i}")).values
        assert np.max(np.abs(osc.operator.matrix @ G - 0.5 * G)) < 1e-10
        got = eigendecompose_hermitian(osc.operator).eigenvalues
        assert np.max(np.abs(got - (np.arange(d) + 0.5))) < 1e-10
        # Lanczos vectors tridiagonalize diag(n)
        Q = np.column_stack([f.values.real for f in osc.functions])
        T = Q.T @ np.diag(dim.indices().astype(float)) @ Q
        assert np.max(np.abs(np.triu(T, 2))) < 1e-13 * dim.j

    @pytest.mark.parametrize("d", [7, 23])
    def test_integer_and_enum_family_agree_uncached(self, d):
        dim = GridDim.from_size(d)
        by_int, by_enum = gram_schmidt_oscillator(dim, 1), gram_schmidt_oscillator(dim, Family.G1)
        assert by_int.family is by_enum.family is Family.G1
        assert np.array_equal(by_int.columns, by_enum.columns)
        assert np.array_equal(by_int.operator.matrix, by_enum.operator.matrix)
        # no cache keyed on the raw argument holds a second copy of the ladder
        assert not hasattr(gram_schmidt_oscillator, "cache_info")

    def test_binomial_weight_recovers_kravchuk_d101(self):
        dim = GridDim.from_size(101)
        table = kravchuk_table(dim)
        funcs = kravchuk_functions_via_orthonormalization(dim)
        err = max(np.max(np.abs(f.values.real - table.func[mi])) for mi, f in enumerate(funcs))
        assert err < 1e-12


class TestEvolution:
    def test_zero_time_is_identity(self, d7):
        psi = rand_state(d7, 1)
        out = evolve(kravchuk_hamiltonian(d7), psi, 0.0)
        assert np.max(np.abs(out.values - psi.values)) < 1e-12

    def test_norm_preserved(self, d7):
        psi = rand_state(d7, 2)
        out = evolve(harper_hamiltonian(d7), psi, 3.7)
        assert out.norm() == pytest.approx(psi.norm(), abs=1e-10)

    def test_equispaced_spectrum_revives_at_full_period(self, d7):
        psi = rand_state(d7, 3, normalize=True)
        out = evolve(kravchuk_hamiltonian(d7), psi, 2 * math.pi)
        assert abs(inner_product(psi, out)) == pytest.approx(1.0, abs=1e-10)

    def test_ground_state_picks_up_half_phase(self, d15):
        osc = gram_schmidt_oscillator(d15, Family.G1)
        G = normalized_gaussian(d15, Family.G1)
        t = 1.7
        out = evolve(osc.operator, G, t)
        expected = np.exp(-0.5j * t) * G.values
        assert np.max(np.abs(out.values - expected)) < 1e-10

    @pytest.mark.parametrize("kind", ["harper", "kravchuk", "fourier"])
    @pytest.mark.parametrize("d", [3, 37, 101])
    def test_array_of_times_equals_each_scalar_call(self, d, kind):
        # the revival command's 200 samples from 0 to twice the longest period
        dim = GridDim.from_size(d)
        dec = eigendecompose_hermitian(hamiltonian(dim, kind))
        runs = detect_revivals(dec).progressions
        horizon = 2.0 * max(runs, key=lambda p: p.length).period if runs else 4.0 * math.pi
        ts = np.linspace(0.0, horizon, 200)
        psi = rand_state(dim, d, normalize=True)
        rows = evolve_spectral(dec, psi, ts)
        assert len(rows) == 200 and ts[0] == 0.0 and ts[-1] == horizon
        for t, row in zip(ts, rows):
            assert np.array_equal(row.values, evolve_spectral(dec, psi, float(t)).values)
            assert row.dim == dim and not row.values.flags.writeable

    def test_sequence_and_empty_times(self, d7):
        dec = eigendecompose_hermitian(harper_hamiltonian(d7))
        psi = rand_state(d7, 4)
        rows = evolve_spectral(dec, psi, [0.0, 1.5])
        assert np.array_equal(rows[1].values, evolve_spectral(dec, psi, 1.5).values)
        assert evolve_spectral(dec, psi, np.array([])) == ()

    def test_two_dimensional_times_are_refused_by_name(self, d7):
        dec = eigendecompose_hermitian(harper_hamiltonian(d7))
        message = r"^times must be one value or a 1-D array, got shape \(2, 3\)$"
        with pytest.raises(InputError, match=message):
            evolve_spectral(dec, rand_state(d7, 4), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "t", [math.nan, math.inf, -math.inf, np.array([0.0, 1.5, math.nan]), [1.0, -math.inf]]
    )
    def test_non_finite_times_are_refused_by_name(self, d7, t):
        dec = eigendecompose_hermitian(harper_hamiltonian(d7))
        with pytest.raises(InputError, match="^evolution time t must be finite, got (nan|inf|-inf)$"):
            evolve_spectral(dec, rand_state(d7, 4), t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_evolve_refuses_a_non_finite_time(self, d7, t):
        with pytest.raises(InputError, match="^evolution time t must be finite"):
            evolve(harper_hamiltonian(d7), rand_state(d7, 4), t)


def two_branch_evolve(dec, psi, t):
    """The former evolve_spectral: a scalar branch with one matrix-vector
    product and a stacked branch over a float cast of the times."""
    V = dec.columns
    coeff = V.conj().T @ psi.values
    if np.ndim(t) == 0:
        return V @ (np.exp(-1j * t * dec.eigenvalues) * coeff)
    t = np.asarray(t, dtype=float)
    rows = np.exp(-1j * t[:, None] * dec.eigenvalues) * coeff
    return (V @ rows[:, :, None])[:, :, 0]


class TestOneEvolutionPath:
    TIMES = [0.0, 0.37, 5.1, 123.4, 3, [0.0, 1.5, 2], np.linspace(-7.0, 40.0, 7), np.array([])]

    @pytest.mark.parametrize("kind", ["harper", "kravchuk"])
    @pytest.mark.parametrize("d", [3, 15, 101, 401])
    def test_bit_equal_to_the_two_branch_form(self, d, kind):
        dim = GridDim.from_size(d)
        dec = eigendecompose_hermitian(hamiltonian(dim, kind))
        psi = rand_state(dim, d)
        for t in self.TIMES:
            got, want = evolve_spectral(dec, psi, t), two_branch_evolve(dec, psi, t)
            if np.ndim(t) == 0:
                assert isinstance(got, GridFunction) and got.dim == dim
                assert got.values.tobytes() == want.tobytes()
            else:
                assert isinstance(got, tuple) and len(got) == len(want)
                assert all(row.values.tobytes() == w.tobytes() for row, w in zip(got, want))

    @pytest.mark.parametrize(
        "t, dtype",
        [(1j, "complex128"), (np.array([0.5, 2j]), "complex128"), ("1.5", "<U3"), (True, "bool")],
        ids=["complex", "complex-entry", "string", "boolean"],
    )
    def test_times_that_are_not_real_numbers_are_refused_by_name(self, d7, t, dtype):
        dec = eigendecompose_hermitian(harper_hamiltonian(d7))
        message = f"^evolution time t must be an integer or float, got dtype {re.escape(dtype)}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=message):
                evolve_spectral(dec, rand_state(d7, 4), t)
            with pytest.raises(InputError, match=message):
                evolve(harper_hamiltonian(d7), rand_state(d7, 4), t)

    def test_a_state_of_another_dimension_is_refused_by_name(self, d7):
        dec = eigendecompose_hermitian(harper_hamiltonian(d7))
        psi = rand_state(GridDim.from_size(5), 4)
        for t in (1.0, [1.0, 2.0]):
            with pytest.raises(InputError, match="^dimension mismatch: d=7 vs d=5$"):
                evolve_spectral(dec, psi, t)


class TestRevivalDetection:
    def test_equispaced_ladder(self, d7):
        dec = eigendecompose_hermitian(kravchuk_hamiltonian(d7))
        report = detect_revivals(dec, min_len=3, tol=1e-8)
        assert len(report.progressions) == 1
        prog = report.progressions[0]
        assert prog.length == d7.d
        assert prog.gap == pytest.approx(1.0, abs=1e-12)
        assert prog.period == pytest.approx(2 * math.pi, abs=1e-10)

    def test_unequal_gaps_yield_nothing(self, d3):
        dec = eigendecompose_hermitian(fourier_hamiltonian(d3))
        report = detect_revivals(dec, min_len=3, tol=1e-6)
        assert report.progressions == ()

    def test_two_level_spectrum_is_empty(self, d3):
        dec = eigendecompose_hermitian(LinearOperator.diagonal(d3, [0.0, 0.0, 1.0]))
        assert detect_revivals(dec, min_len=3, tol=1e-10).progressions == ()

    def test_partial_run_detected(self, d7):
        levels = [0.0, 1.0, 2.0, 3.0, 10.0, 20.0, 21.5]
        dec = eigendecompose_hermitian(LinearOperator.diagonal(d7, levels))
        report = detect_revivals(dec, min_len=3, tol=1e-9)
        assert len(report.progressions) == 1
        assert report.progressions[0].start == 0
        assert report.progressions[0].length == 4

    def test_validation(self, d3):
        dec = eigendecompose_hermitian(kravchuk_hamiltonian(d3))
        with pytest.raises(ValueError):
            detect_revivals(dec, min_len=3, tol=0.0)
        with pytest.raises(ValueError):
            detect_revivals(dec, min_len=2, tol=1e-8)

    def test_fractional_min_len_is_refused_by_name(self, d3):
        dec = eigendecompose_hermitian(kravchuk_hamiltonian(d3))
        with pytest.raises(InputError, match="^min_len must be an integer, got 3.5$"):
            detect_revivals(dec, min_len=3.5)

    def test_integral_float_min_len_is_read_as_an_int(self, d7):
        levels = [0.0, 1.0, 2.0, 3.0, 10.0, 20.0, 21.5]
        dec = eigendecompose_hermitian(LinearOperator.diagonal(d7, levels))
        assert detect_revivals(dec, min_len=4.0) == detect_revivals(dec, min_len=4)
        assert detect_revivals(dec, min_len=5.0).progressions == ()


def _covariance_result(dim):
    from finosc.checks import _check_oscillators

    return next(r for r in _check_oscillators(dim) if r.name == "frame-oscillator-covariance")


class TestFrameOscillatorCovarianceCheck:
    """F H_2 = H_3 F and F H_4 = H_5 F, one product per side: the conjugated
    form F H_2 F^+ = H_3 rounded the O(d^2) entries twice and read 1.6e-10
    against the 1e-10 tolerance at d = 161."""

    @pytest.mark.parametrize("d", [131, 161, 201])
    def test_passes_at_large_d(self, d):
        result = _covariance_result(GridDim.from_size(d))
        assert result.passed and result.detail.endswith("(tol 1.0e-10)"), result.detail

    @pytest.mark.parametrize("defect", ["swapped-families", "dropped-fourier", "flipped-symbol-sign"])
    @pytest.mark.parametrize("d", [15, 131])
    def test_defects_fail(self, d, defect, monkeypatch):
        from finosc import checks

        orig = oscillators.frame_hamiltonian
        if defect == "swapped-families":
            mutant = lambda dim, i: orig(dim, {3: 5, 5: 3}.get(i, i))  # noqa: E731
            monkeypatch.setattr(oscillators, "frame_hamiltonian", mutant)
        elif defect == "flipped-symbol-sign":  # H_3 from the symbol -(a^2 + b^2)/2
            mutant = lambda dim, i: -orig(dim, i) if i == 3 else orig(dim, i)  # noqa: E731
            monkeypatch.setattr(oscillators, "frame_hamiltonian", mutant)
        else:
            monkeypatch.setattr(checks, "fourier_operator", LinearOperator.identity)
        result = _covariance_result(GridDim.from_size(d))
        assert not result.passed, result.detail

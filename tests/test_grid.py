import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finosc
from finosc.grid import (
    ConvergenceError,
    GridDim,
    GridFunction,
    InputError,
    LinearOperator,
    SpectralDecomposition,
    canonical_phase,
    convolve,
    eigendecompose_hermitian,
    fourier_operator,
    fourier_transform,
    hermitian_eigenvalues,
    inner_product,
    inverse_fourier_transform,
    operator_exponential,
    outer,
    parity_operator,
)
from finosc import checks, grid
from finosc.frames import FiniteFrame, coherent_family, dequantize, displacement, frame_analyze, schwinger
from finosc.gaussians import Family, gaussian, theta
from finosc.oscillators import (
    deformed_fourier_hamiltonian,
    detect_revivals,
    fourier_hamiltonian,
    fractional_fourier,
    frame_hamiltonian,
    gram_schmidt_oscillator,
    hamiltonian,
    harper_basis,
    kravchuk_functions_via_orthonormalization,
    kravchuk_hamiltonian,
    sign_alternations,
)
from finosc.kravchuk import (
    kravchuk_function,
    kravchuk_function_hypergeometric,
    kravchuk_polynomial,
    kravchuk_table,
)
from finosc.wigner import wigner, wigner_fourier_covariance_check, wigner_product_decomposition
from conftest import rand_state

odd_dims = st.integers(min_value=1, max_value=12).map(lambda j: GridDim(j))


class TestGridDim:
    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 10, -3])
    def test_rejects_non_odd_sizes(self, bad):
        with pytest.raises(ValueError):
            GridDim.from_size(bad)

    @pytest.mark.parametrize("size", [5.5, math.nan, math.inf, -math.inf])
    def test_refuses_a_size_that_is_not_an_integer_by_name(self, size):
        with pytest.raises(InputError, match=f"^dimension must be an integer, got {size}$"):
            GridDim.from_size(size)

    @pytest.mark.parametrize(
        "size, shown", [("7", "str '7'"), (b"7", "bytes b'7'"), ("abc", "str 'abc'"), (None, "NoneType None")]
    )
    def test_refuses_a_size_that_is_not_a_number_by_name(self, size, shown):
        with pytest.raises(InputError, match=f"^dimension must be an integer, got {re.escape(shown)}$"):
            GridDim.from_size(size)

    @pytest.mark.parametrize("size", [7.0, np.float64(7.0), np.int64(7)])
    def test_integral_size_of_any_type(self, size):
        dim = GridDim.from_size(size)
        assert dim == GridDim(3) and type(dim.j) is int and dim.d == 7

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            GridDim(0)

    def test_indices_and_wrap(self):
        dim = GridDim.from_size(5)
        assert list(dim.indices()) == [-2, -1, 0, 1, 2]
        assert dim.wrap(3) == -2
        assert dim.wrap(-3) == 2
        assert dim.wrap(7) == 2


class TestInputError:
    """Each input rule of the library refuses with InputError, a ValueError."""

    def test_is_a_value_error_exported_at_top_level(self):
        assert issubclass(InputError, ValueError)
        assert finosc.InputError is InputError

    @pytest.mark.parametrize(
        "call",
        [
            lambda dim: GridDim.from_size(4),
            lambda dim: GridDim.from_size(1),
            lambda dim: gaussian(dim, Family.G1, -1.0),
            lambda dim: gaussian(dim, Family.G2, math.nan),
            lambda dim: gaussian(dim, Family.G1, math.inf),
            lambda dim: gaussian(dim, Family.G2, math.inf),
            lambda dim: gaussian(dim, Family.G4, 2.0),
            lambda dim: deformed_fourier_hamiltonian(dim, 2.5),
            lambda dim: hamiltonian(dim, "frame"),
            lambda dim: hamiltonian(dim, "gramschmidt"),
            lambda dim: hamiltonian(dim, "deformed-harper"),
            lambda dim: hamiltonian(dim, "deformed-fourier", alpha=0.0),
            lambda dim: hamiltonian(dim, "no-such-kind"),
            lambda dim: detect_revivals(eigendecompose_hermitian(kravchuk_hamiltonian(dim)), tol=0.0),
            lambda dim: detect_revivals(eigendecompose_hermitian(kravchuk_hamiltonian(dim)), tol=math.nan),
            lambda dim: detect_revivals(eigendecompose_hermitian(kravchuk_hamiltonian(dim)), tol=math.inf),
            lambda dim: detect_revivals(eigendecompose_hermitian(kravchuk_hamiltonian(dim)), min_len=2),
            lambda dim: Family.from_label("g6"),
            lambda dim: frame_hamiltonian(dim, 6),
            lambda dim: gram_schmidt_oscillator(dim, 6),
            lambda dim: schwinger(dim, "C"),
            lambda dim: theta(5, 0.0, 1j),
            lambda dim: theta(3, 0.0, -1j),
            lambda dim: dequantize(coherent_family(dim, Family.G4), LinearOperator.identity(GridDim(1))),
            lambda dim: LinearOperator.identity(dim) @ LinearOperator.identity(GridDim(1)),
            lambda dim: LinearOperator.identity(dim) @ GridFunction.zero(GridDim(1)),
            lambda dim: inner_product(GridFunction.zero(dim), GridFunction.zero(GridDim(1))),
            lambda dim: convolve(GridFunction.zero(dim), GridFunction.zero(GridDim(1))),
            lambda dim: wigner_product_decomposition(dim, Family.G4, 1.0),
            lambda dim: wigner_product_decomposition(dim, Family.G1, -1.0),
            lambda dim: wigner_product_decomposition(dim, Family.G2, 0.0),
            lambda dim: wigner_product_decomposition(dim, Family.G3, math.inf),
            lambda dim: frame_analyze(np.eye(dim.d), tol=0.0),
            lambda dim: frame_analyze(np.eye(dim.d), tol=math.nan),
            lambda dim: frame_analyze(np.eye(dim.d)[:2], tol=math.inf),
            lambda dim: kravchuk_polynomial(dim, 7, 0),
            lambda dim: kravchuk_function(dim, 0, -3),
            lambda dim: kravchuk_function_hypergeometric(dim, 3, 0),
            lambda dim: fractional_fourier(dim, math.nan),
            lambda dim: fractional_fourier(dim, math.inf),
            lambda dim: GridDim.from_size(5.5),
            lambda dim: GridDim.from_size(math.nan),
            lambda dim: GridDim.from_size(math.inf),
        ],
        ids=[
            "even-dim",
            "dim-1",
            "negative-kappa",
            "nan-kappa",
            "inf-kappa-g1",
            "inf-kappa-g2",
            "kappa-on-g4",
            "alpha-out-of-range",
            "frame-without-family",
            "gramschmidt-without-family",
            "deformed-without-alpha",
            "alpha-zero",
            "unknown-kind",
            "zero-tol",
            "nan-tol",
            "inf-tol",
            "min-len-2",
            "unknown-family-label",
            "frame-hamiltonian-family-6",
            "gram-schmidt-family-6",
            "schwinger-tag",
            "theta-kind",
            "theta-lower-half-plane",
            "dequantize-dimension-mismatch",
            "matmul-dimension-mismatch",
            "apply-dimension-mismatch",
            "inner-product-dimension-mismatch",
            "convolve-dimension-mismatch",
            "wigner-product-family-g4",
            "wigner-product-negative-kappa",
            "wigner-product-zero-kappa",
            "wigner-product-inf-kappa",
            "frame-analyze-zero-tol",
            "frame-analyze-nan-tol",
            "frame-analyze-inf-tol",
            "kravchuk-polynomial-m-7",
            "kravchuk-function-n-minus-3",
            "kravchuk-hypergeometric-m-3",
            "fractional-fourier-nan-alpha",
            "fractional-fourier-inf-alpha",
            "dimension-5.5",
            "dimension-nan",
            "dimension-inf",
        ],
    )
    def test_library_rules_raise_input_error(self, call):
        with pytest.raises(InputError):
            call(GridDim.from_size(5))


# each route that takes a grid label or a power: (call of (dim, label), the name it reports)
LABEL_ROUTES = {
    "kravchuk-polynomial-m": (lambda dim, x: kravchuk_polynomial(dim, x, 0), "m"),
    "kravchuk-function-n": (lambda dim, x: kravchuk_function(dim, 0, x), "n"),
    "kravchuk-table-function-m": (lambda dim, x: kravchuk_table(dim).function(x, 0), "m"),
    "displacement-alpha": (lambda dim, x: displacement(dim, x, 0).matrix, "alpha"),
    "displacement-beta": (lambda dim, x: displacement(dim, 0, x).matrix, "beta"),
    "schwinger-power": (lambda dim, x: schwinger(dim, "A", x).matrix, "power"),
    "wrap": (lambda dim, x: dim.wrap(x), "index"),
    "getitem": (lambda dim, x: GridFunction.delta(dim, 1)[x], "index"),
    "delta-k": (lambda dim, x: GridFunction.delta(dim, x).values, "k"),
    "entry-n": (lambda dim, x: fourier_operator(dim).entry(x, 1), "n"),
    "entry-m": (lambda dim, x: fourier_operator(dim).entry(1, x), "m"),
    "wigner-value-n": (lambda dim, x: wigner(GridFunction(dim, [1, 2, 3j, 4, 5])).value(x, 1), "n"),
    "wigner-value-m": (lambda dim, x: wigner(GridFunction(dim, [1, 2, 3j, 4, 5])).value(1, x), "m"),
}


class TestIntegerLabels:
    """A label or power with a fractional part is refused by name, never truncated."""

    @pytest.mark.parametrize("value", [0.5, 1.9, math.nan, 1.5, math.inf, -math.inf])
    @pytest.mark.parametrize("route", LABEL_ROUTES)
    def test_fractional_label_is_refused(self, route, value):
        call, name = LABEL_ROUTES[route]
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {value}$"):
            call(GridDim.from_size(5), value)

    @pytest.mark.parametrize("value", ["1", b"1", "abc", None, 1j], ids=["str", "bytes", "word", "none", "complex"])
    @pytest.mark.parametrize("route", LABEL_ROUTES)
    def test_label_that_is_not_a_real_number_is_refused(self, route, value):
        call, name = LABEL_ROUTES[route]
        message = f"^{name} must be an integer, got {type(value).__name__} {re.escape(repr(value))}$"
        with pytest.raises(InputError, match=message):
            call(GridDim.from_size(5), value)

    @pytest.mark.parametrize("value", [2, np.int64(2), 2.0], ids=["int", "int64", "float"])
    @pytest.mark.parametrize("route", LABEL_ROUTES)
    def test_integral_label_is_taken(self, route, value):
        call, _ = LABEL_ROUTES[route]
        dim = GridDim.from_size(5)
        assert np.array_equal(call(dim, value), call(dim, 2))


class TestInnerProduct:
    def test_delta_orthonormality(self, d3):
        for k in d3.indices():
            for l in d3.indices():
                ip = inner_product(GridFunction.delta(d3, k), GridFunction.delta(d3, l))
                assert ip == (1.0 if k == l else 0.0)

    def test_zero_vector(self, d3):
        z = GridFunction.zero(d3)
        assert inner_product(z, z) == 0.0

    def test_hand_evaluated_three_term_sum(self, d3):
        phi = GridFunction(d3, [1, 1j, 0])
        psi = GridFunction(d3, [1, 1, 1])
        assert inner_product(phi, psi) == pytest.approx(1 - 1j, abs=1e-15)

    def test_conjugate_linear_in_first_argument(self, d7):
        phi, psi = rand_state(d7, 1), rand_state(d7, 2)
        lhs = inner_product(2j * phi, psi)
        assert lhs == pytest.approx(np.conj(2j) * inner_product(phi, psi), abs=1e-12)

    def test_dimension_mismatch(self, d3, d7):
        with pytest.raises(ValueError):
            inner_product(GridFunction.zero(d3), GridFunction.zero(d7))


class TestFourier:
    def test_delta_goes_flat(self, d3):
        f = fourier_transform(GridFunction.delta(d3, 0))
        assert np.allclose(f.values, 1 / math.sqrt(3), atol=1e-15)

    def test_square_reflects(self, d15):
        psi = rand_state(d15, 3)
        twice = fourier_transform(fourier_transform(psi))
        assert np.max(np.abs(twice.values - psi.reflected().values)) < 1e-13

    def test_odd_eigenvector_d3(self, d3):
        v = GridFunction(d3, [-1 / math.sqrt(2), 0, 1 / math.sqrt(2)])
        out = fourier_transform(v)
        assert np.max(np.abs(out.values - (-1j) * v.values)) < 1e-15

    @settings(max_examples=30, deadline=None)
    @given(dim=odd_dims, seed=st.integers(0, 2**31))
    def test_unitarity(self, dim, seed):
        psi = rand_state(dim, seed)
        assert fourier_transform(psi).norm() == pytest.approx(psi.norm(), abs=1e-12)

    @pytest.mark.parametrize("d", [3, 45, 201])
    def test_unitarity_large(self, d):
        dim = GridDim.from_size(d)
        psi = rand_state(dim, 5)
        assert abs(fourier_transform(psi).norm() - psi.norm()) < 1e-12 * psi.norm()

    @pytest.mark.parametrize("d", [3, 9, 15])
    def test_fourth_power_is_identity(self, d):
        dim = GridDim.from_size(d)
        F = fourier_operator(dim)
        F4 = F @ F @ F @ F
        assert np.max(np.abs(F4.matrix - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [3, 15, 101])
    def test_parity_matches_loop_reference(self, d):
        ref = np.zeros((d, d), dtype=complex)
        for i in range(d):
            ref[d - 1 - i, i] = 1.0
        assert np.array_equal(parity_operator(GridDim.from_size(d)).matrix, ref)

    def test_square_is_parity_operator(self, d15):
        F = fourier_operator(d15)
        assert np.max(np.abs((F @ F).matrix - parity_operator(d15).matrix)) < 1e-12

    def test_even_functions_are_self_dual(self, d15):
        rng = np.random.default_rng(8)
        half = rng.normal(size=d15.j + 1)
        even = GridFunction(d15, np.concatenate([half[:0:-1], half]))
        fwd = fourier_transform(even)
        bwd = inverse_fourier_transform(even)
        assert np.max(np.abs(fwd.values - bwd.values)) < 1e-12

    def test_inverse_roundtrip(self, d7):
        psi = rand_state(d7, 9)
        back = inverse_fourier_transform(fourier_transform(psi))
        assert np.max(np.abs(back.values - psi.values)) < 1e-13


class TestConvolution:
    def test_delta_is_unit(self, d7):
        psi = rand_state(d7, 11)
        out = convolve(GridFunction.delta(d7, 0), psi)
        assert np.max(np.abs(out.values - psi.values)) == 0.0

    def test_shift_wraps_mod_d(self, d3):
        out = convolve(GridFunction.delta(d3, 1), GridFunction.delta(d3, 1))
        assert np.max(np.abs(out.values - GridFunction.delta(d3, -1).values)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(dim=odd_dims, seed=st.integers(0, 2**31))
    def test_commutative(self, dim, seed):
        phi, psi = rand_state(dim, seed), rand_state(dim, seed + 1)
        ab = convolve(phi, psi).values
        ba = convolve(psi, phi).values
        assert np.max(np.abs(ab - ba)) < 1e-12

    def test_fourier_factorization(self, d15):
        phi, psi = rand_state(d15, 13), rand_state(d15, 14)
        lhs = fourier_transform(convolve(phi, psi)).values
        rhs = math.sqrt(d15.d) * fourier_transform(phi).values * fourier_transform(psi).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestReducedFourierPhase:
    """F[n, k] = e^{-2 pi i nk/d}/sqrt(d) takes its phase at nk mod d."""

    @pytest.mark.parametrize("d", [101, 401])
    def test_entries_equal_bit_for_bit_on_equal_residues(self, d):
        dim = GridDim.from_size(d)
        n, j = dim.indices(), dim.j
        F = fourier_operator(dim).matrix
        # F[1, nk mod d] shares the residue of F[n, k]
        same_residue = F[j + 1][(np.outer(n, n) + j) % d]
        assert np.array_equal(F.view(np.uint64), same_residue.view(np.uint64))

    @pytest.mark.parametrize("d", [3, 101, 401])
    def test_conjugate_symmetric_bit_for_bit(self, d):
        # every root is evaluated at its exponent in (-d, d], so F(n, -k) = conj F(n, k)
        # exactly; only m = d mod 2d, never a DFT exponent, is its own partner
        m = np.arange(-3 * d, 3 * d)
        m = m[m % (2 * d) != d]
        assert np.array_equal(grid._phase(d, -m), grid._phase(d, m).conj())
        F = fourier_operator(GridDim.from_size(d)).matrix
        assert np.array_equal(F[:, ::-1], F.conj())

    @pytest.mark.parametrize("d", [3, 37, 401])
    def test_cached_roots_give_the_per_call_table_bit_for_bit(self, d):
        r = np.arange(2 * d)
        r[d + 1 :] -= 2 * d
        per_call = np.exp(1j * np.pi * r / d)
        m = np.arange(-3 * d, 3 * d)
        assert np.array_equal(grid._phase(d, m).view(np.uint64), per_call[m % (2 * d)].view(np.uint64))
        assert grid._phase(d, 5 * d + 1) == per_call[(5 * d + 1) % (2 * d)]
        roots = grid._roots(d)
        assert grid._roots(d) is roots and not roots.flags.writeable
        # a gather is a new array, so callers may scale it in place
        assert grid._phase(d, m).flags.writeable

    def test_roots_cache_is_bounded(self):
        assert grid._roots.cache_parameters()["maxsize"] == grid._ROOTS_CACHE_SIZE
        for d in range(3, 2 * grid._ROOTS_CACHE_SIZE + 8, 2):
            grid._phase(d, 1)
        assert grid._roots.cache_info().currsize == grid._ROOTS_CACHE_SIZE

    @pytest.mark.parametrize("d", [107, 197, 201])
    def test_fourier_algebra_checks_pass(self, d):
        results = checks._check_fourier_algebra(GridDim.from_size(d))
        assert [r.name for r in results if not r.passed] == []

    @pytest.mark.parametrize(
        "mutant",
        [
            # the sqrt(d) factor dropped: F(phi * psi)/sqrt(d) against sqrt(d) (F phi)(F psi)
            lambda phi, psi: convolve(phi, psi) / math.sqrt(phi.dim.d),
            # the left side transformed with the sign of the DFT flipped
            lambda phi, psi: convolve(phi, psi).reflected(),
            # the convolution index shifted by one, psi(n - m - 1)
            lambda phi, psi: GridFunction(phi.dim, np.roll(convolve(phi, psi).values, 1)),
        ],
        ids=["sqrt-d-dropped", "dft-sign-flipped", "index-shifted"],
    )
    @pytest.mark.parametrize("d", [107, 197, 201])
    def test_factorization_check_fails_on_mutants(self, d, mutant, monkeypatch):
        monkeypatch.setattr(checks, "convolve", mutant)
        results = {r.name: r for r in checks._check_fourier_algebra(GridDim.from_size(d))}
        assert not results["convolution-fourier-factorization"].passed


def random_hermitian(dim: GridDim, seed: int) -> LinearOperator:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim.d, dim.d)) + 1j * rng.normal(size=(dim.d, dim.d))
    return LinearOperator(dim, (raw + raw.conj().T) / 2)


class TestEigendecomposition:
    def test_already_diagonal(self, d3):
        dec = eigendecompose_hermitian(LinearOperator.diagonal(d3, [-1.0, 0.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [-1, 0, 1], atol=1e-15)
        for k, n in enumerate(d3.indices()):
            expected = GridFunction.delta(d3, [-1, 0, 1][k]).values
            assert np.max(np.abs(dec.vector(k).values - expected)) < 1e-14

    def test_spin_x_spectrum_d3(self, d3):
        jx = LinearOperator(d3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2))
        dec = eigendecompose_hermitian(jx)
        assert np.max(np.abs(dec.eigenvalues - np.array([-1.0, 0.0, 1.0]))) < 1e-12

    def test_rejects_non_hermitian(self, d3):
        with pytest.raises(ValueError, match="Hermitian"):
            eigendecompose_hermitian(LinearOperator(d3, np.triu(np.ones((3, 3)))))

    @settings(max_examples=20, deadline=None)
    @given(dim=odd_dims, seed=st.integers(0, 2**31))
    def test_reconstruction_and_orthonormality(self, dim, seed):
        M = random_hermitian(dim, seed)
        dec = eigendecompose_hermitian(M)
        scale = M.frobenius_norm()
        assert np.max(np.abs(dec.reconstruct().matrix - M.matrix)) <= 1e-10 * scale
        V = dec.vector_matrix()
        assert np.max(np.abs(V.conj().T @ V - np.eye(dim.d))) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        for k in range(dim.d):
            resid = M.matrix @ dec.vector(k).values - dec.eigenvalues[k] * dec.vector(k).values
            assert np.max(np.abs(resid)) <= 1e-10 * scale

    def test_deterministic_repeat(self, d7):
        M = random_hermitian(d7, 99)
        a = eigendecompose_hermitian(M)
        b = eigendecompose_hermitian(M)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        for va, vb in zip(a.eigenvectors, b.eigenvectors):
            assert np.array_equal(va.values, vb.values)

    def test_degenerate_cluster_stays_orthonormal(self, d3):
        # doubly degenerate eigenvalue 1 plus a separated one
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        M = LinearOperator(d3, np.eye(3) + np.outer(v, v))
        dec = eigendecompose_hermitian(M)
        V = dec.vector_matrix()
        assert np.max(np.abs(V.conj().T @ V - np.eye(3))) < 1e-12
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 2.0], atol=1e-12)

    def test_phase_convention_positive_pivot(self, d7):
        dec = eigendecompose_hermitian(random_hermitian(d7, 17))
        for vec in dec.eigenvectors:
            fixed = canonical_phase(vec.values)
            assert np.max(np.abs(fixed - vec.values)) < 1e-15
            i = int(np.argmax(np.abs(vec.values)))
            assert abs(vec.values[i].imag) < 1e-12
            assert vec.values[i].real > 0

    def test_lapack_failure_raises_convergence_error(self, d3, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="LAPACK"):
            eigendecompose_hermitian(LinearOperator.diagonal(d3, [1.0, 2.0, 3.0]))

    def test_takes_no_settings(self, d3):
        # the two tolerances are module constants, so a second argument is refused
        with pytest.raises(TypeError):
            eigendecompose_hermitian(LinearOperator.identity(d3), None)

    @pytest.mark.parametrize("skew, accepted", [(1e-10, True), (1.5e-10, False)])
    def test_one_hermiticity_rule(self, d3, skew, accepted):
        # the solver refuses exactly the operators that is_hermitian rejects
        m = np.eye(3, dtype=complex)
        m[0, 2] = skew
        M = LinearOperator(d3, m)
        assert M.is_hermitian() is accepted
        if accepted:
            eigendecompose_hermitian(M)
        else:
            with pytest.raises(ValueError, match="^operator is not Hermitian within tolerance$"):
                eigendecompose_hermitian(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, d3, bad):
        m = np.eye(3, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose_hermitian(LinearOperator(d3, m))

    def test_zero_matrix(self, d3):
        dec = eigendecompose_hermitian(LinearOperator(d3, np.zeros((3, 3))))
        assert np.array_equal(dec.eigenvalues, np.zeros(3))
        assert dec.residual == 0.0

    def test_residual_is_relative_to_the_norm(self, d7):
        M = random_hermitian(d7, 3)
        for scale in (1e-8, 1.0, 1e8):
            dec = eigendecompose_hermitian(M * scale)
            assert 0.0 < dec.residual <= 1e-12

    def test_residual_defaults_to_nan(self, d3):
        dec = SpectralDecomposition(d3, np.zeros(3), tuple(GridFunction.zero(d3) for _ in range(3)))
        assert math.isnan(dec.residual)

    def test_constructor_keeps_a_given_residual(self, d3):
        dec = SpectralDecomposition(d3, np.zeros(3), np.eye(3), residual=2.5e-16)
        assert dec.residual == 2.5e-16

    def test_residual_is_formed_on_first_read_only(self, d7, monkeypatch):
        # the solve forms no A V - V Lambda; the first read forms it once from
        # the same working copy, so it is the value an eager solve would store
        M = random_hermitian(d7, 3)
        calls = []
        working_copy = grid._hermitian_working_copy
        monkeypatch.setattr(grid, "_hermitian_working_copy", lambda op: calls.append(op) or working_copy(op))
        dec = eigendecompose_hermitian(M)
        assert len(calls) == 1
        A = (M.matrix + M.matrix.conj().T) / 2.0
        V = dec.columns
        eager = float(np.max(np.linalg.norm(A @ V - V * dec.eigenvalues, axis=0))) / float(np.linalg.norm(A))
        assert dec.residual == eager and dec.residual == eager
        assert len(calls) == 2


# --- the reference implementations: the cyclic Jacobi loop, an eigensolver
# that shares no code with LAPACK, and the eigenvector convention built one
# column at a time (a one-vector canonical_phase applied per column)


def _off_mass(a: np.ndarray) -> float:
    # summed directly over the off-diagonal: subtracting the diagonal mass
    # from the total cancels catastrophically once convergence sets in
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenpairs(
    A: np.ndarray, norm: float, off_tol: float = 1e-14, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations in lexicographic (p, q) order, applied to ``A``
    in place, until the off-diagonal Frobenius mass drops below ``off_tol``
    times ``norm``.  Returns the unsorted diagonal and the accumulated
    rotations as columns."""
    d = A.shape[0]
    V = np.eye(d, dtype=complex)
    threshold = off_tol * norm
    skip = threshold / (2.0 * d)
    converged = False
    for _ in range(max_sweeps):
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
            f"Jacobi did not converge in {max_sweeps} sweeps "
            f"(off mass {_off_mass(A):.3e}, target {threshold:.3e})"
        )
    return np.diag(A).real, V


def loop_canonical_phase(v, tie_tol=1e-9):
    """The former one-vector canonical_phase."""
    mags = np.abs(v)
    top = float(mags.max())
    if top == 0.0:
        return v
    i = int(np.argmax(mags >= top * (1.0 - tie_tol)))
    return v * (np.conj(v[i]) / mags[i])


def loop_eigendecompose(M, jacobi=False):
    """(eigenvalues, columns) under the eigenvector convention, built one
    column at a time, from LAPACK or, with ``jacobi``, from the Jacobi loop."""
    d = M.dim.d
    A = (M.matrix + M.matrix.conj().T) / 2.0
    norm = float(np.linalg.norm(A))
    if norm == 0.0:
        return np.zeros(d), np.eye(d, dtype=complex)
    if jacobi:
        vals, V = jacobi_eigenpairs(A.copy(), norm)
    else:
        vals, V = np.linalg.eigh(A)
    order = np.argsort(vals, kind="stable")
    vals, V = vals[order], V[:, order]
    start = 0
    for k in range(1, d + 1):
        if k == d or vals[k] - vals[k - 1] >= grid._DEGENERACY_GAP:
            if k - start > 1:
                for a in range(start, k):
                    v = V[:, a]
                    for b in range(start, a):
                        v = v - np.vdot(V[:, b], v) * V[:, b]
                    V[:, a] = v / np.linalg.norm(v)
            start = k
    return vals, np.column_stack([loop_canonical_phase(V[:, k]) for k in range(d)])


def assert_lapack_matches_jacobi(M: LinearOperator) -> tuple[SpectralDecomposition, np.ndarray, np.ndarray]:
    """The library's LAPACK path against the Jacobi oracle: eigenvalues, the
    projector onto each degenerate cluster, and the phase convention.
    Returns the library's decomposition and the oracle's eigenpairs."""
    lapack = eigendecompose_hermitian(M)
    vals, Vj = loop_eigendecompose(M, jacobi=True)
    scale = M.frobenius_norm()
    assert np.max(np.abs(lapack.eigenvalues - vals)) <= 1e-12 * scale
    cuts = [0] + [k for k in range(1, len(vals)) if vals[k] - vals[k - 1] >= grid._DEGENERACY_GAP]
    Vl = lapack.vector_matrix()
    for a, b in zip(cuts, cuts[1:] + [len(vals)]):
        Pl = Vl[:, a:b] @ Vl[:, a:b].conj().T
        Pj = Vj[:, a:b] @ Vj[:, a:b].conj().T
        assert np.max(np.abs(Pl - Pj)) <= 1e-10
    for V in (Vl, Vj):
        assert np.max(np.abs(canonical_phase(V) - V)) < 1e-15
    return lapack, vals, Vj


# every oscillator kind, as hamiltonian(dim, kind, **options)
OSCILLATOR_KINDS = (
    [("fourier", {}), ("harper", {}), ("kravchuk", {})]
    + [("frame", {"family": i}) for i in range(1, 6)]
    + [("gramschmidt", {"family": i}) for i in range(1, 5)]
    + [("deformed-fourier", {"alpha": 0.7}), ("deformed-harper", {"alpha": 1.3})]
)
KIND_IDS = [kind + "".join(f"-{v}" for v in options.values()) for kind, options in OSCILLATOR_KINDS]


class TestLapackAgainstJacobi:
    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(min_value=1, max_value=15).map(GridDim), seed=st.integers(0, 2**31))
    @example(dim=GridDim(15), seed=7)
    def test_random_hermitian(self, dim, seed):
        M = random_hermitian(dim, seed)
        lapack, vals, V = assert_lapack_matches_jacobi(M)
        jacobi_residual = np.max(np.linalg.norm(M.matrix @ V - V * vals, axis=0)) / M.frobenius_norm()
        assert lapack.residual <= 1e-12 and jacobi_residual <= 1e-12

    def test_degenerate_rank_one_update(self, d3):
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        assert_lapack_matches_jacobi(LinearOperator(d3, np.eye(3) + np.outer(v, v)))

    def test_spin_x(self, d3):
        jx = LinearOperator(d3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2))
        assert_lapack_matches_jacobi(jx)

    def test_fourier_hamiltonian_d15(self, d15):
        assert_lapack_matches_jacobi(fourier_hamiltonian(d15))

    @pytest.mark.parametrize("kind, options", OSCILLATOR_KINDS, ids=KIND_IDS)
    def test_every_oscillator_kind_d37(self, kind, options):
        assert_lapack_matches_jacobi(hamiltonian(GridDim.from_size(37), kind, **options))


def special_operators(dim):
    """The identity, a rank-one projector, the zero matrix and a random one."""
    v = np.arange(1, dim.d + 1) + 0.5j
    return [
        LinearOperator.identity(dim),
        LinearOperator(dim, np.outer(v, v.conj()) / np.vdot(v, v).real),
        LinearOperator(dim, np.zeros((dim.d, dim.d))),
        random_hermitian(dim, dim.d),
    ]


# two backward-stable solves of one matrix differ in each eigenvalue by at most
# the sum of their backward errors, each taken as d u ||A||_F (Weyl)
EIGENVALUE_ROUTE_C = 2.0


def assert_matches_loop_reference(M):
    dec = eigendecompose_hermitian(M)
    vals, columns = loop_eigendecompose(M)
    A = (M.matrix + M.matrix.conj().T) / 2.0
    got = hermitian_eigenvalues(M)
    assert np.array_equal(got, np.linalg.eigvalsh(A))
    assert np.all(np.diff(got) >= 0.0)
    bound = EIGENVALUE_ROUTE_C * M.dim.d * np.finfo(float).eps * np.linalg.norm(A)
    assert np.max(np.abs(got - dec.eigenvalues)) <= bound
    assert np.array_equal(dec.eigenvalues, vals)
    assert np.array_equal(dec.columns, columns)
    assert dec.columns.flags.c_contiguous


class TestEigenvaluesOnly:
    """hermitian_eigenvalues returns LAPACK's values-only eigenvalues of the
    symmetrized copy bit for bit, ascending and within 2 d u ||A||_F of those
    of eigendecompose_hermitian, whose columns equal the one-column-at-a-time
    phase loop; the Jacobi oracle agrees with both within its tolerances."""

    @pytest.mark.parametrize(
        "reference",
        [assert_matches_loop_reference, assert_lapack_matches_jacobi],
        ids=["lapack", "jacobi"],
    )
    @pytest.mark.parametrize("d", [3, 7, 37])
    def test_special_operators(self, d, reference):
        for M in special_operators(GridDim.from_size(d)):
            reference(M)

    @pytest.mark.parametrize("d", [101, 201])
    def test_special_operators_large(self, d):
        for M in special_operators(GridDim.from_size(d)):
            assert_matches_loop_reference(M)

    @pytest.mark.parametrize("d", [3, 37, 101, 201])
    def test_every_oscillator_kind(self, d):
        dim = GridDim.from_size(d)
        for kind, options in OSCILLATOR_KINDS:
            assert_matches_loop_reference(hamiltonian(dim, kind, **options))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(min_value=1, max_value=100).map(GridDim), seed=st.integers(0, 2**31))
    def test_random_hermitian(self, dim, seed):
        assert_matches_loop_reference(random_hermitian(dim, seed))

    @settings(max_examples=10, deadline=None)
    @given(dim=odd_dims, seed=st.integers(0, 2**31))
    def test_random_hermitian_jacobi(self, dim, seed):
        M = random_hermitian(dim, seed)
        vals, _ = loop_eigendecompose(M, jacobi=True)
        assert np.max(np.abs(hermitian_eigenvalues(M) - vals)) <= 1e-12 * M.frobenius_norm()

    def test_zero_matrix(self, d3):
        got = hermitian_eigenvalues(LinearOperator(d3, np.zeros((3, 3))))
        assert np.array_equal(got, np.zeros(3)) and got.dtype == float

    @pytest.mark.parametrize("solve", [eigendecompose_hermitian, hermitian_eigenvalues])
    def test_same_errors(self, d3, solve, monkeypatch):
        bad = np.eye(3, dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="^operator has non-finite entries$"):
            solve(LinearOperator(d3, bad))
        with pytest.raises(ValueError, match="^operator is not Hermitian within tolerance$"):
            solve(LinearOperator(d3, np.triu(np.ones((3, 3)))))

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="^LAPACK eigh did not converge: Eigenvalues"):
            solve(LinearOperator.diagonal(d3, [1.0, 2.0, 3.0]))


class TestOnePassCanonicalPhase:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 40), k=st.integers(1, 12), seed=st.integers(0, 2**31))
    def test_columns_match_the_per_column_loop(self, d, k, seed):
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        V[:, rng.random(k) < 0.2] = 0.0  # zero columns are left as they are
        V[-1] = V[0]  # a tie between the first and last entry
        expected = np.column_stack([loop_canonical_phase(V[:, c]) for c in range(k)])
        assert np.array_equal(canonical_phase(V), expected)

    def test_one_vector(self, d7):
        v = rand_state(d7, 3).values
        assert np.array_equal(canonical_phase(v), loop_canonical_phase(v))
        assert np.array_equal(canonical_phase(np.zeros(7, dtype=complex)), np.zeros(7))

    def test_single_entry_array(self):
        # numpy multiplies a (1, 1) array by the (1,) phases in its two-array
        # loop, not the array-by-scalar one, so the imaginary part can differ
        # from the one-vector form in the last bit: here it is exactly 0
        v = np.array([[0.18905338 - 0.52274844j]])
        got = canonical_phase(v)
        assert got.imag[0, 0] == 0.0 and got.real[0, 0] > 0.0
        assert abs(got[0, 0] - loop_canonical_phase(v[:, 0])[0]) <= 1e-16

    def test_tie_breaks_toward_lowest_index(self):
        v = np.array([1j * (1 - 1e-12), 0.5, -1j])
        expected = [1 - 1e-12, -0.5j, -1.0]
        assert np.array_equal(canonical_phase(v), expected)
        both = np.column_stack([v, 1j * v])
        assert np.array_equal(canonical_phase(both), np.column_stack([expected, expected]))


class TestOperatorExponential:
    @pytest.mark.parametrize("scale", [math.nan, -math.inf, complex(0.0, math.inf), complex(math.nan, 1.0)])
    def test_non_finite_scale_is_refused_by_name(self, d3, scale):
        with pytest.raises(InputError, match="^exponential scale must be finite, got "):
            operator_exponential(LinearOperator.identity(d3), scale)

    def test_zero_matrix_gives_identity(self, d3):
        U = operator_exponential(LinearOperator(d3, np.zeros((3, 3))), 1.0)
        assert np.max(np.abs(U.matrix - np.eye(3))) < 1e-14

    def test_spin_z_half_turn(self, d3):
        jz = LinearOperator.diagonal(d3, [-1.0, 0.0, 1.0])
        U = operator_exponential(jz, 1j * math.pi)
        assert np.max(np.abs(U.matrix - np.diag([-1, 1, -1]))) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(dim=odd_dims, seed=st.integers(0, 2**31), t=st.floats(-5, 5))
    def test_imaginary_scale_is_unitary(self, dim, seed, t):
        M = random_hermitian(dim, seed)
        U = operator_exponential(M, 1j * t)
        assert np.max(np.abs((U @ U.adjoint()).matrix - np.eye(dim.d))) < 1e-12


# every way to obtain a GridFunction: the public constructor, results the
# library adopts without a copy, and read-only views of stored arrays
GRID_FUNCTION_SOURCES = {
    "constructor": lambda dim: GridFunction(dim, np.arange(dim.d)),
    "delta": lambda dim: GridFunction.delta(dim, 0),
    "sum": lambda dim: GridFunction.delta(dim, 0) + GridFunction.delta(dim, 1),
    "quotient": lambda dim: GridFunction.delta(dim, 0) / 2.0,
    "reflected": lambda dim: GridFunction.delta(dim, 1).reflected(),
    "applied": lambda dim: fourier_transform(GridFunction.delta(dim, 0)),
    "eigenvector": lambda dim: eigendecompose_hermitian(fourier_hamiltonian(dim)).eigenvectors[1],
    "vector": lambda dim: eigendecompose_hermitian(fourier_hamiltonian(dim)).vector(0),
    "harper": lambda dim: harper_basis(dim).functions[0],
    "gram-schmidt": lambda dim: gram_schmidt_oscillator(dim, 1).functions[-1],
    "kravchuk-ladder": lambda dim: kravchuk_functions_via_orthonormalization(dim)[1],
    "coherent-state": lambda dim: coherent_family(dim, Family.G4).state(1, -1),
    "frame-vector": lambda dim: frame_analyze(np.eye(dim.d)).frame.vectors[2],
}


def vector_systems(dim: GridDim) -> dict:
    """(views, stored array, axis the vectors run along) of every system of
    vectors that stores one array."""
    dec = eigendecompose_hermitian(random_hermitian(dim, 5))
    basis = harper_basis(dim)
    osc = gram_schmidt_oscillator(dim, 1)
    fam = coherent_family(dim, Family.G1)
    frame = frame_analyze(fam.state_matrix() / math.sqrt(dim.d)).frame
    return {
        "spectral": (dec.eigenvectors, dec.columns, 1),
        "harper": (basis.functions, basis.columns, 1),
        "gram-schmidt": (osc.functions, osc.columns, 1),
        "frame": (frame.vectors, frame.rows, 0),
    }


class TestStoredVectorArrays:
    @pytest.mark.parametrize("system", ["spectral", "harper", "gram-schmidt", "frame"])
    @pytest.mark.parametrize("d", [3, 7])
    def test_views_are_read_only_slices_of_the_stored_array(self, system, d):
        views, stored, axis = vector_systems(GridDim.from_size(d))[system]
        assert not stored.flags.writeable
        assert len(views) == stored.shape[axis]
        for k, v in enumerate(views):
            assert np.array_equal(v.values, stored[:, k] if axis else stored[k])
            assert np.shares_memory(v.values, stored)
            assert not v.values.flags.writeable
        with pytest.raises(ValueError):
            views[0].values.setflags(write=True)

    def test_vector_matrix_is_the_stored_array(self, d7):
        dec = eigendecompose_hermitian(random_hermitian(d7, 8))
        V = dec.vector_matrix()
        assert V is dec.vector_matrix() and V is dec.columns
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 1.0
        for k in range(d7.d):
            assert np.array_equal(dec.vector(k).values, V[:, k])

    def test_constructors_accept_arrays_and_grid_functions(self, d7):
        dec = eigendecompose_hermitian(random_hermitian(d7, 9))
        from_tuple = SpectralDecomposition(d7, dec.eigenvalues, dec.eigenvectors)
        from_array = SpectralDecomposition(d7, dec.eigenvalues, dec.columns)
        assert np.array_equal(from_tuple.columns, dec.columns)
        assert np.array_equal(from_array.columns, dec.columns)
        assert from_array.columns is not dec.columns
        with pytest.raises(ValueError, match="shape"):
            SpectralDecomposition(d7, dec.eigenvalues, dec.columns[:, :-1])

    @pytest.mark.parametrize("kind", ["grid-function", "operator", "spectral", "frame"])
    def test_public_constructors_copy(self, d3, kind):
        # mutating the caller's array afterwards leaves the object unchanged
        a = np.eye(3, dtype=complex)
        if kind == "grid-function":
            a = a[0]
            stored = GridFunction(d3, a).values
        elif kind == "operator":
            stored = LinearOperator(d3, a).matrix
        elif kind == "spectral":
            stored = SpectralDecomposition(d3, np.arange(3.0), a).columns
        else:
            stored = FiniteFrame(d3, a, np.ones(3)).rows
        before = stored.copy()
        a *= 7.0
        assert np.array_equal(stored, before)
        assert not np.shares_memory(stored, a)


class TestGridFunctionBasics:
    def test_periodic_indexing(self, d3):
        psi = GridFunction(d3, [10, 20, 30])
        assert psi[-1] == 10 and psi[0] == 20 and psi[1] == 30
        assert psi[2] == 10 and psi[-2] == 30 and psi[4] == 30

    def test_values_read_only(self, d3):
        for source, make in GRID_FUNCTION_SOURCES.items():
            psi = make(d3)
            with pytest.raises(ValueError):
                psi.values[0] = 5
            assert not psi.values.flags.writeable, source

    def test_outer_product(self, d3):
        a, b = GridFunction.delta(d3, -1), GridFunction.delta(d3, 1)
        op = outer(a, b)
        assert op.entry(-1, 1) == 1.0
        assert op.entry(1, -1) == 0.0


class TestSeededDraws:
    """The library's seeded draws (the checks' probes, the CLI's random state)."""

    N = 200_000

    def test_complex_normals_are_standard(self):
        z = grid._SeededDraws(5).complex_normals(self.N)
        # 5 sigma CLT bounds: over n independent N(0, 1) draws the sample mean
        # has standard deviation 1/sqrt(n), the sample variance sqrt(2/n), and
        # the correlation of two independent parts about 1/sqrt(n)
        n = self.N
        for part in (z.real, z.imag):
            assert abs(part.mean()) <= 5 / math.sqrt(n)
            assert abs(part.var() - 1.0) <= 5 * math.sqrt(2 / n)
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) <= 5 / math.sqrt(n)
        assert np.array_equal(z, grid._SeededDraws(5).complex_normals(n))

    def test_shapes_and_ranges(self):
        draws = grid._SeededDraws(1)
        assert draws.complex_normals(3, 4).shape == (3, 4)
        assert draws.words(2, 5).dtype == np.uint64 and draws.words(2, 5).shape == (2, 5)
        u = draws.uniforms(1000)
        assert u.min() >= 0.0 and u.max() < 1.0 and np.all(u * 2.0**53 == np.floor(u * 2.0**53))
        assert not np.array_equal(grid._SeededDraws(1).words(8), grid._SeededDraws(2).words(8))


# each tolerance is a fixed value; the keyword that once set it is refused
FIXED_TOLERANCES = {
    "canonical_phase-tie_tol": lambda d: canonical_phase(np.ones(3, dtype=complex), tie_tol=1e-9),
    "sign_alternations-zero_tol": lambda d: sign_alternations(np.ones(3), zero_tol=1e-9),
    "wigner-imag_tol": lambda d: wigner(GridFunction.delta(d, 0), imag_tol=1e-12),
    "wigner_fourier_covariance_check-tol": lambda d: wigner_fourier_covariance_check(
        GridFunction.delta(d, 0), tol=1e-10
    ),
    "is_even-tol": lambda d: GridFunction.delta(d, 0).is_even(tol=1e-12),
    "is_hermitian-tol": lambda d: LinearOperator.identity(d).is_hermitian(tol=1e-10),
}


@pytest.mark.parametrize("call", list(FIXED_TOLERANCES.values()), ids=list(FIXED_TOLERANCES))
def test_removed_tolerance_keywords_raise_type_error(d3, call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(d3)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finosc.gaussians import Family, gaussian, normalized_gaussian
from finosc.grid import GridDim, GridFunction, _SeededDraws, fourier_transform
from finosc.wigner import (
    wigner,
    wigner_fourier_covariance_check,
    wigner_product_decomposition,
)
from conftest import rand_state, wigner_brute


class TestDefiningSum:
    def test_centered_delta_d7(self, d7):
        W = wigner(GridFunction.delta(d7, 0))
        for n in d7.indices():
            for m in d7.indices():
                expected = 1 / 7 if n == 0 else 0.0
                assert W.value(n, m) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([3, 7, 9]), seed=st.integers(0, 2**31))
    def test_matches_brute_force(self, d, seed):
        dim = GridDim.from_size(d)
        psi = rand_state(dim, seed)
        W = wigner(psi)
        B = wigner_brute(psi)
        assert np.max(np.abs(B.imag)) < 1e-12 * max(psi.norm() ** 2, 1)
        assert np.max(np.abs(W.values - B.real)) < 1e-12 * max(psi.norm() ** 2, 1)

    def test_even_state_center_value(self, d15):
        psi = gaussian(d15, Family.G1, 1.0)
        W = wigner(psi)
        assert W.value(0, 0) == pytest.approx(psi.norm() ** 2 / d15.d, abs=1e-12)

    def test_total_mass_is_norm_squared(self, d7):
        psi = rand_state(d7, 5)
        assert wigner(psi).total() == pytest.approx(psi.norm() ** 2, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_state_is_refused(self, d7, bad):
        v = rand_state(d7, 5).values.copy()
        v[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            wigner(GridFunction(d7, v))

    @pytest.mark.parametrize("c", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("d", [15, 101, 201])
    def test_scales_as_norm_squared(self, d, c):
        # the imaginary residue grows with ||psi||^2 too, so a large state is not refused
        dim = GridDim.from_size(d)
        psi = GridFunction(dim, _SeededDraws(3).complex_normals(d))
        W = wigner(psi).values
        scale = c**2 * max(psi.norm() ** 2, 1)
        assert np.max(np.abs(wigner(c * psi).values - c**2 * W)) < 1e-12 * scale


class TestMarginals:
    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([3, 7, 15]), seed=st.integers(0, 2**31))
    def test_position_and_momentum(self, d, seed):
        dim = GridDim.from_size(d)
        psi = rand_state(dim, seed)
        W = wigner(psi).values
        assert np.max(np.abs(W.sum(axis=1) - np.abs(psi.values) ** 2)) < 1e-10 * psi.norm() ** 2
        ft = fourier_transform(psi)
        assert np.max(np.abs(W.sum(axis=0) - np.abs(ft.values) ** 2)) < 1e-10 * psi.norm() ** 2


class TestFourierCovariance:
    def test_binomial_family(self, d15):
        assert wigner_fourier_covariance_check(gaussian(d15, Family.G4))

    def test_doubled_delta(self, d7):
        psi = GridFunction.delta(d7, 0) + GridFunction.delta(d7, 0)
        assert wigner_fourier_covariance_check(psi)

    def test_wide_theta_family(self):
        dim = GridDim.from_size(9)
        assert wigner_fourier_covariance_check(gaussian(dim, Family.G1, 2.0))

    @pytest.mark.parametrize("c", [1e2, 1e4])
    def test_scaled_binomial_family(self, c):
        assert wigner_fourier_covariance_check(c * gaussian(GridDim.from_size(101), Family.G4))

    def test_rejects_uneven_state(self, d7):
        with pytest.raises(ValueError, match="even"):
            wigner_fourier_covariance_check(GridFunction.delta(d7, 1))

    def test_normalized_pair_rotation(self, d15):
        W4 = wigner(normalized_gaussian(d15, Family.G4))
        W5 = wigner(normalized_gaussian(d15, Family.G5))
        for n in d15.indices():
            for m in d15.indices():
                assert W5.value(n, m) == pytest.approx(W4.value(m, -n), abs=1e-12)


class TestProductDecomposition:
    @pytest.mark.parametrize("fam", [Family.G1, Family.G2, Family.G3])
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_matches_direct_map(self, d15, fam, kappa):
        direct = wigner(gaussian(d15, fam, kappa)).values
        product = wigner_product_decomposition(d15, fam, kappa).values
        assert np.max(np.abs(direct - product)) < 1e-10

    def test_alternating_family_rotates_to_shifted(self):
        dim = GridDim.from_size(9)
        kappa = 2.0
        W3 = wigner_product_decomposition(dim, Family.G3, kappa)
        direct = wigner(gaussian(dim, Family.G3, kappa)).values
        assert np.max(np.abs(W3.values - direct)) < 1e-10
        W2 = wigner(gaussian(dim, Family.G2, 1 / kappa))
        for n in dim.indices():
            for m in dim.indices():
                assert W3.value(n, m) == pytest.approx(W2.value(m, -n) / kappa, abs=1e-10)

    def test_rejects_parameter_free_families(self, d7):
        with pytest.raises(ValueError):
            wigner_product_decomposition(d7, Family.G4, 1.0)
        with pytest.raises(ValueError):
            wigner_product_decomposition(d7, Family.G1, -1.0)


class TestSymmetryStructure:
    def test_even_state_gives_even_map(self, d15):
        W = wigner(gaussian(d15, Family.G1, 1.0))
        for n in d15.indices():
            for m in d15.indices():
                assert W.value(-n, -m) == pytest.approx(W.value(n, m), abs=1e-13)

    def test_ground_profile_peaks_at_origin(self, d15):
        W = wigner(normalized_gaussian(d15, Family.G1)).values
        peak = np.unravel_index(np.argmax(W), W.shape)
        assert peak == (d15.j, d15.j)

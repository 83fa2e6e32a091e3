import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finosc import checks, gaussians
from finosc.gaussians import (
    Family,
    gaussian,
    norm_squared_closed_form,
    normalized_gaussian,
    theta,
)
from finosc.grid import GridDim, InputError, fourier_transform
from conftest import lattice_sum_brute

S3 = 1 / math.sqrt(3)
KAPPAS = (0.5, 1.0, 2.0)


class TestPlainValues:
    def test_binomial_family_d3(self, d3):
        g = gaussian(d3, Family.G4)
        assert np.allclose(g.values.real, [0.25, 0.5, 0.25], atol=1e-15)

    def test_cosine_family_d3(self, d3):
        g = gaussian(d3, Family.G5)
        expected = [1 / (4 * math.sqrt(3)), 1 / math.sqrt(3), 1 / (4 * math.sqrt(3))]
        assert np.allclose(g.values.real, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [3, 9, 15])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_lattice_sums_match_brute_force(self, d, kappa):
        dim = GridDim.from_size(d)
        for fam, offset, alt in [(Family.G1, 0.0, False), (Family.G2, 0.5, False)]:
            g = gaussian(dim, fam, kappa)
            for n in dim.indices():
                assert g[n].real == pytest.approx(
                    lattice_sum_brute(d, kappa, n, offset, alt), abs=1e-15
                )
        g3 = gaussian(dim, Family.G3, kappa)
        for n in dim.indices():
            expected = (-1.0) ** n * lattice_sum_brute(d, kappa, n, 0.0, True)
            assert g3[n].real == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "d, kappa", [(3, 0.01), (7, 0.01), (3, 0.3), (5, 0.199), (7, 1 / 7), (15, 0.5)]
    )
    def test_g3_against_mpmath(self, d, kappa):
        # at kappa d < 1 the direct alternating sum cancels (5.8e-6 relative
        # error at d = 3, kappa = 0.01); the Poisson dual does not
        dim = GridDim.from_size(d)
        g3 = gaussian(dim, Family.G3, kappa)
        reach = int(math.sqrt(170.0 / (kappa * math.pi * d))) + 2
        with mpmath.workdps(60):
            c = mpmath.mpf(kappa) * mpmath.pi / d
            for n in dim.indices().tolist():
                lattice = range(-reach, reach + 1)
                terms = ((-1) ** (a % 2) * mpmath.exp(-c * (a * d + n) ** 2) for a in lattice)
                ref = float((-1) ** (n % 2) * mpmath.fsum(terms))
                assert abs(g3[n].real - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("fam", list(Family))
    def test_evenness_exact(self, fam, d15):
        v = gaussian(d15, fam).values
        assert np.array_equal(v, v[::-1])

    def test_kappa_validation(self, d3):
        with pytest.raises(ValueError):
            gaussian(d3, Family.G1, -1.0)
        with pytest.raises(ValueError):
            gaussian(d3, Family.G1, 0.0)
        with pytest.raises(ValueError):
            gaussian(d3, Family.G4, 2.0)

    def test_cache_returns_shared_immutable_value(self, d15):
        a = gaussian(d15, Family.G1, 1.25)
        b = gaussian(d15, Family.G1, 1.25)
        assert a is b
        assert not a.values.flags.writeable


class TestExactBinomial:
    @pytest.mark.parametrize("d", [3, 101, 401])
    def test_g4_and_norm_are_correctly_rounded(self, d):
        dim = GridDim.from_size(d)
        j = dim.j
        with mpmath.workprec(256):
            ref = [float(mpmath.binomial(2 * j, j + n) / mpmath.mpf(4) ** j) for n in dim.indices()]
            norm = float(mpmath.binomial(4 * j, 2 * j) / mpmath.mpf(16) ** j)
        g = gaussian(dim, Family.G4).values
        assert np.array_equal(g.real, ref) and not g.imag.any()
        assert norm_squared_closed_form(dim, Family.G4) == norm
        assert norm_squared_closed_form(dim, Family.G5) == norm


class TestSeriesTruncation:
    """Lattice and theta series stop once the envelope of every later pair is
    at most SERIES_REL_TOL of the larger of the sum and the peak pair."""

    @pytest.mark.parametrize("d", [3, 7, 9, 31, 101])
    @pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1, 0.5, 1.0])
    def test_lattice_sums_equal_sums_run_to_underflow(self, d, kappa, monkeypatch):
        lattice = list(gaussians._LATTICE.values())
        got = [gaussians._lattice_profile(d, kappa, *a) for a in lattice]
        # with a zero tolerance each sum runs until the envelope underflows
        monkeypatch.setattr(gaussians, "SERIES_REL_TOL", 0.0)
        full = [gaussians._lattice_profile(d, kappa, *a) for a in lattice]
        for (_, alt), g, f in zip(lattice, got, full):
            if alt:
                # cancelling: the tail is below 1e-18 of the peak pair, of size at most 2
                assert np.max(np.abs(g - f)) <= 4e-18
            else:
                # positive terms: the pairs left out change no bit
                assert np.array_equal(g, f)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_theta_equals_sum_run_to_underflow(self, kind, monkeypatch):
        cases = [(0.3, 0.7j), (-0.45, 0.08j), (0.2 + 0.1j, 0.5 + 0.9j), (0.1 + 0.2j, 0.3j)]
        got = [theta(kind, z, tau) for z, tau in cases]
        monkeypatch.setattr(gaussians, "SERIES_REL_TOL", 0.0)
        full = [theta(kind, z, tau) for z, tau in cases]
        # the tail is below 1e-18 of the larger of the sum and the peak pair, and no
        # pair here exceeds 4; a component far below |sum| may take new bits
        for g, f in zip(got, full):
            assert abs(g - f) <= 4e-18 * max(abs(f), 1.0)

    @pytest.mark.parametrize("family", [Family.G1, Family.G2, Family.G3])
    def test_underflowing_sums_stop_at_exact_zero(self, family):
        v = gaussian(GridDim.from_size(101), family, 50.0).values.real
        assert np.all(np.isfinite(v))
        # far from the lattice the sum underflows: at the edges, or the centre for g2
        far = v[50] if family is Family.G2 else v[[0, -1]]
        assert np.all(far == 0.0) and v.max() > 0.5

    def test_series_cap_names_the_series(self):
        message = "lattice series at kappa = 1e-09, d = 3 did not converge within 10000 pairs"
        with pytest.raises(ValueError, match=message) as lattice:
            gaussian(GridDim.from_size(3), Family.G1, 1e-9)
        with pytest.raises(ValueError, match=r"theta_3 series .* did not converge") as series:
            theta(3, 0.0, 1e-12j)
        assert not isinstance(lattice.value, InputError)
        assert not isinstance(series.value, InputError)


class TestNormalizedValues:
    @pytest.mark.parametrize("kappa, peak", [(1e6, "0"), (1e300, "0"), (9950.0, "2.92e-309")])
    def test_profile_whose_norm_underflows_is_refused(self, kappa, peak):
        # g2 at d = 11 peaks at e^{-kappa pi/44}: subnormal from kappa = 9920
        # (902 d) and 0 from kappa = 1e4, so the values carry few bits or none
        dim = GridDim.from_size(11)
        assert gaussian(dim, Family.G2, kappa).values.any() == (kappa < 1e4)
        message = (
            f"g2 at kappa = {kappa:g}, d = 11 cannot be normalized: its peak {peak} "
            "is below 2.23e-308, the smallest normal float"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
            normalized_gaussian(dim, Family.G2, kappa)
        assert not isinstance(refused.value, InputError)

    @pytest.mark.parametrize("kappa", [5000.0, 5220.0, 6000.0, 9900.0])
    def test_norm_below_the_floor_is_taken_after_the_peak(self, kappa):
        # from kappa = 4960 (451 d) the unscaled norm is below 1.5e-154, inexact
        # or 0; the profile divided by its normal peak has a norm near 1
        g = gaussian(GridDim.from_size(11), Family.G2, kappa).values.real
        assert np.linalg.norm(g) < gaussians._NORM_FLOOR and g.max() >= 2.3e-308
        got = normalized_gaussian(GridDim.from_size(11), Family.G2, kappa).values.real
        scaled = g / g.max()
        assert np.array_equal(got, scaled / np.linalg.norm(scaled))
        assert abs(np.linalg.norm(got) - 1.0) <= 4e-16

    def test_norm_just_above_the_floor_is_normalized(self):
        # at kappa = 4900 (445 d) the norm is 1.6e-152: its squares stay normal,
        # so the profile is divided by its norm alone, as it always was
        g = gaussian(GridDim.from_size(11), Family.G2, 4900.0).values.real
        got = normalized_gaussian(GridDim.from_size(11), Family.G2, 4900.0).values.real
        scaled = g / g.max()
        assert np.array_equal(got, g / np.linalg.norm(g))
        assert np.max(np.abs(got - scaled / np.linalg.norm(scaled))) <= 1e-15

    def test_g1_d3_radicals(self, d3):
        got = normalized_gaussian(d3, Family.G1).values.real
        a = 0.5 * math.sqrt(1 - S3)
        b = math.sqrt((1 + S3) / 2)
        assert np.max(np.abs(got - [a, b, a])) < 1e-14

    def test_g4_d3_radicals(self, d3):
        got = normalized_gaussian(d3, Family.G4).values.real
        assert np.max(np.abs(got - np.array([1, 2, 1]) / math.sqrt(6))) < 1e-14

    def test_g5_d3_radicals(self, d3):
        got = normalized_gaussian(d3, Family.G5).values.real
        assert np.max(np.abs(got - np.array([1, 4, 1]) / (3 * math.sqrt(2)))) < 1e-14

    def test_g2_g3_d3_fourier_pairing(self, d3):
        # no radical closed form exists for these two: the Fourier eigenvector
        # relations leave the pair a one-parameter freedom, so the defining
        # normalization is checked through its own properties
        g2 = normalized_gaussian(d3, Family.G2)
        g3 = normalized_gaussian(d3, Family.G3)
        assert g2.norm() == pytest.approx(1.0, abs=1e-12)
        assert g3.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(fourier_transform(g2).values - g3.values)) < 1e-12
        assert np.max(np.abs(fourier_transform(g3).values - g2.values)) < 1e-12

    @pytest.mark.parametrize("fam", list(Family))
    def test_unit_norm(self, fam, d15):
        assert normalized_gaussian(d15, fam).norm() == pytest.approx(1.0, abs=1e-12)

    def test_shifted_family_peaks_at_edges(self, d15):
        prob = normalized_gaussian(d15, Family.G2).values.real ** 2
        peaks = set(np.flatnonzero(prob == prob.max()) - d15.j)
        assert peaks == {-d15.j, d15.j}


def lattice_value(d, kappa, n, offset, alternating):
    """One lattice sum, for one n, by its own scalar loop under the rule of
    gaussians._paired_sum; the profile is checked against it bit for bit."""
    if alternating and kappa * d < 1.0:
        t = kappa * d

        def envelope(a):
            return 2.0 / math.sqrt(t) * math.exp(-math.pi * (a + 0.5) ** 2 / t)

        def pair(a):
            return envelope(a) * math.cos((2 * a + 1) * math.pi * n / d)

    else:
        c = kappa * np.pi / d
        reach = offset * d - abs(n)

        def pair(a):
            xs = ((a,) if a == 0 else (a, -a)) if offset == 0.0 else (a, -1 - a)
            out = 0.0
            for alpha in xs:
                t = math.exp(-c * ((alpha + offset) * d + n) ** 2)
                out += -t if (alternating and alpha % 2) else t
            return out

        def envelope(a):
            return 2.0 * math.exp(-c * (a * d + reach) ** 2)

    total = pair(0)
    peak = abs(total)
    for a in range(1, gaussians._SERIES_CAP + 1):
        p = pair(a)
        total += p
        peak = max(peak, abs(p))
        if a >= gaussians.SERIES_MIN_TERMS and envelope(a + 1) <= gaussians.SERIES_REL_TOL * max(abs(total), peak):
            return total
    raise AssertionError("the oracle's lattice series did not converge")


ORACLE_KAPPAS = (0.01, 0.05, 0.1, 0.3, 0.5, 0.695407, 1.0, 1.4, 2.0, 10.0, 50.0)


class TestLatticeProfile:
    """Each g1-g3 profile is one array sum over n = 0..j, bit for bit the
    per-n scalar sums, in the direct and the Poisson-dual branch."""

    @pytest.mark.parametrize("d", [*range(3, 62, 2), 101, 201, 401])
    def test_profile_equals_per_n_sums(self, d):
        dim = GridDim.from_size(d)
        for kappa in ORACLE_KAPPAS:
            for family, (offset, alt) in gaussians._LATTICE.items():
                oracle = np.array([lattice_value(d, kappa, n, offset, alt) for n in range(dim.j + 1)])
                got = gaussians._lattice_profile(d, kappa, offset, alt)
                assert got.tobytes() == oracle.tobytes(), (kappa, family)
                # the public profile: G3 carries (-1)^n, then the mirror image
                half = oracle * (-1.0) ** np.arange(dim.j + 1) if alt else oracle
                values = gaussian(dim, family, kappa).values
                assert values.real.copy().tobytes() == np.concatenate([half[:0:-1], half]).tobytes()
                assert not values.imag.any()


def count_series_loops(monkeypatch):
    """The names of the series that gaussians._paired_sum is called on, from now."""
    calls = []
    loop = gaussians._paired_sum

    def counting(pair, envelope, series):
        calls.append(series)
        return loop(pair, envelope, series)

    monkeypatch.setattr(gaussians, "_paired_sum", counting)
    return calls


class TestOneSeriesLoop:
    @pytest.mark.parametrize("d", [15, 201])
    @pytest.mark.parametrize(
        "family, kappa", [(Family.G1, 1.0), (Family.G2, 0.3), (Family.G3, 1.0), (Family.G3, 1e-3)]
    )
    def test_one_uncached_profile_is_one_sum(self, d, family, kappa, monkeypatch):
        # g3 at kappa = 1e-3 (kappa d < 1) takes the Poisson dual
        dim = GridDim.from_size(d)
        calls = count_series_loops(monkeypatch)
        gaussians._gaussian_cached.__wrapped__(dim, family, kappa)
        assert len(calls) == 1, calls
        assert calls[0].startswith("dual" if kappa * d < 1 else "lattice")

    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_theta_of_an_array_is_one_sum(self, kind, monkeypatch):
        calls = count_series_loops(monkeypatch)
        theta(kind, GridDim.from_size(201).indices() / 201, 1j / 201)
        assert calls == [f"theta_{kind} series at 201 points z, tau = {1j / 201}"]


MPMATH_POINTS = [(0.3, 0.7j), (0.0, 1j), (-0.45, 0.08j), (0.2 + 0.1j, 0.5 + 0.9j), (1.7, 2.3j)]


def mpmath_theta(kind, z, tau):
    return complex(mpmath.jtheta(kind, mpmath.pi * z, mpmath.exp(1j * mpmath.pi * tau)))


class TestTheta:
    def test_central_value_brute_force(self):
        # sum over e^{-pi a^2}, far past double precision at |a| = 50
        expected = sum(math.exp(-math.pi * a * a) for a in range(-50, 51))
        assert theta(3, 0.0, 1j).real == pytest.approx(expected, abs=1e-16)
        assert theta(3, 0.0, 1j).real == pytest.approx(1.0864348112133080, abs=1e-15)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("z,tau", MPMATH_POINTS)
    def test_against_mpmath(self, kind, z, tau):
        got = theta(kind, z, tau)
        ref = mpmath_theta(kind, z, tau)
        assert got == pytest.approx(ref, abs=1e-13)

    def test_scalar_z_gives_a_python_complex(self):
        assert type(theta(3, 0.3, 1j)) is complex
        assert type(theta(2, np.float64(0.3), 1j)) is complex
        got = theta(4, np.zeros((2, 3)), 1j)
        assert isinstance(got, np.ndarray) and got.shape == (2, 3) and got.dtype == complex

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("tau", sorted({tau for _, tau in MPMATH_POINTS}, key=abs))
    def test_array_matches_scalar_at_the_mpmath_points(self, kind, tau):
        # every mpmath point's z at every one of their tau: the array sum runs
        # on past a real entry's stop while the complex z grows, and each extra
        # pair is below 1e-18 of that entry's larger of sum and peak pair
        zs = np.array([z for z, _ in MPMATH_POINTS]).reshape(1, -1)
        got = theta(kind, zs, tau)
        assert got.shape == zs.shape
        for g, z in zip(got.ravel(), zs.ravel()):
            f = theta(kind, z, tau)
            assert abs(g - f) <= 4e-18 * max(abs(f), 1.0)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    @pytest.mark.parametrize("d", [15, 201])
    def test_array_matches_scalar_on_the_grid(self, kind, d):
        zs = GridDim.from_size(d).indices() / d
        got = theta(kind, zs, 1j / d)
        for g, z in zip(got, zs):
            f = theta(kind, z, 1j / d)
            assert abs(g - f) <= 4e-18 * max(abs(f), 1.0)

    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_array_against_mpmath(self, kind):
        zs = np.array([0.3, -0.45 + 0.05j, 0.2 + 0.1j, 1.7 - 0.3j, 0.0])
        got = theta(kind, zs, 0.5 + 0.9j)
        ref = [mpmath_theta(kind, z, 0.5 + 0.9j) for z in zs]
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize(
        "z,tau,named",
        [
            (math.nan, 1j, "z, got (nan+0j)"),
            (0.1, complex(math.nan, 1.0), "tau, got (nan+1j)"),
            (0.1, complex(0.0, math.inf), "tau, got infj"),
            ([0.1, complex(0.2, -math.inf)], 1j, "z, got (0.2-infj)"),
        ],
        ids=["nan-z", "nan-tau", "inf-tau", "inf-entry"],
    )
    def test_refuses_non_finite_input(self, z, tau, named, monkeypatch):
        monkeypatch.setattr(np, "exp", None)  # refused before any term is summed
        with pytest.raises(InputError, match=f"^theta requires a finite {re.escape(named)}$"):
            theta(3, z, tau)

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            theta(3, 0.0, -1j)
        with pytest.raises(ValueError):
            theta(3, 0.0, 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            theta(1, 0.0, 1j)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_theta_route_matches_lattice_families(self, d15, kappa):
        d = d15.d
        tau = 1j / (kappa * d)
        scale = 1 / math.sqrt(kappa * d)
        for n in d15.indices():
            assert abs(gaussian(d15, Family.G1, kappa)[n] - scale * theta(3, n / d, tau)) < 1e-12
            assert abs(gaussian(d15, Family.G2, kappa)[n] - scale * theta(4, n / d, tau)) < 1e-12
            assert (
                abs(gaussian(d15, Family.G3, kappa)[n] - (-1.0) ** n * scale * theta(2, n / d, tau))
                < 1e-12
            )


class TestFourierImages:
    @pytest.mark.parametrize("d", [3, 15, 31])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_theta_families_swap(self, d, kappa):
        dim = GridDim.from_size(d)
        pairs = [(Family.G1, Family.G1), (Family.G2, Family.G3), (Family.G3, Family.G2)]
        for src, dst in pairs:
            lhs = fourier_transform(gaussian(dim, src, kappa)).values
            rhs = gaussian(dim, dst, 1 / kappa).values / math.sqrt(kappa)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("d", [3, 15, 31])
    def test_binomial_cosine_swap(self, d):
        dim = GridDim.from_size(d)
        lhs = fourier_transform(gaussian(dim, Family.G4)).values
        assert np.max(np.abs(lhs - gaussian(dim, Family.G5).values)) < 1e-12
        lhs = fourier_transform(gaussian(dim, Family.G5)).values
        assert np.max(np.abs(lhs - gaussian(dim, Family.G4).values)) < 1e-12

    def test_normalized_fixed_point(self, d15):
        G1 = normalized_gaussian(d15, Family.G1)
        assert np.max(np.abs(fourier_transform(G1).values - G1.values)) < 1e-10

    def test_normalized_images(self, d15):
        img = {Family.G1: Family.G1, Family.G2: Family.G3, Family.G3: Family.G2,
               Family.G4: Family.G5, Family.G5: Family.G4}
        for src, dst in img.items():
            lhs = fourier_transform(normalized_gaussian(d15, src)).values
            assert np.max(np.abs(lhs - normalized_gaussian(d15, dst).values)) < 1e-10


class TestStructuralIdentities:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_doubling(self, d15, kappa):
        g1 = gaussian(d15, Family.G1, kappa)
        g3 = gaussian(d15, Family.G3, kappa)
        a1 = gaussian(d15, Family.G1, 4 * kappa)
        a2 = gaussian(d15, Family.G2, 4 * kappa)
        for m in d15.indices():
            assert abs(g1[2 * m] - (a1[m] + a2[m])) < 1e-12
            assert abs(g3[2 * m] - (a1[m] - a2[m])) < 1e-12

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_squared_modulus(self, d15, kappa):
        b1 = gaussian(d15, Family.G1, 2 * kappa)
        b2 = gaussian(d15, Family.G2, 2 * kappa)
        for fam, combo in [
            (Family.G1, lambda n: b1[0] * b1[n] + b2[0] * b2[n]),
            (Family.G2, lambda n: b1[0] * b2[n] + b2[0] * b1[n]),
            (Family.G3, lambda n: b1[0] * b1[n] - b2[0] * b2[n]),
        ]:
            g = gaussian(d15, fam, kappa)
            for n in d15.indices():
                assert abs(g[n] ** 2 - combo(n)) < 1e-12


def loop_doubling_and_modulus_error(dim):
    """The doubling-and-modulus check as a loop over labels on Python complex
    values, the reference for its whole-array form."""
    err = 0.0
    for kappa in KAPPAS:
        g1k, g2k, g3k = (gaussian(dim, fam, kappa) for fam in (Family.G1, Family.G2, Family.G3))
        a1, a2 = gaussian(dim, Family.G1, 4 * kappa), gaussian(dim, Family.G2, 4 * kappa)
        b1, b2 = gaussian(dim, Family.G1, 2 * kappa), gaussian(dim, Family.G2, 2 * kappa)
        for m in dim.indices():
            err = max(err, abs(g1k[2 * m] - (a1[m] + a2[m])))
            err = max(err, abs(g3k[2 * m] - (a1[m] - a2[m])))
            err = max(err, abs(g1k[m] ** 2 - (b1[0] * b1[m] + b2[0] * b2[m])))
            err = max(err, abs(g2k[m] ** 2 - (b1[0] * b2[m] + b2[0] * b1[m])))
            err = max(err, abs(g3k[m] ** 2 - (b1[0] * b1[m] - b2[0] * b2[m])))
    return err


class TestStructuralIdentityCheck:
    @pytest.mark.parametrize("d", [3, 15, 37, 101])
    def test_whole_array_form_gives_the_loop_error_exactly(self, d, monkeypatch):
        dim = GridDim.from_size(d)
        errors, result = {}, checks._result

        def spy(name, err, tol):
            errors[name] = err
            return result(name, err, tol)

        monkeypatch.setattr(checks, "_result", spy)
        checks._check_gaussians(dim)
        assert KAPPAS == checks._KAPPAS
        assert errors["doubling-and-modulus-identities"] == loop_doubling_and_modulus_error(dim)

    def test_theta_crosscheck_fails_on_swapped_kinds(self, d15, monkeypatch):
        swapped = {2: 4, 3: 3, 4: 2}
        monkeypatch.setattr(gaussians, "theta", lambda kind, z, tau: theta(swapped[kind], z, tau))
        (result,) = [r for r in checks._check_gaussians(d15) if r.name == "theta-crosschecks"]
        assert not result.passed


class TestNorms:
    def test_binomial_norm_closed_form_d3(self, d3):
        direct = float(np.sum(gaussian(d3, Family.G4).values.real ** 2))
        assert direct == pytest.approx(3 / 8, abs=1e-15)
        assert norm_squared_closed_form(d3, Family.G4) == pytest.approx(3 / 8, abs=1e-15)

    @pytest.mark.parametrize("d", [3, 15, 31])
    def test_cosine_equals_binomial_norm(self, d):
        dim = GridDim.from_size(d)
        n4 = float(np.sum(gaussian(dim, Family.G4).values.real ** 2))
        n5 = float(np.sum(gaussian(dim, Family.G5).values.real ** 2))
        assert abs(n4 - n5) < 1e-12
        assert abs(norm_squared_closed_form(dim, Family.G5) - n5) < 1e-12

    def test_shifted_and_alternating_norms_agree(self, d15):
        n2 = float(np.sum(gaussian(d15, Family.G2, 1.0).values.real ** 2))
        n3 = float(np.sum(gaussian(d15, Family.G3, 1.0).values.real ** 2))
        assert abs(n2 - n3) < 1e-12
        assert abs(norm_squared_closed_form(d15, Family.G2) - n2) < 1e-12
        assert abs(norm_squared_closed_form(d15, Family.G3) - n3) < 1e-12

    @pytest.mark.parametrize("d", [3, 15])
    def test_central_value_closed_form(self, d):
        dim = GridDim.from_size(d)
        n1 = float(np.sum(gaussian(dim, Family.G1, 1.0).values.real ** 2))
        assert abs(norm_squared_closed_form(dim, Family.G1) - n1) < 1e-12

    def test_closed_form_requires_unit_kappa(self, d3):
        with pytest.raises(ValueError):
            norm_squared_closed_form(d3, Family.G1, 2.0)


@settings(max_examples=20, deadline=None)
@given(j=st.integers(1, 15), kappa=st.floats(0.2, 5.0))
def test_positive_families_stay_positive(j, kappa):
    dim = GridDim(j)
    for fam in (Family.G1, Family.G2):
        assert np.all(gaussian(dim, fam, kappa).values.real > 0)
    assert np.all(gaussian(dim, Family.G4).values.real > 0)
    assert np.all(gaussian(dim, Family.G5).values.real > 0)

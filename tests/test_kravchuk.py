import dataclasses
import math
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finosc import kravchuk
from finosc import checks
from finosc.checks import (
    _check_kravchuk,
    _gram_probe_failures,
    _hypergeometric_route,
    _kravchuk_integers,
    _check_oscillators,
    _ladder_oscillator_algebra,
    _su2_commutators,
)
from finosc.grid import GridDim, InputError, LinearOperator
from finosc.kravchuk import (
    KravchukTable,
    Su2Generators,
    generalized_kravchuk_transform,
    kravchuk_function,
    kravchuk_function_hypergeometric,
    kravchuk_polynomial,
    kravchuk_table,
    kravchuk_transform,
    su2_generators,
)
from finosc.oscillators import kravchuk_hamiltonian

R2 = math.sqrt(2)


class TestPolynomials:
    def test_degree_zero_is_one(self, d7):
        assert all(kravchuk_polynomial(d7, -d7.j, n) == 1.0 for n in d7.indices())

    def test_degree_one(self, d7):
        assert all(kravchuk_polynomial(d7, -d7.j + 1, n) == -2.0 * n for n in d7.indices())

    def test_degree_two(self):
        dim = GridDim.from_size(9)
        for n in dim.indices():
            assert kravchuk_polynomial(dim, -dim.j + 2, n) == 2.0 * n * n - dim.j

    def test_index_range_checked(self, d7):
        with pytest.raises(ValueError):
            kravchuk_polynomial(d7, d7.j + 1, 0)
        with pytest.raises(ValueError):
            kravchuk_function(d7, 0, -d7.j - 1)

    @pytest.mark.parametrize("d", [7, 15, 31])
    def test_orthogonality_under_binomial_weight(self, d):
        dim = GridDim.from_size(d)
        j = dim.j
        table = kravchuk_table(dim)
        for mi, m in enumerate(dim.indices()):
            scale = comb(2 * j, j + m)
            for li in range(mi, d):
                s = sum(
                    comb(2 * j, j + n) * table.poly[mi, ni] * table.poly[li, ni]
                    for ni, n in enumerate(dim.indices())
                ) / 4.0**j
                target = scale if li == mi else 0.0
                assert abs(s - target) / scale <= 1e-9

    @pytest.mark.parametrize("d", [45, 61, 101])
    def test_orthogonality_check_exact_where_floats_fail(self, d):
        # the float sum misses 1e-9 from d = 45; the table passes 2^53 at d = 61;
        # the check's degree-recurrence integers are independent of the table
        result = _check_kravchuk(GridDim.from_size(d))[0]
        assert result.name == "kravchuk-orthogonality"
        assert result.passed, result.detail

    def test_orthogonality_check_catches_a_wrong_table_entry(self, d7, monkeypatch):
        good = kravchuk_table(d7)
        poly = good.poly.copy()
        poly[2, 3] += 1.0
        wrong = KravchukTable(d7, poly, good.func)
        monkeypatch.setattr(kravchuk, "kravchuk_table", lambda dim: wrong)
        result = _check_kravchuk(d7)[0]
        assert not result.passed
        assert result.detail == "exact: 1 table entries wrong, 0 of 3 Gram probes failed"


class TestTable:
    @pytest.mark.parametrize("d", [*range(3, 62, 2), 201])
    def test_equals_per_entry_values(self, d):
        dim = GridDim.from_size(d)
        t = kravchuk_table.__wrapped__(dim)
        ns = dim.indices().tolist()
        poly = np.array([[kravchuk_polynomial(dim, m, n) for n in ns] for m in ns])
        func = np.array([[kravchuk_function(dim, m, n) for n in ns] for m in ns])
        # bits, not values: -0.0 == 0.0, but the CSV writes -0 for it
        assert np.array_equal(t.poly.view(np.int64), poly.view(np.int64))
        assert np.array_equal(t.func.view(np.int64), func.view(np.int64))

    @pytest.mark.parametrize("d", [541, 1029])
    def test_orthonormal_where_the_weight_ratio_underflows(self, d):
        # C(2j, j+n) / (C(2j, j+m) 4^j) is subnormal from d = 515 and 0.0 later;
        # with the 2^-j on K_m(n) every factor stays normal up to d = 1029
        dim = GridDim.from_size(d)
        j = dim.j
        t = kravchuk_table.__wrapped__(dim)
        assert np.max(np.abs(t.func @ t.func.T - np.eye(d))) < 1e-13
        edge = [-j, 1 - j, -1, 0, 1, j - 1, j]
        rng = random.Random(d)
        pairs = [(m, n) for m in edge for n in edge]
        pairs += [(rng.randint(-j, j), rng.randint(-j, j)) for _ in range(30)]
        table = np.array([t.function(m, n) for m, n in pairs])
        scalar = np.array([kravchuk_function(dim, m, n) for m, n in pairs])
        assert np.array_equal(table.view(np.int64), scalar.view(np.int64))

    @pytest.mark.parametrize(
        "route",
        [
            kravchuk_table,
            lambda dim: kravchuk_polynomial(dim, 0, 0),
            lambda dim: kravchuk_function(dim, 0, 0),
            lambda dim: kravchuk_function_hypergeometric(dim, 0, 0),
        ],
        ids=["table", "polynomial", "function", "hypergeometric"],
    )
    def test_refused_past_the_float64_range(self, route):
        # max |K_m(n)| <= C(2j, j), which first reaches 2^1024 at d = 1031
        with pytest.raises(InputError, match=r"^Kravchuk values at d = 1031 reach C\(1030, 515\) >= 2\^1024"):
            route(GridDim.from_size(1031))

    @pytest.mark.parametrize("label", [-3, 3])
    @pytest.mark.parametrize(
        "accessor",
        [
            lambda t, k: t.polynomial(k, 0),
            lambda t, k: t.polynomial(0, k),
            lambda t, k: t.function(k, 0),
            lambda t, k: t.function(0, k),
            lambda t, k: t.function_row(k),
        ],
        ids=["polynomial-m", "polynomial-n", "function-m", "function-n", "function_row"],
    )
    def test_accessors_refuse_labels_off_the_grid(self, accessor, label):
        # at d = 5 the labels -3 and 3 are -j-1 and j+1: refused as by the scalar
        # routes, not wrapped by negative indexing or failing with an IndexError
        dim = GridDim.from_size(5)
        with pytest.raises(InputError, match=rf"^[mn]={label} outside the grid range \[-2, 2\]$"):
            accessor(kravchuk_table(dim), label)
        with pytest.raises(InputError, match=rf"^m={label} outside the grid range \[-2, 2\]$"):
            kravchuk_polynomial(dim, label, 0)

    def test_accessors_read_the_table(self, d7):
        t = kravchuk_table(d7)
        for m in d7.indices().tolist():
            assert t.function_row(m).values.real.tolist() == t.func[m + d7.j].tolist()
            for n in d7.indices().tolist():
                assert t.polynomial(m, n) == t.poly[m + d7.j, n + d7.j]
                assert t.function(m, n) == t.func[m + d7.j, n + d7.j]

    def test_read_only_and_cached(self, d7):
        t = kravchuk_table(d7)
        assert kravchuk_table(GridDim.from_size(7)) is t
        assert not t.poly.flags.writeable and not t.func.flags.writeable
        # the public constructor copies: the caller's arrays stay its own
        poly, func = t.poly.copy(), t.func.copy()
        built = KravchukTable(d7, poly, func)
        poly[0, 0] = func[0, 0] = 99.0
        assert np.array_equal(built.poly, t.poly) and np.array_equal(built.func, t.func)
        assert not built.poly.flags.writeable and not built.func.flags.writeable


class TestCheckRoutes:
    """The O(d^2) exact routes of the Kravchuk identity checks."""

    @pytest.mark.parametrize("j", [1, 2, 3, 7, 20, 45])
    def test_integer_oracle_equals_alternating_sum(self, j):
        ns = range(-j, j + 1)
        expected = [[kravchuk._kravchuk_polynomial_int(j, m, n) for n in ns] for m in ns]
        assert _kravchuk_integers(j).tolist() == expected

    def test_checks_pass_at_d201(self):
        for result in _check_kravchuk(GridDim.from_size(201)):
            assert result.passed, (result.name, result.detail)

    @pytest.mark.parametrize("d", [15, 31])
    def test_hypergeometric_route_equals_scalar_route(self, d):
        dim = GridDim.from_size(d)
        ns = dim.indices().tolist()
        scalar = np.array([[kravchuk_function_hypergeometric(dim, m, n) for n in ns] for m in ns])
        assert np.max(np.abs(_hypergeometric_route(dim) - scalar)) < 1e-15

    @staticmethod
    def result(dim, name):
        return next(r for r in _check_kravchuk(dim) if r.name == name)

    def test_sign_flip_in_a_mirrored_quadrant_fails_orthogonality(self, monkeypatch):
        dim = GridDim.from_size(15)
        good = kravchuk_table(dim)
        poly = good.poly.copy()
        # m = 2, n = 3: rebuilt from the quadrant m, n <= 0 by both reflections
        assert poly[9, 10] != 0.0
        poly[9, 10] = -poly[9, 10]
        wrong = KravchukTable(dim, poly, good.func)
        monkeypatch.setattr(kravchuk, "kravchuk_table", lambda dim: wrong)
        result = self.result(dim, "kravchuk-orthogonality")
        assert not result.passed
        assert result.detail == "exact: 1 table entries wrong, 0 of 3 Gram probes failed"

    @pytest.mark.parametrize("j", [3, 30])
    def test_probes_catch_one_wrong_gram_entry(self, j):
        K = _kravchuk_integers(j)
        binom = np.array([comb(2 * j, k) for k in range(2 * j + 1)], dtype=object)
        target = binom * 4**j
        assert _gram_probe_failures(K, binom, target) == 0
        # one diagonal entry of diag(target) off by one: exactly one Gram entry wrong
        target[j + 1] += 1
        assert _gram_probe_failures(K, binom, target) == checks._GRAM_PROBES == 3

    def test_perturbed_function_entry_fails_hypergeometric_route(self, monkeypatch):
        dim = GridDim.from_size(15)
        good = kravchuk_table(dim)
        func = good.func.copy()
        func[4, 11] += 1e-8
        wrong = KravchukTable(dim, good.poly, func)
        monkeypatch.setattr(kravchuk, "kravchuk_table", lambda dim: wrong)
        assert not self.result(dim, "kravchuk-hypergeometric-route").passed

    def test_sign_flipped_oracle_row_fails_parity(self, monkeypatch):
        dim = GridDim.from_size(15)
        assert self.result(dim, "kravchuk-parity").detail == (
            "exact: 0 entries break the n reflection, 0 the m reflection"
        )

        def flipped(j):
            K = _kravchuk_integers(j)
            K[j + 2] = -K[j + 2]
            return K

        monkeypatch.setattr(checks, "_kravchuk_integers", flipped)
        result = self.result(dim, "kravchuk-parity")
        assert not result.passed
        # rows m = +-2 disagree everywhere but at their shared zero K_{+-2}(0)
        assert result.detail == "exact: 0 entries break the n reflection, 28 the m reflection"


class TestFunctions:
    def test_d3_table_values(self, d3):
        assert kravchuk_function(d3, -1, -1) == pytest.approx(0.5, abs=1e-15)
        assert kravchuk_function(d3, 0, -1) == pytest.approx(1 / R2, abs=1e-15)
        assert kravchuk_function(d3, 1, 0) == pytest.approx(-1 / R2, abs=1e-15)
        assert kravchuk_function(d3, 1, 1) == pytest.approx(0.5, abs=1e-15)
        assert kravchuk_function(d3, 0, 0) == 0.0

    def test_symmetry_in_both_indices(self, d15):
        f = kravchuk_table(d15).func
        assert np.max(np.abs(f - f.T)) < 1e-12

    def test_parity(self, d15):
        j = d15.j
        t = kravchuk_table(d15)
        for m in d15.indices():
            for n in d15.indices():
                lhs = t.function(m, -n)
                assert abs(lhs - (-1.0) ** (j + m) * t.function(m, n)) < 1e-12

    def test_rows_orthonormal(self, d15):
        f = kravchuk_table(d15).func
        assert np.max(np.abs(f @ f.T - np.eye(d15.d))) < 1e-10

    def test_completeness(self, d15):
        f = kravchuk_table(d15).func
        assert np.max(np.abs(f.T @ f - np.eye(d15.d))) < 1e-10

    def test_three_term_recurrence(self, d15):
        j = d15.j
        t = kravchuk_table(d15)

        def fn(n, m):
            return t.function(n, m) if -j <= m <= j else 0.0

        for n in d15.indices():
            for m in d15.indices():
                lhs = math.sqrt((j - m) * (j + m + 1)) * fn(n, m + 1)
                lhs += math.sqrt((j + m) * (j - m + 1)) * fn(n, m - 1)
                assert abs(lhs + 2 * n * fn(n, m)) < 1e-10

    @pytest.mark.parametrize("d", [5, 15, 31])
    def test_hypergeometric_route_agrees(self, d):
        dim = GridDim.from_size(d)
        t = kravchuk_table(dim)
        for m in dim.indices():
            for n in dim.indices():
                hyp = kravchuk_function_hypergeometric(dim, m, n)
                assert abs(hyp - t.function(m, n)) < 1e-12

    @pytest.mark.parametrize("d", [15, 37])
    def test_hypergeometric_route_equals_rational_series(self, d):
        # the former evaluation, in Fraction arithmetic, kept as the reference
        def rational(dim, m, n):
            j = dim.j
            a, b, c = -(j + m), -(j + n), -2 * j
            hyp = term = Fraction(1)
            for k in range(min(j + m, j + n)):
                term *= Fraction((a + k) * (b + k) * 2, (c + k) * (k + 1))
                hyp += term
            weight = Fraction(comb(2 * j, j + m) * comb(2 * j, j + n), 4**j)
            return math.sqrt(float(weight)) * float(hyp)

        dim = GridDim.from_size(d)
        for m in dim.indices().tolist():
            for n in dim.indices().tolist():
                assert kravchuk_function_hypergeometric(dim, m, n) == rational(dim, m, n)


class TestTransform:
    def test_d3_matrix(self, d3):
        K = kravchuk_transform(d3)
        golden = 0.5 * np.array([[1, R2, 1], [-R2, 0, R2], [1, -R2, 1]])
        assert np.max(np.abs(K.matrix - golden)) < 1e-15

    def test_maps_deltas_to_function_rows(self, d7):
        from finosc.grid import GridFunction

        K = kravchuk_transform(d7)
        t = kravchuk_table(d7)
        for n in d7.indices():
            img = K.apply(GridFunction.delta(d7, n)).values
            assert np.max(np.abs(img - t.function_row(-n).values)) < 1e-14

    def test_fourth_power_identity(self, d15):
        K = kravchuk_transform(d15)
        assert np.max(np.abs((K @ K @ K @ K).matrix - np.eye(d15.d))) < 1e-12

    def test_square_is_signed_parity(self, d7):
        j, d = d7.j, d7.d
        K2 = (kravchuk_transform(d7) @ kravchuk_transform(d7)).matrix
        expected = np.zeros((d, d))
        for ni, n in enumerate(d7.indices()):
            expected[j - n, ni] = (-1.0) ** (j + n)
        assert np.max(np.abs(K2 - expected)) < 1e-12

    def test_unitary(self, d15):
        K = kravchuk_transform(d15)
        assert np.max(np.abs((K @ K.adjoint()).matrix - np.eye(d15.d))) < 1e-12

    def test_conjugates_jz_to_jx(self, d7):
        gen = su2_generators(d7)
        K = kravchuk_transform(d7)
        assert np.max(np.abs((K @ gen.jz @ K.adjoint()).matrix - gen.jx.matrix)) < 1e-10


class TestGeneralizedTransform:
    def test_zero_phases_reduce_to_plain(self, d7):
        U = generalized_kravchuk_transform(d7, np.zeros(d7.d))
        assert np.max(np.abs(U.matrix - kravchuk_transform(d7).matrix)) < 1e-15

    def test_wrong_length_rejected(self, d7):
        with pytest.raises(ValueError):
            generalized_kravchuk_transform(d7, np.zeros(d7.d - 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phases_are_refused_by_name(self, bad):
        phases = [0.0, 1.0, bad, 2.0, bad]
        with pytest.raises(InputError, match=f"^Kravchuk phases must be finite, got {bad}$"):
            generalized_kravchuk_transform(GridDim.from_size(5), phases)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_any_phases_conjugate_jz_to_jx(self, seed):
        dim = GridDim.from_size(7)
        rng = np.random.default_rng(seed)
        U = generalized_kravchuk_transform(dim, rng.uniform(0, 2 * np.pi, dim.d))
        gen = su2_generators(dim)
        assert np.max(np.abs((U @ gen.jz @ U.adjoint()).matrix - gen.jx.matrix)) < 1e-10

    def test_unitary_with_random_phases(self, d15):
        rng = np.random.default_rng(3)
        U = generalized_kravchuk_transform(d15, rng.uniform(-np.pi, np.pi, d15.d))
        assert np.max(np.abs((U @ U.adjoint()).matrix - np.eye(d15.d))) < 1e-12


class TestSu2:
    def test_jz_diagonal_d3(self, d3):
        gen = su2_generators(d3)
        assert np.max(np.abs(gen.jz.matrix - np.diag([-1.0, 0.0, 1.0]))) == 0.0

    def test_jx_matrix_d3(self, d3):
        gen = su2_generators(d3)
        golden = np.array([[0, R2, 0], [R2, 0, R2], [0, R2, 0]]) / 2
        assert np.max(np.abs(gen.jx.matrix - golden)) < 1e-15

    @pytest.mark.parametrize("d", [3, 7, 15])
    def test_commutators(self, d):
        dim = GridDim.from_size(d)
        g = su2_generators(dim)

        def comm(a, b):
            return a @ b - b @ a

        assert np.max(np.abs(comm(g.jz, g.jplus).matrix - g.jplus.matrix)) < 1e-12
        assert np.max(np.abs(comm(g.jz, g.jminus).matrix + g.jminus.matrix)) < 1e-12
        assert np.max(np.abs(comm(g.jminus, g.jplus).matrix + 2 * g.jz.matrix)) < 1e-12
        assert np.max(np.abs(comm(g.jx, g.jy).matrix - 1j * g.jz.matrix)) < 1e-12
        assert np.max(np.abs(comm(g.jy, g.jz).matrix - 1j * g.jx.matrix)) < 1e-12
        assert np.max(np.abs(comm(g.jz, g.jx).matrix - 1j * g.jy.matrix)) < 1e-12

    def test_jx_eigenbasis_is_kravchuk(self, d7):
        gen = su2_generators(d7)
        t = kravchuk_table(d7)
        for n in d7.indices():
            vec = t.function_row(-n).values
            assert np.max(np.abs(gen.jx.matrix @ vec - n * vec)) < 1e-10

    def test_ladder_matrix_elements(self, d7):
        j = d7.j
        gen = su2_generators(d7)
        for m in range(-j, j):
            expected = math.sqrt((j - m) * (j + m + 1))
            assert gen.jplus.entry(m + 1, m) == pytest.approx(expected, abs=1e-15)



def generators_from(dim: GridDim, jp: np.ndarray, jm: np.ndarray) -> Su2Generators:
    """Generators with the given ladders, J_z = diag(m) and J_x, J_y from J_+-."""
    ops = (np.diag(dim.indices().astype(complex)), jp, jm, (jp + jm) / 2, (jp - jm) / 2j)
    return Su2Generators(dim, *(LinearOperator(dim, a) for a in ops))


def defective(dim: GridDim, defect: str) -> tuple[Su2Generators, LinearOperator]:
    """The su(2) generators and H_K, with one deliberate defect."""
    gen, HK = su2_generators(dim), kravchuk_hamiltonian(dim)
    jp = gen.jplus.matrix.copy()
    if defect == "flipped-sign-jminus":
        return generators_from(dim, jp, -jp.T), HK
    if defect == "flipped-sign-jy":
        return dataclasses.replace(gen, jy=-1.0 * gen.jy), HK
    if defect == "wrong-factor":
        jp[5, 4] *= 1.001
        return generators_from(dim, jp, jp.T), HK
    if defect == "misplaced-entry":
        jp[6, 4], jp[5, 4] = jp[5, 4], 0.0
        return generators_from(dim, jp, jp.T), HK
    if defect == "hk-shifted":
        return gen, HK + LinearOperator.identity(dim)
    assert defect == "hk-misplaced-entry"
    m = HK.matrix.copy()
    m[0, 1] = 1e-6
    return gen, LinearOperator(dim, m)


class TestStructuralLadderChecks:
    """su2-commutators and ladder-oscillator-algebra compare structure, so
    their rounding stays at an ulp where the commutator products lost 1e-12
    (from d = 131 and d = 161)."""

    @pytest.mark.parametrize("d", [131, 161, 201])
    def test_pass_at_large_d(self, d):
        dim = GridDim.from_size(d)
        gen = su2_generators(dim)
        for result in (_su2_commutators(gen), _ladder_oscillator_algebra(gen, kravchuk_hamiltonian(dim))):
            assert result.passed, result.detail
            assert result.detail.endswith("(tol 1.0e-12)")

    def test_the_suite_runs_these_checks(self, d7):
        gen = su2_generators(d7)
        assert _su2_commutators(gen) in _check_kravchuk(d7)
        assert _ladder_oscillator_algebra(gen, kravchuk_hamiltonian(d7)) in _check_oscillators(d7)

    @pytest.mark.parametrize(
        "defect, fails",
        [
            ("flipped-sign-jminus", "both"),
            ("flipped-sign-jy", "su2"),
            ("wrong-factor", "both"),
            ("misplaced-entry", "both"),
            ("hk-shifted", "ladder"),
            ("hk-misplaced-entry", "ladder"),
        ],
    )
    @pytest.mark.parametrize("d", [15, 131])
    def test_defects_fail(self, d, defect, fails):
        gen, HK = defective(GridDim.from_size(d), defect)
        su2, ladder = _su2_commutators(gen), _ladder_oscillator_algebra(gen, HK)
        assert su2.passed == (fails == "ladder"), su2.detail
        assert ladder.passed == (fails == "su2"), ladder.detail

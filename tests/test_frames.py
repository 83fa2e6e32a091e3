import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finosc import frames
from finosc.checks import _check_frames, _schwinger_relations
from finosc.frames import (
    FiniteFrame,
    coherent_family,
    dequantize,
    displacement,
    frame_analyze,
    quantize,
    schwinger,
)
from finosc.gaussians import Family
from finosc.oscillators import _symmetrized, frame_hamiltonian
from finosc.grid import (
    GridDim,
    GridFunction,
    LinearOperator,
    eigendecompose_hermitian,
    fourier_operator,
    fourier_transform,
    inner_product,
)
from finosc.grid import _phase
from conftest import rand_state

S3 = 1 / math.sqrt(3)


class TestSchwinger:
    def test_shift_moves_delta(self, d3):
        out = schwinger(d3, "A").apply(GridFunction.delta(d3, 0))
        assert np.array_equal(out.values, GridFunction.delta(d3, 1).values)

    def test_modulation_action(self, d7):
        psi = rand_state(d7, 1)
        out = schwinger(d7, "B", 2).apply(psi)
        for n in d7.indices():
            expected = np.exp(4j * np.pi * n / d7.d) * psi[n]
            assert out[n] == pytest.approx(expected, abs=1e-14)

    def test_order_d(self, d7):
        I = np.eye(d7.d)
        assert np.max(np.abs(schwinger(d7, "A", d7.d).matrix - I)) < 1e-12
        assert np.max(np.abs(schwinger(d7, "B", d7.d).matrix - I)) < 1e-12

    def test_commutation_phase(self):
        dim = GridDim.from_size(5)
        for a in dim.indices():
            for b in dim.indices():
                lhs = (schwinger(dim, "A", a) @ schwinger(dim, "B", b)).matrix
                rhs = np.exp(-2j * np.pi * a * b / dim.d) * (
                    schwinger(dim, "B", b) @ schwinger(dim, "A", a)
                ).matrix
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("d", [3, 7, 101])
    @pytest.mark.parametrize("power", [-8, -1, 0, 1, 2, 103, 250])
    def test_shift_matches_loop_reference(self, d, power):
        ref = np.zeros((d, d), dtype=complex)
        for i in range(d):
            ref[i, (i - power) % d] = 1.0
        assert np.array_equal(schwinger(GridDim.from_size(d), "A", power).matrix, ref)

    def test_rejects_unknown_tag(self, d3):
        with pytest.raises(ValueError):
            schwinger(d3, "C")


class TestDisplacement:
    def test_zero_label_is_identity(self, d3):
        assert np.max(np.abs(displacement(d3, 0, 0).matrix - np.eye(3))) == 0.0

    def test_composition_law_all_pairs_d3(self, d3):
        labels = [(a, b) for a in d3.indices() for b in d3.indices()]
        for a1, b1 in labels:
            for a2, b2 in labels:
                lhs = (displacement(d3, a1, b1) @ displacement(d3, a2, b2)).matrix
                phase = np.exp(-1j * np.pi * (a1 * b2 - a2 * b1) / d3.d)
                rhs = phase * displacement(d3, a1 + a2, b1 + b2).matrix
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unitary(self, d7):
        D = displacement(d7, 2, -3)
        assert np.max(np.abs((D @ D.adjoint()).matrix - np.eye(d7.d))) < 1e-13

    def test_fourier_rotates_labels(self, d7):
        F = fourier_operator(d7)
        rng = np.random.default_rng(2)
        for _ in range(6):
            a, b = (int(x) for x in rng.integers(-d7.j, d7.j + 1, 2))
            lhs = (F @ displacement(d7, a, b) @ F.adjoint()).matrix
            assert np.max(np.abs(lhs - displacement(d7, b, -a).matrix)) < 1e-12

    def test_full_period_label_flips_sign(self, d3):
        D = displacement(d3, 0, 1)
        shifted = displacement(d3, 3, 1)
        assert np.max(np.abs(shifted.matrix + D.matrix)) < 1e-13


class TestCoherentFamily:
    def test_zero_label_state_is_fiducial(self, d3):
        fam = coherent_family(d3, Family.G1)
        assert np.array_equal(fam.state(0, 0).values, fam.fiducial.values)

    @pytest.mark.parametrize("family", list(Family))
    def test_unit_norms(self, family, d7):
        fam = coherent_family(d7, family)
        for a in d7.indices():
            for b in d7.indices():
                assert fam.state(a, b).norm() == pytest.approx(1.0, abs=1e-12)

    def test_resolution_of_identity_d3(self, d3):
        fam = coherent_family(d3, Family.G1)
        S = fam.state_matrix()
        assert np.max(np.abs(S.T @ S.conj() / d3.d - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("family", list(Family))
    def test_resolution_of_identity_all_families(self, family):
        dim = GridDim.from_size(5)
        S = coherent_family(dim, family).state_matrix()
        assert np.max(np.abs(S.T @ S.conj() / dim.d - np.eye(dim.d))) < 1e-10

    def test_matches_displacement_operator(self, d7):
        fam = coherent_family(d7, Family.G2)
        fid = fam.fiducial
        for a, b in [(1, 2), (-3, 0), (2, -2)]:
            direct = displacement(d7, a, b).apply(fid)
            assert np.max(np.abs(fam.state(a, b).values - direct.values)) < 1e-13

    def test_fourier_covariance_shifted_to_alternating(self):
        dim = GridDim.from_size(5)
        fam2 = coherent_family(dim, Family.G2)
        fam3 = coherent_family(dim, Family.G3)
        for a in dim.indices():
            for b in dim.indices():
                lhs = fourier_transform(fam2.state(a, b)).values
                assert np.max(np.abs(lhs - fam3.state(b, -a).values)) < 1e-10


class TestQuantization:
    def test_constant_symbol_gives_identity(self, d3):
        fam = coherent_family(d3, Family.G1)
        A = quantize(fam, lambda a, b: 1.0)
        assert np.max(np.abs(A.matrix - np.eye(3))) < 1e-10

    def test_scaled_constant(self, d7):
        fam = coherent_family(d7, Family.G4)
        A = quantize(fam, lambda a, b: 2.5)
        assert np.max(np.abs(A.matrix - 2.5 * np.eye(d7.d))) < 1e-10

    def test_harmonic_symbol_spectrum_d3(self, d3):
        from finosc.grid import eigendecompose_hermitian

        fam = coherent_family(d3, Family.G1)
        A = quantize(fam, lambda a, b: (a * a + b * b) / 2)
        got = eigendecompose_hermitian(A).eigenvalues
        expected = np.sort([0.5 * (1 - 0.5 * S3), 0.75, 0.25 * (3 + S3)])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_real_symbol_gives_hermitian(self, d7):
        rng = np.random.default_rng(4)
        table = rng.normal(size=(d7.d, d7.d))
        j = d7.j
        fam = coherent_family(d7, Family.G3)
        A = quantize(fam, lambda a, b: table[a + j, b + j])
        assert np.max(np.abs(A.matrix - A.matrix.conj().T)) < 1e-12


class TestDequantization:
    def test_identity_symbol_is_one(self, d3):
        fam = coherent_family(d3, Family.G1)
        f = dequantize(fam, LinearOperator.identity(d3))
        assert np.max(np.abs(f - 1.0)) < 1e-12

    def test_projector_self_overlap(self, d3):
        fam = coherent_family(d3, Family.G2)
        st0 = fam.state(1, -1)
        proj = LinearOperator(d3, np.outer(st0.values, st0.values.conj()))
        f = dequantize(fam, proj)
        assert f[1 + d3.j, -1 + d3.j] == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_gives_real_symbol(self):
        dim = GridDim.from_size(5)
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M = LinearOperator(dim, (raw + raw.conj().T) / 2)
        f = dequantize(coherent_family(dim, Family.G1), M)
        assert np.max(np.abs(f.imag)) < 1e-12

    def test_roundtrip_constant(self, d3):
        fam = coherent_family(d3, Family.G5)
        f = dequantize(fam, quantize(fam, lambda a, b: 3.0))
        assert np.max(np.abs(f - 3.0)) < 1e-10

    def test_dimension_mismatch(self, d3, d7):
        with pytest.raises(ValueError):
            dequantize(coherent_family(d3, Family.G1), LinearOperator.identity(d7))


class TestFrameAnalysis:
    def test_canonical_basis(self, d3):
        diag = frame_analyze([GridFunction.delta(d3, k) for k in d3.indices()])
        assert diag.is_frame and diag.is_tight
        assert diag.frame is not None
        assert np.allclose(diag.frame.weights, 1.0)
        assert diag.frame.weights.sum() == pytest.approx(3.0, abs=1e-12)

    def test_scaled_coherent_family(self, d3):
        fam = coherent_family(d3, Family.G4)
        vectors = [
            fam.state(a, b) / math.sqrt(d3.d) for a in d3.indices() for b in d3.indices()
        ]
        diag = frame_analyze(vectors)
        assert diag.is_tight and diag.frame is not None
        assert diag.frame.weights.sum() == pytest.approx(3.0, abs=1e-10)

    def test_single_delta_is_not_a_frame(self, d3):
        diag = frame_analyze([GridFunction.delta(d3, 0)])
        assert not diag.is_frame
        assert diag.lower == pytest.approx(0.0, abs=1e-12)

    def test_unscaled_coherent_family_is_tight_but_not_normalized(self, d3):
        fam = coherent_family(d3, Family.G1)
        vectors = [fam.state(a, b) for a in d3.indices() for b in d3.indices()]
        diag = frame_analyze(vectors)
        assert diag.is_tight and diag.frame is None
        assert diag.upper == pytest.approx(3.0, abs=1e-10)

    def test_zero_vector_rejected(self, d3):
        with pytest.raises(ValueError):
            frame_analyze([GridFunction.delta(d3, 0), GridFunction.zero(d3)])

    def test_tight_within_tol_but_off_the_identity_is_refused(self):
        # S = (1 + 1e-7)^2 I: tight, bound 1 within tol, yet 2e-7 off the identity
        with pytest.raises(ValueError, match="weighted vectors do not resolve the identity"):
            frame_analyze(np.eye(3) * (1 + 1e-7), tol=1e-3)

    @pytest.mark.parametrize("family", [Family.G1, Family.G4])
    def test_frame_operator_is_summed_once(self, monkeypatch, family):
        calls = []

        def counting(rows, weights):
            calls.append(len(rows))
            return frame_sums(rows, weights)

        frame_sums = frames._frame_sums
        monkeypatch.setattr(frames, "_frame_sums", counting)
        dim = GridDim.from_size(7)
        diag = frame_analyze(coherent_family(dim, family).state_matrix() / math.sqrt(dim.d))
        assert diag.frame is not None
        assert calls == [dim.d**2]

    @pytest.mark.parametrize("bad", [np.zeros((0, 3)), np.ones(3), np.ones((2, 4))])
    def test_rejects_arrays_that_are_not_vector_systems(self, bad):
        with pytest.raises(ValueError):
            frame_analyze(bad)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("d", [5, 31])
    def test_array_and_grid_functions_agree_bitwise(self, family, d):
        # the (N, d) array path and the GridFunction path form the same real
        # rank-k product, so bounds and weights agree to the last bit
        dim = GridDim.from_size(d)
        fam = coherent_family(dim, family)
        scale = 1.0 / math.sqrt(d)
        objects = [fam.state(a, b) * scale for a in dim.indices() for b in dim.indices()]
        by_array = frame_analyze(fam.state_matrix() * scale)
        by_objects = frame_analyze(objects)
        # reference: the frame operator read off the real Gram matrix of the
        # rows as one (d^2, 2d) real array
        S = rank_k_sum(np.array([v.values for v in objects]))
        expected = eigendecompose_hermitian(LinearOperator(dim, S)).eigenvalues
        assert by_array.lower == by_objects.lower == expected[0]
        assert by_array.upper == by_objects.upper == expected[-1]
        assert by_array.frame is not None and by_objects.frame is not None
        assert np.array_equal(by_array.frame.weights, by_objects.frame.weights)
        assert np.array_equal(by_array.frame.rows, by_objects.frame.rows)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("d", [3, 5, 31, 101])
    def test_walnut_bounds_match_the_dense_route(self, family, d):
        """Walnut's diagonal against the eigenvalues of the dense frame
        operator of the d^2 scaled states.

        The dense S sums each entry of Z^T Z over N = d^2 rows, and re S, im S
        add two such entries, so the rounding error E = fl(S) - S has
        |re E_mn|, |im E_mn| <= gamma_{N+1} sum_i |w_i(m)| |w_i(n)|
        <= gamma_{N+1} sqrt(s_m s_n) by Cauchy-Schwarz, with s_n ~ 1.  Hence
        ||E||_2 <= ||E||_F <= sqrt(2) d gamma_{N+1}, which bounds every
        eigenvalue shift (Weyl) and the trace error.  The eigensolver's
        backward error, the rounding of the states and the d-term sums of
        Walnut's side are each O(d u) or less, a factor d below that; the
        factor 2 in place of sqrt(2) covers them.
        """
        dim = GridDim.from_size(d)
        fam = coherent_family(dim, family)
        S = rank_k_sum(fam.state_matrix() / math.sqrt(d))
        expected = eigendecompose_hermitian(LinearOperator(dim, S)).eigenvalues
        bound = 2 * d * gamma(d * d + 1)
        diag = frame_analyze(fam)
        assert abs(diag.lower - expected[0]) <= bound
        assert abs(diag.upper - expected[-1]) <= bound
        assert diag.is_frame and diag.is_tight and diag.frame is None
        assert abs(diag.weight_sum - np.trace(S).real) <= bound

    @pytest.mark.parametrize("d", [5, 7, 31, 101])
    def test_walnut_diagonal_sums_along_label_differences(self, d):
        # with an asymmetric fiducial the terms |G(n - alpha)|^2 of each n,
        # taken in the order alpha = -j..j, fix every bit of the row sums;
        # the (d, d) table of column alpha = the fiducial shifted by alpha
        dim = GridDim.from_size(d)
        G = rand_state(dim, d, normalize=True)
        g2 = np.abs(G.values) ** 2
        s = np.stack([np.roll(g2, a) for a in dim.indices()], axis=1).sum(axis=1)
        diag = frame_analyze(frames.CoherentFamily(dim, Family.G1, G))
        assert (diag.lower, diag.upper) == (s.min(), s.max())
        assert diag.weight_sum == s.sum()

    def test_callers_vectors_are_never_written(self):
        d = 7
        fam = coherent_family(GridDim.from_size(d), Family.G2)
        rows = fam.state_matrix() * (1 / math.sqrt(d))
        before = rows.copy()
        frame = frame_analyze(rows).frame
        assert frame is not None and np.array_equal(rows, before)
        assert not np.shares_memory(frame.rows, rows)
        assert np.array_equal(frame.rows, rows * (1.0 / np.linalg.norm(rows, axis=1))[:, None])

        states = [GridFunction(fam.dim, row) for row in rows]
        frame = frame_analyze(states).frame
        assert frame is not None
        assert all(np.array_equal(s.values, row) for s, row in zip(states, before))
        assert not any(np.shares_memory(frame.rows, s.values) for s in states)

    def test_family_holds_no_state_matrix(self):
        import tracemalloc

        d = 401
        fam = coherent_family(GridDim.from_size(d), Family.G4)
        frame_analyze(fam)  # warm every cache outside the traced region
        tracemalloc.start()
        diag = frame_analyze(fam)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert diag.is_tight and diag.frame is None
        # a few d x d tables of 8-byte numbers; the (d^2, d) rows are 16 d^3 bytes
        assert peak < 64 * d * d

    def test_weight_sum_is_the_parseval_trace(self, d3):
        canonical = [GridFunction.delta(d3, k) for k in d3.indices()]
        for system in (canonical, np.eye(3), np.eye(3) * 1j):
            diag = frame_analyze(system)
            assert diag.frame is not None
            assert diag.weight_sum == diag.frame.weights.sum()
        # not a frame, and tight with bound 3: no Parseval weights to sum
        fam = coherent_family(d3, Family.G1)
        for system in (canonical[:1], fam.state_matrix()):
            assert math.isnan(frame_analyze(system).weight_sum)

    def test_empty_system_is_refused_by_name(self, d3):
        with pytest.raises(ValueError, match=r"expected a non-empty \(N, d\) vector system"):
            frame_analyze([])
        for vectors in ([], np.zeros((0, 3))):
            with pytest.raises(ValueError, match=r"expected a non-empty \(N, d\) vector system"):
                FiniteFrame(d3, vectors, [])

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_parseval_identity(self, seed):
        dim = GridDim.from_size(5)
        fam = coherent_family(dim, Family.G1)
        vectors = [
            fam.state(a, b) / math.sqrt(dim.d) for a in dim.indices() for b in dim.indices()
        ]
        frame = frame_analyze(vectors).frame
        psi = rand_state(dim, seed)
        total = sum(
            w * abs(inner_product(u, psi)) ** 2
            for w, u in zip(frame.weights, frame.vectors)
        )
        assert total == pytest.approx(psi.norm() ** 2, rel=1e-10)

    @pytest.mark.parametrize("count", [1, 5, 12, 27])
    def test_frame_bounds_match_outer_product_sum(self, count):
        dim = GridDim.from_size(5)
        vectors = [rand_state(dim, seed) for seed in range(count)]
        S = sum(np.outer(v.values, v.values.conj()) for v in vectors)
        expected = np.linalg.eigvalsh(S)
        # the GridFunction sequence and the equivalent (N, d) array
        for system in (vectors, np.array([v.values for v in vectors])):
            diag = frame_analyze(system)
            assert diag.lower == pytest.approx(expected[0], abs=1e-12 * expected[-1])
            assert diag.upper == pytest.approx(expected[-1], rel=1e-12)

    def test_finite_frame_checks_every_block(self, d3):
        vectors = [GridFunction.delta(d3, k) for _ in range(3) for k in d3.indices()]
        weights = np.array([0.5] * 3 + [0.25] * 6)
        # as GridFunctions and as the equivalent (N, d) array
        for pack in (tuple, lambda vs: np.array([v.values for v in vs])):
            FiniteFrame(d3, pack(vectors), weights)
            broken = vectors[:-1] + [2.0 * vectors[-1]]
            with pytest.raises(ValueError, match="unit norm"):
                FiniteFrame(d3, pack(broken), weights)

    def test_finite_frame_validates_unit_norms(self, d3):
        with pytest.raises(ValueError, match="unit norm"):
            FiniteFrame(
                d3,
                tuple(2.0 * GridFunction.delta(d3, k) for k in d3.indices()),
                np.ones(3),
            )


def gamma(n):
    """gamma_n = n u / (1 - n u): an n-term floating-point sum or dot product
    is off by at most gamma_n times the sum of the absolute terms (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def rank_k_sum(rows):
    """sum_i |u_i><u_i| from G = Z^T Z, Z the rows as a real (N, 2d) array:
    re S = G[even, even] + G[odd, odd], im S = G[odd, even] - G[even, odd]."""
    Z = rows.view(float)
    G = Z.T @ Z
    S = (G[::2, ::2] + G[1::2, 1::2]).astype(complex)
    S.imag = G[1::2, ::2] - G[::2, 1::2]
    return S


def complex_block_sum(rows, weights):
    """sum_i w_i |u_i><u_i| as d x d complex products over blocks of d rows."""
    d = rows.shape[1]
    S = np.zeros((d, d), dtype=complex)
    for start in range(0, len(rows), d):
        block = rows[start : start + d]
        S += (block.T * weights[start : start + d]) @ block.conj()
    return S


def frame_systems(d):
    """Named (rows, weights) systems: the scaled g4 coherent family, whose S is
    the identity, and random complex rows with random weights, whose S has an
    imaginary part of the size of its real part."""
    rng = np.random.default_rng(d)
    coherent = coherent_family(GridDim.from_size(d), Family.G4).state_matrix() / math.sqrt(d)
    rows = rng.normal(size=(3 * d + 2, d)) + 1j * rng.normal(size=(3 * d + 2, d))
    return {
        "coherent": (coherent, np.ones(d * d)),
        "random": (rows, rng.uniform(0.5, 2.0, size=len(rows))),
    }


class TestRankKFrameSums:
    """The frame operator as one real symmetric product of the rows."""

    @pytest.mark.parametrize("d", [5, 31, 101])
    def test_exactly_hermitian(self, d):
        for rows, weights in frame_systems(d).values():
            for w in (None, weights):
                S, _ = frames._frame_sums(rows, w)
                assert np.array_equal(S, S.conj().T)

    @pytest.mark.parametrize("d", [5, 31, 101])
    def test_agrees_with_the_complex_block_sum(self, d):
        for rows, weights in frame_systems(d).values():
            for w in (None, weights):
                S, norms = frames._frame_sums(rows, w)
                expected = complex_block_sum(rows, np.ones(len(rows)) if w is None else w)
                assert np.max(np.abs(S - expected)) <= 1e-14 * np.linalg.norm(expected, 2)
                assert np.array_equal(norms, np.linalg.norm(rows, axis=1))

    def test_unweighted_sum_is_the_rank_k_formula_bitwise(self):
        for rows, _ in frame_systems(31).values():
            assert np.array_equal(frames._frame_sums(rows, None)[0], rank_k_sum(rows))

    def test_forms_no_full_size_temporary(self):
        import tracemalloc

        rows, weights = frame_systems(101)["coherent"]
        for w in (None, weights):
            tracemalloc.start()
            frames._frame_sums(rows, w)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < rows.nbytes / 8

    def test_weighted_validation_refuses_broken_frames(self):
        d = 7
        dim = GridDim.from_size(d)
        unit = coherent_family(dim, Family.G2).state_matrix()
        weights = np.full(d * d, 1.0 / d)
        FiniteFrame(dim, unit, weights)
        moved = unit.copy()
        moved[5] = unit[6]  # one state replaced by another unit vector
        with pytest.raises(ValueError, match="do not resolve the identity"):
            FiniteFrame(dim, moved, weights)
        tilted = weights.copy()
        tilted[:d] *= 1.5  # one alpha weighted more, another less, same total
        tilted[d : 2 * d] *= 0.5
        with pytest.raises(ValueError, match="do not resolve the identity"):
            FiniteFrame(dim, unit, tilted)


# --- the dense and tensor constructions that the structured ones replaced,
# kept as references: schwinger/displacement as dense products, the coherent
# family as the d^3 tensor of all states, and both maps summed over it.  Each
# phase e^{i pi m/d} takes its exponent reduced first into (-d, d], so that
# opposite exponents give exactly conjugate phases, written out here rather
# than through grid._phase


def half_turns(m, d):
    """m reduced mod 2d into (-d, d]."""
    return (m + d - 1) % (2 * d) - (d - 1)


def dense_schwinger(dim, which, power):
    d = dim.d
    if which == "B":
        return np.diag(np.exp(1j * np.pi * half_turns(2 * dim.indices() * power, d) / d))
    m = np.zeros((d, d), dtype=complex)
    i = np.arange(d)
    m[i, (i - power) % d] = 1.0
    return m


def dense_displacement(dim, alpha, beta):
    """A^alpha (e^{i pi alpha beta/d} B^beta), the phase taken onto the diagonal of B^beta."""
    phase = np.exp(1j * np.pi * np.int64(half_turns(alpha * beta, dim.d)) / dim.d)
    B = np.diag(dense_schwinger(dim, "B", beta))
    return dense_schwinger(dim, "A", alpha) @ np.diag(phase * B)


def tensor_states(fam):
    """[alpha + j, beta + j, n + j] = e^{-i pi alpha beta/d} e^{2 pi i beta n/d} G(n - alpha)."""
    dim = fam.dim
    j, d, n, i = dim.j, dim.d, dim.indices(), np.arange(dim.d)
    shifted = fam.fiducial.values[(i[None, :] - i[:, None] + j) % d]
    mod = np.exp(1j * np.pi * half_turns(2 * np.outer(n, n), d) / d)
    pre = np.exp(1j * np.pi * half_turns(-np.outer(n, n), d) / d)
    return pre[:, :, None] * shifted[:, None, :] * mod[None, :, :]


# --- the same references with unreduced exponents, as the library formed them
# before every phase went through grid._phase; they agree only to the rounding
# of the phase argument, which grows with |m|

EPS = np.finfo(float).eps


def phase_rounding(d, m):
    """A bound on |e^{i pi m/d} from the unreduced m - from m mod 2d|.

    fl(pi m/d) takes at most four roundings (pi, two products, the quotient),
    each relative u = eps/2, so its argument is off by at most 2 eps pi |m|/d;
    the reduced side adds the same for an exponent below 2d, and exp about an
    ulp on each side.
    """
    return EPS * (2 * np.pi * (np.abs(m) + 2 * d) / d + 4)


def unreduced_dense_displacement(dim, alpha, beta):
    product = dense_schwinger(dim, "A", alpha) @ dense_schwinger(dim, "B", beta)
    return product * np.exp(1j * np.pi * alpha * beta / dim.d)


def unreduced_tensor_states(fam):
    dim = fam.dim
    j, d, n, i = dim.j, dim.d, dim.indices(), np.arange(dim.d)
    shifted = fam.fiducial.values[(i[None, :] - i[:, None] + j) % d]
    mod = np.exp(2j * np.pi * np.outer(n, n) / d)
    pre = np.exp(-1j * np.pi * np.outer(n, n) / d)
    return pre[:, :, None] * shifted[:, None, :] * mod[None, :, :]


def tensor_quantize(fam, symbol):
    S = tensor_states(fam).reshape(-1, fam.dim.d)
    return (S.T * symbol.reshape(-1)) @ S.conj() / fam.dim.d


def tensor_dequantize(fam, M):
    S = tensor_states(fam).reshape(-1, fam.dim.d)
    return np.einsum("in,nm,im->i", S.conj(), M, S).reshape(fam.dim.d, fam.dim.d)


def int64_harmonic(a, b):
    """The frame Hamiltonians' symbol (a^2 + b^2)/2 at numpy int64 labels,
    which quantize passed before it passed Python ints."""
    a, b = np.int64(a), np.int64(b)
    return (a * a + b * b) / 2.0


def far_labels(d):
    """Labels on and well beyond +-d, where reduction mod d matters."""
    return [-3 * d - 2, -d - 1, -d, -2, -1, 0, 1, 3, d - 1, d, d + 1, 2 * d + 5, 7 * d - 3]


class TestStructuredWeylHeisenberg:
    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_schwinger_equals_dense_form(self, d):
        dim = GridDim.from_size(d)
        for power in far_labels(d):
            for which in "AB":
                expected = dense_schwinger(dim, which, power)
                assert np.array_equal(schwinger(dim, which, power).matrix, expected)

    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_displacement_equals_dense_product(self, d):
        dim = GridDim.from_size(d)
        for alpha in far_labels(d):
            for beta in far_labels(d):
                expected = dense_displacement(dim, alpha, beta)
                assert np.array_equal(displacement(dim, alpha, beta).matrix, expected)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_states_equal_tensor_form(self, d, family):
        dim = GridDim.from_size(d)
        fam = coherent_family(dim, family)
        tensor = tensor_states(fam)
        assert np.array_equal(fam.state_matrix(), tensor.reshape(d * d, d))
        for alpha in far_labels(d):
            for beta in far_labels(d):
                expected = tensor[(alpha + dim.j) % d, (beta + dim.j) % d]
                assert np.array_equal(fam.state(alpha, beta).values, expected)

    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_displacement_within_phase_rounding_of_unreduced_form(self, d):
        dim = GridDim.from_size(d)
        for alpha in far_labels(d):
            for beta in far_labels(d):
                got = displacement(dim, alpha, beta).matrix
                # unit entries; the B phase is reduced on both sides, and the product rounds
                bound = phase_rounding(d, alpha * beta) + 4 * EPS
                assert np.max(np.abs(got - unreduced_dense_displacement(dim, alpha, beta))) <= bound

    @pytest.mark.parametrize("family", [Family.G1, Family.G4])
    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_states_within_phase_rounding_of_unreduced_form(self, d, family):
        """|alpha,beta>(n) carries the phases m = -alpha beta and 2 beta n."""
        dim = GridDim.from_size(d)
        fam = coherent_family(dim, family)
        n = dim.indices()
        a, b = n[:, None, None], n[None, :, None]
        G = np.abs(fam.fiducial.values[(n - a + dim.j) % d])
        bound = G * (phase_rounding(d, a * b) + phase_rounding(d, 2 * b * n) + 4 * EPS)
        err = np.abs(fam.state_matrix().reshape(d, d, d) - unreduced_tensor_states(fam))
        assert np.all(err <= bound)

    @pytest.mark.parametrize("d", [3, 7, 31, 61, 101])
    def test_maps_agree_with_tensor_formula(self, d):
        dim = GridDim.from_size(d)
        n, j = dim.indices(), dim.j
        rng = np.random.default_rng(d)
        symbols = {
            "harmonic": (n[:, None] ** 2 + n[None, :] ** 2) / 2.0,
            "random": rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
        }
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for family in (Family.G1, Family.G3, Family.G4):
            fam = coherent_family(dim, family)
            for table in symbols.values():
                got = quantize(fam, lambda a, b: table[a + j, b + j]).matrix
                expected = tensor_quantize(fam, table)
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            for M in (raw, tensor_quantize(fam, symbols["harmonic"])):
                got = dequantize(fam, LinearOperator(dim, M))
                expected = tensor_dequantize(fam, M)
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_family_holds_only_the_fiducial(self):
        d = 201
        fam = coherent_family(GridDim.from_size(d), Family.G4)
        assert [f.name for f in dataclasses.fields(fam)] == ["dim", "family", "fiducial"]
        assert not hasattr(fam, "states")
        held = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
        assert held == [] and fam.fiducial.values.nbytes == 16 * d

    def test_caches_are_bounded_by_module_constants(self):
        from finosc import gaussians, grid, kravchuk, oscillators

        bounds = {
            grid.fourier_operator: grid._FOURIER_CACHE_SIZE,
            gaussians._gaussian_cached: gaussians._GAUSSIAN_CACHE_SIZE,
            kravchuk.kravchuk_table: kravchuk._KRAVCHUK_CACHE_SIZE,
            kravchuk.su2_generators: kravchuk._KRAVCHUK_CACHE_SIZE,
            oscillators.harper_basis: oscillators._LADDER_CACHE_SIZE,
            oscillators.gram_schmidt_oscillator: oscillators._LADDER_CACHE_SIZE,
            coherent_family: frames._FAMILY_CACHE_SIZE,
        }
        for cached, bound in bounds.items():
            assert cached.cache_parameters()["maxsize"] == bound
        for d in range(3, 2 * grid._FOURIER_CACHE_SIZE + 8, 2):
            grid.fourier_operator(GridDim.from_size(d))
        assert grid.fourier_operator.cache_info().currsize == grid._FOURIER_CACHE_SIZE
        # read by the benchmark's tracer
        assert list(inspect.signature(coherent_family).parameters) == ["dim", "family"]
        assert list(inspect.signature(kravchuk.kravchuk_table).parameters) == ["dim"]
        assert coherent_family.cache_info() and kravchuk.kravchuk_table.cache_info()


def complex_fiducial_family(d, seed):
    """A coherent family displaced from a random complex unit vector, so that
    every conjugation in the maps shows (the Gaussians are real)."""
    dim = GridDim.from_size(d)
    return frames.CoherentFamily(dim, Family.G1, rand_state(dim, seed, normalize=True))


class TestFFTMaps:
    """quantize and dequantize as one FFT pair, against formulas that share
    no code with them: the tensor sum, the states themselves, and adjointness."""

    @pytest.mark.parametrize("d", [3, 7, 31])
    def test_complex_fiducial_agrees_with_tensor_formula(self, d):
        fam = complex_fiducial_family(d, d)
        rng = np.random.default_rng(d)
        table = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = quantize(fam, lambda a, b: table[a + fam.dim.j, b + fam.dim.j]).matrix
        expected = tensor_quantize(fam, table)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        expected = tensor_dequantize(fam, M)
        got = dequantize(fam, LinearOperator(fam.dim, M))
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("d", [201, 401])
    def test_point_symbol_is_one_scaled_projector(self, d):
        """f = 1 at one label only gives (1/d) |a,b><a,b|, and the symbol of a
        random M at that label is <a,b| M |a,b>, with the state built directly."""
        fam = complex_fiducial_family(d, 7)
        j = fam.dim.j
        M = np.random.default_rng(d).normal(size=(d, d)) + 0j
        symbol = dequantize(fam, LinearOperator(fam.dim, M))
        for a, b in [(0, 0), (3, -j), (-j, 5), (j, j - 1)]:
            psi = fam.state(a, b).values
            A = quantize(fam, lambda x, y: 1.0 if (x, y) == (a, b) else 0.0).matrix
            expected = np.outer(psi, psi.conj()) / d
            assert np.max(np.abs(A - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert abs(symbol[a + j, b + j] - psi.conj() @ M @ psi) <= 1e-12 * np.linalg.norm(M, 2)

    @pytest.mark.parametrize("d", [201, 401])
    def test_hilbert_schmidt_adjoint(self, d):
        """tr(A_f^+ M) = (1/d) sum_{a,b} conj(f(a,b)) f_M(a,b)."""
        rng = np.random.default_rng(d)
        fam = complex_fiducial_family(d, 11)
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        j = fam.dim.j
        A = quantize(fam, lambda a, b: f[a + j, b + j]).matrix
        fM = dequantize(fam, LinearOperator(fam.dim, M))
        terms = f.conj() * fM / d
        assert abs(np.vdot(A, M) - terms.sum()) <= 1e-12 * np.abs(terms).sum()

    def test_fft_module_is_loaded_only_by_the_maps(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = (
            "import sys; from finosc.cli import main; "
            "main(['kravchuk-table', '--dim', '5', '--out', sys.argv[1]]); "
            "assert 'numpy.fft' not in sys.modules, 'loaded by kravchuk-table'; "
            "main(['spectrum', '--kind', 'frame', '--family', 'g1', '--dim', '5', '--out', sys.argv[1]]); "
            "assert 'numpy.fft' in sys.modules"
        )
        out = subprocess.run([sys.executable, "-c", probe, "/dev/null"], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


def _mutant_states(defect):
    """CoherentFamily._states with one defect, for the resolution check."""
    orig = frames.CoherentFamily._states

    def mutant(self, alpha, beta):
        if defect == "shift":
            return orig(self, np.asarray(alpha) + 1, beta)  # G(n - alpha - 1)
        half = _phase(self.dim.d, -np.asarray(beta)[..., None] * self.dim.indices())
        return orig(self, alpha, beta) * half  # modulation e^{i pi beta n/d}

    return mutant


class TestCoherentResolutionPerAlpha:
    @pytest.mark.parametrize("d", [3, 15, 101])
    def test_passes_at_roundoff(self, d):
        results = {r.name: r for r in _check_frames(GridDim.from_size(d))}
        result = results["coherent-resolution-of-identity"]
        assert result.passed and float(result.detail.split()[2]) < 1e-14

    @pytest.mark.parametrize("defect", ["shift", "half-modulation"])
    def test_defects_fail(self, defect, monkeypatch):
        monkeypatch.setattr(frames.CoherentFamily, "_states", _mutant_states(defect))
        results = {r.name: r for r in _check_frames(GridDim.from_size(7))}
        assert not results["coherent-resolution-of-identity"].passed


def _mutant_schwinger(defect):
    """frames.schwinger with one defect, for the structural relation check."""
    orig = frames.schwinger

    def mutant(dim, which, power=1):
        if defect == "flipped-phase" and which == "B":
            return LinearOperator(dim, orig(dim, which, power).matrix.conj())
        if defect == "wrong-shift-direction" and which == "A":
            return orig(dim, which, -power)
        m = orig(dim, which, power).matrix.copy()
        if which == "A":
            col = int(np.argmax(m[0] != 0))
            m[0, (col + 1) % dim.d] = 1.0  # a second nonzero in row 0 ...
            if defect == "misplaced-nonzero":
                m[0, col] = 0.0  # ... or the one nonzero moved
        return LinearOperator(dim, m)

    return mutant


class TestReducedSchwingerPhase:
    """The modulation phase is e^{2 pi i (n power mod d)/d}, so powers are
    periodic exactly and the relation check's rounding does not grow with d."""

    @pytest.mark.parametrize("d", [3, 7, 101, 401])
    def test_power_d_is_exactly_the_identity(self, d):
        dim = GridDim.from_size(d)
        for which in "AB":
            assert np.array_equal(schwinger(dim, which, d).matrix, np.eye(d))
            assert np.array_equal(schwinger(dim, which, -3 * d).matrix, np.eye(d))

    @pytest.mark.parametrize("d", [3, 7, 101])
    def test_powers_are_periodic_exactly(self, d):
        dim = GridDim.from_size(d)
        for power in far_labels(d):
            for which in "AB":
                expected = schwinger(dim, which, power).matrix
                assert np.array_equal(schwinger(dim, which, power + d).matrix, expected)

    @pytest.mark.parametrize("d", [15, 131, 201, 401])
    def test_relation_error_stays_flat(self, d):
        result = _schwinger_relations(GridDim.from_size(d))
        err = float(result.detail.split()[2])
        assert result.passed and err <= 1e-14, result.detail


class TestIntegerSymbolLabels:
    def test_quantize_passes_python_ints(self, d7):
        seen = set()
        quantize(coherent_family(d7, Family.G1), lambda a, b: seen.add((type(a), type(b), a, b)) or 1.0)
        assert {(ta, tb) for ta, tb, _, _ in seen} == {(int, int)}
        assert sorted((a, b) for _, _, a, b in seen) == [(a, b) for a in range(-3, 4) for b in range(-3, 4)]

    @pytest.mark.parametrize("d", [3, 37, 61, 101])
    def test_frame_hamiltonian_equals_int64_evaluation(self, d):
        dim = GridDim.from_size(d)
        for family in Family:
            expected = _symmetrized(quantize(coherent_family(dim, family), int64_harmonic))
            assert np.array_equal(frame_hamiltonian(dim, family).matrix, expected.matrix)


class TestStructuralSchwingerRelations:
    """schwinger-relations reads the one nonzero per row of each operator and
    checks A^a B^b = e^{-2 pi i ab/d} B^b A^a on those entries, all d^2 labels."""

    @pytest.mark.parametrize("d", [3, 131, 201])
    def test_pass(self, d):
        result = _schwinger_relations(GridDim.from_size(d))
        assert result.passed and result.detail.endswith("(tol 1.0e-12)"), result.detail

    def test_the_suite_runs_this_check(self, d7):
        assert _schwinger_relations(d7) in _check_frames(d7)

    @pytest.mark.parametrize(
        "defect", ["flipped-phase", "wrong-shift-direction", "misplaced-nonzero", "extra-nonzero"]
    )
    @pytest.mark.parametrize("d", [15, 131])
    def test_defects_fail(self, d, defect, monkeypatch):
        monkeypatch.setattr(frames, "schwinger", _mutant_schwinger(defect))
        result = _schwinger_relations(GridDim.from_size(d))
        assert not result.passed, result.detail


class TestCoherentFourierCovarianceCoverage:
    @pytest.mark.parametrize("d", [7, 15])
    def test_a_wrong_state_at_any_corner_label_fails(self, d, monkeypatch):
        dim = GridDim.from_size(d)
        j = dim.j
        orig = frames.CoherentFamily._states
        name = "coherent-fourier-covariance"
        assert next(r for r in _check_frames(dim) if r.name == name).passed
        for bad in [(j, -j), (-j, j), (0, 0), (j, j), (-j, -j)]:

            def corrupted(self, alpha, beta, bad=bad):
                states = orig(self, alpha, beta)
                if self.family is Family.G3:
                    hit = (np.asarray(alpha) == bad[0]) & (np.asarray(beta) == bad[1])
                    states = states + 1e-6 * np.broadcast_to(hit, states.shape[:-1])[..., None]
                return states

            monkeypatch.setattr(frames.CoherentFamily, "_states", corrupted)
            assert not next(r for r in _check_frames(dim) if r.name == name).passed, bad

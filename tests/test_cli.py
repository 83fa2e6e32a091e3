import argparse
import csv
import errno
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finosc import checks, cli, frames, kravchuk, oscillators
from finosc.cli import main
from finosc.gaussians import Family, normalized_gaussian
from finosc.grid import GridDim, GridFunction, eigendecompose_hermitian, hermitian_eigenvalues, inner_product
from finosc.kravchuk import kravchuk_table
from finosc.wigner import wigner

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def per_entry_csv(header, rows):
    """The CSV text of rows built one accessor call per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(x) if isinstance(x, int) else f"{x:.17g}" for x in row])
    return buf.getvalue()


def per_field_csv(header, rows):
    """The CSV text of typed rows, formatted one field at a time through
    csv.writer: integers as str, floats with 17 significant digits, anything
    else (empty strings, record tags) as str."""

    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, float):
            return f"{x:.17g}"
        return str(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue()


def revival_rows(dim, kind, samples):
    """Typed revival rows for the delta0 state: progressions, then fidelities."""
    dec = eigendecompose_hermitian(oscillators.hamiltonian(dim, kind))
    report = oscillators.detect_revivals(dec, min_len=3, tol=1e-10)
    longest = max(report.progressions, key=lambda p: p.length, default=None)
    horizon = 2.0 * longest.period if longest else 4.0 * math.pi
    psi = GridFunction.delta(dim, 0)
    ts = np.linspace(0.0, horizon, samples)
    fid = [abs(inner_product(psi, oscillators.evolve_spectral(dec, psi, float(t)))) for t in ts]
    rows = [("progression", p.start, p.length, p.gap, p.period, "", "") for p in report.progressions]
    return rows + [("fidelity", "", "", "", "", float(t), float(f)) for t, f in zip(ts, fid)]


def frame_check_rows(dim, family, tol):
    """The typed frame-check row, with the frame operator's diagonal summed
    as the d cyclic shifts of |G|^2 (S = diag(s) for the scaled family)."""
    g2 = np.abs(normalized_gaussian(dim, family).values) ** 2
    s = sum(np.roll(g2, a) for a in range(dim.d))
    lower, upper = float(s.min()), float(s.max())
    tight = upper - lower <= tol
    weight_sum = float(s.sum()) if tight and abs(upper - 1.0) <= tol else float("nan")
    return [(lower, upper, upper - lower, weight_sum, int(tight))]


def lines(text):
    """Lines with their ends, so that a mismatch in a long text is reported
    at its first differing line instead of by a full text diff."""
    return text.splitlines(keepends=True)


def row_format_grid_csv(header, dim, *tables):
    """The CSV text of d x d tables written one ``"%d,%d,%.17g,..."`` format
    per grid point, from index lists built with repeat and tile."""
    ns = dim.indices()
    n, m = np.repeat(ns, dim.d).tolist(), np.tile(ns, dim.d).tolist()
    rows = zip(n, m, *(t.ravel().tolist() for t in tables))
    row_format = "%d,%d" + ",%.17g" * len(tables) + "\n"
    return ",".join(header) + "\n" + "".join(row_format % row for row in rows)


def ndenumerate_heatmap(matrix):
    """The SVG heatmap document with one rect per entry from np.ndenumerate."""
    d = matrix.shape[0]
    cell = max(4, 320 // d)
    w = h = cell * d
    lo, hi = float(matrix.min()), float(matrix.max())
    shades = (255 * (1 - (matrix - lo) / max(hi - lo, 1e-300))).astype(int)
    body = [
        f'<rect x="{c * cell}" y="{(d - 1 - r) * cell}" width="{cell}" height="{cell}" '
        f'fill="rgb({shade},{shade},255)"/>'
        for (r, c), shade in np.ndenumerate(shades)
    ]
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    return "\n".join([head, *body, "</svg>"]) + "\n"


def grid_config(dim, out=None):
    return argparse.Namespace(dim=dim, out=out)


# float64 values whose text is easy to get wrong when formatting by distinct value:
# both zeros, NaNs with different sign and payload bits, infinities, subnormals
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001]
SPECIALS = np.concatenate(
    [[0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0, 1.0], np.array(NAN_BITS, dtype=np.uint64).view(float)]
)


def mixed_table(d, seed):
    """A d x d table of all-distinct random values over many decades, with
    every special value and runs of repeated values planted in it."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-300, 300, size=(d, d))
    flat = t.reshape(-1)
    planted = np.roll(SPECIALS, -3 * seed)[: d * d]
    flat[rng.permutation(d * d)[: len(planted)]] = planted
    if d > 3:
        t[d // 2, :: 2] = -0.0
        t[d // 2, 1::2] = 0.0
        t[:, 0] = 0.1
    return t


def usage_case(name, argv, *names):
    return pytest.param(argv.split(), names, id=name)


# Each exits 2 before any computation and names its rule in stderr.
USAGE_ERRORS = [
    usage_case("gaussian-even-dim", "gaussian --dim 4 --family g1", "odd and >= 3"),
    usage_case("verify-even-dim", "verify --dim 4", "odd and >= 3"),
    usage_case("negative-kappa", "gaussian --dim 3 --family g1 --kappa -1", "kappa must be positive"),
    usage_case("kappa-on-g4", "gaussian --dim 3 --family g4 --kappa 2", "g4 takes no kappa"),
    usage_case(
        "delta0-negative-kappa",
        "wigner --dim 5 --state delta0 --kappa -1",
        "kappa must be positive",
    ),
    usage_case(
        "delta0-kappa-on-g4",
        "wigner --dim 5 --state delta0 --family g4 --kappa 2",
        "g4 takes no kappa",
    ),
    usage_case("frame-without-family", "spectrum --dim 3 --kind frame", "frame requires"),
    usage_case(
        "gramschmidt-without-family", "revival --dim 3 --kind gramschmidt", "gramschmidt requires"
    ),
    usage_case(
        "deformed-without-alpha",
        "spectrum --dim 5 --kind deformed-fourier",
        "deformed-fourier requires",
        "alpha",
    ),
    usage_case(
        "alpha-out-of-range",
        "spectrum --dim 5 --kind deformed-harper --alpha 2.5",
        "alpha must lie in (0, 2)",
    ),
    usage_case("min-len-2", "revival --dim 3 --kind fourier --min-len 2", "min", "at least 3"),
    usage_case(
        "min-len-2-before-lanczos",
        "revival --kind gramschmidt --family g5 --dim 25 --min-len 2",
        "min",
        "at least 3",
    ),
    usage_case("zero-tol", "revival --dim 3 --kind fourier --tol 0", "tolerance must be positive"),
    usage_case("wigner-without-state", "wigner --dim 7", "wigner requires --family or --state delta0"),
]

# NaN and out-of-range numbers, refused by the same rules
NUMERIC_USAGE_ERRORS = [
    usage_case("nan-kappa", "gaussian --dim 5 --family g1 --kappa nan", "kappa must be positive"),
    usage_case("inf-kappa-g1", "gaussian --dim 5 --family g1 --kappa inf", "kappa must be positive"),
    usage_case("inf-kappa-g2", "gaussian --dim 5 --family g2 --kappa inf", "kappa must be positive"),
    usage_case("inf-kappa-g3", "gaussian --dim 5 --family g3 --kappa inf", "kappa must be positive"),
    usage_case(
        "nan-tol", "frame-check --dim 5 --family g4 --tol nan", "tolerance must be positive"
    ),
    usage_case(
        "nan-tol-revival", "revival --dim 9 --kind kravchuk --tol nan", "tolerance must be positive"
    ),
    usage_case(
        "inf-tol", "frame-check --dim 5 --family g4 --tol inf", "positive and finite, got inf"
    ),
    usage_case(
        "inf-tol-revival", "revival --dim 5 --kind harper --tol inf", "positive and finite, got inf"
    ),
    usage_case(
        "negative-samples", "revival --dim 9 --kind kravchuk --samples -1", "--samples", "at least 1"
    ),
    usage_case(
        "zero-samples", "revival --dim 9 --kind kravchuk --samples 0", "--samples", "at least 1"
    ),
    usage_case("negative-seed", "revival --dim 9 --kind kravchuk --seed -3", "--seed", "non-negative"),
    usage_case(
        "zero-samples-svg",
        "revival --dim 9 --kind kravchuk --samples 0 --format svg",
        "--samples",
        "at least 1",
    ),
]


@pytest.mark.parametrize("argv, names", USAGE_ERRORS + NUMERIC_USAGE_ERRORS)
def test_usage_errors_exit_2_before_computing(capsys, monkeypatch, argv, names):
    def computed(*args, **kwargs):
        raise AssertionError("computation started before the flags were checked")

    for module, name in [
        (cli, "normalized_gaussian"),
        (cli, "wigner_map"),
        (oscillators, "hamiltonian"),
        (oscillators, "gram_schmidt_oscillator"),
        (checks, "run_checks"),
        (frames, "coherent_family"),
        (kravchuk, "kravchuk_table"),
    ]:
        monkeypatch.setattr(module, name, computed)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    for name in names:
        assert name in err


class TestCsvBytes:
    """Every CSV command prints the bytes of per-field csv.writer formatting."""

    def test_gaussian(self, capsys):
        dim = GridDim.from_size(9)
        g = normalized_gaussian(dim, Family.G2, 0.7).values.real
        rows = [(int(n), float(v), float(v * v)) for n, v in zip(dim.indices(), g)]
        _, out, _ = run_cli(capsys, "gaussian", "--dim", "9", "--family", "g2", "--kappa", "0.7")
        assert out == per_field_csv(["n", "value", "prob"], rows)

    def test_spectrum(self, capsys):
        dim = GridDim.from_size(11)
        eigs = hermitian_eigenvalues(oscillators.hamiltonian(dim, "harper"))
        _, out, _ = run_cli(capsys, "spectrum", "--dim", "11", "--kind", "harper")
        assert out == per_field_csv(["index", "eigenvalue"], [(k, float(e)) for k, e in enumerate(eigs)])

    @pytest.mark.parametrize("kind", ["kravchuk", "harper"])
    def test_revival_mixes_records(self, capsys, kind):
        dim = GridDim.from_size(7)
        header = ["record", "start", "length", "gap", "period", "t", "fidelity"]
        _, out, _ = run_cli(
            capsys, "revival", "--dim", "7", "--kind", kind, "--state", "delta0", "--samples", "40"
        )
        assert out == per_field_csv(header, revival_rows(dim, kind, 40))

    @pytest.mark.parametrize("family, tol", [(Family.G1, "1e-10"), (Family.G4, "1e-18")])
    def test_frame_check_including_the_nan_row(self, capsys, family, tol):
        dim = GridDim.from_size(5)
        header = ["lower", "upper", "spread", "weight_sum", "tight"]
        _, out, _ = run_cli(
            capsys, "frame-check", "--dim", "5", "--family", family.value, "--tol", tol
        )
        assert out == per_field_csv(header, frame_check_rows(dim, family, float(tol)))

    def test_kravchuk_table_and_wigner(self, capsys):
        dim = GridDim.from_size(5)
        t, W = kravchuk_table(dim), wigner(GridFunction.delta(dim, 0))
        ns = dim.indices().tolist()
        rows = [(m, n, t.polynomial(m, n), t.function(m, n)) for m in ns for n in ns]
        _, out, _ = run_cli(capsys, "kravchuk-table", "--dim", "5")
        assert out == per_field_csv(["m", "n", "poly", "func"], rows)
        _, out, _ = run_cli(capsys, "wigner", "--dim", "5", "--state", "delta0")
        rows = [(n, m, W.value(n, m)) for n in ns for m in ns]
        assert out == per_field_csv(["n", "m", "w"], rows)


class TestGridWriters:
    """The grid CSV writer and the heatmap give the bytes of the per-entry
    references above, for any float64 table."""

    @pytest.mark.parametrize("d", [3, 201])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_grid_csv_matches_row_format_reference(self, capsys, d, columns):
        dim = GridDim.from_size(d)
        tables = [mixed_table(d, seed) for seed in range(columns)]
        header = ["n", "m", "a", "b"][: 2 + columns]
        cli._write_grid_csv(grid_config(dim), header, *tables)
        assert lines(capsys.readouterr().out) == lines(row_format_grid_csv(header, dim, *tables))

    def test_grid_csv_to_file(self, tmp_path):
        dim = GridDim.from_size(31)
        tables = [mixed_table(31, 7), mixed_table(31, 8)]
        out = tmp_path / "sub" / "t.csv"
        cli._write_grid_csv(grid_config(dim, out), ["m", "n", "poly", "func"], *tables)
        assert lines(out.read_text()) == lines(row_format_grid_csv(["m", "n", "poly", "func"], dim, *tables))

    def test_grid_csv_signed_zeros_and_nans(self, capsys):
        dim = GridDim.from_size(3)
        t = SPECIALS[[0, 1, 2, 3, 4, 5, 8, 9, 10]].reshape(3, 3)
        cli._write_grid_csv(grid_config(dim), ["n", "m", "w"], t)
        values = [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]
        subnormals = ["4.9406564584124654e-324", "-2.5000000000000171e-310"]
        assert values == ["0", "-0", "inf", "-inf", *subnormals, "nan", "nan", "nan"]

    def test_grid_csv_streams_one_grid_row_per_chunk(self, monkeypatch):
        dim = GridDim.from_size(7)
        chunks = []
        monkeypatch.setattr(cli, "_write_text", lambda cfg, text: chunks.extend(text))
        cli._write_grid_csv(grid_config(dim), ["n", "m", "w"], mixed_table(7, 1))
        assert chunks[0] == "n,m,w\n"
        assert [c.count("\n") for c in chunks[1:]] == [7] * 7
        assert [c.split(",", 1)[0] for c in chunks[1:]] == [str(n) for n in dim.indices()]

    def test_format_floats_formats_each_entry(self):
        t = mixed_table(9, 3)
        text = cli._format_floats(t)
        assert text.shape == t.shape and text.dtype == object
        assert text.tolist() == [["%.17g" % x for x in row] for row in t.tolist()]

    def test_format_floats_signs_and_specials(self):
        # each magnitude is formatted once and a set sign bit prefixes "-",
        # except on a NaN; -2.5 has no positive twin, 7.25 no negative one
        nans = [0xFFF8000000000000, 0x7FF8000000000000, 0xFFF0000000000001, 0x7FF0000000000001]
        bits = np.array(nans, dtype=np.uint64)
        t = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, -2.5, 7.25, 5e-324, -5e-324, *bits.view(float)])
        text = cli._format_floats(t.reshape(2, 7))
        assert text.reshape(-1).tolist() == [
            "0", "-0", "inf", "-inf", "1.5", "-1.5", "-2.5", "7.25",
            "4.9406564584124654e-324", "-4.9406564584124654e-324", "nan", "nan", "nan", "nan",
        ]

    def test_format_floats_without_negatives(self):
        text = cli._format_floats(np.array([[2.0, 0.0], [np.nan, 2.0]]))
        assert text.tolist() == [["2", "0"], ["nan", "2"]]

    @pytest.mark.parametrize("d", [3, 101])
    def test_heatmap_matches_ndenumerate_reference(self, d):
        M = np.random.default_rng(d).normal(size=(d, d))
        assert lines(cli._svg_heatmap(M)) == lines(ndenumerate_heatmap(M))

    def test_heatmap_of_a_wigner_map(self):
        W = wigner(normalized_gaussian(GridDim.from_size(101), Family.G3, 1.3)).values
        assert lines(cli._svg_heatmap(W)) == lines(ndenumerate_heatmap(W))

    def test_heatmap_of_a_constant_matrix(self):
        M = np.full((5, 5), -0.25)
        assert cli._svg_heatmap(M) == ndenumerate_heatmap(M)


class TestGaussianCommand:
    def test_binomial_family_d3(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--dim", "3", "--family", "g4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "value", "prob"]
        assert [r[0] for r in rows] == ["-1", "0", "1"]
        values = [float(r[1]) for r in rows]
        assert values == pytest.approx(
            [1 / math.sqrt(6), 2 / math.sqrt(6), 1 / math.sqrt(6)], abs=1e-15
        )
        probs = [float(r[2]) for r in rows]
        assert probs == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-15)

    def test_shifted_family_peaks_at_edges(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--dim", "15", "--family", "g2")
        assert code == 0
        _, rows = parse_csv(out)
        probs = {int(r[0]): float(r[2]) for r in rows}
        top = max(probs.values())
        assert probs[-7] == top and probs[7] == top

    def test_series_cap_exits_1_without_output(self, capsys, tmp_path):
        path = tmp_path / "g1.csv"
        argv = ("gaussian", "--family", "g1", "--kappa", "1e-9", "--dim", "3")
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out, path.exists()) == (1, "", False)
        assert err == "computation failed: lattice series at kappa = 1e-09, d = 3 did not converge within 10000 pairs\n"

    @pytest.mark.parametrize("command", ["gaussian", "wigner"])
    def test_profile_whose_norm_underflows_exits_1(self, capsys, command):
        # g2 at kappa = 1e6 underflows to 0 at every n of d = 11
        code, out, err = run_cli(capsys, command, "--family", "g2", "--kappa", "1e6", "--dim", "11")
        assert (code, out) == (1, "")
        assert err == (
            "computation failed: g2 at kappa = 1e+06, d = 11 cannot be normalized: "
            "its peak 0 is below 2.23e-308, the smallest normal float\n"
        )


class TestWignerCommand:
    def test_delta_state_d7(self, capsys):
        code, out, _ = run_cli(capsys, "wigner", "--dim", "7", "--state", "delta0")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 49
        for n, m, w in ((int(r[0]), int(r[1]), float(r[2])) for r in rows):
            assert w == pytest.approx(1 / 7 if n == 0 else 0.0, abs=1e-15)

    def test_ground_family_center_value(self, capsys):
        code, out, _ = run_cli(capsys, "wigner", "--dim", "15", "--family", "g1")
        assert code == 0
        _, rows = parse_csv(out)
        table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert table[(0, 0)] == pytest.approx(1 / 15, abs=1e-10)
        for (n, m), w in table.items():
            assert table[(-n, -m)] == pytest.approx(w, abs=1e-12)

    def test_requires_family_or_state(self, capsys):
        code, _, _ = run_cli(capsys, "wigner", "--dim", "7")
        assert code == 2

    @pytest.mark.parametrize("d", [7, 31])
    @pytest.mark.parametrize("state", [("--family", "g1", "--kappa", "0.7"), ("--state", "delta0")])
    def test_rows_match_per_entry_values(self, capsys, d, state):
        dim = GridDim.from_size(d)
        if state[0] == "--family":
            psi = normalized_gaussian(dim, Family.G1, 0.7)
        else:
            psi = GridFunction.delta(dim, 0)
        W = wigner(psi)
        ns = range(-dim.j, dim.j + 1)
        expected = per_entry_csv(["n", "m", "w"], [(n, m, W.value(n, m)) for n in ns for m in ns])
        code, out, _ = run_cli(capsys, "wigner", "--dim", str(d), *state)
        assert code == 0
        assert out == expected


class TestSpectrumCommand:
    def test_ladder_d3(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--kind", "kravchuk")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx([0.5, 1.5, 2.5], abs=1e-12)

    def test_fourier_d3(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--kind", "fourier")
        _, rows = parse_csv(out)
        expected = [0.5 * (1 - 1 / math.sqrt(3)), 0.5 * (1 + 1 / math.sqrt(3)), 1.0]
        assert [float(r[1]) for r in rows] == pytest.approx(expected, abs=1e-10)

    def test_harper_d3(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--kind", "harper")
        _, rows = parse_csv(out)
        expected = [(3 - math.sqrt(3)) / 2, (3 + math.sqrt(3)) / 2, 3.0]
        assert [float(r[1]) for r in rows] == pytest.approx(expected, abs=1e-10)

    def test_frame_kind_needs_family(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--dim", "3", "--kind", "frame")
        assert code == 2

    def test_deformed_needs_alpha_in_range(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--dim", "5", "--kind", "deformed-fourier")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "spectrum", "--dim", "5", "--kind", "deformed-fourier", "--alpha", "2.5"
        )
        assert code == 2
        code, out, _ = run_cli(
            capsys, "spectrum", "--dim", "5", "--kind", "deformed-fourier", "--alpha", "0.97"
        )
        assert code == 0


class TestVerifyCommand:
    def test_d3_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dim", "3")
        assert code == 0
        assert "FAIL" not in out
        assert "golden-kravchuk-functions" in out

    def test_d15_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--dim", "15")
        assert code == 0
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "47/47 checks passed at d=15"

    def test_gram_schmidt_check_reports_its_refusals(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--dim", "25")
        line = next(l for l in out.splitlines() if "gram-schmidt-ground-states" in l)
        assert line.startswith("PASS  gram-schmidt-ground-states  (max error")
        assert "refused g5: Lanczos breakdown at step" in line
        assert "condition" not in line

    def test_all_gram_schmidt_families_refused_is_skip(self, capsys, monkeypatch):
        def refuse(dim, family):
            raise ValueError("Lanczos breakdown at step 3: beta_k/j = 1.000e-12 (< 1e-10)")

        monkeypatch.setattr(oscillators, "gram_schmidt_oscillator", refuse)
        code, out, _ = run_cli(capsys, "verify", "--dim", "7")
        assert code == 0
        line = next(l for l in out.splitlines() if "gram-schmidt-ground-states" in l)
        assert line.startswith("SKIP")
        assert "max error" not in line
        assert "refused g1: Lanczos breakdown" in line
        assert out.splitlines()[-1] == "47/47 checks passed at d=7 (1 skipped)"

    def test_harper_failure_reports_dependent_checks_as_skipped(self, capsys, monkeypatch):
        def fail(dim):
            raise oscillators.DegenerateSpectrumError("Fourier classes are not separated")

        monkeypatch.setattr(oscillators, "harper_basis", fail)
        code, out, _ = run_cli(capsys, "verify", "--dim", "7")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL  harper-basis  (Fourier classes are not separated)" in lines
        assert "SKIP  fractional-fourier  (skipped: harper-basis failed)" in lines
        assert "SKIP  deformed-reduction  (skipped: harper-basis failed)" in lines
        assert lines[-1] == "46/47 checks passed at d=7 (2 skipped)"

    def test_even_dim_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--dim", "4")
        assert code == 2
        assert "odd" in err

    def test_refused_past_the_float64_range_before_any_check(self, capsys, monkeypatch):
        def reached(dim):
            raise AssertionError("a check ran on a grid past the Kravchuk range")

        monkeypatch.setattr(checks, "_check_fourier_algebra", reached)
        code, out, err = run_cli(capsys, "verify", "--dim", "1031")
        assert (code, out) == (2, "")
        assert err == "error: Kravchuk values at d = 1031 reach C(1030, 515) >= 2^1024, past the float64 range\n"


class TestRevivalCommand:
    def test_ladder_progression(self, capsys):
        code, out, _ = run_cli(
            capsys, "revival", "--dim", "9", "--kind", "kravchuk", "--samples", "201"
        )
        assert code == 0
        header, rows = parse_csv(out)
        progressions = [r for r in rows if r[0] == "progression"]
        assert len(progressions) == 1
        assert int(progressions[0][2]) == 9
        assert float(progressions[0][3]) == pytest.approx(1.0, abs=1e-10)
        assert float(progressions[0][4]) == pytest.approx(2 * math.pi, abs=1e-8)
        trace = [(float(r[5]), float(r[6])) for r in rows if r[0] == "fidelity"]
        assert trace[0][1] == pytest.approx(1.0, abs=1e-12)
        mid = trace[len(trace) // 2]
        assert mid[0] == pytest.approx(2 * math.pi, abs=1e-9)
        assert mid[1] == pytest.approx(1.0, abs=1e-8)

    def test_gram_schmidt_same_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "revival", "--dim", "9", "--kind", "gramschmidt", "--family", "g1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        progressions = [r for r in rows if r[0] == "progression"]
        assert len(progressions) == 1
        assert int(progressions[0][2]) == 9
        assert float(progressions[0][4]) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_unequal_gaps_detect_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys, "revival", "--dim", "3", "--kind", "fourier", "--min-len", "3", "--tol", "1e-6"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r for r in rows if r[0] == "progression"] == []

    def test_min_len_validated(self, capsys):
        code, _, _ = run_cli(capsys, "revival", "--dim", "3", "--kind", "fourier", "--min-len", "2")
        assert code == 2


class TestKravchukTableCommand:
    def test_d3_values(self, capsys):
        code, out, _ = run_cli(capsys, "kravchuk-table", "--dim", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "n", "poly", "func"]
        table = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows}
        assert table[(-1, 0)] == (1.0, pytest.approx(1 / math.sqrt(2), abs=1e-15))
        assert table[(0, -1)][0] == 2.0
        assert table[(1, 0)][1] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("d", [7, 31])
    def test_rows_match_per_entry_values(self, capsys, d):
        dim = GridDim.from_size(d)
        t = kravchuk_table(dim)
        ns = range(-dim.j, dim.j + 1)
        rows = [(m, n, t.polynomial(m, n), t.function(m, n)) for m in ns for n in ns]
        code, out, _ = run_cli(capsys, "kravchuk-table", "--dim", str(d))
        assert code == 0
        assert out == per_entry_csv(["m", "n", "poly", "func"], rows)

    @pytest.mark.parametrize(
        "d, digest",
        [
            (101, "b0375d999e6b9b76376dd9a16bf4c983c6f3f62c50a971d2f10938135e020c8e"),
            (201, "bf8eae94b52f283d199925bb1c0ee51055a115504093029fb4f2d281b134e06c"),
        ],
    )
    def test_bytes_golden(self, tmp_path, d, digest):
        # the table uses no BLAS, so these bytes hold at any BLAS thread count
        out = tmp_path / "table.csv"
        assert main(["kravchuk-table", "--dim", str(d), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_refused_past_the_float64_range(self, capsys):
        code, out, err = run_cli(capsys, "kravchuk-table", "--dim", "1031")
        assert (code, out) == (2, "")
        assert err == "error: Kravchuk values at d = 1031 reach C(1030, 515) >= 2^1024, past the float64 range\n"


def one_thread_digest(tmp_path, argv):
    """sha256 of the file ``finosc *argv --out FILE`` writes in a fresh process
    with one BLAS thread: the trailing digits of a BLAS product depend on the
    thread count, so bytes are pinned at one thread."""
    out = tmp_path / "out.csv"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [*argv, "--out", str(out)]
    probe = f"import sys; from finosc.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestSeededRevivalState:
    def test_fresh_process_never_imports_numpy_random(self, tmp_path):
        """A random-state revival and the identity suite draw through the
        standard library, so numpy.random stays unloaded; a seed gives the
        same bytes twice, and another seed another state."""
        probe = (
            "import hashlib, sys; from finosc.cli import main; out = sys.argv[1]; digests = []\n"
            "revival = ['revival', '--kind', 'harper', '--dim', '7', '--out', out]\n"
            "for seed in ('3', '3', '4'):\n"
            "    assert main([*revival, '--seed', seed]) == 0\n"
            "    digests.append(hashlib.sha256(open(out, 'rb').read()).hexdigest())\n"
            "assert main(['verify', '--dim', '5', '--out', out]) == 0\n"
            "print(*digests, 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-c", probe, str(tmp_path / "out.csv")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        first, again, other, loaded = proc.stdout.split()
        assert first == again != other
        assert loaded == "False"


class TestWignerBytes:
    def test_g4_golden_at_one_blas_thread(self, tmp_path):
        digest = "395847e35dbb2f15d892732d0174dda49e947100750df024dc07533fb1347431"
        assert one_thread_digest(tmp_path, ["wigner", "--family", "g4", "--dim", "201"]) == digest


class TestGramSchmidtSpectrumBytes:
    @pytest.mark.parametrize(
        "family, digest",
        [
            ("g1", "b14b56ca8e6ee79f318e19cb91abed97b3cb6ea3e6fa5fbd27274b00adc3fa4c"),
            ("g2", "4ef98c2eda3179cadfd210f1597b009f4d007a8fa14d7b02cf30397218d1b758"),
            ("g3", "c225e83e83bfde48bf4d4ad4608a24caeed2a08babce98ba37076372a0a187e2"),
            ("g4", "064a9d53ef5f336230cc8ca563f699de41943117dac9a65dcd1da05f86eaa51c"),
        ],
    )
    def test_golden_at_one_blas_thread(self, tmp_path, family, digest):
        # the eigenvalues of the Lanczos ladder built from G; its trailing digits follow the Lanczos start
        argv = ["spectrum", "--kind", "gramschmidt", "--family", family, "--dim", "201"]
        assert one_thread_digest(tmp_path, argv) == digest


class TestFrameCheckBytes:
    @pytest.mark.parametrize(
        "family, d, digest",
        [
            ("g4", 101, "7a86a96ea7429a08d29d7d0305a501cb4127e0e32e1ff911749205e4e61dfb65"),
            ("g1", 61, "cac58b6bd3d016bdfa2774e75529b00b539159d9757f6d7a48c5d6e5f920e6d7"),
        ],
    )
    def test_golden_at_one_blas_thread(self, tmp_path, family, d, digest):
        # the bounds are the extreme row sums of the d x d table |G(n - alpha)|^2
        # in numpy's summation order; no BLAS call, so any thread count agrees
        assert one_thread_digest(tmp_path, ["frame-check", "--family", family, "--dim", str(d)]) == digest


class TestParserReuse:
    """main builds its parser once per process; a reused parser answers a
    valid call, a usage error, an InputError and another valid call exactly as
    a fresh parser per call does."""

    SEQUENCE = [
        ["gaussian", "--dim", "5", "--family", "g1"],
        ["spectrum", "--dim", "5", "--kind", "nonsense"],
        ["gaussian", "--dim", "4", "--family", "g1"],
        ["spectrum", "--dim", "7", "--kind", "harper"],
    ]

    def outcomes(self, capsys):
        seen = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    def test_same_output_as_a_fresh_parser_per_call(self, capsys, monkeypatch):
        reused = self.outcomes(capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys)
        assert [code for code, _, _ in reused] == [0, 2, 2, 0]
        assert "invalid choice" in reused[1][2] and reused[2][2].startswith("error: ")
        assert reused == fresh

    def test_built_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            self.outcomes(capsys)
        finally:
            cli._parser.cache_clear()
        assert builds == [1]


class TestCommandSurface:
    """Each subcommand's flags: --format where a command can write SVG, --tol
    where a command reads a tolerance."""

    FLAGS = {
        "gaussian": ["--dim", "--family", "--format", "--kappa", "--out"],
        "wigner": ["--dim", "--family", "--format", "--kappa", "--out", "--state"],
        "spectrum": ["--alpha", "--dim", "--family", "--format", "--kind", "--out"],
        "verify": ["--dim", "--out"],
        "revival": [
            "--alpha", "--dim", "--family", "--format", "--kind", "--min-len",
            "--out", "--samples", "--seed", "--state", "--tol",
        ],
        "kravchuk-table": ["--dim", "--out"],
        "frame-check": ["--dim", "--family", "--out", "--tol"],
    }

    def test_option_strings(self):
        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        seen = {
            name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
            for name, p in commands.choices.items()
        }
        assert seen == self.FLAGS
        assert sum(map(len, seen.values())) == 36

    @pytest.mark.parametrize(
        "argv",
        [
            "gaussian --dim 3 --family g4 --tol 1e-6",
            "wigner --dim 3 --state delta0 --tol 1e-6",
            "spectrum --dim 3 --kind fourier --tol 1e-6",
            "verify --dim 3 --tol 0",
            "kravchuk-table --dim 3 --tol 1e-6",
            "verify --dim 3 --format csv",
            "kravchuk-table --dim 3 --format csv",
            "frame-check --dim 3 --family g4 --format csv",
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv.split()[-2:])}" in captured.err


class TestTraceContract:
    """The benchmark traces frames.frame_analyze and frames.quantize by
    replacing them, by identity, in every finosc module namespace; the
    commands must reach them through those names."""

    def test_commands_reach_the_traced_functions(self, tmp_path, monkeypatch):
        calls = {}
        for name in ("frame_analyze", "quantize"):
            orig = getattr(frames, name)

            def counting(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(*args, **kwargs)

            modules = [m for key, m in sys.modules.items() if key == "finosc" or key.startswith("finosc.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, counting)
        out = str(tmp_path / "out.csv")
        assert main(["frame-check", "--family", "g4", "--dim", "7", "--out", out]) == 0
        assert calls == {"frame_analyze": 1}
        assert main(["spectrum", "--kind", "frame", "--family", "g2", "--dim", "7", "--out", out]) == 0
        assert calls == {"frame_analyze": 1, "quantize": 1}


class TestFrameCheckCommand:
    def test_tight_family(self, capsys):
        code, out, _ = run_cli(capsys, "frame-check", "--dim", "3", "--family", "g4")
        assert code == 0
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["tight"] == "1"
        assert float(record["weight_sum"]) == pytest.approx(3.0, abs=1e-10)
        assert float(record["spread"]) < 1e-10

    def test_untight_frame_prints_nan_weight_sum(self, capsys):
        code, out, err = run_cli(
            capsys, "frame-check", "--dim", "5", "--family", "g4", "--tol", "1e-18"
        )
        assert code == 1
        assert err == ""
        header, rows = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["weight_sum"] == "nan"
        assert record["tight"] == "0"


class TestOutputHandling:
    def test_out_file_and_bit_stability(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(
                ["spectrum", "--dim", "9", "--kind", "harper", "--out", str(path)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FINOSC_OUT_DIR", str(tmp_path))
        code = main(["gaussian", "--dim", "3", "--family", "g5"])
        assert code == 0
        assert (tmp_path / "gaussian.csv").exists()

    def test_out_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FINOSC_OUT_DIR", str(tmp_path / "envdir"))
        target = tmp_path / "direct.csv"
        code = main(["gaussian", "--dim", "3", "--family", "g5", "--out", str(target)])
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "envdir").exists()

    # each subcommand's extra flags, and the Family its --family resolves to
    # (absent where the subcommand has no --family)
    CHECKED = {
        "gaussian": (["--family", "g2"], Family.G2),
        "wigner": (["--state", "delta0"], None),
        "spectrum": (["--kind", "frame", "--family", "g5"], Family.G5),
        "verify": ([], "absent"),
        "revival": (["--kind", "harper"], None),
        "kravchuk-table": ([], "absent"),
        "frame-check": (["--family", "g1"], Family.G1),
    }

    @pytest.mark.parametrize("command", list(CHECKED))
    def test_check_args_resolves_shared_flags(self, command, tmp_path, monkeypatch):
        extra, family = self.CHECKED[command]
        has_tol = command in ("revival", "frame-check")

        def checked(*flags):
            return cli._check_args(cli._parser().parse_args([command, "--dim", "7", *extra, *flags]))

        monkeypatch.delenv("FINOSC_OUT_DIR", raising=False)
        args = checked()
        assert args.dim == GridDim.from_size(7)
        assert vars(args).get("family", "absent") == family
        if has_tol:
            assert type(args.tol) is float and args.tol == 1e-10
        else:
            assert "tol" not in vars(args)
        assert args.out is None

        monkeypatch.setenv("FINOSC_OUT_DIR", str(tmp_path))
        args = checked()
        assert args.out == tmp_path / f"{command.replace('-', '_')}.csv"

        args = checked("--out", "x.csv", *(["--tol", "1e-8"] if has_tol else []))
        assert args.out == Path("x.csv")
        assert vars(args).get("tol", "absent") == (1e-8 if has_tol else "absent")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaussian", "--dim", "5", "--family", "g3", "--kappa", "0.7"],
            ["revival", "--dim", "7", "--kind", "harper", "--samples", "5"],
        ],
        ids=["gaussian", "revival"],
    )
    def test_finosc_tol_is_ignored(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("FINOSC_TOL", raising=False)
        unset = run_cli(capsys, *argv)
        monkeypatch.setenv("FINOSC_TOL", "not-a-number")
        assert run_cli(capsys, *argv) == unset and unset[0] == 0

    def test_out_dir_env_takes_the_format_suffix(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FINOSC_OUT_DIR", str(tmp_path))
        assert main(["gaussian", "--dim", "5", "--family", "g1", "--format", "svg"]) == 0
        assert (tmp_path / "gaussian.svg").read_text().startswith("<svg")
        assert not (tmp_path / "gaussian.csv").exists()

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["a-directory", "under-a-file"])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, under_a_file):
        target = tmp_path
        if under_a_file:
            (tmp_path / "f").write_text("")
            target = tmp_path / "f" / "out.csv"
        reason = os.strerror(errno.EEXIST if under_a_file else errno.EISDIR)
        code, out, err = run_cli(capsys, "gaussian", "--dim", "3", "--family", "g4", "--out", str(target))
        assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "g.svg"
        code = main(
            ["gaussian", "--dim", "15", "--family", "g1", "--format", "svg", "--out", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_wigner_svg(self, capsys, tmp_path):
        target = tmp_path / "w.svg"
        code = main(
            ["wigner", "--dim", "9", "--family", "g4", "--format", "svg", "--out", str(target)]
        )
        assert code == 0
        assert "<rect" in target.read_text()

    def test_seventeen_digit_floats(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--dim", "3", "--family", "g4")
        _, rows = parse_csv(out)
        for r in rows:
            value, prob = r[1], r[2]
            # 17 significant digits round-trip float64 exactly
            assert f"{float(value):.17g}" == value
            assert f"{float(value) ** 2:.17g}" == prob

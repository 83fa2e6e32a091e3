import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_d7(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--dim", "7", "--out-dir", str(tmp_path)])
    assert load("reproduce_figures").main() == 0
    assert (tmp_path / "revival_kravchuk.csv").exists()
    assert (tmp_path / "ground_frame_g4.csv").read_text().count("\n") == 8
    assert len(list(tmp_path.iterdir())) == 33


def test_reproduce_figures_stops_at_first_failure(tmp_path, monkeypatch, capsys):
    module = load("reproduce_figures")
    calls = []
    monkeypatch.setattr(module, "cli", lambda argv: calls.append(argv) or 1)
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", "--dim", "7", "--out-dir", str(tmp_path)])
    assert module.main() == 1
    assert len(calls) == 1
    assert "exited with 1" in capsys.readouterr().err


def test_revival_scan_d7(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["revival_scan.py", "--max-dim", "7"])
    assert load("revival_scan").main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(r.split()[0]) for r in rows] == [3, 5, 7]


def test_bench_d7(tmp_path):
    out = tmp_path / "bench.json"
    assert load("bench").main(["--dims", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cells = report["results"]["current"]
    assert sorted(cells) == [
        "check_frames",
        "check_gaussians",
        "check_kravchuk",
        "cli_frame_check",
        "cli_gaussian",
        "cli_kravchuk_table",
        "cli_revival",
        "cli_spectrum",
        "cli_verify",
        "cli_wigner",
        "frame_hamiltonian",
        "harper_basis",
        "kravchuk_table",
    ]
    for cell in cells.values():
        run = cell["7"]
        assert len(run["runs_s"]) == 3 and run["median_s"] > 0
        assert min(run["runs_s"]) <= run["q1_s"] <= run["median_s"] <= run["q3_s"] <= max(run["runs_s"])
        assert run["vmhwm_mib"] > 0 and not run["timed_out"] and not run["out_of_memory"]
        assert run["runs_blas_threads"] == [1, 1, 1]
    assert cells["check_kravchuk"]["7"]["status"] == ["13/13 passed"]
    assert cells["check_frames"]["7"]["status"] == ["6/6 passed"]
    assert cells["check_gaussians"]["7"]["status"] == ["6/6 passed"]
    for cell in ("kravchuk_table", "frame_hamiltonian", "harper_basis"):
        assert cells[cell]["7"]["status"] == ["ok"]
    cli_cells = (
        "cli_kravchuk_table",
        "cli_frame_check",
        "cli_gaussian",
        "cli_spectrum",
        "cli_wigner",
        "cli_revival",
        "cli_verify",
    )
    for cli_cell in cli_cells:
        assert cells[cli_cell]["7"]["status"] == ["exit 0"]


def test_bench_cells_subset(tmp_path):
    out = tmp_path / "bench.json"
    assert load("bench").main(["--cells", "cli_frame_check", "--dims", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["cells"] == ["cli_frame_check"]
    assert list(report["results"]["current"]) == ["cli_frame_check"]
    assert report["results"]["current"]["cli_frame_check"]["7"]["status"] == ["exit 0"]


def test_bench_refuses_an_unknown_cell(capsys):
    with pytest.raises(SystemExit) as exc:
        load("bench").main(["--cells", "cli_frame_check,nope", "--dims", "7"])
    assert exc.value.code == 2
    assert "unknown nope" in capsys.readouterr().err


def test_bench_worker_refuses_an_unknown_cell():
    with pytest.raises(ValueError, match="unknown cell 'nope'"):
        load("bench").run_cell("nope", 7)


def test_compare_outputs_reports_a_changed_byte(tmp_path, monkeypatch, capsys):
    module = load("compare_outputs")
    ops = [["gaussian", "--dim", "3", "--family", "g4"], ["spectrum", "--dim", "3", "--kind", "fourier"]]
    monkeypatch.setattr(module, "distinct_ops", lambda seeds: ops)
    src = SCRIPTS.parent / "src"
    assert module.main(["--src", f"a={src}", "--src", f"b={src}"]) == 0
    assert capsys.readouterr().out == "0 of 2 ops differ across a, b\n"

    # the same tree with one byte of the gaussian CSV header changed
    changed = tmp_path / "src"
    shutil.copytree(src / "finosc", changed / "finosc", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "finosc" / "cli.py"
    text = cli.read_text()
    assert text.count('"prob"') == 1
    cli.write_text(text.replace('"prob"', '"prop"'))
    assert module.main(["--src", f"parent={src}", "--src", f"change={changed}"]) == 1
    assert capsys.readouterr().out == (
        "differs: gaussian --dim 3 --family g4 (stdout sha256)\n1 of 2 ops differ across parent, change\n"
    )


def test_compare_outputs_op_list():
    ops = load("compare_outputs").distinct_ops([1, 5])
    assert len(ops) == len({tuple(op) for op in ops}) == 45
    assert ops[-3:] == [["verify", "--dim", d] for d in ("3", "101", "201")]

#!/usr/bin/env python3
"""Regenerate the standard figure data set at one dimension (default d = 15):

* probability profiles of the five normalized Gaussians (CSV + SVG),
* Wigner maps of g1, g2, g4 (CSV + SVG),
* ground-state profiles of six oscillators (CSV),
* level diagrams of the oscillator spectra (SVG),
* a revival fidelity trace for the ladder oscillator (CSV).

Usage: python scripts/reproduce_figures.py --out-dir out [--dim 15]
"""

import argparse
import csv
import sys
from pathlib import Path

from finosc.cli import main as cli
from finosc.gaussians import Family
from finosc.grid import GridDim, eigendecompose_hermitian
from finosc.kravchuk import kravchuk_transform
from finosc.oscillators import (
    fourier_hamiltonian,
    frame_hamiltonian,
    harper_hamiltonian,
    kravchuk_hamiltonian,
)


def ground_states(dim: GridDim, out_dir: Path) -> None:
    oscillators = {
        "fourier": fourier_hamiltonian(dim),
        "harper": harper_hamiltonian(dim),
        "kravchuk": kravchuk_hamiltonian(dim),
        "frame_g1": frame_hamiltonian(dim, 1),
        "frame_g2": frame_hamiltonian(dim, 2),
        "frame_g4": frame_hamiltonian(dim, 4),
    }
    for name, H in oscillators.items():
        ground = eigendecompose_hermitian(H).vector(0)
        if name == "kravchuk":
            # the ladder oscillator's position variable lives in the rotated
            # eigenbasis; show the profile there rather than a bare delta
            ground = kravchuk_transform(dim).adjoint().apply(ground)
        with open(out_dir / f"ground_{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "value", "prob"])
            for n, v in zip(dim.indices(), ground.values):
                w.writerow([int(n), f"{v.real:.17g}", f"{abs(v) ** 2:.17g}"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=15)
    parser.add_argument("--out-dir", type=str, default="out")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = str(args.dim)

    commands = []
    for fam in Family:
        commands.append(["gaussian", "--dim", d, "--family", fam.value, "--out", str(out / f"profile_{fam.value}.csv")])
        commands.append(["gaussian", "--dim", d, "--family", fam.value, "--format", "svg",
                         "--out", str(out / f"profile_{fam.value}.svg")])
    for fam in ("g1", "g2", "g4"):
        commands.append(["wigner", "--dim", d, "--family", fam, "--out", str(out / f"wigner_{fam}.csv")])
        commands.append(["wigner", "--dim", d, "--family", fam, "--format", "svg",
                         "--out", str(out / f"wigner_{fam}.svg")])
    for kind, extra, tag in [
        ("fourier", [], "fourier"),
        ("harper", [], "harper"),
        ("frame", ["--family", "g1"], "frame_g1"),
        ("frame", ["--family", "g2"], "frame_g2"),
        ("frame", ["--family", "g4"], "frame_g4"),
    ]:
        commands.append(["spectrum", "--dim", d, "--kind", kind, *extra, "--out", str(out / f"levels_{tag}.csv")])
        commands.append(["spectrum", "--dim", d, "--kind", kind, *extra, "--format", "svg",
                         "--out", str(out / f"levels_{tag}.svg")])
    commands.append(["revival", "--dim", d, "--kind", "kravchuk", "--samples", "401",
                     "--out", str(out / "revival_kravchuk.csv")])
    for argv in commands:
        code = cli(argv)
        if code != 0:
            print(f"finosc {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1

    ground_states(GridDim.from_size(args.dim), out)
    print(f"wrote figure data for d={args.dim} to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

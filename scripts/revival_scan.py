#!/usr/bin/env python3
"""Scan oscillator spectra for equal-gap progressions across dimensions.

For each odd d in the requested range, reports the spread of the lowest gaps
of the Harper spectrum (they tighten as d grows) and the revival period of
the ladder oscillator.

Usage: python scripts/revival_scan.py [--max-dim 31] [--gaps 10]
"""

import argparse

import numpy as np

from finosc.grid import GridDim, eigendecompose_hermitian, hermitian_eigenvalues
from finosc.oscillators import detect_revivals, harper_hamiltonian, kravchuk_hamiltonian


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=31)
    parser.add_argument("--gaps", type=int, default=10, help="how many low gaps to pool")
    args = parser.parse_args()

    print(f"{'d':>4} {'harper low-gap spread':>22} {'ladder period':>14}")
    for d in range(3, args.max_dim + 1, 2):
        dim = GridDim.from_size(d)
        gaps = np.diff(hermitian_eigenvalues(harper_hamiltonian(dim)))[: args.gaps]
        ladder = eigendecompose_hermitian(kravchuk_hamiltonian(dim))
        report = detect_revivals(ladder, min_len=3, tol=1e-8)
        period = report.progressions[0].period if report.progressions else float("nan")
        print(f"{d:>4} {np.std(gaps):>22.6f} {period:>14.8f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

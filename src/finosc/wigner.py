"""Discrete Wigner function on the odd grid and its Gaussian product forms.

W_psi(n, m) = (1/d) sum_k e^{4 pi i mk/d} psi(n-k) conj(psi(n+k)) with periodic
indexing; note the 4 pi/d kernel.  For odd d the row sums give |psi(n)|^2 and
the column sums |F[psi](m)|^2, which the tests use as indexing oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import Family, _check_kappa, gaussian
from .grid import GridDim, GridFunction, InputError, _check_integer, _readonly_copy, fourier_transform

__all__ = [
    "WignerMap",
    "wigner",
    "wigner_fourier_covariance_check",
    "wigner_product_decomposition",
]


@dataclass(frozen=True, eq=False)
class WignerMap:
    """Real phase-space table indexed by (position n, momentum m)."""

    dim: GridDim
    values: np.ndarray

    def __post_init__(self):
        d = self.dim.d
        object.__setattr__(self, "values", _readonly_copy(self.values, float, (d, d)))

    def value(self, n: int, m: int) -> float:
        j, d = self.dim.j, self.dim.d
        return float(self.values[(_check_integer("n", n) + j) % d, (_check_integer("m", m) + j) % d])

    def total(self) -> float:
        return float(self.values.sum())


def wigner(psi: GridFunction) -> WignerMap:
    """The Wigner map of a finite state.  W scales as ||psi||^2, so an
    imaginary residue above 1e-12 max(1, ||psi||^2) raises ValueError."""
    if not np.all(np.isfinite(psi.values)):
        raise ValueError("state has non-finite entries")
    dim = psi.dim
    j, d = dim.j, dim.d
    n = dim.indices()
    i = np.arange(d)
    # corr[i_n, i_k] = psi(n - k) conj(psi(n + k)) in storage indices
    minus = (i[:, None] - i[None, :] + j) % d
    plus = (i[:, None] + i[None, :] - j) % d
    corr = psi.values[minus] * np.conj(psi.values[plus])
    # unreduced, unlike grid._phase: reduced, W has nearly twice the distinct floats the CSV formats
    kernel = np.exp(4j * np.pi * np.outer(n, n) / d)  # kernel[i_m, i_k], grid values
    W = corr @ kernel.T / d
    residue = float(np.max(np.abs(W.imag)))
    bound = 1e-12 * max(1.0, psi.norm() ** 2)
    if residue > bound:
        raise ValueError(f"Wigner imaginary residue {residue:.3e} exceeds {bound:.1e}")
    return WignerMap(dim, W.real)


def wigner_fourier_covariance_check(psi: GridFunction) -> bool:
    """True iff W_{F[psi]}(n, m) equals W_psi(m, -n) within
    1e-10 max(1, ||psi||^2); psi must be even."""
    if not psi.is_even():
        raise ValueError("covariance check requires an even function")
    W = wigner(psi).values
    WF = wigner(fourier_transform(psi)).values
    rotated = W[:, ::-1].T  # rotated[i_n, i_m] = W[i_m, d-1-i_n] = W_psi(m, -n)
    return bool(np.max(np.abs(WF - rotated)) <= 1e-10 * max(1.0, psi.norm() ** 2))


_SIGNS = {
    Family.G1: (1.0, 1.0, 1.0, -1.0),
    Family.G2: (1.0, -1.0, 1.0, 1.0),
    Family.G3: (1.0, 1.0, -1.0, 1.0),
}


def wigner_product_decomposition(dim: GridDim, family: Family, kappa: float) -> WignerMap:
    """Wigner map of g1/g2/g3 assembled from products of half-width Gaussians.

    Four rank-one products of the doubled-parameter families (2 kappa in
    position, 2/kappa in momentum) with a per-family sign pattern, all scaled
    by 1/sqrt(2 kappa d).  Matches wigner(gaussian(...)) entrywise.
    """
    if family not in _SIGNS:
        raise InputError(f"product decomposition applies to g1, g2, g3 only, got {family.value}")
    kappa = _check_kappa(family, kappa)
    s = _SIGNS[family]
    a1 = gaussian(dim, Family.G1, 2.0 * kappa).values.real
    a2 = gaussian(dim, Family.G2, 2.0 * kappa).values.real
    b1 = gaussian(dim, Family.G1, 2.0 / kappa).values.real
    b2 = gaussian(dim, Family.G2, 2.0 / kappa).values.real
    pref = 1.0 / np.sqrt(2.0 * kappa * dim.d)
    W = pref * (
        s[0] * np.outer(a1, b1)
        + s[1] * np.outer(a1, b2)
        + s[2] * np.outer(a2, b1)
        + s[3] * np.outer(a2, b2)
    )
    return WignerMap(dim, W)

"""Binomial coefficients via log-Gamma accumulation.

Going through lgamma keeps values finite for grids up to d ~ 201, where raw
factorials overflow float64.
"""

from __future__ import annotations

from math import lgamma

__all__ = ["log_binomial"]


def log_binomial(k: int, n: int) -> float:
    """log C(k, n) for 0 <= n <= k; raises if outside that range."""
    if not 0 <= n <= k:
        raise ValueError(f"log_binomial undefined for C({k}, {n})")
    return lgamma(k + 1) - lgamma(n + 1) - lgamma(k - n + 1)

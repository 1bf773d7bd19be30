"""Monotone driving processes advanced by stationary independent increments.

Two processes are supported: the multivariate Gamma subordinator (each
coordinate gains independent Gamma(dt, 1) increments) and the multivariate
Poisson jump process (independent Poisson(lambda_i * dt) increments).
Every coordinate path is nondecreasing in t for every realization.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "advance_gamma_batch", "advance_poisson_batch"]


class RngStream:
    """Deterministic pseudo-random stream keyed by (seed, substream indices).

    The same (seed, key) pair reproduces the draw sequence bit-for-bit.
    ``substream(i, ...)`` derives a statistically independent stream from
    the parent's seed and key alone, so derived streams do not depend on
    how much the parent has already drawn.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(int(i) for i in _key)
        self.gen = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.key + indices)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"


def _check_dt(dt: float) -> float:
    dt = float(dt)
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    return dt


def advance_gamma_batch(values: np.ndarray, dt: float, rng: RngStream) -> np.ndarray:
    """Add independent Gamma(dt, 1) increments to every entry of ``values``."""
    dt = _check_dt(dt)
    return values + rng.gen.gamma(dt, 1.0, size=values.shape)


def advance_poisson_batch(values: np.ndarray, dt: float, rates: np.ndarray, rng: RngStream) -> np.ndarray:
    """Add independent Poisson(rates * dt) increments, one rate per column."""
    dt = _check_dt(dt)
    rates = np.asarray(rates, dtype=float)
    if np.any(rates <= 0):
        raise ValueError("all rates must be > 0")
    if rates.shape != values.shape[-1:]:
        raise ValueError("rates must have one entry per column")
    return values + rng.gen.poisson(rates * dt, size=values.shape)

"""Monotone driving processes advanced by stationary independent increments.

Two processes are supported: the multivariate Gamma subordinator (each
coordinate gains independent Gamma(dt, 1) increments) and the multivariate
Poisson jump process (independent Poisson(lambda_i * dt) increments).
Every coordinate path is nondecreasing in t for every realization.
"""

from __future__ import annotations

import math

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
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    return dt


def _gs_candidates(a: float, n: int, gen: np.random.Generator):
    """n candidates of GS rejection (Ahrens & Dieter 1974) for Gamma(a, 1),
    0 < a <= 1, from n uniforms U and then n standard exponentials E, and
    which of them are accepted."""
    u = gen.random(n)
    e = gen.standard_exponential(n)
    tail = np.flatnonzero(u > 1.0 - a)
    y = -np.log((1.0 - u[tail]) / a)
    x = np.power(u, 1.0 / a, out=u)  # U^(1/a) where U <= 1 - a
    x[tail] = np.power(1.0 - a + a * y, 1.0 / a)
    e[tail] += y  # the tail accepts X <= E + Y
    return x, x <= e


def advance_gamma_batch(values: np.ndarray, dt: float, rng: RngStream) -> np.ndarray:
    """Add independent Gamma(dt, 1) increments to every entry of ``values``.

    Shape f = dt - (ceil(dt) - 1) in (0, 1] is drawn by the GS rejection
    numpy runs entry by entry for shapes below 1, over the whole array at
    once, redrawing rejected entries in index order until none are left;
    dt > 1 adds ceil(dt) - 1 exponentials.  numpy's law, not its stream."""
    dt = _check_dt(dt)
    whole = math.ceil(dt) - 1
    inc, keep = _gs_candidates(dt - whole, values.size, rng.gen)
    redo = np.flatnonzero(~keep)
    while redo.size:
        x, keep = _gs_candidates(dt - whole, redo.size, rng.gen)
        inc[redo[keep]] = x[keep]
        redo = redo[~keep]
    inc = inc.reshape(values.shape)
    for _ in range(whole):
        inc += rng.gen.standard_exponential(values.shape)
    return np.add(inc, values, out=inc)


def advance_poisson_batch(values: np.ndarray, dt: float, rates: np.ndarray, rng: RngStream) -> np.ndarray:
    """Add independent Poisson(rates * dt) increments, one rate per column."""
    dt = _check_dt(dt)
    rates = np.asarray(rates, dtype=float)
    if np.any(rates <= 0):
        raise ValueError("all rates must be > 0")
    if rates.shape != values.shape[-1:]:
        raise ValueError("rates must have one entry per column")
    return values + rng.gen.poisson(rates * dt, size=values.shape)

"""Monotone driving processes advanced by stationary independent increments.

Two processes are supported: the multivariate Gamma subordinator (each
coordinate gains independent Gamma(dt, 1) increments) and the multivariate
Poisson jump process (independent Poisson(lambda_i * dt) increments).
Every coordinate path is nondecreasing in t for every realization.
``poisson_sampler`` draws whole Poisson vectors by inversion for the
baselines.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import poisson_cdf_at

__all__ = ["RngStream", "advance_gamma_batch", "advance_poisson_batch", "poisson_sampler"]

# Bins of u in each column's guide table.
_GUIDE_BINS = 1 << 10
# Entries per pass of a Poisson draw: the temporaries (64 KiB) stay under
# glibc's mmap threshold, so their pages are not faulted in afresh on every
# call: one pass over 4096 x 12 entries spent 31% of its time in page faults
# (2-core VM).
_DRAW_ENTRIES = 8192


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


def poisson_sampler(rates):
    """``draw(gen, c)``: a (c, n) float array of Poisson(rates[j]) counts in
    column j, by inversion with a guide table (Chen & Asau 1974).

    Each column's CDF F is tabulated once, from the first k with F(k) > 0 to
    the first k where F rounds to 1.0.  ``draw`` makes one ``gen.random((c,
    n))`` call and returns X = min{k : u < F(k)}, one uniform per count in C
    order, so the counts do not depend on how the rows are split into calls.
    The law is exact up to the rounding of F and the 2^-53 grid of u.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError("rates must be a non-empty 1-d array of finite values > 0")
    n, cdfs, counts = rates.size, [], []
    for lam, sd in zip(rates, np.sqrt(rates)):
        # Chernoff: F < 1e-347 (0.0) 40 sd below lam, and 1 - F < 1e-26 at the top
        k = np.arange(max(0.0, math.floor(lam - 40 * sd)),
                      math.ceil(lam + 40 * sd + 40) + 1.0)
        f = poisson_cdf_at(lam, k)
        keep = slice(np.argmax(f > 0.0), np.argmax(f == 1.0) + 1)
        cdfs.append(f[keep])
        counts.append(k[keep])
    # the columns' tables end to end; guide and search give indices into them
    starts = np.cumsum([0] + [f.size for f in cdfs])
    cdf, count = np.concatenate(cdfs), np.concatenate(counts)
    edges = np.arange(_GUIDE_BINS) / _GUIDE_BINS
    guide = np.concatenate([s + np.searchsorted(f, edges, side="right")
                            for s, f in zip(starts, cdfs)])
    bin_base, rows = np.arange(n) * _GUIDE_BINS, max(1, _DRAW_ENTRIES // n)

    def draw(gen: np.random.Generator, c: int) -> np.ndarray:
        u = gen.random((c, n))
        for first in range(0, c, rows):
            part = u[first:first + rows]
            # F(guide - 1) <= the bin's lower edge <= u, so X >= guide, and
            # one step settles every bin that holds at most one jump of F
            k = guide.take((part * _GUIDE_BINS).astype(np.intp) + bin_base)
            k += part >= cdf.take(k)
            far = np.flatnonzero(part >= cdf.take(k))
            for j in np.unique(far % n):
                at = far[far % n == j]
                k.flat[at] = starts[j] + np.searchsorted(
                    cdf[starts[j]:starts[j + 1]], part.flat[at], side="right")
            count.take(k, out=part)  # the counts overwrite their uniforms
        return u

    return draw

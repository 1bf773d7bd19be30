"""Seeded random streams and the samplers behind the monotone processes.

``advance_gamma_batch`` adds independent Gamma(dt, 1) increments, the
multivariate Gamma subordinator that continuous problems are embedded in.
The Poisson jump process (``model.ProblemSpec.process``) adds numpy's
Poisson counts instead in the paper's plain loop.  ``poisson_sampler``
draws Poisson counts by inversion from tables kept per rate vector: whole
vectors for the baselines and for every level of a refreshed splitting
run, one chosen coordinate per row for the Poisson clones' refresh.
"""

from __future__ import annotations

import math

import numpy as np

from .dist import MAX_POISSON_RATE, poisson_cdf_at

__all__ = ["RngStream", "advance_gamma_batch", "gamma_increments", "poisson_sampler"]

# Bins of u in each column's guide table.
_GUIDE_BINS = 1 << 10
# Entries per elementwise pass (embedding, bracket tables, Poisson draws).
# A pass's temporaries (64 KiB of doubles) stay under glibc's default mmap
# threshold (128 KiB), so they reuse heap pages instead of faulting in fresh
# ones on every call: one Poisson pass over 4096 x 12 entries spent 31% of
# its time in page faults (2-core VM).
BLOCK_ENTRIES = 8192


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


def row_blocks(rows: int, width: int):
    """Slices that cut ``rows`` rows of ``width`` entries into consecutive
    blocks of at most BLOCK_ENTRIES entries (at least one row each)."""
    step = max(1, BLOCK_ENTRIES // width)
    return (slice(start, start + step) for start in range(0, rows, step))


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


def gamma_increments(shape, dt: float, gen: np.random.Generator) -> np.ndarray:
    """An array of ``shape`` of independent Gamma(dt, 1) variates.

    Shape f = dt - (ceil(dt) - 1) in (0, 1] is drawn by the GS rejection
    numpy runs entry by entry for shapes below 1, over the whole array at
    once, redrawing rejected entries in index order until none are left;
    dt > 1 adds ceil(dt) - 1 exponentials.  numpy's law, not its stream:
    the draws depend only on dt and the array's size."""
    dt = _check_dt(dt)
    whole = math.ceil(dt) - 1
    inc, keep = _gs_candidates(dt - whole, math.prod(shape), gen)
    redo = np.flatnonzero(~keep)
    while redo.size:
        x, keep = _gs_candidates(dt - whole, redo.size, gen)
        inc[redo[keep]] = x[keep]
        redo = redo[~keep]
    inc = inc.reshape(shape)
    for _ in range(whole):
        inc += gen.standard_exponential(shape)
    return inc


def advance_gamma_batch(values: np.ndarray, dt: float, rng: RngStream) -> np.ndarray:
    """``values`` plus independent Gamma(dt, 1) increments (``gamma_increments``),
    in a new array."""
    inc = gamma_increments(values.shape, dt, rng.gen)
    return np.add(inc, values, out=inc)


def poisson_sampler(rates):
    """``draw(gen, c)``: a (c, n) float array of Poisson(rates[j]) counts in
    column j, by inversion with a guide table (Chen & Asau 1974);
    ``draw(gen, c, cols)``: c counts, count i from column cols[i]'s law;
    ``draw(gen, c, plus=rows)``: the (c, n) counts added into ``rows``.

    Each column's CDF F is tabulated once, from the first k with F(k) > 0 to
    the first k where F rounds to 1.0: about 80 sqrt(rate) entries, so rates
    above ``dist.MAX_POISSON_RATE`` are rejected.  The rate vectors used last
    keep their tables, up to ``_TABLE_BYTES``, which ``draw`` only reads, so
    the refresh, a refreshed run's levels, naive MC and IS build each once per
    process.  ``draw`` returns X = min{k : u < F(k)}, one uniform per count in
    C order, from one ``gen.random(c)`` call or one ``gen.random`` call per
    block of rows (``row_blocks``), so the counts do not depend on how the
    rows are split into calls.  The law is exact up to the rounding of F and
    the 2^-53 grid of u.
    """
    rates = np.asarray(rates, dtype=float)
    key = rates.shape, rates.tobytes()
    entry = _tables.pop(key, None) or _sampler(*key)
    _tables[key] = entry  # last; past the budget the first go, never the newest
    held = sum(nbytes for _, nbytes in _tables.values())
    while held > _TABLE_BYTES and len(_tables) > 1:
        held -= _tables.pop(next(iter(_tables)))[1]
    return entry[0]


# A refreshed run of L levels reads up to 2L - 1 rate vectors (L increments,
# L - 1 refresh times).  A column holds about 80 sqrt(rate) + 40 CDF entries
# (16 bytes with its count) and an 8 KiB guide: a Table I vector takes 0.1 MB,
# so the budget keeps hundreds, and a rate-1e6 column takes up to 1.3 MB.
_TABLE_BYTES = 64 << 20
_tables = {}  # (shape, bytes) of a rate vector -> (draw, bytes of its tables)


def _sampler(shape, data):
    """(``poisson_sampler``'s draw of the rates of this shape and bytes, its tables' bytes)."""
    rates = np.frombuffer(data).reshape(shape)
    if (rates.ndim != 1 or rates.size == 0
            or not np.all((rates > 0) & (rates <= MAX_POISSON_RATE))):
        raise ValueError(
            f"rates must be a non-empty 1-d array of values in (0, {MAX_POISSON_RATE:g}]")
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
    bin_base = np.arange(n) * _GUIDE_BINS

    def invert(u, base, columns, out):
        """The counts of uniforms ``u``, written to ``out`` of u's shape: ``base``
        is each entry's first guide bin, ``columns(far)`` the columns of flat entries."""
        # F(guide - 1) <= the bin's lower edge <= u, so X >= guide, and
        # one step settles every bin that holds at most one jump of F
        k = guide.take((u * _GUIDE_BINS).astype(np.intp) + base)
        k += u >= cdf.take(k)
        far = np.flatnonzero(u >= cdf.take(k))
        col = columns(far)
        for j in np.unique(col):
            at = far[col == j]
            k.flat[at] = starts[j] + np.searchsorted(
                cdf[starts[j]:starts[j + 1]], u.flat[at], side="right")
        count.take(k, out=out)

    def draw(gen: np.random.Generator, c: int, cols=None, plus=None) -> np.ndarray:
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
            if cols.shape != (c,) or c and not 0 <= cols.min() <= cols.max() < n:
                raise ValueError(f"cols must hold {c} column indices in [0, {n})")
            u = gen.random(c)
            invert(u, bin_base.take(cols), cols.take, u)
            return u
        x = np.empty((c, n))
        for block in row_blocks(c, n):
            part = x[block]
            invert(gen.random(part.shape), bin_base, lambda far: far % n, part)
        return x if plus is None else np.add(plus, x, out=plus)

    return draw, cdf.nbytes + count.nbytes + guide.nbytes

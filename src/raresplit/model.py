"""Problem specification, the static-to-dynamic embedding, and the
quasi-monotone importance functions.

A problem is a vector of independent marginals together with a monotone
aggregate S and a threshold gamma; the estimand is P[S(X) <= gamma].
Continuous problems are embedded in the Gamma subordinator by mapping each
coordinate's Gamma level g through the marginal quantile: increasing
coordinates (direction "I") via F^{-1}(1 - e^{-g}), decreasing ones
(direction "D") via F^{-1}(e^{-g}).  Poisson problems evolve natively as
jump processes and need no embedding.  ``ProblemSpec`` builds one process
object from its kind, which owns the dynamics; ``curve.py`` owns the curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .dist import (Marginal, Poisson, Truncated, _at, _fail, _json_fields, _json_kind,
                   _json_object, _json_value, _require_positive, marginal_from_json)
from .process import (RngStream, _check_dt, advance_gamma_batch, gamma_increments,
                      poisson_sampler, row_blocks)

__all__ = [
    "Sum",
    "Ratio",
    "OrderedPartialSum",
    "WeightedSum",
    "ProblemSpec",
    "embed",
    "importance",
    "importance_from_json",
]


class _Aggregate:
    """What every aggregate S provides.  Subclasses are frozen dataclasses
    whose fields are also their JSON fields, next to ``kind``
    (``importance_from_json`` reads them back)."""

    kind: str

    def directions(self, n: int) -> tuple:
        """The directions ("I" increasing, "D" decreasing) under which S is
        nondecreasing in each of n coordinates: the quasi-monotone pairing.
        Raises ValueError unless S is defined on n coordinates."""
        return ("I",) * n

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """S of every row of a 2-d array of a width ``directions`` accepts;
        einsum sums each row in one fixed order, whatever rows are passed with it."""
        raise NotImplementedError

    def summands(self, n: int):
        """(weights, top) when S(x) is the sum of the ``top`` largest of the
        terms w_i x_i over n coordinates; None when S is no such sum."""
        return (1.0,) * n, n

    def room_columns(self, n: int) -> tuple:
        """The columns of n whose room ``room`` states: where S is the sum of
        all n terms w_i x_i, those with w_i > 0; none for a top-n_bar sum."""
        weights, top = self.summands(n)
        return tuple(i for i, w in enumerate(weights) if w > 0) if top == n else ()

    def room(self, rows, cols, gamma):
        """Per row i, the largest x_j, j = cols[i], with S <= gamma given the
        other entries: (gamma - sum_{i != j} w_i x_i) / w_j for a full sum."""
        weights = np.asarray(self.summands(rows.shape[1])[0], dtype=float)
        rest = rows.copy()
        rest[np.arange(len(rows)), cols] = 0.0
        return (gamma - self.score_rows(rest)) / weights.take(cols)

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class Sum(_Aggregate):
    kind = "sum"

    def score_rows(self, rows):
        return np.einsum("ij->i", rows)


@dataclass(frozen=True)
class Ratio(_Aggregate):
    """S(x) = x_1 / (x_2 + ... + x_n + eta) with noise floor eta > 0, in
    JSON also as ``eta_db``, its power in dB."""

    eta: float = field(metadata={"db": ("eta_db", lambda x: 10.0 ** (x / 10.0))})
    kind = "ratio"

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        _require_positive(eta=self.eta)

    def directions(self, n):
        if n < 2:
            raise ValueError("Ratio needs at least two coordinates")
        return ("I",) + ("D",) * (n - 1)

    def summands(self, n):
        return None

    def room_columns(self, n):
        return (0,)

    def room(self, rows, cols, gamma):
        """gamma (x_2 + ... + x_n + eta) per row, the numerator's (every col is 0)."""
        return gamma * (np.einsum("ij->i", rows[:, 1:]) + self.eta)

    def score_rows(self, rows):
        denom = np.einsum("ij->i", rows[:, 1:]) + self.eta
        # early times send D-coordinates to +inf; the ratio is then 0, not NaN
        return np.divide(rows[:, 0], denom, out=np.zeros(rows.shape[0]),
                         where=~np.isinf(denom))


@dataclass(frozen=True)
class OrderedPartialSum(_Aggregate):
    """S(x) = sum of the n_bar largest coordinates."""

    n_bar: int
    kind = "ordered_partial_sum"

    def __post_init__(self):
        if not (isinstance(self.n_bar, int) and not isinstance(self.n_bar, bool)
                and self.n_bar >= 1):
            raise ValueError(f"n_bar must be an integer >= 1, got {self.n_bar!r}")

    def directions(self, n):
        if n < self.n_bar:
            raise ValueError(f"n_bar is {self.n_bar}, more than the {n} coordinates")
        return ("I",) * n

    def summands(self, n):
        return (1.0,) * n, self.n_bar

    def score_rows(self, rows):
        n = rows.shape[1]
        if self.n_bar < n:
            rows = np.partition(rows, n - self.n_bar, axis=1)[:, n - self.n_bar:]
        return np.einsum("ij->i", rows)


@dataclass(frozen=True)
class WeightedSum(_Aggregate):
    """S(x) = sum_i w_i x_i with finite nonnegative weights, at least one positive."""

    weights: tuple
    kind = "weighted_sum"

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if not (all(0 <= v < np.inf for v in w) and any(v > 0 for v in w)):
            raise ValueError("weights must be finite, nonnegative and not all zero")

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def directions(self, n):
        if n != len(self.weights):
            raise ValueError(f"weights has {len(self.weights)} entries for {n} coordinates")
        return ("I",) * n

    def summands(self, n):
        return self.weights, n

    def score_rows(self, rows):
        # A zero weight on an infinite coordinate gives a NaN score, which
        # fails every threshold; numpy's warning about it says nothing more.
        with np.errstate(invalid="ignore"):
            return np.einsum("ij,j->i", rows, self.weight_array())


_AGGREGATES = {cls.kind: cls for cls in (Sum, Ratio, OrderedPartialSum, WeightedSum)}


def importance(spec, x):
    """Evaluate S on a single vector (1-d) or a batch of rows (2-d)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    spec.directions(rows.shape[1])  # raises unless S is defined on this many coordinates
    out = spec.score_rows(rows)
    return float(out[0]) if single else out


def _quantile_groups(marginals, directions) -> tuple:
    """((marginal, tail), columns, width) of each quantile's columns, in order
    of first appearance; contiguous columns are a slice, so blocks are views."""
    groups = {}
    for i, (m, d) in enumerate(zip(marginals, directions)):
        groups.setdefault((m, "upper" if d == "I" else "lower"), []).append(i)
    return tuple((key, slice(c[0], c[-1] + 1) if c[-1] - c[0] == len(c) - 1 else np.array(c),
                  len(c)) for key, c in groups.items())


def _embed(g, groups):
    """``embed`` of one state or a matrix of them, with its column groups."""
    arr = np.asarray(g, dtype=float)
    rows = arr[None, :] if arr.ndim == 1 else arr
    out = np.empty_like(rows)
    for (m, tail), cols, width in groups:
        for block in row_blocks(rows.shape[0], width):
            out[block, cols] = m.quantile_from_neg_log_tail(rows[block, cols], tail)
    return out[0] if arr.ndim == 1 else out


def embed(g, marginals, directions):
    """Map Gamma levels to target-law coordinates.

    ``g`` is a vector (one state) or matrix (batch of states, one row each);
    column i goes through marginal i's tail-stable quantile, on the upper
    tail for direction "I" and the lower tail for direction "D".  Columns
    that share a (marginal, tail) pair go through one quantile call per
    block of at most process.BLOCK_ENTRIES entries; the quantiles are
    elementwise, so the values equal a column-by-column pass.
    """
    if not np.shape(g)[-1] == len(marginals) == len(directions):
        raise ValueError("g, marginals and directions must agree in length")
    return _embed(g, _quantile_groups(marginals, directions))


# The survival bracket's grid: the doubles in [2^MIN_EXP, 2^MAX_EXP] whose
# mantissa keeps only its top _BRACKET_BITS bits, 2^_BRACKET_BITS per binade.
_BRACKET_BITS = 8
_BRACKET_MIN_EXP = -100
_BRACKET_MAX_EXP = 10
# The room search's guide: buckets of the doubles that share their sign,
# exponent and top _GUIDE_BITS mantissa bits, at most _GUIDE_BUCKETS per table
_GUIDE_BITS = 11
_GUIDE_BUCKETS = 1 << 18


class _SurvivalBracket:
    """Entrywise bounds on the embedding, read from per-group quantile tables.

    The quasi-monotone pairing makes S(embed(g)) nondecreasing in every g_i
    on either tail, so the embedding of g's enclosing grid points bounds
    S(embed(g)) from below and above without evaluating any quantile.
    Cell k holds [v_k, v_{k+1}), cell 0 also [0, v_0), and reads its bounds
    at v_{k-1} (0 for cell 0) and v_{k+2}: one grid point of slack on each
    side absorbs ulp-level non-monotonicity of the quantile kernels."""

    def __init__(self, groups, n):
        first = (1023 + _BRACKET_MIN_EXP) << _BRACKET_BITS  # v_0's bits >> (52 - B)
        K = (_BRACKET_MAX_EXP - _BRACKET_MIN_EXP) << _BRACKET_BITS
        # numpy scalars: a Python int operand slows each call of cells()
        self._first, self._last = np.intp(first), np.intp(first + K)
        v = np.arange(first, first + K + 2, dtype=np.uint64) << (52 - _BRACKET_BITS)
        grid = np.concatenate(([0.0], v.view(float)))  # 0, then v_0 .. v_{K+1}
        lo, hi = [], []
        self._offsets = offsets = np.empty(n, dtype=np.intp)
        for j, ((m, tail), cols, _) in enumerate(groups):
            q = np.empty_like(grid)  # q[1 + k]: at v_k
            for block in row_blocks(grid.size, 1):
                q[block] = m.quantile_from_neg_log_tail(grid[block], tail)
            # slot K holds NaN bounds: rows with a NaN, negative, infinite or
            # g >= 2^_BRACKET_MAX_EXP entry stay undecided and are scored exactly
            lo += [q[:K], [np.nan]]
            hi += [q[3:], [np.nan]]
            offsets[cols] = j * (K + 1)
        self.lo = np.concatenate(lo)
        self.hi = np.concatenate(hi)
        # a scalar for one group spares numpy a broadcast over short rows
        base = first - offsets
        self._base = base[0] if (base == base[0]).all() else base
        self._guides = {}  # table offset -> (first bucket's key, bucket starts)

    def cells(self, g: np.ndarray, cols=None) -> np.ndarray:
        """Index into ``lo`` and ``hi`` of every entry of ``g``: lo[c] is the
        embedding at a level at or below the entry, hi[c] at or above it.
        ``g`` holds rows of every column, or with ``cols`` entry i of column cols[i]."""
        # sign, exponent and top mantissa bits, below 2^20; a set sign bit (negative
        # values, -0.0) and the all-ones exponent (inf, NaN) clamp to slot K
        c = (g.view(np.uint64) >> np.uint64(52 - _BRACKET_BITS)).view(np.intp)
        c.clip(self._first, self._last, out=c)
        c -= self._base if cols is None or self._base.ndim == 0 else self._base.take(cols)
        return c

    def below(self, x: np.ndarray, col: int) -> np.ndarray:
        """Per entry of ``x``, a level of the "I" column ``col`` at and below
        which its embedding is at most the entry: v_{k-1}, with cells 0..k-1
        the ones whose ``hi`` is at most it (0 for k = 0, and for a NaN entry,
        the room of a row with a level the bracket leaves open).  Each ``hi``
        reads a grid point past its cell, which absorbs the table's ulp-level wobble."""
        start, K = self._offsets[col], self._last - self._first
        table = self.hi[start:start + K + 1]
        guide = self._guides.get(start)
        if guide is None:
            guide = self._guides[start] = _guide(table)
        # k = the entries of the table at most x, as searchsorted(table, x, "right")
        # counts them: the entries below x's bucket, plus its one entry if that is
        # at most x; a bucket's -1 reads the NaN slot, adds 0 and marks a search
        key = x.view(np.int64) >> np.int64(52 - _GUIDE_BITS)
        key -= guide[0]
        k = guide[1].take(key, mode="clip")
        k += table.take(k) <= x
        slow = k < 0
        if slow.any():
            at = slow.nonzero()[0]
            # a NaN entry reads K + 1, past the table's NaN slot K, and then 0
            k[at] = np.searchsorted(table, x.take(at), "right") % (K + 1)
        bits = (k + (self._first - 1)).view(np.uint64) << np.uint64(52 - _BRACKET_BITS)
        return np.where(k > 0, bits.view(float), 0.0)  # no kept grid: it refaulted the heap


def _guide(table):
    """(the first bucket's key, the entries of ``table`` below each bucket) of
    ``below``'s guide over a table of K values and its NaN slot.  The key of a
    double x >= 0 is its bits >> (52 - _GUIDE_BITS), which orders the doubles
    >= 0; a bucket starts at the double whose bits are its key << (52 - _GUIDE_BITS).
    Keys clip to the first bucket, which holds no entry unless it starts at 0,
    and to the last, past the table's last entry.  A bucket holding two
    entries or more and the last one (+inf, NaN and all values past the guide)
    read -1: their rooms are searched.  So does every bucket of a table that
    is not sorted or has an entry below 0."""
    values, shift = table[:-1], 52 - _GUIDE_BITS
    if not (values[0] >= 0 and (values[1:] >= values[:-1]).all()):
        return np.int64(0), np.full(1, -1, dtype=np.int32)
    first = max(int(values[0].view(np.int64)) >> shift, 1) - 1
    last = min((int(values[-1].view(np.int64)) >> shift) + 1, first + _GUIDE_BUCKETS - 1)
    edges = (np.arange(first, last + 1, dtype=np.int64) << shift).view(float)
    starts = np.searchsorted(values, edges, "left").astype(np.int32)
    starts[np.diff(starts, append=values.size) > 1] = -1
    starts[-1] = -1
    return np.int64(first), starts


class _GammaEmbedding:
    """The process of a continuous problem: independent Gamma(t, 1) levels,
    mapped to coordinates through the marginal quantiles (``embed``)."""

    def __init__(self, marginals, directions, importance):
        self.marginals = marginals
        self.importance = importance
        self._groups = _quantile_groups(marginals, directions)
        self.room_columns = np.array(importance.room_columns(len(marginals)), dtype=np.intp)
        group = np.empty(len(marginals), dtype=np.intp)
        for j, (_, cols, _) in enumerate(self._groups):
            group[cols] = j
        # per quantile table that room columns read: one of them, and its columns
        firsts = {group[c]: c for c in self.room_columns[::-1]}
        self._room_tables = [(c, group == j) for j, c in firsts.items()]
        terms = importance.summands(len(marginals))
        self._weights = None if terms is None else np.asarray(terms[0], dtype=float)

    def rates(self):
        raise ValueError("rates() is only defined for poisson problems")

    def advance(self, rows, dt, rng):
        """``rows`` of levels, dt later, in a new array."""
        return advance_gamma_batch(rows, dt, rng)

    @cached_property
    def bracket(self):
        """The survival bracket, built on first use."""
        return _SurvivalBracket(self._groups, len(self.marginals))

    def __getstate__(self):
        # a pickled copy (a pool task's) carries no tables; it builds its own bracket
        return {k: v for k, v in self.__dict__.items() if k != "bracket"}

    def survives(self, states, gamma):
        """S(embed(states)) <= gamma for every row of levels, bit for bit: rows
        whose bracket's bounds do not decide it, a NaN bound among them, are scored."""
        score = self.importance.score_rows
        c = self.bracket.cells(states)
        # most rows of a level fail, so the upper bounds are read for the rest only
        out = ~(score(self.bracket.lo.take(c)) > gamma)
        open_rows = out.nonzero()[0]
        passes = score(self.bracket.hi.take(c.take(open_rows, axis=0))) <= gamma
        out[open_rows] = passes
        undecided = open_rows[~passes]
        if undecided.size:
            rows = _embed(states.take(undecided, axis=0), self._groups)
            out[undecided] = score(rows) <= gamma
        return out

    def room(self, states, cols, gamma):
        """Per row i of levels, a level a_lo <= the largest of column cols[i]
        with S <= gamma given the others: ``importance.room`` on the bracket's
        ``hi``, above every "I" and below every "D" coordinate, as a level."""
        bracket = self.bracket
        return self._level(self.importance.room(bracket.hi.take(bracket.cells(states)),
                                                cols, gamma), cols)

    def clone_room(self, states, idx, rows, cols, gamma):
        """Per clone rows[i] of parent states[idx[i]], a level a_lo of its
        column j = cols[idx[i], -1] within the clone's own room, after the
        moves of cols[idx[i], :-1]: gamma minus S of the parent's ``hi`` row with
        every column of cols[idx[i]] zeroed (once per parent), minus w_c times
        the ``hi`` of each moved column c at the clone's level, in order, over
        w_j.  It reads no level of column j, so a move within it keeps the law."""
        bracket, n = self.bracket, rows.shape[1]
        rest = bracket.hi.take(bracket.cells(states))
        rest[np.arange(len(states))[:, None], cols] = 0.0
        x = gamma - self.importance.score_rows(rest)
        x, cols = x.take(idx), cols.take(idx, axis=0)
        flat, at = rows.reshape(-1), np.arange(0, rows.size, n)
        for c in cols[:, :-1].T:
            g = flat.take(at + c)
            x -= self._weights.take(c) * bracket.hi.take(bracket.cells(g, c))
        x /= self._weights.take(cols[:, -1])
        return self._level(x, cols[:, -1])

    def _level(self, x, cols):
        """Per entry of ``x``, the bracket's level of column cols[i] at and below
        which the embedding is at most x[i] (``_SurvivalBracket.below``)."""
        bracket = self.bracket
        if len(self._room_tables) == 1:  # every row reads one table
            return bracket.below(x, self._room_tables[0][0])
        a_lo = np.empty_like(x)
        for col, member in self._room_tables:
            at = member.take(cols)
            a_lo[at] = bracket.below(x[at], col)
        return a_lo

    def moves(self, states, rows, idx, gamma, t, rng):
        """Moves of each clone rows[i] of parent states[idx[i]] at time t > 0,
        in place.  Each parent draws min(ROOM_MOVES, m) distinct columns of
        the m room columns (``_room_picks``; none where m is 1, so no bits), and
        each clone takes one ``move`` of each in turn: the first within its
        parent's ``room``, computed once per parent, each later one within
        the clone's own room (``clone_room``)."""
        columns = self.room_columns
        if columns.size == 1:  # a ratio's numerator: no pick, no gather
            col = columns[0]
            self.move(rows, col, self.room(states, col, gamma).take(idx), t, rng)
            return
        cols = columns.take(_room_picks(rng.gen, columns.size, len(states),
                                        min(ROOM_MOVES, columns.size)))
        ours = cols.take(idx, axis=0)
        self.move(rows, ours[:, 0], self.room(states, cols[:, 0], gamma).take(idx), t, rng)
        for k in range(2, cols.shape[1] + 1):
            self.move(rows, ours[:, k - 1], self.clone_room(states, idx, rows, cols[:, :k], gamma),
                      t, rng)

    def move(self, rows, cols, a_lo, t, rng):
        """One independence Metropolis-Hastings update of level g = rows[i, cols[i]]
        of each row i at time t > 0, in place: g' = a_lo U^(1/t) has density ~
        g'^(t-1) on [0, a_lo], accepted where g <= a_lo and a uniform V < e^(g - g').
        It keeps the Gamma(t, 1) level's law given the others, and rows survive."""
        t, n = _check_dt(t), rows.shape[1]
        if not rows.flags.c_contiguous:
            raise ValueError("move writes through a flat view; rows must be C-contiguous")
        flat, at = rows.reshape(-1), np.arange(0, rows.size, n)
        at += cols
        g = flat.take(at)
        u, v = rng.gen.random((2, len(rows)))
        new = np.power(u, 1.0 / t, out=u)
        new *= a_lo
        accept = (g <= a_lo) & (v < np.exp(g - new))
        flat[at] = np.where(accept, new, g)

    def sampler(self, t=1.0):
        """``draw(gen, c)``: c states at time t > 0, the subordinator's
        Gamma(t, 1) levels, whose embedding is X(t): ``gamma_increments``, the
        draws ``advance`` adds, and at t = 1 numpy's Exp(1) levels.
        ``draw(gen, c, cols)``: c levels, level i from column cols[i]'s law
        at t, which is Gamma(t, 1) for every column.  ``plus=rows`` adds the
        rows over the draw, which a level then keeps as ``advance`` does (adding
        into the rows refaulted the heap: 805 faults per VI replication, not 256)."""
        n, t = len(self.marginals), _check_dt(t)

        def draw(gen, c, cols=None, plus=None):
            shape = (c, n) if cols is None else (c,)
            x = gen.standard_exponential(shape) if t == 1.0 else gamma_increments(shape, t, gen)
            return x if plus is None else np.add(x, plus, out=x)
        return draw

    def truncated(self, bounds):
        """The marginals truncated to [0, b_i], an infinite b_i leaving its law
        whole, and ln prod_i F_i(b_i)."""
        laws = tuple(Truncated(m, b) if b < math.inf else m
                     for m, b in zip(self.marginals, bounds))
        return laws, math.fsum(law.log_mass for law, b in zip(laws, bounds) if b < math.inf)


def _room_picks(gen, m, c, depth):
    """c rows of ``depth`` distinct indices into m columns, in one ``integers``
    call: pick k is uniform over the m - k columns not picked before it."""
    picks = gen.integers(0, m - np.arange(depth), (c, depth))
    for k in range(1, depth):
        # the r-th column not picked yet: r steps past each earlier pick at or
        # below it, in increasing order
        r = picks[:, k]
        for taken in np.sort(picks[:, :k], axis=1).T:
            r += r >= taken
    return picks


class _PoissonJumps:
    """The process of a Poisson problem: coordinate i counts the jumps of a
    rate-lambda_i Poisson process, so the states are the coordinates."""

    def __init__(self, marginals, directions, importance):
        # Poisson problems read the weights of S (oracle, IS tilt, survival curve)
        if not isinstance(importance, WeightedSum):
            raise ValueError("poisson problems require a weighted-sum importance")
        self.importance = importance
        self._rates = np.asarray([m.lam for m in marginals], dtype=float)

    # counts have no bracket, so no column is moved within its room
    room_columns = np.empty(0, dtype=np.intp)

    def rates(self):
        return self._rates.copy()

    def advance(self, rows, dt, rng):
        """``rows`` of counts, dt later, in place, by gen.poisson(rates * dt) in row blocks."""
        lam = self._rates * _check_dt(dt)
        for block in row_blocks(len(rows), lam.size):
            part = rows[block]
            part += rng.gen.poisson(lam, size=part.shape)
        return rows

    def survives(self, states, gamma):
        """S(states) <= gamma for every row of counts."""
        return self.importance.score_rows(states) <= gamma

    def sampler(self, t=1.0):
        """``draw(gen, c)``: c states at time t > 0, Poisson(rates * t) counts
        from the tables of ``poisson_sampler``; ``draw(gen, c, cols)``: c
        counts, count i from column cols[i]'s law at t; ``draw(gen, c,
        plus=rows)`` adds the draw into the rows."""
        return poisson_sampler(self._rates * _check_dt(t))

    def truncated(self, bounds):
        """None: a count is no embedded law, so it has no truncated one."""
        return None


_PROCESSES = {"continuous": _GammaEmbedding, "poisson": _PoissonJumps}

# Metropolis updates per clone in ``ProblemSpec.step``'s refresh.  On Table I
# (s = 3000, lb levels, 1,500 paired runs per arm, 2-core VM) relative
# variance x time per run at 3 updates against 1 reads 0.60, 0.55, 0.66 and
# 0.62 at gamma = 60, 50, 40 and 30.  4 against 3 reads 0.92 to 1.02, with 1
# inside its 95% interval on three rows of four, and 4 draws a third more values
REFRESH_UPDATES = 3

# Room columns each parent draws and each clone moves in ``ProblemSpec.step``'s
# refresh, where the process has that many.  On Table V's box (gamma = 1.39,
# s = 3000, 600 paired replications in one interpreter, 2-core VM) 2, 3 and 4
# moves take 1.13, 1.28 and 1.44 times one move's time and read relative
# variance per run 0.046, 0.030 and 0.027 against 0.073: 2 is the deepest
# within 1.18 times
ROOM_MOVES = 2


@dataclass(frozen=True)
class ProblemSpec:
    """Full estimation problem: marginals, directions, importance S, threshold.

    ``kind`` is "continuous" (Gamma-embedded) or "poisson" (native jump
    process; requires all-Poisson marginals and a weighted-sum S).
    ``process``, built from it, advances states, draws their law at a
    time t and decides which states survive; ``step`` and ``refresh`` run a
    splitting level on it.
    """

    marginals: tuple
    directions: tuple
    importance: object
    gamma: float
    kind: str = "continuous"
    process: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        object.__setattr__(self, "directions", tuple(self.directions))
        n = len(self.marginals)
        if n == 0:
            raise ValueError("at least one marginal is required")
        if not all(isinstance(m, Marginal) for m in self.marginals):
            raise ValueError("marginals must be Marginal instances")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.kind not in _PROCESSES:
            raise ValueError(f"kind must be 'continuous' or 'poisson', got {self.kind!r}")
        if {isinstance(m, Poisson) for m in self.marginals} != {self.kind == "poisson"}:
            needs = "every marginal" if self.kind == "poisson" else "no marginal"
            raise ValueError(f"kind {self.kind!r} needs {needs} to be Poisson")
        expected = self.importance.directions(n)
        if self.directions != expected:
            raise ValueError(f"directions must be {list(expected)}, the quasi-monotone "
                             f"pairing of this importance, got {list(self.directions)}")
        object.__setattr__(self, "process", _PROCESSES[self.kind](
            self.marginals, self.directions, self.importance))

    @property
    def n(self) -> int:
        return len(self.marginals)

    def rates(self) -> np.ndarray:
        """Poisson rates vector (poisson-kind problems only)."""
        return self.process.rates()

    @property
    def refreshes(self) -> bool:
        """Whether ``cli.run_estimation`` refreshes this problem's levels: where
        that was measured to cut relative variance x time: Poisson counts
        (Table I), and an aggregate whose columns the process moves within
        their rooms, a ratio's numerator (Table VI) or a full sum (Table V,
        whose refreshed replication takes about 1.28 times the plain loop's)."""
        return isinstance(self.process, _PoissonJumps) or self.process.room_columns.size > 0

    def step(self, states: np.ndarray, idx: np.ndarray, dt: float, rng: RngStream,
             refresh_at: float | None = None) -> np.ndarray:
        """The rows of ``states[idx]``, a finite dt > 0 later, whose score is still <= gamma.

        In the paper's plain loop (``refresh_at`` None, the default) the rows
        advance by ``process.advance``: numpy's ``gen.poisson`` counts for a
        Poisson problem.  A refreshed run passes the time of ``states``: at a
        time other than 0 each gathered row is first moved (a NaN, negative
        or infinite time raises there).  Where the process has ``room_columns``,
        each clone takes ``process.moves``: one ``process.move`` of each of
        ``ROOM_MOVES`` distinct columns its parent draws, within rooms that
        never read the column moved; else each row takes ``REFRESH_UPDATES``
        refresh updates.  The rows then add one draw of X(dt),
        ``process.sampler(dt)``'s (Poisson counts from the tables of rates *
        dt).  Both draws have the increments' law; for dt < 1 the Gamma draws
        are ``advance``'s bits."""
        rows = states.take(idx, axis=0)
        if refresh_at is None:
            rows = self.process.advance(rows, dt, rng)
        else:
            if refresh_at and self.process.room_columns.size:
                self.process.moves(states, rows, idx, self.gamma, refresh_at, rng)
            elif refresh_at:
                self.refresh(rows, refresh_at, rng, REFRESH_UPDATES)
            rows = self.process.sampler(dt)(rng.gen, len(rows), plus=rows)
        kept = rows[self.process.survives(rows, self.gamma)]
        # the survivors fill the head of the level's array, keeping it allocated
        # through the next level; freeing it here made glibc trim and refault the heap
        rows[:len(kept)] = kept
        return rows[:len(kept)]

    def refresh(self, rows: np.ndarray, t: float, rng: RngStream, updates: int = 1) -> None:
        """``updates`` Metropolis steps per row of states at time t > 0, in
        place: each redraws a uniformly chosen coordinate from its own law at
        t (``process.sampler(t)``) and restores it where the row no longer
        survives.  The Metropolis ratio is then the indicator of S <= gamma,
        so every step keeps the survivors' law at t (generalized splitting's move).

        A proposal does not depend on the row, so all updates x rows column
        picks come from one ``integers`` call and their proposals from one
        ``sampler(t)`` draw; the steps then decide in order, one ``survives``
        call each.  One update draws the stream of a single step."""
        if not rows.flags.c_contiguous:
            raise ValueError("refresh writes through a flat view; rows must be C-contiguous")
        c, n = rows.shape
        cols = rng.gen.integers(0, n, size=(updates, c))
        proposals = self.process.sampler(t)(rng.gen, cols.size, cols.ravel()).reshape(updates, c)
        cols += np.arange(0, c * n, n)  # each pick's flat index
        flat = rows.reshape(-1)
        for at, new in zip(cols, proposals):
            old = flat.take(at)
            flat[at] = new
            np.putmask(new, ~self.process.survives(rows, self.gamma), old)
            flat[at] = new

    def boxed(self) -> tuple[ProblemSpec, float]:
        """(the problem on the box, ln of the box's mass).

        Where S sums nonnegative terms w_i x_i, S <= gamma forces x_i <= b_i =
        gamma / w_i, so P[S(X) <= gamma] = prod_i F_i(b_i) P[S(Y) <= gamma]
        with Y_i drawn from F_i truncated to [0, b_i]: the mass is exact, and
        the boxed event is far less rare.  A weight of 0 leaves its
        coordinate uncut.  (self, 0.0), no box, where S is no such sum, a b_i
        is not > 0 (gamma <= 0), the process has no truncated laws (Poisson
        counts) or the mass is 0 in double.
        """
        terms = self.importance.summands(self.n)
        if terms is not None:
            bounds = [self.gamma / w if w > 0 else math.inf for w in terms[0]]
            cut = self.process.truncated(bounds) if min(bounds) > 0 else None
            if cut is not None and math.exp(cut[1]) != 0.0:
                return replace(self, marginals=cut[0]), cut[1]
        return self, 0.0

    def to_json(self) -> dict:
        return {
            "marginals": [m.to_json() for m in self.marginals],
            "directions": list(self.directions),
            "importance": self.importance.to_json(),
            "gamma": self.gamma,
            "kind": self.kind,
        }

    @classmethod
    def from_json(cls, obj, path: str = "$") -> "ProblemSpec":
        """The problem of a JSON scenario, the object ``to_json`` writes, at
        JSON path ``path``; a bad value raises ScenarioError at its own path."""
        scen = _json_object(obj, [f.name for f in fields(cls) if f.init], path)
        if not isinstance(scen["marginals"], list) or not scen["marginals"]:
            _fail(f"{path}.marginals", "must be a non-empty array")
        if not isinstance(scen["directions"], list):
            _fail(f"{path}.directions", f"must be an array, got {scen['directions']!r}")
        marginals = [marginal_from_json(m, f"{path}.marginals[{i}]")
                     for i, m in enumerate(scen["marginals"])]
        importance = importance_from_json(scen["importance"], f"{path}.importance")
        gamma = _json_value(scen["gamma"], "float", f"{path}.gamma")
        with _at(path):
            return cls(marginals, scen["directions"], importance, gamma, scen["kind"])


def importance_from_json(obj, path: str = "$"):
    """The aggregate named by the object's ``kind``, built from its other
    fields, at JSON path ``path``; a bad value raises ScenarioError at its own path."""
    cls = _json_kind(_AGGREGATES, obj, path, "importance")
    values = _json_fields(cls, {k: v for k, v in obj.items() if k != "kind"}, path)
    with _at(path):
        return cls(**values)

"""Problem specification, the static-to-dynamic embedding, and the
quasi-monotone importance functions.

A problem is a vector of independent marginals together with a monotone
aggregate S and a threshold gamma; the estimand is P[S(X) <= gamma].
Continuous problems are embedded in the Gamma subordinator by mapping each
coordinate's Gamma level g through the marginal quantile: increasing
coordinates (direction "I") via F^{-1}(1 - e^{-g}), decreasing ones
(direction "D") via F^{-1}(e^{-g}).  Poisson problems evolve natively as
jump processes and need no embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .dist import Marginal, Poisson

__all__ = [
    "Sum",
    "Ratio",
    "OrderedPartialSum",
    "WeightedSum",
    "ProblemSpec",
    "embed",
    "importance",
    "is_quasi_monotone_witness",
    "importance_from_json",
]


class _Aggregate:
    """What every aggregate S provides.  Subclasses are frozen dataclasses
    whose fields are also their JSON fields, next to ``kind``."""

    kind: str
    # Poisson problems read the weights of S (oracle, IS tilt, survival curve)
    poisson_ok = False

    def pairs_with(self, directions) -> bool:
        """True iff S is nondecreasing in every coordinate under ``directions``
        ("I" increasing, "D" decreasing): the quasi-monotone pairing."""
        return len(directions) >= 1 and all(d == "I" for d in directions)

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """S of every row of a 2-d array whose width passed check_arity."""
        raise NotImplementedError

    def check_arity(self, n: int) -> None:
        """Raise ValueError unless S is defined on n coordinates."""

    def summands(self, n: int):
        """(weights, top) when S(x) is the sum of the ``top`` largest of the
        terms w_i x_i over n coordinates; None when S is no such sum."""
        return (1.0,) * n, n

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_json(cls, obj: dict):
        for f in fields(cls):
            if f.name not in obj:
                raise ValueError(f"{cls.kind} importance requires {f.name!r}")
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class Sum(_Aggregate):
    kind = "sum"

    def score_rows(self, rows):
        return rows.sum(axis=1)


@dataclass(frozen=True)
class Ratio(_Aggregate):
    """S(x) = x_1 / (x_2 + ... + x_n + eta) with noise floor eta > 0."""

    eta: float
    kind = "ratio"

    def __post_init__(self):
        object.__setattr__(self, "eta", float(self.eta))
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")

    def pairs_with(self, directions) -> bool:
        return (len(directions) >= 2 and directions[0] == "I"
                and all(d == "D" for d in directions[1:]))

    def check_arity(self, n):
        if n < 2:
            raise ValueError("Ratio needs at least two coordinates")

    def summands(self, n):
        return None

    def score_rows(self, rows):
        denom = rows[:, 1:].sum(axis=1) + self.eta
        # early times send D-coordinates to +inf; the ratio is then 0, not NaN
        return np.divide(rows[:, 0], denom, out=np.zeros(rows.shape[0]),
                         where=~np.isinf(denom))


@dataclass(frozen=True)
class OrderedPartialSum(_Aggregate):
    """S(x) = sum of the n_bar largest coordinates."""

    n_bar: int
    kind = "ordered_partial_sum"

    def __post_init__(self):
        if not (isinstance(self.n_bar, int) and self.n_bar >= 1):
            raise ValueError(f"n_bar must be an integer >= 1, got {self.n_bar!r}")

    def check_arity(self, n):
        if n < self.n_bar:
            raise ValueError(f"n_bar is {self.n_bar}, more than the {n} coordinates")

    def summands(self, n):
        return (1.0,) * n, self.n_bar

    def score_rows(self, rows):
        n = rows.shape[1]
        if self.n_bar == n:
            return rows.sum(axis=1)
        return np.partition(rows, n - self.n_bar, axis=1)[:, n - self.n_bar:].sum(axis=1)


@dataclass(frozen=True)
class WeightedSum(_Aggregate):
    """S(x) = sum_i w_i x_i with finite nonnegative weights, at least one positive."""

    weights: tuple
    kind = "weighted_sum"
    poisson_ok = True

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if not (all(0 <= v < np.inf for v in w) and any(v > 0 for v in w)):
            raise ValueError("weights must be finite, nonnegative and not all zero")

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def check_arity(self, n):
        if n != len(self.weights):
            raise ValueError(f"weights has {len(self.weights)} entries for {n} coordinates")

    def summands(self, n):
        return self.weights, n

    def score_rows(self, rows):
        # einsum sums each row in a fixed order, so a row's score does not
        # depend on the rows passed with it, as BLAS's ``@`` can.  A zero
        # weight on an infinite coordinate gives a NaN score, which fails
        # every threshold; numpy's warning about it says nothing more.
        with np.errstate(invalid="ignore"):
            return np.einsum("ij,j->i", rows, self.weight_array())


_AGGREGATES = {cls.kind: cls for cls in (Sum, Ratio, OrderedPartialSum, WeightedSum)}


def is_quasi_monotone_witness(spec, directions) -> bool:
    """True iff (spec, directions) is one of the sanctioned monotone pairings.

    Sum / OrderedPartialSum / WeightedSum require every direction "I";
    Ratio requires "I" on coordinate 1 and "D" on all the rest.
    """
    return spec.pairs_with(tuple(directions))


def importance(spec, x):
    """Evaluate S on a single vector (1-d) or a batch of rows (2-d)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    spec.check_arity(rows.shape[1])
    out = spec.score_rows(rows)
    return float(out[0]) if single else out


# Entries per quantile call.  At 64 KiB of doubles a call's temporaries stay
# under glibc's default mmap threshold (128 KiB), so they reuse heap pages;
# one call over a whole 3000 x 15 level matrix faults in fresh pages for
# each temporary and is slower than calling column by column.
_EMBED_BLOCK = 8192


def _quantile_groups(marginals, directions) -> dict:
    """Column indices keyed by (marginal, tail), in order of first appearance."""
    groups = {}
    for i, (m, d) in enumerate(zip(marginals, directions)):
        groups.setdefault((m, "upper" if d == "I" else "lower"), []).append(i)
    return groups


def embed(g, marginals, directions):
    """Map Gamma levels to target-law coordinates.

    ``g`` is a vector (one state) or matrix (batch of states, one row each);
    column i goes through marginal i's tail-stable quantile, on the upper
    tail for direction "I" and the lower tail for direction "D".  Columns
    that share a (marginal, tail) pair go through one quantile call per
    block of at most _EMBED_BLOCK entries; the quantiles are elementwise,
    so the values equal a column-by-column pass.
    """
    arr = np.asarray(g, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    n = len(marginals)
    if rows.shape[1] != n or len(directions) != n:
        raise ValueError("g, marginals and directions must agree in length")
    out = np.empty_like(rows)
    for (m, tail), cols in _quantile_groups(marginals, directions).items():
        step = max(1, _EMBED_BLOCK // len(cols))
        for lo in range(0, rows.shape[0], step):
            block = slice(lo, lo + step)
            out[block, cols] = m.quantile_from_neg_log_tail(rows[block, cols], tail)
    return out[0] if single else out


# The survival bracket's grid: the doubles in [2^MIN_EXP, 2^MAX_EXP] whose
# mantissa keeps only its top _BRACKET_BITS bits, 2^_BRACKET_BITS per binade.
_BRACKET_BITS = 8
_BRACKET_MIN_EXP = -100
_BRACKET_MAX_EXP = 10


class _SurvivalBracket:
    """Entrywise bounds on the embedding, read from per-group quantile tables.

    The quasi-monotone pairing makes S(embed(g)) nondecreasing in every g_i
    on either tail, so the embedding of g's enclosing grid points bounds
    S(embed(g)) from below and above without evaluating any quantile.
    Cell k holds [v_k, v_{k+1}), cell 0 also [0, v_0), and reads its bounds
    at v_{k-1} (0 for cell 0) and v_{k+2}: one grid point of slack on each
    side absorbs ulp-level non-monotonicity of the quantile kernels."""

    def __init__(self, marginals, directions):
        self._first = (1023 + _BRACKET_MIN_EXP) << _BRACKET_BITS  # v_0's bits >> (52 - B)
        K = self._cells = (_BRACKET_MAX_EXP - _BRACKET_MIN_EXP) << _BRACKET_BITS
        v = np.arange(self._first, self._first + K + 2, dtype=np.uint64) << (52 - _BRACKET_BITS)
        grid = np.concatenate(([0.0], v.view(float)))  # 0, then v_0 .. v_{K+1}
        lo, hi = [], []
        offsets = np.empty(len(marginals), dtype=np.intp)
        for j, ((m, tail), cols) in enumerate(_quantile_groups(marginals, directions).items()):
            q = m.quantile_from_neg_log_tail(grid, tail)  # q[1 + k]: at v_k
            # slot K holds NaN bounds: rows with a NaN, negative, infinite or
            # g >= 2^_BRACKET_MAX_EXP entry stay undecided and are scored exactly
            lo += [q[:K], [np.nan]]
            hi += [q[3:], [np.nan]]
            offsets[cols] = j * (K + 1)
        self.lo = np.concatenate(lo)
        self.hi = np.concatenate(hi)
        # a scalar for one group spares numpy a broadcast over short rows
        base = self._first - offsets
        self._base = int(base[0]) if (base == base[0]).all() else base

    def cells(self, g: np.ndarray) -> np.ndarray:
        """Index into ``lo`` and ``hi`` of every entry of ``g``: lo[c] is the
        embedding at a level at or below the entry, hi[c] at or above it."""
        # sign, exponent and top mantissa bits; a set sign bit (negative
        # values, -0.0) and the all-ones exponent (inf, NaN) clip to slot K
        u = g.view(np.uint64) >> np.uint64(52 - _BRACKET_BITS)
        np.clip(u, self._first, self._first + self._cells, out=u)
        c = u.view(np.intp)
        c -= self._base
        return c


@dataclass(frozen=True)
class ProblemSpec:
    """Full estimation problem: marginals, directions, importance S, threshold.

    ``kind`` is "continuous" (Gamma-embedded) or "poisson" (native jump
    process; requires all-Poisson marginals and a weighted-sum S).
    """

    marginals: tuple
    directions: tuple
    importance: object
    gamma: float
    kind: str = "continuous"

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        object.__setattr__(self, "directions", tuple(self.directions))
        n = len(self.marginals)
        if n == 0:
            raise ValueError("at least one marginal is required")
        if len(self.directions) != n:
            raise ValueError("directions must have one entry per marginal")
        if any(d not in ("I", "D") for d in self.directions):
            raise ValueError("directions entries must be 'I' or 'D'")
        if not all(isinstance(m, Marginal) for m in self.marginals):
            raise ValueError("marginals must be Marginal instances")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if self.kind not in ("continuous", "poisson"):
            raise ValueError(f"kind must be 'continuous' or 'poisson', got {self.kind!r}")
        if not self.importance.pairs_with(self.directions):
            raise ValueError("importance/directions pair is not quasi-monotone")
        self.importance.check_arity(n)
        poisson_marginals = [isinstance(m, Poisson) for m in self.marginals]
        if self.kind == "poisson":
            if not all(poisson_marginals):
                raise ValueError("poisson problems require every marginal to be Poisson")
            if not self.importance.poisson_ok:
                raise ValueError("poisson problems require a weighted-sum importance")
        elif any(poisson_marginals):
            raise ValueError("continuous problems cannot contain Poisson marginals")

    @property
    def n(self) -> int:
        return len(self.marginals)

    def rates(self) -> np.ndarray:
        """Poisson rates vector (poisson-kind problems only)."""
        if self.kind != "poisson":
            raise ValueError("rates() is only defined for poisson problems")
        return np.asarray([m.lam for m in self.marginals], dtype=float)

    def score(self, states: np.ndarray) -> np.ndarray:
        """S evaluated on raw process states (embedding applied when needed)."""
        if self.kind == "poisson":
            return importance(self.importance, np.asarray(states, dtype=float))
        return importance(self.importance, embed(states, self.marginals, self.directions))

    @cached_property
    def _bracket(self):
        """The continuous embedding's survival bracket, built on first use;
        None for Poisson problems and where every column's quantile is a
        closed form, which costs less than the bracket's own scoring."""
        if self.kind == "poisson" or all(
                m.closed_form_upper and d == "I" for m, d in zip(self.marginals, self.directions)):
            return None
        return _SurvivalBracket(self.marginals, self.directions)

    def survives(self, states: np.ndarray) -> np.ndarray:
        """score(states) <= gamma, bit for bit, for one state or a matrix.

        A continuous row passes where S of its bracket's upper end is
        <= gamma and fails where S of the lower end is > gamma; only the
        rows the bracket leaves open, a NaN score among them, are embedded
        exactly and scored.
        """
        bracket = self._bracket
        if bracket is None:
            return self.score(states) <= self.gamma
        g = np.asarray(states, dtype=float)
        if g.ndim == 1:
            return self.survives(g[None, :])[0]
        c = bracket.cells(g)
        # most rows of a level fail, so the upper ends are read for the rest only
        open_rows = np.flatnonzero(~(importance(self.importance, bracket.lo[c]) > self.gamma))
        passes = importance(self.importance, bracket.hi[c[open_rows]]) <= self.gamma
        out = np.zeros(g.shape[0], dtype=bool)
        out[open_rows[passes]] = True
        undecided = open_rows[~passes]
        if undecided.size:
            out[undecided] = self.score(g[undecided]) <= self.gamma
        return out

    def to_json(self) -> dict:
        return {
            "marginals": [m.to_json() for m in self.marginals],
            "directions": list(self.directions),
            "importance": self.importance.to_json(),
            "gamma": self.gamma,
            "kind": self.kind,
        }


def importance_from_json(obj: dict):
    """The aggregate named by the object's ``kind``, built from its fields."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("importance JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in _AGGREGATES):
        raise ValueError(f"unknown importance kind {kind!r}")
    return _AGGREGATES[kind].from_json(obj)

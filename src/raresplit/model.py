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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import Marginal, Poisson, marginal_from_json

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
    "problem_from_json",
]


@dataclass(frozen=True)
class Sum:
    kind = "sum"


@dataclass(frozen=True)
class Ratio:
    """S(x) = x_1 / (x_2 + ... + x_n + eta) with noise floor eta > 0."""

    eta: float
    kind = "ratio"

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta!r}")


@dataclass(frozen=True)
class OrderedPartialSum:
    """S(x) = sum of the n_bar largest coordinates."""

    n_bar: int
    kind = "ordered_partial_sum"

    def __post_init__(self):
        if not (isinstance(self.n_bar, int) and self.n_bar >= 1):
            raise ValueError(f"n_bar must be an integer >= 1, got {self.n_bar!r}")


@dataclass(frozen=True)
class WeightedSum:
    """S(x) = sum_i w_i x_i with nonnegative weights, at least one positive."""

    weights: tuple
    kind = "weighted_sum"

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) == 0 or any(v < 0 for v in w) or not any(v > 0 for v in w):
            raise ValueError("weights must be nonnegative with at least one positive entry")

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def is_quasi_monotone_witness(spec, directions) -> bool:
    """True iff (spec, directions) is one of the sanctioned monotone pairings.

    Sum / OrderedPartialSum / WeightedSum require every direction "I";
    Ratio requires "I" on coordinate 1 and "D" on all the rest.
    """
    directions = tuple(directions)
    if isinstance(spec, Ratio):
        return (len(directions) >= 2
                and directions[0] == "I"
                and all(d == "D" for d in directions[1:]))
    if isinstance(spec, (Sum, OrderedPartialSum, WeightedSum)):
        return len(directions) >= 1 and all(d == "I" for d in directions)
    return False


def importance(spec, x):
    """Evaluate S on a single vector (1-d) or a batch of rows (2-d)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    if isinstance(spec, Sum):
        out = rows.sum(axis=1)
    elif isinstance(spec, WeightedSum):
        if rows.shape[1] != len(spec.weights):
            raise ValueError(f"x has {rows.shape[1]} coordinates, weights has {len(spec.weights)}")
        out = rows @ spec.weight_array()
    elif isinstance(spec, OrderedPartialSum):
        nb = spec.n_bar
        if rows.shape[1] < nb:
            raise ValueError(f"x has {rows.shape[1]} coordinates, n_bar is {nb}")
        if nb == rows.shape[1]:
            out = rows.sum(axis=1)
        else:
            top = np.partition(rows, rows.shape[1] - nb, axis=1)[:, rows.shape[1] - nb:]
            out = top.sum(axis=1)
    elif isinstance(spec, Ratio):
        if rows.shape[1] < 2:
            raise ValueError("Ratio needs at least two coordinates")
        denom = rows[:, 1:].sum(axis=1) + spec.eta
        # early times send D-coordinates to +inf; the ratio is then 0, not NaN
        out = np.where(np.isinf(denom), 0.0, rows[:, 0] / denom)
    else:
        raise TypeError(f"unknown importance spec {spec!r}")
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


# The survival bracket tabulates each quantile on _BRACKET_CELLS log-uniform
# cells of g over [_BRACKET_G_MIN, _BRACKET_G_MAX]; g outside that range
# falls in the end cells, whose outer bounds are the quantiles at 0 and inf.
_BRACKET_CELLS = 16384
_BRACKET_G_MIN = 1e-30
_BRACKET_G_MAX = 1e3


class _SurvivalBracket:
    """Entrywise bounds on the embedding, read from per-group quantile tables.

    The quasi-monotone pairing makes S(embed(g)) nondecreasing in every g_i
    on either tail, so the embedding of g's enclosing grid points bounds
    S(embed(g)) from below and above without evaluating any quantile.
    An entry's cell c = trunc((log g - log g_min) / h), clamped to [0, K],
    reads the grid point one cell below it and two cells above it: one
    cell of slack on each side absorbs the rounding in log and trunc.
    """

    def __init__(self, marginals, directions):
        K = _BRACKET_CELLS
        self._shift = math.log(_BRACKET_G_MIN)
        h = (math.log(_BRACKET_G_MAX) - self._shift) / K
        self._scale = 1.0 / h
        grid = np.concatenate(
            ([0.0], np.exp(self._shift + h * np.arange(K + 1)), [np.inf]))
        lo, hi = [], []
        self._offsets = np.empty(len(marginals), dtype=np.intp)
        for j, ((m, tail), cols) in enumerate(_quantile_groups(marginals, directions).items()):
            q = m.quantile_from_neg_log_tail(grid, tail)  # q[1 + i]: at grid point i
            # slot K + 1 holds NaN bounds, so a NaN or negative g stays undecided
            lo += [q[:K + 1], [np.nan]]
            hi += [q[3:], [q[-1], np.nan]]
            self._offsets[cols] = j * (K + 2)
        self.lo = np.concatenate(lo)
        self.hi = np.concatenate(hi)

    def cells(self, g: np.ndarray) -> np.ndarray:
        """Index into ``lo`` and ``hi`` of every entry of ``g``: lo[c] is the
        embedding at a level at or below the entry, hi[c] at or above it."""
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log(g)
        u -= self._shift
        u *= self._scale
        np.clip(u, 0, _BRACKET_CELLS, out=u)
        np.fmin(u, _BRACKET_CELLS + 1, out=u)  # fmin drops NaN: NaN -> slot K + 1
        c = u.astype(np.intp)
        c += self._offsets
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
        if not is_quasi_monotone_witness(self.importance, self.directions):
            raise ValueError("importance/directions pair is not quasi-monotone")
        poisson_marginals = [isinstance(m, Poisson) for m in self.marginals]
        if self.kind == "poisson":
            if not all(poisson_marginals):
                raise ValueError("poisson problems require every marginal to be Poisson")
            if not isinstance(self.importance, WeightedSum):
                raise ValueError("poisson problems require a weighted-sum importance")
            if len(self.importance.weights) != n:
                raise ValueError("weights must have one entry per marginal")
        else:
            if any(poisson_marginals):
                raise ValueError("continuous problems cannot contain Poisson marginals")
            if isinstance(self.importance, WeightedSum) and len(self.importance.weights) != n:
                raise ValueError("weights must have one entry per marginal")
            if isinstance(self.importance, OrderedPartialSum) and self.importance.n_bar > n:
                raise ValueError("n_bar cannot exceed the number of marginals")

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
            "importance": importance_to_json(self.importance),
            "gamma": self.gamma,
            "kind": self.kind,
        }


def importance_to_json(spec) -> dict:
    if isinstance(spec, Sum):
        return {"kind": "sum"}
    if isinstance(spec, Ratio):
        return {"kind": "ratio", "eta": spec.eta}
    if isinstance(spec, OrderedPartialSum):
        return {"kind": "ordered_partial_sum", "n_bar": spec.n_bar}
    if isinstance(spec, WeightedSum):
        return {"kind": "weighted_sum", "weights": list(spec.weights)}
    raise TypeError(f"unknown importance spec {spec!r}")


def importance_from_json(obj: dict):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("importance JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "sum":
        return Sum()
    if kind == "ratio":
        if "eta" not in obj:
            raise ValueError("ratio importance requires 'eta'")
        return Ratio(eta=float(obj["eta"]))
    if kind == "ordered_partial_sum":
        if "n_bar" not in obj:
            raise ValueError("ordered_partial_sum importance requires 'n_bar'")
        return OrderedPartialSum(n_bar=int(obj["n_bar"]))
    if kind == "weighted_sum":
        if "weights" not in obj:
            raise ValueError("weighted_sum importance requires 'weights'")
        return WeightedSum(weights=tuple(float(w) for w in obj["weights"]))
    raise ValueError(f"unknown importance kind {kind!r}")


def problem_from_json(obj: dict) -> ProblemSpec:
    """Build a ProblemSpec from the scenario JSON schema."""
    for key in ("marginals", "directions", "importance", "gamma", "kind"):
        if key not in obj:
            raise ValueError(f"scenario JSON missing required field {key!r}")
    marginals = tuple(marginal_from_json(m) for m in obj["marginals"])
    return ProblemSpec(
        marginals=marginals,
        directions=tuple(obj["directions"]),
        importance=importance_from_json(obj["importance"]),
        gamma=float(obj["gamma"]),
        kind=obj["kind"],
    )

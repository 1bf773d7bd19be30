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
from .process import RngStream, _check_dt, advance_gamma_batch, poisson_sampler, row_blocks

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
        offsets = np.empty(n, dtype=np.intp)
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

    def cells(self, g: np.ndarray) -> np.ndarray:
        """Index into ``lo`` and ``hi`` of every entry of ``g``: lo[c] is the
        embedding at a level at or below the entry, hi[c] at or above it."""
        # sign, exponent and top mantissa bits, below 2^20; a set sign bit (negative
        # values, -0.0) and the all-ones exponent (inf, NaN) clamp to slot K
        c = (g.view(np.uint64) >> np.uint64(52 - _BRACKET_BITS)).view(np.intp)
        c.clip(self._first, self._last, out=c)
        c -= self._base
        return c


class _GammaEmbedding:
    """The process of a continuous problem: independent Gamma(t, 1) levels,
    mapped to coordinates through the marginal quantiles (``embed``)."""

    def __init__(self, marginals, directions, importance):
        self.marginals = marginals
        self.importance = importance
        self._groups = _quantile_groups(marginals, directions)

    def rates(self):
        raise ValueError("rates() is only defined for poisson problems")

    def step(self, states, idx, dt, rng, gamma):
        advanced = advance_gamma_batch(states[idx], dt, rng)
        kept = advanced[self.survives(advanced, gamma)]
        # the survivors fill the head of the level's array, keeping it allocated
        # through the next level; freeing it here made glibc trim and refault the heap
        advanced[:len(kept)] = kept
        return advanced[:len(kept)]

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

    def sampler(self):
        """``draw(gen, c)``: c states at t = 1, the subordinator's Gamma(1, 1)
        = Exp(1) levels, whose embedding is X(1)."""
        n = len(self.marginals)
        return lambda gen, c: gen.standard_exponential((c, n))

    def truncated(self, bounds):
        """The marginals truncated to [0, b_i], an infinite b_i leaving its law
        whole, and ln prod_i F_i(b_i)."""
        laws = tuple(Truncated(m, b) if b < math.inf else m
                     for m, b in zip(self.marginals, bounds))
        return laws, math.fsum(law.log_mass for law, b in zip(laws, bounds) if b < math.inf)


class _PoissonJumps:
    """The process of a Poisson problem: coordinate i counts the jumps of a
    rate-lambda_i Poisson process, so the states are the coordinates."""

    def __init__(self, marginals, directions, importance):
        # Poisson problems read the weights of S (oracle, IS tilt, survival curve)
        if not isinstance(importance, WeightedSum):
            raise ValueError("poisson problems require a weighted-sum importance")
        self.importance = importance
        self._rates = np.asarray([m.lam for m in marginals], dtype=float)

    def rates(self):
        return self._rates.copy()

    def step(self, states, idx, dt, rng, gamma):
        """``gen.poisson(rates * dt, size=(len(idx), n))``'s stream, in row blocks."""
        lam, kept = self._rates * _check_dt(dt), []
        for block in row_blocks(idx.size, lam.size):
            rows = states[idx[block]]
            rows += rng.gen.poisson(lam, size=rows.shape)
            kept.append(rows[self.survives(rows, gamma)])
        return np.concatenate(kept)

    def survives(self, states, gamma):
        """S(states) <= gamma for every row of counts."""
        return self.importance.score_rows(states) <= gamma

    def sampler(self):
        return poisson_sampler(self._rates)

    def truncated(self, bounds):
        """None: a count is no embedded law, so it has no truncated one."""
        return None


_PROCESSES = {"continuous": _GammaEmbedding, "poisson": _PoissonJumps}


@dataclass(frozen=True)
class ProblemSpec:
    """Full estimation problem: marginals, directions, importance S, threshold.

    ``kind`` is "continuous" (Gamma-embedded) or "poisson" (native jump
    process; requires all-Poisson marginals and a weighted-sum S).
    ``process``, built from it, runs a splitting level, decides which
    states survive, and draws the states at t = 1.
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

    def step(self, states: np.ndarray, idx: np.ndarray, dt: float, rng: RngStream) -> np.ndarray:
        """The rows of ``states[idx]``, a finite dt > 0 later, whose score is still <= gamma."""
        return self.process.step(states, idx, dt, rng, self.gamma)

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

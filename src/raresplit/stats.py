"""Replication statistics, the report container, and the exact oracle.

RE follows the across-replication coefficient of variation
sqrt(Var) / (mean * sqrt(m)); WNRV is RE^2 times wall-clock seconds.
``oracle_exact`` reads the sample-free survival curve of ``curve.py`` at
t = 1 where it is exact, and is used by the tests and the CLI ``verify``
path as the second route against the sampled estimators.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .curve import CurveRefusal, survival_bracket
from .dist import _is_number, _json_object, _json_value
from .model import ProblemSpec

__all__ = ["EstimateReport", "relative_error", "wnrv", "oracle_exact"]


def relative_error(mean: float, variance: float, m: int):
    """sqrt(variance) / (mean * sqrt(m)); None (absent) when mean <= 0."""
    if not variance >= 0:
        raise ValueError("variance must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if mean <= 0:
        return None
    return math.sqrt(variance) / (mean * math.sqrt(m))


def wnrv(re: float, wall_seconds: float) -> float:
    """Work-normalized relative variance: RE^2 * seconds."""
    if re < 0 or wall_seconds < 0:
        raise ValueError("re and wall_seconds must be >= 0")
    return re * re * wall_seconds


@dataclass
class EstimateReport:
    """Outcome of one estimation run: point estimate plus dispersion and cost.

    ``re`` and ``wnrv`` are derived from the other fields: ``re`` is None
    when the mean is zero (relative error is undefined there), and ``wnrv``
    also when ``wall_seconds`` is None.  ``schedule_seconds`` carries the
    level-construction time separately so the cost can be accounted either way.
    """

    method: str
    mean: float
    variance: float
    re: float | None = field(init=False)
    wnrv: float | None = field(init=False)
    wall_seconds: float | None
    m: int
    s: int | None = None
    levels: list | None = None
    per_level_survival: list | None = None
    seed: int | None = None
    schedule_seconds: float | None = None

    def __post_init__(self):
        # IS likelihood ratios can push a tiny-sample mean above 1, so only
        # nonnegativity is enforced here
        if not self.mean >= 0:
            raise ValueError("mean must be >= 0")
        self.re = relative_error(self.mean, self.variance, self.m)
        self.wnrv = (None if self.re is None or self.wall_seconds is None
                     else wnrv(self.re, self.wall_seconds))

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EstimateReport":
        """The report from its JSON fields, each as its annotation reads, whose
        ``re`` and ``wnrv`` must agree with the values derived from the rest (rel 1e-9)."""
        # schedule_seconds is this implementation's addition; accept
        # reports that carry only the 11 base keys
        obj = _json_object(obj, [f.name for f in fields(cls)], "$", optional=("schedule_seconds",))
        report = cls(**{f.name: _json_value(obj.get(f.name), f.type, f"$.{f.name}")
                        for f in fields(cls) if f.init})
        for key in ("re", "wnrv"):
            given, derived = obj[key], getattr(report, key)
            if not (given is derived is None or (
                    derived is not None and _is_number(given)
                    and math.isclose(given, derived, rel_tol=1e-9))):
                raise ValueError(f"report JSON {key} = {given!r}, derived {derived!r}")
        return report


def oracle_exact(problem: ProblemSpec) -> float:
    """P[S(X) <= gamma]: the survival curve of ``curve.py`` at t = 1; a
    ``CurveRefusal`` where the engine has no curve or only brackets it."""
    (lo,), (hi,) = survival_bracket(problem, [1.0])
    if lo != hi:
        raise CurveRefusal(f"no exact answer: the engine only brackets this problem's "
                           f"P[S <= gamma] in [{float(lo)!r}, {float(hi)!r}]")
    return float(lo)

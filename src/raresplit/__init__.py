"""Rare-event probability estimation by multilevel splitting.

Static problems P[S(X) <= gamma] with independent marginals and a
quasi-monotone S are embedded in a monotone Markov process (a Gamma
subordinator for continuous laws, the native jump process for Poisson
counts) whose state at t = 1 has the target law; fixed-effort splitting
over intermediate times then estimates the probability as a product of
per-level survival fractions.
"""

from .baseline import naive_mc, poisson_is
from .dist import (
    Exponential,
    Gamma,
    GeneralizedGamma,
    LogNormal,
    Poisson,
    Weibull,
    marginal_from_json,
    poisson_cdf_at,
    reg_lower_inc_gamma,
)
from .model import (
    OrderedPartialSum,
    ProblemSpec,
    Ratio,
    Sum,
    WeightedSum,
    embed,
    importance,
    is_quasi_monotone_witness,
)
from .process import RngStream, advance_gamma_batch, advance_poisson_batch
from .sched import SchedulingError, inverse_ccdf_schedule, lower_bound_schedule
from .split import LevelSchedule, SplitRunResult, replicate, run_splitting
from .stats import EstimateReport, oracle_exact, relative_error, wnrv

__version__ = "0.1.0"

"""Marginal laws, the JSON field reader, and the incomplete gamma and Poisson CDFs.

Each marginal exposes the CDF and one quantile entry point,
``quantile_from_neg_log_tail``, which evaluates F^{-1}(1 - e^{-g}) (or
F^{-1}(e^{-g})) directly from g, for every g in [0, inf]: tail masses far
below machine epsilon never round through ``1 - e^{-g}``, and those past
the underflow of e^{-g} (g > 745.13) are never formed.  Sampling a law
needs no other quantile: for G ~ Exp(1), either form at g = G is a draw.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import special

__all__ = [
    "Marginal",
    "LogNormal",
    "Weibull",
    "GeneralizedGamma",
    "Gamma",
    "Exponential",
    "Poisson",
    "reg_lower_inc_gamma",
    "poisson_cdf_at",
    "marginal_from_json",
]

# Largest Poisson rate: ``process.poisson_sampler`` tabulates about 80
# sqrt(lambda) CDF entries per column, built in about 0.1 s at the cap (2-core VM).
MAX_POISSON_RATE = 1e6

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
# past this g, e^{-g} is below machine epsilon
_NEG_LOG_EPS = -math.log(_EPS)


class ScenarioError(ValueError):
    """A configuration error; bad input is named by its JSON path (or flag)."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


# what a bad input value raises; OverflowError is float() of a huge JSON integer
_BAD_INPUT = (TypeError, ValueError, OverflowError)


@contextlib.contextmanager
def _at(path: str):
    """Re-raise a bad input value met in the block as a ScenarioError at
    ``path``; one raised deeper keeps its own, longer path."""
    try:
        yield
    except ScenarioError:
        raise
    except _BAD_INPUT as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _is_number(v) -> bool:
    """True for a JSON number: an int or a float, never a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_number, v))


# field annotation -> (what its JSON value must be, the check, the conversion)
_JSON_TYPES = {
    "float": ("a number", _is_number, float),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    # a count may also be an integral float such as 6e6
    "count": ("an integer", lambda v: _is_number(v) and v % 1 == 0, int),
    "tuple": ("an array of numbers", _is_numbers, lambda v: tuple(map(float, v))),
    "list": ("an array of numbers", _is_numbers, lambda v: list(map(float, v))),
    "str": ("a string", lambda v: isinstance(v, str), str),
}


def _json_value(v, annotation: str, path: str):
    """The JSON value ``v`` at ``path`` as a field annotated ``annotation``
    (a key of _JSON_TYPES, or one of them ``| None``, which also takes null)."""
    nullable = annotation.endswith(" | None")
    shape, check, convert = _JSON_TYPES[annotation.removesuffix(" | None")]
    if v is None and nullable:
        return None
    if not check(v):
        _fail(path, f"must be {shape}{' or null' if nullable else ''}, got {v!r}")
    with _at(path):
        return convert(v)


def _json_object(obj, names, path: str, optional=()) -> dict:
    """``obj`` once it is a JSON object at ``path`` that holds each of
    ``names`` but the ``optional`` ones, and no other key."""
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {obj!r}")
    missing = [n for n in names if n not in obj and n not in optional]
    if missing:
        _fail(path, f"missing required field {missing[0]!r}")
    extra = [k for k in obj if k not in names]
    if extra:
        _fail(path, f"unknown fields {extra}")
    return obj


def _json_fields(cls, obj, path: str) -> dict:
    """The keyword arguments of the dataclass ``cls`` from the JSON object
    ``obj`` at ``path``, each field once and as its annotation reads.

    A field is named in JSON by its ``json`` metadata, else its own name.
    Fields with ``db`` metadata, (dB name, conversion to natural units),
    may come in dB instead: all of them or none, never a mix.
    """
    names = {f.metadata.get("json", f.name): f for f in fields(cls)}
    db = {f.metadata["db"][0]: f for f in names.values() if "db" in f.metadata}
    if isinstance(obj, dict) and not db.keys().isdisjoint(obj):
        if any(n in obj for n, f in names.items() if "db" in f.metadata):
            _fail(path, "mix of dB and natural fields")
        names = {**{n: f for n, f in names.items() if "db" not in f.metadata}, **db}
    obj = _json_object(obj, names, path)
    out = {f.name: _json_value(obj[n], f.type, f"{path}.{n}") for n, f in names.items()}
    for n in db.keys() & obj.keys():
        with _at(f"{path}.{n}"):
            out[db[n].name] = db[n].metadata["db"][1](out[db[n].name])
    return out


def _json_kind(kinds: dict, obj, path: str, what: str):
    """The class that ``kinds`` maps the JSON object's ``kind`` to."""
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(path, f"must be an object with a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        _fail(path, f"unknown {what} kind {kind!r}")
    return kinds[kind]


# a power's dB value times _DB is its natural log, 10*log10 convention
_DB = math.log(10.0) / 10.0


def _require_positive(**params) -> None:
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _as_float_array(x):
    a = np.asarray(x, dtype=float)
    scalar = a.ndim == 0
    return np.atleast_1d(a), scalar


def _maybe_scalar(a, scalar):
    return float(a[0]) if scalar else a


class Marginal:
    """Base class for the supported marginal laws.

    A law is a frozen dataclass that states its parameters as fields, checks
    their ranges in ``__post_init__`` and supplies the kernels below; the
    base derives the CDF's support mask, the quantile and the JSON form
    (``marginal_from_json`` reads it back).
    Continuous members have support (0, inf); ``Poisson`` is the only
    discrete member.  All parameter validation happens at construction,
    so the evaluation methods never raise on parameter grounds.
    """

    kind: str = ""

    def cdf(self, x):
        """F at x: 0 off the support, NaN at NaN."""
        a, scalar = _as_float_array(x)
        out = np.where(np.isnan(a), a, 0.0)
        pos = a > 0
        out[pos] = self._cdf(a[pos])
        return _maybe_scalar(out, scalar)

    def quantile_from_neg_log_tail(self, g, tail="upper"):
        """Evaluate F^{-1}(1 - e^{-g}) (tail="upper") or F^{-1}(e^{-g}) (tail="lower")."""
        a, scalar = _as_float_array(g)
        if np.any(a < 0):
            raise ValueError("g must be >= 0")
        if tail not in ("upper", "lower"):
            raise ValueError(f"tail must be 'upper' or 'lower', got {tail!r}")
        return _maybe_scalar((self._upper if tail == "upper" else self._lower)(a), scalar)

    # law-specific kernels, vectorized over their argument
    def _cdf(self, x):
        """F at x > 0 (the base sets F = 0 off the support)."""
        raise NotImplementedError

    def _sf(self, x):
        """1 - F at x > 0, with its digits where it is small."""
        raise NotImplementedError

    def _upper(self, g):
        """x with P[X > x] = e^{-g}, for every g in [0, inf]; NaN gives NaN."""
        raise NotImplementedError

    def _lower(self, g):
        """x with P[X <= x] = e^{-g}, for every g in [0, inf]; NaN gives NaN."""
        raise NotImplementedError

    # the JSON params are the fields, under the name their metadata may give
    def to_json(self) -> dict:
        return {"kind": self.kind, "params": {
            f.metadata.get("json", f.name): getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class LogNormal(Marginal):
    """Log-normal with log-scale location ``mu`` and log-scale std ``sigma``;
    in JSON also as ``mu_db`` and ``sigma_db``, a power's dB mean and spread."""

    mu: float = field(metadata={"db": ("mu_db", lambda x: x * _DB)})
    sigma: float = field(metadata={"db": ("sigma_db", lambda x: x * _DB)})
    kind = "lognormal"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        _require_positive(sigma=self.sigma)

    def _cdf(self, x):
        return special.ndtr((np.log(x) - self.mu) / self.sigma)

    def _sf(self, x):
        return special.ndtr((self.mu - np.log(x)) / self.sigma)

    # ndtri_exp(-g) is the standard normal quantile at e^{-g}, which it never forms
    def _upper(self, g):
        with np.errstate(over="ignore"):  # +inf past g ~ (709 - mu)^2 / (2 sigma^2)
            return np.exp(self.mu - self.sigma * special.ndtri_exp(-g))

    def _lower(self, g):
        with np.errstate(over="ignore"):
            return np.exp(self.mu + self.sigma * special.ndtri_exp(-g))


def _cum_hazard(g):
    """H = -log(1 - e^{-g}), the cumulative hazard at which an exponential's
    CDF is e^{-g}, through log1mexp (Maechler 2012): inf at g = 0, and 0 past
    the underflow of e^{-g}."""
    with np.errstate(divide="ignore"):
        return -np.where(g < _LN2, np.log(-np.expm1(-g)), np.log1p(-np.exp(-g)))


def _log_cum_hazard(g):
    """log H for H = ``_cum_hazard(g)`` while e^{-g} is at least machine
    epsilon, then -g, to which log H = -g + e^{-g}/2 + ... rounds."""
    with np.errstate(divide="ignore"):
        return np.where(g < _NEG_LOG_EPS, np.log(_cum_hazard(g)), -g)


@dataclass(frozen=True)
class Weibull(Marginal):
    """Weibull with shape ``alpha`` and scale ``eta``."""

    alpha: float
    eta: float
    kind = "weibull"

    def __post_init__(self):
        _require_positive(alpha=self.alpha, eta=self.eta)

    def _cdf(self, x):
        return -np.expm1(-((x / self.eta) ** self.alpha))

    def _sf(self, x):
        return np.exp(-((x / self.eta) ** self.alpha))

    def _upper(self, g):
        return self.eta * g ** (1.0 / self.alpha)

    def _lower(self, g):
        return np.exp(math.log(self.eta) + _log_cum_hazard(g) / self.alpha)


def _log_gamma_ppf(k, log_p):
    """log y with log P(k, y) = log_p < log(tiny) for a Gamma(k, 1) variable y.

    P = y^k e^{-y} M / Gamma(k + 1) with M = sum_n y^n / ((k + 1) ... (k + n)),
    and d log P / d log y = k / M.  log P is concave in log y, so Newton steps
    from the y -> 0 limit rise monotonically to the root.
    """
    c = special.gammaln(k + 1.0)
    u = (log_p + c) / k
    for _ in range(100):
        y = np.exp(u)
        term, m = np.ones_like(y), np.ones_like(y)
        for n in range(1, 10_000):
            term *= y / (k + n)
            m += term
            if (term <= 1e-17 * m).all():
                break
        step = (k * u - y - c + np.log(m) - log_p) * m / k
        u -= step
        if (np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(u))).all():
            break
    return u


def _gamma_isf(k, log_q):
    """y with log Q(k, y) = log_q < log(tiny) for a Gamma(k, 1) variable y.

    Q = y^k e^{-y} h / Gamma(k) with h Lentz's continued fraction, and
    d log Q / dy = -1 / (y h).  log Q is concave in y for k >= 1 and convex
    for k <= 1, so Newton steps from the quantile at mass tiny converge
    monotonically, after one step past the root for k > 1.
    """
    c = special.gammaln(k)
    y = np.full_like(log_q, special.gammainccinv(k, _TINY))
    for _ in range(100):
        b = y + 1.0 - k
        h = d = 1.0 / b
        e = np.full_like(y, 1e300)
        for i in range(1, 10_000):
            a = -i * (i - k)
            b += 2.0
            d = 1.0 / (a * d + b)
            e = b + a / e
            h = h * d * e
            if (np.abs(d * e - 1.0) <= _EPS).all():  # 1.0 or a neighbour: settled
                break
        step = (k * np.log(y) - y - c + np.log(h) - log_q) * y * h
        y += step
        if (np.abs(step) <= 1e-15 * y).all():
            break
    return y


class _GammaPower(Marginal):
    """A law of x = x(y) for a Gamma(k, 1) variable y: ``_from_y`` maps y and
    ``_from_log_y`` log y to x.  Each kernel inverts the smaller of the masses
    e^{-g} and 1 - e^{-g}: scipy's inverses while it is a normal double, and
    past that, where they lose digits and then saturate, Newton steps on
    log Q(k, y) or log P(k, y), in log space as LogNormal's ``ndtri_exp``."""

    def _upper(self, g):
        return self._invert(g, g < _LN2)

    def _lower(self, g):
        return self._invert(g, ~(g < _LN2))

    def _invert(self, g, by_p):
        """x(y) for the y at which P(k, y) (where ``by_p``, else Q(k, y)) is
        the mass 1 - e^{-g} for g < ln 2 and e^{-g} from there."""
        k, near = self._k, g < _LN2
        mass = np.where(near, -np.expm1(-g), np.exp(-g))
        y = np.empty_like(mass)  # by_p and ~by_p fill every entry, a NaN g's too
        y[by_p] = special.gammaincinv(k, mass[by_p])
        y[~by_p] = special.gammainccinv(k, mass[~by_p])
        far = (mass < _TINY) & (g > 0) & (g < np.inf)  # a subnormal or underflowed mass
        # +inf where x(y) passes the largest double
        with np.errstate(divide="ignore", over="ignore"):
            x = self._from_y(y)
            if far.any():
                log_mass = np.where(near, np.log(mass), -g)
                p, q = far & by_p, far & ~by_p
                x[p] = self._from_log_y(_log_gamma_ppf(k, log_mass[p]))
                x[q] = self._from_y(_gamma_isf(k, log_mass[q]))
        return x


@dataclass(frozen=True)
class GeneralizedGamma(_GammaPower):
    """Stacy generalized Gamma: density ~ x^{d-1} exp(-(x/a)^p).

    Reduces to Weibull for d = p and to Gamma (rate 1/a) for p = 1.
    """

    d: float
    p: float
    a: float
    kind = "gengamma"

    def __post_init__(self):
        _require_positive(d=self.d, p=self.p, a=self.a)

    @property
    def _k(self) -> float:
        return self.d / self.p

    def _cdf(self, x):
        return special.gammainc(self._k, (x / self.a) ** self.p)

    def _sf(self, x):
        return special.gammaincc(self._k, (x / self.a) ** self.p)

    def _from_y(self, y):
        return self.a * y ** (1.0 / self.p)

    def _from_log_y(self, u):
        return self.a * np.exp(u / self.p)


@dataclass(frozen=True)
class Gamma(_GammaPower):
    """Gamma with ``shape`` and ``rate`` (density ~ x^{shape-1} e^{-rate x})."""

    shape: float
    rate: float
    kind = "gamma"

    def __post_init__(self):
        _require_positive(shape=self.shape, rate=self.rate)

    @property
    def _k(self) -> float:
        return self.shape

    def _cdf(self, x):
        return special.gammainc(self.shape, self.rate * x)

    def _sf(self, x):
        return special.gammaincc(self.shape, self.rate * x)

    def _from_y(self, y):
        return y / self.rate

    def _from_log_y(self, u):
        return np.exp(u) / self.rate


@dataclass(frozen=True)
class Exponential(Marginal):
    """Exponential with ``rate``."""

    rate: float
    kind = "exponential"

    def __post_init__(self):
        _require_positive(rate=self.rate)

    def _cdf(self, x):
        return -np.expm1(-self.rate * x)

    def _sf(self, x):
        return np.exp(-self.rate * x)

    def _upper(self, g):
        return g / self.rate

    def _lower(self, g):
        return np.exp(_log_cum_hazard(g) - math.log(self.rate))


@dataclass(frozen=True)
class Truncated(Marginal):
    """A continuous ``law`` conditioned on X <= ``b``: F(min(x, b)) / F(b).

    ``log_mass`` is ln F(b), read off the smaller of F(b) and 1 - F(b), so
    that a b in either tail keeps its digits.  Both kernels are the law's
    lower-tail quantile at a level that never rounds through a mass: F(x) is
    F(b) e^{-g} on the lower tail and F(b) (1 - e^{-g}) on the upper one.
    Internal: the Gamma embedding builds it for ``ProblemSpec.boxed``; no
    JSON kind reads it, and it writes none.
    """

    law: Marginal
    b: float
    log_mass: float = field(init=False, repr=False, compare=False)
    kind = "truncated"

    def __post_init__(self):
        _require_positive(b=self.b)
        at = np.array([float(self.b)])
        mass = self.law._cdf(at)[0]
        with np.errstate(divide="ignore"):  # -inf where F(b) is 0 in double
            log_mass = np.log(mass) if mass < 0.5 else np.log1p(-self.law._sf(at)[0])
        object.__setattr__(self, "log_mass", float(log_mass))

    def _cdf(self, x):
        inside = np.minimum(self.law._cdf(x) / math.exp(self.log_mass), 1.0)
        return np.where(x < self.b, inside, 1.0)

    # the minimum keeps a quantile an ulp past b inside the box
    def _upper(self, g):
        return np.minimum(self.law._lower(_cum_hazard(g) - self.log_mass), self.b)

    def _lower(self, g):
        return np.minimum(self.law._lower(g - self.log_mass), self.b)

    def to_json(self):
        raise ValueError("a truncated law has no JSON form; serialize the problem before boxing")


@dataclass(frozen=True)
class Poisson(Marginal):
    """Poisson counts with rate ``lam`` (``lambda`` in JSON), at most
    MAX_POISSON_RATE; support {0, 1, 2, ...}.

    Only the CDF is defined: no caller needs the Poisson quantile, and the
    embedding applies to continuous marginals only.
    """

    lam: float = field(metadata={"json": "lambda"})
    kind = "poisson"

    def __post_init__(self):
        _require_positive(lam=self.lam)
        if self.lam > MAX_POISSON_RATE:
            raise ValueError(f"lam must be <= {MAX_POISSON_RATE:g}, got {self.lam!r}")

    def cdf(self, x):
        a, scalar = _as_float_array(x)
        return _maybe_scalar(poisson_cdf_at(self.lam, a), scalar)

    def quantile_from_neg_log_tail(self, g, tail="upper"):
        raise ValueError("Poisson has no continuous quantile; use the jump process directly")


def reg_lower_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    a_arr = np.asarray(a, dtype=float)
    if not np.all(a_arr > 0):
        raise ValueError("shape a must be > 0")
    x_arr, scalar = _as_float_array(x)
    if not np.all(x_arr >= 0):
        raise ValueError("x must be >= 0")
    out = special.gammainc(a_arr, x_arr)
    return _maybe_scalar(out, scalar and np.ndim(a) == 0)


def poisson_cdf_at(lam, k):
    """P[Poisson(lam) <= floor(k)]; 0 for k < 0.  Stable for lam up to 1e4+."""
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(lam_arr > 0):
        raise ValueError("lam must be > 0")
    k_arr, scalar = _as_float_array(k)
    k_floor = np.floor(k_arr)
    # pdtr evaluates the regularized upper incomplete gamma Q(k+1, lam)
    out = np.where(k_floor < 0, 0.0, special.pdtr(np.maximum(k_floor, 0.0), lam_arr))
    return _maybe_scalar(out, scalar and np.ndim(lam) == 0)


_KINDS = {cls.kind: cls for cls in
          (LogNormal, Weibull, GeneralizedGamma, Gamma, Exponential, Poisson)}


def marginal_from_json(obj, path: str = "$") -> Marginal:
    """The law of {"kind": ..., "params": {...}} at JSON path ``path``; a bad
    value raises ScenarioError at its own path."""
    cls = _json_kind(_KINDS, obj, path, "distribution")
    params = _json_fields(cls, _json_object(obj, ("kind", "params"), path)["params"],
                          f"{path}.params")
    with _at(path):
        return cls(**params)

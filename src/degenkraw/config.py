"""Run configuration: JSON file plus command-line overrides.

The file carries the model parameters as exact fraction strings, e.g.

    {"lambda": "-1/2", "beta": "2", "p": "3/5", "r": "3",
     "n_max": 10, "series_order": 16, "precision_digits": 60,
     "seed": 42, "output_format": "json"}

q is derived as 1 - p.  Flags override file values field by field.
When neither the file nor a flag sets series_order, it is
max(16, n_max + 2).

The module also holds the exact side of the model, which needs no
floating point: the parameters (``Params``), the exact Taylor series of
the measure's Laplace transform and the moments read from it.  The
mpmath-backed measure lives in ``measure``, which re-exports these names
and raises ``DomainError``, declared here so the CLI reports it without
loading mpmath.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .combinat import _TABLES
from .series import FrozenValue, TSeries, as_fraction, expm1_series


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


class DomainError(ValueError):
    """Raised when an evaluation point leaves the real domain of a formula."""


# the properties ``verify --property`` accepts, in the order of
# ``audit.VERIFY``; only the VARIANT_PROPERTIES have a literal variant
PROPERTIES = ("p1", "p2", "p3", "p4", "cross", "normalization", "limit", "scaling", "translation")
VARIANT_PROPERTIES = ("p3", "scaling")


class Params(FrozenValue):
    """Model parameters; all exact rationals.

    Invariants: lam < 0, beta > 0, 0 < p < 1, r > 0; q = 1 - p is
    derived.  Under these, 1 + lam*r*log(p) > 1 automatically (lam and
    log p are both negative).
    """

    _fields = ("lam", "beta", "p", "r")

    def __init__(self, lam: Fraction, beta: Fraction, p: Fraction, r: Fraction):
        super().__init__(lam, beta, p, r)
        if not self.lam < 0:
            raise ValueError("lambda must be negative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        if not self.r > 0:
            raise ValueError("r must be positive")

    @classmethod
    def make(cls, lam, beta, p, r) -> "Params":
        return cls(*map(as_fraction, (lam, beta, p, r)))

    @cached_property
    def q(self) -> Fraction:
        return 1 - self.p


# ---------------------------------------------------------------------------
# exact Laplace-transform series and moments
# ---------------------------------------------------------------------------

def deg_exp_series(u: TSeries, params: Params) -> TSeries:
    """(1 + lam*u(t))^(beta/lam) as an exact series; u must have zero constant term."""
    if not u.coeff(0) == 0:
        raise ValueError("series argument must vanish at 0")
    return (params.lam * u + 1).fracpow(params.beta / params.lam)


@lru_cache(maxsize=_TABLES)
def laplace_series(params: Params, order: int) -> TSeries:
    """Exact Taylor series in z of the measure's Laplace transform; the last
    _TABLES (point, order) pairs are kept.

    Uses r*log(p/(1 - q*e^z)) = -r*log(1 - (q/p)(e^z - 1)), whose inner
    series has rational coefficients and zero constant term.
    """
    v = (params.q / params.p) * expm1_series(order)
    arg = -params.r * (TSeries.one(order) - v).log1()
    return deg_exp_series(arg, params)


def exact_moments(params: Params, m_max: int) -> list[Fraction]:
    """Moments 0..m_max of the measure, as exact rationals (m! times series coefficients)."""
    series = laplace_series(params, m_max)
    return [math.factorial(m) * series.coeff(m) for m in range(m_max + 1)]


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "lambda": "-1/2",
    "beta": "2",
    "p": "3/5",
    "r": "3",
    "n_max": 10,
    "precision_digits": 60,
    "seed": 42,
    "output_format": "json",
}

_KNOWN_KEYS = {*_DEFAULTS, "series_order"}
_INT_KEYS = ("n_max", "series_order", "precision_digits", "seed")  # named as Config's fields


class Config(FrozenValue):
    """A run's settings; ``config_from_dict`` fills every field, its defaults
    from ``_DEFAULTS``.  A series_order of None becomes max(16, n_max + 2)."""

    _fields = ("params", "n_max", "series_order", "precision_digits", "seed", "output_format")

    def __init__(self, params, n_max, series_order, precision_digits, seed, output_format):
        if series_order is None:
            series_order = max(16, n_max + 2)
        super().__init__(params, n_max, series_order, precision_digits, seed, output_format)
        if self.series_order < self.n_max + 2:
            raise ConfigError("series_order must be at least n_max + 2")
        if self.precision_digits < 40:
            raise ConfigError("precision_digits must be at least 40")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be 'csv' or 'json'")
        if self.n_max < 0 or self.seed < 0:
            raise ConfigError("n_max and seed must be nonnegative")

    def as_dict(self) -> dict:
        p = self.params
        fields = {key: getattr(self, key) for key in (*_INT_KEYS, "output_format")}
        return {"lambda": str(p.lam), "beta": str(p.beta), "p": str(p.p), "r": str(p.r), **fields}


def _parse_fraction(raw, key: str) -> Fraction:
    try:
        return as_fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"field {key!r}: cannot parse {raw!r} as a rational") from exc


def _parse_int(raw, key: str) -> int:
    """An int or an integer string; int() alone would read 10.7 as 10 and true as 1."""
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise TypeError(f"a {type(raw).__name__} is not an integer")
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: {raw!r} is not an integer") from exc


def config_from_dict(data: dict) -> Config:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULTS, **data}
    try:
        params = Params.make(
            _parse_fraction(merged["lambda"], "lambda"),
            _parse_fraction(merged["beta"], "beta"),
            _parse_fraction(merged["p"], "p"),
            _parse_fraction(merged["r"], "r"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ints = {key: _parse_int(merged[key], key) for key in _INT_KEYS if key in merged}
    ints.setdefault("series_order", None)
    return Config(params=params, output_format=str(merged["output_format"]), **ints)


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Read the JSON config (optional) and apply flag overrides (optional)."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    config_from_dict(data)  # a file that is invalid by itself is an error too
    return config_from_dict({**data, **(overrides or {})})

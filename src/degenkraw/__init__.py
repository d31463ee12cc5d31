"""Exact arithmetic for the degenerate Pascal measure and its
Krawtchouk-Appell polynomial families.

Importing the package loads only the exact modules the families need.  The
names backed by mpmath (``measure``), numpy (``sampling``) or the chaos
operators (``operators``, run by the audit) are imported on first access
(PEP 562), so a family build loads no floating point and no ``dataclasses``.
"""

from .combinat import (
    bracket_y,
    deg_falling,
    epsilon,
    epsilon_closed,
    eta,
    faa_derivative,
    kappa,
    rho_scaling,
    stirling1,
    stirling2,
)
from .config import (
    Config,
    ConfigError,
    DomainError,
    Params,
    deg_exp_series,
    exact_moments,
    laplace_series,
    load_config,
)
from .polys import (
    K_bell,
    K_epsilon,
    K_from_P,
    K_series,
    K_stirling,
    P_bell,
    P_from_K,
    P_from_K_stirling2,
    P_series,
    PolyFamily,
    addition_P3,
    addition_P4,
    c_coeffs,
    classical_K,
    family,
    monomial_from_K,
    mu_coeffs,
    xi_derivs,
)
from .series import NonInvertibleSeries, TSeries, XPoly, gen_binomial

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("measure", "MeasureModel"), "measure"),
    **dict.fromkeys(("sampling", "sample"), "sampling"),
    **dict.fromkeys(("operators", "ChaosVector", "chaos_to_poly", "poly_to_chaos"), "operators"),
    **dict.fromkeys(("scale_expansion", "scale_substitution", "translate"), "operators"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted(name for name in __dir__() if not name.startswith("_"))

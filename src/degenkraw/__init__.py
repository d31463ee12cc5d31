"""Exact arithmetic for the degenerate Pascal measure and its
Krawtchouk-Appell polynomial families.

Importing the package loads only the exact modules.  The names backed by
mpmath (``measure``) or numpy (``sampling``) are imported on first access
(PEP 562), so exact work never pays for the floating-point libraries.
"""

from .combinat import (
    bell_partial,
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
    varpi,
    varrho,
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
from .operators import (
    ChaosVector,
    chaos_to_poly,
    poly_to_chaos,
    scale_expansion,
    scale_substitution,
    translate,
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
    **dict.fromkeys(
        ("measure", "MeasureModel", "classical_pmf", "deg_exp"), "measure"
    ),
    **dict.fromkeys(("sampling", "sample", "tv_distance"), "sampling"),
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

"""Responsibility-aware model checking and equilibrium synthesis for
parametric concurrent stochastic games."""

import importlib

from .errors import (DegenerateQueryError, FormulaError, InadmissibleError,
                     MissingParameterError, ModelError, NoSolutionError,
                     ResourceLimitError, RespgamesError,
                     UndefinedEstimateError, UnsupportedQueryError,
                     UsageError, ZeroDenominatorError)
from .polyarith import Monomial, ParamId, Polynomial, RationalFunction
from .model import (AdmissibilityReport, Csg, Psmas, RewardStructure,
                    build_psmas, check_admissible, load_model, parse_model)
from .logic import (CompareOp, DegreeKind, PathFormula, StateFormula,
                    horizon, parse_formula, parse_path_formula,
                    render_formula)
from .trace import Plan, plan_from_model
from .checker import (CheckResult, DegreeResult, ExtendedValue, QueryContext,
                      Region, car_degree, check_formula, cpr_degree,
                      degree_at, path_sat_prob, reward_value,
                      responsibility_degree)

__version__ = "0.1.0"

# The names of `synth` and `oracle`, served on first access (PEP 562):
# both modules import numpy, which checking never needs.
_DEFERRED = {
    **dict.fromkeys(("NeSolution", "NeSystem", "ResponsibilitySpec",
                     "UtilityConfig", "build_ne_system", "find_equilibria",
                     "payoff_valuation", "solve_ne", "utility_parts",
                     "verify_ne"), "synth"),
    **dict.fromkeys(("Estimate", "SimConfig", "estimate_degree",
                     "estimate_path_prob"), "oracle"),
}

__all__ = [
    "DegenerateQueryError", "FormulaError", "InadmissibleError",
    "MissingParameterError", "ModelError", "NoSolutionError",
    "ResourceLimitError", "RespgamesError", "UndefinedEstimateError",
    "UnsupportedQueryError", "UsageError", "ZeroDenominatorError",
    "Monomial", "ParamId", "Polynomial", "RationalFunction",
    "AdmissibilityReport", "Csg", "Psmas", "RewardStructure", "build_psmas",
    "check_admissible", "load_model", "parse_model",
    "CompareOp", "DegreeKind", "PathFormula", "StateFormula", "horizon",
    "parse_formula", "parse_path_formula", "render_formula",
    "Plan", "plan_from_model",
    "CheckResult", "DegreeResult", "ExtendedValue", "QueryContext", "Region",
    "car_degree", "check_formula", "cpr_degree", "degree_at",
    "path_sat_prob", "reward_value", "responsibility_degree",
    *_DEFERRED,
]


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})

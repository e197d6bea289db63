"""Responsibility-aware model checking and equilibrium synthesis for
parametric concurrent stochastic games."""

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
from .synth import (NeSolution, NeSystem, ResponsibilitySpec, UtilityConfig,
                    build_ne_system, find_equilibria, payoff_valuation,
                    solve_ne, utility_parts, verify_ne)
from .oracle import Estimate, SimConfig, estimate_degree, estimate_path_prob

__version__ = "0.1.0"

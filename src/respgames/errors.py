"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: parse/usage problems exit
with 2, resource and degenerate-query problems with 3.
"""

from __future__ import annotations


class RespgamesError(Exception):
    """Base class for all package errors."""


class ModelError(RespgamesError):
    """Model text could not be parsed or violates a model invariant."""

    def __init__(self, message: str, source: str = "<model>",
                 line: int | None = None, col: int | None = None):
        self.source = source
        self.line = line
        self.col = col
        if line is not None:
            message = f"{source}:{line}:{col or 1}: {message}"
        super().__init__(message)


class FormulaError(RespgamesError):
    """Formula text could not be parsed or references unknown names."""

    def __init__(self, message: str, source: str = "<formula>",
                 line: int = 1, col: int | None = None):
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col or 1}: {message}")


class UsageError(RespgamesError):
    """A query whose flags or arguments are missing, conflicting or name
    unknown things; unlike FormulaError it points at no formula text."""


class MissingParameterError(RespgamesError):
    """A valuation does not assign a parameter that is needed."""

    def __init__(self, param):
        self.param = param
        super().__init__(f"no value assigned to parameter {param.name}")


class ResourceLimitError(RespgamesError):
    """A size cap (polynomial terms, pass work, sample block) was exceeded."""


class DegenerateQueryError(RespgamesError):
    """A query whose defining ratio has an identically-zero denominator."""


class ZeroDenominatorError(DegenerateQueryError):
    """A rational function was built with, or evaluated at, denominator zero."""


class UnsupportedQueryError(RespgamesError):
    """A query outside the implemented fragment (dimension limits, etc.)."""


class InadmissibleError(RespgamesError):
    """A valuation fails one of the three admissibility conditions."""

    def __init__(self, report):
        self.report = report
        cond, where, value = report.violations[0]
        super().__init__(
            f"inadmissible valuation: condition {cond} violated at {where} "
            f"(value {value})")


class UndefinedEstimateError(RespgamesError):
    """A simulation-based ratio estimate has an empty denominator sample."""


class NoSolutionError(RespgamesError):
    """The equation solver found no point meeting the residual tolerance."""

    def __init__(self, best_residual: float):
        self.best_residual = best_residual
        super().__init__(
            f"no solution found (best residual {best_residual:.3e})")

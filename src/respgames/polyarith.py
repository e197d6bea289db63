"""Exact arithmetic for multivariate polynomials over strategy parameters.

A parameter names one agent-state-action probability (state is None when an
agent's strategy is shared across states).  Polynomials map monomials to
Fraction coefficients; no zero coefficient and no zero exponent is ever
stored, so two polynomials are equal iff their term maps are equal.  The
monomial order is graded lexicographic over the parameters' (agent, state,
action) triples, which fixes a canonical rendering order and a leading term.

Rational functions are ratios of polynomials normalized so that the joint
integer content is 1 and the denominator's trailing coefficient (its minimal
monomial under the order) is positive, keeping probability-mass denominators
positively oriented; when numerator and denominator are proportional the
ratio collapses to the constant.  Equality of rational functions is decided
by the cross-multiplied difference in canonical form, never by multivariate
GCDs.

All values are immutable after construction and safe to share; operations
allocate fresh results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import (MissingParameterError, ResourceLimitError,
                     ZeroDenominatorError)

DEFAULT_TERM_LIMIT = 100_000

_term_limit = DEFAULT_TERM_LIMIT


def set_term_limit(limit: int) -> None:
    """Set the global guard on polynomial term counts (fail loudly, not slow)."""
    global _term_limit
    if limit < 1:
        raise ValueError("term limit must be positive")
    _term_limit = limit


def get_term_limit() -> int:
    return _term_limit


@dataclass(frozen=True)
class ParamId:
    """One strategy parameter: agent i's probability of `action` at `state`.

    `state` is None for strategies shared across all states.  `label` is a
    display name only and never takes part in identity.
    """

    agent: str
    state: str | None
    action: str
    label: str | None = field(default=None, compare=False)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.state is None:
            return f"x_{self.agent}_{self.action}"
        return f"x_{self.agent}_{self.state}_{self.action}"

    @property
    def order_key(self) -> tuple[str, str, str]:
        return (self.agent, self.state or "", self.action)

    def __repr__(self) -> str:  # keep debugging output short
        return f"ParamId({self.name})"


@dataclass(frozen=True)
class Monomial:
    """A product of parameter powers, stored sorted with positive exponents."""

    exps: tuple[tuple[ParamId, int], ...]

    @staticmethod
    def make(powers: Mapping[ParamId, int]) -> "Monomial":
        items = [(p, e) for p, e in powers.items() if e != 0]
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent")
        items.sort(key=lambda pe: pe[0].order_key)
        return Monomial(tuple(items))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        powers: dict[ParamId, int] = dict(self.exps)
        for p, e in other.exps:
            powers[p] = powers.get(p, 0) + e
        return Monomial.make(powers)

    def sort_key(self):
        # Ascending sort under this key lists monomials in descending
        # graded-lexicographic order (leading term first).
        return (-self.degree, tuple((p.order_key, -e) for p, e in self.exps))

    def render(self) -> str:
        return "*".join(p.name if e == 1 else f"{p.name}^{e}"
                        for p, e in self.exps)


UNIT_MONOMIAL = Monomial(())


class Polynomial:
    """Canonical sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("_terms", "_hash", "_plan")

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        clean = {m: c for m, c in terms.items() if c != 0}
        if len(clean) > _term_limit:
            raise ResourceLimitError(
                f"polynomial would have {len(clean)} terms "
                f"(limit {_term_limit})")
        self._terms = clean
        self._hash = None
        self._plan = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def constant(value) -> "Polynomial":
        return Polynomial({UNIT_MONOMIAL: Fraction(value)})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.constant(1)

    @staticmethod
    def variable(param: ParamId) -> "Polynomial":
        return Polynomial({Monomial.make({param: 1}): Fraction(1)})

    # -- structure ----------------------------------------------------

    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and UNIT_MONOMIAL in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._terms.get(UNIT_MONOMIAL, Fraction(0))

    @property
    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def variables(self) -> set[ParamId]:
        out: set[ParamId] = set()
        for m in self._terms:
            out.update(p for p, _ in m.exps)
        return out

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.sorted_terms()[0][1]

    def trailing_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.sorted_terms()[-1][1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = ma.mul(mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- evaluation and substitution -----------------------------------

    def evaluate(self, valuation: Mapping[ParamId, Fraction]) -> Fraction:
        """Evaluate exactly; raises MissingParameterError for unassigned ids.

        Works in integers over the cached `_EvalPlan`: with each value
        written n/d, parameter i contributes the table
        t[e] = n**e * d**(top - e), so every term is an integer row
        coefficient times one table entry per parameter over the common
        denominator L * prod(d**top), and a single reduction ends the call.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = _EvalPlan(self._terms)
        den = plan.lcm
        tables = []
        for p, top in zip(plan.params, plan.tops):
            if p not in valuation:
                raise MissingParameterError(p)
            value = valuation[p]
            if not isinstance(value, Fraction):
                value = Fraction(value)
            n, d = value.numerator, value.denominator
            tables.append([n ** e * d ** (top - e) for e in range(top + 1)])
            den *= d ** top
        total = 0
        for coeff, exps in plan.rows:
            for table, e in zip(tables, exps):
                coeff *= table[e]
            total += coeff
        return Fraction(total, den)

    def evaluate_float(self, valuation: Mapping[ParamId, float]) -> float:
        total = 0.0
        for m, c in self._terms.items():
            term = float(c)
            for p, e in m.exps:
                term *= valuation[p] ** e
            total += term
        return total

    def substitute(self, bindings: Mapping[ParamId, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace parameters by polynomials."""
        if not bindings:
            return self
        out = Polynomial.zero()
        for m, c in self._terms.items():
            term = Polynomial.constant(c)
            for p, e in m.exps:
                factor = bindings.get(p)
                if factor is None:
                    factor = Polynomial.variable(p)
                term = term * factor ** e
            out = out + term
        return out

    def derivative(self, param: ParamId) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            powers = dict(m.exps)
            e = powers.get(param, 0)
            if e == 0:
                continue
            if e == 1:
                del powers[param]
            else:
                powers[param] = e - 1
            dm = Monomial.make(powers)
            out[dm] = out.get(dm, Fraction(0)) + c * e
        return Polynomial(out)

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in monomial order, num/den coefficients."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = m.render()
            if not body:
                chunk = _render_fraction(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{_render_fraction(mag)}*{body}"
            if i == 0:
                parts.append(chunk if sign == "+" else f"-{chunk}")
            else:
                parts.append(f" {sign} {chunk}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()}>"


class _EvalPlan:
    """A polynomial compiled for exact evaluation in integers.

    `params` are the parameters in order of first appearance over the terms
    (so the first missing one is reported, as a term-by-term loop would),
    `tops` their highest exponents, `lcm` the least common multiple of the
    coefficient denominators, and `rows` one (coefficient * lcm, dense
    exponent tuple over `params`) pair per term.
    """

    __slots__ = ("params", "tops", "lcm", "rows")

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        index: dict[ParamId, int] = {}
        lcm = 1
        for m, c in terms.items():
            lcm = math.lcm(lcm, c.denominator)
            for p, _ in m.exps:
                index.setdefault(p, len(index))
        tops = [0] * len(index)
        rows = []
        for m, c in terms.items():
            exps = [0] * len(index)
            for p, e in m.exps:
                i = index[p]
                exps[i] = e
                tops[i] = max(tops[i], e)
            rows.append((c.numerator * (lcm // c.denominator), tuple(exps)))
        self.params = tuple(index)
        self.tops = tuple(tops)
        self.lcm = lcm
        self.rows = tuple(rows)


def _render_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- function-style operation surface ----------------------------------


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    return a + b


def poly_neg(a: Polynomial) -> Polynomial:
    return -a


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return a - b


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    return a * b


def poly_eval(p: Polynomial, valuation: Mapping[ParamId, Fraction]) -> Fraction:
    return p.evaluate(valuation)


def poly_substitute(p: Polynomial,
                    bindings: Mapping[ParamId, Polynomial]) -> Polynomial:
    return p.substitute(bindings)


class RationalFunction:
    """Normalized ratio of two polynomials (denominator never zero)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero:
            raise ZeroDenominatorError("rational function with zero denominator")
        if num.is_zero:
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        num, den = _remove_content(num, den)
        # Sign convention: the denominator's trailing term (minimal monomial
        # under the graded-lex order) is positive.  This keeps probability
        # mass polynomials such as x1 + x2 - x1*x2 positively oriented.
        if den.trailing_coefficient() < 0:
            num, den = -num, -den
        # Proportional pairs collapse to their constant ratio.
        q = num.leading_coefficient() / den.leading_coefficient()
        if (num - den * q).is_zero:
            num, den = Polynomial.constant(q), Polynomial.one()
        self.num = num
        self.den = den

    @staticmethod
    def constant(value) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(value))

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def evaluate(self, valuation: Mapping[ParamId, Fraction]) -> Fraction:
        d = self.den.evaluate(valuation)
        if d == 0:
            raise ZeroDenominatorError(
                "denominator evaluates to zero at this valuation")
        return self.num.evaluate(valuation) / d

    def render(self) -> str:
        if self.den == Polynomial.one():
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num.terms()) > 1:
            num = f"({num})"
        if len(self.den.terms()) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self) -> str:
        return f"<RationalFunction {self.render()}>"


def _remove_content(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide both polynomials by the joint rational content."""
    coeffs = list(a.terms().values()) + list(b.terms().values())
    g = 0
    lcm = 1
    for c in coeffs:
        g = math.gcd(g, abs(c.numerator))
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    content = Fraction(g, lcm)
    if content == 1:
        return a, b
    inv = 1 / content
    return a * inv, b * inv


def rf_simplify(r: RationalFunction) -> RationalFunction:
    """Re-normalize a ratio (idempotent; construction already normalizes)."""
    return RationalFunction(r.num, r.den)


def parse_polynomial(text: str, params: Mapping[str, ParamId]) -> Polynomial:
    """Parse the rendered polynomial grammar back into a Polynomial.

    `params` maps parameter display names to their ids; unknown names raise
    ValueError.  Accepts exactly what render() emits, plus parentheses and
    decimal literals (converted exactly).
    """
    tokens = _tokenize_poly(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        tok = peek()
        if tok is None or (kind is not None and tok[0] != kind):
            raise ValueError(f"unexpected token at offset "
                             f"{tok[2] if tok else len(text)} in polynomial")
        pos += 1
        return tok

    def parse_expr() -> Polynomial:
        sign = 1
        tok = peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            take()
            sign = -1 if tok[1] == "-" else 1
        acc = parse_term() * sign
        while True:
            tok = peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                take()
                nxt = parse_term()
                acc = acc + (nxt if tok[1] == "+" else -nxt)
            else:
                return acc

    def parse_term() -> Polynomial:
        acc = parse_factor()
        while True:
            tok = peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                take()
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor() -> Polynomial:
        tok = peek()
        if tok is None:
            raise ValueError("truncated polynomial text")
        if tok[0] == "op" and tok[1] == "(":
            take()
            inner = parse_expr()
            closing = take("op")
            if closing[1] != ")":
                raise ValueError("expected ')' in polynomial text")
            return _parse_power(inner)
        if tok[0] == "number":
            take()
            value = Fraction(tok[1])
            nxt = peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                take()
                den = take("number")
                value /= Fraction(den[1])
            return _parse_power(Polynomial.constant(value))
        if tok[0] == "ident":
            take()
            if tok[1] not in params:
                raise ValueError(f"unknown parameter name '{tok[1]}'")
            return _parse_power(Polynomial.variable(params[tok[1]]))
        raise ValueError(f"unexpected token '{tok[1]}' in polynomial")

    def _parse_power(base: Polynomial) -> Polynomial:
        tok = peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            take()
            exp = take("number")
            return base ** int(exp[1])
        return base

    result = parse_expr()
    if pos != len(tokens):
        raise ValueError("trailing junk in polynomial text")
    return result


def _tokenize_poly(text: str) -> list[tuple[str, str, int]]:
    out: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(text)
                            and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            out.append(("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(("op", ch, i))
            i += 1
            continue
        raise ValueError(f"bad character {ch!r} at offset {i} in polynomial")
    return out


def rf_equal_on_box(a: RationalFunction, b: RationalFunction,
                    samples: int = 16, seed: int = 0) -> bool:
    """Decide a == b via the cross-multiplied canonical-form difference.

    The canonical test is sound and complete for identity on the box (the box
    has interior).  The sampled spot check is a deterministic belt-and-braces
    pass over `samples` rational points and never overrides the exact answer.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    diff = a.num * b.den - b.num * a.den
    identical = diff.is_zero
    rng = random.Random(seed)
    params = sorted(a.num.variables() | a.den.variables()
                    | b.num.variables() | b.den.variables(),
                    key=lambda p: p.order_key)
    for _ in range(samples):
        point = {p: Fraction(rng.randint(0, 64), 64) for p in params}
        if a.den.evaluate(point) == 0 or b.den.evaluate(point) == 0:
            continue
        agree = a.evaluate(point) == b.evaluate(point)
        if agree != identical:  # pragma: no cover - would signal a defect
            raise AssertionError("canonical test contradicts sampled point")
    return identical

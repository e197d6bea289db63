"""Exact arithmetic for multivariate polynomials over strategy parameters.

A parameter names one agent-state-action probability (state is None when an
agent's strategy is shared across states).

A polynomial maps packed monomials to integer numerators over one positive
common denominator.  Each parameter owns a fixed 16-bit field, assigned the
first time the parameter is seen, and a monomial is the int whose field i
holds the exponent of parameter i, so multiplying two monomials is one
integer addition.  The top bit of every field is a guard: exponents stay at
most MAX_EXPONENT, and a product that would set a guard bit raises
ResourceLimitError instead of carrying into the next field.  A product of
polynomials costs one integer multiply-add per pair of terms and one gcd;
a sum brings both operands to the lcm of their denominators.

The canonical form stores no zero numerator and keeps the gcd of the
denominator and all numerators at 1, so two polynomials are equal iff their
term maps and denominators are equal.  Field positions never reach an
answer: rendering and leading terms follow the graded lexicographic order
over the parameters' (agent, state, action) triples, unpacked from the
keys, and terms keep insertion order, so results do not depend on which
parameters were seen first.

Rational functions are ratios of polynomials normalized so that the joint
integer content is 1 and the denominator's trailing coefficient (its minimal
monomial under the order) is positive, keeping probability-mass denominators
positively oriented; when numerator and denominator are proportional the
ratio collapses to the constant.  Equality of rational functions is decided
by the cross-multiplied difference in canonical form, never by multivariate
GCDs.

All values are immutable after construction and safe to share: `zero()`
and `one()` return one shared value each, and a sum with a zero operand
returns the other operand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (MissingParameterError, ResourceLimitError,
                     ZeroDenominatorError)

# The most terms a polynomial may hold; past it ResourceLimitError (exit 3)
# ends the query rather than letting it run slow.
MAX_TERMS = 100_000


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
    # computed once: parameters are dictionary keys on every hot path
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.agent, self.state, self.action)))

    def __hash__(self) -> int:
        return self._hash

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
    """A product of parameter powers, stored sorted with positive exponents.

    The unpacked form of a term's key, for building and reading terms;
    arithmetic runs on the packed keys.
    """

    exps: tuple[tuple[ParamId, int], ...]

    @staticmethod
    def make(powers: Mapping[ParamId, int]) -> "Monomial":
        items = [(p, e) for p, e in powers.items() if e != 0]
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent")
        items.sort(key=lambda pe: pe[0].order_key)
        return Monomial(tuple(items))


# -- packed monomials ----------------------------------------------------

_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1

# Field numbers, assigned on first use in a polynomial and never reused or
# moved; only the speed of an operation, never its result, depends on
# them.  Equal parameters with different labels get fields of their own,
# so a key unpacks to the parameter, and the name, it was built from.
# `_interned` holds one object per (parameter, label), the one every field
# unpacks to.
_field_of: dict[tuple[ParamId, str | None], int] = {}
_param_at: list[ParamId] = []
_interned: dict[tuple[ParamId, str | None], ParamId] = {}


def intern(p: ParamId) -> ParamId:
    """The registered parameter equal to p with p's label (p itself the
    first time).  Dictionaries find an interned parameter by identity, so
    the parameters of every load of a model are the objects that compiled
    plans hold, and no lookup calls `ParamId.__eq__`."""
    return _interned.setdefault((p, p.label), p)


def _shift(p: ParamId) -> int:
    """The bit offset of p's exponent field."""
    i = _field_of.get((p, p.label))
    if i is None:
        i = _field_of[p, p.label] = len(_param_at)
        _param_at.append(intern(p))
    return i * _BITS


def _pack(m: Monomial) -> int:
    key = 0
    for p, e in m.exps:
        if e > MAX_EXPONENT:
            raise ResourceLimitError(
                f"exponent {e} of {p.name} exceeds {MAX_EXPONENT}")
        key += e << _shift(p)
    return key


def _fields(keys: Iterable[int]) -> list[tuple[int, ParamId]]:
    """(bit offset, parameter) of every field the keys use, in parameter
    order."""
    present = functools.reduce(operator.or_, keys, 0)
    fields = []
    while present:
        i = ((present & -present).bit_length() - 1) // _BITS
        fields.append((i * _BITS, _param_at[i]))
        present &= ~(_FIELD << i * _BITS)
    fields.sort(key=lambda f: f[1].order_key)
    return fields


def _monomial(key: int, fields=None) -> Monomial:
    return Monomial(tuple((p, e) for s, p in fields or _fields((key,))
                          if (e := key >> s & _FIELD)))


def _graded(keys: list[int], fields) -> tuple[list[list[int]], list[int]]:
    """The keys' exponents, one list per field of `fields`, and the
    positions of the keys in the order of their monomials: by degree, then
    by the exponents in parameter order, the first parameter most
    significant; so the last position holds the leading monomial."""
    columns = [[k >> s & _FIELD for k in keys] for s, _ in fields]
    if not columns:  # the constant term alone
        return columns, [0]
    ranks = list(zip(map(sum, zip(*columns)), *columns))
    return columns, sorted(range(len(keys)), key=ranks.__getitem__)


def _check_exponents(keys: Iterable[int]) -> None:
    """Raise if a sum of in-range keys set the guard bit of a field."""
    seen = functools.reduce(operator.or_, keys, 0)
    fields = -(-seen.bit_length() // _BITS)
    guards = ((1 << fields * _BITS) - 1) // _FIELD << (_BITS - 1)
    if seen & guards:
        raise ResourceLimitError(
            f"a product would raise an exponent past {MAX_EXPONENT}")


def _new(terms: dict[int, int], den: int) -> "Polynomial":
    poly = object.__new__(Polynomial)
    poly._assign(terms, den)
    return poly


class Polynomial:
    """Canonical sparse multivariate polynomial with rational coefficients,
    held as integer numerators over one common denominator."""

    __slots__ = ("_terms", "_den", "_hash", "_plan")

    def __init__(self, terms: Mapping[Monomial, Fraction]):
        coeffs = {_pack(m): Fraction(c) for m, c in terms.items() if c != 0}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._assign({k: c.numerator * (den // c.denominator)
                      for k, c in coeffs.items()}, den)

    def _assign(self, terms: dict[int, int], den: int) -> None:
        """Hold `terms` over `den` > 0 in canonical form (takes the dict)."""
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
        if len(terms) > MAX_TERMS:
            raise ResourceLimitError(
                f"polynomial would have {len(terms)} terms "
                f"(limit {MAX_TERMS})")
        self._terms = terms
        self._den = den
        self._hash = None
        self._plan = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def constant(value) -> "Polynomial":
        q = Fraction(value)
        return _new({0: q.numerator}, q.denominator)

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def variable(param: ParamId) -> "Polynomial":
        return _new({1 << _shift(param): 1}, 1)

    # -- structure ----------------------------------------------------

    def terms(self) -> Mapping[Monomial, Fraction]:
        return _TermView(self)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and 0 in self._terms)

    def _extreme(self, at: int) -> Fraction:
        """The coefficient at position `at` of the monomial order."""
        keys = list(self._terms)
        _, order = _graded(keys, _fields(keys))
        return Fraction(self._terms[keys[order[at]]], self._den)

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self._extreme(-1)

    def trailing_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if 0 in self._terms:  # a constant term is the least monomial
            return Fraction(self._terms[0], self._den)
        return self._extreme(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self._den))
        return self._hash

    # -- arithmetic ---------------------------------------------------
    #
    # A number operand is told apart by `type(other) is not Polynomial`
    # first: `Fraction`'s metaclass is ABCMeta, whose isinstance is slow.
    #
    # Result terms appear in the order a {Monomial: Fraction} loop would
    # insert them, with a cancelled term dropped at the end of its call;
    # `evaluate` reports the first missing parameter, and `evaluate_float`
    # sums, in that order.

    def __add__(self, other) -> "Polynomial":
        if (type(other) is not Polynomial
                and isinstance(other, (int, Fraction))):
            other = Polynomial.constant(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        den = math.lcm(self._den, other._den)
        scale = den // self._den
        out = (dict(self._terms) if scale == 1 else
               {k: c * scale for k, c in self._terms.items()})
        scale = den // other._den
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) + c * scale
        return _new(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _new({k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Polynomial":
        if (type(other) is not Polynomial
                and isinstance(other, (int, Fraction))):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if (type(other) is not Polynomial
                and isinstance(other, (int, Fraction))):
            # an int is its own numerator over 1
            n = other.numerator
            return _new({k: c * n for k, c in self._terms.items()},
                        self._den * other.denominator)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out: dict[int, int] = {}
        get = out.get
        right = list(other._terms.items())
        for ka, ca in self._terms.items():
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        _check_exponents(out)
        return _new(out, self._den * other._den)

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

    def _compiled(self) -> "_EvalPlan":
        plan = self._plan
        if plan is None:
            plan = self._plan = _EvalPlan(self)
        return plan

    def evaluate(self, valuation: Mapping[ParamId, Fraction]) -> Fraction:
        """Evaluate exactly; raises MissingParameterError for unassigned ids.

        Works in integers over the cached `_EvalPlan`, as `evaluate_ratio`
        does, and a single reduction ends the call.
        """
        return Fraction(*self.evaluate_ratio(valuation, {}))

    def evaluate_ratio(self, valuation: Mapping[ParamId, Fraction],
                       tables: dict[tuple[ParamId, int], tuple[list[int], int]]
                       ) -> tuple[int, int]:
        """The value at `valuation` as unreduced integers: (numerator,
        positive denominator).

        With each value written n/d, parameter i contributes the table
        t[e] = n**e * d**(top - e), so every term is an integer numerator
        times one table entry per parameter over the denominator
        den * prod(d**top).  Raises MissingParameterError for the first
        unassigned id, in order of appearance over the terms.

        `tables` maps (parameter, top) to that parameter's table and
        d**top at `valuation`, and gains the entries this call makes.  A
        caller passes one dict for every polynomial it evaluates at one
        valuation, so the polynomials share their tables, and drops it with
        the valuation.
        """
        plan = self._compiled()
        den = plan.den
        rows_tables = []
        for p, top in zip(plan.params, plan.tops):
            entry = tables.get((p, top))
            if entry is None:
                if p not in valuation:
                    raise MissingParameterError(p)
                value = valuation[p]
                if not isinstance(value, Fraction):
                    value = Fraction(value)
                n, d = value.numerator, value.denominator
                entry = tables[p, top] = (
                    [n ** e * d ** (top - e) for e in range(top + 1)],
                    d ** top)
            rows_tables.append(entry[0])
            den *= entry[1]
        total = 0
        for coeff, exps in plan.rows:
            for table, e in zip(rows_tables, exps):
                coeff *= table[e]
            total += coeff
        return total, den

    def evaluate_float(self, valuation: Mapping[ParamId, float]) -> float:
        """Evaluate in floating point over the cached `_EvalPlan`.

        Each term is its coefficient times value**e per parameter, in
        parameter order, summed in term order: the same operations as a
        term-by-term loop over Fraction coefficients, so the same float.
        """
        plan = self._compiled()
        powers = []
        for p, top in zip(plan.params, plan.tops):
            value = valuation[p]
            powers.append([value ** e for e in range(top + 1)])
        total = 0.0
        for term, factors in plan.float_rows:
            for i, e in factors:
                term *= powers[i][e]
            total += term
        return total

    def substitute(self, bindings: Mapping[ParamId, "Polynomial"]) -> "Polynomial":
        """Simultaneously replace parameters by polynomials, in one pass.

        A constant binding n/d folds into the integer numerators as in
        `evaluate`: with top the parameter's highest exponent here, a term
        with exponent e is multiplied by n**e * d**(top - e), and the
        denominator by d**top.  Unbound parameters keep their fields of
        each key.  A non-constant binding P is raised to the term's
        exponent and multiplied in, in parameter order, by polynomial
        products, so their exponent guard applies, and the result is
        brought to the denominator prod(den(P)**top).  The terms
        accumulate in one dict, in the order a term-by-term sum of the
        products inserts them, a key dropped as soon as it cancels; one
        reduction ends the call.
        """
        if not bindings:
            return self
        den = self._den
        kept = 0  # the fields of parameters left in place
        constants: list[tuple[int, list[int]]] = []
        polys: list[tuple[int, Polynomial, dict[int, Polynomial]]] = []
        poly_den = 1
        for shift, p in _fields(self._terms):
            b = bindings.get(p)
            if b is None:
                kept |= _FIELD << shift
                continue
            top = max(k >> shift & _FIELD for k in self._terms)
            if b.is_constant:
                n, d = b._terms.get(0, 0), b._den
                constants.append(
                    (shift, [n ** e * d ** (top - e) for e in range(top + 1)]))
                den *= d ** top
            else:
                polys.append((shift, b, {}))
                poly_den *= b._den ** top
        out: dict[int, int] = {}
        get = out.get
        for key, c in self._terms.items():
            for shift, table in constants:
                c *= table[key >> shift & _FIELD]
            if not c:
                continue
            if polys:
                term = _new({key & kept: 1}, 1)
                for shift, b, powers in polys:
                    if e := key >> shift & _FIELD:
                        if e not in powers:
                            powers[e] = b ** e
                        term = term * powers[e]
                c *= poly_den // term._den
                products = term._terms.items()
            else:
                products = ((key & kept, 1),)
            for k, t in products:
                total = get(k, 0) + c * t
                if total:
                    out[k] = total
                else:
                    del out[k]
        return _new(out, den * poly_den)

    def derivative(self, param: ParamId) -> "Polynomial":
        i = _field_of.get((param, param.label))
        if i is None:  # never seen, so in no polynomial
            return Polynomial.zero()
        shift = i * _BITS
        unit = 1 << shift
        out = {}
        for k, c in self._terms.items():
            e = (k >> shift) & _FIELD
            if e:
                out[k - unit] = c * e
        return _new(out, self._den)

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in monomial order, num/den coefficients.

        Built column by column: each field's exponents index a table of its
        factor texts, "" at exponent 0 and else the name or name^e followed
        by "*"; a term's monomial is its row of texts joined, the last "*"
        cut.
        """
        if self.is_zero:
            return "0"
        keys = list(self._terms)
        fields = _fields(keys)
        columns, order = _graded(keys, fields)
        texts = []
        for (_, p), column in zip(fields, columns):
            name = p.name
            table = {e: f"{name}^{e}*" for e in set(column)}
            table[0], table[1] = "", f"{name}*"
            texts.append(map(table.__getitem__, column))
        bodies = ["".join(row)[:-1] for row in zip(*texts)] or [""]
        coeffs = list(self._terms.values())
        den = self._den
        parts: list[str] = []
        for i in reversed(order):
            c = coeffs[i]
            g = math.gcd(c, den)
            mag = (str(abs(c) // g) if g == den
                   else f"{abs(c) // g}/{den // g}")
            body = bodies[i]
            parts += (" - " if c < 0 else " + ",
                      mag if not body else body if mag == "1"
                      else f"{mag}*{body}")
        # the leading term's sign is written without spaces
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()}>"


# The values `zero()` and `one()` return, shared as every value is.
_ZERO = _new({}, 1)
_ONE = _new({0: 1}, 1)


class _TermView(Mapping):
    """A polynomial's terms as {Monomial: Fraction}, in term order.

    `len` is free; monomials are unpacked as they are read.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly: Polynomial):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __iter__(self):
        return map(_monomial, self._poly._terms)

    def __getitem__(self, m: Monomial) -> Fraction:
        return Fraction(self._poly._terms[_pack(m)], self._poly._den)


class _EvalPlan:
    """A polynomial compiled for evaluation.

    `params` are the parameters in order of first appearance over the terms
    (so the first missing one is reported, as a term-by-term loop would),
    `tops` their highest exponents, `den` the polynomial's denominator,
    `rows` one (numerator, dense exponent tuple over `params`) pair per
    term, and `float_rows` one (coefficient as float, ((param position,
    exponent), ...) in parameter order) pair per term.
    """

    __slots__ = ("params", "tops", "den", "rows", "float_rows")

    def __init__(self, poly: Polynomial):
        index: dict[ParamId, int] = {}
        fields = _fields(poly._terms)
        sparse = []
        for key, c in poly._terms.items():
            sparse.append((c, tuple((index.setdefault(p, len(index)), e)
                                    for p, e in _monomial(key, fields).exps)))
        tops = [0] * len(index)
        rows = []
        for c, factors in sparse:
            exps = [0] * len(index)
            for i, e in factors:
                exps[i] = e
                tops[i] = max(tops[i], e)
            rows.append((c, tuple(exps)))
        self.params = tuple(index)
        self.tops = tuple(tops)
        self.den = poly._den
        self.rows = tuple(rows)
        # int / int rounds correctly, as float(Fraction) does
        self.float_rows = tuple((c / poly._den, factors)
                                for c, factors in sparse)


class FloatSystem:
    """Groups of polynomials compiled once for float evaluation at many
    points of the same parameters.

    A point's powers x_i**e, for e up to parameter i's highest exponent in
    any group, form one flat table (`powers`), which every group then
    reads (`values`).  Each term is the coefficient of `evaluate_float`'s
    rows times one table entry per factor, in parameter order, and the
    terms are summed in term order, so each value is the float
    `evaluate_float` gives.  A parameter outside `params` raises
    MissingParameterError.
    """

    __slots__ = ("_tops", "_groups")

    def __init__(self, groups: Sequence[Sequence[Polynomial]],
                 params: Sequence[ParamId]):
        position = {p: i for i, p in enumerate(params)}
        tops = [0] * len(params)
        plans = [[poly._compiled() for poly in group] for group in groups]
        for plan in itertools.chain(*plans):
            for p, top in zip(plan.params, plan.tops):
                if p not in position:
                    raise MissingParameterError(p)
                tops[position[p]] = max(tops[position[p]], top)
        offsets = list(itertools.accumulate((top + 1 for top in tops),
                                            initial=0))
        self._tops = tuple(tops)
        compiled = []
        for group in plans:
            rows = []
            for plan in group:
                # where the plan's parameter i has its table
                where = [offsets[position[p]] for p in plan.params]
                rows.append(tuple((c, tuple(where[i] + e for i, e in factors))
                                  for c, factors in plan.float_rows))
            compiled.append(tuple(rows))
        self._groups = tuple(compiled)

    def powers(self, point: Sequence[float]) -> list[float]:
        """The table of x**e at a point, given as one value per parameter
        of `params`, in that order."""
        table: list[float] = []
        for x, top in zip(point, self._tops):
            table += [x ** e for e in range(top + 1)]
        return table

    def values(self, group: int, table: Sequence[float]) -> list[float]:
        """The float value of each polynomial of a group at the point of
        `table`."""
        out = []
        for rows in self._groups[group]:
            total = 0.0
            for term, factors in rows:
                for k in factors:
                    term *= table[k]
                total += term
            out.append(total)
        return out


class GridWalk:
    """A polynomial's values on a simplex grid, as integers over one scale.

    `groups` lists the grid's parameters simplex by simplex; each takes the
    values i/denominator, with the naturals i of one group summing to at
    most the denominator.  `rows` yields the points in lexicographic order
    over the flattened groups, one row per value of every parameter but
    the last: the row's numerators of those parameters, and the list of
    integers N, one per value i of the last parameter, whose value is
    N / `scale`, with scale = den * denominator**(sum of the parameters'
    highest exponents top).  Without parameters there is one row of one
    point.  As in `evaluate`, parameter j at value i/denominator
    contributes i**e * denominator**(top - e) to a term with exponent e,
    read from a table, so a term is its numerator times one table entry
    per parameter.  The walk collapses one parameter per level, outermost
    first: each of its values folds its table row into the coefficients of
    the remaining parameters, which are then walked alike.  No Fraction is
    made per point.

    A parameter of the polynomial outside the groups raises
    MissingParameterError, the first one in order of appearance.
    """

    __slots__ = ("scale", "_denominator", "_width", "_tables", "_opens",
                 "_terms")

    def __init__(self, poly: Polynomial,
                 groups: Sequence[Sequence[ParamId]], denominator: int):
        flat = [p for group in groups for p in group]
        position = {p: j for j, p in enumerate(flat)}
        plan = poly._compiled()
        for p in plan.params:
            if p not in position:
                raise MissingParameterError(p)
        tops = [0] * len(flat)
        for p, top in zip(plan.params, plan.tops):
            tops[position[p]] = top
        # keys repacked with parameter j in field j, the first lowest
        width = max(tops, default=0).bit_length() or 1
        terms: dict[int, int] = {}
        for c, exps in plan.rows:
            key = 0
            for p, e in zip(plan.params, exps):
                key |= e << position[p] * width
            terms[key] = terms.get(key, 0) + c
        self.scale = plan.den * denominator ** sum(tops)
        self._denominator = denominator
        self._width = width
        # parameter j's table, by exponent e, then value i
        self._tables = [[[i ** e * denominator ** (top - e)
                          for i in range(denominator + 1)]
                         for e in range(top + 1)] for top in tops]
        # whether parameter j starts a group, with the whole budget
        self._opens = [j == 0 for group in groups for j in range(len(group))]
        self._terms = terms

    def rows(self) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        if not self._tables:
            return iter((((), [self._terms.get(0, 0)]),))
        return self._walk(self._terms, 0, self._denominator, ())

    def _walk(self, terms: dict[int, int], level: int, budget: int,
              prefix: tuple[int, ...]
              ) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        mask = (1 << self._width) - 1
        by_exp: dict[int, list[tuple[int, int]]] = {}
        for key, c in terms.items():
            by_exp.setdefault(key & mask, []).append((key >> self._width, c))
        table = self._tables[level]
        if level + 1 == len(self._tables):
            # one row of points: every remaining key is 0
            values = [0] * (budget + 1)
            for e, members in by_exp.items():
                coeff = sum(c for _, c in members)
                values = [v + coeff * t for v, t in zip(values, table[e])]
            yield prefix, values
            return
        opens = self._opens[level + 1]
        for i in range(budget + 1):
            folded: dict[int, int] = {}
            get = folded.get
            for e, members in by_exp.items():
                f = table[e][i]
                if f:
                    for rest, c in members:
                        folded[rest] = get(rest, 0) + c * f
            yield from self._walk(folded, level + 1,
                                  self._denominator if opens else budget - i,
                                  (*prefix, i))


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
        # Proportional pairs collapse to their constant ratio.  Over a
        # constant denominator only a constant numerator is proportional,
        # so a long numerator over one skips the test.
        if num.is_constant or not den.is_constant:
            q = num.leading_coefficient() / den.leading_coefficient()
            if (num - den * q).is_zero:
                num, den = Polynomial.constant(q), Polynomial.one()
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

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
        if len(self.num._terms) > 1:
            num = f"({num})"
        # the denominator divides as a whole: bracketed unless it is one
        # factor (its one-term texts are n, a power, or products with `*`,
        # as content removal leaves integer coefficients)
        if len(self.den._terms) > 1 or "*" in den:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self) -> str:
        return f"<RationalFunction {self.render()}>"


def _remove_content(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide both (nonzero) polynomials by their joint rational content.

    Canonical numerators are coprime to their denominator, so the content
    is the gcd of all numerators over the lcm of the two denominators.
    """
    content = Fraction(math.gcd(*a._terms.values(), *b._terms.values()),
                       math.lcm(a._den, b._den))
    if content == 1:
        return a, b
    inv = 1 / content
    return a * inv, b * inv

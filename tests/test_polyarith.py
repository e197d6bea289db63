import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respgames import polyarith
from respgames.errors import (MissingParameterError, ResourceLimitError,
                              ZeroDenominatorError)
from respgames.polyarith import (MAX_EXPONENT, Monomial, ParamId,
                                 Polynomial, RationalFunction)

X1 = ParamId("A1", None, "skip", label="x1")
X2 = ParamId("A2", None, "skip", label="x2")
X3 = ParamId("A3", None, "skip", label="x3")

x1 = Polynomial.variable(X1)
x2 = Polynomial.variable(X2)
x3 = Polynomial.variable(X3)
one = Polynomial.one()
zero = Polynomial.zero()


def rand_poly(rng, max_vars=3, max_deg=4, terms=4):
    out = Polynomial.zero()
    params = [X1, X2, X3][:max_vars]
    for _ in range(rng.randint(0, terms)):
        powers = {}
        budget = max_deg
        for p in params:
            e = rng.randint(0, min(2, budget))
            budget -= e
            if e:
                powers[p] = e
        coeff = Fraction(rng.randint(-10, 10))
        out = out + Polynomial({Monomial.make(powers): coeff})
    return out


def test_add_like_term_cancellation():
    assert (x1 + one) + (x1 - one) == 2 * x1


def test_add_identity():
    p = x1 * x2 - 3 * x1
    assert p + zero == p


def test_add_mixing_partition():
    # x1*x2 + x1*(1 - x2) collapses to x1
    assert x1 * x2 + x1 * (one - x2) == x1


def test_mul_expansion():
    assert (one - x1) * (one - x2) == one - x1 - x2 + x1 * x2


def test_mul_identities():
    p = x1 * x2 + 2 * x2
    assert p * one == p
    assert p * zero == zero


def test_eval_product():
    assert (x1 * x2).evaluate({X1: Fraction(1, 2), X2: Fraction(1, 3)}) \
        == Fraction(1, 6)


def test_eval_univariate():
    p = one - x1 + x1 * x1
    assert p.evaluate({X1: Fraction(1, 2)}) == Fraction(3, 4)


def test_eval_near_root():
    # 2x^2 + x - 2 has the irrational root (sqrt(17) - 1) / 4; rational
    # approximations drive the exact evaluation toward zero.
    p = 2 * x1 * x1 + x1 - 2
    coarse = p.evaluate({X1: Fraction(7655, 9806)})
    assert abs(coarse) < Fraction(1, 10 ** 3)
    root = Fraction((17 ** 0.5 - 1) / 4).limit_denominator(10 ** 8)
    assert abs(p.evaluate({X1: root})) < Fraction(1, 10 ** 6)


def test_eval_missing_parameter():
    with pytest.raises(MissingParameterError) as err:
        (x1 * x2).evaluate({X1: Fraction(1)})
    assert "x2" in str(err.value)


def test_substitute_simplex_elimination():
    assert (x1 + x2).substitute({X2: one - x1}) == one


def test_substitute_empty_and_zero():
    p = x1 * x2 + x2
    assert p.substitute({}) == p
    assert (x1 * x2).substitute({X1: zero}) == zero


def test_substitution_is_simultaneous():
    # x1 -> x2, x2 -> x1 swaps, rather than chaining
    p = x1 - x2
    assert p.substitute({X1: x2, X2: x1}) == x2 - x1


def test_canonical_negation():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_poly(rng)
        assert (p + (-p)).terms() == {}


def test_rf_proportional_collapse():
    num = x1 * x2 + x1 * (one - x2)
    assert RationalFunction(num, num) == RationalFunction(one)


def test_rf_constant_denominator(monkeypatch):
    # over a constant only a constant is proportional: a polynomial
    # numerator keeps its denominator without the leading-term test
    assert RationalFunction(Polynomial.constant(Fraction(-3, 4)),
                            Polynomial.constant(6)) == RationalFunction(
        Polynomial.constant(Fraction(-1, 8)))
    monkeypatch.setattr(Polynomial, "leading_coefficient", None)
    r = RationalFunction(x1 * 3 - x2, Polynomial.constant(-6))
    assert (r.num, r.den) == (x2 - x1 * 3, Polynomial.constant(6))
    assert r.render() == "(-3*x1 + x2) / 6"


def test_rf_content_removal():
    r = RationalFunction(2 * x1, Polynomial.constant(4))
    assert r.num == x1 and r.den == Polynomial.constant(2)


def test_rf_zero_numerator():
    r = RationalFunction(zero, x1 + x2)
    assert r.is_zero and r.den == one


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        RationalFunction(x1, zero)


def test_rf_equal_cross_multiplication():
    a = RationalFunction(x1 * x1, x1)
    b = RationalFunction(x1)
    assert (a - b).is_zero


def test_rf_equal_partition_of_unity():
    a = RationalFunction(one)
    b = RationalFunction(x1 + (one - x1))
    assert (a - b).is_zero


def test_rf_unequal():
    assert not (RationalFunction(x1) - RationalFunction(x2)).is_zero


def test_render_brackets_a_denominator_of_several_factors():
    # `/` divides by the whole denominator, so one of several factors is
    # bracketed as one of several terms is; a number or a power is not
    assert (RationalFunction(x1 * x2 * x3, x1 * x2).render()
            == "x1*x2*x3 / (x1*x2)")
    assert RationalFunction(x1, 2 * x2).render() == "x1 / (2*x2)"
    assert RationalFunction(x1, x2 ** 2).render() == "x1 / x2^2"
    assert RationalFunction(x1, Polynomial.constant(3)).render() == "x1 / 3"
    assert RationalFunction(one, x1 + x2).render() == "1 / (x1 + x2)"


def test_render_examples():
    assert zero.render() == "0"
    assert (x1 * x2 - x1 - x2 + one).render() == "x1*x2 - x1 - x2 + 1"
    assert (Fraction(1, 2) * x1).render() == "1/2*x1"
    assert (x1 ** 3).render() == "x1^3"


def test_monomial_order_graded_lex():
    # degree first, then lexicographic on the parameter order
    poly = one + x2 + x1 * x2 + x1 * x1
    assert poly.render() == "x1^2 + x1*x2 + x2 + 1"


def test_term_limit_guard(monkeypatch):
    monkeypatch.setattr(polyarith, "MAX_TERMS", 3)
    assert len(((x1 + one) * x2).terms()) == 2
    with pytest.raises(ResourceLimitError, match="4 terms"):
        (x1 + one) * (x2 + one)


def test_param_identity_ignores_label():
    named = ParamId("A1", "s0", "skip", label="p")
    plain = ParamId("A1", "s0", "skip")
    assert named == plain and hash(named) == hash(plain)
    assert {named: 1}[plain] == 1
    assert ParamId("A1", None, "skip") != plain


def test_derivative():
    p = x1 * x1 * x2 + 3 * x1
    assert p.derivative(X1) == 2 * x1 * x2 + 3
    assert p.derivative(X2) == x1 * x1
    assert p.derivative(X3) == zero


# -- differential test of exact evaluation -------------------------------
#
# The reference is the term-by-term Fraction loop that `evaluate` replaced:
# a power, a product and a sum per term, checking parameters in term order.

X4 = ParamId("B1", "s", "hold", label="x4")
PARAMS = (X1, X2, X3, X4)


def term_loop_evaluate(poly, valuation):
    total = Fraction(0)
    for m, c in poly.terms().items():
        term = c
        for p, e in m.exps:
            if p not in valuation:
                raise MissingParameterError(p)
            term *= Fraction(valuation[p]) ** e
        total += term
    return total


def outcome(evaluate, poly, valuation):
    """The value, or the parameter a MissingParameterError names."""
    try:
        value = evaluate(poly, valuation)
    except MissingParameterError as err:
        return "missing", err.param
    assert isinstance(value, Fraction)
    return "value", value


coefficients = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                         st.integers(1, 24))
values = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False))


def polynomials(params):
    """0-30 terms over the given parameters, exponents 0-6, signed rational
    coefficients.  Terms come in random order, so the parameters' order of
    first appearance differs from the monomial order."""
    term = st.tuples(st.tuples(*[st.integers(0, 6)] * len(params)),
                     coefficients)
    return st.lists(term, max_size=30).map(lambda terms: sum(
        (Polynomial({Monomial.make(dict(zip(params, exps))): c})
         for exps, c in terms), Polynomial.zero()))


@st.composite
def points(draw, params, missing=True):
    """A valuation of int, Fraction and float values; one in four drops
    some parameters."""
    point = {p: draw(values) for p in params}
    if missing and draw(st.integers(0, 3)) == 0:
        for p in draw(st.lists(st.sampled_from(params), min_size=1)):
            point.pop(p, None)
    return point


@st.composite
def evaluation_cases(draw):
    params = PARAMS[:draw(st.integers(1, 4))]
    return (draw(polynomials(params)),
            draw(st.lists(points(params), min_size=1, max_size=8)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(evaluation_cases())
def test_evaluate_matches_term_loop(case):
    # the same polynomial at many points: the compiled plan is reused
    poly, valuations = case
    for valuation in valuations:
        assert (outcome(Polynomial.evaluate, poly, valuation)
                == outcome(term_loop_evaluate, poly, valuation))


@st.composite
def shared_cases(draw):
    params = PARAMS[:draw(st.integers(1, 4))]
    return (draw(st.lists(polynomials(params), min_size=1, max_size=4)),
            draw(st.lists(points(params), min_size=1, max_size=4)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(shared_cases())
def test_evaluate_ratio_with_shared_tables_matches_evaluate(case):
    # polynomials read one valuation through one dict of tables: each
    # unreduced ratio is the value `evaluate` gives, over a positive
    # denominator, and the first missing parameter is the one it reports
    polys, valuations = case
    for valuation in valuations:
        shared = {}

        def ratio(poly, valuation):
            n, d = poly.evaluate_ratio(valuation, shared)
            assert d > 0
            return Fraction(n, d)

        for poly in polys:
            assert (outcome(ratio, poly, valuation)
                    == outcome(Polynomial.evaluate, poly, valuation))


@st.composite
def float_system_cases(draw):
    params = PARAMS[:draw(st.integers(1, 4))]
    groups = draw(st.lists(st.lists(polynomials(params), max_size=4),
                           min_size=1, max_size=3))
    point = draw(st.lists(st.floats(-2, 2, allow_nan=False),
                          min_size=len(params), max_size=len(params)))
    return params, groups, point


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(float_system_cases())
def test_float_system_matches_evaluate_float(case):
    # every group reads one table of the point's powers, and each value is
    # evaluate_float's to the bit
    params, groups, point = case
    system = polyarith.FloatSystem(groups, params)
    table = system.powers(point)
    valuation = dict(zip(params, point))
    for i, group in enumerate(groups):
        assert ([repr(v) for v in system.values(i, table)]
                == [repr(poly.evaluate_float(valuation)) for poly in group])


def test_float_system_missing_parameter():
    with pytest.raises(MissingParameterError) as err:
        polyarith.FloatSystem([[x1 + 1], [x1 * x2]], [X1])
    assert err.value.param == X2


@st.composite
def rational_cases(draw):
    """A rational function and points; when `vanish` is drawn the
    denominator carries the factor (x - v) for the first point's value v
    of its first parameter, so it is zero there."""
    params = PARAMS[:draw(st.integers(1, 4))]
    num = draw(polynomials(params))
    den = draw(polynomials(params).filter(lambda p: not p.is_zero))
    valuations = draw(st.lists(points(params, missing=False), min_size=1,
                               max_size=6))
    if draw(st.booleans()):
        first = params[0]
        root = Fraction(valuations[0][first])
        den = den * (Polynomial.variable(first) - root)
    return RationalFunction(num, den), valuations


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(rational_cases())
def test_rational_evaluate_matches_term_loop(case):
    rf, valuations = case
    for valuation in valuations:
        den = term_loop_evaluate(rf.den, valuation)
        if den == 0:
            with pytest.raises(ZeroDenominatorError):
                rf.evaluate(valuation)
        else:
            assert rf.evaluate(valuation) == (
                term_loop_evaluate(rf.num, valuation) / den)


def test_evaluate_reports_first_missing_in_term_order():
    # x2 appears before x1 in the terms, so it is reported first
    p = Polynomial({Monomial.make({X2: 1}): Fraction(1),
                    Monomial.make({X1: 2, X3: 1}): Fraction(1)})
    with pytest.raises(MissingParameterError) as err:
        p.evaluate({X3: 1})
    assert err.value.param == X2
    assert p.evaluate({X1: Fraction(1, 2), X2: 0.5, X3: 2}) == 1


def test_rational_evaluate_zero_denominator():
    rf = RationalFunction(x1, x1 - x2)
    with pytest.raises(ZeroDenominatorError):
        rf.evaluate({X1: Fraction(1, 3), X2: Fraction(1, 3)})
    assert rf.evaluate({X1: 1, X2: Fraction(1, 2)}) == 2


def test_exponent_past_field_width_raises():
    top = x1 ** MAX_EXPONENT
    assert top.render() == f"x1^{MAX_EXPONENT}"
    with pytest.raises(ResourceLimitError):
        top * x1
    with pytest.raises(ResourceLimitError):
        (x1 * x2) ** (MAX_EXPONENT + 1)
    with pytest.raises(ResourceLimitError):
        Polynomial({Monomial.make({X1: MAX_EXPONENT + 1}): Fraction(1)})
    # a full field leaves its neighbours alone
    assert (top * x2).render() == f"x1^{MAX_EXPONENT}*x2"


# -- differential test against the Fraction kernel -------------------------
#
# The reference is the kernel that packed keys replaced: {Monomial: Fraction}
# dicts, one Monomial product and one Fraction multiply-add per pair of
# terms.  Results must agree term for term and in term order, which fixes
# the first missing parameter `evaluate` reports and the float sum of
# `evaluate_float`.


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c != 0}


def ref_const(value):
    return ref_clean({Monomial(()): Fraction(value)})


def ref_var(p):
    return {Monomial.make({p: 1}): Fraction(1)}


def ref_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_monomial_mul(a, b):
    powers = dict(a.exps)
    for p, e in b.exps:
        powers[p] = powers.get(p, 0) + e
    return Monomial.make(powers)


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ref_monomial_mul(ma, mb)
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return ref_clean(out)


def ref_pow(a, n):
    out, base = ref_const(1), a
    while n:
        if n & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def ref_substitute(a, bindings):
    if not bindings:
        return a
    out = {}
    for m, c in a.items():
        term = ref_const(c)
        for p, e in m.exps:
            factor = bindings.get(p)
            term = ref_mul(term, ref_pow(ref_var(p) if factor is None
                                         else factor, e))
        out = ref_add(out, term)
    return out


def ref_derivative(a, param):
    out = {}
    for m, c in a.items():
        powers = dict(m.exps)
        e = powers.pop(param, 0)
        if e == 0:
            continue
        if e > 1:
            powers[param] = e - 1
        dm = Monomial.make(powers)
        out[dm] = out.get(dm, Fraction(0)) + c * e
    return ref_clean(out)


def ref_sort_key(m):
    # ascending sort lists monomials in descending graded-lexicographic
    # order (leading term first)
    return (-sum(e for _, e in m.exps),
            tuple((p.order_key, -e) for p, e in m.exps))


def ref_sorted_terms(a):
    return sorted(a.items(), key=lambda mc: ref_sort_key(mc[0]))


def ref_render(a):
    if not a:
        return "0"
    parts = []
    for i, (m, c) in enumerate(ref_sorted_terms(a)):
        mag = abs(c)
        text = str(mag.numerator) if mag.denominator == 1 else str(mag)
        body = "*".join(p.name if e == 1 else f"{p.name}^{e}"
                        for p, e in m.exps)
        chunk = text if not body else body if mag == 1 else f"{text}*{body}"
        if i == 0:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f" {'-' if c < 0 else '+'} {chunk}")
    return "".join(parts)


def ref_evaluate_float(a, valuation):
    total = 0.0
    for m, c in a.items():
        term = float(c)
        for p, e in m.exps:
            term *= valuation[p] ** e
        total += term
    return total


def ref_rational(num, den):
    """The (num, den) pair RationalFunction normalizes to."""
    if not den:
        raise ZeroDenominatorError("zero denominator")
    if not num:
        return {}, ref_const(1)
    g, lcm = 0, 1
    for c in list(num.values()) + list(den.values()):
        g = math.gcd(g, abs(c.numerator))
        lcm = math.lcm(lcm, c.denominator)
    if Fraction(g, lcm) != 1:
        inv = ref_const(Fraction(lcm, g))
        num, den = ref_mul(num, inv), ref_mul(den, inv)
    if ref_sorted_terms(den)[-1][1] < 0:
        num, den = ref_neg(num), ref_neg(den)
    q = ref_sorted_terms(num)[0][1] / ref_sorted_terms(den)[0][1]
    if not ref_sub(num, ref_mul(den, ref_const(q))):
        num, den = ref_const(q), ref_const(1)
    return num, den


def ref_rational_render(num, den):
    """The text of a normalized (num, den) pair: a numerator of several
    terms is bracketed, and so is a denominator that is not one factor (a
    whole number, or one parameter's power)."""
    if den == ref_const(1):
        return ref_render(num)
    num_text, den_text = ref_render(num), ref_render(den)
    if len(num) > 1:
        num_text = f"({num_text})"
    one_factor = len(den) == 1 and all(
        (not m.exps and c.denominator == 1) or (len(m.exps) == 1 and c == 1)
        for m, c in den.items())
    if not one_factor:
        den_text = f"({den_text})"
    return f"{num_text} / {den_text}"


def same(poly, ref):
    """Equal terms in equal order, and the same text."""
    assert list(poly.terms().items()) == list(ref.items())
    assert poly.render() == ref_render(ref)


_fresh = itertools.count()


@st.composite
def fresh_params(draw):
    """1-5 parameters no earlier example used, shared or per-state, given
    their bit fields in a drawn order unrelated to the monomial order."""
    uid = next(_fresh)
    params = [ParamId(draw(st.sampled_from(("A1", "A2", "B"))),
                      draw(st.sampled_from((None, "s0", "s1"))),
                      f"a{uid}_{i}") for i in range(draw(st.integers(1, 5)))]
    for p in draw(st.permutations(params)):
        Polynomial.variable(p)
    return params


def ref_polynomials(params, max_terms=6):
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * len(params)),
                     coefficients)
    return st.lists(term, max_size=max_terms).map(lambda terms: {
        Monomial.make(dict(zip(params, exps))): c for exps, c in terms})


@st.composite
def kernel_cases(draw):
    params = draw(fresh_params())
    a, b, c = (draw(ref_polynomials(params)) for _ in range(3))
    if draw(st.booleans()):  # proportional pairs collapse
        b = ref_mul(a, ref_const(draw(coefficients)))
    bound = draw(st.lists(st.sampled_from(params), unique=True))
    small = draw(ref_polynomials(params, max_terms=2))
    bindings = {p: draw(st.sampled_from(
        (small, ref_const(2), ref_const(draw(coefficients)), {},
         ref_var(draw(st.sampled_from(params))))))
        for p in bound}
    point = draw(points(params))
    # thirds and sevenths round, so a change in the order of float
    # products shows
    floats = {p: draw(st.one_of(st.floats(-2, 2, allow_nan=False),
                                st.integers(-60, 60).map(lambda n: n / 21)))
              for p in params}
    if draw(st.integers(0, 3)) == 0:
        floats.pop(draw(st.sampled_from(params)))
    return (params, a, b, c, bindings, draw(st.integers(0, 3)),
            draw(coefficients), point, floats)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(kernel_cases())
def test_packed_kernel_matches_fraction_kernel(case):
    params, a, b, c, bindings, n, scalar, point, floats = case
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    same(pa, a)
    same(pa + pb, ref_add(a, b))
    same(pa - pb, ref_sub(a, b))
    same(-pa, ref_neg(a))
    same(pa * pb, ref_mul(a, b))
    same(pa * pb * pc, ref_mul(ref_mul(a, b), c))
    same(pa ** n, ref_pow(a, n))
    same(pa * scalar + 1, ref_add(ref_mul(a, ref_const(scalar)),
                                  ref_const(1)))
    same(pa.substitute({p: Polynomial(f) for p, f in bindings.items()}),
         ref_substitute(a, bindings))
    stranger = ParamId("Z", None, "never_seen")
    for p in params + [stranger]:
        same(pa.derivative(p), ref_derivative(a, p))
    ordered = ref_sorted_terms(a) or [(None, 0)]
    assert pa.leading_coefficient() == ordered[0][1]
    assert pa.trailing_coefficient() == ordered[-1][1]
    assert (outcome(Polynomial.evaluate, pa, point)
            == outcome(term_loop_evaluate, pa, point))
    try:
        expected = ref_evaluate_float(a, floats)
    except KeyError as err:
        with pytest.raises(KeyError) as got:
            pa.evaluate_float(floats)
        assert got.value.args == err.args
    else:  # bit for bit: Newton's iterates depend on it
        assert repr(pa.evaluate_float(floats)) == repr(expected)
    try:
        num, den = ref_rational(a, b)
    except ZeroDenominatorError:
        with pytest.raises(ZeroDenominatorError):
            RationalFunction(pa, pb)
    else:
        rf = RationalFunction(pa, pb)
        same(rf.num, num)
        same(rf.den, den)
        assert rf.render() == ref_rational_render(num, den)


@st.composite
def wide_cases(draw):
    """Operands as wide as check-wide's: 4-12 fresh parameters, some
    labelled, given their fields in a drawn order; a numerator of 100-160
    terms with exponents 0-3, inserted out of monomial order, and a
    denominator of 1-3 terms, often one term of several factors.  The
    terms come from a seeded generator, so a case is cheap to draw."""
    uid = next(_fresh)
    params = [ParamId(draw(st.sampled_from(("A1", "A2", "B"))),
                      draw(st.sampled_from((None, "s0", "s1"))),
                      f"w{uid}_{i}",
                      label=f"y{uid}_{i}" if draw(st.booleans()) else None)
              for i in range(draw(st.integers(4, 12)))]
    for p in draw(st.permutations(params)):
        Polynomial.variable(p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def poly(size, top, coefficient):
        terms = {}
        while len(terms) < size:
            powers = {p: rng.randint(0, top) for p in params}
            terms[Monomial.make(powers)] = coefficient()
        return terms

    a = poly(rng.randint(100, 160), 3, lambda: Fraction(
        rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 6))))
    b = poly(rng.randint(1, 3), 1, lambda: Fraction(rng.randint(1, 3)))
    return a, b


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(wide_cases())
def test_render_at_check_wide_width(case):
    a, b = case
    pa = Polynomial(a)
    same(pa, a)
    ordered = ref_sorted_terms(a)
    assert pa.leading_coefficient() == ordered[0][1]
    assert pa.trailing_coefficient() == ordered[-1][1]
    assert (RationalFunction(pa, Polynomial(b)).render()
            == ref_rational_render(*ref_rational(a, b)))


RENDER_SCRIPT = """
import sys
from respgames import (MissingParameterError, build_psmas, car_degree,
                       load_model, parse_path_formula, path_sat_prob,
                       plan_from_model)
queries = {
    "relay": ("start", "X finished", None),
    "ball_rounds": ("start", "F<=2 (collision | dropped)", "pi_mix"),
}
for name in sys.argv[1:]:
    m = build_psmas(load_model(f"models/{name}.game"))
    state, text, plan = queries[name]
    psi = parse_path_formula(text, m)
    value = path_sat_prob(m, state, psi)
    print(name, value.render())
    if plan:
        degree = car_degree(m, state, "A1", plan_from_model(m, plan), psi)
        print(name, degree.value.render())
    try:
        value.num.evaluate({})
    except MissingParameterError as err:
        print(name, "missing", err.param.name)
"""


def test_renders_do_not_depend_on_model_load_order():
    root = pathlib.Path(__file__).resolve().parent.parent

    def run(*names):
        done = subprocess.run(
            [sys.executable, "-c", RENDER_SCRIPT, *names], cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True, timeout=120, check=True)
        return sorted(done.stdout.splitlines())

    assert run("relay", "ball_rounds") == run("ball_rounds", "relay")

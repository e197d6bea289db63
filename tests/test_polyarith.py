import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respgames.errors import (MissingParameterError, ResourceLimitError,
                              ZeroDenominatorError)
from respgames.polyarith import (Monomial, ParamId, Polynomial,
                                 RationalFunction, get_term_limit,
                                 parse_polynomial, poly_add, poly_eval,
                                 poly_mul, poly_neg, poly_substitute,
                                 rf_equal_on_box, rf_simplify, set_term_limit)

X1 = ParamId("A1", None, "skip", label="x1")
X2 = ParamId("A2", None, "skip", label="x2")
X3 = ParamId("A3", None, "skip", label="x3")
NAMES = {"x1": X1, "x2": X2, "x3": X3}

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
    assert poly_add(p, zero) == p


def test_add_mixing_partition():
    # x1*x2 + x1*(1 - x2) collapses to x1
    assert x1 * x2 + x1 * (one - x2) == x1


def test_mul_expansion():
    assert (one - x1) * (one - x2) == one - x1 - x2 + x1 * x2


def test_mul_identities():
    p = x1 * x2 + 2 * x2
    assert poly_mul(p, one) == p
    assert poly_mul(p, zero) == zero


def test_eval_product():
    assert poly_eval(x1 * x2, {X1: Fraction(1, 2), X2: Fraction(1, 3)}) \
        == Fraction(1, 6)


def test_eval_univariate():
    p = one - x1 + x1 * x1
    assert poly_eval(p, {X1: Fraction(1, 2)}) == Fraction(3, 4)


def test_eval_near_root():
    # 2x^2 + x - 2 has the irrational root (sqrt(17) - 1) / 4; rational
    # approximations drive the exact evaluation toward zero.
    p = 2 * x1 * x1 + x1 - 2
    coarse = poly_eval(p, {X1: Fraction(7655, 9806)})
    assert abs(coarse) < Fraction(1, 10 ** 3)
    root = Fraction((17 ** 0.5 - 1) / 4).limit_denominator(10 ** 8)
    assert abs(poly_eval(p, {X1: root})) < Fraction(1, 10 ** 6)


def test_eval_missing_parameter():
    with pytest.raises(MissingParameterError) as err:
        poly_eval(x1 * x2, {X1: Fraction(1)})
    assert "x2" in str(err.value)


def test_substitute_simplex_elimination():
    assert poly_substitute(x1 + x2, {X2: one - x1}) == one


def test_substitute_empty_and_zero():
    p = x1 * x2 + x2
    assert poly_substitute(p, {}) == p
    assert poly_substitute(x1 * x2, {X1: zero}) == zero


def test_substitution_is_simultaneous():
    # x1 -> x2, x2 -> x1 swaps, rather than chaining
    p = x1 - x2
    assert poly_substitute(p, {X1: x2, X2: x1}) == x2 - x1


def test_canonical_negation():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_poly(rng)
        assert poly_add(p, poly_neg(p)).terms() == {}


def test_rf_proportional_collapse():
    num = x1 * x2 + x1 * (one - x2)
    r = rf_simplify(RationalFunction(num, num))
    assert r == RationalFunction(one)


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
    assert rf_equal_on_box(a, b, samples=4, seed=1)


def test_rf_equal_partition_of_unity():
    a = RationalFunction(one)
    b = RationalFunction(x1 + (one - x1))
    assert rf_equal_on_box(a, b, samples=4, seed=1)


def test_rf_unequal():
    assert not rf_equal_on_box(RationalFunction(x1), RationalFunction(x2),
                               samples=4, seed=1)


def test_render_and_parse_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng)
        assert parse_polynomial(p.render(), NAMES) == p


def test_render_examples():
    assert zero.render() == "0"
    assert (x1 * x2 - x1 - x2 + one).render() == "x1*x2 - x1 - x2 + 1"
    assert (Fraction(1, 2) * x1).render() == "1/2*x1"
    assert (x1 ** 3).render() == "x1^3"


def test_parse_rejects_unknown_name():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + y9", NAMES)


def test_monomial_order_graded_lex():
    # degree first, then lexicographic on the parameter order
    terms = (x1 * x1 + x1 * x2 + x2 + one).sorted_terms()
    rendered = [m.render() for m, _ in terms]
    assert rendered == ["x1^2", "x1*x2", "x2", ""]


def test_term_limit_guard():
    old = get_term_limit()
    set_term_limit(3)
    try:
        with pytest.raises(ResourceLimitError):
            (x1 + one) * (x2 + one)  # four terms
    finally:
        set_term_limit(old)


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

import itertools
import random
from fractions import Fraction

import pytest

from conftest import ball_valuation, brute_force_histories, var
from reference_engine import simplex_grid

from respgames.checker import (QueryContext, _witnesses, car_degree,
                               check_formula, cpr_degree, degree_at,
                               degree_guard, degree_setup, path_sat_prob,
                               reward_value)
from respgames.errors import (DegenerateQueryError, MissingParameterError,
                              UnsupportedQueryError)
from respgames.logic import DegreeKind, parse_formula, parse_path_formula
from respgames.polyarith import Polynomial, RationalFunction
from respgames.trace import Plan, plan_from_model


def sym():
    return QueryContext.symbolic()


def test_path_prob_example_five(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    value = path_sat_prob(ball, "s0", psi)
    assert value == RationalFunction(var(ball, "x1"))


def test_path_prob_tautology(ball):
    psi = parse_path_formula("X true", ball)
    assert path_sat_prob(ball, "s0", psi) == RationalFunction(Polynomial.one())


def test_path_prob_example_six(ball):
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    psi = parse_path_formula("X collision", ball)
    value = path_sat_prob(ball, "s0", psi)
    assert value == RationalFunction((one - x1) * (one - x2))
    # with x1 = x2 = x this is (1 - x)^2
    sub = value.num.substitute({ball.param_table["x2"]: x1})
    assert sub == (one - x1) * (one - x1)


def test_witness_cylinders_disjoint_and_bounded(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    wits, _ = _witnesses(rounds, "start", psi, sym())
    keys = [(w.states, w.actions) for w in wits]
    assert len(set(keys)) == len(keys)
    for a, b in itertools.combinations(wits, 2):
        shorter, longer = sorted((a, b), key=lambda w: len(w.actions))
        is_prefix = (longer.states[:len(shorter.states)] == shorter.states
                     and longer.actions[:len(shorter.actions)]
                     == shorter.actions)
        assert not is_prefix
    rng = random.Random(3)
    for _ in range(20):
        v = ball_valuation(rounds, Fraction(rng.randint(0, 16), 16),
                           Fraction(rng.randint(0, 16), 16))
        total = sum(w.probability.evaluate(v) for w in wits)
        assert 0 <= total <= 1


def test_sat_viol_witnesses_cover_full_depth(rounds):
    # every full-depth history extends exactly one witness prefix
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    sats, viols = _witnesses(rounds, "start", psi, sym())
    prefixes = [(w.states, w.actions) for w in sats + viols]
    full = brute_force_histories(rounds, "start", 2)
    for states, actions, _ in full:
        owners = [p for p in prefixes
                  if states[:len(p[0])] == p[0]
                  and actions[:len(p[1])] == p[1]]
        assert len(owners) == 1


def test_car_example_five(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    res = car_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"), psi)
    assert res.kappa
    assert res.value == RationalFunction(Polynomial.one())
    assert res.numerator_paths == 2 and res.denominator_paths == 2


def test_car_kappa_zero_for_unavoidable(ball):
    psi = parse_path_formula("X true", ball)
    res = car_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"), psi)
    assert not res.kappa and res.value.is_zero


def test_car_zero_numerator(ball):
    # A1 fixed to skip can never force a collision
    psi = parse_path_formula("X collision", ball)
    res = car_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"), psi)
    assert res.kappa
    assert res.numerator_paths == 0 and res.value.is_zero


def test_cpr_example_six(ball):
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    psi = parse_path_formula("X collision", ball)
    res = cpr_degree(ball, "s0", "A1", plan_from_model(ball, "pi_catch"), psi)
    assert res.kappa
    assert res.value.num == x1 * (one - x2)
    assert res.value.den == x1 + x2 - x1 * x2
    assert degree_at(res, ball_valuation(ball, Fraction(1, 2),
                                         Fraction(1, 2))) \
        == (Fraction(1, 3), ())


def test_cpr_kappa_zero_when_plan_violates(ball):
    psi = parse_path_formula("X collision", ball)
    res = cpr_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"), psi)
    assert not res.kappa and res.value.is_zero


def test_example_nine_car_numerators(rounds):
    x1, x2 = var(rounds, "x1"), var(rounds, "x2")
    one = Polynomial.one()
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    den = (x1 * x2 + (one - x1) * (one - x2)) \
        * (one + x1 * (one - x2) + (one - x1) * x2)
    r1 = car_degree(rounds, "start", "A1", plan, psi)
    r2 = car_degree(rounds, "start", "A2", plan, psi)
    assert r1.value.num == (one - x1) * (one - x2) + x1 * (one - x1) * x2 * x2
    assert r2.value.num == x1 * x2 + x1 * (one - x1) * x2 * x2
    assert r1.value.den == den and r2.value.den == den


def test_two_step_outcome_mass_matches_quoted_expansion(rounds):
    # the two-round outcome probability agrees with its known expanded
    # form, compared through the cross-multiplied difference
    x1, x2 = var(rounds, "x1"), var(rounds, "x2")
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    enumerated = path_sat_prob(rounds, "start", psi)
    quoted = (1 + 4 * x1 * x2 ** 2 - 4 * x1 ** 2 * x2 ** 2 - x1 ** 2
              - x2 ** 2 - 2 * x1 * x2 + 4 * x1 ** 2 * x2)
    assert (enumerated - RationalFunction(quoted)).is_zero


def test_degree_range_on_fixtures(ball, rounds):
    rng = random.Random(9)
    cases = [
        (ball, "s0", "pi_skip", "X (dropped | score2)"),
        (ball, "s0", "pi_catch", "X collision"),
        (rounds, "start", "pi_mix", "F<=2 (collision | dropped)"),
    ]
    for m, state, plan_name, text in cases:
        psi = parse_path_formula(text, m)
        plan = plan_from_model(m, plan_name)
        for agent in m.base.agents:
            for kind in (car_degree, cpr_degree):
                res = kind(m, state, agent, plan, psi)
                for _ in range(25):
                    v = ball_valuation(m, Fraction(rng.randint(0, 12), 12),
                                       Fraction(rng.randint(0, 12), 12))
                    value, _ = degree_at(res, v)
                    assert 0 <= value <= 1


def test_degree_plan_shorter_than_horizon_rejected(ball):
    psi = parse_path_formula("F<=2 collision", ball)
    with pytest.raises(UnsupportedQueryError):
        car_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"), psi)


def test_degenerate_denominator_reported():
    # collision is never reachable, yet a violating behaviour exists, so the
    # guard holds while the denominator of CPR is identically zero
    from respgames.model import build_psmas, parse_model
    text = """
agents: A
states: s t
init: s
labels: t { goal }
actions A @ s: l r
actions A @ t: l
trans s (l) -> { t: 1 }
trans s (r) -> { t: 1 }
trans t (l) -> { t: 1 }
"""
    m = build_psmas(parse_model(text))
    psi = parse_path_formula("X goal", m)
    with pytest.raises(DegenerateQueryError):
        cpr_degree(m, "s", "A", Plan("s", (("l",),)), psi)


def test_reward_immediate_satisfaction_is_zero(ball):
    target = parse_formula("collision | dropped", ball)
    value = reward_value(ball, "s0", target, 2, ball.base.rewards["A1"])
    assert not value.is_infinite and value.finite.is_zero


def test_reward_unreachable_is_infinite(ball, relay):
    target = parse_formula("score1", ball)
    value = reward_value(ball, "s0", target, 1, ball.base.rewards["A1"])
    assert value.is_infinite
    fin = parse_formula("finished", relay)
    assert reward_value(relay, "start", fin, 1, relay.base.rewards["R"]) \
        .is_infinite


def test_reward_never_reach_mass_is_infinite_on_rounds(rounds):
    # F<=2 (collision | dropped) from the pre-throw state can miss with
    # positive probability, so the expected reward is infinite
    target = parse_formula("collision | dropped", rounds)
    value = reward_value(rounds, "start", target, 2,
                         rounds.base.rewards["A1"])
    assert value.is_infinite


def test_reward_relay_matches_brute_force(relay):
    h = relay.param_table["x_R_start_hold"]
    target = parse_formula("finished", relay)
    value = reward_value(relay, "start", target, 2, relay.base.rewards["R"])
    expected = 3 * Polynomial.variable(h) + 3
    assert value.finite == RationalFunction(expected)
    # independent check: full-depth enumeration with realized rewards
    r = relay.base.rewards["R"]
    total = Polynomial.zero()
    for states, actions, prob in brute_force_histories(relay, "start", 2):
        reach = next((j for j, s in enumerate(states)
                      if "finished" in relay.base.labels[s]), None)
        assert reach is not None
        accum = sum((r.step_reward(states[j], actions[j])
                     for j in range(reach)), Fraction(0))
        total = total + prob * accum
    assert total == expected


def test_check_prob_trivial_true(ball):
    phi = parse_formula("<A1,A2> P>=1 [ X true ]", ball)
    res = check_formula(ball, "s0", phi, QueryContext.evaluated({}))
    assert res.holds is True


def test_check_prob_witness_search(ball):
    x1, x2 = ball.param_table["x1"], ball.param_table["x2"]
    phi = parse_formula("<A1> P>=3/4 [ X score1 ]", ball)
    res = check_formula(ball, "s0", phi, QueryContext.evaluated(
        {x2: Fraction(1)}))
    assert res.holds is True
    assert res.witness[x1] == 0
    # and an unsatisfiable bound fails with the best point reported
    phi2 = parse_formula("<A1> P>1 [ X score1 ]", ball)
    res2 = check_formula(ball, "s0", phi2, QueryContext.evaluated(
        {x2: Fraction(1)}))
    assert res2.holds is False


def test_check_prob_minimizing_direction(ball):
    # upper bounds drive the search toward small probabilities
    x1, x2 = ball.param_table["x1"], ball.param_table["x2"]
    phi = parse_formula("<A1> P<=1/4 [ X score1 ]", ball)
    res = check_formula(ball, "s0", phi, QueryContext.evaluated(
        {x2: Fraction(1)}))
    assert res.holds is True
    assert (Polynomial.one()
            - Polynomial.variable(x1)).evaluate(res.witness) <= Fraction(1, 4)


def test_check_prob_requires_noncoalition_bindings(ball):
    phi = parse_formula("<A1> P>=3/4 [ X score1 ]", ball)
    with pytest.raises(MissingParameterError):
        check_formula(ball, "s0", phi, QueryContext.evaluated({}))


def test_check_prob_symbolic_region(ball):
    phi = parse_formula("<A1,A2> P>0 [ X collision ]", ball)
    res = check_formula(ball, "s0", phi, QueryContext.symbolic())
    assert res.holds is None
    assert res.region.render() == "x1*x2 - x1 - x2 + 1 > 0"


def test_check_reward_decided(relay):
    phi = parse_formula("<R> R>=3 [ F<=2 finished @ R ]", relay)
    res = check_formula(relay, "start", phi, QueryContext.evaluated({}))
    assert res.holds is True
    phi2 = parse_formula("<R> R<3 [ F<=2 finished @ R ]", relay)
    res2 = check_formula(relay, "start", phi2, QueryContext.evaluated({}))
    assert res2.holds is False  # value is 3 + 3h >= 3 everywhere


def test_check_reward_symbolic_region_with_infinity(rounds):
    phi = parse_formula("<A1,A2> R>=1 [ F<=2 (collision | dropped) @ A1 ]",
                        rounds)
    res = check_formula(rounds, "start", phi, QueryContext.symbolic())
    assert res.holds is None
    assert res.region.render() == "inf >= 1"


def test_unknown_plan_name_raises(ball):
    from respgames.errors import ModelError
    with pytest.raises(ModelError):
        plan_from_model(ball, "nonexistent")


def test_check_degree_formula(ball):
    phi = parse_formula("<A1,A2> D<=1 [ CAR(A1, pi_skip, "
                        "X (dropped | score2)) ]", ball)
    res = check_formula(ball, "s0", phi, QueryContext.symbolic())
    assert res.region is not None
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    res2 = check_formula(ball, "s0", phi, QueryContext.evaluated(v))
    assert res2.holds is True


def test_nested_quantitative_needs_valuation(ball):
    phi = parse_formula("!<A1,A2> P>=1 [ X true ]", ball)
    with pytest.raises(UnsupportedQueryError):
        check_formula(ball, "s0", phi, QueryContext.symbolic())
    res = check_formula(ball, "s0", phi, QueryContext.evaluated({}))
    assert res.holds is False


def test_path_prob_respects_enumeration_limit(ball, monkeypatch):
    from respgames import trace
    from respgames.errors import ResourceLimitError
    psi = parse_path_formula("F<=4 collision", ball)
    monkeypatch.setattr(trace, "MAX_PASS_WORK", 100)
    with pytest.raises(ResourceLimitError, match="term pairs, over the 100"):
        path_sat_prob(ball, "s0", psi)
    # a count-only pass counts expansions against the same cap
    monkeypatch.setattr(trace, "MAX_PASS_WORK", 10)
    short = parse_path_formula("F<=6 collision", ball)
    plan = Plan("s0", plan_from_model(ball, "pi1").steps * 3)
    with pytest.raises(ResourceLimitError, match="expansions, over the 10"):
        degree_guard(ball, "s0",
                     degree_setup(ball, "A1", plan, short, DegreeKind.CAR))


def test_reduced_model_of_rounds(rounds):
    # under F score1 the four states without score1 continue alike, so
    # they form one block; the pass walks two blocks, not five states
    from respgames.checker import _classifier, _Reduced
    x1, x2 = var(rounds, "x1"), var(rounds, "x2")
    one = Polynomial.one()
    psi = parse_path_formula("F<=3 score1", rounds)
    kind, classify, _ = _classifier(rounds, psi, QueryContext.symbolic())

    def reduce(collapse, fixed=None):
        return _Reduced(rounds, "s1", kind, classify, None, collapse, fixed)

    per_joint = reduce(collapse=False)
    assert (per_joint.start, per_joint.kinds) == (0, [None, True])
    assert [[(joint, [(b, n) for b, _, n in entries])
             for joint, _, entries in rows] for rows in per_joint.rows] == [
        [(("catch", "catch"), [(0, 1)]), (("catch", "skip"), [(1, 1)]),
         (("skip", "catch"), [(0, 1)]), (("skip", "skip"), [(0, 1)])], []]
    # summed over the joint actions: one row, three successors merged
    (collapsed,), _ = reduce(collapse=True).rows
    assert collapsed == (None, 0, (
        (0, (one - x1) * (one - x2) + x1 * (one - x2) + x1 * x2, 3),
        (1, (one - x1) * x2, 1)))
    # specialised at x2 = 1/2 before lumping
    half = {rounds.param_table["x2"]: Fraction(1, 2)}
    (specialised,), _ = reduce(collapse=True, fixed=half).rows
    assert specialised[2] == ((0, (one + x1) * Fraction(1, 2), 3),
                              (1, (one - x1) * Fraction(1, 2), 1))
    # X classifies every successor: only the query state has rows, and
    # the other states lump by their verdict alone
    nxt = parse_path_formula("X score1", rounds)
    kind, classify, _ = _classifier(rounds, nxt, QueryContext.symbolic())
    model = _Reduced(rounds, "start", kind, classify, None, True, None)
    assert model.kinds == [False, False, True]
    assert [len(rows) for rows in model.rows] == [1, 0, 0]


def test_pass_work_counts_term_pairs_multiplied(rounds, monkeypatch):
    # the work the pass charges is exactly the term pairs its products
    # multiply, scalar reward products included
    from respgames import checker
    seen, pairs = [], [0]
    real_check, real_mul = checker.check_work, Polynomial.__mul__

    def check(work, unit):
        seen.append((work, unit))
        real_check(work, unit)

    def mul(a, b):
        right = len(b.terms()) if isinstance(b, Polynomial) else 1
        pairs[0] += len(a.terms()) * right
        return real_mul(a, b)

    r = rounds.base.rewards["A1"]
    target = parse_formula("score1", rounds)
    monkeypatch.setattr(checker, "check_work", check)
    monkeypatch.setattr(Polynomial, "__mul__", mul)
    reward_value(rounds, "start", target, 4, r)
    monkeypatch.undo()
    assert pairs[0] > 0
    assert seen[-1] == (pairs[0], "term pairs")


def test_until_with_nontrivial_left_side(ball):
    # score1 U<=2 collision from s2: stay in score1 until the collision
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    psi = parse_path_formula("score1 U<=2 collision", ball)
    value = path_sat_prob(ball, "s2", psi)
    expected = (one - x1) * (one - x2) * (one + (one - x1) * x2)
    assert value == RationalFunction(expected)
    # from s0 neither side holds: the empty prefix already violates
    assert path_sat_prob(ball, "s0", psi).is_zero
    # independent full-depth classification gives the same polynomial
    total = Polynomial.zero()
    labels = ball.base.labels
    for states, actions, prob in brute_force_histories(ball, "s2", 2):
        sat = False
        for j, s in enumerate(states):
            if "collision" in labels[s]:
                sat = True
                break
            if "score1" not in labels[s]:
                break
        if sat:
            total = total + prob
    assert total == expected


def test_cpr_with_singleton_coalition(ball):
    # coalition {A1} leaves nobody to pin: the numerator class is every plan,
    # so the degree collapses to 1 (the guard still holds via the anchor)
    psi = parse_path_formula("X collision", ball)
    plan = plan_from_model(ball, "pi_catch")
    res = cpr_degree(ball, "s0", "A1", plan, psi, coalition={"A1"})
    assert res.kappa
    assert res.value == RationalFunction(Polynomial.one())
    assert res.numerator_paths == res.denominator_paths == 3


def test_car_numerator_witnesses_subset_of_denominator(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    sats, _ = _witnesses(rounds, "start", psi, sym())
    from respgames.trace import compatible_plans
    cls = compatible_plans(rounds, plan, {"A1"})
    numerator = [w for w in sats if cls.contains_action_prefix(w.actions)]
    keys = {(w.states, w.actions) for w in sats}
    assert all((w.states, w.actions) in keys for w in numerator)


def test_monte_carlo_agreement_spot(ball):
    # cheap spot version of the oracle-agreement invariant
    from respgames.oracle import SimConfig, estimate_path_prob
    psi = parse_path_formula("X collision", ball)
    exact = path_sat_prob(ball, "s0", psi)
    v = ball_valuation(ball, Fraction(1, 3), Fraction(1, 4))
    est = estimate_path_prob(ball, SimConfig(40_000, 17, v), psi)
    assert abs(est.mean - float(exact.evaluate(v))) <= 4 * est.stderr


# two scopes: A has three actions (two free parameters), B has two
TWO_SCOPES = """
agents: A B
states: s
init: s
actions A @ s: a b c
actions B @ s: a b
trans s (a, a) -> { s: 1 }
trans s (a, b) -> { s: 1 }
trans s (b, a) -> { s: 1 }
trans s (b, b) -> { s: 1 }
trans s (c, a) -> { s: 1 }
trans s (c, b) -> { s: 1 }
"""


def test_simplex_grid_order_and_cap(monkeypatch):
    from respgames import checker
    from respgames.logic import CompareOp
    from respgames.model import build_psmas, parse_model
    from respgames.polyarith import GridWalk, ParamId
    m = build_psmas(parse_model(TWO_SCOPES))
    scopes = m.scopes()
    free = [m.free_params(scope) for scope in scopes]
    assert [len(params) for params in free] == [2, 1]
    flat = [p for params in free for p in params]
    n = 4
    expected = list(simplex_grid(m, scopes, n))
    assert len(expected) == 15 * 5
    assert [list(p) for p in expected] == [flat] * len(expected)
    # the walk visits the same points in the same order, a row of the last
    # parameter at a time, each with its value over the walk's scale
    x, y, z = (Polynomial.variable(p) for p in flat)
    poly = x * x * 3 - y * z + z * Fraction(1, 2) + 1
    walk = GridWalk(poly, free, n)
    points, values = [], []
    for prefix, row in walk.rows():
        assert len(prefix) == len(flat) - 1
        for i, v in enumerate(row):
            points.append(dict(zip(flat, (Fraction(k, n)
                                          for k in (*prefix, i)))))
            values.append(Fraction(v, walk.scale))
    assert points == expected
    assert values == [poly.evaluate(point) for point in expected]
    # no parameter: one row of one point
    assert list(GridWalk(Polynomial.constant(Fraction(7, 3)), [], n).rows()
                ) == [((), [7])]
    # the cap counts the 15 * 5 points before any walk is built, so it is
    # met before the stray parameter is missed
    ctx = QueryContext.evaluated({}, grid_denominator=n)
    stray = poly + Polynomial.variable(ParamId("Z", None, "z"))
    monkeypatch.setattr(checker, "MAX_GRID_POINTS", 75)
    with pytest.raises(MissingParameterError, match="x_Z_z"):
        checker._exists_search(m, frozenset("AB"), ctx, stray, CompareOp.GE,
                               Fraction(1000))
    monkeypatch.setattr(checker, "MAX_GRID_POINTS", 74)
    with pytest.raises(UnsupportedQueryError,
                       match="grid has 75 points, over the 74 cap"):
        checker._exists_search(m, frozenset("AB"), ctx, stray, CompareOp.GE,
                               Fraction(1000))


def test_search_row_with_infinite_points_before_its_best():
    from respgames import checker
    from respgames.logic import CompareOp
    from respgames.model import build_psmas, parse_model
    m = build_psmas(parse_model(TWO_SCOPES))
    fixed = dict.fromkeys(m.free_params(("A", "s")), Fraction(1, 3))
    (param,) = m.free_params(("B", "s"))
    t = Polynomial.variable(param)
    ctx = QueryContext.evaluated(fixed, grid_denominator=4)
    # one row, t = 0, 1/4, 1/2, 3/4, 1: infinite at 1/4 and 1/2 only
    infinite = 1 - (4 * t - 1) * (4 * t - 2)
    assert [infinite.evaluate({param: Fraction(i, 4)}) > 0
            for i in range(5)] == [False, True, True, False, False]

    def search(value, cmp, bound):
        return checker._exists_search(m, frozenset("B"), ctx, value, cmp,
                                      bound, infinite=infinite)

    def at(i):
        return {**fixed, param: Fraction(i, 4)}

    # >=: the first infinite point wins over the finite ones after it that
    # meet the bound, the finite best t = 1 among them
    result = search(t, CompareOp.GE, Fraction(3, 4))
    assert (result.holds, result.witness) == (True, at(1))
    assert search(t, CompareOp.GE, Fraction(1000)).witness == at(1)
    # the first hit, not the row's extreme
    assert search(t, CompareOp.GE, Fraction(0)).witness == at(0)
    # <=: the infinite points are skipped, t = 1/2 with its (t - 1/2)^2 = 0
    # too, so the first hit is the finite best t = 3/4 after them
    value = (t - Fraction(1, 2)) * (t - Fraction(1, 2))
    result = search(value, CompareOp.LE, Fraction(1, 16))
    assert (result.holds, result.witness) == (True, at(3))
    result = search(value, CompareOp.LE, Fraction(0))
    assert result.holds is False
    assert infinite.evaluate(result.witness) <= 0
    assert value.evaluate(result.witness) < Fraction(1, 16)


def _fraction_scan(m, coalition, ctx, quantity, cmp, bound):
    """The coalition search as it was before the integer grid walk: one
    Fraction valuation per grid point (the reference of
    `test_integer_walk_matches_fraction_scan`)."""
    from respgames.checker import CheckResult, _refine
    from respgames.errors import InadmissibleError
    from respgames.logic import CompareOp
    from respgames.model import AdmissibilityReport, scope_violations
    scopes = [s for s in m.scopes() if s[0] in coalition]
    owned = {p for s in scopes
             for p in (*m.free_params(s), m.table[s].dependent)}
    fixed = {p: v for p, v in ctx.valuation.items() if p not in owned}
    report = AdmissibilityReport.of(
        [v for s in m.scopes() if s[0] not in coalition
         for v in scope_violations(m, s, fixed)])
    if not report.ok:
        raise InadmissibleError(report)
    warnings = tuple(
        f"{p.name} belongs to the coalition: the search ranges over it, "
        f"not its bound value" for p in ctx.valuation if p in owned)

    def test(value):
        if value is None:
            return cmp in (CompareOp.GE, CompareOp.GT)
        return cmp.holds(value, bound)

    best_point = best_value = None
    maximize = cmp in (CompareOp.GE, CompareOp.GT)
    for own in simplex_grid(m, scopes, ctx.grid_denominator):
        point = dict(fixed)
        point.update(own)
        value = quantity(point)
        if test(value):
            return CheckResult(holds=True, witness=point, warnings=warnings)
        if value is None:
            continue
        if best_value is None or (value > best_value if maximize
                                  else value < best_value):
            best_value, best_point = value, point
    if best_point is not None:
        refined = _refine(m, scopes, fixed, best_point, quantity, maximize,
                          Fraction(1, ctx.grid_denominator))
        if test(quantity(refined)):
            return CheckResult(holds=True, witness=refined,
                               warnings=warnings)
        best_point = refined
    return CheckResult(holds=False, witness=best_point, warnings=warnings)


def _outcome(search):
    """(holds, witness, warnings) of a search, or its exception's type and
    message."""
    try:
        result = search()
    except Exception as exc:  # compared across the two searches
        return type(exc), str(exc)
    return result.holds, result.witness, result.warnings


def test_integer_walk_matches_fraction_scan(monkeypatch):
    from respgames import checker
    from respgames.logic import CompareOp
    from respgames.model import build_psmas, parse_model
    from respgames.polyarith import ParamId
    m = build_psmas(parse_model(TWO_SCOPES))
    params = m.params
    rng = random.Random(13)

    def random_poly(vars_, terms):
        poly = Polynomial.zero()
        for _ in range(terms):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            mono = Polynomial.one()
            for p in vars_:
                mono = mono * Polynomial.variable(p) ** rng.randint(0, 3)
            poly = poly + mono * c
        return poly

    def valuation(coalition):
        # admissible values outside the coalition, sometimes a binding of
        # a coalition parameter (searched over, with a warning)
        out = {}
        for scope in m.scopes():
            free = m.free_params(scope)
            if scope[0] in coalition and rng.random() < 0.7:
                continue
            cuts = sorted(Fraction(rng.randint(0, 6), 6) for _ in free)
            out.update(zip(free, (b - a for a, b in zip([0, *cuts], cuts))))
        return out

    def compare(value, cmp, bound, coalition, ctx, infinite=None):
        def quantity(v):
            if infinite is not None and infinite.evaluate(v) > 0:
                return None
            return value.evaluate(v)

        old = _outcome(lambda: _fraction_scan(m, coalition, ctx, quantity,
                                              cmp, bound))
        # the search takes what a pass specialised outside the coalition
        fixed = {p: Polynomial.constant(v) for p, v in
                 checker._outside(m, coalition, ctx.valuation).items()}
        new = _outcome(lambda: checker._exists_search(
            m, coalition, ctx, value.substitute(fixed), cmp, bound,
            infinite=None if infinite is None else infinite.substitute(fixed)))
        if len(old) == 3 and old[0] is False:  # the new search says why
            assert new[2][-1].startswith("this false verdict comes from a "
                                         f"1/{ctx.grid_denominator} grid")
            new = new[:2] + (new[2][:-1],)
        assert new == old, (value, infinite, cmp, bound, coalition)
        return old

    verdicts = set()
    for case in range(160):
        # the empty coalition leaves a grid of one point, no parameter
        coalition = rng.choice([frozenset("A"), frozenset("B"),
                                frozenset("AB"), frozenset()])
        ctx = QueryContext.evaluated(valuation(coalition),
                                     grid_denominator=rng.choice((2, 3, 5)))
        value = random_poly(params, rng.randint(1, 5))
        infinite = None
        if case % 2:  # a reward: infinite where this mass is positive
            infinite = random_poly(params, rng.randint(0, 3))
        cmp = rng.choice(list(CompareOp))
        # a bound some grid point meets or, past every value, none does
        points = list(simplex_grid(m, m.scopes(), 4))
        bound = rng.choice([value.evaluate(rng.choice(points)),
                            Fraction(rng.choice((-1, 1)) * 1000)])
        old = compare(value, cmp, bound, coalition, ctx, infinite)
        verdicts.add(old[0])
    assert verdicts == {True, False}

    # a parameter outside the model, so missing from every point
    stray = Polynomial.variable(ParamId("Z", None, "z"))
    ctx = QueryContext.evaluated({}, grid_denominator=3)
    for extra in (stray, stray * Polynomial.variable(params[0])):
        old = compare(random_poly(params, 3) + extra, CompareOp.GE,
                      Fraction(1000), frozenset("AB"), ctx)
        assert old[0] is MissingParameterError and "x_Z_z" in old[1]
    # B's parameter unbound outside the coalition
    old = compare(random_poly(params, 3), CompareOp.LE, Fraction(0),
                  frozenset("A"), ctx, random_poly(params, 2))
    assert old == (MissingParameterError,
                   "no value assigned to parameter x_B_s_a")
    # the cap: 15 * 5 points at step 1/4, refused before any is scanned
    ctx = QueryContext.evaluated({}, grid_denominator=4)
    monkeypatch.setattr(checker, "MAX_GRID_POINTS", 74)
    with pytest.raises(UnsupportedQueryError,
                       match="grid has 75 points, over the 74 cap"):
        checker._exists_search(m, frozenset("AB"), ctx,
                               random_poly(params, 3), CompareOp.GT,
                               Fraction(1000))

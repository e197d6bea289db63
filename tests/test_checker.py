import itertools
import random
from fractions import Fraction

import pytest

from conftest import ball_valuation, brute_force_histories, var

from respgames.checker import (QueryContext, car_degree, check_formula,
                               cpr_degree, degree_value_at, path_sat_prob,
                               reward_value, sat_witnesses,
                               violation_witnesses)
from respgames.errors import (DegenerateQueryError, MissingParameterError,
                              UnsupportedQueryError)
from respgames.logic import parse_formula, parse_path_formula
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
    wits = sat_witnesses(rounds, "start", psi, sym())
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
    sats = sat_witnesses(rounds, "start", psi, sym())
    viols = violation_witnesses(rounds, "start", psi, sym())
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
    assert degree_value_at(res, ball_valuation(ball, Fraction(1, 2),
                                               Fraction(1, 2))) \
        == Fraction(1, 3)


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
    # the enumerated two-round outcome probability agrees with its known
    # expanded form, compared through the cross-multiplication identity test
    from respgames.polyarith import parse_polynomial, rf_equal_on_box
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    enumerated = path_sat_prob(rounds, "start", psi)
    printed = parse_polynomial(
        "1 + 4*x1*x2^2 - 4*x1^2*x2^2 - x1^2 - x2^2 - 2*x1*x2 + 4*x1^2*x2",
        rounds.param_table)
    assert rf_equal_on_box(enumerated, RationalFunction(printed),
                           samples=8, seed=2)


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
                    value = degree_value_at(res, v)
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


def test_path_prob_respects_enumeration_limit(ball):
    from respgames.errors import ResourceLimitError
    from respgames.trace import (DEFAULT_PATH_LIMIT, get_path_limit,
                                 set_path_limit)
    psi = parse_path_formula("F<=4 collision", ball)
    old = get_path_limit()
    set_path_limit(100)
    try:
        with pytest.raises(ResourceLimitError):
            path_sat_prob(ball, "s0", psi)
    finally:
        set_path_limit(old)


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
    sats = sat_witnesses(rounds, "start", psi, sym())
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
    est = estimate_path_prob(ball, SimConfig(40_000, 17, 1, v), psi)
    assert abs(est.mean - float(exact.evaluate(v))) <= 4 * est.stderr


def test_simplex_grid_order_and_cap(monkeypatch):
    # two scopes: A has three actions (two free parameters), B has two
    from respgames import checker
    from respgames.checker import simplex_grid
    from respgames.model import build_psmas, parse_model
    m = build_psmas(parse_model("""
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
"""))
    scopes = m.scopes()
    free = [m.free_params(scope) for scope in scopes]
    assert [len(params) for params in free] == [2, 1]
    n = 4
    steps = [Fraction(i, n) for i in range(n + 1)]
    per_scope = [[combo for combo in itertools.product(steps,
                                                       repeat=len(params))
                  if sum(combo) <= 1] for params in free]
    flat = [p for params in free for p in params]
    expected = [dict(zip(flat, itertools.chain(*combo)))
                for combo in itertools.product(*per_scope)]
    points = list(simplex_grid(m, scopes, n))
    assert points == expected and len(points) == 15 * 5
    assert [list(p) for p in points] == [flat] * len(points)
    monkeypatch.setattr(checker, "MAX_GRID_POINTS", 75)
    assert len(list(simplex_grid(m, scopes, n))) == 75
    monkeypatch.setattr(checker, "MAX_GRID_POINTS", 74)
    with pytest.raises(UnsupportedQueryError, match="75 points"):
        simplex_grid(m, scopes, n)

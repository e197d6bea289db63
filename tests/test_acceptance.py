"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Expected values marked as derived were computed by the independent oracles in
this file (brute-force enumeration, exhaustive grid search, simulation) and
frozen; quantities with reported reference values elsewhere are checked
against those oracles, not against the reference numbers.
"""

import math
import random
from fractions import Fraction

from conftest import (BALL_VALUATIONS, ball_valuation, brute_force_histories,
                      var)
from reference_engine import grid_best_response

from respgames.checker import (car_degree, cpr_degree, degree_at,
                               path_sat_prob, reward_value)
from respgames.logic import DegreeKind, parse_formula, parse_path_formula
from respgames.model import check_admissible
from respgames.oracle import SimConfig, estimate_degree, estimate_path_prob
from respgames.polyarith import (Monomial, ParamId, Polynomial,
                                 RationalFunction)
from respgames.synth import (NeSystem, ResponsibilitySpec, UtilityConfig,
                             find_equilibria, solve_ne, utility_parts)
from respgames.trace import enumerate_histories, plan_from_model

SEED = 20_424
MC_SAMPLES = 200_000

# Reference values quoted for the horizon-2 payoff setting in earlier hand
# calculations; retained for comparison only, never asserted (the generated
# system is checked against the grid oracle instead).
REFERENCE_MIXED_POINT = {"x1": (math.sqrt(17) - 1) / 4, "x2": 2 / 3}


def record(criterion: int, description: str, passed: bool) -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:02d} {marker}: {description}")
    assert passed, f"criterion {criterion}: {description}"


def test_criterion_01_car_degree_is_one(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    result = car_degree(ball, "s0", "A1", plan_from_model(ball, "pi_skip"),
                        psi)
    ok = (result.value == RationalFunction(Polynomial.one())
          and result.kappa)
    record(1, "active-responsibility degree of the skip plan is exactly 1",
           ok)


def test_criterion_02_path_probability_is_x1(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    value = path_sat_prob(ball, "s0", psi)
    expected = RationalFunction(var(ball, "x1"))
    record(2, "one-step outcome probability canonicalizes to the single "
              "parameter x1", value == expected)


def test_criterion_03_cpr_numerator_and_monte_carlo(ball):
    x1 = ball.param_table["x1"]
    x2 = ball.param_table["x2"]
    X1, one = var(ball, "x1"), Polynomial.one()
    psi = parse_path_formula("X collision", ball)
    plan = plan_from_model(ball, "pi_catch")
    result = cpr_degree(ball, "s0", "A1", plan, psi)
    sym_num = result.value.num.substitute({x2: X1})
    sym_den = result.value.den.substitute({x2: X1})
    half = {x1: Fraction(1, 2), x2: Fraction(1, 2)}
    exact, _ = degree_at(result, half)
    est = estimate_degree(ball, SimConfig(MC_SAMPLES, SEED, half),
                          "A1", plan, psi, DegreeKind.CPR)
    ok = (sym_num == X1 * (one - X1)
          and sym_den == 2 * X1 - X1 * X1
          and exact == Fraction(1, 3)
          and abs(est.mean - float(exact)) <= 4 * est.stderr)
    record(3, "passive-responsibility numerator is x(1-x), value 1/3 at "
              "x = 1/2, simulation agrees within 4 stderr", ok)


def test_criterion_04_partition_of_unity(ball, rounds, relay):
    ok = True
    for m in (ball, rounds, relay):
        for start in m.base.states:
            for depth in (1, 2, 3):
                total = Polynomial.zero()
                for h in enumerate_histories(m, start, depth):
                    total = total + h.probability
                ok = ok and total == Polynomial.one()
    record(4, "history probabilities sum to the constant 1 at depths 1-3 "
              "from every state of the fixture models", ok)


def test_criterion_05_ring_property_suite():
    a1 = ParamId("A1", None, "skip", label="x1")
    a2 = ParamId("A2", None, "skip", label="x2")
    a3 = ParamId("A3", None, "skip", label="x3")
    params = (a1, a2, a3)
    rng = random.Random(SEED)

    def rand_poly():
        out = Polynomial.zero()
        for _ in range(rng.randint(0, 4)):
            powers = {}
            budget = 4
            for p in params:
                e = rng.randint(0, min(2, budget))
                budget -= e
                if e:
                    powers[p] = e
            out = out + Polynomial({Monomial.make(powers):
                                    Fraction(rng.randint(-10, 10))})
        return out

    def rand_point():
        return {p: Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for p in params}

    cases = 1000
    ok = True
    for _ in range(cases):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        v = rand_point()
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a + b == b + a and a * b == b * a
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)
        ok = ok and (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        bindings = {a1: b, a2: c}
        composed = {a1: b.evaluate(v), a2: c.evaluate(v), a3: v[a3]}
        ok = ok and a.substitute(bindings).evaluate(v) \
            == a.evaluate(composed)
        if not ok:
            break
    record(5, f"{cases} randomized cases per ring/evaluation/substitution "
              f"law hold exactly", ok)


def test_criterion_06_oracle_agreement(ball, rounds):
    cases = [
        (ball, ("X (dropped | score2)", "X collision")),
        (rounds, ("F<=2 (collision | dropped)", "X score1")),
    ]
    ok = True
    for m, formulas in cases:
        for vx1, vx2 in BALL_VALUATIONS:
            v = ball_valuation(m, vx1, vx2)
            for text in formulas:
                psi = parse_path_formula(text, m)
                exact = float(path_sat_prob(
                    m, m.base.initial, psi).evaluate(v))
                est = estimate_path_prob(
                    m, SimConfig(MC_SAMPLES, SEED, v), psi)
                ok = ok and abs(est.mean - exact) <= 4 * max(
                    est.stderr, 1e-12)
    record(6, "simulated frequencies match exact probabilities within "
              "4 stderr (2 fixtures x 3 valuations x 2 formulas, N=200000)",
           ok)


def test_criterion_07_payoff_equilibrium(ball):
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sols = find_equilibria(ball, 2, cfg, seeds=12, seed=SEED % 97)
    ok = bool(sols)
    grid = Fraction(1, 1000)
    for sol in sols:
        ok = ok and sol.residual <= 1e-9 and sol.epsilon <= 1e-6
        for agent in ball.base.agents:
            own = [p for s in ball.agent_scopes(agent)
                   for p in ball.free_params(s)]
            others = {p: v for p, v in sol.valuation.items()
                      if p not in own}
            parts = utility_parts(ball, agent, cfg, 2)
            br = grid_best_response(ball, parts, others, resolution=grid)
            near = any(all(abs(point[p] - sol.valuation[p]) <= grid
                           for p in own) for point in br.maximizers)
            gap = float(br.utility - parts.evaluate(sol.valuation))
            ok = ok and near and gap <= 1e-6
    record(7, "payoff-only synthesis returns a verified equilibrium "
              "(residual <= 1e-9, grid-oracle gap <= 1e-6 at 1/1000)", ok)


def test_criterion_08_pure_equilibrium_recovery(rounds):
    x1, x2 = rounds.param_table["x1"], rounds.param_table["x2"]
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    spec = ResponsibilitySpec(plan_from_model(rounds, "pi_mix"), psi)
    cfg = UtilityConfig(Fraction(0), Fraction(1), Fraction(0))
    sols = find_equilibria(rounds, 2, cfg, spec, seeds=12, seed=SEED % 97)
    target = next((s for s in sols
                   if s.valuation[x1] == 0 and s.valuation[x2] == 1), None)
    ok = target is not None and target.epsilon <= 1e-6
    if ok:
        grid = Fraction(1, 1000)
        for agent, own_id in (("A1", x1), ("A2", x2)):
            others = {p: v for p, v in target.valuation.items()
                      if p is not own_id}
            parts = utility_parts(rounds, agent, cfg, 2, spec)
            br = grid_best_response(rounds, parts, others, resolution=grid)
            near = any(abs(point[own_id] - target.valuation[own_id]) <= grid
                       for point in br.maximizers)
            gap = float(br.utility - parts.evaluate(target.valuation))
            ok = ok and near and gap <= 1e-6
    record(8, "responsibility-minimizing synthesis recovers the pure "
              "profile (A1 catches, A2 skips) with grid-oracle gap <= 1e-6",
           ok)


def test_criterion_09_root_reproduction():
    x = ParamId("solo", None, "x", label="x")
    xx = Polynomial.variable(x)
    system = NeSystem(variables=(x,), equations=(2 * xx * xx + xx - 2,),
                      support={})
    sols = solve_ne(system, seeds=8, seed=0)
    root = (math.sqrt(17) - 1) / 4
    ok = (len(sols) == 1
          and abs(float(sols[0].valuation[x]) - root) <= 1e-9)
    record(9, "standalone system 2x^2 + x - 2 = 0 solves to "
              "(sqrt(17) - 1)/4 within 1e-9", ok)


def test_criterion_10_kappa_guards(ball):
    plan = plan_from_model(ball, "pi_skip")
    tautology = parse_path_formula("X true", ball)
    car = car_degree(ball, "s0", "A1", plan, tautology)
    # the skip plan's only history lands in `dropped`, violating X collision
    collide = parse_path_formula("X collision", ball)
    cpr = cpr_degree(ball, "s0", "A1", plan, collide)
    ok = (not car.kappa and car.value.is_zero
          and not cpr.kappa and cpr.value.is_zero)
    record(10, "unavoidable outcomes give CAR = 0 and unachievable "
               "outcomes give CPR = 0, with the guard flag down", ok)


def test_criterion_11_admissibility(ball):
    x1, x2 = ball.param_table["x1"], ball.param_table["x2"]
    bad2 = check_admissible(ball, {x1: Fraction(6, 5), x2: Fraction(1, 2)})
    cond2 = (not bad2.ok
             and any(c == 2 and where == "x1"
                     for c, where, _ in bad2.violations))
    dep = next(d for d in ball.dependent_params if d.agent == "A1")
    bad3 = check_admissible(ball, {x1: Fraction(1, 2), x2: Fraction(1, 2),
                                   dep: Fraction(1, 3)})
    cond3 = (not bad3.ok
             and any(c == 3 for c, _, _ in bad3.violations))
    vertices = all(
        check_admissible(ball, {x1: Fraction(a), x2: Fraction(b)}).ok
        for a in (0, 1) for b in (0, 1))
    record(11, "admissibility rejects out-of-range and non-simplex "
               "assignments and accepts every vertex", cond2 and cond3
           and vertices)


def test_criterion_12_reward_infinity_flip(relay):
    target = parse_formula("finished", relay)
    r = relay.base.rewards["R"]
    at_one = reward_value(relay, "start", target, 1, r)
    at_two = reward_value(relay, "start", target, 2, r)
    h = relay.param_table["x_R_start_hold"]
    expected = 3 * Polynomial.variable(h) + 3
    # independent brute force: full-depth enumeration with realized rewards
    brute = Polynomial.zero()
    for states, actions, prob in brute_force_histories(relay, "start", 2):
        reach = next(j for j, s in enumerate(states)
                     if "finished" in relay.base.labels[s])
        accum = sum((r.step_reward(states[j], actions[j])
                     for j in range(reach)), Fraction(0))
        brute = brute + prob * accum
    ok = (at_one.is_infinite
          and not at_two.is_infinite
          and at_two.finite == RationalFunction(expected)
          and brute == expected)
    record(12, "bounded reward is infinite while the target can be missed "
               "and matches brute-force enumeration exactly once reaching "
               "is certain", ok)

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_valuation, brute_force_histories, var
from reference_engine import PerPolynomialFloats, verify_ne_by_valuation

from respgames.errors import NoSolutionError, UnsupportedQueryError
from respgames.checker import car_degree
from respgames.logic import parse_path_formula
from respgames.model import build_psmas, parse_model
from respgames.polyarith import (Monomial, ParamId, Polynomial,
                                 RationalFunction)
from respgames.synth import (NeSystem, ResponsibilitySpec, UtilityConfig,
                             _max_abs, build_ne_system, find_equilibria,
                             payoff_valuation, solve_ne, utility_parts,
                             verify_ne)
from respgames.trace import plan_from_model

ROOT17 = (math.sqrt(17) - 1) / 4


def _parts(m, cfg, horizon, spec=None):
    """Every agent's utility, as find_equilibria builds them."""
    return tuple(utility_parts(m, agent, cfg, horizon, spec)
                 for agent in m.base.agents)


def _full_support(m):
    return {scope: m.scope_actions(scope) for scope in m.scopes()}


COIN = """
agents: M
states: s
init: s
labels: s { spin }
actions M @ s: a b
trans s (a) -> { s: 1 }
trans s (b) -> { s: 1 }
reward M action a: 1
reward M action b: 1
"""


def test_payoff_valuation_of_an_agent_without_rewards():
    # the model gives M the zero reward structure
    silent = "\n".join(line for line in COIN.splitlines()
                       if not line.startswith("reward"))
    m = build_psmas(parse_model(silent))
    assert payoff_valuation(m, 3, "M") == Polynomial.zero()
    assert not payoff_valuation(build_psmas(parse_model(COIN)), 3, "M").is_zero


def test_payoff_valuation_mixed_horizon_two(ball):
    # pinned by brute force below: 16 - 8*x1 for A1 and 8 + 8*x2 for A2
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    a1 = payoff_valuation(ball, 2, "A1")
    a2 = payoff_valuation(ball, 2, "A2")
    assert a1 == 16 - 8 * x1
    assert a2 == 8 + 8 * x2
    for agent, expected in (("A1", a1), ("A2", a2)):
        r = ball.base.rewards[agent]
        total = Polynomial.zero()
        for states, actions, _ in brute_force_histories(ball, "s0", 2):
            for j, joint in enumerate(actions):
                step = Polynomial.one()
                for ag, act in zip(ball.base.agents, joint):
                    step = step * ball.action_probability(ag, states[j], act)
                total = total + step * r.step_reward(states[j], joint)
        assert total == expected


def _resp_valuation(m, state, plan, psi, theta):
    """CAR + theta * CPR of A1, read off a responsibility-only utility."""
    cfg = UtilityConfig(Fraction(0), Fraction(1), theta)
    parts = utility_parts(m, "A1", cfg, len(plan),
                          ResponsibilitySpec(plan, psi), state)
    return -parts.symbolic()


def test_resp_valuation_theta_zero_is_car(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    value = _resp_valuation(rounds, "start", plan, psi, Fraction(0))
    assert value == car_degree(rounds, "start", "A1", plan, psi).value


def test_resp_valuation_example_five_is_one(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    plan = plan_from_model(ball, "pi_skip")
    value = _resp_valuation(ball, "s0", plan, psi, Fraction(0))
    assert value == RationalFunction(Polynomial.one())


def test_utility_weight_collapse(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    spec = ResponsibilitySpec(plan, psi)
    u = utility_parts(rounds, "A1",
                      UtilityConfig(Fraction(0), Fraction(1), Fraction(0)), 2,
                      spec, "start").symbolic()
    car = car_degree(rounds, "start", "A1", plan, psi).value
    assert u == RationalFunction(Polynomial.zero()) - car


def test_utility_linearity_in_lambda1(ball):
    cfgs = [UtilityConfig(Fraction(w), Fraction(0)) for w in (1, 2, 3)]
    u1, u2, u3 = (utility_parts(ball, "A1", cfg, 2, state="s0").symbolic()
                  for cfg in cfgs)
    assert u1 + u2 == u3


def test_build_ne_system_two_variables(ball):
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sys = build_ne_system(ball, _parts(ball, cfg, 2), _full_support(ball))
    assert len(sys.variables) == 2
    assert {p.name for p in sys.variables} == {"x1", "x2"}
    # utilities are linear with constant difference, so the full-support
    # equations are nonzero constants (no interior equilibrium)
    assert all(eq.is_constant and not eq.is_zero for eq in sys.equations)


def test_build_ne_system_single_support_has_no_equations(ball):
    support = {("A1", None): ("catch",), ("A2", None): ("skip",)}
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sys = build_ne_system(ball, _parts(ball, cfg, 2), support)
    assert sys.equations == () and sys.variables == ()
    assert sys.pinned[ball.param_table["x1"]] == 0
    assert sys.pinned[ball.param_table["x2"]] == 1


THREE = """
agents: Z
states: s sa sb sc
init: s
labels: sa { hit }
actions Z @ s: a b c
actions Z @ sa: stop
actions Z @ sb: stop
actions Z @ sc: stop
trans s (a) -> { sa: 1 }
trans s (b) -> { sb: 1 }
trans s (c) -> { sc: 1 }
trans sa (stop) -> { sa: 1 }
trans sb (stop) -> { sb: 1 }
trans sc (stop) -> { sc: 1 }
reward Z action a: 1
reward Z action b: 1
"""


def test_build_ne_system_simplex_residual_for_excluded_dependent():
    # three actions with the dependent one (c) excluded from the support:
    # the remaining free parameters must sum to one
    m = build_psmas(parse_model(THREE))
    xa = m.free_param("Z", "s", "a")
    xb = m.free_param("Z", "s", "b")
    support = dict.fromkeys(m.scopes())
    for scope in m.scopes():
        support[scope] = ("a", "b") if scope == ("Z", "s") else ("stop",)
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sys = build_ne_system(m, _parts(m, cfg, 1), support)
    residual = Polynomial.one() - Polynomial.variable(xa) \
        - Polynomial.variable(xb)
    assert residual in sys.equations
    sols = solve_ne(sys, seeds=6, seed=0)
    for sol in sols:
        assert abs(float(sol.valuation[xa] + sol.valuation[xb]) - 1) <= 1e-9


def test_constant_utility_makes_every_point_indifferent():
    m = build_psmas(parse_model(COIN))
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sys = build_ne_system(m, _parts(m, cfg, 1), _full_support(m))
    assert all(eq.is_zero for eq in sys.equations)
    sols = find_equilibria(m, 1, UtilityConfig(Fraction(1), Fraction(0)),
                           seeds=6)
    assert sols  # many equilibria; all verified
    for sol in sols:
        assert sol.epsilon <= 1e-6
    # mixture invariance: utility is unchanged across the support
    parts = utility_parts(m, "M", UtilityConfig(Fraction(1), Fraction(0)), 1)
    p = m.params[0]
    base = parts.evaluate(sols[0].valuation)
    for mix in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert parts.evaluate({p: mix}) == base


def test_solve_ne_root_reproduction():
    x = ParamId("solo", None, "x", label="x")
    xx = Polynomial.variable(x)
    sys = NeSystem(variables=(x,),
                   equations=(2 * xx * xx + xx - 2,), support={})
    sols = solve_ne(sys, seeds=8, seed=0)
    assert len(sols) == 1
    assert abs(float(sols[0].valuation[x]) - ROOT17) < 1e-9
    assert sols[0].residual <= 1e-9


def test_solve_ne_linear():
    x = ParamId("solo", None, "x", label="x")
    xx = Polynomial.variable(x)
    sys = NeSystem(variables=(x,), equations=(xx - 1,), support={})
    sols = solve_ne(sys, seeds=4, seed=0)
    assert len(sols) == 1 and sols[0].valuation[x] == 1


def test_solve_ne_variable_limit():
    params = tuple(ParamId("A", None, f"a{i}", label=f"v{i}")
                   for i in range(7))
    sys = NeSystem(variables=params,
                   equations=(Polynomial.variable(params[0]) - 1,),
                   support={})
    with pytest.raises(UnsupportedQueryError):
        solve_ne(sys, seeds=2, seed=0)


def test_find_equilibria_support_combination_limit():
    # without parameter sharing the ball game has eight agent-state scopes,
    # whose 3^8 support combinations exceed the default cap
    from conftest import MODELS
    text = (MODELS / "ball.game").read_text()
    text = text.replace("params: shared\n", "") \
               .replace("param x1: A1 skip\n", "") \
               .replace("param x2: A2 skip\n", "")
    m = build_psmas(parse_model(text))
    assert len(m.params) == 8
    with pytest.raises(UnsupportedQueryError):
        find_equilibria(m, 1, UtilityConfig(Fraction(1), Fraction(0)),
                        seeds=2)


def test_solve_ne_infeasible_raises():
    x = ParamId("solo", None, "x", label="x")
    sys = NeSystem(variables=(x,),
                   equations=(Polynomial.constant(8),), support={})
    with pytest.raises(NoSolutionError):
        solve_ne(sys, seeds=4, seed=0)


def test_solve_ne_skips_newton_on_a_nonzero_constant(ball, monkeypatch):
    # on ball at horizon 3, A2's payoffs from its two actions differ by 48
    # whatever it mixes: its indifference equation is the constant -48, so
    # no start can bring the residual below _NEWTON_TOL; Newton is not run
    from respgames import synth
    calls = [0]
    real = synth._newton

    def newton(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(synth, "_newton", newton)
    parts = _parts(ball, UtilityConfig(Fraction(1), Fraction(0)), 3)
    sys = build_ne_system(ball, parts, {("A1", None): ("catch",),
                                        ("A2", None): ("catch", "skip")})
    assert [eq.render() for eq in sys.equations] == ["-48"]
    with pytest.raises(NoSolutionError) as err:
        solve_ne(sys, seeds=24, seed=0)
    assert err.value.best_residual == math.inf
    assert calls[0] == 0
    # a constant below the tolerance does not stop Newton
    x = ParamId("solo", None, "x", label="x")
    small = NeSystem(variables=(x,), equations=(
        Polynomial.variable(x) - Fraction(1, 2),
        Polynomial.constant(Fraction(1, 10 ** 14))), support={})
    assert len(solve_ne(small, seeds=4, seed=0, residual_tol=1e-9)) == 1
    assert calls[0] == 4


def test_solve_ne_deterministic():
    x = ParamId("solo", None, "x", label="x")
    xx = Polynomial.variable(x)
    sys = NeSystem(variables=(x,), equations=(2 * xx * xx + xx - 2,),
                   support={})
    a = solve_ne(sys, seeds=8, seed=3)
    b = solve_ne(sys, seeds=8, seed=3)
    assert [s.valuation for s in a] == [s.valuation for s in b]


def test_solve_ne_overflowing_residual():
    # 2**1023 * (x + y + z + w) overflows to inf where the sum passes 2, as
    # it does at some starts, whose Newton steps are then not finite; at
    # the others the first row's scale swamps the rest, and Newton stalls
    params = [ParamId("M", None, a, label=a) for a in "xyzw"]
    x, y, z, w = map(Polynomial.variable, params)
    big = (x + y + z + w) * 2 ** 1023
    assert big.evaluate_float(dict.fromkeys(params, 0.5)) == math.inf
    sys = NeSystem(variables=tuple(params),
                   equations=(big, x - y, y - z, z - w), support={})
    for seed in range(3):
        with pytest.raises(NoSolutionError) as err:
            solve_ne(sys, seeds=24, seed=seed)
        assert err.value.best_residual == math.inf


def test_newton_keeps_non_finite_values_from_lapack(capfd):
    # 7e307 * y * (1 + x + x^2) overflows at some iterates; handed to
    # lstsq, such a residual or Jacobian made LAPACK print "DLASCL"
    # complaints on standard output, 114 lines over these six seeds
    x, y = (ParamId("solo", None, n, label=n) for n in "xy")
    xx, yy = Polynomial.variable(x), Polynomial.variable(y)
    sys = NeSystem(variables=(x, y),
                   equations=(xx - Fraction(1, 2) + Fraction(7e307) * yy
                              * (1 + xx + xx * xx), yy - 2 * yy * yy),
                   support={})
    for seed in range(6):
        with pytest.raises(NoSolutionError):
            solve_ne(sys, seeds=24, seed=seed)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


def test_newton_norm_propagates_nan():
    # the damping loop's norm is np.max(np.abs(v)) on Python floats
    nan, inf = math.nan, math.inf
    for values in ([0.5, -2.0, 1.0], [-0.0], [inf, nan, 1.0], [1.0, nan],
                   [-inf, 3.0], [nan]):
        want = float(np.max(np.abs(values)))
        got = _max_abs(values)
        assert repr(got) == repr(want)


NEWTON_PARAMS = tuple(ParamId("M", None, a, label=a) for a in "xyz")


@st.composite
def newton_systems(draw):
    """A system of 1-3 equations of degree at most 3 in 1-3 variables,
    with small rational coefficients, and a Newton seed.  Most equations
    are shifted to vanish at one rational point of the box, so Newton
    moves its starts onto a root."""
    params = NEWTON_PARAMS[:draw(st.integers(1, 3))]
    monomials = [exps for exps in itertools.product(range(4),
                                                     repeat=len(params))
                 if sum(exps) <= 3]
    root = {p: Fraction(draw(st.integers(1, 19)), 20) for p in params}
    term = st.tuples(st.sampled_from(monomials),
                     st.builds(Fraction, st.integers(-9, 9).filter(bool),
                               st.integers(1, 7)))
    equations = []
    for _ in range(draw(st.integers(1, len(params)))):
        eq = sum((Polynomial({Monomial.make(dict(zip(params, exps))): c})
                  for exps, c in draw(st.lists(term, min_size=1,
                                               max_size=6))),
                 Polynomial.zero())
        if draw(st.integers(0, 3)):
            eq = eq - eq.evaluate(root)
        equations.append(eq)
    sys = NeSystem(variables=params, equations=tuple(equations), support={})
    return sys, draw(st.integers(0, 200))


def _solved(sys, seed):
    """The solutions with exact valuations and residual bits, or the
    best residual of NoSolutionError."""
    try:
        return [(sol.valuation, repr(sol.residual))
                for sol in solve_ne(sys, seeds=6, seed=seed)]
    except NoSolutionError as err:
        return repr(err.best_residual)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(newton_systems())
def test_compiled_newton_system_matches_per_polynomial_floats(case):
    # Newton's f and J from compiled rows sharing one power table per
    # point give the floats of evaluating every polynomial on its own, so
    # every iterate, and with it every answer, is the same to the bit
    import respgames.synth as synth
    sys, seed = case
    got = _solved(sys, seed)
    with mock.patch.object(synth, "FloatSystem", PerPolynomialFloats):
        assert got == _solved(sys, seed)


def test_payoff_equilibrium(ball):
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sols = find_equilibria(ball, 2, cfg, seeds=8)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.valuation[ball.param_table["x1"]] == 0
    assert sol.valuation[ball.param_table["x2"]] == 1
    assert sol.residual <= 1e-9 and sol.epsilon <= 1e-6


def test_find_equilibria_builds_utilities_once(ball, monkeypatch):
    # one utility per agent, shared by every support's system and verifier
    import respgames.synth as synth
    calls = []
    original = synth.utility_parts

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(synth, "utility_parts", counted)
    find_equilibria(ball, 2, UtilityConfig(Fraction(1), Fraction(0)),
                    seeds=4)
    assert sorted(calls) == ["A1", "A2"]


def test_find_equilibria_builds_symbolic_utilities_once(rounds,
                                                       monkeypatch):
    # one rational function per agent, shared by every support's system
    import respgames.synth as synth
    calls = []
    original = synth.UtilityParts._build_symbolic

    def counted(self):
        calls.append(self.agent)
        return original(self)

    monkeypatch.setattr(synth.UtilityParts, "_build_symbolic", counted)
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    spec = ResponsibilitySpec(plan_from_model(rounds, "pi_mix"), psi)
    find_equilibria(rounds, 2, UtilityConfig(Fraction(1), Fraction(1)),
                    spec, seeds=2)
    assert sorted(calls) == ["A1", "A2"]


def test_responsibility_equilibrium_recovers_pure_profile(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    cfg = UtilityConfig(Fraction(0), Fraction(1), Fraction(0))
    sols = find_equilibria(rounds, 2, cfg, ResponsibilitySpec(plan, psi),
                           seeds=8)
    x1, x2 = rounds.param_table["x1"], rounds.param_table["x2"]
    profiles = {(s.valuation[x1], s.valuation[x2]) for s in sols}
    assert (Fraction(0), Fraction(1)) in profiles
    for sol in sols:
        assert sol.epsilon <= 1e-6


def test_solutions_pairwise_separated(rounds):
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    cfg = UtilityConfig(Fraction(0), Fraction(1), Fraction(0))
    sols = find_equilibria(rounds, 2, cfg, ResponsibilitySpec(plan, psi),
                           seeds=8)
    for i, a in enumerate(sols):
        for b in sols[i + 1:]:
            gap = max(abs(float(a.valuation[p]) - float(b.valuation[p]))
                      for p in rounds.params)
            assert gap >= 1e-6


def test_verify_ne_flags_perturbed_candidate(ball):
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    good = ball_valuation(ball, Fraction(0), Fraction(1))
    parts = _parts(ball, cfg, 2)
    ok, gap = verify_ne(ball, parts, good)
    assert ok and gap == 0
    bad = ball_valuation(ball, Fraction(1, 10), Fraction(1))
    ok2, gap2 = verify_ne(ball, parts, bad)
    # A1 regains 8 * 0.1 by deviating back to pure catch
    assert not ok2 and gap2 > 1e-3


def test_verify_ne_stops_at_first_gain_over_epsilon(ball):
    # horizon-2 payoffs are 16 - 8*x1 for A1 and 8 + 8*x2 for A2: at
    # x1 = 1/4, x2 = 1/2 A1 gains 2 by catching and A2 gains 4 by skipping
    parts = _parts(ball, UtilityConfig(Fraction(1), Fraction(0)), 2)
    point = ball_valuation(ball, Fraction(1, 4), Fraction(1, 2))
    # both beat epsilon: A1's deviation comes first and ends the check
    assert verify_ne(ball, parts, point) == (False, 2.0)
    # below epsilon every deviation is tried and the largest gain reported
    assert verify_ne(ball, parts, point, epsilon=5) == (True, 4.0)


def test_verify_ne_matches_deviations_at_copied_valuations(ball, rounds,
                                                          monkeypatch):
    # at every candidate the verifier sees in the two ne-synth queries
    # (payoff-only on ball at horizon 3, weighted on ball_rounds at horizon
    # 2) and in the weighted query at two more weight sets, the
    # vertex-substituted parts, read as unreduced integer ratios, give
    # exactly the (ok, gap) of evaluating each deviation at a copy of the
    # candidate
    import respgames.synth as synth
    verdicts = []
    original = synth.verify_ne

    def compared(m, parts, candidate, epsilon=1e-6):
        got = original(m, parts, candidate, epsilon)
        assert got == verify_ne_by_valuation(m, parts, candidate, epsilon)
        verdicts.append(got[0])
        return got

    monkeypatch.setattr(synth, "verify_ne", compared)
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    spec = ResponsibilitySpec(plan_from_model(rounds, "pi_mix"), psi)
    one, half = Fraction(1), Fraction(1, 2)
    queries = [(ball, 3, UtilityConfig(one, Fraction(0)), None),
               (rounds, 2, UtilityConfig(one, one, one), spec),
               (rounds, 2, UtilityConfig(half, Fraction(2), half), spec),
               (rounds, 2, UtilityConfig(Fraction(0), one, one), spec)]
    for m, horizon, cfg, resp in queries:
        for seed in (0, 17):
            find_equilibria(m, horizon, cfg, resp, seed=seed)
    assert len(verdicts) > 500
    assert verdicts.count(True) and verdicts.count(False)
    # at the origin CPR's denominator mass is 0 for both agents, so each
    # CPR counts 0 by the zero-mass convention
    parts = _parts(rounds, UtilityConfig(one, one, one), 2, spec)
    origin = ball_valuation(rounds, Fraction(0), Fraction(0))
    assert all(u.cpr.value.den.evaluate(origin) == 0 for u in parts)
    for epsilon in (1e-6, 10.0):
        assert (original(rounds, parts, origin, epsilon)
                == verify_ne_by_valuation(rounds, parts, origin, epsilon))


def test_finish_residuals_match_exact_evaluation(rounds, monkeypatch):
    # each candidate's residual, read from integer ratios that share one
    # table per candidate, is the float of the exact value's magnitude
    import respgames.synth as synth
    calls = []
    original = synth._finish

    def recorded(sys, candidates, equations, residual_tol, verifier):
        calls.append((sys, list(candidates), equations))
        return original(sys, candidates, equations, residual_tol, verifier)

    monkeypatch.setattr(synth, "_finish", recorded)
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    spec = ResponsibilitySpec(plan_from_model(rounds, "pi_mix"), psi)
    one = Fraction(1)
    find_equilibria(rounds, 2, UtilityConfig(one, one, one), spec)
    checked = 0
    for sys, candidates, equations in calls:
        for cand in candidates:
            want = 0.0
            for eq in equations:
                want = max(want, abs(float(eq.evaluate(cand))))
            [sol] = original(sys, [cand], equations, math.inf, None)
            assert repr(sol.residual) == repr(want)
            if equations:
                checked += 1
    assert checked > 20


def test_supported_actions_share_equal_utility(ball):
    # at a verified solution every supported action yields equal utility
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sols = find_equilibria(ball, 2, cfg, seeds=8)
    parts = {agent: utility_parts(ball, agent, cfg, 2)
             for agent in ball.base.agents}
    for sol in sols:
        for scope, actions in sol.support.items():
            agent = scope[0]
            values = []
            for action in actions:
                point = dict(sol.valuation)
                point.update(ball.vertex_valuation(scope, action))
                values.append(parts[agent].evaluate(point))
            assert max(values) - min(values) <= Fraction(2) * Fraction(
                sol.residual).limit_denominator(10 ** 12) + 0


def test_forced_profile_has_zero_gap(relay):
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    h = relay.param_table["x_R_start_hold"]
    # horizon-2 utility is 11 - 2h: passing immediately is the best response
    value = payoff_valuation(relay, 2, "R")
    assert value == 11 - 2 * Polynomial.variable(h)
    parts = _parts(relay, cfg, 2)
    ok, gap = verify_ne(relay, parts, {h: Fraction(0)})
    assert ok and gap == 0
    ok2, gap2 = verify_ne(relay, parts, {h: Fraction(1)})
    assert not ok2 and gap2 == 2


def test_per_state_equilibrium_on_relay(relay):
    # per-state parameters: only the start scope has a real choice, and the
    # utility 11 - 2h makes passing immediately the unique equilibrium
    h = relay.param_table["x_R_start_hold"]
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sols = find_equilibria(relay, 2, cfg, seeds=6)
    assert len(sols) == 1
    assert sols[0].valuation[h] == 0
    assert sols[0].support[("R", "start")] == ("pass",)


def test_missing_resp_spec_rejected(rounds):
    with pytest.raises(UnsupportedQueryError):
        utility_parts(rounds, "A1",
                      UtilityConfig(Fraction(0), Fraction(1)), 2, None)


FORCED = """
agents: S
states: s
init: s
labels: s { spin }
actions S @ s: go
trans s (go) -> { s: 1 }
reward S action go: 1
"""

TRIO = """
agents: P Q R
states: s win lose
init: s
labels: win { won } lose { lost }
actions P @ s: work rest
actions Q @ s: work rest
actions R @ s: work rest
actions P @ win: idle
actions Q @ win: idle
actions R @ win: idle
actions P @ lose: idle
actions Q @ lose: idle
actions R @ lose: idle
trans s (work, work, work) -> { win: 1 }
trans s (work, work, rest) -> { lose: 1 }
trans s (work, rest, work) -> { lose: 1 }
trans s (rest, work, work) -> { lose: 1 }
trans s (work, rest, rest) -> { lose: 1 }
trans s (rest, work, rest) -> { lose: 1 }
trans s (rest, rest, work) -> { lose: 1 }
trans s (rest, rest, rest) -> { lose: 1 }
trans win (idle, idle, idle) -> { win: 1 }
trans lose (idle, idle, idle) -> { lose: 1 }
reward P action work: 2
reward P action rest: 1
reward Q action work: 2
reward Q action rest: 1
reward R action work: 2
reward R action rest: 1
plan all_work @ s: (work, work, work)
"""


def test_three_agent_game_end_to_end():
    from respgames.checker import car_degree, path_sat_prob
    from respgames.logic import parse_path_formula
    from respgames.trace import enumerate_histories, plan_from_model

    m = build_psmas(parse_model(TRIO))
    assert len(m.params) == 3  # one free parameter per agent scope at s
    total = Polynomial.zero()
    for h in enumerate_histories(m, "s", 2):
        total = total + h.probability
    assert total == Polynomial.one()

    psi = parse_path_formula("X won", m)
    prob = path_sat_prob(m, "s", psi)
    rests = [m.free_param(a, "s", "rest") for a in ("P", "Q", "R")]
    one = Polynomial.one()
    expected = one
    for p in rests:
        expected = expected * (one - Polynomial.variable(p))
    assert prob == RationalFunction(expected)

    # P actively carries the win only when the others' work is forced by
    # the plan anchor; here all three must cooperate, so kappa holds and
    # P's class contributes exactly the anchor's winning history
    res = car_degree(m, "s", "P", plan_from_model(m, "all_work"), psi)
    assert res.kappa and res.numerator_paths == 1

    # everyone prefers work (reward 2 beats 1): the pure profile is the NE
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    sols = find_equilibria(m, 1, cfg, seeds=6)
    assert len(sols) == 1
    assert all(v == 0 for v in sols[0].valuation.values())


def test_forced_single_action_game_has_zero_gap():
    m = build_psmas(parse_model(FORCED))
    assert m.params == ()
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    ok, gap = verify_ne(m, _parts(m, cfg, 2), {})
    assert ok and gap == 0
    sols = find_equilibria(m, 2, cfg, seeds=2)
    assert len(sols) == 1 and sols[0].valuation == {}

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODELS, ball_valuation, var
from reference_engine import free_param, naive_transitions

from respgames.errors import MissingParameterError, ModelError
from respgames.model import (AdmissibilityReport, RewardStructure,
                             build_psmas, check_admissible, load_model,
                             parse_model, scope_violations)
from respgames.polyarith import ParamId, Polynomial

TINY = """
agents: A B
states: u v
init: u
labels: u { left } v { right }
actions A @ u: go stay
actions A @ v: go
actions B @ u: go
actions B @ v: go stay
trans u (go, go) -> { v: 1 }
trans u (stay, go) -> { u: 1/2, v: 1/2 }
trans v (go, go) -> { u: 1 }
trans v (go, stay) -> { v: 1 }
"""


def test_parse_sections(ball):
    g = ball.base
    assert g.agents == ("A1", "A2")
    assert g.initial == "s0"
    assert g.labels["s1"] == frozenset({"collision"})
    assert g.available[("A1", "s0")] == ("catch", "skip")
    assert g.rewards["A1"].action_reward["catch"] == 2
    assert g.plans["pi1"] == ("s0", (("catch", "skip"), ("skip", "catch")))


def test_every_agent_has_a_reward_structure():
    # B declares no rewards and earns 0; A keeps its declared ones
    g = parse_model(TINY + "reward A state v: 3\n")
    assert g.rewards == {
        "A": RewardStructure("A", 0, state_reward={"v": Fraction(3)}),
        "B": RewardStructure("B", 1)}


def test_parse_error_carries_position():
    with pytest.raises(ModelError) as err:
        parse_model("agents: A\nstates: s\ninit: t\n", source="bad.game")
    assert "bad.game:3" in str(err.value)


def test_parse_rejects_unknown_directive():
    with pytest.raises(ModelError) as err:
        parse_model("agents: A\nwibble: 3\n")
    assert "wibble" in str(err.value)


def test_distribution_must_sum_to_one():
    for row, total in (("{ u: 1/2, v: 1/3 }", "5/6"), ("{ }", "0")):
        with pytest.raises(ModelError) as err:
            parse_model(TINY.replace("{ u: 1/2, v: 1/2 }", row))
        assert str(err.value) == (f"transition probabilities from u under "
                                  f"(stay, go) sum to {total}, not 1")


def test_duplicate_targets_sum():
    g = parse_model(TINY.replace("{ u: 1/2, v: 1/2 }", "{ u: 1/2, u: 1/2 }"))
    assert g.delta[("u", ("stay", "go"))] == {"u": Fraction(1)}


@pytest.mark.parametrize("bad", ["1/0", "x"])
def test_bad_number_is_reported_at_its_own_line(bad):
    # earlier lines parsed 1 and 1/2; the bad text is still an error, at
    # the line that holds it, for a probability and for a reward
    line = "trans v (go, stay) -> { v: 1 }"
    text = TINY.replace(line, line.replace("1", bad))
    with pytest.raises(ModelError) as err:
        parse_model(text, source="t.game")
    assert str(err.value) == f"t.game:13:1: bad probability '{bad}'"
    with pytest.raises(ModelError) as err:
        parse_model(TINY + f"reward A state v: 1/2\nreward B state v: {bad}\n",
                    source="t.game")
    assert str(err.value) == f"t.game:15:1: bad reward value '{bad}'"


def _swap(old: str, new: str) -> str:
    assert old in TINY
    return TINY.replace(old, new)


ROW = "{ u: 1/2, v: 1/2 }"  # the row of `trans u (stay, go)`, line 11

# Every parser, Csg and build_psmas error on a malformed copy of TINY, by
# its exact text: parser errors name file:line:col, the checks made on the
# whole game name only the file.  `param`, `actions`, `trans`, `reward`
# and `plan` lines may follow any section, so most faults are appended.
MODEL_ERRORS = [
    ("unknown-directive", TINY + "  wibble: 3\n",
     "t.game:14:3: unknown directive 'wibble'"),
    ("bare-colon", TINY + ": 3\n", "t.game:14:1: unknown directive ''"),
    ("section-out-of-order", TINY + "states: u v\n",
     "t.game:14:1: section 'states' out of order"),
    ("missing-colon", _swap("agents: A B", "agents A B"),
     "t.game:2:10: expected ':'"),
    ("empty-agents", _swap("agents: A B", "agents:"),
     "t.game:2:1: agents must be a non-empty list of distinct names"),
    ("duplicate-agents", _swap("agents: A B", "agents: A A"),
     "t.game:2:1: agents must be a non-empty list of distinct names"),
    ("empty-states", _swap("states: u v", "states:"),
     "t.game:3:1: states must be a non-empty list of distinct names"),
    ("duplicate-states", _swap("states: u v", "states: u u"),
     "t.game:3:1: states must be a non-empty list of distinct names"),
    ("undeclared-init", _swap("init: u", "init: w"),
     "t.game:4:1: unknown initial state 'w'"),
    ("init-before-states", _swap("states: u v\ninit: u", "init: u"),
     "t.game:3:1: unknown initial state 'u'"),
    ("params-mode", _swap("init: u", "init: u\nparams: some"),
     "t.game:5:1: params must be 'shared' or 'per-state'"),
    ("param-syntax", TINY + "param y: A\n",
     "t.game:14:1: expected 'param NAME: AGENT ACTION [@ STATE]'"),
    ("param-agent", TINY + "param y: C go @ u\n",
     "t.game:14:1: unknown agent 'C'"),
    ("param-state", TINY + "param y: A go @ w\n",
     "t.game:14:1: unknown state 'w'"),
    ("param-shared-state",
     _swap("init: u", "init: u\nparams: shared") + "param y: A go @ u\n",
     "t.game:15:1: shared params cannot name a state"),
    ("param-per-state-no-state", TINY + "param y: A go\n",
     "t.game:14:1: per-state params must name a state"),
    ("param-duplicate", TINY + "param y: A go @ u\nparam y: B go @ v\n",
     "t.game:15:1: duplicate parameter name 'y'"),
    ("param-unknown-action", TINY + "param y: A jump @ u\n",
     "param declares unknown action jump for A"),
    ("param-count", TINY + "param y: A go @ u\nparam z: A stay @ u\n",
     "A: declare exactly 1 free parameters (one per action except the "
     "dependent one) or none"),
    ("shared-action-sets", _swap("init: u", "init: u\nparams: shared"),
     "params: shared requires agent A to have the same action set at every "
     "state"),
    ("label-state", _swap("v { right }", "w { right }"),
     "t.game:5:1: unknown state 'w' in labels"),
    ("actions-syntax", TINY + "actions A u: go\n",
     "t.game:14:1: expected 'actions AGENT @ STATE: a b ...'"),
    ("actions-empty", TINY + "actions A @ u:\n",
     "t.game:14:1: expected 'actions AGENT @ STATE: a b ...'"),
    ("actions-duplicate", _swap("A @ u: go stay", "A @ u: go go"),
     "t.game:6:1: actions must be a non-empty list of distinct names"),
    ("actions-agent", TINY + "actions C @ u: go\n",
     "t.game:14:1: unknown agent 'C'"),
    ("actions-state", TINY + "actions A @ w: go\n",
     "t.game:14:1: unknown state 'w'"),
    ("no-actions", _swap("actions B @ v: go stay\n", ""),
     "agent B has no actions at state v"),
    ("trans-syntax", TINY + "trans u go go -> { v: 1 }\n",
     "t.game:14:1: expected 'trans STATE (a, b) -> { s: p, ... }'"),
    ("trans-state", TINY + "trans w (go, go) -> { v: 1 }\n",
     "t.game:14:1: unknown state 'w'"),
    ("joint-arity", _swap("(go, go) -> { v: 1 }", "(go) -> { v: 1 }"),
     "t.game:10:1: joint action (go) must list one action per agent in "
     "order (A, B)"),
    ("chunk-without-colon", _swap(ROW, "{ u: 1/2, v 1/2 }"),
     "t.game:11:1: expected 'state: probability' in 'v 1/2'"),
    ("unknown-target", _swap(ROW, "{ u: 1/2, w: 1/2 }"),
     "t.game:11:1: unknown target state 'w'"),
    ("bad-probability", _swap(ROW, "{ u: 1/2, v: half }"),
     "t.game:11:1: bad probability 'half'"),
    ("negative-probability", _swap(ROW, "{ u: -1/2, v: 3/2 }"),
     "probability -1/2 out of [0,1] in transition from u"),
    ("probability-over-one", _swap(ROW, "{ v: 3/2 }"),
     "probability 3/2 out of [0,1] in transition from u"),
    ("range-before-sum", _swap(ROW, "{ u: 3/2, v: -1/2 }"),
     "probability 3/2 out of [0,1] in transition from u"),
    ("sum-not-one", _swap(ROW, "{ u: 1/2, v: 1/3 }"),
     "transition probabilities from u under (stay, go) sum to 5/6, not 1"),
    ("one-entry-sum", _swap(ROW, "{ v: 1/2 }"),
     "transition probabilities from u under (stay, go) sum to 1/2, not 1"),
    ("empty-row", _swap(ROW, "{ }"),
     "transition probabilities from u under (stay, go) sum to 0, not 1"),
    ("missing-row", _swap("trans v (go, stay) -> { v: 1 }\n", ""),
     "no transition for state v, joint action (go, stay)"),
    ("reward-syntax", TINY + "reward A bonus u: 1\n",
     "t.game:14:1: expected 'reward AGENT action|state NAME: value'"),
    ("reward-agent", TINY + "reward C state u: 1\n",
     "t.game:14:1: unknown agent 'C'"),
    ("reward-state", TINY + "reward A state w: 1\n",
     "t.game:14:1: unknown state 'w'"),
    ("reward-value", TINY + "reward A action go: 1/0\n",
     "t.game:14:1: bad reward value '1/0'"),
    ("plan-syntax", TINY + "plan p: (go, go)\n",
     "t.game:14:1: expected 'plan NAME @ STATE: (a, b) (a, b) ...'"),
    ("plan-state", TINY + "plan p @ w: (go, go)\n",
     "t.game:14:1: unknown state 'w'"),
    ("plan-duplicate", TINY + "plan p @ u: (go, go)\nplan p @ v: (go, go)\n",
     "t.game:15:1: duplicate plan name 'p'"),
    ("plan-no-steps", TINY + "plan p @ u: go go\n",
     "t.game:14:1: plan needs at least one joint action"),
    ("plan-arity", TINY + "plan p @ u: (go, go) (go)\n",
     "t.game:14:1: joint action (go) must list one action per agent in "
     "order (A, B)"),
    ("plan-unavailable", TINY + "plan p @ u: (go, go) (stay, go)\n",
     "plan p, step 2: action stay not available to A at v"),
    ("missing-agents", "states: u\ninit: u\n", "missing agents section"),
    ("missing-init", "agents: A\nstates: u\n", "missing init section"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in MODEL_ERRORS],
                         ids=[case[0] for case in MODEL_ERRORS])
def test_model_error_text(text, message):
    with pytest.raises(ModelError) as err:
        build_psmas(parse_model(text, source="t.game"))
    assert str(err.value) == message


ACTION_POOLS = (("a", "b"), ("a", "b", "c"), ("a",), ("b", "c"))


@st.composite
def param_games(draw):
    """Model text of a random game: 1-3 agents, 2-3 states, strategies
    shared or per state, scopes of one to three actions, `param`
    declarations that pick the dependent action of some scopes, and rows
    over 1-3 successors."""
    agents = [f"A{i}" for i in range(draw(st.integers(1, 3)))]
    states = [f"q{i}" for i in range(draw(st.integers(2, 3)))]
    shared = draw(st.booleans())
    lines = ["agents: " + " ".join(agents), "states: " + " ".join(states),
             "init: q0"]
    available = {}
    for agent in agents:
        acts = draw(st.sampled_from(ACTION_POOLS))
        for s in states:
            available[agent, s] = (acts if shared
                                   else draw(st.sampled_from(ACTION_POOLS)))
    if shared:
        lines.append("params: shared")
    scopes = [(agent, s) for agent in agents
              for s in ([None] if shared else states)]
    for agent, s in scopes:
        acts = available[agent, s or states[0]]
        if len(acts) > 1 and draw(st.booleans()):
            dependent = draw(st.sampled_from(acts))
            where = "" if s is None else f" @ {s}"
            lines.extend(f"param y_{agent}_{s}_{a}: {agent} {a}{where}"
                         for a in acts if a != dependent)
    lines.append("labels: q0 { p }")
    lines.extend(f"actions {agent} @ {s}: " + " ".join(available[agent, s])
                 for agent in agents for s in states)
    for s in states:
        for joint in itertools.product(
                *(available[agent, s] for agent in agents)):
            targets = draw(st.permutations(states))[:draw(st.integers(1, 3))]
            weights = [draw(st.integers(1, 3)) for _ in targets]
            row = ", ".join(f"{t}: {Fraction(w, sum(weights))}"
                            for t, w in zip(targets, weights))
            lines.append(f"trans {s} ({', '.join(joint)}) -> {{ {row} }}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(param_games())
def test_transition_terms_match_naive_products(text):
    # the shared products keep every entry's terms, in insertion order,
    # and its denominator: `evaluate_float` sums in that order
    m = build_psmas(parse_model(text))
    naive = naive_transitions(m)
    assert list(m.moves) == list(naive)
    for state, rows in naive.items():
        assert list(m.moves[state]) == list(rows), state
        for joint, row in rows.items():
            got_row = m.moves[state][joint]
            assert list(got_row) == list(row), (state, joint)
            for target, poly in row.items():
                key = (state, joint, target)
                got = got_row[target]
                assert got._den == poly._den, key
                assert list(got._terms.items()) == list(
                    poly._terms.items()), key
                assert got.render() == poly.render(), key


def test_build_psmas_shared_example(ball):
    # Fig-1 edge labels on the reconstructed model
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    s0 = ball.moves["s0"]
    assert s0[("skip", "skip")]["s0"] == x1 * x2
    assert s0[("catch", "catch")]["s1"] == (one - x1) * (one - x2)
    assert s0[("catch", "skip")]["s2"] == (one - x1) * x2
    assert s0[("skip", "catch")]["s3"] == x1 * (one - x2)
    assert [p.name for p in ball.params] == ["x1", "x2"]
    assert ball.table[("A1", None)].dependent.action == "catch"


def test_build_psmas_per_state_defaults():
    m = build_psmas(parse_model(TINY))
    # one free parameter per scope with >= 2 actions; lexicographically last
    # action is the dependent one
    names = sorted(p.name for p in m.params)
    assert names == ["x_A_u_go", "x_B_v_go"]
    assert m.table[("A", "u")].dependent.action == "stay"
    assert m.table[("A", "v")].dependent.action == "go"


def test_single_action_scope_transition_is_constant(relay):
    poly = relay.moves["mid"][("pass",)]["done"]
    assert poly == Polynomial.one()


def test_row_sum_identity(ball, rounds, relay):
    for m in (ball, rounds, relay):
        for s in m.base.states:
            total = Polynomial.zero()
            for row in m.moves[s].values():
                for poly in row.values():
                    total = total + poly
            assert total == Polynomial.one(), s


def test_build_is_deterministic():
    text = (MODELS / "ball.game").read_text()
    a = build_psmas(parse_model(text))
    b = build_psmas(parse_model(text))
    assert a.params == b.params
    assert a.moves == b.moves


def test_admissible_interior_point(ball):
    report = check_admissible(ball, ball_valuation(ball, Fraction(1, 2),
                                                   Fraction(1, 2)))
    assert report.ok and not report.violations


def test_admissible_condition2_violation(ball):
    report = check_admissible(ball, ball_valuation(ball, Fraction(6, 5),
                                                   Fraction(1, 2)))
    assert not report.ok
    cond, where, value = report.violations[0]
    assert cond == 2 and where == "x1" and value == Fraction(6, 5)


def test_admissible_condition3_violation(ball):
    dep = next(d for d in ball.dependent_params if d.agent == "A1")
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    v[dep] = Fraction(1, 3)  # 1/2 + 1/3 != 1
    report = check_admissible(ball, v)
    assert not report.ok
    assert any(c == 3 and where == "A1" for c, where, _ in report.violations)


def test_admissible_vertices(ball):
    for a in (0, 1):
        for b in (0, 1):
            v = ball_valuation(ball, Fraction(a), Fraction(b))
            assert check_admissible(ball, v).ok


def test_admissible_missing_parameter(ball):
    with pytest.raises(MissingParameterError):
        check_admissible(ball, {ball.param_table["x1"]: Fraction(1, 2)})


def full_admissibility(m, valuation) -> AdmissibilityReport:
    """Reference: the scope conditions, and condition 1 evaluated on every
    transition whatever they say."""
    violations = [v for scope in m.table
                  for v in scope_violations(m, scope, valuation)]
    free = {p: Fraction(valuation[p]) for p in m.params}
    for state, rows in m.base.moves.items():
        for joint, row in rows.items():
            for target in filter(row.get, row):
                value = m.moves[state][joint][target].evaluate(free)
                if not 0 <= value <= 1:
                    violations.append(
                        (1, f"trans {state} ({', '.join(joint)}) -> "
                         f"{target}", value))
    return AdmissibilityReport.of(violations)


def _random_valuation(m, rng: random.Random) -> dict:
    """Per scope: free values inside the simplex or anywhere in [-1, 2],
    and the dependent parameter unbound, bound to 1 - (sum of the free
    ones), or bound at random."""
    def anywhere():
        return Fraction(rng.randint(-12, 24), rng.choice((1, 3, 12)))

    valuation = {}
    for space in m.table.values():
        if rng.random() < 0.5:
            den = rng.randint(1, 12)
            left = den
            for p in space.free:
                valuation[p] = Fraction(share := rng.randint(0, left), den)
                left -= share
        else:
            valuation.update((p, anywhere()) for p in space.free)
        mode = rng.randrange(3)
        if mode == 1:
            valuation[space.dependent] = 1 - sum(valuation[p]
                                                 for p in space.free)
        elif mode == 2:
            valuation[space.dependent] = anywhere()
    return valuation


def test_admissibility_matches_full_transition_check(ball, rounds, relay):
    text = (MODELS / "ball_rounds.game").read_text()
    per_state = build_psmas(parse_model(
        text.replace("params: shared\n", "")
            .replace("param x1: A1 skip\n", "")
            .replace("param x2: A2 skip\n", "")))
    rng = random.Random(7)
    conditions, admissible = set(), 0
    for m in (ball, rounds, relay, per_state):
        for _ in range(300):
            valuation = _random_valuation(m, rng)
            report = check_admissible(m, valuation)
            assert report == full_admissibility(m, valuation)
            conditions.update(c for c, _, _ in report.violations)
            admissible += report.ok
    # every condition was violated somewhere, and some points passed
    assert conditions == {1, 2, 3} and admissible > 0


def test_instantiated_matrix_is_stochastic(ball):
    v = ball_valuation(ball, Fraction(2, 7), Fraction(3, 5))
    for s in ball.base.states:
        total = Fraction(0)
        for row in ball.moves[s].values():
            for poly in row.values():
                p = poly.evaluate(v)
                assert 0 <= p <= 1
                total += p
        assert total == 1


def test_shared_params_require_uniform_actions():
    text = TINY.replace("states: u v", "states: u v").replace(
        "init: u", "init: u\nparams: shared")
    with pytest.raises(ModelError) as err:
        build_psmas(parse_model(text))
    assert "same action set" in str(err.value)


def test_param_declaration_selects_dependent(ball):
    # declaring x1 for skip leaves catch as the dependent action
    assert free_param(ball, "A1", "s0", "skip").name == "x1"
    assert free_param(ball, "A1", "s0", "catch") is None


def test_plan_validation_catches_bad_action():
    text = TINY + "plan bad @ u: (stay, go) (stay, go)\n"
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert "stay" in str(err.value) and "not available" in str(err.value)


def test_second_load_evaluates_without_parameter_equality(monkeypatch):
    # the free parameters are interned: a plan compiled on one load finds
    # the valuation of another load by identity, not by ParamId.__eq__
    first = build_psmas(load_model(MODELS / "ball_rounds.game"))
    poly = first.moves["start"][("catch", "catch")]["s1"]
    assert not poly.is_constant
    poly.evaluate({p: Fraction(1, 3) for p in first.params})  # compiles
    second = build_psmas(load_model(MODELS / "ball_rounds.game"))
    assert [p is q for p, q in zip(first.params, second.params)] == [
        True] * len(first.params)
    calls = []
    equal = ParamId.__eq__
    monkeypatch.setattr(ParamId, "__eq__",
                        lambda a, b: calls.append(1) or equal(a, b))
    value = poly.evaluate({p: Fraction(1, 3) for p in second.params})
    assert value == poly.evaluate({p: Fraction(1, 3) for p in first.params})
    assert calls == []

import itertools
from fractions import Fraction

import pytest

from conftest import brute_force_histories, var
from reference_engine import free_param

from respgames.errors import ResourceLimitError
from respgames.model import RewardStructure
from respgames.polyarith import Polynomial
from respgames import trace
from respgames.trace import (Plan, compatible_plans, enumerate_histories,
                             payoff, plan_from_model, plan_histories,
                             total_payoff)


def test_depth_one_histories_match_edge_labels(ball):
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    hs = enumerate_histories(ball, "s0", 1)
    assert len(hs) == 4
    probs = {h.states[1]: h.probability for h in hs}
    assert probs["s0"] == x1 * x2
    assert probs["s1"] == (one - x1) * (one - x2)
    assert probs["s2"] == (one - x1) * x2
    assert probs["s3"] == x1 * (one - x2)


def test_depth_zero_single_history(ball):
    hs = enumerate_histories(ball, "s0", 0)
    assert len(hs) == 1
    assert hs[0].states == ("s0",) and hs[0].probability == Polynomial.one()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_partition_of_unity(ball, relay, depth):
    for m in (ball, relay):
        for start in m.base.states:
            total = Polynomial.zero()
            for h in enumerate_histories(m, start, depth):
                total = total + h.probability
            assert total == Polynomial.one()


def test_enumeration_matches_brute_force(rounds):
    ours = {(h.states, h.actions): h.probability
            for h in enumerate_histories(rounds, "start", 2)}
    independent = {(states, actions): prob
                   for states, actions, prob
                   in brute_force_histories(rounds, "start", 2)}
    assert ours == independent


def test_resource_guard(ball, monkeypatch):
    r = ball.base.rewards["A1"]
    total_payoff(ball, r, "s0", 3)
    monkeypatch.setattr(trace, "MAX_PASS_WORK", 10)
    with pytest.raises(ResourceLimitError, match="words added, over the 10"):
        total_payoff(ball, r, "s0", 3)


def test_plan_histories_self_loop(ball):
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    plan = plan_from_model(ball, "pi_skip")
    hs = plan_histories(ball, plan)
    assert len(hs) == 1
    assert hs[0].states == ("s0", "s0")
    assert hs[0].probability == x1 * x2


def test_plan_histories_deterministic_kernel_single_path(ball):
    # (catch, skip)(skip, skip) from s0 walks s0 -> s2 -> s0
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    plan = plan_from_model(ball, "pi_mix")
    hs = plan_histories(ball, plan)
    assert len(hs) == 1
    assert hs[0].states == ("s0", "s2", "s0")
    assert hs[0].probability == (one - x1) * x2 * (x1 * x2)


def test_plan_histories_subset_of_enumeration(ball):
    plan = plan_from_model(ball, "pi1")
    every = {(h.states, h.actions): h.probability
             for h in enumerate_histories(ball, "s0", 2)}
    for h in plan_histories(ball, plan):
        assert every[(h.states, h.actions)] == h.probability


def test_compatibility_example(ball):
    pi1 = plan_from_model(ball, "pi1")
    pi2 = plan_from_model(ball, "pi2")
    cls = compatible_plans(ball, pi1, {"A1"})
    assert pi2 in cls.members
    assert cls.anchor == pi1 and pi1 in cls.members
    assert len(cls.members) == 4  # A2 free at both steps


def test_compatibility_full_and_empty_coalition(ball):
    pi1 = plan_from_model(ball, "pi1")
    assert compatible_plans(ball, pi1, {"A1", "A2"}).members == (pi1,)
    assert len(compatible_plans(ball, pi1, set()).members) == 16


def test_compatibility_is_equivalence(ball):
    joints = tuple(ball.base.moves["s0"])
    plans = [Plan("s0", steps)
             for steps in itertools.product(joints, repeat=2)]
    coalition = {"A1"}
    related = {}
    for p in plans:
        related[p] = set(compatible_plans(ball, p, coalition).members)
    for p in plans:
        assert p in related[p]
        for q in plans:
            assert (q in related[p]) == (p in related[q])
            if q in related[p]:
                assert related[p] == related[q]


def test_prefix_membership(ball):
    pi1 = plan_from_model(ball, "pi1")  # (catch, skip)(skip, catch)
    cls = compatible_plans(ball, pi1, {"A1"})
    assert cls.contains_action_prefix([("catch", "catch")])
    assert cls.contains_action_prefix([("catch", "skip"), ("skip", "skip")])
    assert not cls.contains_action_prefix([("skip", "skip")])
    assert cls.contains_action_prefix([])


def test_payoff_example(ball):
    # expected payoff of pi1 for A1: 2(1-x1)x2 + x1(1-x2)
    x1, x2 = var(ball, "x1"), var(ball, "x2")
    one = Polynomial.one()
    plan = plan_from_model(ball, "pi1")
    hist = plan_histories(ball, plan)[0]
    value = payoff(hist, ball.base.rewards["A1"])
    assert value == 2 * (one - x1) * x2 + x1 * (one - x2)


def test_payoff_zero_rewards(ball):
    plan = plan_from_model(ball, "pi1")
    hist = plan_histories(ball, plan)[0]
    empty = RewardStructure(agent="A1", agent_index=0)
    assert payoff(hist, empty) == Polynomial.zero()


def test_payoff_single_step_unit_action_reward(relay):
    h = plan_histories(relay, Plan("mid", (("pass",),)))[0]
    unit = RewardStructure(agent="R", agent_index=0,
                           action_reward={"pass": Fraction(1)})
    assert payoff(h, unit) == Polynomial.one()


STOCHASTIC = """
agents: A B
states: u v w
init: u
labels: v { mid } w { far }
actions A @ u: go stay
actions A @ v: go
actions A @ w: go
actions B @ u: go
actions B @ v: go
actions B @ w: go
trans u (go, go) -> { v: 1/3, w: 2/3 }
trans u (stay, go) -> { u: 1 }
trans v (go, go) -> { w: 1 }
trans w (go, go) -> { w: 1 }
"""


def stochastic_model():
    from respgames.model import build_psmas, parse_model
    return build_psmas(parse_model(STOCHASTIC))


def test_stochastic_kernel_partition_of_unity():
    m = stochastic_model()
    for depth in (1, 2, 3):
        total = Polynomial.zero()
        for h in enumerate_histories(m, "u", depth):
            total = total + h.probability
        assert total == Polynomial.one()


def test_plan_histories_branch_over_successors():
    m = stochastic_model()
    x = free_param(m, "A", "u", "go")
    hs = plan_histories(m, Plan("u", (("go", "go"),)))
    assert {h.states[1] for h in hs} == {"v", "w"}
    probs = {h.states[1]: h.probability for h in hs}
    gop = Polynomial.variable(x)
    assert probs["v"] == gop * Fraction(1, 3)
    assert probs["w"] == gop * Fraction(2, 3)

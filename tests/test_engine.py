"""Differential tests: the checker's forward witness pass against history
enumeration and against Monte-Carlo sampling on random small games.

The reference side lists every witness history (`_witnesses`), filters it
with `compatible_plans(...).contains_action_prefix` and sums payoffs over
`enumerate_histories` — the definitions the pass must reproduce exactly,
counts and errors included.  The pass walks a reduced
model whose states lump only where they share a strategy, so one source
of games has `params: shared` and rows from a small pool.  At interior
points the sampled frequency of the outcome must agree with the pass's
probability.
"""

import itertools
from fractions import Fraction
from math import sqrt

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from respgames.checker import (QueryContext, _reward_parts, _witness_pass,
                               _witnesses, car_degree, cpr_degree,
                               degree_guard, degree_setup, path_sat_prob)
from respgames.errors import DegenerateQueryError, ModelError
from respgames.logic import (And, Atom, DegreeKind, Next, Not, TrueFormula,
                             Until, horizon)
from respgames.model import build_psmas, parse_model
from respgames.oracle import SimConfig, estimate_path_prob
from respgames.polyarith import Polynomial, RationalFunction
from respgames.synth import payoff_valuation
from respgames.trace import (CompatTags, Plan, compatible_plans,
                             enumerate_histories, payoff)

AGENTS = ("A", "B")
ACTIONS = ("a", "b")
# Two actions twice as often as one, and single actions of either name, so
# availability differs between states and its intersections matter.
POOLS = (("a", "b"), ("a", "b"), ("a",), ("b",))
# Hypothesis favours the first choice of a `sampled_from`: first come
# labels and horizons that leave both outcomes possible.
LABELS = ("p", "g", "", "p g")
HORIZONS = (2, 3, 4, 1, 0)
VOLUME = 512
HOLDS = (TrueFormula(), Atom("p"), Not(Atom("g")))
GOALS = (Atom("g"), Not(Atom("p")), And(Atom("p"), Not(Atom("g"))))


@st.composite
def games(draw, pools=POOLS):
    """Model text of a random game: 2-4 states, 2 agents, actions per
    (agent, state) from `pools`, rows over 1-2 successors with random
    weights, labels from {p, g} and small integer rewards."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 4)))]
    lines = ["agents: A B", "states: " + " ".join(states), "init: q0"]
    labels = []
    for s in states:
        labels.append(f"{s} {{ {draw(st.sampled_from(LABELS))} }}")
    lines.append("labels: " + " ".join(labels))
    available = {}
    for agent in AGENTS:
        for s in states:
            available[agent, s] = draw(st.sampled_from(pools))
            lines.append(f"actions {agent} @ {s}: "
                         + " ".join(available[agent, s]))
    for s in states:
        for joint in itertools.product(available["A", s],
                                       available["B", s]):
            targets = draw(st.permutations(states))[:draw(st.integers(1, 2))]
            weights = [draw(st.integers(1, 3)) for _ in targets]
            row = ", ".join(f"{t}: {Fraction(w, sum(weights))}"
                            for t, w in zip(targets, weights))
            lines.append(f"trans {s} ({', '.join(joint)}) -> {{ {row} }}")
    for agent in AGENTS:
        for action in ACTIONS:
            lines.append(f"reward {agent} action {action}: "
                         f"{draw(st.integers(0, 3))}")
        s = draw(st.sampled_from(states))
        lines.append(f"reward {agent} state {s}: {draw(st.integers(0, 2))}")
    return "\n".join(lines) + "\n"


def _row(draw, states):
    """A distribution over 2-3 of the states, with weights 1-3."""
    targets = draw(st.permutations(states))[:draw(st.integers(2, 3))]
    weights = [draw(st.integers(1, 3)) for _ in targets]
    return ", ".join(f"{t}: {Fraction(w, sum(weights))}"
                     for t, w in zip(targets, weights))


@st.composite
def shared_games(draw):
    """Model text of a random `params: shared` game whose states lump:
    3-5 states where both agents have both actions, at most one label
    each, and each state's rows one of two tables, whose rows come from a
    pool of three.  Small integer action rewards, and a state reward at
    one state."""
    states = [f"q{i}" for i in range(draw(st.integers(3, 5)))]
    lines = ["agents: A B", "states: " + " ".join(states), "init: q0",
             "params: shared"]
    lines.append("labels: " + " ".join(
        f"{s} {{ {draw(st.sampled_from(('', 'p', 'g')))} }}"
        for s in states))
    lines.extend(f"actions {agent} @ {s}: a b"
                 for agent in AGENTS for s in states)
    joints = list(itertools.product(ACTIONS, repeat=2))
    pool = [_row(draw, states) for _ in range(3)]
    tables = [[draw(st.sampled_from(pool)) for _ in joints]
              for _ in range(2)]
    for s in states:
        table = draw(st.sampled_from(tables))
        lines.extend(f"trans {s} ({', '.join(joint)}) -> {{ {row} }}"
                     for joint, row in zip(joints, table))
    for agent in AGENTS:
        for action in ACTIONS:
            lines.append(f"reward {agent} action {action}: "
                         f"{draw(st.integers(0, 3))}")
    lines.append(f"reward A state {draw(st.sampled_from(states))}: 1")
    return "\n".join(lines) + "\n"


def plans(m, draw, length, start=None):
    """Mostly valid plans, from `start` or a drawn state: each step picks
    actions available at every state the prefix can reach; one step in
    eight is any joint action, which can make the plan invalid."""
    game = m.base
    if start is None:
        start = draw(st.sampled_from(game.states))
    reachable, steps = {start}, []
    for _ in range(length):
        pools = [sorted(set.intersection(*(set(game.available[agent, s])
                                           for s in reachable)))
                 for agent in AGENTS]
        if all(pools) and draw(st.integers(0, 7)):
            joint = tuple(draw(st.sampled_from(pool)) for pool in pools)
            reachable = {t for s in reachable
                         for t, prob in game.delta[s, joint].items()
                         if prob > 0}
        else:
            joint = (draw(st.sampled_from(ACTIONS)),
                     draw(st.sampled_from(ACTIONS)))
        steps.append(joint)
    return Plan(start, tuple(steps))


def interior_valuation(m, draw):
    """A valuation that gives every action of every scope a positive
    probability: weights 1-4 per action, normalised per scope."""
    valuation = {}
    for space in m.table.values():
        weights = {a: draw(st.integers(1, 4)) for a in space.actions}
        total = sum(weights.values())
        valuation.update({p: Fraction(weights[p.action], total)
                          for p in space.free})
    return valuation


@st.composite
def queries(draw, pools=POOLS, shared=False):
    """A game (`shared_games` when `shared`, else `games` over `pools`),
    a start state, a path formula of horizon <= 4 and a plan at least as
    long.

    The horizon is cut to keep the reference's enumeration to at most
    VOLUME histories (branches per step to the horizon's power).
    """
    m = build_psmas(parse_model(draw(shared_games() if shared
                                     else games(pools))))
    state = draw(st.sampled_from(m.base.states))
    goal = draw(st.sampled_from(GOALS))
    branches = max(sum(len(m.successors(s, joint))
                       for joint in m.base.joint_actions(s))
                   for s in m.base.states)
    if draw(st.booleans()):
        psi = Next(goal)
    else:
        k = draw(st.sampled_from(HORIZONS))
        while branches ** k > VOLUME:
            k -= 1
        psi = Until(draw(st.sampled_from(HOLDS)), k, goal)
    plan = plans(m, draw, horizon(psi) + draw(st.integers(0, 1)))
    return m, state, psi, plan


def _mass(histories):
    total = Polynomial.zero()
    for h in histories:
        total = total + h.probability
    return total


def reference_degree(m, state, agent, plan, psi, kind, coalition):
    """CAR/CPR by witness enumeration and plan-class membership."""
    ctx = QueryContext.symbolic()
    plan = plan.truncated(horizon(psi))
    sats, viols = _witnesses(m, state, psi, ctx)
    if kind is DegreeKind.CAR:
        own = compatible_plans(m, plan, {agent})
        num = [w for w in sats if own.contains_action_prefix(w.actions)]
        return _mass(num), _mass(sats), bool(viols), len(num), len(sats)
    others = compatible_plans(m, plan, coalition - {agent})
    num = [w for w in viols if others.contains_action_prefix(w.actions)]
    full = compatible_plans(m, plan, coalition)
    kappa = any(full.contains_action_prefix(w.actions) for w in sats)
    return _mass(num), _mass(viols), kappa, len(num), len(viols)


def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ModelError, DegenerateQueryError) as exc:
        return type(exc), str(exc)


def check_degree(m, state, agent, plan, psi, kind, coalition):
    ours = outcome(car_degree if kind is DegreeKind.CAR else cpr_degree,
                   m, state, agent, plan, psi, coalition)
    ref = outcome(reference_degree, m, state, agent, plan, psi, kind,
                  coalition)
    guard = outcome(lambda: degree_guard(
        m, state, degree_setup(m, agent, plan, psi, kind, coalition)))
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert ours == ref  # the same ModelError
        if kind is DegreeKind.CPR:  # CAR's guard does not read the plan
            assert guard == ref
        return
    num, den, kappa, num_paths, den_paths = ref
    assert guard == kappa
    if kappa and den.is_zero:
        assert ours[0] is DegenerateQueryError
        return
    value = RationalFunction(num, den) if kappa else RationalFunction(
        Polynomial.zero())
    assert (ours.value, ours.kappa) == (value, kappa)
    assert (ours.numerator_paths, ours.denominator_paths) == (num_paths,
                                                              den_paths)


def reference_payoff(histories, r):
    total = Polynomial.zero()
    for h in histories:
        total = total + payoff(h, r)
    return total


def reference_reward_parts(m, state, target, k, r):
    """The mass that misses the target within k steps, and the reaching
    witnesses' probabilities times the reward accumulated before it."""
    reach, miss = _witnesses(m, state, Until(TrueFormula(), k, target),
                             QueryContext.symbolic())
    weighted = Polynomial.zero()
    for w in reach:
        accum = sum(r.step_reward(w.states[j], joint)
                    for j, joint in enumerate(w.actions))
        weighted = weighted + w.probability * accum
    return _mass(miss), weighted


def assert_reads_match_full_pass(m, state, psi, tags, read):
    """A pass that builds only the `read` verdict's polynomials against the
    pass that builds both: each read sum has the same denominator and the
    same terms in the same order, every sum the same path count, and the
    unread sums no mass."""
    ctx = QueryContext.symbolic()
    full = _witness_pass(m, state, psi, ctx, tags)
    demand = _witness_pass(m, state, psi, ctx, tags, read=read)
    for key, sums in full.items():
        assert demand[key].paths == sums.paths
        if key[0] != read:
            assert demand[key].mass.is_zero
            continue
        for part in ("mass", "reward"):
            ours, ref = getattr(demand[key], part), getattr(sums, part)
            assert ours._den == ref._den
            assert list(ours._terms.items()) == list(ref._terms.items())


def assert_pass_equals_enumeration(m, state, psi, plan):
    """P, CAR, CPR (values, path counts, kappa, errors), R's parts and the
    payoffs of one query against the enumerating references, and the
    passes of P, CAR and CPR against the pass that builds both verdicts."""
    ctx = QueryContext.symbolic()
    sats, viols = _witnesses(m, state, psi, ctx)
    assert path_sat_prob(m, state, psi) == RationalFunction(_mass(sats))
    assert_reads_match_full_pass(m, state, psi, None, True)
    for agent in AGENTS:
        for kind in DegreeKind:
            q = degree_setup(m, agent, plan, psi, kind)
            tags = outcome(CompatTags, m, q.plan, q.kept)
            if not isinstance(tags, tuple):  # else an invalid plan
                assert_reads_match_full_pass(m, state, psi, tags,
                                             q.counts_sat)

    for agent in AGENTS:
        for coalition in ({agent}, set(AGENTS)):
            for kind in DegreeKind:
                check_degree(m, state, agent, plan, psi, kind,
                             frozenset(coalition))

    k = horizon(psi)
    for agent in AGENTS:
        r = m.base.rewards[agent]
        target = psi.right if isinstance(psi, Until) else psi.body
        assert _reward_parts(m, state, target, k, r, ctx) == \
            reference_reward_parts(m, state, target, k, r)
        # the pass counts both sides but weighs only the reaching
        # witnesses by reward, the one reward sum `_reward_parts` reads
        reach = Until(TrueFormula(), k, target)
        sums = _witness_pass(m, state, reach, ctx, r=r)
        hits, misses = _witnesses(m, state, reach, ctx)
        assert (sums[True, True].paths, sums[False, True].paths) == (
            len(hits), len(misses))
        assert sums[False, True].reward.is_zero
        assert sums[False, False].reward.is_zero

        assert payoff_valuation(m, k, agent, state=state) == \
            reference_payoff(enumerate_histories(m, state, k), r)


@settings(derandomize=True, database=None, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(queries())
def test_forward_pass_equals_enumeration(query):
    assert_pass_equals_enumeration(*query)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(queries(shared=True), st.data())
def test_reduced_pass_equals_enumeration_on_shared_games(query, data):
    m, state, psi, plan = query
    # the pass goes on from the start, so it has states to lump
    sats, viols = _witnesses(m, state, psi, QueryContext.symbolic())
    assume(any(w.steps for w in sats + viols))
    assert_pass_equals_enumeration(m, state, psi, plan)
    # evaluated P and R substitute a partial binding before the pass
    fixed = {p: data.draw(st.fractions(0, 1, max_denominator=4))
             for p in m.params if data.draw(st.booleans())}
    constants = {p: Polynomial.constant(v) for p, v in fixed.items()}
    ctx = QueryContext.evaluated(fixed)
    sats, _ = _witnesses(m, state, psi, ctx)
    assert _witness_pass(m, state, psi, ctx, fixed=fixed)[True, True].mass \
        == _mass(sats).substitute(constants)
    target = psi.right if isinstance(psi, Until) else psi.body
    for agent in AGENTS:
        r = m.base.rewards[agent]
        assert _reward_parts(m, state, target, horizon(psi), r, ctx,
                             fixed) == tuple(
            part.substitute(constants) for part in reference_reward_parts(
                m, state, target, horizon(psi), r))


SAMPLES = 4_000


@st.composite
def open_queries(draw):
    """A query on a game where both agents have both actions at every
    state, at an interior valuation where both outcomes are possible."""
    m, state, psi, _ = draw(queries(pools=(ACTIONS,)))
    valuation = interior_valuation(m, draw)
    p = path_sat_prob(m, state, psi).evaluate(valuation)
    assume(0 < p < 1)
    return m, state, psi, valuation


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(queries(), st.integers(0, 2 ** 32), st.data())
def test_sampled_frequency_agrees_with_forward_pass(query, seed, data):
    # Within 4 sigma of the exact p, sigma taken from p.  Where p is 0 or
    # 1 the estimate equals it: at an interior point every sampled path
    # has positive probability, so it lies in the outcome's support.
    # Two sources: `queries()` mostly settles p at 0 or 1, the second
    # leaves both outcomes possible.
    m, state, psi, _ = query
    first = (m, state, psi, interior_valuation(m, data.draw))
    for m, state, psi, valuation in (first, data.draw(open_queries())):
        p = path_sat_prob(m, state, psi).evaluate(valuation)
        est = estimate_path_prob(m, SimConfig(SAMPLES, seed, valuation,
                                              start=state), psi)
        if p in (0, 1):
            assert est.mean == p
        else:
            assert abs(est.mean - p) <= 4 * sqrt(p * (1 - p) / SAMPLES)

import functools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import ball_valuation
from reference_engine import grid_best_response, simulate_paths
from test_engine import ACTIONS, AGENTS, interior_valuation, plans, queries

from respgames import oracle
from respgames.checker import (QueryContext, car_degree, cpr_degree,
                               degree_at, degree_guard, degree_setup,
                               path_sat_prob)
from respgames.errors import (InadmissibleError, ModelError,
                              RespgamesError, UndefinedEstimateError)
from respgames.logic import (Atom, DegreeKind, Next, Not, TrueFormula, Until,
                             horizon, parse_path_formula)
from respgames.model import build_psmas, parse_model
from respgames.oracle import (BLOCK, MAX_PICK_CELLS, PICK_BITS, Estimate,
                              SimConfig, _relabel, _Sampler, _sat_tables,
                              estimate_degree, estimate_path_prob)
from respgames.synth import ResponsibilitySpec, UtilityConfig, utility_parts
from respgames.trace import CompatTags, Plan, plan_from_model


def test_stream_determinism(ball):
    v = ball_valuation(ball, Fraction(1, 3), Fraction(2, 3))
    cfg = SimConfig(samples=3000, seed=42, valuation=v)
    assert (list(simulate_paths(ball, cfg, 2))
            == list(simulate_paths(ball, cfg, 2)))


def test_stream_changes_with_seed(ball):
    v = ball_valuation(ball, Fraction(1, 3), Fraction(2, 3))
    a = list(simulate_paths(ball, SimConfig(2000, 1, v), 1))
    b = list(simulate_paths(ball, SimConfig(2000, 2, v), 1))
    assert a != b


def test_degenerate_distribution(ball):
    v = ball_valuation(ball, Fraction(1), Fraction(1))
    for states, actions in simulate_paths(ball, SimConfig(500, 9, v), 1):
        assert states == ("s0", "s0")
        assert actions == (("skip", "skip"),)


def test_fair_coin_joint_frequency(ball):
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    n = 100_000
    hits = sum(actions[0] == ("catch", "catch")
               for _, actions in simulate_paths(ball, SimConfig(n, 11, v), 1))
    stderr = (0.25 * 0.75 / n) ** 0.5
    assert abs(hits / n - 0.25) <= 4 * stderr


def test_inadmissible_valuation_rejected(ball):
    v = ball_valuation(ball, Fraction(6, 5), Fraction(1, 2))
    with pytest.raises(InadmissibleError):
        list(simulate_paths(ball, SimConfig(10, 0, v), 1))


def test_path_prob_agreement_example_five(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    v = ball_valuation(ball, Fraction(3, 10), Fraction(7, 10))
    est = estimate_path_prob(ball, SimConfig(60_000, 7, v), psi)
    exact = float(path_sat_prob(ball, "s0", psi).evaluate(v))
    assert exact == 0.3
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_estimate_degree_example_five_car(ball):
    psi = parse_path_formula("X (dropped | score2)", ball)
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    est = estimate_degree(ball, SimConfig(20_000, 5, v), "A1",
                          plan_from_model(ball, "pi_skip"), psi,
                          DegreeKind.CAR)
    assert est.mean == 1.0


def test_estimate_degree_kappa_zero_is_exact(ball):
    psi = parse_path_formula("X true", ball)
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    est = estimate_degree(ball, SimConfig(5_000, 5, v), "A1",
                          plan_from_model(ball, "pi_skip"), psi,
                          DegreeKind.CAR)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_estimate_degree_checks_like_exact_degree(ball):
    # X true is unavoidable, so kappa is 0: an agent outside the coalition
    # and an invalid plan are still errors, with the exact degree's message
    psi = parse_path_formula("X true", ball)
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    skip = plan_from_model(ball, "pi_skip")
    for agent, plan in (("B9", skip), ("A1", Plan("s0", (("jump", "skip"),)))):
        with pytest.raises(RespgamesError) as exact:
            car_degree(ball, "s0", agent, plan, psi)
        with pytest.raises(type(exact.value), match=str(exact.value)):
            estimate_degree(ball, SimConfig(500, 5, v), agent, plan, psi,
                            DegreeKind.CAR)


def test_estimate_degree_example_six_cpr(ball):
    psi = parse_path_formula("X collision", ball)
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    est = estimate_degree(ball, SimConfig(60_000, 5, v), "A1",
                          plan_from_model(ball, "pi_catch"), psi,
                          DegreeKind.CPR)
    exact, _ = degree_at(
        cpr_degree(ball, "s0", "A1", plan_from_model(ball, "pi_catch"), psi),
        v)
    assert exact == Fraction(1, 3)
    assert abs(est.mean - float(exact)) <= 4 * est.stderr


def test_estimate_degree_undefined_denominator(ball):
    # under (skip, skip) forever the outcome X collision is never violated --
    # wait: it is never satisfied, so the CPR denominator (violations) is
    # full; instead make the SAT denominator empty for CAR at x1 = 0:
    # histories always pass catch1, so X (dropped | score2) never holds.
    psi = parse_path_formula("X (dropped | score2)", ball)
    v = ball_valuation(ball, Fraction(0), Fraction(1))
    with pytest.raises(UndefinedEstimateError):
        estimate_degree(ball, SimConfig(2_000, 5, v), "A1",
                        plan_from_model(ball, "pi_skip"), psi,
                        DegreeKind.CAR)


def test_grid_constant_utility_returns_whole_grid(relay):
    # zero weights make the utility constant: every grid point maximizes
    m = relay
    h = m.param_table["x_R_start_hold"]
    cfg = UtilityConfig(Fraction(0), Fraction(0))
    br = grid_best_response(m, utility_parts(m, "R", cfg, 1), {},
                            resolution=Fraction(1, 10))
    assert len(br.maximizers) == 11
    assert br.utility == 0


def test_grid_best_response_payoff(ball):
    x1, x2 = ball.param_table["x1"], ball.param_table["x2"]
    cfg = UtilityConfig(Fraction(1), Fraction(0))
    br = grid_best_response(ball, utility_parts(ball, "A1", cfg, 2),
                            {x2: Fraction(1)}, resolution=Fraction(1, 100))
    assert br.utility == 16
    assert [m[x1] for m in br.maximizers] == [Fraction(0)]
    br2 = grid_best_response(ball, utility_parts(ball, "A2", cfg, 2),
                             {x1: Fraction(0)}, resolution=Fraction(1, 100))
    assert [m[x2] for m in br2.maximizers] == [Fraction(1)]


def test_grid_best_response_responsibility(rounds):
    # pure responsibility minimization: A1's maximizer against x2 = 1
    # includes catching (parameter 0)
    x1, x2 = rounds.param_table["x1"], rounds.param_table["x2"]
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    spec = ResponsibilitySpec(plan_from_model(rounds, "pi_mix"), psi)
    cfg = UtilityConfig(Fraction(0), Fraction(1), Fraction(0))
    parts = utility_parts(rounds, "A1", cfg, 2, spec)
    br = grid_best_response(rounds, parts, {x2: Fraction(1)},
                            resolution=Fraction(1, 100))
    values = {m[x1] for m in br.maximizers}
    assert Fraction(0) in values
    assert br.utility == 0


def test_estimate_degree_bounded_reach_car(rounds):
    # exercises the witness-step classifier on a two-step reach outcome
    from respgames.checker import car_degree, degree_at
    psi = parse_path_formula("F<=2 (collision | dropped)", rounds)
    plan = plan_from_model(rounds, "pi_mix")
    v = ball_valuation(rounds, Fraction(2, 5), Fraction(3, 5))
    exact, _ = degree_at(car_degree(rounds, "start", "A1", plan, psi), v)
    est = estimate_degree(rounds, SimConfig(80_000, 23, v), "A1", plan,
                          psi, DegreeKind.CAR)
    assert abs(est.mean - float(exact)) <= 4 * est.stderr


def test_block_boundary_consistency(ball):
    # sample counts straddling the block size keep the prefix identical
    v = ball_valuation(ball, Fraction(1, 3), Fraction(2, 3))
    small = list(simulate_paths(ball, SimConfig(9_999, 13, v), 1))
    large = list(simulate_paths(ball, SimConfig(10_050, 13, v), 1))
    assert large[:9_999] == small


# -- the vectorised sampler and classifier against the per-sample loops ------


class ReferenceSampler:
    """The per-state sampler the padded one must reproduce draw for draw:
    one `searchsorted` per state present at a step, outcomes listed per
    state as (joint action, successor)."""

    def __init__(self, m, valuation):
        self.states = list(m.base.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.outcomes, self.cum = [], []
        for s in self.states:
            outs, probs = [], []
            for joint, row in m.moves[s].items():
                for target, poly in row.items():
                    p = poly.evaluate(valuation)
                    if p != 0:
                        outs.append((joint, self.index[target]))
                        probs.append(float(p))
            cum = np.cumsum(np.array(probs))
            cum[-1] = 1.0
            self.outcomes.append(outs)
            self.cum.append(cum)

    def sample_block(self, start, count, depth, rng):
        states = np.full((count, depth + 1), start, dtype=np.int64)
        picks = np.zeros((count, depth), dtype=np.int64)
        for step in range(depth):
            here = states[:, step]
            u = rng.random(count)
            nxt = np.empty(count, dtype=np.int64)
            for s in np.unique(here):
                mask = here == s
                k = np.searchsorted(self.cum[s], u[mask], side="right")
                k = np.minimum(k, len(self.outcomes[s]) - 1)
                picks[mask, step] = k
                nxt[mask] = [self.outcomes[s][i][1] for i in k]
            states[:, step + 1] = nxt
        return states, picks

    def actions(self, states, picks, steps):
        """Each row's first `steps[row]` joint actions (lists of lists)."""
        for here, outs, n in zip(states, picks, steps):
            yield tuple(self.outcomes[s][k][0]
                        for s, k in zip(here[:n], outs[:n]))


def reference_blocks(cfg):
    """Block b of 10k samples draws from SeedSequence(seed, spawn_key=(b,))."""
    for b, offset in enumerate(range(0, cfg.samples, BLOCK)):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(b,))
        yield min(BLOCK, cfg.samples - offset), np.random.default_rng(seq)


def reference_paths(m, cfg, depth):
    sampler = ReferenceSampler(m, cfg.valuation)
    start = sampler.index[cfg.start]
    for count, rng in reference_blocks(cfg):
        states, picks = sampler.sample_block(start, count, depth, rng)
        states, picks = states.tolist(), picks.tolist()
        for here, acts in zip(states, sampler.actions(
                states, picks, [depth] * count)):
            yield tuple(sampler.states[i] for i in here), acts


def witness_steps(psi, hold, goal):
    """(sat_step, viol_step) of one path of states, by walking it: the step
    at which its outcome is settled, and -1 on the other side."""
    @functools.cache
    def settle(path):
        if isinstance(psi, Next):
            return (1, -1) if goal[path[1]] else (-1, 1)
        for j, s in enumerate(path[:psi.k + 1]):
            if goal[s]:
                return j, -1
            if not hold[s] or j == psi.k:
                return -1, j
    return settle


def reference_path_prob(m, cfg, psi):
    sampler = ReferenceSampler(m, cfg.valuation)
    settle = witness_steps(psi, *_sat_tables(m, sampler, psi, cfg.valuation))
    hits = 0
    for count, rng in reference_blocks(cfg):
        states, _ = sampler.sample_block(sampler.index[cfg.start], count,
                                         horizon(psi), rng)
        hits += sum(settle(tuple(path))[0] >= 0 for path in states.tolist())
    mean = hits / cfg.samples
    return Estimate(mean, sqrt(mean * (1 - mean) / cfg.samples), cfg.samples)


def admits(compat, actions):
    """Is this action prefix consistent with some member plan?"""
    tag = compat.start
    for depth, joint in enumerate(actions):
        tag = compat.step(tag, depth, joint)
    return compat.live(tag, len(actions))


def reference_degree(m, cfg, agent, plan, psi, kind, coalition):
    """Classify each sample by walking it: its witness step, then `admits`
    of its witness prefix."""
    depth = horizon(psi)
    plan = plan.truncated(depth)
    sampler = ReferenceSampler(m, cfg.valuation)
    settle = witness_steps(psi, *_sat_tables(m, sampler, psi, cfg.valuation))
    ctx = QueryContext.evaluated(cfg.valuation)
    pick_sat = kind is DegreeKind.CAR
    compat = CompatTags(m, plan, {agent} if pick_sat
                        else coalition - {agent})
    query = degree_setup(m, agent, plan, psi, kind, coalition)
    if not degree_guard(m, cfg.start, query, ctx):
        return Estimate(0.0, 0.0, cfg.samples)
    admitted = functools.cache(functools.partial(admits, compat))
    num = den = 0
    for count, rng in reference_blocks(cfg):
        states, picks = sampler.sample_block(sampler.index[cfg.start], count,
                                             depth, rng)
        states, picks = states.tolist(), picks.tolist()
        for path, outs in zip(states, picks):
            sat_step, viol_step = settle(tuple(path))
            step = sat_step if pick_sat else viol_step
            if step >= 0:
                den += 1
                num += admitted(next(sampler.actions([path], [outs],
                                                     [step])))
    if den == 0:
        raise UndefinedEstimateError("no sampled path fell in the "
                                     "denominator event")
    mean = num / den
    return Estimate(mean, sqrt(mean * (1 - mean) / den), cfg.samples)


# Every row has boundaries at 1/6 and 2/3 at x = 1/2, inside a pick-table
# bucket, so draws are counted there; q3 is labelled p and g.
THIRDS = """
agents: A
states: q0 q1 q2 q3 q4 q5
init: q0
labels: q0 { p } q1 { g } q2 { p } q3 { p g } q5 { p }
""" + "".join(f"""actions A @ q{i}: a b
trans q{i} (a) -> {{ q{(i + 1) % 6}: 1/3, q{(i + 2) % 6}: 2/3 }}
trans q{i} (b) -> {{ q{i}: 1/3, q{(i + 3) % 6}: 2/3 }}
""" for i in range(6))


def sunk_rows(psi, path, sat_step, viol_step, hold, n):
    """The rows a path of model states takes in the sampler with sinks:
    its states up to its witness step, then SAT (n) or VIOL (n + 1); a
    path still open at the horizon keeps its states."""
    if sat_step >= 0:
        step, sink = sat_step, n
    elif isinstance(psi, Next) or not hold[path[viol_step]]:
        step, sink = viol_step, n + 1
    else:
        return path
    return path[:step] + [sink] * (len(path) - step)


@pytest.mark.parametrize("psi", [
    Next(Atom("g")), Until(TrueFormula(), 0, Atom("g")),
    Until(Atom("p"), 1, Atom("g")), Until(Not(Atom("g")), 4, Atom("p"))],
    ids=["X g", "F<=0 g", "p U<=1 g", "!g U<=4 p"])
def test_witness_steps_equal_per_path_walks(psi):
    # The same draws from every start, with every state open and with the
    # sinks: each path keeps its states and picks until its witness step
    # and then sits in its verdict's sink, and the steps read from the
    # sinks equal the walk of the open path.  The starts include decided
    # ones: q1 and q3 satisfy g, q4 fails p, q0, q2, q3 and q5 satisfy p
    # and q1 fails !g.  At one bucket a row every draw is counted.
    m = build_psmas(parse_model(THIRDS))
    v = {p: Fraction(1, 2) for p in m.params}
    depth, n = horizon(psi), 6
    for budget in (MAX_PICK_CELLS, 1):
        plain, sunk = _Sampler(m, v, budget), _Sampler(m, v, budget, psi)
        assert (sunk.bits == 0) == (budget == 1)
        hold, goal = _sat_tables(m, plain, psi, v)
        settle = witness_steps(psi, hold, goal)
        last_rows = set()
        for start in plain.states:
            rows, picks = (a.T.tolist() for a in plain.sample_block(
                plain.index[start], 2_000, depth, np.random.default_rng(3)))
            block = sunk.sample_block(sunk.start_row(start), 2_000, depth,
                                      np.random.default_rng(3))
            want = [settle(tuple(path)) for path in rows]
            got = [sunk.witness_steps(block, True),
                   sunk.witness_steps(block, False)]
            assert np.stack(got).T.tolist() == [list(w) for w in want]
            got_rows, got_picks = (a.T.tolist() for a in block)
            for path, pick, (sat, viol), row, sunk_pick in zip(
                    rows, picks, want, got_rows, got_picks):
                assert row == sunk_rows(psi, path, sat, viol, hold, n)
                opened = max(sat, viol)
                assert sunk_pick[:opened] == pick[:opened]
            last_rows |= {row[-1] for row in got_rows}
        if depth > 0:
            # the draws that decide paths reach both sinks, counted ones
            # alone at one bucket a row
            assert {n, n + 1} <= last_rows


@pytest.mark.parametrize("start, formula, mean", [
    ("q2", "!g U<=4 p", 1.0), ("q1", "!g U<=4 p", 0.0),
    ("q3", "p U<=1 g", 1.0), ("q4", "p U<=1 g", 0.0)])
def test_decided_start_is_a_sink(start, formula, mean):
    # a start labelled with the goal, or failing the left side, decides
    # every path at step 0; X decides at step 1 whatever its start
    m = build_psmas(parse_model(THIRDS))
    v = {p: Fraction(1, 2) for p in m.params}
    psi = parse_path_formula(formula, m)
    sampler = _Sampler(m, v, 1_000, psi)
    sink = 6 if mean else 7
    assert sampler.start_row(start) == sink
    block = sampler.sample_block(sink, 100, horizon(psi),
                                 np.random.default_rng(0))
    states, _ = block
    assert (states == sink).all()
    assert (sampler.witness_steps(block, bool(mean)) == 0).all()
    cfg = SimConfig(500, 1, v, start=start)
    assert estimate_path_prob(m, cfg, psi).mean == mean
    assert estimate_path_prob(m, cfg, psi) == reference_path_prob(m, cfg, psi)
    assert _Sampler(m, v, 1_000, Next(Atom("g"))).start_row(start) \
        == m.base.states.index(start)


def test_stale_block_raises(ball):
    # a block's matrices are views of buffers that the next block
    # overwrites: reading the earlier block after that fails loudly
    v = ball_valuation(ball, Fraction(1, 3), Fraction(2, 3))
    sampler = _Sampler(ball, v, 100)
    rng = np.random.default_rng(0)
    first = sampler.sample_block(0, 10, 2, rng)
    assert [a.shape for a in first] == [(3, 10), (2, 10)]
    assert sampler.joint_ids(first).shape == (2, 10)
    second = sampler.sample_block(0, 10, 2, rng)
    for read in (lambda: tuple(first), lambda: sampler.joint_ids(first)):
        with pytest.raises(RuntimeError, match="later block"):
            read()
    assert [a.shape for a in second] == [(3, 10), (2, 10)]
    assert sampler.joint_ids(second).shape == (2, 10)


# -- the pick table at its edges, against the per-state searchsorted ---------


class Draws:
    """A generator stand-in: each `random(count)` call returns the next row
    of crafted draws."""

    def __init__(self, *rows):
        self.rows = iter(rows)

    def random(self, count):
        row = np.array(next(self.rows))
        assert row.shape == (count,)
        return row


def edge_draws(sampler, s):
    """Draws at state s's cumulative entries and at the edges of the
    buckets that hold them, each with its neighbouring floats, and the
    ends of [0, 1)."""
    buckets = 2 ** sampler.bits
    cum = sampler.cum[:, s]
    points = [0.0, np.nextafter(1.0, 0.0)]
    for c in cum[cum < 1]:
        low = np.floor(c * buckets) / buckets
        points += [c, low, low + 1 / buckets]
    near = [np.nextafter(x, end) for x in points for end in (0.0, 1.0)]
    return sorted({x for x in points + near if 0 <= x < 1})


def assert_picks_match(m, valuation, budget=MAX_PICK_CELLS):
    """Every state's edge draws, one step from it, then all of them over
    three steps from the first state, pick as `ReferenceSampler` picks;
    the sampler's table is sized for `budget` draws."""
    sampler = _Sampler(m, valuation, budget)
    reference = ReferenceSampler(m, valuation)
    pool = []
    for s in range(len(sampler.states)):
        draws = edge_draws(sampler, s)
        pool += draws
        got = sampler.sample_block(s, len(draws), 1, Draws(draws))
        want = reference.sample_block(s, len(draws), 1, Draws(draws))
        assert [a.T.tolist() for a in got] == [a.tolist() for a in want]
    rows = (pool, pool[::-1], pool[len(pool) // 2:] + pool[:len(pool) // 2])
    got = sampler.sample_block(0, len(pool), 3, Draws(*rows))
    want = reference.sample_block(0, len(pool), 3, Draws(*rows))
    assert [a.T.tolist() for a in got] == [a.tolist() for a in want]
    return sampler


@pytest.mark.parametrize("x1, x2", [
    (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(1, 2)),
    (Fraction(1), Fraction(0))])
def test_pick_table_edges_on_ball(ball, x1, x2):
    # a draw equal to a cumulative entry moves past it (side="right");
    # x = 1/2 puts every entry on a bucket edge, 0 and 1 shorten the rows
    sampler = assert_picks_match(ball, ball_valuation(ball, x1, x2))
    dyadic = x1.denominator <= 2 and x2.denominator <= 2
    assert (sampler.pick_table < 0).any() != dyadic


def test_pick_table_absorbs_float_dust():
    # 9/28 + 9/14 + (1/28 - 1e-17) sums to 1.0000000000000002 in floats,
    # above the last entry, forced to 1.0
    tiny = Fraction(1, 10 ** 17)
    dust = Fraction(1, 28) - tiny
    m = build_psmas(parse_model(f"""
agents: A
states: s t0 t1 t2 t3
init: s
actions A @ s: a
actions A @ t0: a
actions A @ t1: a
actions A @ t2: a
actions A @ t3: a
trans s (a) -> {{ t0: 9/28, t1: 9/14, t2: {dust}, t3: {tiny} }}
trans t0 (a) -> {{ t0: 1 }}
trans t1 (a) -> {{ t1: 1 }}
trans t2 (a) -> {{ t2: 1 }}
trans t3 (a) -> {{ t3: 1 }}
"""))
    sampler = assert_picks_match(m, {})
    assert sampler.cum[2, 0] > 1.0 == sampler.cum[3, 0]


def chain(n):
    """A model of n states, each with two actions over two successors."""
    lines = ["agents: A", "states: " + " ".join(f"q{i}" for i in range(n)),
             "init: q0"]
    lines += [f"actions A @ q{i}: a b" for i in range(n)]
    for i in range(n):
        lines.append(f"trans q{i} (a) -> {{ q{(i + 1) % n}: 1/3, "
                     f"q{(i + 2) % n}: 2/3 }}")
        lines.append(f"trans q{i} (b) -> {{ q{i}: 1/7, q{(i + 3) % n}: 6/7 }}")
    return build_psmas(parse_model("\n".join(lines) + "\n"))


def test_pick_table_at_reduced_resolution():
    m = chain(100)
    valuation = {p: Fraction(2, 5) for p in m.params}
    assert assert_picks_match(m, valuation).bits == 11 < PICK_BITS
    # the table holds no more buckets than the draws it serves
    assert assert_picks_match(m, valuation, 100 * 2 ** 5 + 99).bits == 5
    # one bucket a state: every draw at a model state is counted exactly,
    # and the two sinks, which have no boundary, pick their one outcome
    sampler = assert_picks_match(m, valuation, 199)
    assert sampler.bits == 0 and (sampler.pick_table[:100] < 0).all()
    assert sampler.pick_table[100:].tolist() == [0, 0]


MIXES = (Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1),
         Fraction(7, 10))


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except (ModelError, UndefinedEstimateError) as exc:
        return type(exc), str(exc)


@st.composite
def interior_queries(draw):
    """A query on a game where every agent has both actions at every
    state, with a plan from the start state (playable, as every action is
    available) and a valuation that gives every action a positive
    probability."""
    m, state, psi, _ = draw(queries(pools=(ACTIONS,)))
    valuation = interior_valuation(m, draw)
    return m, state, psi, plans(m, draw, horizon(psi), state), valuation


def open_outcome(case):
    """Both sides of the case's outcome are possible at its valuation, so
    the degrees have samples to classify."""
    m, state, psi, _, valuation = case
    return 0 < path_sat_prob(m, state, psi).evaluate(valuation) < 1


@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(queries(), st.sampled_from((10_050, 700, 9_999)), st.integers(0, 1),
       st.integers(0, 2 ** 32), st.sampled_from(AGENTS), st.data())
def test_vectorised_sampler_equals_per_sample_loops(query, samples, extra,
                                                    seed, agent, data):
    # Two sources per example.  The first sets parameters at 0 or 1, which
    # drop outcomes, so rows differ in width.  The second, at interior
    # points, makes fewer degrees errors, 0 or 1.
    m, state, psi, _ = query
    mixed = (*query, {p: data.draw(st.sampled_from(MIXES)) for p in m.params})
    assume(open_outcome(mixed))
    interior = data.draw(interior_queries().filter(open_outcome))
    cfg = SimConfig(samples, seed, mixed[-1], start=state)
    depth = horizon(psi) + extra
    assert (list(simulate_paths(m, cfg, depth))
            == list(reference_paths(m, cfg, depth)))
    for m, state, psi, plan, valuation in (mixed, interior):
        cfg = SimConfig(samples, seed, valuation, start=state)
        assert estimate_path_prob(m, cfg, psi) == reference_path_prob(
            m, cfg, psi)
        for coalition in ({agent}, AGENTS):
            for kind in DegreeKind:
                args = (m, cfg, agent, plan, psi, kind, frozenset(coalition))
                assert result_or_error(estimate_degree, *args) == \
                    result_or_error(reference_degree, *args)


# The 1-step witness s -(a,b)-> u keeps A's plan so far, but A cannot play
# the plan's `a` at u: no full-length member extends it, so it stays out of
# CAR's numerator while 2-step witnesses share its block.
DEAD_END = """
agents: A B
states: s t u v w
init: s
labels: u { g } v { g }
actions A @ s: a
actions A @ t: a
actions A @ u: b
actions A @ v: a
actions A @ w: a
actions B @ s: a b
actions B @ t: a b
actions B @ u: a
actions B @ v: a
actions B @ w: a
trans s (a, a) -> { t: 1 }
trans s (a, b) -> { u: 1 }
trans t (a, a) -> { v: 1 }
trans t (a, b) -> { w: 1 }
trans u (b, a) -> { u: 1 }
trans v (a, a) -> { v: 1 }
trans w (a, a) -> { w: 1 }
plan pi @ s: (a, a) (a, a)
"""

# The tag {s} meets the joint action (b, a) at both steps: it leaves A's
# plan at step 1 and keeps it at step 2.
LOOP = """
agents: A B
states: s g x
init: s
labels: g { g }
actions A @ s: a b
actions A @ g: a
actions A @ x: a
actions B @ s: a b
actions B @ g: a
actions B @ x: a
trans s (a, a) -> { s: 1 }
trans s (a, b) -> { s: 1 }
trans s (b, a) -> { g: 1 }
trans s (b, b) -> { x: 1 }
trans g (a, a) -> { g: 1 }
trans x (a, a) -> { x: 1 }
plan pi @ s: (a, a) (b, a)
"""


@pytest.mark.parametrize("text", (DEAD_END, LOOP))
def test_degree_classifier_on_hand_made_prefixes(text):
    m = build_psmas(parse_model(text))
    psi = parse_path_formula("F<=2 g", m)
    plan = plan_from_model(m, "pi")
    v = {p: Fraction(1, 2) for p in m.params}
    exact, _ = degree_at(car_degree(m, "s", "A", plan, psi), v)
    assert exact == Fraction(1, 3)
    for samples in (9_999, 10_050):
        cfg = SimConfig(samples, 3, v, start="s")
        args = (m, cfg, "A", plan, psi, DegreeKind.CAR, None)
        est = estimate_degree(*args)
        assert est == reference_degree(*args)
        assert abs(est.mean - float(exact)) <= 4 * est.stderr


@pytest.mark.parametrize("size, count, sorts", [
    (12, 6, False), (13, 6, True), (1, 5, False), (4_000, 10_000, False),
    (50_000, 300, True)])
def test_relabel_counts_or_sorts_like_unique(size, count, sorts,
                                             monkeypatch):
    # counting up to twice as many cells as keys, sorting past that
    keys = np.random.default_rng(size).integers(0, size, count)
    want = np.unique(keys, return_inverse=True)
    calls = []

    def unique(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = np.unique
    monkeypatch.setattr(np, "unique", unique)
    got = _relabel(keys, size)
    assert bool(calls) == sorts
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_degree_classifier_counts_and_sorts(monkeypatch):
    # LOOP's 4 joint actions and the estimate's tags give key spaces of 4
    # to 12 cells: the 10k-path block relabels on the counting side at
    # both depths, the 5-path block after it on the sorting side, and both
    # agree with the per-path walk.  A depth relabels only the paths whose
    # witness lies beyond it, so fewer keys than the block's paths.
    m = build_psmas(parse_model(LOOP))
    psi = parse_path_formula("F<=2 g", m)
    cfg = SimConfig(10_005, 3, {p: Fraction(1, 2) for p in m.params},
                    start="s")
    args = (m, cfg, "A", plan_from_model(m, "pi"), psi, DegreeKind.CAR)
    sides = []

    def relabel(keys, size):
        sides.append((len(keys), size <= 2 * len(keys)))
        return real(keys, size)

    real = oracle._relabel
    monkeypatch.setattr(oracle, "_relabel", relabel)
    assert estimate_degree(*args) == reference_degree(*args, None)
    assert [side for _, side in sides] == [True, True, False, False]
    keys = [n for n, _ in sides]
    assert keys[0] < 10_000 and keys[1] < keys[0]
    assert 5 >= keys[2] >= keys[3] >= 1


@pytest.mark.parametrize("text", (DEAD_END, LOOP))
def test_plan_class_count_equals_per_path_walk(text):
    # witness steps -1 (left out), 0 (the empty prefix), 1 and the horizon
    # 2, mixed over random prefixes: the count moves each path only up to
    # its own step and admits what `admits` admits
    m = build_psmas(parse_model(text))
    compat = CompatTags(m, plan_from_model(m, "pi"), {"A"})
    joints = sorted({joint for s in m.base.states
                     for joint in m.base.moves[s]})
    rng = np.random.default_rng(5)
    steps = rng.choice([-1, 0, 1, 2], 400)
    prefixes = rng.integers(0, len(joints), (2, 400))
    want = sum(admits(compat, [joints[j] for j in prefixes[:step, i]])
               for i, step in enumerate(steps.tolist()) if step >= 0)
    assert oracle._PlanClass(compat, joints).count(steps, prefixes) == want
    assert 0 < want < np.count_nonzero(steps >= 0)


def test_degree_estimate_resolves_its_query_once(ball, monkeypatch):
    # the kappa guard reads the estimate's resolved query; it used to
    # resolve the plan and the coalition again
    from respgames import checker, oracle
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = checker.degree_setup
    monkeypatch.setattr(checker, "degree_setup", counted)
    monkeypatch.setattr(oracle, "degree_setup", counted)
    v = ball_valuation(ball, Fraction(1, 2), Fraction(1, 2))
    psi = parse_path_formula("X collision", ball)
    for kind in DegreeKind:
        calls.clear()
        estimate_degree(ball, SimConfig(100, 0, v), "A1",
                        plan_from_model(ball, "pi_catch"), psi, kind)
        assert len(calls) == 1, kind

"""The five workloads: seeded inputs, the fixed request, and its checks.

A workload turns `--seed` into one fixed request: a short list of CLI
invocations, each with the exit code it must return.  Every request of a
run is the same, so its time forms one cluster.  Seeds change the inputs
(plans, labels, agents, bounds, bindings, sampler and Newton seeds) only in
ways that keep the amount of work the same, so medians from different seeds
agree.  Each request's payloads are checked against `reference`, which is
computed apart from the program.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

# Label of a ball round and the joint action that produces it.
ROUND = {"score1": ("catch", "skip"), "score2": ("skip", "catch")}


@dataclass
class Request:
    """A fixed list of CLI invocations and the check of their payloads."""

    invocations: list[tuple[list[str], int]]
    # payloads (the `result` of each envelope) -> list of problems found
    check: Callable[[list[dict]], list[str]]
    # what a fresh interpreter loads and parses before the first request:
    # model files, and (model, formula text, "state" | "path")
    models: list[str]
    formulas: list[tuple[str, str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, Path, Path, bool], Request]


# -- helpers ------------------------------------------------------------------


def _points(rng: random.Random, game: ref.Game, n: int) -> list[dict]:
    """n admissible interior rational points over the free parameters.

    Every scope of the ball models has two actions, so one free parameter
    anywhere in (0, 1) is admissible.
    """
    return [{name: Fraction(rng.randint(1, 96), 97)
             for name in game.free_params()} for _ in range(n)]


def ball_rounds_with_plan(root: Path, out: Path, rng: random.Random, k: int,
                           label: str) -> Path:
    """ball_rounds plus a seeded k-step pure plan `pi_bench`.

    One step plays the label's round, so the outcome is achievable under the
    plan and both degree guards hold.
    """
    steps = [(rng.choice(("catch", "skip")), rng.choice(("catch", "skip")))
             for _ in range(k)]
    steps[rng.randrange(k)] = ROUND[label]
    text = (root / "models" / "ball_rounds.game").read_text()
    text += "plan pi_bench @ start: " + " ".join(
        f"({a}, {b})" for a, b in steps) + "\n"
    path = out / "ball_rounds_plan.game"
    path.write_text(text)
    return path


def _compare_region(region: str, cmp: str, bound: Fraction, game, points,
                    exact: Callable[[dict], Fraction]) -> list[str]:
    value, got_cmp, got_bound = region.rsplit(" ", 2)
    problems = []
    if got_cmp != cmp or Fraction(got_bound) != bound:
        problems.append(f"region compares with {got_cmp} {got_bound}")
    for v in points:
        if ref.eval_rendered(value, v) != exact(v):
            problems.append(f"P differs from the reference at {v}")
    return problems


def _check_degree(payload: dict, kind: str, game, points, query,
                  agent: str, mass: Callable[[dict], Fraction]) -> list[str]:
    """Value, guard and denominator of a symbolic degree."""
    problems = []
    text = payload["value"]
    kappa = ref.degree(game, points[0], kind, agent, "pi_bench", query).kappa
    if payload["kappa"] != kappa:
        problems.append(f"{kind} guard is {payload['kappa']}")
    den = ref.rendered_denominator(text)
    ratios = set()
    for v in points:
        want = ref.degree(game, v, kind, agent, "pi_bench", query).value
        got = ref.eval_rendered(text, v)
        if got != want or not 0 <= got <= 1:
            problems.append(f"{kind} is {got}, reference {want}, at {v}")
        if den is not None:
            ratios.add(ref.eval_rendered(den, v) / mass(v))
    if len(ratios) > 1:
        problems.append(f"{kind} denominator is not a multiple of its mass")
    return problems


# -- workloads ----------------------------------------------------------------


def check_deep(rng: random.Random, root: Path, out: Path,
               smoke: bool) -> Request:
    k = 2 if smoke else 5
    label = rng.choice(sorted(ROUND))
    agent = rng.choice(("A1", "A2"))
    bound = Fraction(rng.randint(1, 98), 99)
    model = ball_rounds_with_plan(root, out, rng, k, label)
    game = ref.parse_game(model.read_text())
    query = ref.eventually(game, k, [label])
    points = _points(rng, game, 3)
    path = f"F<={k} {label}"
    state = f"<A1,A2> P>={bound} [ {path} ]"
    m = str(model)

    def prob(v):
        return ref.probability(game, v, query)

    def check(payloads):
        region, car, cpr = payloads
        return (_compare_region(region["region"], ">=", bound, game, points,
                                prob)
                + _check_degree(car, "CAR", game, points, query, agent, prob)
                + _check_degree(cpr, "CPR", game, points, query, agent,
                                lambda v: 1 - prob(v)))

    degree = ["--agent", agent, "--plan", "pi_bench", "--formula", path]
    return Request(
        [(["check", "--model", m, "--symbolic", "--formula", state], 0),
         (["degree", "--model", m, "--kind", "CAR"] + degree, 0),
         (["degree", "--model", m, "--kind", "CPR"] + degree, 0)],
        check, [m], [(m, state, "state"), (m, path, "path")])


def check_wide(rng: random.Random, root: Path, out: Path,
               smoke: bool) -> Request:
    k = 2 if smoke else 5
    label = rng.choice(sorted(ROUND))
    cmp = rng.choice(("<=", ">="))
    bound = Fraction(rng.randint(1, 98), 99)
    # Without `params: shared` every state has its own strategy parameters.
    text = "".join(line for line in
                   (root / "models" / "ball_rounds.game").read_text()
                   .splitlines(keepends=True)
                   if not line.startswith("param"))
    model = out / "ball_rounds_per_state.game"
    model.write_text(text)
    game = ref.parse_game(text)
    query = ref.eventually(game, k, [label])
    points = _points(rng, game, 3)
    state = f"<A1,A2> P{cmp}{bound} [ F<={k} {label} ]"
    m = str(model)

    def check(payloads):
        return _compare_region(payloads[0]["region"], cmp, bound, game,
                               points,
                               lambda v: ref.probability(game, v, query))

    return Request([(["check", "--model", m, "--symbolic", "--formula",
                      state], 0)],
                   check, [m], [(m, state, "state")])


def check_grid(rng: random.Random, root: Path, out: Path,
               smoke: bool) -> Request:
    k, grid = (2, 10) if smoke else (4, 50)
    label = rng.choice(sorted(ROUND))
    # A bound no strategy meets: the whole grid is scanned, then refined.
    cmp, bound = rng.choice((("<", 0), (">", 1)))
    model = root / "models" / "ball_rounds.game"
    game = ref.parse_game(model.read_text())
    query = ref.eventually(game, k, [label])
    state = f"<A1,A2> P{cmp}{bound} [ F<={k} {label} ]"
    m = str(model)
    better = min if cmp == "<" else max

    def check(payloads):
        (payload,) = payloads
        if payload.get("verdict") is not False:
            return [f"verdict is {payload.get('verdict')}"]
        point = {n: Fraction(v) for n, v in payload["witness"].items()}
        if set(point) != set(game.free_params()) or not all(
                0 <= v <= 1 for v in point.values()):
            return [f"best point {point} is not admissible"]
        steps = [Fraction(i, grid) for i in range(grid + 1)]
        names = game.free_params()
        optimum = better(ref.probability(game, dict(zip(names, xy)), query)
                         for xy in itertools.product(steps, repeat=2))
        found = ref.probability(game, point, query)
        if better(found, optimum) != found:
            return [f"best point gives {found}, grid optimum {optimum}"]
        return []

    return Request([(["check", "--model", m, "--grid", str(grid),
                      "--formula", state], 1)],
                   check, [m], [(m, state, "state")])


def ne_synth(rng: random.Random, root: Path, out: Path,
             smoke: bool) -> Request:
    # Horizon 2 for the weighted game in both sizes: at horizon 1 `ne`
    # returns points that are not equilibria (see CHANGES.md).
    pay_h, resp_h = (2, 2) if smoke else (3, 2)
    seed = str(rng.randint(1, 9999))
    grid = 50
    ball_path = root / "models" / "ball.game"
    rounds_path = root / "models" / "ball_rounds.game"
    ball = ref.parse_game(ball_path.read_text())
    rounds = ref.parse_game(rounds_path.read_text())
    outcome = f"F<={resp_h} (collision | dropped)"
    query = ref.eventually(rounds, resp_h, ["collision", "dropped"])
    one = Fraction(1)

    # Each agent's step reward depends only on its own action, so playing the
    # best-rewarded action is dominant: the parameter of that action is 1.
    dominant = {}
    for (agent, _, action), name in ball.param_names.items():
        rewards = ball.action_reward[agent]
        dominant[name] = float(max(rewards, key=rewards.get) == action)

    def gains(game, solution, value_of) -> list[str]:
        problems = []
        point = {n: Fraction(v) for n, v in solution["params"].items()}
        if not all(0 <= v <= 1 for v in point.values()):
            return [f"solution {point} is not admissible"]
        for agent in game.agents:
            gain = ref.best_gain(game, point, agent, grid,
                                 lambda v: value_of(v, agent))
            if gain > Fraction(solution["gap"]) + Fraction(1, grid):
                problems.append(f"{agent} gains {float(gain)} at {point}")
        return problems

    def check(payloads):
        payoff_only, weighted = payloads
        problems = []
        sols = payoff_only["solutions"]
        if [s["params"] for s in sols] != [dominant]:
            problems.append(f"payoff-only solutions {sols}")
        for sol in sols:
            problems += gains(ball, sol, lambda v, a: ref.utility(
                ball, v, a, pay_h, one))
        if not weighted["solutions"]:
            problems.append("no responsibility-weighted solution")
        for sol in weighted["solutions"]:
            problems += gains(rounds, sol, lambda v, a: ref.utility(
                rounds, v, a, resp_h, one, one, one, "pi_mix", query))
        return problems

    b, r = str(ball_path), str(rounds_path)
    return Request(
        [(["ne", "--model", b, "--horizon", str(pay_h), "--lambda1", "1",
           "--lambda2", "0", "--seed", seed], 0),
         (["ne", "--model", r, "--horizon", str(resp_h), "--lambda1", "1",
           "--lambda2", "1", "--theta", "1", "--plan", "pi_mix",
           "--formula", outcome, "--seed", seed], 0)],
        check, [b, r], [(r, outcome, "path")])


def simulate(rng: random.Random, root: Path, out: Path,
             smoke: bool) -> Request:
    # The CAR estimate looks 3 steps ahead: its guard is decided by exact
    # witness enumeration, which at 6 steps would put a quarter of the
    # request into polyarith and spoil this workload as the control.
    k, car_k, samples = (3, 2, 20_000) if smoke else (6, 3, 200_000)
    label = rng.choice(sorted(ROUND))
    agent = rng.choice(("A1", "A2"))
    seed = str(rng.randint(1, 9999))
    model = ball_rounds_with_plan(root, out, rng, k, label)
    game = ref.parse_game(model.read_text())
    # The label's round has probability 1/4 at every seed, so the share of
    # satisfying samples, and with it the classification work, is the same.
    catcher = Fraction(rng.randint(1, 49), 100)
    other = Fraction(1, 4) / (1 - catcher)
    # x1, x2 are the skip probabilities; score1 needs A1 to catch and A2 to
    # skip, score2 the reverse.
    x1, x2 = (catcher, other) if label == "score1" else (other, catcher)
    binds = {"x1": x1, "x2": x2}
    p = ref.probability(game, binds, ref.eventually(game, k, [label]))
    car_query = ref.eventually(game, car_k, [label])
    p_car = ref.probability(game, binds, car_query)
    car = ref.degree(game, binds, "CAR", agent, "pi_bench", car_query).value
    path, car_path = f"F<={k} {label}", f"F<={car_k} {label}"
    m = str(model)

    def within(name, payload, exact, sigma):
        got = payload["estimate"]
        if payload["samples"] != samples or abs(got - exact) > 4 * sigma:
            return [f"{name} estimate {got}, exact {float(exact)}, "
                    f"sigma {sigma}"]
        return []

    def check(payloads):
        prob, degree = payloads
        # The CAR estimate is a share of the satisfying samples.
        return (within("P", prob, p, math.sqrt(p * (1 - p) / samples))
                + within("CAR", degree, car,
                         math.sqrt(car * (1 - car) / (samples * p_car))))

    common = ["--model", m, "--bind", f"x1={x1}", "--bind", f"x2={x2}",
              "--samples", str(samples), "--seed", seed]
    return Request(
        [(["simulate", "--formula", path] + common, 0),
         (["simulate", "--formula", car_path] + common
          + ["--kind", "CAR", "--agent", agent, "--plan", "pi_bench"], 0)],
        check, [m], [(m, path, "path"), (m, car_path, "path")])


WORKLOADS = {w.name: w for w in (
    Workload("check-deep", "2-variable symbolic P, CAR and CPR at k=5: 4^k "
             "histories of small polynomials, history enumeration bound",
             check_deep),
    Workload("check-wide", "10-parameter symbolic P at k=5: few histories "
             "but ~1000-term polynomials, multiply/add on large operands",
             check_wide),
    Workload("check-grid", "evaluated coalition check at grid 50: one "
             "polynomial evaluated thousands of times in the grid search",
             check_grid),
    Workload("ne-synth", "payoff-only and responsibility-weighted ne: "
             "support enumeration, utilities, Newton and verification",
             ne_synth),
    Workload("simulate", "Monte-Carlo P (6 steps) and CAR (3 steps) at 200k "
             "samples: numpy sampler and witness classification, the "
             "control with little symbolic work",
             simulate),
)}

"""Exact reference evaluation of bounded queries, apart from respgames.

Everything here works on the explicit game read from the model text (states,
joint actions, transition table, labels, rewards, plans) at one bound
valuation, in `fractions.Fraction`.  Nothing is imported from respgames: the
model text is parsed by a small parser of its own, path probabilities and
degrees come from forward passes over (state, reachable-set) layers instead
of history enumeration, and the program's rendered polynomials and rational
functions are evaluated from their text.

The semantics reproduced are the ones the README states:

- `phi U<=k psi` and `X phi` are measured by minimal witnesses: a prefix
  satisfies at the first psi-state (phi holding strictly before), and
  violates where it can neither continue nor satisfy, or at depth k;
- CAR counts the satisfying witnesses whose action prefix extends to a plan
  that agrees with the anchor plan on the agent's own actions, over all
  satisfying witnesses; its guard is that some violating witness exists;
- CPR counts the violating witnesses whose prefix extends to a plan that
  agrees with the anchor on every other coalition agent, over all violating
  witnesses; its guard is that some satisfying witness agrees with the
  anchor on the whole coalition;
- a degree whose guard is down is 0, and so is one whose denominator mass
  vanishes at the valuation;
- the payoff of horizon H sums, over every history of H steps, each step's
  own transition entry times that step's reward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping


@dataclass(frozen=True)
class Game:
    """The explicit game of a model file."""

    agents: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    shared: bool
    available: Mapping[tuple[str, str], tuple[str, ...]]
    delta: Mapping[tuple[str, tuple[str, ...]], Mapping[str, Fraction]]
    labels: Mapping[str, frozenset[str]]
    action_reward: Mapping[str, Mapping[str, Fraction]]
    state_reward: Mapping[str, Mapping[str, Fraction]]
    plans: Mapping[str, tuple[str, tuple[tuple[str, ...], ...]]]
    # (agent, state or None when shared, action) -> free parameter name
    param_names: Mapping[tuple[str, str | None, str], str]

    def joints(self, state: str) -> list[tuple[str, ...]]:
        return list(product(*(self.available[(a, state)]
                              for a in self.agents)))

    def scope_actions(self, agent: str, scope_state: str | None):
        return self.available[(agent, scope_state or self.states[0])]

    def free_params(self) -> list[str]:
        """Free parameter names, in file order of scopes and actions."""
        return list(self.param_names.values())

    def states_with(self, labels) -> frozenset[str]:
        labels = set(labels)
        return frozenset(s for s in self.states if self.labels[s] & labels)


def parse_game(text: str) -> Game:
    """Parse the model file format (see models/*.game) into a Game."""
    agents: list[str] = []
    states: list[str] = []
    initial = None
    shared = False
    declared: dict[tuple[str, str | None, str], str] = {}
    labels: dict[str, frozenset[str]] = {}
    available: dict[tuple[str, str], tuple[str, ...]] = {}
    delta: dict = {}
    action_reward: dict[str, dict[str, Fraction]] = {}
    state_reward: dict[str, dict[str, Fraction]] = {}
    plans: dict = {}

    def joint(body: str) -> tuple[str, ...]:
        return tuple(a.strip() for a in body.split(","))

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        words = head.split()
        key = words[0]
        if key == "agents":
            agents = rest.split()
        elif key == "states":
            states = rest.split()
        elif key == "init":
            initial = rest.strip()
        elif key == "params":
            shared = rest.strip() == "shared"
        elif key == "param":
            name = words[1]
            tail = rest.replace("@", " ").split()
            agent, action = tail[0], tail[1]
            declared[(agent, tail[2] if len(tail) > 2 else None,
                      action)] = name
        elif key == "labels":
            for m in re.finditer(r"(\w+)\s*\{([^}]*)\}", rest):
                labels[m.group(1)] = frozenset(m.group(2).split())
        elif key == "actions":
            available[(words[1], words[3])] = tuple(rest.split())
        elif key == "trans":
            m = re.fullmatch(r"trans\s+(\w+)\s*\(([^)]*)\)\s*->\s*\{(.*)\}",
                             line)
            dist: dict[str, Fraction] = {}
            for chunk in m.group(3).split(","):
                target, prob = (p.strip() for p in chunk.split(":"))
                dist[target] = dist.get(target, Fraction(0)) + Fraction(prob)
            delta[(m.group(1), joint(m.group(2)))] = dist
        elif key == "reward":
            agent, kind, name = words[1], words[2], words[3]
            table = action_reward if kind == "action" else state_reward
            table.setdefault(agent, {})[name] = Fraction(rest.strip())
        elif key == "plan":
            m = re.fullmatch(r"plan\s+(\w+)\s*@\s*(\w+)\s*:\s*(.+)", line)
            steps = tuple(joint(s) for s in re.findall(r"\(([^)]*)\)",
                                                       m.group(3)))
            plans[m.group(1)] = (m.group(2), steps)
        else:
            raise ValueError(f"unknown model directive '{key}'")

    # Free parameters: the declared ones, else every action of a scope but
    # the lexicographically last, named x_<agent>[_<state>]_<action>.
    param_names: dict[tuple[str, str | None, str], str] = {}
    scope_states = [None] if shared else states
    for agent in agents:
        for st in scope_states:
            actions = available[(agent, st or states[0])]
            mine = {a: n for (ag, s, a), n in declared.items()
                    if ag == agent and s == st}
            if mine:
                free = [a for a in actions if a in mine]
            else:
                dependent = sorted(actions)[-1]
                free = [a for a in actions if a != dependent]
            for action in free:
                default = (f"x_{agent}_{action}" if st is None
                           else f"x_{agent}_{st}_{action}")
                param_names[(agent, st, action)] = mine.get(action, default)
    return Game(tuple(agents), tuple(states), initial, shared, available,
                delta, {s: labels.get(s, frozenset()) for s in states},
                action_reward, state_reward, plans, param_names)


# -- strategies ---------------------------------------------------------------


class Strategy:
    """Action probabilities of a valuation of the free parameters."""

    def __init__(self, game: Game, valuation: Mapping[str, Fraction]):
        self.game = game
        self._prob: dict[tuple[str, str | None, str], Fraction] = {}
        scope_states = [None] if game.shared else game.states
        for agent in game.agents:
            for st in scope_states:
                actions = game.scope_actions(agent, st)
                names = {a: n for a in actions
                         if (n := game.param_names.get((agent, st, a)))}
                free = {a: Fraction(valuation[n]) for a, n in names.items()}
                rest = 1 - sum(free.values())
                for a in actions:
                    p = free.get(a, rest)
                    if p < 0 or p > 1:
                        raise ValueError(f"inadmissible valuation: {agent} "
                                         f"plays {a} with probability {p}")
                    self._prob[(agent, st, a)] = p

    @staticmethod
    def uniform(game: Game) -> "Strategy":
        """Every action of every scope equally likely (all paths positive)."""
        val = {}
        for (agent, st, _), name in game.param_names.items():
            val[name] = Fraction(1, len(game.scope_actions(agent, st)))
        return Strategy(game, val)

    def joint(self, state: str, joint: tuple[str, ...]) -> Fraction:
        p = Fraction(1)
        for agent, action in zip(self.game.agents, joint):
            p *= self._prob[(agent, None if self.game.shared else state,
                             action)]
        return p


# -- path formulas ------------------------------------------------------------


@dataclass(frozen=True)
class PathQuery:
    """`hold U<=k goal`, or `X goal` when k is None, over state sets."""

    hold: frozenset[str]
    goal: frozenset[str]
    k: int | None

    @property
    def depth(self) -> int:
        return 1 if self.k is None else self.k


def eventually(game: Game, k: int, labels) -> PathQuery:
    """F<=k (l1 | l2 | ...)."""
    return PathQuery(frozenset(game.states), game.states_with(labels), k)


def next_(game: Game, labels) -> PathQuery:
    """X (l1 | l2 | ...)."""
    return PathQuery(frozenset(game.states), game.states_with(labels), None)


class PlanClass:
    """Membership of action prefixes in a plan's coalition class.

    A prefix belongs when every step gives each coalition agent the anchor's
    action and every other agent an action available at all states the
    prefix can be in, and the prefix extends to the anchor's full length the
    same way.
    """

    def __init__(self, game: Game, plan: tuple[tuple[str, ...], ...],
                 coalition: frozenset[str]):
        self.game = game
        self.plan = plan
        self.coalition = coalition
        self._extendable: dict = {}

    def step(self, j: int, reach: frozenset[str], joint):
        """The reachable set after `joint` at step j, or None if outside."""
        if j >= len(self.plan):
            return None
        game = self.game
        for idx, agent in enumerate(game.agents):
            if agent in self.coalition and joint[idx] != self.plan[j][idx]:
                return None
            if any(joint[idx] not in game.available[(agent, s)]
                   for s in reach):
                return None
        return frozenset(t for s in reach
                         for t, p in game.delta[(s, joint)].items() if p > 0)

    def accepts(self, j: int, reach: frozenset[str]) -> bool:
        """Does a prefix of j steps ending in `reach` extend to a member?"""
        key = (j, reach)
        if key not in self._extendable:
            if j == len(self.plan):
                ok = True
            else:
                some = next(iter(reach))
                ok = any((after := self.step(j, reach, joint)) is not None
                         and self.accepts(j + 1, after)
                         for joint in self.game.joints(some))
            self._extendable[key] = ok
        return self._extendable[key]


def witness_mass(game: Game, strat: Strategy, start: str, query: PathQuery,
                 members: PlanClass | None = None
                 ) -> tuple[Fraction, Fraction]:
    """(satisfying, violating) minimal-witness mass from `start`.

    With `members`, only witnesses whose action prefix lies in the class
    count.  A forward pass over layers keyed by (state, reachable set).
    """
    sat = viol = Fraction(0)
    reach = None if members is None else frozenset([start])
    layer: dict[tuple[str, frozenset | None], Fraction] = {
        (start, reach): Fraction(1)}
    for j in range(query.depth + 1):
        nxt: dict = {}
        for (state, reach), mass in layer.items():
            good = state in query.goal
            if query.k is None:
                done = j == 1
            else:
                done = good or state not in query.hold or j == query.k
            if done:
                if members is None or members.accepts(j, reach):
                    if good:
                        sat += mass
                    else:
                        viol += mass
                continue
            for joint in game.joints(state):
                pj = strat.joint(state, joint)
                after = None
                if members is not None:
                    after = members.step(j, reach, joint)
                    if after is None:
                        continue
                for target, p in game.delta[(state, joint)].items():
                    if p == 0:
                        continue
                    key = (target, after)
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * pj * p
        layer = nxt
    return sat, viol


def probability(game: Game, valuation: Mapping[str, Fraction],
                query: PathQuery, start: str | None = None) -> Fraction:
    """P[query] from `start` (default: the initial state)."""
    sat, _ = witness_mass(game, Strategy(game, valuation),
                          start or game.initial, query)
    return sat


@dataclass(frozen=True)
class Degree:
    """A degree's numerator and denominator masses and its guard."""

    numerator: Fraction
    denominator: Fraction
    kappa: bool

    @property
    def value(self) -> Fraction:
        if not self.kappa or self.denominator == 0:
            return Fraction(0)
        return self.numerator / self.denominator


def degree(game: Game, valuation: Mapping[str, Fraction] | Strategy,
           kind: str, agent: str, plan_name: str, query: PathQuery,
           coalition=None) -> Degree:
    """CAR or CPR of `agent` for `query` under a declared plan."""
    strat = (valuation if isinstance(valuation, Strategy)
             else Strategy(game, valuation))
    start, steps = game.plans[plan_name]
    if len(steps) < query.depth:
        raise ValueError("plan shorter than the outcome's horizon")
    steps = steps[:query.depth]
    coalition = frozenset(coalition or game.agents)
    uniform = Strategy.uniform(game)
    sat, viol = witness_mass(game, strat, start, query)
    if kind == "CAR":
        own = PlanClass(game, steps, frozenset([agent]))
        num, _ = witness_mass(game, strat, start, query, own)
        _, any_viol = witness_mass(game, uniform, start, query)
        return Degree(num, sat, any_viol > 0)
    others = PlanClass(game, steps, coalition - {agent})
    _, num = witness_mass(game, strat, start, query, others)
    whole = PlanClass(game, steps, coalition)
    achievable, _ = witness_mass(game, uniform, start, query, whole)
    return Degree(num, viol, achievable > 0)


def payoff(game: Game, valuation: Mapping[str, Fraction] | Strategy,
           agent: str, horizon: int, start: str | None = None) -> Fraction:
    """Sum over all H-step histories of each step's entry times its reward.

    A step from s taken after j steps appears in (number of j-step prefixes
    ending in s) x (number of continuations of the remaining steps)
    histories, so the sum is carried by integer history counts.
    """
    strat = (valuation if isinstance(valuation, Strategy)
             else Strategy(game, valuation))
    start = start or game.initial
    arcs = {s: [(joint, t) for joint in game.joints(s)
                for t, p in game.delta[(s, joint)].items() if p > 0]
            for s in game.states}
    # continuations[n][s]: number of n-step histories from s.
    continuations = [{s: 1 for s in game.states}]
    for _ in range(horizon):
        last = continuations[-1]
        continuations.append({s: sum(last[t] for _, t in arcs[s])
                              for s in game.states})
    act = game.action_reward.get(agent, {})
    st_reward = game.state_reward.get(agent, {})
    idx = game.agents.index(agent)
    prefixes = {start: 1}
    total = Fraction(0)
    for j in range(horizon):
        nxt: dict[str, int] = {}
        for s, count in prefixes.items():
            for joint, t in arcs[s]:
                reward = act.get(joint[idx], 0) + st_reward.get(s, 0)
                if reward:
                    entry = strat.joint(s, joint) * game.delta[(s, joint)][t]
                    total += (count * continuations[horizon - j - 1][t]
                              * entry * reward)
                nxt[t] = nxt.get(t, 0) + count
        prefixes = nxt
    return total


def utility(game: Game, valuation: Mapping[str, Fraction], agent: str,
            horizon: int, lambda1: Fraction, lambda2: Fraction = Fraction(0),
            theta: Fraction = Fraction(1), plan_name: str | None = None,
            query: PathQuery | None = None) -> Fraction:
    """lambda1 * payoff - lambda2 * (CAR + theta * CPR)."""
    strat = Strategy(game, valuation)
    total = lambda1 * payoff(game, strat, agent, horizon) if lambda1 else 0
    if lambda2:
        resp = degree(game, strat, "CAR", agent, plan_name, query).value
        if theta:
            resp += theta * degree(game, strat, "CPR", agent, plan_name,
                                   query).value
        total -= lambda2 * resp
    return Fraction(total)


def best_gain(game: Game, valuation: Mapping[str, Fraction], agent: str,
              grid: int, value: Callable[[dict], Fraction]) -> Fraction:
    """Largest gain of `agent` over `valuation` on a grid of its parameters.

    Every own free parameter ranges over multiples of 1/grid, keeping each
    scope's free parameters summing to at most 1.
    """
    own = {}
    for (ag, st, _), name in game.param_names.items():
        if ag == agent:
            own.setdefault(st, []).append(name)
    steps = [Fraction(i, grid) for i in range(grid + 1)]
    per_scope = [[dict(zip(names, combo))
                  for combo in product(steps, repeat=len(names))
                  if sum(combo) <= 1]
                 for names in own.values()]
    here = value(dict(valuation))
    best = here
    for choice in product(*per_scope):
        point = dict(valuation)
        for part in choice:
            point.update(part)
        best = max(best, value(point))
    return best - here


# -- the program's rendered output --------------------------------------------


def eval_rendered(text: str, valuation: Mapping[str, Fraction]) -> Fraction:
    """Evaluate a rendered polynomial or `num / den` rational function.

    Coefficients render as `3/4` with no spaces, so a top-level ` / ` is
    the rational-function bar.
    """
    num, bar, den = text.partition(" / ")
    value = _eval_poly(num, valuation)
    if bar:
        value /= _eval_poly(den, valuation)
    return value


def rendered_denominator(text: str) -> str | None:
    _, bar, den = text.partition(" / ")
    return den if bar else None


def _eval_poly(text: str, valuation: Mapping[str, Fraction]) -> Fraction:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = re.split(r" ([+-]) ", text)
    total = Fraction(0)
    for i in range(0, len(parts), 2):
        sign = -1 if i and parts[i - 1] == "-" else 1
        term = parts[i]
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        value = Fraction(sign)
        for factor in term.split("*"):
            base, _, exp = factor.partition("^")
            if re.fullmatch(r"\d+(/\d+)?", base):
                value *= Fraction(base)
            else:
                value *= Fraction(valuation[base]) ** int(exp or 1)
        total += value
    return total

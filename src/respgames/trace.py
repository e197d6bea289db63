"""Plans, compatibility tags and payoffs; history enumeration as reference.

A history alternates states and joint actions; its probability is the
product of the parametric transition entries along its steps, read from
`Psmas.moves` (every step's entry is not identically zero).  A plan is a
pure joint-action sequence from a start state; two plans are
coalition-compatible when they agree on every coalition agent's action at
every step.

Queries do not enumerate: `CompatTags` decides class membership one joint
action at a time, so the checker's forward pass can carry it as a tag, and
`total_payoff` sums payoffs from per-state history counts.  Both passes
count the work they do and stop past MAX_PASS_WORK.  `History`,
`enumerate_histories`, `plan_histories`, `compatible_plans` and `payoff`
are the unguarded reference the tests compare them with; no query calls
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ModelError, ResourceLimitError
from .model import JointAction, Psmas, RewardStructure
from .polyarith import Polynomial

# The most work one forward pass may do: term pairs multiplied by a pass
# that sums polynomials, (cell, joint action, successor) expansions by one
# that only counts.  Checked after each cell, so a refused query has done
# at most this much work and one cell's more.
MAX_PASS_WORK = 10_000_000


def check_work(work: int, unit: str) -> None:
    """Refuse a pass whose `work`, counted in `unit`, is past the cap."""
    if work > MAX_PASS_WORK:
        raise ResourceLimitError(
            f"the pass did {work} {unit}, over the {MAX_PASS_WORK} cap")


@dataclass(frozen=True)
class History:
    """A finite state/joint-action alternation with polynomial probability
    (the unguarded test reference; queries do not build histories)."""

    states: tuple[str, ...]
    actions: tuple[JointAction, ...]
    step_probs: tuple[Polynomial, ...]
    probability: Polynomial

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("history needs |states| = |actions| + 1")

    @property
    def steps(self) -> int:
        return len(self.actions)

    @staticmethod
    def single(state: str) -> "History":
        return History((state,), (), (), Polynomial.one())

    def extend(self, joint: JointAction, target: str,
               step: Polynomial) -> "History":
        return History(self.states + (target,), self.actions + (joint,),
                       self.step_probs + (step,), self.probability * step)


@dataclass(frozen=True)
class Plan:
    """A pure joint plan: fixed joint actions for a fixed number of steps."""

    start: str
    steps: tuple[JointAction, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def truncated(self, length: int) -> "Plan":
        return Plan(self.start, self.steps[:length])


def plan_from_model(m: Psmas, name: str) -> Plan:
    decl = m.base.plans.get(name)
    if decl is None:
        raise ModelError(f"model declares no plan named '{name}'")
    start, steps = decl
    return Plan(start, steps)


def validate_plan(m: Psmas, plan: Plan) -> None:
    """Every joint action must be available at every state the plan can reach."""
    game = m.base
    if plan.start not in game.states:
        raise ModelError(f"plan starts at unknown state {plan.start}")
    for step_no, joint in enumerate(plan.steps, 1):
        if len(joint) != len(game.agents):
            raise ModelError(f"step {step_no} is not a joint action")
    fault = game.unavailable_step(plan.start, plan.steps)
    if fault is not None:
        step_no, agent, action, state = fault
        raise ModelError(f"plan step {step_no}: action {action} not "
                         f"available to {agent} at {state}")


@dataclass(frozen=True)
class CompatClass:
    """All plans that agree with the anchor on the coalition's actions
    (the unguarded test reference of `CompatTags`)."""

    anchor: Plan
    coalition: frozenset[str]
    members: tuple[Plan, ...]
    prefix_sets: tuple[frozenset[tuple[JointAction, ...]], ...] = field(
        repr=False, default=())

    def contains_action_prefix(self, actions: Sequence[JointAction]) -> bool:
        """Is this action prefix consistent with some member plan?"""
        j = len(actions)
        if j > len(self.anchor.steps):
            return False
        return tuple(actions) in self.prefix_sets[j]


def enumerate_histories(m: Psmas, state: str, depth: int) -> list[History]:
    """All histories of exactly `depth` steps from `state`.

    Per-step transition polynomials are not identically zero; for any
    admissible valuation the returned probabilities sum to 1.  The
    unguarded test reference: its cost grows with the number of histories.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    frontier = [History.single(state)]
    for _ in range(depth):
        nxt: list[History] = []
        for h in frontier:
            for joint, row in m.moves[h.states[-1]].items():
                for target, poly in row.items():
                    nxt.append(h.extend(joint, target, poly))
        frontier = nxt
    return frontier


def plan_histories(m: Psmas, plan: Plan) -> list[History]:
    """Histories consistent with a plan (branching over successors only);
    the unguarded test reference."""
    validate_plan(m, plan)
    frontier = [History.single(plan.start)]
    for joint in plan.steps:
        nxt: list[History] = []
        for h in frontier:
            for target, poly in m.moves[h.states[-1]][joint].items():
                nxt.append(h.extend(joint, target, poly))
        frontier = nxt
    return frontier


def _successor_set(moves, reachable: frozenset[str],
                   joint: JointAction) -> frozenset[str]:
    """The states `joint` can lead to from some state of `reachable`, by
    the `Psmas.moves` table `moves`."""
    return frozenset(target for state in reachable
                     for target in moves[state][joint])


class CompatTags:
    """Coalition-compatibility of action prefixes, decided step by step.

    The tag of an action prefix is the set of states the prefix can reach
    from the anchor's start, or the empty set once the prefix has left every
    member of `compatible_plans(m, plan, coalition)`.  The tag evolves
    deterministically with each joint action, so a forward pass can carry it
    beside the current state.  A prefix belongs to the class exactly when
    its tag is live: some full-length member extends it.
    """

    def __init__(self, m: Psmas, plan: Plan, coalition: Iterable[str]):
        coalition = frozenset(coalition)
        unknown = coalition - set(m.base.agents)
        if unknown:
            raise ModelError(f"unknown coalition agent {sorted(unknown)[0]}")
        validate_plan(m, plan)
        self.game, self.moves = m.base, m.moves
        self.plan = plan
        self.coalition = coalition
        self.start = frozenset({plan.start})
        self._pools: dict[tuple[frozenset[str], int],
                          tuple[tuple[str, ...], ...]] = {}
        self._live: dict[tuple[frozenset[str], int], bool] = {}

    def pools(self, tag: frozenset[str],
              depth: int) -> tuple[tuple[str, ...], ...]:
        """Each agent's allowed actions at step `depth` from the tag.

        Availability is intersected over the tag's states; coalition agents
        must play the anchor's action (an empty pool when they cannot).
        """
        key = (tag, depth)
        if key not in self._pools:
            anchor_joint = self.plan.steps[depth]
            pools = []
            for idx, agent in enumerate(self.game.agents):
                allowed = set(self.game.available[(agent, next(iter(tag)))])
                for state in tag:
                    allowed &= set(self.game.available[(agent, state)])
                if agent in self.coalition:
                    choice = anchor_joint[idx]
                    pools.append((choice,) if choice in allowed else ())
                else:
                    pools.append(tuple(sorted(allowed)))
            self._pools[key] = tuple(pools)
        return self._pools[key]

    def step(self, tag: frozenset[str], depth: int,
             joint: JointAction) -> frozenset[str]:
        """The tag after playing `joint` as step `depth` of the prefix."""
        if not tag or depth >= len(self.plan.steps):
            return frozenset()
        pools = self.pools(tag, depth)
        if all(action in pool for action, pool in zip(joint, pools)):
            return _successor_set(self.moves, tag, joint)
        return frozenset()

    def live(self, tag: frozenset[str], depth: int) -> bool:
        """Does some full-length member extend a `depth`-step prefix with
        this tag?"""
        if not tag:
            return False
        if depth == len(self.plan.steps):
            return True
        key = (tag, depth)
        if key not in self._live:
            self._live[key] = any(
                self.live(_successor_set(self.moves, tag, joint), depth + 1)
                for joint in itertools.product(*self.pools(tag, depth)))
        return self._live[key]


def compatible_plans(m: Psmas, plan: Plan,
                     coalition: Iterable[str]) -> CompatClass:
    """The coalition-compatibility equivalence class of a plan.

    Members agree with the anchor on every coalition agent's action at every
    step; agents outside the coalition range over all actions available along
    the states each candidate plan can reach.  The unguarded test reference
    of `CompatTags`: it lists every member.
    """
    coalition = frozenset(coalition)
    unknown = coalition - set(m.base.agents)
    if unknown:
        raise ModelError(f"unknown coalition agent {sorted(unknown)[0]}")
    validate_plan(m, plan)
    game = m.base
    members: list[tuple[JointAction, ...]] = []

    def grow(prefix: tuple[JointAction, ...], reachable: frozenset[str]):
        step_no = len(prefix)
        if step_no == len(plan.steps):
            members.append(prefix)
            return
        anchor_joint = plan.steps[step_no]
        pools: list[tuple[str, ...]] = []
        for idx, agent in enumerate(game.agents):
            allowed = set(game.available[(agent, next(iter(reachable)))])
            for state in reachable:
                allowed &= set(game.available[(agent, state)])
            if agent in coalition:
                choice = anchor_joint[idx]
                pools.append((choice,) if choice in allowed else ())
            else:
                pools.append(tuple(sorted(allowed)))
        for joint in itertools.product(*pools):
            nxt = frozenset(
                target
                for state in reachable
                for target, prob in game.moves[state][joint].items()
                if prob > 0)
            grow(prefix + (joint,), nxt)

    grow((), frozenset({plan.start}))
    plans = tuple(Plan(plan.start, steps) for steps in members)
    prefix_sets = tuple(
        frozenset(p.steps[:j] for p in plans)
        for j in range(len(plan.steps) + 1))
    return CompatClass(anchor=plan, coalition=coalition, members=plans,
                       prefix_sets=prefix_sets)


def payoff(h: History, r: RewardStructure) -> Polynomial:
    """Expected per-step payoff along a history.

    Each step contributes (action reward + state reward) weighted by that
    step's parametric transition entry.  The test reference of
    `total_payoff`.
    """
    total = Polynomial.zero()
    for j, joint in enumerate(h.actions):
        reward = r.step_reward(h.states[j], joint)
        if reward != 0:
            total = total + h.step_probs[j] * reward
    return total


def total_payoff(m: Psmas, r: RewardStructure, start: str, depth: int
                 ) -> Polynomial:
    """The sum of `payoff` over every history of `depth` steps from `start`,
    without listing them.

    A step from s under joint action a to t taken at position j lies in
    N_j(s) * C_{j+1}(t) histories, where N_j(s) counts the j-step prefixes
    from `start` that end in s and C_{j+1}(t) the continuations from t to
    the full depth.  The sum is therefore each transition entry times its
    step reward times an integer count: linear in the entries.  The counts
    grow to about 2 bits a step on the shipped models, so both sweeps
    charge each addition the machine words of the integers it adds, and
    count that work against MAX_PASS_WORK.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    work, unit = 0, "words added"
    prefixes: list[dict[str, int]] = [{start: 1}]
    for j in range(depth):
        nxt: dict[str, int] = {}
        for state, count in prefixes[j].items():
            for row in m.moves[state].values():
                for target in row:
                    nxt[target] = nxt.get(target, 0) + count
                    work += _words(count)
            check_work(work, unit)
        prefixes.append(nxt)

    # history counts of each rewarded step; its reward multiplies them once
    suffixes = dict.fromkeys(prefixes[depth], 1)
    counts: dict[tuple[str, JointAction, str], int] = {}
    for j in reversed(range(depth)):
        here: dict[str, int] = {}
        for state, count in prefixes[j].items():
            here[state] = 0
            for joint, row in m.moves[state].items():
                rewarded = r.step_reward(state, joint) != 0
                for target in row:
                    here[state] += suffixes[target]
                    work += _words(suffixes[target])
                    if rewarded:
                        key = (state, joint, target)
                        through = count * suffixes[target]
                        counts[key] = counts.get(key, 0) + through
                        work += _words(through)
            check_work(work, unit)
        suffixes = here

    total = Polynomial.zero()
    for (state, joint, target), count in counts.items():
        weight = r.step_reward(state, joint) * count
        total = total + m.moves[state][joint][target] * weight
    return total


def _words(n: int) -> int:
    """The machine words an addition of the integer n touches."""
    return n.bit_length() // 64 + 1

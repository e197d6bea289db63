"""Recursive formula evaluation over the parametric model.

Path probabilities use minimal-witness cylinder accounting: a prefix is a
satisfying witness of `X phi` when its one step lands in a phi-state, and of
`phi U<=k psi` when its last state is the first psi-state with phi holding
strictly before; a prefix is a violating witness at the first state where
neither continuing nor satisfying is possible, or at depth k.  Witness
cylinders are pairwise disjoint, so their probabilities sum to at most 1 at
every admissible valuation, and summing full-depth extensions reproduces the
same polynomials.

Witnesses are not listed one by one: a forward pass over cells (state,
compatibility tag) at each depth sums their probabilities, counts them and,
for rewards, weighs them, merging the histories that share a cell.
`_witnesses` keeps the history-by-history enumeration as the reference.

Degrees follow the two enumeration algorithms: the satisfying (violating)
witness sets are filtered by plan-compatibility classes, the kappa guard is
decided exactly (a count-only pass), and the result is the ratio of the two
probability polynomials as a rational function.  Queries either stay
symbolic (answers in the strategy parameters) or are evaluated at a bound
valuation; coalition quantifiers in evaluated mode are resolved by a grid
search with local refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (DegenerateQueryError, MissingParameterError,
                     UnsupportedQueryError)
from .logic import (And, Atom, CoalitionDegree, CoalitionProb,
                    CoalitionReward, CompareOp, DegreeKind, Next, Not,
                    PathFormula, StateFormula, TrueFormula, Until, horizon)
from .model import Psmas, RewardStructure, Scope
from .polyarith import ParamId, Polynomial, RationalFunction
from .trace import (CompatTags, History, Plan, guard_enumeration_volume,
                    plan_from_model)

SYMBOLIC = "symbolic"
EVALUATED = "evaluated"


@dataclass(frozen=True)
class QueryContext:
    """How to answer: symbolically, or evaluated at a parameter valuation."""

    mode: str = SYMBOLIC
    valuation: Mapping[ParamId, Fraction] | None = None
    grid_denominator: int = 50

    @staticmethod
    def symbolic() -> "QueryContext":
        return QueryContext()

    @staticmethod
    def evaluated(valuation: Mapping[ParamId, Fraction],
                  grid_denominator: int = 50) -> "QueryContext":
        return QueryContext(EVALUATED, dict(valuation), grid_denominator)

    @property
    def is_evaluated(self) -> bool:
        return self.mode == EVALUATED


@dataclass(frozen=True)
class ExtendedValue:
    """A finite rational function, or the reward operator's infinity."""

    finite: RationalFunction | None

    @staticmethod
    def of(value: RationalFunction) -> "ExtendedValue":
        return ExtendedValue(value)

    @staticmethod
    def infinite() -> "ExtendedValue":
        return ExtendedValue(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def render(self) -> str:
        return "inf" if self.is_infinite else self.finite.render()


@dataclass(frozen=True)
class DegreeResult:
    """A responsibility degree with its achievability/avoidability flag."""

    value: RationalFunction
    kappa: bool
    numerator_paths: int
    denominator_paths: int


@dataclass(frozen=True)
class Region:
    """An undecided symbolic comparison: `value cmp bound`."""

    value: RationalFunction | ExtendedValue
    cmp: CompareOp
    bound: Fraction

    def render(self) -> str:
        value = (self.value.render() if isinstance(self.value, ExtendedValue)
                 else self.value.render())
        bound = (str(self.bound.numerator) if self.bound.denominator == 1
                 else f"{self.bound.numerator}/{self.bound.denominator}")
        return f"{value} {self.cmp.value} {bound}"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a state-formula check: decided truth or a symbolic region."""

    holds: bool | None
    witness: dict | None = None
    region: Region | None = None
    warnings: tuple[str, ...] = ()


# -- state satisfaction --------------------------------------------------


def sat_state(m: Psmas, state: str, phi: StateFormula,
              ctx: QueryContext) -> bool:
    """Truth of a state formula at a state.

    Quantitative operators nested below boolean connectives require an
    evaluated context; propositional formulas work in either mode.
    """
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, Atom):
        return phi.name in m.base.labels.get(state, frozenset())
    if isinstance(phi, Not):
        return not sat_state(m, state, phi.body, ctx)
    if isinstance(phi, And):
        return (sat_state(m, state, phi.left, ctx)
                and sat_state(m, state, phi.right, ctx))
    if isinstance(phi, (CoalitionProb, CoalitionReward, CoalitionDegree)):
        if not ctx.is_evaluated:
            raise UnsupportedQueryError(
                "nested quantitative operators need bound parameters "
                "(evaluated mode)")
        result = check_formula(m, state, phi, ctx)
        return bool(result.holds)
    raise TypeError(f"not a state formula: {phi!r}")


def sat_set(m: Psmas, phi: StateFormula, ctx: QueryContext) -> frozenset[str]:
    """The states of the model satisfying a formula."""
    return frozenset(s for s in m.base.states if sat_state(m, s, phi, ctx))


# -- minimal witnesses ----------------------------------------------------


def sat_witnesses(m: Psmas, state: str, psi: PathFormula,
                  ctx: QueryContext) -> list[History]:
    """Minimal satisfying witness prefixes of a path formula from a state."""
    sats, _ = _witnesses(m, state, psi, ctx)
    return sats


def violation_witnesses(m: Psmas, state: str, psi: PathFormula,
                        ctx: QueryContext) -> list[History]:
    """Minimal violating witness prefixes (every extension violates)."""
    _, viols = _witnesses(m, state, psi, ctx)
    return viols


def _witnesses(m: Psmas, state: str, psi: PathFormula,
               ctx: QueryContext) -> tuple[list[History], list[History]]:
    guard_enumeration_volume(m, horizon(psi))
    if isinstance(psi, Next):
        good = _sat_cache(m, psi.body, ctx)
        sats: list[History] = []
        viols: list[History] = []
        root = History.single(state)
        for joint in m.base.joint_actions(state):
            for target, poly in m.successors(state, joint):
                h = root.extend(joint, target, poly)
                (sats if good(target) else viols).append(h)
        return sats, viols
    if isinstance(psi, Until):
        hold = _sat_cache(m, psi.left, ctx)
        goal = _sat_cache(m, psi.right, ctx)
        sats, viols = [], []
        frontier = [History.single(state)]
        for depth in range(psi.k + 1):
            nxt: list[History] = []
            for h in frontier:
                here = h.states[-1]
                if goal(here):
                    sats.append(h)
                elif not hold(here) or depth == psi.k:
                    viols.append(h)
                else:
                    for joint in m.base.joint_actions(here):
                        for target, poly in m.successors(here, joint):
                            nxt.append(h.extend(joint, target, poly))
            frontier = nxt
        return sats, viols
    raise TypeError(f"not a path formula: {psi!r}")


def _sat_cache(m: Psmas, phi: StateFormula,
               ctx: QueryContext) -> Callable[[str], bool]:
    cache: dict[str, bool] = {}

    def check(state: str) -> bool:
        if state not in cache:
            cache[state] = sat_state(m, state, phi, ctx)
        return cache[state]

    return check


def _mass(witnesses: Iterable[History]) -> Polynomial:
    total = Polynomial.zero()
    for w in witnesses:
        total = total + w.probability
    return total


@dataclass
class _Sum:
    """Summed probability, history count and reward-weighted probability
    (the probability times the reward accumulated so far) of histories."""

    mass: Polynomial = field(default_factory=Polynomial.zero)
    paths: int = 0
    reward: Polynomial = field(default_factory=Polynomial.zero)

    def add(self, other: "_Sum") -> None:
        self.mass = self.mass + other.mass
        self.paths += other.paths
        self.reward = self.reward + other.reward


_Sums = dict[tuple[bool, bool], _Sum]


def _witness_pass(m: Psmas, state: str, psi: PathFormula, ctx: QueryContext,
                  tags: CompatTags | None = None, weigh: bool = True,
                  r: RewardStructure | None = None) -> _Sums:
    """Sums over the minimal witnesses of psi from state, in one forward pass.

    A cell is (state, tag) at one depth, where the tag is the `tags`
    compatibility tag of the action prefix (None without tags).  It holds
    the `_Sum` of the open histories that reach it; histories sharing a cell
    continue alike, so they merge by addition.  Returns the witness sums
    keyed (satisfied, compatible); without tags every witness is
    compatible.  `weigh=False` counts histories only, and `r` adds the
    reward-weighted mass.  Equal to summing `_witnesses` one by one.
    """
    guard_enumeration_volume(m, horizon(psi))
    classify, k = _classifier(m, psi, ctx)
    out = {key: _Sum() for key in itertools.product((True, False),
                                                    repeat=2)}
    start_tag = tags.start if tags is not None else None
    cells = {(state, start_tag): _Sum(Polynomial.one(), 1)}
    for depth in range(k + 1):
        nxt: dict[tuple[str, frozenset[str] | None], _Sum] = {}
        for (here, tag), cell in cells.items():
            verdict = classify(depth, here)
            if verdict is not None:
                compatible = tags is None or tags.live(tag, depth)
                out[verdict, compatible].add(cell)
                continue
            for joint in m.base.joint_actions(here):
                nxt_tag = (tags.step(tag, depth, joint) if tags is not None
                           else None)
                gain = r.step_reward(here, joint) if r is not None else 0
                for target, poly in m.successors(here, joint):
                    into = nxt.setdefault((target, nxt_tag), _Sum())
                    into.paths += cell.paths
                    if not weigh:
                        continue
                    step = cell.mass * poly
                    into.mass = into.mass + step
                    if r is not None:
                        into.reward = into.reward + cell.reward * poly
                        if gain != 0:
                            into.reward = into.reward + step * gain
        cells = nxt
    return out


def _classifier(m: Psmas, psi: PathFormula, ctx: QueryContext
                ) -> tuple[Callable[[int, str], bool | None], int]:
    """Where a prefix of psi becomes a witness: (depth, last state) ->
    True (satisfying), False (violating) or None (still open), and the
    deepest depth at which prefixes are classified."""
    if isinstance(psi, Next):
        good = _sat_cache(m, psi.body, ctx)
        return (lambda depth, here: None if depth == 0 else good(here)), 1
    if isinstance(psi, Until):
        hold = _sat_cache(m, psi.left, ctx)
        goal = _sat_cache(m, psi.right, ctx)

        def classify(depth: int, here: str) -> bool | None:
            if goal(here):
                return True
            if not hold(here) or depth == psi.k:
                return False
            return None

        return classify, psi.k
    raise TypeError(f"not a path formula: {psi!r}")


def _either(sums: _Sums, sat: bool) -> _Sum:
    """All witnesses of one outcome, compatible or not."""
    total = _Sum()
    total.add(sums[sat, True])
    total.add(sums[sat, False])
    return total


# -- probability operator --------------------------------------------------


def path_sat_prob(m: Psmas, state: str, psi: PathFormula,
                  ctx: QueryContext | None = None) -> RationalFunction:
    """Probability of satisfying a path formula, as a rational function.

    The sum of minimal-witness cylinder probabilities; state subformulas are
    evaluated recursively at the states they label.
    """
    ctx = ctx or QueryContext.symbolic()
    return RationalFunction(_witness_pass(m, state, psi, ctx)[True, True].mass)


def check_prob(m: Psmas, state: str, f: CoalitionProb,
               ctx: QueryContext) -> CheckResult:
    """Decide `<A> P cmp p [ psi ]` (or return the symbolic region).

    Evaluated mode searches the coalition's parameters for a witness while
    the context fixes every non-coalition parameter.
    """
    value = path_sat_prob(m, state, f.body, ctx)
    if not ctx.is_evaluated:
        return CheckResult(holds=None, region=Region(value, f.cmp, f.bound))

    def finite_px(v: Mapping[ParamId, Fraction]) -> Fraction | None:
        return value.evaluate(v)

    return _exists_search(m, f.coalition, ctx, finite_px, f.cmp, f.bound)


# -- reward operator --------------------------------------------------------


def reward_value(m: Psmas, state: str, target: StateFormula, k: int,
                 r: RewardStructure,
                 ctx: QueryContext | None = None) -> ExtendedValue:
    """Expected accumulated reward to the first target state within k steps.

    Infinite when the never-reaching paths have probability not identically
    zero (symbolic) or positive at the context valuation (evaluated);
    otherwise the sum over minimal reaching prefixes of prefix probability
    times the reward accumulated strictly before the target is hit.
    """
    ctx = ctx or QueryContext.symbolic()
    noreach, reach_reward = _reward_parts(m, state, target, k, r, ctx)
    if ctx.is_evaluated:
        if noreach.evaluate(ctx.valuation) > 0:
            return ExtendedValue.infinite()
    elif not noreach.is_zero:
        return ExtendedValue.infinite()
    return ExtendedValue.of(RationalFunction(reach_reward))


def _reward_parts(m: Psmas, state: str, target: StateFormula, k: int,
                  r: RewardStructure,
                  ctx: QueryContext) -> tuple[Polynomial, Polynomial]:
    """The probability of missing the target within k steps, and the
    reward-weighted probability of the reaching prefixes."""
    sums = _witness_pass(m, state, Until(TrueFormula(), k, target), ctx,
                         r=r)
    return sums[False, True].mass, sums[True, True].reward


def check_reward(m: Psmas, state: str, f: CoalitionReward,
                 ctx: QueryContext) -> CheckResult:
    """Decide `<A> R cmp q [ F<=k phi @ agent ]` (or return the region)."""
    r = m.base.rewards.get(f.agent)
    if r is None:
        r = RewardStructure(agent=f.agent,
                            agent_index=m.base.agent_index(f.agent))
    if not ctx.is_evaluated:
        value = reward_value(m, state, f.target, f.k, r, ctx)
        return CheckResult(holds=None, region=Region(value, f.cmp, f.bound))

    noreach, reach_reward = _reward_parts(m, state, f.target, f.k, r, ctx)

    def finite_rx(v: Mapping[ParamId, Fraction]) -> Fraction | None:
        if noreach.evaluate(v) > 0:
            return None  # infinite
        return reach_reward.evaluate(v)

    return _exists_search(m, f.coalition, ctx, finite_rx, f.cmp, f.bound)


# -- degree operators --------------------------------------------------------


def car_degree(m: Psmas, state: str, agent: str, plan: Plan,
               psi: PathFormula, coalition: Iterable[str] | None = None,
               ctx: QueryContext | None = None) -> DegreeResult:
    """Degree of causal active responsibility of `agent` for outcome psi.

    Numerator: satisfying witnesses compatible with the plans that fix the
    agent's own actions.  Denominator: all satisfying witnesses.  kappa is 1
    exactly when some behaviour violates the outcome (avoidability); a false
    kappa forces the zero function.
    """
    ctx = ctx or QueryContext.symbolic()
    coalition = frozenset(coalition) if coalition is not None else frozenset(
        m.base.agents)
    _require_member(agent, coalition)
    depth = horizon(psi)
    plan = _fit_plan(plan, depth)
    guard_enumeration_volume(m, depth)  # before the plan's checks
    sums = _witness_pass(m, state, psi, ctx, CompatTags(m, plan, {agent}))
    numerator, sats = sums[True, True], _either(sums, True)
    kappa = _either(sums, False).paths > 0
    return _degree_result(numerator.mass, sats.mass, kappa,
                          numerator.paths, sats.paths)


def cpr_degree(m: Psmas, state: str, agent: str, plan: Plan,
               psi: PathFormula, coalition: Iterable[str] | None = None,
               ctx: QueryContext | None = None) -> DegreeResult:
    """Degree of causal passive responsibility of `agent` for outcome psi.

    Numerator: violating witnesses compatible with the plans that fix every
    other coalition agent's actions.  Denominator: all violating witnesses.
    kappa is 1 exactly when the outcome is achievable by plans that agree
    with the anchor on the whole coalition.
    """
    ctx = ctx or QueryContext.symbolic()
    coalition = frozenset(coalition) if coalition is not None else frozenset(
        m.base.agents)
    _require_member(agent, coalition)
    depth = horizon(psi)
    plan = _fit_plan(plan, depth)
    guard_enumeration_volume(m, depth)  # before the plan's checks
    others = CompatTags(m, plan, coalition - {agent})
    full = CompatTags(m, plan, coalition)
    sums = _witness_pass(m, state, psi, ctx, others)
    numerator, viols = sums[False, True], _either(sums, False)
    kappa = _achievable(m, state, psi, ctx, full)
    return _degree_result(numerator.mass, viols.mass, kappa,
                          numerator.paths, viols.paths)


def _achievable(m: Psmas, state: str, psi: PathFormula, ctx: QueryContext,
                full: CompatTags) -> bool:
    """CPR's kappa: does some satisfying witness agree with the plans of
    the whole coalition's class?  Counts only."""
    return _witness_pass(m, state, psi, ctx, full, weigh=False)[
        True, True].paths > 0


def degree_guard(m: Psmas, state: str, plan: Plan, psi: PathFormula,
                 kind: DegreeKind,
                 coalition: Iterable[str] | None = None,
                 ctx: QueryContext | None = None) -> bool:
    """The kappa flag of a CAR or CPR degree alone, from counts only.

    Rejects plans shorter than the outcome's horizon like the degrees do.
    """
    ctx = ctx or QueryContext.symbolic()
    coalition = frozenset(coalition) if coalition is not None else frozenset(
        m.base.agents)
    plan = _fit_plan(plan, horizon(psi))
    if kind is DegreeKind.CAR:
        sums = _witness_pass(m, state, psi, ctx, weigh=False)
        return _either(sums, False).paths > 0
    return _achievable(m, state, psi, ctx, CompatTags(m, plan, coalition))


def _require_member(agent: str, coalition: frozenset[str]) -> None:
    if agent not in coalition:
        raise UnsupportedQueryError(
            f"degree agent {agent} must belong to the coalition")


def _fit_plan(plan: Plan, depth: int) -> Plan:
    if len(plan.steps) < depth:
        raise UnsupportedQueryError(
            f"plan has {len(plan.steps)} steps but the outcome needs "
            f"{depth}")
    return plan.truncated(depth)


def _degree_result(num: Polynomial, den: Polynomial, kappa: bool,
                   num_paths: int, den_paths: int) -> DegreeResult:
    if not kappa:
        value = RationalFunction(Polynomial.zero())
    else:
        if den.is_zero:
            raise DegenerateQueryError(
                "degree denominator is identically zero while the guard "
                "condition holds")
        value = RationalFunction(num, den)
    return DegreeResult(value=value, kappa=kappa, numerator_paths=num_paths,
                        denominator_paths=den_paths)


def degree_value_at(result: DegreeResult,
                    valuation: Mapping[ParamId, Fraction]) -> Fraction:
    """Evaluate a degree at an admissible valuation.

    At points where the (unreduced) denominator vanishes the numerator
    vanishes too — no outcome mass, no responsibility share — so the value
    is 0 by convention.
    """
    if not result.kappa:
        return Fraction(0)
    den = result.value.den.evaluate(valuation)
    if den == 0:
        return Fraction(0)
    return result.value.num.evaluate(valuation) / den


def check_degree(m: Psmas, state: str, f: CoalitionDegree,
                 ctx: QueryContext) -> CheckResult:
    """Decide `<A> D cmp d [ CAR/CPR(i, plan, psi) ]` (or return the region)."""
    plan = plan_from_model(m, f.plan)
    fn = car_degree if f.kind is DegreeKind.CAR else cpr_degree
    result = fn(m, state, f.agent, plan, f.body, f.coalition, ctx)
    if not ctx.is_evaluated:
        return CheckResult(holds=None,
                           region=Region(result.value, f.cmp, f.bound))
    warnings = ()
    den = (result.value.den.evaluate(ctx.valuation) if result.kappa
           else Fraction(1))
    if result.kappa and den == 0:
        warnings = ("degree denominator has zero probability at this "
                    "valuation; value is 0 by convention",)
    value = degree_value_at(result, ctx.valuation)
    return CheckResult(holds=f.cmp.holds(value, f.bound),
                       witness=dict(ctx.valuation), warnings=warnings)


# -- formula dispatch ---------------------------------------------------------


def check_formula(m: Psmas, state: str, phi: StateFormula,
                  ctx: QueryContext) -> CheckResult:
    """Top-level state-formula check (boolean parts decided in both modes)."""
    if isinstance(phi, CoalitionProb):
        return check_prob(m, state, phi, ctx)
    if isinstance(phi, CoalitionReward):
        return check_reward(m, state, phi, ctx)
    if isinstance(phi, CoalitionDegree):
        return check_degree(m, state, phi, ctx)
    return CheckResult(holds=sat_state(m, state, phi, ctx))


# -- existential coalition search ---------------------------------------------

MAX_GRID_POINTS = 2_000_000


def simplex_grid(m: Psmas, scopes: Sequence[Scope], denominator: int
                 ) -> Iterator[dict[ParamId, Fraction]]:
    """The grid points of the scopes' free parameters at step 1/denominator.

    Per scope the free parameters sum to at most 1; points come in
    lexicographic order, scope by scope.  The points are counted before any
    is made: over MAX_GRID_POINTS raises UnsupportedQueryError.
    """
    free = [m.free_params(scope) for scope in scopes]
    total = math.prod(math.comb(denominator + len(params), len(params))
                      for params in free)
    if total > MAX_GRID_POINTS:
        raise UnsupportedQueryError(
            f"grid has {total} points, over the {MAX_GRID_POINTS} cap")
    grids = [[tuple(Fraction(i, denominator) for i in combo)
              for combo in _bounded_tuples(len(params), denominator)]
             for params in free]
    flat = [p for params in free for p in params]
    return (dict(zip(flat, itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*grids))


def _bounded_tuples(length: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `length` naturals summing to at most `budget`, in
    lexicographic order."""
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _bounded_tuples(length - 1, budget - first):
            yield (first, *rest)


def _exists_search(m: Psmas, coalition: frozenset[str], ctx: QueryContext,
                   quantity: Callable[[Mapping[ParamId, Fraction]],
                                      Fraction | None],
                   cmp: CompareOp, bound: Fraction) -> CheckResult:
    """Search the coalition's parameter box for a witness of `quantity cmp bound`.

    `quantity` returns None to signal an infinite reward value, which
    satisfies >=/> bounds and fails <=/< bounds.  Non-coalition parameters
    must all be fixed by the context.  Deterministic: plain grid scan at the
    context resolution, then bisection-style refinement toward the bound.
    """
    scopes = [s for s in m.scopes() if s[0] in coalition]
    search_params = [p for s in scopes for p in m.free_params(s)]
    fixed = dict(ctx.valuation or {})
    for p in m.params:
        if p not in search_params and p not in fixed:
            raise MissingParameterError(p)

    def test(value: Fraction | None) -> bool:
        if value is None:
            return cmp in (CompareOp.GE, CompareOp.GT)
        return cmp.holds(value, bound)

    best_point: dict[ParamId, Fraction] | None = None
    best_value: Fraction | None = None
    maximize = cmp in (CompareOp.GE, CompareOp.GT)
    for own in simplex_grid(m, scopes, ctx.grid_denominator):
        point = dict(fixed)
        point.update(own)
        value = quantity(point)
        if test(value):
            return CheckResult(holds=True, witness=point)
        if value is None:
            continue
        if best_value is None or (value > best_value if maximize
                                  else value < best_value):
            best_value, best_point = value, point

    if best_point is not None:
        refined = _refine(m, scopes, fixed, best_point, quantity, maximize,
                          Fraction(1, ctx.grid_denominator))
        if test(quantity(refined)):
            return CheckResult(holds=True, witness=refined)
        best_point = refined
    return CheckResult(holds=False, witness=best_point)


def _refine(m: Psmas, scopes, fixed, point, quantity, maximize,
            step: Fraction, rounds: int = 24) -> dict[ParamId, Fraction]:
    """Coordinate descent at halving steps, projected to the simplex box."""
    current = dict(point)
    value = quantity(current)
    for _ in range(rounds):
        step = step / 2
        moved = False
        for scope in scopes:
            params = m.free_params(scope)
            for p in params:
                for delta in (step, -step):
                    cand = dict(current)
                    nv = cand[p] + delta
                    if nv < 0 or nv > 1:
                        continue
                    cand[p] = nv
                    if sum(cand[q] for q in params) > 1:
                        continue
                    cv = quantity(cand)
                    if cv is None:
                        continue
                    if value is None or (cv > value if maximize
                                         else cv < value):
                        current, value, moved = cand, cv, True
        if not moved and step < Fraction(1, 1 << 20):
            break
    return current

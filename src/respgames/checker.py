"""Recursive formula evaluation over the parametric model.

Path probabilities use minimal-witness cylinder accounting: a prefix is a
satisfying witness of `X phi` when its one step lands in a phi-state, and of
`phi U<=k psi` when its last state is the first psi-state with phi holding
strictly before; a prefix is a violating witness at the first state where
neither continuing nor satisfying is possible, or at depth k.  Witness
cylinders are pairwise disjoint, so their probabilities sum to at most 1 at
every admissible valuation, and summing full-depth extensions reproduces the
same polynomials.

Witnesses are not listed one by one: a forward pass over cells (block,
compatibility tag) at each depth sums their probabilities, counts them and,
for rewards, weighs them, merging the histories that share a cell.  It
builds only the polynomials of the verdict its caller reads (satisfying for
P and CAR, violating for CPR, both for R, which weighs only the satisfying
witnesses by reward), and counts the witnesses of both.  The blocks lump
the states that the pass cannot tell apart (`_Reduced`), and a pass
without tags or reward sums each state's entries over its joint actions.
The pass counts its work and stops past `trace.MAX_PASS_WORK`.
`_witnesses` keeps the history-by-history enumeration as the unguarded
test reference.

Degrees follow the two enumeration algorithms: the satisfying (violating)
witness sets are filtered by plan-compatibility classes, the kappa guard is
decided exactly (a count-only pass), and the result is the ratio of the two
probability polynomials as a rational function.  Queries either stay
symbolic (answers in the strategy parameters) or are evaluated at a bound
valuation; evaluated P and R substitute the bound parameters outside the
coalition into the model before their pass and resolve the coalition
quantifier by a grid search with local refinement, and evaluated D is
decided at the valuation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import DegenerateQueryError, UnsupportedQueryError, UsageError
from .logic import (And, Atom, CoalitionDegree, CoalitionProb,
                    CoalitionReward, CompareOp, DegreeKind, Next, Not,
                    PathFormula, StateFormula, TrueFormula, Until, horizon)
from .model import JointAction, Psmas, RewardStructure, require_admissible
from .polyarith import GridWalk, ParamId, Polynomial, RationalFunction
from .trace import CompatTags, History, Plan, check_work, plan_from_model

SYMBOLIC = "symbolic"
EVALUATED = "evaluated"


@dataclass(frozen=True)
class QueryContext:
    """How to answer: symbolically, or evaluated at a parameter valuation."""

    mode: str = SYMBOLIC
    valuation: Mapping[ParamId, Fraction] | None = None
    grid_denominator: int | None = None  # evaluated: search step 1/this

    @staticmethod
    def symbolic() -> "QueryContext":
        return QueryContext()

    @staticmethod
    def evaluated(valuation: Mapping[ParamId, Fraction],
                  grid_denominator: int | None = None) -> "QueryContext":
        grid = 50 if grid_denominator is None else grid_denominator
        return QueryContext(EVALUATED, dict(valuation), grid)

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
        return f"{self.value.render()} {self.cmp.value} {self.bound}"


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


# -- minimal witnesses ----------------------------------------------------


def _witnesses(m: Psmas, state: str, psi: PathFormula,
               ctx: QueryContext) -> tuple[list[History], list[History]]:
    """The satisfying and the violating minimal witnesses, listed one by
    one: the unguarded test reference of `_witness_pass`."""
    if isinstance(psi, Next):
        good = _sat_cache(m, psi.body, ctx)
        sats: list[History] = []
        viols: list[History] = []
        root = History.single(state)
        for joint, row in m.moves[state].items():
            for target, poly in row.items():
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
                    for joint, row in m.moves[here].items():
                        for target, poly in row.items():
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
                  r: RewardStructure | None = None,
                  fixed: Mapping[ParamId, Fraction] | None = None,
                  read: bool | None = None) -> _Sums:
    """Sums over the minimal witnesses of psi from state, in one forward pass.

    The pass walks the `_Reduced` model of the query, with `fixed` (bound
    parameters) substituted into its entries.  A cell is (block, tag) at
    one depth, where the tag is the `tags` compatibility tag of the action
    prefix (None without tags).  It holds the `_Sum` of the open histories
    that reach it; histories sharing a cell continue alike, so they merge
    by addition.  Returns the witness sums keyed (satisfied, compatible);
    without tags every witness is compatible.  `weigh=False` counts
    histories only, and `r` adds the reward-weighted mass.  Equal to
    summing `_witnesses` one by one, with `fixed` substituted.

    `read` is the verdict whose polynomials the caller reads (None: both).
    The other verdict's sums keep their history counts, which degrees and
    their kappa guards read, but no mass or reward: an entry into a block
    that closes with that verdict at the next depth adds its paths and
    multiplies nothing.  Rewards are read only for the satisfying
    witnesses, so an entry into a block that closes violated at the next
    depth adds no reward.  Each sum that is read gets the same products in
    the same order, so it equals the one of the full pass term for term.

    The work is the term pairs the products multiply, or the expansions
    (cell, row, entry) of a count-only pass; past `trace.MAX_PASS_WORK`
    the pass raises ResourceLimitError.  The pass ends at the first depth
    with no open cell.
    """
    kind, classify, k = _classifier(m, psi, ctx)
    model = _Reduced(m, state, kind, classify, r,
                     collapse=tags is None and r is None, fixed=fixed)
    work, unit = 0, "term pairs" if weigh else "expansions"
    out = {key: _Sum() for key in itertools.product((True, False),
                                                    repeat=2)}
    built = (True, False) if read is None else (read,)
    start_tag = tags.start if tags is not None else None
    cells = {(model.start, start_tag): _Sum(Polynomial.one(), 1)}
    for depth in range(k + 1):
        nxt: dict[tuple[int, frozenset[str] | None], _Sum] = {}
        # the blocks whose histories close unread at the next depth, and
        # those that close violated there, whose reward no caller reads
        closing = [classify(depth + 1, kind) for kind in model.kinds]
        dead = {b for b, v in enumerate(closing) if v not in (None, *built)}
        unpaid = {b for b, v in enumerate(closing) if v is False}
        for (here, tag), cell in cells.items():
            verdict = classify(depth, model.kinds[here])
            if verdict is not None:
                compatible = tags is None or tags.live(tag, depth)
                if verdict in built:
                    out[verdict, compatible].add(cell)
                else:
                    out[verdict, compatible].paths += cell.paths
                continue
            # terms that multiply each entry
            mass_terms = len(cell.mass.terms())
            reward_terms = len(cell.reward.terms()) if r is not None else 0
            for joint, gain, entries in model.rows[here]:
                nxt_tag = (tags.step(tag, depth, joint) if tags is not None
                           else None)
                for target, poly, count in entries:
                    into = nxt.setdefault((target, nxt_tag), _Sum())
                    into.paths += cell.paths * count
                    if not weigh:
                        work += 1
                        continue
                    if target in dead:
                        continue
                    work += mass_terms * len(poly.terms())
                    step = cell.mass * poly
                    into.mass = into.mass + step
                    if r is not None and target not in unpaid:
                        work += reward_terms * len(poly.terms())
                        into.reward = into.reward + cell.reward * poly
                        if gain != 0:
                            work += len(step.terms())
                            into.reward = into.reward + step * gain
            check_work(work, unit)
        if not nxt:
            break
        cells = nxt
    return out


_Entry = tuple[int, Polynomial, int]  # (target block, summed entry, count)
_Row = tuple[JointAction | None, Fraction, tuple[_Entry, ...]]


class _Reduced:
    """The model one witness pass walks: the states that the pass reaches
    from `state`, lumped into blocks.

    A state has rows when the pass goes on from it: when it is open at the
    first depth that reaches it.  Its entries in `Psmas.moves`,
    specialised at `fixed`, are grouped into rows: one per joint action
    with its step reward under `r`, or, with `collapse` (a pass without
    tags or reward), one row summed over the joint actions.  A row maps each
    target block to the summed entry and to the number of successors
    merged into it.  The partition is the coarsest one in which the states
    of a block have the same classifier `kind` and the same rows: so the
    histories of one block continue alike, the pass sums them as one cell,
    and every mass, reward and history count stays exact.  Each block
    keeps the `kind` and rows of its first state.  Built by splitting
    blocks until no block splits.
    """

    def __init__(self, m: Psmas, state: str, kind: Callable[[str], object],
                 classify: Callable[[int, object], bool | None],
                 r: RewardStructure | None, collapse: bool,
                 fixed: Mapping[ParamId, Fraction] | None):
        constants = {p: Polynomial.constant(v)
                     for p, v in (fixed or {}).items()}
        local: dict[str, list[tuple[JointAction | None, Fraction,
                                    list[tuple[str, Polynomial]]]]] = {
            state: []}
        frontier, depth = [state], 0
        while frontier:
            found = []
            for here in frontier:
                if classify(depth, kind(here)) is not None:
                    continue  # so at every later depth too: no rows
                for joint, row in m.moves[here].items():
                    entries = row.items()
                    if constants:
                        entries = [(t, poly.substitute(constants))
                                   for t, poly in entries]
                    gain = r.step_reward(here, joint) if r is not None else 0
                    local[here].append((joint, gain, entries))
                    for t, _ in entries:
                        if t not in local:
                            local[t] = []
                            found.append(t)
            frontier, depth = found, depth + 1
        if collapse:
            local = {s: [(None, 0, [e for _, _, entries in rows
                                    for e in entries])] if rows else []
                     for s, rows in local.items()}
        states = [s for s in m.base.states if s in local]

        blocks: dict[object, int] = {}
        block = {s: blocks.setdefault(kind(s), len(blocks)) for s in states}
        while True:
            rows_of = {s: self._rows(local[s], block) for s in states}
            split: dict[tuple[int, tuple[_Row, ...]], int] = {}
            refined = {s: split.setdefault((block[s], rows_of[s]), len(split))
                       for s in states}
            if len(split) == len(blocks):
                break
            block, blocks = refined, split
        # blocks are numbered in order of their first state
        first = {}
        for s in states:
            first.setdefault(block[s], s)
        self.start = block[state]
        self.kinds = [kind(s) for s in first.values()]
        self.rows = [rows_of[s] for s in first.values()]

    @staticmethod
    def _rows(rows, block: Mapping[str, int]) -> tuple[_Row, ...]:
        """A state's rows over `block`'s blocks: per target block, in block
        order, the summed entry and the number of successors summed."""
        out = []
        for joint, gain, entries in rows:
            merged: dict[int, list[Polynomial]] = {}
            for target, poly in entries:
                merged.setdefault(block[target], []).append(poly)
            out.append((joint, gain, tuple(
                (b, functools.reduce(operator.add, polys), len(polys))
                for b, polys in sorted(merged.items()))))
        return tuple(out)


def _classifier(m: Psmas, psi: PathFormula, ctx: QueryContext
                ) -> tuple[Callable[[str], object],
                           Callable[[int, object], bool | None], int]:
    """Where a prefix of psi becomes a witness, as a state's `kind` (all
    the classification reads of its last state) and `classify`: (depth,
    kind) -> True (satisfying), False (violating) or None (still open).
    Also the deepest depth at which prefixes are classified.  A kind
    closed at one depth stays closed at every later depth."""
    if isinstance(psi, Next):
        good = _sat_cache(m, psi.body, ctx)
        return good, (lambda depth, g: None if depth == 0 else g), 1
    if isinstance(psi, Until):
        hold = _sat_cache(m, psi.left, ctx)
        goal = _sat_cache(m, psi.right, ctx)

        def kind(here: str) -> bool | None:
            """The verdict before the horizon."""
            if goal(here):
                return True
            return None if hold(here) else False

        def classify(depth: int, verdict: bool | None) -> bool | None:
            if verdict is None and depth == psi.k:
                return False
            return verdict

        return kind, classify, psi.k
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
    return RationalFunction(
        _witness_pass(m, state, psi, ctx, read=True)[True, True].mass)


def check_prob(m: Psmas, state: str, f: CoalitionProb,
               ctx: QueryContext) -> CheckResult:
    """Decide `<A> P cmp p [ psi ]` (or return the symbolic region).

    Evaluated mode searches the coalition's parameters for a witness while
    the context fixes every non-coalition parameter.
    """
    if not ctx.is_evaluated:
        value = path_sat_prob(m, state, f.body, ctx)
        return CheckResult(holds=None, region=Region(value, f.cmp, f.bound))
    fixed = _outside(m, f.coalition, ctx.valuation)
    mass = _witness_pass(m, state, f.body, ctx, fixed=fixed,
                         read=True)[True, True].mass
    return _exists_search(m, f.coalition, ctx, mass, f.cmp, f.bound)


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
                  r: RewardStructure, ctx: QueryContext,
                  fixed: Mapping[ParamId, Fraction] | None = None
                  ) -> tuple[Polynomial, Polynomial]:
    """The probability of missing the target within k steps, and the
    reward-weighted probability of the reaching prefixes, with `fixed`
    substituted."""
    sums = _witness_pass(m, state, Until(TrueFormula(), k, target), ctx,
                         r=r, fixed=fixed)
    return sums[False, True].mass, sums[True, True].reward


def check_reward(m: Psmas, state: str, f: CoalitionReward,
                 ctx: QueryContext) -> CheckResult:
    """Decide `<A> R cmp q [ F<=k phi @ agent ]` (or return the region)."""
    r = m.base.rewards[f.agent]
    if not ctx.is_evaluated:
        value = reward_value(m, state, f.target, f.k, r, ctx)
        return CheckResult(holds=None, region=Region(value, f.cmp, f.bound))

    noreach, reach_reward = _reward_parts(
        m, state, f.target, f.k, r, ctx,
        _outside(m, f.coalition, ctx.valuation))
    return _exists_search(m, f.coalition, ctx, reach_reward, f.cmp, f.bound,
                          infinite=noreach)


# -- degree operators --------------------------------------------------------


@dataclass(frozen=True)
class DegreeQuery:
    """A degree query resolved once, by `degree_setup`: the outcome, the
    plan cut to its horizon, the coalition, the witnesses the degree
    counts (satisfying for CAR, violating for CPR) and the agents whose
    plan actions the numerator's class keeps (the agent for CAR, the rest
    of the coalition for CPR)."""

    psi: PathFormula
    plan: Plan
    coalition: frozenset[str]
    counts_sat: bool
    kept: frozenset[str]


def degree_setup(m: Psmas, agent: str, plan: Plan, psi: PathFormula,
                 kind: DegreeKind, coalition: Iterable[str] | None = None
                 ) -> DegreeQuery:
    """Resolve a degree query; the coalition defaults to every agent.
    Refuses an agent outside the coalition (UsageError) and a plan shorter
    than the outcome's horizon."""
    coalition = frozenset(m.base.agents if coalition is None else coalition)
    if agent not in coalition:
        raise UsageError(f"degree agent {agent} must belong to the coalition")
    depth = horizon(psi)
    if len(plan.steps) < depth:
        raise UnsupportedQueryError(
            f"plan has {len(plan.steps)} steps but the outcome needs "
            f"{depth}")
    active = kind is DegreeKind.CAR
    return DegreeQuery(psi, plan.truncated(depth), coalition, active,
                       frozenset({agent}) if active else coalition - {agent})


def car_degree(m: Psmas, state: str, agent: str, plan: Plan,
               psi: PathFormula, coalition: Iterable[str] | None = None,
               ctx: QueryContext | None = None) -> DegreeResult:
    """Degree of causal active responsibility of `agent` for outcome psi.

    Numerator: satisfying witnesses compatible with the plans that fix the
    agent's own actions.  Denominator: all satisfying witnesses.  kappa is 1
    exactly when some behaviour violates the outcome (avoidability); a false
    kappa forces the zero function.
    """
    return _degree(m, state, degree_setup(m, agent, plan, psi,
                                          DegreeKind.CAR, coalition), ctx)


def cpr_degree(m: Psmas, state: str, agent: str, plan: Plan,
               psi: PathFormula, coalition: Iterable[str] | None = None,
               ctx: QueryContext | None = None) -> DegreeResult:
    """Degree of causal passive responsibility of `agent` for outcome psi.

    Numerator: violating witnesses compatible with the plans that fix every
    other coalition agent's actions.  Denominator: all violating witnesses.
    kappa is 1 exactly when the outcome is achievable by plans that agree
    with the anchor on the whole coalition.
    """
    return _degree(m, state, degree_setup(m, agent, plan, psi,
                                          DegreeKind.CPR, coalition), ctx)


def _degree(m: Psmas, state: str, q: DegreeQuery,
            ctx: QueryContext | None) -> DegreeResult:
    """The degree of a resolved query, from one tagged pass (CAR's kappa
    too; CPR's comes from `degree_guard`)."""
    ctx = ctx or QueryContext.symbolic()
    sums = _witness_pass(m, state, q.psi, ctx, CompatTags(m, q.plan, q.kept),
                         read=q.counts_sat)
    numerator, den = sums[q.counts_sat, True], _either(sums, q.counts_sat)
    kappa = (_either(sums, False).paths > 0 if q.counts_sat
             else degree_guard(m, state, q, ctx))
    return _degree_result(numerator.mass, den.mass, kappa, numerator.paths,
                          den.paths)


def degree_guard(m: Psmas, state: str, q: DegreeQuery,
                 ctx: QueryContext | None = None) -> bool:
    """The kappa flag of a resolved degree query alone, from counts only:
    does some witness violate the outcome (CAR), or does some satisfying
    witness agree with the plans of the whole coalition's class (CPR)?"""
    ctx = ctx or QueryContext.symbolic()
    if q.counts_sat:
        sums = _witness_pass(m, state, q.psi, ctx, weigh=False)
        return _either(sums, False).paths > 0
    full = CompatTags(m, q.plan, q.coalition)
    return _witness_pass(m, state, q.psi, ctx, full, weigh=False)[
        True, True].paths > 0


def responsibility_degree(m: Psmas, state: str, agent: str, plan: Plan,
                          psi: PathFormula, kind: DegreeKind,
                          coalition: Iterable[str] | None = None,
                          ctx: QueryContext | None = None) -> DegreeResult:
    """The CAR or CPR degree, as `kind` says."""
    fn = car_degree if kind is DegreeKind.CAR else cpr_degree
    return fn(m, state, agent, plan, psi, coalition, ctx)


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


def degree_at(result: DegreeResult, valuation: Mapping[ParamId, Fraction]
              ) -> tuple[Fraction, tuple[str, ...]]:
    """A degree's value at an admissible valuation, and the note that the
    zero-mass convention decided it.

    At points where the (unreduced) denominator vanishes the numerator
    vanishes too — no outcome mass, no responsibility share — so the value
    is 0 by convention.
    """
    if not result.kappa:
        return Fraction(0), ()
    d = result.value.den.evaluate(valuation)
    if d == 0:
        return Fraction(0), ("the degree's denominator mass is zero at this "
                             "valuation, so the degree is 0 by convention",)
    return result.value.num.evaluate(valuation) / d, ()


def check_degree(m: Psmas, state: str, f: CoalitionDegree,
                 ctx: QueryContext) -> CheckResult:
    """Decide `<A> D cmp d [ CAR/CPR(i, plan, psi) ]` (or return the region);
    evaluated, at the context valuation, whose bound scopes must be
    admissible, searching no coalition parameter."""
    result = responsibility_degree(m, state, f.agent,
                                   plan_from_model(m, f.plan), f.body,
                                   f.kind, f.coalition, ctx)
    if not ctx.is_evaluated:
        return CheckResult(holds=None,
                           region=Region(result.value, f.cmp, f.bound))
    require_admissible(m, ctx.valuation, m.bound_scopes(ctx.valuation))
    value, notes = degree_at(result, ctx.valuation)
    return CheckResult(holds=f.cmp.holds(value, f.bound),
                       witness=dict(ctx.valuation), warnings=notes)


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


def _outside(m: Psmas, coalition: frozenset[str],
             valuation: Mapping[ParamId, Fraction]
             ) -> dict[ParamId, Fraction]:
    """The bindings of the parameters outside the coalition's scopes (free
    or dependent): the ones an evaluated P or R substitutes before its
    pass."""
    owned = {p for s, space in m.table.items() if s[0] in coalition
             for p in (*space.free, space.dependent)}
    return {p: v for p, v in valuation.items() if p not in owned}


def _exists_search(m: Psmas, coalition: frozenset[str], ctx: QueryContext,
                   value: Polynomial, cmp: CompareOp, bound: Fraction,
                   infinite: Polynomial | None = None) -> CheckResult:
    """Search the coalition's parameter box for a witness of `value cmp bound`.

    Where `infinite` (a reward's never-reaching mass) is positive the value
    is infinite, which satisfies >=/> bounds and fails <=/< bounds.
    `value` and `infinite` come from a pass specialised at the
    non-coalition parameters (`_outside`), which must all be fixed by the
    context (MissingParameterError otherwise) inside their scopes'
    simplices (admissibility conditions 2 and 3; InadmissibleError
    otherwise).  A coalition parameter the context binds is searched over
    all the same, with one warning each, and the witness leaves its
    binding out.
    Deterministic: a grid scan at the context resolution, in integers and
    one row of the last parameter at a time (`GridWalk.rows`), returns the
    first point that meets the bound, else the first strictly best point
    is refined by bisection-style steps toward the bound.  A false verdict
    carries a warning that it is no proof.
    """
    scopes = [s for s in m.table if s[0] in coalition]
    fixed = _outside(m, coalition, ctx.valuation)
    require_admissible(m, fixed, [s for s in m.table
                                  if s[0] not in coalition])
    warnings = tuple(
        f"{p.name} belongs to the coalition: the search ranges over it, "
        f"not its bound value" for p in ctx.valuation if p not in fixed)

    denominator = ctx.grid_denominator
    groups = [m.table[s].free for s in scopes]
    # the points are counted before any is made
    total = math.prod(math.comb(denominator + len(params), len(params))
                      for params in groups)
    if total > MAX_GRID_POINTS:
        raise UnsupportedQueryError(
            f"grid has {total} points, over the {MAX_GRID_POINTS} cap")
    flat = [p for params in groups for p in params]
    masses = (None if infinite is None
              else GridWalk(infinite, groups, denominator).rows())
    walk = GridWalk(value, groups, denominator)
    maximize = cmp in (CompareOp.GE, CompareOp.GT)

    def point_at(prefix: tuple[int, ...], i: int) -> dict[ParamId, Fraction]:
        point = dict(fixed)
        point.update((p, Fraction(n, denominator))
                     for p, n in zip(flat, (*prefix, i)))
        return point

    def quantity(point: Mapping[ParamId, Fraction]) -> Fraction | None:
        if infinite is not None and infinite.evaluate(point) > 0:
            return None
        return value.evaluate(point)

    def test(v: Fraction | None) -> bool:
        if v is None:
            return maximize
        return cmp.holds(v, bound)

    # a value n / walk.scale meets the bound iff n * den(bound) does
    # num(bound) * walk.scale, as both scales are positive; an infinite
    # value meets >= and > bounds only
    target, times = bound.numerator * walk.scale, bound.denominator

    def meets(n: int | float) -> bool:
        if n == math.inf:
            return maximize
        return cmp.holds(n * times, target)

    # a row meets the bound iff its extreme does, and its first extreme is
    # its first strictly best point; only a row that meets is scanned
    best: int | None = None
    best_at = None
    for prefix, row in walk.rows():
        if masses is not None:
            row = [math.inf if mass > 0 else n
                   for n, mass in zip(row, next(masses)[1])]
        extreme = max(row) if maximize else min(row)
        if meets(extreme):
            i = next(i for i, n in enumerate(row) if meets(n))
            return CheckResult(holds=True, witness=point_at(prefix, i),
                               warnings=warnings)
        if extreme != math.inf and (best is None or (
                extreme > best if maximize else extreme < best)):
            best, best_at = extreme, (prefix, row.index(extreme))

    best_point = None
    if best_at is not None:
        refined = _refine(m, scopes, fixed, point_at(*best_at), quantity,
                          maximize, Fraction(1, denominator))
        if test(quantity(refined)):
            return CheckResult(holds=True, witness=refined,
                               warnings=warnings)
        best_point = refined
    note = (f"this false verdict comes from a 1/{denominator} grid search "
            f"with local refinement, not from a proof")
    if best_point is not None:
        note += "; the witness is the best point found"
    return CheckResult(holds=False, witness=best_point,
                       warnings=(*warnings, note))


def _refine(m: Psmas, scopes, fixed, point, quantity, maximize,
            step: Fraction, rounds: int = 24) -> dict[ParamId, Fraction]:
    """Coordinate descent at halving steps, projected to the simplex box."""
    current = dict(point)
    value = quantity(current)
    for _ in range(rounds):
        step = step / 2
        moved = False
        for scope in scopes:
            params = m.table[scope].free
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

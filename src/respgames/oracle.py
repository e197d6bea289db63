"""Independent validation backends: simulation and exhaustive grid search.

Sampling draws i.i.d. bounded histories from the instantiated model.  The
generator family is numpy's PCG64; block b of 10k samples draws from
SeedSequence(seed, spawn_key=(b,)), so the stream is fixed by the seed and
the sample count.  Each step of a block draws one uniform per sample and
picks every sample's outcome with one lookup in per-state tables padded to
the widest row.  Satisfaction and witness steps are classified exactly per
sample; plan-class membership moves compatibility tags (`CompatTags`) step
by step, once per distinct (tag, joint action), not once per sample.  kappa
guards come from the checker's forward pass (`checker.degree_guard`), never
from sampling.  The grid oracle scans an agent's parameter simplex
exhaustively with exact rational utility evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterator, Mapping

import numpy as np

from .checker import (QueryContext, degree_guard, degree_setup, sat_state,
                      simplex_grid)
from .errors import (MissingParameterError, ResourceLimitError,
                     UndefinedEstimateError)
from .logic import DegreeKind, Next, PathFormula, horizon
from .model import JointAction, Psmas, require_admissible
from .polyarith import ParamId
from .synth import UtilityParts
from .trace import CompatTags, Plan

BLOCK = 10_000
# The most cells, (depth + 1) x paths, of one sampled block: its state and
# outcome matrices take 16 bytes a cell, and a larger block exits 3 before
# they are allocated.
MAX_BLOCK_CELLS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Sampling setup: count, seed, the admissible valuation and the start
    state (None: the model's initial state).  The estimators sample to the
    path formula's horizon."""

    samples: int
    seed: int
    valuation: Mapping[ParamId, Fraction]
    start: str | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with its Bernoulli-style standard error."""

    mean: float
    stderr: float
    samples: int


class _Sampler:
    """Vectorized step sampler over the instantiated model.

    Column s of the padded tables lists state s's outcomes (joint action,
    successor) with nonzero probability, one row per outcome slot: `cum`
    holds their cumulative probabilities (padded with 2.0, which no draw in
    [0, 1) reaches), `succ` the successor index and `joint` the joint
    action's index in `joints`; `last[s]` is the last valid slot.
    """

    def __init__(self, m: Psmas, valuation: Mapping[ParamId, Fraction]):
        require_admissible(m, valuation)
        self.states = list(m.base.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.joints: list[JointAction] = []
        joint_index: dict[JointAction, int] = {}
        rows: list[list[tuple[int, int, float]]] = []
        free = {p: Fraction(valuation[p]) for p in m.params}
        for s in self.states:
            row = []
            for joint in m.base.joint_actions(s):
                if joint not in joint_index:
                    joint_index[joint] = len(self.joints)
                    self.joints.append(joint)
                for target, poly in m.successors(s, joint):
                    p = poly.evaluate(free)
                    if p != 0:
                        row.append((joint_index[joint], self.index[target],
                                    float(p)))
            rows.append(row)
        shape = (max(len(row) for row in rows), len(rows))
        self.cum = np.full(shape, 2.0)
        self.succ = np.zeros(shape, dtype=np.int64)
        self.joint = np.zeros(shape, dtype=np.int64)
        self.last = np.array([len(row) - 1 for row in rows], dtype=np.int64)
        for s, row in enumerate(rows):
            joint, succ, probs = zip(*row)
            cum = np.cumsum(np.array(probs))
            cum[-1] = 1.0  # rows sum to 1 exactly; absorb float dust
            self.cum[:len(row), s] = cum
            self.succ[:len(row), s] = succ
            self.joint[:len(row), s] = joint

    def sample_block(self, start: int, count: int, depth: int,
                     rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Sample `count` paths of `depth` steps; returns state and outcome
        matrices, one row per path (an outcome is a slot of the padded
        tables).

        A pick counts the state's cumulative entries at or below the draw,
        which on a nondecreasing row is `searchsorted(side="right")`.
        """
        cells = (depth + 1) * count
        if cells > MAX_BLOCK_CELLS:
            raise ResourceLimitError(
                f"a block of {count} paths of {depth} steps has {cells} "
                f"cells, over the {MAX_BLOCK_CELLS} cap")
        states = np.empty((depth + 1, count), dtype=np.int64)
        states[0] = start
        picks = np.empty((depth, count), dtype=np.int64)
        for step in range(depth):
            here = states[step]
            u = rng.random(count)
            k = (self.cum.take(here, axis=1) <= u).sum(axis=0)
            np.minimum(k, self.last.take(here), out=picks[step])
            states[step + 1] = self.succ.take(picks[step] * len(self.states)
                                              + here)
        return states.T, picks.T

    def joint_ids(self, states: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """Joint-action indices of sampled steps, one row per path."""
        return self.joint.take(picks * len(self.states) + states[:, :-1])


def _blocks(cfg: SimConfig) -> Iterator[tuple[int, int, np.random.Generator]]:
    offset = 0
    block_no = 0
    while offset < cfg.samples:
        count = min(BLOCK, cfg.samples - offset)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(block_no,))
        yield offset, count, np.random.default_rng(seq)
        offset += count
        block_no += 1


def simulate_paths(m: Psmas, cfg: SimConfig, depth: int
                   ) -> Iterator[tuple[tuple[str, ...],
                                       tuple[JointAction, ...]]]:
    """Stream sampled histories of `depth` steps as (states, joint actions)
    tuples."""
    sampler = _Sampler(m, cfg.valuation)
    start = sampler.index[_start(m, cfg)]
    for _, count, rng in _blocks(cfg):
        states, picks = sampler.sample_block(start, count, depth, rng)
        joints = sampler.joint_ids(states, picks)
        for st, acts in zip(states.tolist(), joints.tolist()):
            yield (tuple(sampler.states[i] for i in st),
                   tuple(sampler.joints[j] for j in acts))


def _start(m: Psmas, cfg: SimConfig) -> str:
    return cfg.start if cfg.start is not None else m.base.initial


def _sat_tables(m: Psmas, sampler: _Sampler, psi: PathFormula,
                valuation) -> tuple[np.ndarray, np.ndarray]:
    """Per-state boolean tables for the path formula's two state formulas.

    For `X phi` the second table is phi; for `phi U<=k psi` the tables are
    (phi, psi).  Nested quantitative subformulas use the evaluated context.
    """
    ctx = QueryContext.evaluated(valuation)
    if isinstance(psi, Next):
        hold = np.ones(len(sampler.states), dtype=bool)
        goal = np.array([sat_state(m, s, psi.body, ctx)
                         for s in sampler.states])
        return hold, goal
    hold = np.array([sat_state(m, s, psi.left, ctx) for s in sampler.states])
    goal = np.array([sat_state(m, s, psi.right, ctx) for s in sampler.states])
    return hold, goal


def _witness_steps(psi: PathFormula, states: np.ndarray, hold: np.ndarray,
                   goal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample minimal witness steps.

    Returns (sat_step, viol_step): the step index at which satisfaction /
    certain violation is first established, or -1.  Mirrors the checker's
    cylinder accounting exactly.
    """
    n = len(states)
    sat_step = np.full(n, -1, dtype=np.int64)
    viol_step = np.full(n, -1, dtype=np.int64)
    if isinstance(psi, Next):
        ok = goal[states[:, 1]]
        sat_step[ok] = 1
        viol_step[~ok] = 1
        return sat_step, viol_step
    k = psi.k
    open_mask = np.ones(n, dtype=bool)
    for j in range(0, k + 1):
        here = states[:, j]
        g = goal[here] & open_mask
        sat_step[g] = j
        open_mask &= ~g
        stuck = open_mask & (~hold[here] | (j == k))
        viol_step[stuck] = j
        open_mask &= ~stuck
        if not open_mask.any():
            break
    return sat_step, viol_step


def estimate_path_prob(m: Psmas, cfg: SimConfig, psi: PathFormula) -> Estimate:
    """Empirical frequency of a path formula under the valuation."""
    sampler = _Sampler(m, cfg.valuation)
    depth = horizon(psi)
    hold, goal = _sat_tables(m, sampler, psi, cfg.valuation)
    start = sampler.index[_start(m, cfg)]
    hits = 0
    for _, count, rng in _blocks(cfg):
        states, _ = sampler.sample_block(start, count, depth, rng)
        sat_step, _ = _witness_steps(psi, states, hold, goal)
        hits += int((sat_step >= 0).sum())
    mean = hits / cfg.samples
    return Estimate(mean=mean, stderr=sqrt(mean * (1 - mean) / cfg.samples),
                    samples=cfg.samples)


def estimate_degree(m: Psmas, cfg: SimConfig, agent: str, plan: Plan,
                    psi: PathFormula, kind: DegreeKind,
                    coalition=None) -> Estimate:
    """Simulation estimate of a responsibility degree.

    Each sampled history is classified exactly: its minimal witness step and
    whether the witness prefix is compatible with the relevant plan class.
    kappa is decided exactly by the checker; when false the estimate is
    exactly 0.  The mean is the ratio of numerator to denominator counts and
    stderr treats the ratio as Bernoulli over denominator samples.  The
    agent and the plan are checked like the exact degrees do, also when
    kappa is false.
    """
    q = degree_setup(m, agent, plan, psi, kind, coalition)
    compat = CompatTags(m, q.plan, q.kept)
    sampler = _Sampler(m, cfg.valuation)
    hold, goal = _sat_tables(m, sampler, psi, cfg.valuation)
    state = _start(m, cfg)
    start = sampler.index[state]

    if not degree_guard(m, state, q, QueryContext.evaluated(cfg.valuation)):
        return Estimate(mean=0.0, stderr=0.0, samples=cfg.samples)

    num = den = 0
    for _, count, rng in _blocks(cfg):
        states, picks = sampler.sample_block(start, count, horizon(psi), rng)
        sat_step, viol_step = _witness_steps(psi, states, hold, goal)
        steps = sat_step if q.counts_sat else viol_step
        chosen = steps >= 0
        den += int(chosen.sum())
        num += _admitted(compat, sampler.joints, steps[chosen],
                         sampler.joint_ids(states[chosen], picks[chosen]))
    if den == 0:
        raise UndefinedEstimateError(
            "no sampled path fell in the denominator event")
    mean = num / den
    return Estimate(mean=mean, stderr=sqrt(mean * (1 - mean) / den),
                    samples=cfg.samples)


def _admitted(compat: CompatTags, joints: list[JointAction],
              steps: np.ndarray, prefixes: np.ndarray) -> int:
    """How many rows' action prefixes lie in the plan class: row i's prefix
    is its first `steps[i]` joint-action indices (into `joints`).

    Every row carries a tag id, tags numbered as they appear.  Each depth
    moves every distinct (tag, joint action) pair once through
    `CompatTags.step`, and membership asks `CompatTags.live` once per
    distinct (tag, prefix length), so the work grows with the number of
    distinct tags, not of rows.
    """
    tags, ids = [compat.start], {compat.start: 0}
    tag = np.zeros(len(steps), dtype=np.int64)
    width, longest = len(joints), int(steps.max(initial=0))
    for depth in range(longest):
        rows = np.nonzero(steps > depth)[0]
        pairs, inverse = np.unique(tag[rows] * width + prefixes[rows, depth],
                                   return_inverse=True)
        moved = []
        for pair in pairs.tolist():
            after = compat.step(tags[pair // width], depth,
                                joints[pair % width])
            if after not in ids:
                ids[after] = len(tags)
                tags.append(after)
            moved.append(ids[after])
        tag[rows] = np.array(moved, dtype=np.int64)[inverse]
    span = longest + 1
    ends, counts = np.unique(tag * span + steps, return_counts=True)
    return sum(n for end, n in zip(ends.tolist(), counts.tolist())
               if compat.live(tags[end // span], end % span))


@dataclass(frozen=True)
class BestResponse:
    """Grid maximizers of one agent's utility against fixed opponents."""

    maximizers: tuple[dict[ParamId, Fraction], ...]
    utility: Fraction
    resolution: Fraction


def grid_best_response(m: Psmas, parts: UtilityParts,
                       others: Mapping[ParamId, Fraction],
                       resolution: Fraction = Fraction(1, 1000)
                       ) -> BestResponse:
    """Exhaustively scan the parameter grid of `parts.agent` for maximizers
    of its utility `parts`.

    Exact rational evaluation at every grid point; returns all maximizers
    whose utility is within 1e-12 of the maximum.
    """
    scopes = m.agent_scopes(parts.agent)
    own_params = [p for scope in scopes for p in m.free_params(scope)]
    grid = simplex_grid(m, scopes, int(1 / resolution))

    for p in m.params:
        if p not in own_params and p not in others:
            raise MissingParameterError(p)

    best: Fraction | None = None
    argmax: list[dict[ParamId, Fraction]] = []
    slack = Fraction(1, 10 ** 12)
    for own in grid:
        point = {p: Fraction(v) for p, v in others.items()}
        point.update(own)
        value = parts.evaluate(point)
        if best is None or value > best + slack:
            best = value
            argmax = [own]
        elif value >= best - slack:
            argmax.append(own)
    return BestResponse(maximizers=tuple(argmax), utility=best,
                        resolution=resolution)

"""Independent validation backends: simulation and exhaustive grid search.

Sampling draws i.i.d. bounded histories from the instantiated model.  The
generator family is numpy's PCG64 seeded through SeedSequence(seed,
spawn_key=(block,)) per 10k-sample block, so streams are reproducible and
independent of how blocks are distributed over workers.  Satisfaction and
witness steps are classified exactly per sample; kappa guards come from
exact enumeration, never from sampling.  The grid oracle scans an agent's
parameter simplex exhaustively with exact rational utility evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterator, Mapping

import numpy as np

from .checker import (QueryContext, _fit_plan, degree_guard, sat_state,
                      simplex_grid)
from .errors import (InadmissibleError, MissingParameterError,
                     UndefinedEstimateError)
from .logic import DegreeKind, Next, PathFormula, horizon
from .model import JointAction, Psmas, check_admissible
from .polyarith import ParamId
from .synth import ResponsibilitySpec, UtilityConfig, utility_parts
from .trace import CompatTags, Plan

BLOCK = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Sampling setup: count, seed, depth, the admissible valuation and the
    start state (None: the model's initial state)."""

    samples: int
    seed: int
    horizon: int
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
    """Vectorized step sampler over the instantiated model."""

    def __init__(self, m: Psmas, valuation: Mapping[ParamId, Fraction]):
        report = check_admissible(m, valuation)
        if not report.ok:
            raise InadmissibleError(report)
        self.m = m
        self.states = list(m.base.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.outcomes: list[list[tuple[JointAction, int]]] = []
        self.cum: list[np.ndarray] = []
        free = {p: Fraction(valuation[p]) for p in m.params}
        for s in self.states:
            outs: list[tuple[JointAction, int]] = []
            probs: list[float] = []
            for joint in m.base.joint_actions(s):
                for target, poly in m.successors(s, joint):
                    p = poly.evaluate(free)
                    if p == 0:
                        continue
                    outs.append((joint, self.index[target]))
                    probs.append(float(p))
            cum = np.cumsum(np.array(probs))
            cum[-1] = 1.0  # rows sum to 1 exactly; absorb float dust
            self.outcomes.append(outs)
            self.cum.append(cum)

    def sample_block(self, start: int, count: int, depth: int,
                     rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Sample `count` paths of `depth` steps; returns state and outcome
        index matrices (outcome index selects (joint action, successor))."""
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
                nxt[mask] = np.array(
                    [self.outcomes[s][i][1] for i in k], dtype=np.int64)
            states[:, step + 1] = nxt
        return states, picks


def _blocks(cfg: SimConfig) -> Iterator[tuple[int, int, np.random.Generator]]:
    offset = 0
    block_no = 0
    while offset < cfg.samples:
        count = min(BLOCK, cfg.samples - offset)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(block_no,))
        yield offset, count, np.random.default_rng(seq)
        offset += count
        block_no += 1


def simulate_paths(m: Psmas, cfg: SimConfig
                   ) -> Iterator[tuple[tuple[str, ...],
                                       tuple[JointAction, ...]]]:
    """Stream sampled histories as (states, joint actions) tuples."""
    sampler = _Sampler(m, cfg.valuation)
    start = sampler.index[_start(m, cfg)]
    for _, count, rng in _blocks(cfg):
        states, picks = sampler.sample_block(start, count, cfg.horizon, rng)
        for row in range(count):
            st = tuple(sampler.states[i] for i in states[row])
            acts = tuple(sampler.outcomes[states[row, j]][picks[row, j]][0]
                         for j in range(cfg.horizon))
            yield st, acts


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
    n, w = states.shape
    depth = w - 1
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
    depth = max(cfg.horizon, horizon(psi))
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
    stderr treats the ratio as Bernoulli over denominator samples.  Plans
    shorter than the outcome's horizon are rejected like the exact degrees.
    """
    coalition = frozenset(coalition) if coalition is not None else frozenset(
        m.base.agents)
    depth = horizon(psi)
    plan = _fit_plan(plan, depth)
    sampler = _Sampler(m, cfg.valuation)
    hold, goal = _sat_tables(m, sampler, psi, cfg.valuation)
    state = _start(m, cfg)
    start = sampler.index[state]

    ctx = QueryContext.evaluated(cfg.valuation)
    kappa = degree_guard(m, state, plan, psi, kind, coalition, ctx)
    pick_sat = kind is DegreeKind.CAR
    compat = CompatTags(m, plan, {agent} if pick_sat
                        else coalition - {agent})
    if not kappa:
        return Estimate(mean=0.0, stderr=0.0, samples=cfg.samples)

    num = den = 0
    for _, count, rng in _blocks(cfg):
        states, picks = sampler.sample_block(start, count, depth, rng)
        sat_step, viol_step = _witness_steps(psi, states, hold, goal)
        steps = sat_step if pick_sat else viol_step
        chosen = steps >= 0
        den += int(chosen.sum())
        for row in np.nonzero(chosen)[0]:
            j = int(steps[row])
            actions = tuple(
                sampler.outcomes[states[row, t]][picks[row, t]][0]
                for t in range(j))
            if compat.admits(actions):
                num += 1
    if den == 0:
        raise UndefinedEstimateError(
            "no sampled path fell in the denominator event")
    mean = num / den
    return Estimate(mean=mean, stderr=sqrt(mean * (1 - mean) / den),
                    samples=cfg.samples)


@dataclass(frozen=True)
class BestResponse:
    """Grid maximizers of one agent's utility against fixed opponents."""

    maximizers: tuple[dict[ParamId, Fraction], ...]
    utility: Fraction
    resolution: Fraction


def grid_best_response(m: Psmas, horizon: int, cfg: UtilityConfig,
                       agent: str, others: Mapping[ParamId, Fraction],
                       resolution: Fraction = Fraction(1, 1000),
                       resp_spec: ResponsibilitySpec | None = None,
                       state: str | None = None) -> BestResponse:
    """Exhaustively scan the agent's parameter grid for utility maximizers.

    Exact rational evaluation at every grid point; returns all maximizers
    whose utility is within 1e-12 of the maximum.
    """
    scopes = m.agent_scopes(agent)
    own_params = [p for scope in scopes for p in m.free_params(scope)]
    grid = simplex_grid(m, scopes, int(1 / resolution))

    for p in m.params:
        if p not in own_params and p not in others:
            raise MissingParameterError(p)

    parts = utility_parts(m, agent, cfg, horizon, resp_spec, state)
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

"""Monte-Carlo estimates of path probabilities and responsibility degrees.

Sampling draws i.i.d. bounded histories from the instantiated model.  The
generator family is numpy's PCG64; block b of 10k samples draws from
SeedSequence(seed, spawn_key=(b,)), so the stream is fixed by the seed and
the sample count.  Each step of a block draws one uniform u per sample and
picks every sample's outcome with a guide table (Chen and Asau's indexed
search): u * 2^bits is exact, its integer part names a bucket of the
state's table, and one lookup gives the outcome and the successor, except
for the few draws whose bucket holds a cumulative boundary, which are
counted exactly against the state's row.  A step thus costs the draw and
about eight passes over the block's paths, and every pick equals the count
of cumulative entries at or below u, as it always has.

The sampler runs the product of the model with the path formula's verdict:
two absorbing states, SAT and VIOL, follow the model's states, and a path
enters one of them on the step its outcome is decided, as a monitor run
beside the simulation decides a bounded until (Younes and Simmons, CAV
2002).  The draws and the picks of open paths are those of the model
alone, so classifying a path costs no pass of its own: it is satisfied
when it ends in SAT, and its minimal witness step is the number of steps
it spent open.  Plan-class membership moves compatibility tags
(`CompatTags`) step by step, once per distinct (tag, joint action), not
once per sample.  kappa guards come from the checker's forward pass
(`checker.degree_guard`), never from sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterator, Mapping

import numpy as np

from .checker import QueryContext, degree_guard, degree_setup, sat_state
from .errors import ResourceLimitError, UndefinedEstimateError
from .logic import DegreeKind, Next, PathFormula, horizon
from .model import JointAction, Psmas, require_admissible
from .polyarith import ParamId
from .trace import CompatTags, Plan

BLOCK = 10_000
# The most cells, (depth + 1) x paths, of one sampled block: its state and
# outcome matrices take 16 bytes a cell, and a larger block exits 3 before
# they are allocated.
MAX_BLOCK_CELLS = 10_000_000
# The pick table cuts [0, 1) into at most 2^PICK_BITS buckets per row (the
# model's states and the two verdict sinks) and holds at most
# MAX_PICK_CELLS buckets in all, and no more than the draws it will serve:
# a model with more states, or a request with fewer draws, gets fewer bits,
# down to one bucket a row, where every draw at a state with a cumulative
# boundary inside (0, 1) is counted exactly.
PICK_BITS = 12
MAX_PICK_CELLS = 1 << 18


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
    """Vectorized step sampler over the instantiated model and the two
    sinks of a path formula.

    Rows 0 to n - 1 are the model's states, n is SAT (`sat`) and n + 1 is
    VIOL.  `enter` maps a row to the row a path is in on reaching it: under
    `phi U<=k psi` a psi-state enters SAT, a state failing phi enters VIOL
    and any other state stays itself; under `X phi` every state enters SAT
    or VIOL by phi, so step 1 decides; without a formula every state stays
    itself.  The sinks enter themselves.

    Column s of the padded tables lists row s's outcomes (joint action,
    successor): its entries in `Psmas.moves` that are nonzero at the
    valuation, one row per outcome slot.  `cum` holds their cumulative
    probabilities (padded with 2.0, which no draw in [0, 1) reaches),
    `succ` the successor's row through `enter` and `joint` the joint
    action's index in `joints`; `last[s]` is the last valid slot.
    A sink has one outcome, itself with probability 1, under joint 0, which
    no estimate reads: it reads a path's joint actions only up to its
    witness step.

    The pick of a draw u at row s is the count of s's cumulative entries
    at or below u, capped at `last[s]`.  `pick_table` cuts [0, 1) into
    2^bits buckets per row: bucket b of row s holds the pick of every u in
    [b/2^bits, (b+1)/2^bits) (and `succ_table` its successor) when no
    entry of s lies in (b/2^bits, (b+1)/2^bits), and -1 when one does.
    `draws` is how many draws the sampler will serve (samples x depth).
    """

    def __init__(self, m: Psmas, valuation: Mapping[ParamId, Fraction],
                 draws: int, psi: PathFormula | None = None):
        require_admissible(m, valuation)
        self.states = list(m.base.states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.joints: list[JointAction] = []
        joint_index: dict[JointAction, int] = {}
        rows: list[list[tuple[int, int, float]]] = []
        free = {p: Fraction(valuation[p]) for p in m.params}
        for s in self.states:
            row = []
            for joint, entries in m.moves[s].items():
                if joint not in joint_index:
                    joint_index[joint] = len(self.joints)
                    self.joints.append(joint)
                for target, poly in entries.items():
                    p = poly.evaluate(free)
                    if p != 0:
                        row.append((joint_index[joint], self.index[target],
                                    float(p)))
            rows.append(row)
        n = self.sat = len(self.states)
        rows += [[(0, n, 1.0)], [(0, n + 1, 1.0)]]
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
        self.enter = np.arange(n + 2)
        if psi is not None:
            hold, goal = _sat_tables(m, self, psi, valuation)
            self.enter[:n] = np.where(goal, n, np.where(
                hold, self.enter[:n], n + 1))
        self.succ = self.enter.take(self.succ)
        # X phi is decided at step 1, whatever its start
        self._start_enters = not isinstance(psi, Next)
        self._pick_tables(draws)
        self._buffers: tuple[np.ndarray, ...] | None = None
        self.generation = 0

    def start_row(self, state: str) -> int:
        """The row a path from `state` starts in: a start that is already
        decided is a sink from step 0, except under `X phi`."""
        row = self.index[state]
        return int(self.enter[row]) if self._start_enters else row

    def _pick_tables(self, draws: int) -> None:
        """Build `pick_table` and `succ_table`, flat over (row, bucket),
        by counting entries at the bucket edges, not by `searchsorted`: a
        row's last entry is forced to 1.0 and may sit below a float-dust
        entry before it.  Building costs a few passes over the table, and
        a lookup saves about that much over counting a draw, so the table
        holds at most `draws` buckets.

        With B buckets, an entry c is at or below edge e/B from
        e = ceil(c*B) on and below it from e = floor(c*B) + 1 on (c*B is
        exact); entries of 1 or more fall past the last edge.
        """
        n = self.cum.shape[1]
        per_state = min(MAX_PICK_CELLS, draws) // n
        self.bits = min(PICK_BITS, max(0, per_state.bit_length() - 1))
        buckets = 1 << self.bits
        scaled = self.cum * buckets
        offset = np.arange(n) * (buckets + 2)

        def at_edges(first_edge):
            cells = np.minimum(first_edge, buckets + 1).astype(np.int64)
            counts = np.bincount((cells + offset).ravel(),
                                 minlength=n * (buckets + 2))
            return counts.reshape(n, buckets + 2).cumsum(axis=1)

        low = at_edges(np.ceil(scaled))[:, :buckets]
        high = at_edges(np.floor(scaled) + 1)[:, 1:buckets + 1]
        picks = np.minimum(low, self.last[:, None])
        settled = low == high
        succ = self.succ[picks, np.arange(n)[:, None]]
        self.pick_table = np.where(settled, picks, -1).ravel()
        self.succ_table = np.where(settled, succ, -1).ravel()

    def sample_block(self, start: int, count: int, depth: int,
                     rng: np.random.Generator) -> _Block:
        """Sample `count` paths of `depth` steps from row `start`; returns
        the block of their row and outcome matrices, one row per step and
        one column per path (an outcome is a slot of the padded tables).

        A step draws one uniform u per path.  u * 2^bits is exact, so its
        integer part is u's bucket, and one lookup in each table gives the
        pick and the successor.  A draw in a -1 bucket counts its row's
        cumulative entries at or below u, which on a nondecreasing row is
        `searchsorted(side="right")`.
        """
        cells = (depth + 1) * count
        if cells > MAX_BLOCK_CELLS:
            raise ResourceLimitError(
                f"a block of {count} paths of {depth} steps has {cells} "
                f"cells, over the {MAX_BLOCK_CELLS} cap")
        self.generation += 1
        if (self._buffers is None or len(self._buffers[1]) != depth
                or self._buffers[0].shape[1] < count):
            self._buffers = (np.empty((depth + 1, count), dtype=np.int64),
                             np.empty((depth, count), dtype=np.int64),
                             np.empty(count), np.empty(count, dtype=np.int64),
                             np.empty(count, dtype=np.int64))
        states, picks, scaled, cell, base = (
            buf[..., :count] for buf in self._buffers)
        states[0] = start
        for here, pick, after in zip(states, picks, states[1:]):
            u = rng.random(count)
            np.multiply(u, 1 << self.bits, out=scaled)
            np.copyto(cell, scaled, casting="unsafe")
            np.left_shift(here, self.bits, out=base)
            cell += base
            # every cell is in range, and "wrap" takes the fastest path
            self.pick_table.take(cell, out=pick, mode="wrap")
            self.succ_table.take(cell, out=after, mode="wrap")
            unsettled = np.flatnonzero(pick < 0)
            if unsettled.size:
                at = here[unsettled]
                k = (self.cum.take(at, axis=1) <= u[unsettled]).sum(axis=0)
                k = np.minimum(k, self.last.take(at))
                pick[unsettled] = k
                after[unsettled] = self.succ[k, at]
        return _Block(self, states, picks)

    def witness_steps(self, block: _Block, satisfied: bool) -> np.ndarray:
        """Each path's minimal witness step if its verdict is `satisfied`,
        else -1.  A path's first decided row is the number of rows it spent
        open; a path still open at the horizon is violated there."""
        states, _ = block
        depth = len(states) - 1
        opened = np.count_nonzero(states < self.sat, axis=0)
        sat = states[depth] == self.sat
        if satisfied:
            return np.where(sat, opened, -1)
        return np.where(sat, -1, np.minimum(opened, depth))

    def joint_ids(self, block: _Block) -> np.ndarray:
        """Joint-action indices of a block's steps, one row per step."""
        states, picks = block
        width = self.joint.shape[1]
        out = np.empty_like(picks)
        for here, pick, row in zip(states, picks, out):
            self.joint.take(pick * width + here, out=row, mode="wrap")
        return out


class _Block:
    """A sampled block, unpacked as its (rows, outcomes) matrices: one
    matrix row per step and one column per path.  They are views of the
    sampler's buffers, which its next block overwrites, so unpacking a
    block after that raises."""

    def __init__(self, sampler: _Sampler, states: np.ndarray,
                 picks: np.ndarray):
        self.sampler, self.generation = sampler, sampler.generation
        self._matrices = (states, picks)

    def __iter__(self) -> Iterator[np.ndarray]:
        if self.generation != self.sampler.generation:
            raise RuntimeError("a sampled block was read after the sampler "
                               "overwrote it with a later block")
        return iter(self._matrices)


def _blocks(cfg: SimConfig) -> Iterator[tuple[int, int, np.random.Generator]]:
    offset = 0
    block_no = 0
    while offset < cfg.samples:
        count = min(BLOCK, cfg.samples - offset)
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(block_no,))
        yield offset, count, np.random.default_rng(seq)
        offset += count
        block_no += 1


def _start(m: Psmas, cfg: SimConfig) -> str:
    return cfg.start if cfg.start is not None else m.base.initial


def _sat_tables(m: Psmas, sampler: _Sampler, psi: PathFormula,
                valuation) -> tuple[np.ndarray, np.ndarray]:
    """Per-state boolean tables for the path formula's two state formulas.

    For `phi U<=k psi` the tables are (phi, psi); for `X phi` they are
    (false, phi), as no state stays open at the step that decides it.
    Nested quantitative subformulas use the evaluated context.
    """
    ctx = QueryContext.evaluated(valuation)
    if isinstance(psi, Next):
        hold = np.zeros(len(sampler.states), dtype=bool)
        goal = np.array([sat_state(m, s, psi.body, ctx)
                         for s in sampler.states])
        return hold, goal
    hold = np.array([sat_state(m, s, psi.left, ctx) for s in sampler.states])
    goal = np.array([sat_state(m, s, psi.right, ctx) for s in sampler.states])
    return hold, goal


def estimate_path_prob(m: Psmas, cfg: SimConfig, psi: PathFormula) -> Estimate:
    """Empirical frequency of a path formula under the valuation."""
    depth = horizon(psi)
    sampler = _Sampler(m, cfg.valuation, cfg.samples * depth, psi)
    start = sampler.start_row(_start(m, cfg))
    hits = 0
    for _, count, rng in _blocks(cfg):
        states, _ = sampler.sample_block(start, count, depth, rng)
        hits += int(np.count_nonzero(states[depth] == sampler.sat))
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
    sampler = _Sampler(m, cfg.valuation, cfg.samples * horizon(psi), psi)
    members = _PlanClass(compat, sampler.joints)
    state = _start(m, cfg)
    start = sampler.start_row(state)

    if not degree_guard(m, state, q, QueryContext.evaluated(cfg.valuation)):
        return Estimate(mean=0.0, stderr=0.0, samples=cfg.samples)

    num = den = 0
    for _, count, rng in _blocks(cfg):
        block = sampler.sample_block(start, count, horizon(psi), rng)
        steps = sampler.witness_steps(block, q.counts_sat)
        den += int(np.count_nonzero(steps >= 0))
        num += members.count(steps, sampler.joint_ids(block))
    if den == 0:
        raise UndefinedEstimateError(
            "no sampled path fell in the denominator event")
    mean = num / den
    return Estimate(mean=mean, stderr=sqrt(mean * (1 - mean) / den),
                    samples=cfg.samples)


class _PlanClass:
    """Membership of sampled action prefixes in a plan class.

    A prefix's tag (`CompatTags`) moves with each joint action.  Tags are
    numbered as they appear, and each move (tag, depth, joint action) and
    each membership (tag, prefix length) is asked of `CompatTags` once per
    estimate, so a block's work is numpy passes over its paths plus
    dictionary lookups over its distinct (tag, joint action) pairs.
    """

    def __init__(self, compat: CompatTags, joints: list[JointAction]):
        self.compat, self.joints = compat, joints
        self.tags, self.ids = [compat.start], {compat.start: 0}
        self.moves: dict[tuple[int, int, int], tuple[int, bool]] = {}

    def _move(self, tag: int, depth: int, joint: int) -> tuple[int, bool]:
        """The tag id after the move and whether a prefix of depth + 1
        steps with that tag lies in the class."""
        key = (tag, depth, joint)
        if key not in self.moves:
            after = self.compat.step(self.tags[tag], depth,
                                     self.joints[joint])
            if after not in self.ids:
                self.ids[after] = len(self.tags)
                self.tags.append(after)
            self.moves[key] = (self.ids[after],
                               self.compat.live(after, depth + 1))
        return self.moves[key]

    def count(self, steps: np.ndarray, prefixes: np.ndarray) -> int:
        """How many paths' witness prefixes lie in the class: path i's
        prefix is its first `steps[i]` joint-action indices, column i of
        `prefixes` (one row per step); paths with step -1 are left out.

        A path moves only up to its witness step: the paths moved past a
        depth are those whose step lies beyond it, and the paths whose
        witness ends at the next depth are counted there.
        """
        width = len(self.joints)
        admitted = (int((steps == 0).sum())
                    if self.compat.live(self.compat.start, 0) else 0)
        paths = np.flatnonzero(steps > 0)
        left, tag = steps[paths], np.zeros(len(paths), dtype=np.int64)
        for depth in range(int(steps.max(initial=0))):
            if depth:  # drop the paths whose witness ended at this depth
                going = np.flatnonzero(left > depth)
                paths, left, tag = (a.take(going) for a in (paths, left, tag))
            keys = tag * width + prefixes[depth].take(paths)
            pairs, inverse = _relabel(keys, len(self.tags) * width)
            moved, live = zip(*(self._move(pair // width, depth, pair % width)
                                for pair in pairs.tolist()))
            tag = np.array(moved, dtype=np.int64).take(inverse)
            ends = left == depth + 1
            ends &= np.array(live).take(inverse)
            admitted += int(np.count_nonzero(ends))
        return admitted


def _relabel(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `keys`, naturals below `size`, in increasing
    order, and each key's index among them.

    Counting makes a few passes over `size` cells and sorting about
    log2(len(keys)) passes over the keys; counting is the faster while
    `size` is at most twice the number of keys (measured at 100 to 10k
    keys), so it counts there and sorts beyond.
    """
    if size > 2 * len(keys):
        return np.unique(keys, return_inverse=True)
    present = np.bincount(keys, minlength=size) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1).take(keys)

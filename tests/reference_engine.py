"""References the tests compare the package against, which no query runs.

- `simulate_paths` streams the sampler's histories one by one, as tuples
  of state and joint-action names, with every state open: no path enters
  a verdict sink.
- `simplex_grid` lists the grid points of a coalition's strategy simplices
  by filtering a box, sharing no code with `polyarith.GridWalk`.
- `grid_best_response` scans an agent's grid exhaustively with exact
  utility evaluation, the check that `ne`'s pure-deviation verifier does
  not make.
- `naive_transitions` multiplies the agents' action probabilities afresh
  for every (state, joint action), as `Psmas` did before it shared each
  product across states.
- `verify_ne_by_valuation` evaluates every pure deviation at a copy of
  the candidate with the vertex written over it, reading each degree by
  `degree_at`, as `verify_ne` did before it substituted the vertex into
  the utility's parts.
- `PerPolynomialFloats` takes the place of `polyarith.FloatSystem` in
  `solve_ne`: it evaluates each equation and Jacobian entry by its own
  `evaluate_float` at a dict of the point, as Newton did before the system
  was compiled.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from respgames.checker import degree_at
from respgames.errors import MissingParameterError
from respgames.oracle import _blocks, _Sampler, _start
from respgames.polyarith import Polynomial


def simulate_paths(m, cfg, depth):
    """Stream sampled histories of `depth` steps as (states, joint actions)
    tuples, in the stream order of the estimators."""
    sampler = _Sampler(m, cfg.valuation, cfg.samples * depth)
    start = sampler.start_row(_start(m, cfg))
    for _, count, rng in _blocks(cfg):
        block = sampler.sample_block(start, count, depth, rng)
        states, _ = block
        # copied out by `tolist` before the next block overwrites `states`
        for st, acts in zip(states.T.tolist(),
                            sampler.joint_ids(block).T.tolist()):
            yield (tuple(sampler.states[i] for i in st),
                   tuple(sampler.joints[j] for j in acts))


def simplex_grid(m, scopes, denominator):
    """The grid points of the scopes' free parameters at step
    1/denominator: per scope the free parameters sum to at most 1, and the
    points come in lexicographic order, scope by scope."""
    steps = range(denominator + 1)
    per_scope = [[combo for combo in itertools.product(
        steps, repeat=len(m.free_params(scope)))
        if sum(combo) <= denominator] for scope in scopes]
    flat = [p for scope in scopes for p in m.free_params(scope)]
    for combo in itertools.product(*per_scope):
        yield {p: Fraction(i, denominator)
               for p, i in zip(flat, itertools.chain(*combo))}


@dataclass(frozen=True)
class BestResponse:
    """Grid maximizers of one agent's utility against fixed opponents."""

    maximizers: tuple
    utility: Fraction


def grid_best_response(m, parts, others, resolution=Fraction(1, 1000)):
    """Scan the parameter grid of `parts.agent` for the maximizers of its
    utility `parts`, with the other parameters fixed by `others`.

    Evaluation is exact at every grid point; every point within 1e-12 of
    the maximum is returned.
    """
    scopes = m.agent_scopes(parts.agent)
    own = {p for scope in scopes for p in m.free_params(scope)}
    for p in m.params:
        if p not in own and p not in others:
            raise MissingParameterError(p)

    fixed = {p: Fraction(v) for p, v in others.items()}
    best = None
    argmax = []
    slack = Fraction(1, 10 ** 12)
    for point in simplex_grid(m, scopes, int(1 / resolution)):
        value = parts.evaluate({**fixed, **point})
        if best is None or value > best + slack:
            best, argmax = value, [point]
        elif value >= best - slack:
            argmax.append(point)
    return BestResponse(maximizers=tuple(argmax), utility=best)


def naive_transitions(m):
    """The transition table of `m`, each entry the product of one action
    probability per agent, multiplied left to right from 1 for every
    (state, joint action), times the kernel entry."""
    base = m.base
    out = {}
    for state in base.states:
        for joint in base.joint_actions(state):
            mix = Polynomial.one()
            for agent, action in zip(base.agents, joint):
                mix = mix * m.action_probability(agent, state, action)
            for target, prob in base.delta[(state, joint)].items():
                if prob != 0:
                    out[(state, joint, target)] = mix * prob
    return out


def utility_by_degrees(u, valuation):
    """The utility `u` at a valuation, each degree read by `degree_at`."""
    total = u.cfg.lambda1 * u.payoff.evaluate(valuation)
    if u.cfg.lambda2 != 0:
        resp = Fraction(0)
        if u.car is not None:
            resp += degree_at(u.car, valuation)[0]
        if u.cpr is not None:
            resp += u.cfg.theta * degree_at(u.cpr, valuation)[0]
        total -= u.cfg.lambda2 * resp
    return total


def verify_ne_by_valuation(m, parts, candidate, epsilon=1e-6):
    """`synth.verify_ne`, evaluating each deviation at the candidate with
    the deviating scope's vertex written over it."""
    max_gain = 0.0
    for u in parts:
        here = utility_by_degrees(u, candidate)
        for scope in m.agent_scopes(u.agent):
            for action in m.scope_actions(scope):
                deviated = dict(candidate)
                deviated.update(m.vertex_valuation(scope, action))
                gain = float(utility_by_degrees(u, deviated) - here)
                if gain > epsilon:
                    return False, gain
                max_gain = max(max_gain, gain)
    return True, max_gain


class PerPolynomialFloats:
    """`polyarith.FloatSystem`'s interface, with no compiled rows: a
    point's "table" is the point as a dict, and every polynomial of a
    group is evaluated by `Polynomial.evaluate_float` on its own."""

    def __init__(self, groups, params):
        self._groups = [list(group) for group in groups]
        self._params = list(params)

    def powers(self, point):
        return dict(zip(self._params, point))

    def values(self, group, point):
        return [poly.evaluate_float(point) for poly in self._groups[group]]

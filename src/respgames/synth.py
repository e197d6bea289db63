"""Utilities over plans and mixed strategies, and equilibrium synthesis.

An agent's utility weighs its expected payoff against its responsibility:
lambda1 * payoff - lambda2 * (CAR + theta * CPR).  Equilibria are found by
support enumeration: for every combination of supported actions per agent
scope, the indifference equations (equal utility for every supported action,
cross-multiplied to polynomial form) are solved by multi-start damped Newton
iteration inside the unit box, pinned actions are substituted out, and every
surviving candidate must pass the epsilon-best-response verifier exactly.
Numeric root finding, exact post-hoc residuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .checker import (DegreeResult, QueryContext, car_degree, cpr_degree,
                      degree_value_at)
from .errors import NoSolutionError, UnsupportedQueryError
from .logic import PathFormula
from .model import Psmas, RewardStructure, Scope, check_admissible
from .polyarith import ParamId, Polynomial, RationalFunction
from .trace import Plan, total_payoff


@dataclass(frozen=True)
class UtilityConfig:
    """Weights of the utility: payoff, responsibility, and CPR-vs-CAR mix."""

    lambda1: Fraction = Fraction(1)
    lambda2: Fraction = Fraction(0)
    theta: Fraction = Fraction(1)


@dataclass(frozen=True)
class ResponsibilitySpec:
    """The outcome a responsibility-aware utility is attributed against."""

    plan: Plan
    psi: PathFormula


def payoff_valuation(m: Psmas, plan_or_horizon: Plan | int, agent: str,
                     r: RewardStructure | None = None,
                     state: str | None = None) -> Polynomial:
    """Expected payoff of a pure plan, or of the mixed-strategy setting.

    For a plan, sums the per-step expected payoffs of its consistent
    histories; for an integer horizon, sums over all histories of that depth
    (the strategy parameters carry the mixing).  Every history adds each of
    its steps' transition entry times that step's reward, so a step is
    counted once per history through it (see `trace.total_payoff`).
    """
    if r is None:
        r = m.base.rewards.get(agent)
        if r is None:
            r = RewardStructure(agent=agent,
                                agent_index=m.base.agent_index(agent))
    if isinstance(plan_or_horizon, Plan):
        plan = plan_or_horizon
        total = total_payoff(m, r, plan.start, len(plan), plan)
        if state is not None and state != plan.start:
            raise ValueError("state disagrees with the plan's start")
        return total
    start = state if state is not None else m.base.initial
    return total_payoff(m, r, start, plan_or_horizon)


def resp_valuation(m: Psmas, state: str, agent: str, plan: Plan,
                   psi: PathFormula, theta: Fraction = Fraction(1),
                   ctx: QueryContext | None = None) -> RationalFunction:
    """Responsibility valuation: CAR degree + theta * CPR degree (full
    coalition)."""
    car = car_degree(m, state, agent, plan, psi, ctx=ctx)
    if theta == 0:
        return car.value
    cpr = cpr_degree(m, state, agent, plan, psi, ctx=ctx)
    return car.value + theta * cpr.value


@dataclass(frozen=True)
class UtilityParts:
    """An agent's utility, kept in parts so evaluation can apply the
    zero-mass convention to each degree separately."""

    agent: str
    payoff: Polynomial
    car: DegreeResult | None
    cpr: DegreeResult | None
    cfg: UtilityConfig
    _symbolic: RationalFunction | None = field(
        default=None, init=False, repr=False, compare=False)

    def symbolic(self) -> RationalFunction:
        """The utility as one rational function, built on the first call."""
        if self._symbolic is None:
            object.__setattr__(self, "_symbolic", self._build_symbolic())
        return self._symbolic

    def _build_symbolic(self) -> RationalFunction:
        total = RationalFunction(self.payoff * self.cfg.lambda1)
        if self.cfg.lambda2 != 0:
            resp = RationalFunction(Polynomial.zero())
            if self.car is not None:
                resp = resp + self.car.value
            if self.cpr is not None:
                resp = resp + self.cfg.theta * self.cpr.value
            total = total - self.cfg.lambda2 * resp
        return total

    def evaluate(self, valuation: Mapping[ParamId, Fraction]) -> Fraction:
        total = self.cfg.lambda1 * self.payoff.evaluate(valuation)
        if self.cfg.lambda2 != 0:
            resp = Fraction(0)
            if self.car is not None:
                resp += degree_value_at(self.car, valuation)
            if self.cpr is not None:
                resp += self.cfg.theta * degree_value_at(self.cpr, valuation)
            total -= self.cfg.lambda2 * resp
        return total


def utility_parts(m: Psmas, agent: str, cfg: UtilityConfig, horizon: int,
                  resp_spec: ResponsibilitySpec | None = None,
                  state: str | None = None) -> UtilityParts:
    start = state if state is not None else m.base.initial
    pay = Polynomial.zero()
    if cfg.lambda1 != 0:
        pay = payoff_valuation(m, horizon, agent, state=start)
    car = cpr = None
    if cfg.lambda2 != 0:
        if resp_spec is None:
            raise UnsupportedQueryError(
                "responsibility weight lambda2 is nonzero but no outcome "
                "(plan, formula) was given")
        car = car_degree(m, start, agent, resp_spec.plan, resp_spec.psi)
        if cfg.theta != 0:
            cpr = cpr_degree(m, start, agent, resp_spec.plan, resp_spec.psi)
    return UtilityParts(agent=agent, payoff=pay, car=car, cpr=cpr, cfg=cfg)


def utility(m: Psmas, state: str | None, agent: str, cfg: UtilityConfig,
            horizon: int,
            resp_spec: ResponsibilitySpec | None = None) -> RationalFunction:
    """The symbolic utility function of one agent."""
    return utility_parts(m, agent, cfg, horizon, resp_spec, state).symbolic()


# -- the indifference system ---------------------------------------------


@dataclass(frozen=True)
class NeSystem:
    """Polynomial equations (= 0) whose box solutions are equilibrium
    candidates for one support assignment."""

    variables: tuple[ParamId, ...]
    equations: tuple[Polynomial, ...]
    box: Mapping[ParamId, tuple[Fraction, Fraction]]
    support: Mapping[Scope, tuple[str, ...]]
    pinned: Mapping[ParamId, Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class NeSolution:
    """A verified equilibrium candidate."""

    valuation: dict[ParamId, Fraction]
    residual: float
    epsilon: float
    support: Mapping[Scope, tuple[str, ...]]

    def as_floats(self) -> dict[str, float]:
        return {p.name: float(v) for p, v in sorted(
            self.valuation.items(), key=lambda kv: kv[0].order_key)}


def full_support(m: Psmas) -> dict[Scope, tuple[str, ...]]:
    return {scope: m.scope_actions(scope) for scope in m.scopes()}


def build_ne_system(m: Psmas, horizon: int, cfg: UtilityConfig,
                    resp_spec: ResponsibilitySpec | None = None,
                    support: Mapping[Scope, tuple[str, ...]] | None = None,
                    state: str | None = None,
                    parts: Mapping[str, UtilityParts] | None = None
                    ) -> NeSystem:
    """Equal-utility equations for every pair of supported actions.

    "Plays a at scope" substitutes that scope's parameters with the pure
    vertex for a; differences of the resulting rational functions are
    cross-multiplied to polynomials.  Unsupported free parameters are pinned
    to 0; an unsupported dependent action adds the simplex residual equation
    1 - (sum of supported free parameters) = 0.  `parts` are the agents'
    utilities when the caller already holds them (computed otherwise).
    """
    support = dict(support) if support is not None else full_support(m)
    for scope in m.scopes():
        acts = support.get(scope)
        if not acts:
            raise UnsupportedQueryError(
                f"support must pick at least one action for {scope[0]}")
        unknown = set(acts) - set(m.scope_actions(scope))
        if unknown:
            raise UnsupportedQueryError(
                f"support names unknown action {sorted(unknown)[0]}")

    pinned: dict[ParamId, Fraction] = {}
    extra_equations: list[Polynomial] = []
    for scope in m.scopes():
        acts = set(support[scope])
        if len(acts) == 1:
            # Forced pure choice: the whole scope is a vertex.
            pinned.update(m.vertex_valuation(scope, next(iter(acts))))
            continue
        for p in m.free_params(scope):
            if p.action not in acts:
                pinned[p] = Fraction(0)
        if m.dependent[scope] not in acts:
            residual = Polynomial.one()
            for p in m.free_params(scope):
                if p.action in acts:
                    residual = residual - Polynomial.variable(p)
            extra_equations.append(residual)

    pin_bindings = {p: Polynomial.constant(v) for p, v in pinned.items()}
    if parts is None:
        parts = {agent: utility_parts(m, agent, cfg, horizon, resp_spec,
                                      state)
                 for agent in m.base.agents}

    equations: list[Polynomial] = list(extra_equations)
    for agent in m.base.agents:
        u = parts[agent].symbolic()
        num = u.num.substitute(pin_bindings)
        den = u.den.substitute(pin_bindings)
        for scope in m.agent_scopes(agent):
            acts = [a for a in m.scope_actions(scope) if a in support[scope]]
            if len(acts) < 2:
                continue
            plays = []
            for action in acts:
                vertex = {p: Polynomial.constant(v) for p, v in
                          m.vertex_valuation(scope, action).items()}
                plays.append((num.substitute(vertex),
                              den.substitute(vertex)))
            for (n_a, d_a), (n_b, d_b) in itertools.combinations(plays, 2):
                equations.append(n_a * d_b - n_b * d_a)

    variables = tuple(p for p in m.params if p not in pinned)
    box = {p: (Fraction(0), Fraction(1)) for p in variables}
    return NeSystem(variables=variables, equations=tuple(equations),
                    box=box, support=support, pinned=pinned)


# -- numeric solving --------------------------------------------------------


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13)


def solve_ne(sys: NeSystem, seeds: int = 24, seed: int = 0,
             residual_tol: float = 1e-9,
             verifier: Callable[[dict[ParamId, Fraction]], tuple[bool, float]]
             | None = None) -> list[NeSolution]:
    """Multi-start damped Newton on the system, restricted to the box.

    Starts are quasi-random (Halton) points offset by the seed, solutions are
    deduplicated at 1e-6 in the max norm, residuals are re-evaluated exactly
    via polynomial arithmetic, and candidates must pass the supplied verifier
    (for standalone systems the exact residual is the whole check).
    Deterministic given the seed.
    """
    variables = list(sys.variables)
    if len(variables) > 6:
        raise UnsupportedQueryError(
            f"{len(variables)} free variables exceed the solver limit of 6")
    equations = [eq for eq in sys.equations if not eq.is_zero]

    if not variables:
        candidates = [dict(sys.pinned)]
        return _finish(sys, candidates, equations, residual_tol, verifier)

    jacobian = [[eq.derivative(v) for v in variables] for eq in equations]

    def f_vec(x: np.ndarray) -> np.ndarray:
        point = {v: float(xi) for v, xi in zip(variables, x)}
        return np.array([eq.evaluate_float(point) for eq in equations])

    def j_mat(x: np.ndarray) -> np.ndarray:
        point = {v: float(xi) for v, xi in zip(variables, x)}
        return np.array([[d.evaluate_float(point) for d in row]
                         for row in jacobian])

    candidates: list[dict[ParamId, Fraction]] = []
    for s in range(seeds):
        idx = seed * seeds + s + 1
        x = np.array([_halton(idx, _PRIMES[d % len(_PRIMES)])
                      for d in range(len(variables))])
        x = 0.02 + 0.96 * x  # interior starts
        if not equations:
            candidates.append(_to_exact(sys, variables, x))
            continue
        x = _newton(f_vec, j_mat, x, len(equations))
        if x is not None:
            candidates.append(_to_exact(sys, variables, x))
    return _finish(sys, candidates, equations, residual_tol, verifier)


def _newton(f_vec, j_mat, x: np.ndarray, n_eq: int) -> np.ndarray | None:
    fx = f_vec(x)
    norm = float(np.max(np.abs(fx))) if n_eq else 0.0
    for _ in range(80):
        if norm < 1e-13:
            return x
        try:
            step, *_ = np.linalg.lstsq(j_mat(x), -fx, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        # Damping: halve until the residual actually shrinks.
        for damp in range(13):
            trial = np.clip(x + step * (0.5 ** damp), 0.0, 1.0)
            ft = f_vec(trial)
            nt = float(np.max(np.abs(ft)))
            if nt < norm:
                x, fx, norm = trial, ft, nt
                break
        else:
            return x if norm < 1e-13 else None
    return x if norm < 1e-13 else None


def _to_exact(sys: NeSystem, variables: Sequence[ParamId],
              x: np.ndarray) -> dict[ParamId, Fraction]:
    out = dict(sys.pinned)
    for v, xi in zip(variables, x):
        value = Fraction(float(xi))
        if abs(xi) < 1e-12:
            value = Fraction(0)
        elif abs(xi - 1.0) < 1e-12:
            value = Fraction(1)
        out[v] = value
    return out


def _finish(sys: NeSystem, candidates, equations, residual_tol, verifier
            ) -> list[NeSolution]:
    solutions: list[NeSolution] = []
    best_residual = float("inf")
    for cand in candidates:
        residual = 0.0
        for eq in equations:
            residual = max(residual, abs(float(eq.evaluate(cand))))
        best_residual = min(best_residual, residual)
        if residual > residual_tol:
            continue
        gap = 0.0
        if verifier is not None:
            ok, gap = verifier(cand)
            if not ok:
                continue
        if any(_close(sol.valuation, cand) for sol in solutions):
            continue
        solutions.append(NeSolution(valuation=cand, residual=residual,
                                    epsilon=gap, support=sys.support))
    if not solutions:
        raise NoSolutionError(best_residual)
    return solutions


def _close(a: Mapping[ParamId, Fraction], b: Mapping[ParamId, Fraction],
           tol: float = 1e-6) -> bool:
    keys = set(a) | set(b)
    return all(abs(float(a.get(k, 0)) - float(b.get(k, 0))) < tol
               for k in keys)


# -- verification -------------------------------------------------------------


def verify_ne(m: Psmas, candidate: Mapping[ParamId, Fraction], horizon: int,
              cfg: UtilityConfig,
              resp_spec: ResponsibilitySpec | None = None,
              epsilon: float = 1e-6,
              state: str | None = None,
              parts: Mapping[str, UtilityParts] | None = None
              ) -> tuple[bool, float]:
    """Check that no agent gains more than epsilon by a pure deviation.

    Pure deviations at each scope suffice for utilities linear in the
    agent's own parameters (the monotone-mixture argument); the grid oracle
    covers interior deviations independently.  Returns (ok, max gain).
    """
    if parts is None:
        parts = {agent: utility_parts(m, agent, cfg, horizon, resp_spec,
                                      state)
                 for agent in m.base.agents}
    max_gain = 0.0
    for agent in m.base.agents:
        u = parts[agent]
        here = u.evaluate(candidate)
        for scope in m.agent_scopes(agent):
            for action in m.scope_actions(scope):
                deviated = dict(candidate)
                deviated.update(m.vertex_valuation(scope, action))
                gain = float(u.evaluate(deviated) - here)
                max_gain = max(max_gain, gain)
    return max_gain <= epsilon, max_gain


# -- support enumeration driver ------------------------------------------------


def find_equilibria(m: Psmas, horizon: int, cfg: UtilityConfig,
                    resp_spec: ResponsibilitySpec | None = None,
                    state: str | None = None, seeds: int = 24, seed: int = 0,
                    residual_tol: float = 1e-9, epsilon: float = 1e-6,
                    max_supports: int = 4096) -> list[NeSolution]:
    """Enumerate supports, solve each restricted system, verify, deduplicate.

    Every returned solution is admissible, meets the residual tolerance on
    its system, and passes verify_ne at epsilon (closed loop).
    """
    scopes = m.scopes()
    per_scope: list[list[tuple[str, ...]]] = []
    for scope in scopes:
        actions = m.scope_actions(scope)
        subsets = []
        for size in range(1, len(actions) + 1):
            subsets.extend(itertools.combinations(actions, size))
        per_scope.append(subsets)
    combos = 1
    for subsets in per_scope:
        combos *= len(subsets)
    if combos > max_supports:
        raise UnsupportedQueryError(
            f"{combos} support combinations exceed the limit {max_supports}")

    parts = {agent: utility_parts(m, agent, cfg, horizon, resp_spec, state)
             for agent in m.base.agents}

    def verifier(cand: Mapping[ParamId, Fraction]) -> tuple[bool, float]:
        if not check_admissible(m, cand).ok:
            return False, float("inf")
        return verify_ne(m, cand, horizon, cfg, resp_spec, epsilon, state,
                         parts)

    solutions: list[NeSolution] = []
    for combo in itertools.product(*per_scope):
        support = dict(zip(scopes, combo))
        sys = build_ne_system(m, horizon, cfg, resp_spec, support, state,
                              parts)
        try:
            found = solve_ne(sys, seeds=seeds, seed=seed,
                             residual_tol=residual_tol, verifier=verifier)
        except NoSolutionError:
            continue
        for sol in found:
            if not any(_close(prev.valuation, sol.valuation)
                       for prev in solutions):
                solutions.append(sol)
    solutions.sort(key=lambda sol: tuple(
        float(sol.valuation[p]) for p in m.params))
    return solutions

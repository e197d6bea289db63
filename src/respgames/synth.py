"""Utilities over plans and mixed strategies, and equilibrium synthesis.

An agent's utility weighs its expected payoff against its responsibility:
lambda1 * payoff - lambda2 * (CAR + theta * CPR).  Equilibria are found by
support enumeration: for every combination of supported actions per agent
scope, the indifference equations (equal utility for every supported action,
cross-multiplied to polynomial form) are solved by multi-start damped Newton
iteration inside the unit box, pinned actions are substituted out, and every
surviving candidate must pass the epsilon-best-response verifier exactly.
Numeric root finding, exact post-hoc residuals.  `find_equilibria` builds
each agent's utility once (`utility_parts`) and hands the same parts to
every support's system and to the verifier.

Each support's equations and Jacobian compile once into float rows
(`polyarith.FloatSystem`), and Newton reads f and J at a point from one
table of its powers; every float is the one per-polynomial evaluation
gives.  At a candidate, residuals, utilities and gains stay unreduced
integer ratios whose polynomials share one table per (parameter, top)
(`Polynomial.evaluate_ratio`): a utility is one (numerator, denominator)
pair, and a gain is one correctly rounded integer division, the float
that `float(Fraction)` of the exact difference gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .checker import DegreeResult, car_degree, cpr_degree
from .errors import NoSolutionError, UnsupportedQueryError
from .logic import PathFormula
from .model import Psmas, Scope, check_admissible
from .polyarith import FloatSystem, ParamId, Polynomial, RationalFunction
from .trace import Plan, total_payoff

# The most support combinations `find_equilibria` enumerates; more exit 3
# before any system is built.
MAX_SUPPORTS = 4096

# Newton stops, converged, when no equation's float residual reaches this.
_NEWTON_TOL = 1e-13


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


def payoff_valuation(m: Psmas, horizon: int, agent: str,
                     state: str | None = None) -> Polynomial:
    """Expected payoff of the mixed-strategy setting over `horizon` steps.

    Sums over all histories of that depth from `state` (the initial state
    by default); the strategy parameters carry the mixing.  Every history
    adds each of its steps' transition entry times that step's reward, so a
    step is counted once per history through it (see `trace.total_payoff`).
    """
    start = state if state is not None else m.base.initial
    return total_payoff(m, m.base.rewards[agent], start, horizon)


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
    # `_polys()` with the pure choice of (scope, action) substituted
    _deviations: dict[tuple[Scope, str], tuple[Polynomial | None, ...]] = (
        field(default_factory=dict, init=False, repr=False, compare=False))

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
        return Fraction(*self.ratio(valuation, {}))

    def ratio(self, valuation: Mapping[ParamId, Fraction],
              tables: dict) -> tuple[int, int]:
        """The utility at `valuation` as an unreduced (numerator, positive
        denominator), its polynomials sharing `tables` as in
        `Polynomial.evaluate_ratio`."""
        return self._ratio(self._polys(), valuation, tables)

    def deviation_ratio(self, m: Psmas, scope: Scope, action: str,
                        valuation: Mapping[ParamId, Fraction], tables: dict
                        ) -> tuple[int, int]:
        """`ratio` when `scope` plays `action` purely and every other
        parameter takes its value in `valuation`.

        Each part is read with the vertex already substituted, built on
        the first call for (scope, action).  Substitution is a ring
        homomorphism and keeps each degree's denominator unreduced, so
        the value, the zero-mass decision included, is exactly `ratio`
        at the valuation with the vertex written over it.
        """
        polys = self._deviations.get((scope, action))
        if polys is None:
            vertex = _vertex(m, scope, action)
            polys = self._deviations[scope, action] = tuple(
                None if poly is None else poly.substitute(vertex)
                for poly in self._polys())
        return self._ratio(polys, valuation, tables)

    def _polys(self) -> tuple[Polynomial | None, ...]:
        """The payoff, then CAR's and CPR's numerator and denominator,
        None for a degree that is absent or whose guard fails."""
        out = [self.payoff]
        for degree in (self.car, self.cpr):
            if degree is None or not degree.kappa:
                out += (None, None)
            else:
                out += (degree.value.num, degree.value.den)
        return tuple(out)

    def _ratio(self, polys: tuple[Polynomial | None, ...],
               valuation: Mapping[ParamId, Fraction], tables: dict
               ) -> tuple[int, int]:
        """lambda1 * payoff - lambda2 * (CAR + theta * CPR) as one
        unreduced integer ratio.  A degree is 0, by the zero-mass
        convention, where its denominator's numerator is 0."""
        payoff, car_num, car_den, cpr_num, cpr_den = polys
        cfg = self.cfg
        n, d = payoff.evaluate_ratio(valuation, tables)
        n *= cfg.lambda1.numerator
        d *= cfg.lambda1.denominator
        if cfg.lambda2 == 0:
            return n, d
        l2, theta = cfg.lambda2, cfg.theta
        for num, den, w_n, w_d in (
                (car_num, car_den, l2.numerator, l2.denominator),
                (cpr_num, cpr_den, l2.numerator * theta.numerator,
                 l2.denominator * theta.denominator)):
            if num is None:
                continue
            mass_n, mass_d = den.evaluate_ratio(valuation, tables)
            if mass_n == 0:
                continue
            deg_n, deg_d = num.evaluate_ratio(valuation, tables)
            # n/d - (w_n/w_d) * (deg_n/deg_d) / (mass_n/mass_d)
            sub_n = w_n * deg_n * mass_d
            sub_d = w_d * deg_d * mass_n
            if sub_d < 0:
                sub_n, sub_d = -sub_n, -sub_d
            n, d = n * sub_d - sub_n * d, d * sub_d
        return n, d


def _vertex(m: Psmas, scope: Scope, action: str) -> dict[ParamId, Polynomial]:
    """The bindings that make `action` the pure choice at `scope`."""
    return {p: Polynomial.constant(v)
            for p, v in m.vertex_valuation(scope, action).items()}


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


# -- the indifference system ---------------------------------------------


@dataclass(frozen=True)
class NeSystem:
    """Polynomial equations (= 0) whose box solutions are equilibrium
    candidates for one support assignment."""

    variables: tuple[ParamId, ...]
    equations: tuple[Polynomial, ...]
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


def build_ne_system(m: Psmas, parts: Sequence[UtilityParts],
                    support: Mapping[Scope, tuple[str, ...]]) -> NeSystem:
    """Equal-utility equations for every pair of supported actions.

    "Plays a at scope" substitutes that scope's parameters with the pure
    vertex for a; differences of the resulting rational functions are
    cross-multiplied to polynomials.  Unsupported free parameters are pinned
    to 0; an unsupported dependent action adds the simplex residual equation
    1 - (sum of supported free parameters) = 0.  `parts` holds one utility
    per agent.
    """
    support = dict(support)
    pinned: dict[ParamId, Fraction] = {}
    extra_equations: list[Polynomial] = []
    for scope, space in m.table.items():
        acts = set(support.get(scope, ()))
        if not acts:
            raise UnsupportedQueryError(
                f"support must pick at least one action for {scope[0]}")
        unknown = acts - set(space.actions)
        if unknown:
            raise UnsupportedQueryError(
                f"support names unknown action {sorted(unknown)[0]}")
        if len(acts) == 1:
            # Forced pure choice: the whole scope is a vertex.
            pinned.update(m.vertex_valuation(scope, next(iter(acts))))
            continue
        for p in space.free:
            if p.action not in acts:
                pinned[p] = Fraction(0)
        if space.dependent.action not in acts:
            residual = Polynomial.one()
            for p in space.free:
                if p.action in acts:
                    residual = residual - Polynomial.variable(p)
            extra_equations.append(residual)

    pin_bindings = {p: Polynomial.constant(v) for p, v in pinned.items()}
    equations: list[Polynomial] = list(extra_equations)
    for u in parts:
        rf = u.symbolic()
        num = rf.num.substitute(pin_bindings)
        den = rf.den.substitute(pin_bindings)
        for scope in m.agent_scopes(u.agent):
            acts = [a for a in m.scope_actions(scope) if a in support[scope]]
            if len(acts) < 2:
                continue
            plays = []
            for action in acts:
                vertex = _vertex(m, scope, action)
                plays.append((num.substitute(vertex),
                              den.substitute(vertex)))
            for (n_a, d_a), (n_b, d_b) in itertools.combinations(plays, 2):
                equations.append(n_a * d_b - n_b * d_a)

    variables = tuple(p for p in m.params if p not in pinned)
    return NeSystem(variables=variables, equations=tuple(equations),
                    support=support, pinned=pinned)


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

    if any(eq.is_constant and abs(eq.evaluate_float({})) >= _NEWTON_TOL
           for eq in equations):
        # that equation's residual stays at its value: no start converges
        return _finish(sys, [], equations, residual_tol, verifier)

    # group 0 the equations, group 1 the Jacobian row by row
    system = FloatSystem((equations, [eq.derivative(v) for eq in equations
                                      for v in variables]), variables)
    candidates: list[dict[ParamId, Fraction]] = []
    for s in range(seeds):
        idx = seed * seeds + s + 1
        x = [0.02 + 0.96 * _halton(idx, _PRIMES[d % len(_PRIMES)])
             for d in range(len(variables))]  # interior starts
        x = _newton(system, x)
        if x is not None:
            candidates.append(_to_exact(sys, variables, x))
    return _finish(sys, candidates, equations, residual_tol, verifier)


def _newton(system: FloatSystem, x: list[float]) -> list[float] | None:
    """Damped Newton inside the box from x; None when it stalls.

    Each step solves J step = -f in the least-squares sense and is halved
    until the max-norm residual shrinks; x has converged once that
    residual is below _NEWTON_TOL.  f and J at a point read one table of
    its powers, made when f is.  The vectors hold at most six floats,
    so outside `lstsq` the loop runs on Python floats: `_max_abs` and
    `_clip` give what np.max(np.abs(v)) and np.clip give, bit for bit.
    A residual or Jacobian that is not finite stalls before `lstsq`, whose
    LAPACK would print its complaint to standard output.
    """
    powers = system.powers(x)
    fx = system.values(0, powers)
    norm = _max_abs(fx)
    for _ in range(80):
        if norm < _NEWTON_TOL:
            return x
        jac = np.array(system.values(1, powers)).reshape(len(fx), len(x))
        if not (math.isfinite(norm) and np.isfinite(jac).all()):
            return None
        try:
            step, *_ = np.linalg.lstsq(jac, np.negative(fx), rcond=None)
        except np.linalg.LinAlgError:
            return None
        step = step.tolist()
        if not all(map(math.isfinite, step)):
            return None
        # Damping: halve until the residual actually shrinks.
        for damp in range(13):
            scale = 0.5 ** damp
            trial = [_clip(xi + si * scale) for xi, si in zip(x, step)]
            trial_powers = system.powers(trial)
            ft = system.values(0, trial_powers)
            nt = _max_abs(ft)
            if nt < norm:
                x, powers, fx, norm = trial, trial_powers, ft, nt
                break
        else:
            return x if norm < _NEWTON_TOL else None
    return x if norm < _NEWTON_TOL else None


def _max_abs(values: Sequence[float]) -> float:
    """The largest |v|, 0.0 for none; NaN if any v is NaN, as np.max
    propagates it, so a NaN residual never counts as shrinking."""
    out = 0.0
    for v in values:
        v = abs(v)
        if v != v:
            return v
        if v > out:
            out = v
    return out


def _clip(v: float) -> float:
    """v clipped to [0, 1] as np.clip clips a float."""
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _to_exact(sys: NeSystem, variables: Sequence[ParamId],
              x: Sequence[float]) -> dict[ParamId, Fraction]:
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
        tables: dict = {}
        for eq in equations:
            n, d = eq.evaluate_ratio(cand, tables)
            residual = max(residual, abs(n / d))
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


def verify_ne(m: Psmas, parts: Sequence[UtilityParts],
              candidate: Mapping[ParamId, Fraction],
              epsilon: float = 1e-6) -> tuple[bool, float]:
    """Check that no agent gains more than epsilon by a pure deviation.

    Pure deviations at each scope suffice for utilities linear in the
    agent's own parameters (the monotone-mixture argument); nothing here
    tries interior deviations, so with responsibility weights a passing
    candidate need not be an equilibrium.  `parts` holds one utility
    per agent; each deviation is read off the utility with its vertex
    substituted (`UtilityParts.deviation_ratio`).  Returns (True, the
    largest gain, at least 0) when every gain is at most epsilon;
    otherwise (False, the first gain over epsilon), without trying the
    deviations after it.
    """
    max_gain = 0.0
    tables: dict = {}
    for u in parts:
        here_n, here_d = u.ratio(candidate, tables)
        for scope in m.agent_scopes(u.agent):
            for action in m.scope_actions(scope):
                n, d = u.deviation_ratio(m, scope, action, candidate, tables)
                # int / int rounds correctly, as float(Fraction) does
                gain = (n * here_d - here_n * d) / (d * here_d)
                if gain > epsilon:
                    return False, gain
                max_gain = max(max_gain, gain)
    return True, max_gain


# -- support enumeration driver ------------------------------------------------


def find_equilibria(m: Psmas, horizon: int, cfg: UtilityConfig,
                    resp_spec: ResponsibilitySpec | None = None,
                    state: str | None = None, seeds: int = 24, seed: int = 0,
                    residual_tol: float = 1e-9, epsilon: float = 1e-6
                    ) -> list[NeSolution]:
    """Enumerate supports, solve each restricted system, verify, deduplicate.

    Every returned solution is admissible, meets the residual tolerance on
    its system, and passes verify_ne at epsilon (closed loop).
    """
    # every nonempty subset of each scope's actions
    per_scope = [[subset for size in range(1, len(space.actions) + 1)
                  for subset in itertools.combinations(space.actions, size)]
                 for space in m.table.values()]
    combos = math.prod(len(subsets) for subsets in per_scope)
    if combos > MAX_SUPPORTS:
        raise UnsupportedQueryError(
            f"{combos} support combinations exceed the limit {MAX_SUPPORTS}")

    parts = tuple(utility_parts(m, agent, cfg, horizon, resp_spec, state)
                  for agent in m.base.agents)

    def verifier(cand: Mapping[ParamId, Fraction]) -> tuple[bool, float]:
        if not check_admissible(m, cand).ok:
            return False, float("inf")
        return verify_ne(m, parts, cand, epsilon)

    solutions: list[NeSolution] = []
    for combo in itertools.product(*per_scope):
        sys = build_ne_system(m, parts, dict(zip(m.table, combo)))
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

"""Game model types, the model file parser, and the parametric construction.

A Csg is the concrete game: agents, states, per-state available actions, an
exact stochastic transition kernel over joint actions, labels, rewards and
named pure joint plans.  build_psmas turns it into the parametric model whose
transition entries are polynomials in the strategy parameters, with one
dependent action per agent scope eliminated as 1 - (sum of the others) so
that the per-scope simplex identity holds algebraically.  One table, built
once by build_psmas, owns the strategy space: each agent scope (one per
agent when strategies are shared, one per agent and state otherwise) maps
to its states, actions, free parameters and dependent parameter
(`ScopeSpace`).  Parameters, transitions and admissibility are all read
off that table.

Each fact about a model is checked once.  The parser checks every name
where it is used (states, agents, targets, the initial state) and each
distinct text once: a number, an action list, a joint action, a `trans`
move.  `Csg` then checks what needs the whole game, that every agent has
actions everywhere and every joint action a row summing to 1, and builds
the one table of joint actions, `Csg.moves`: each state's joint actions,
in order, to their rows.  Psmas and plan validation read that table.
`Psmas.moves` has its shape and order, with each nonzero entry a
polynomial; the checker, the sampler, the reference enumeration and the
admissibility check read that one.

Model file format (UTF-8, '#' comments, sections in this order):

    agents: A1 A2
    states: s0 s1
    init: s0
    params: shared                  # optional: tie strategies across states
    param x1: A1 skip               # optional explicit free-parameter names
    labels: s0 { dropped } s1 { collision }
    actions A1 @ s0: catch skip     # one line per agent per state
    trans s0 (skip, skip) -> { s0: 1/2, s1: 1/2 }
    reward A1 action catch: 2       # per-agent, per own action / per state
    reward A1 state s1: 1
    plan pi1 @ s0: (catch, skip) (skip, skip)

Joint-action tuples list actions in the declared agent order.  Rewards
default to 0 when omitted.  Parser errors carry file:line:col positions.
Model objects are treated as immutable after construction and are safe to
share across threads.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InadmissibleError, MissingParameterError, ModelError
from .polyarith import ParamId, Polynomial, intern

JointAction = tuple[str, ...]
Scope = tuple[str, str | None]  # (agent, state) or (agent, None) when shared


@dataclass(frozen=True)
class RewardStructure:
    """Per-agent rewards: a state reward plus an own-action reward.

    Action rewards are declared per individual action and lifted to joint
    actions by reading off this agent's component.
    """

    agent: str
    agent_index: int
    state_reward: Mapping[str, Fraction] = field(default_factory=dict)
    action_reward: Mapping[str, Fraction] = field(default_factory=dict)

    def step_reward(self, state: str, joint: JointAction) -> Fraction:
        return (self.action_reward.get(joint[self.agent_index], Fraction(0))
                + self.state_reward.get(state, Fraction(0)))


@dataclass
class Csg:
    """Concurrent stochastic game with exact rational transition kernel."""

    agents: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    available: Mapping[tuple[str, str], tuple[str, ...]]
    delta: Mapping[tuple[str, JointAction], Mapping[str, Fraction]]
    labels: Mapping[str, frozenset[str]]
    rewards: Mapping[str, RewardStructure] = field(default_factory=dict)
    plans: Mapping[str, tuple[str, tuple[JointAction, ...]]] = field(
        default_factory=dict)
    shared_params: bool = False
    param_decls: tuple[tuple[str, str, str | None, str], ...] = ()
    # param_decls entries: (name, agent, state-or-None, action)
    # each state's joint actions, in declared agent and action order, to
    # their rows of `delta`: the one table of joint actions
    moves: Mapping[str, Mapping[JointAction, Mapping[str, Fraction]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check what the parser cannot see line by line: every agent has
        actions at every state, and every joint action has a row of
        probabilities in [0,1] summing to 1.  The parser has checked the
        names (initial state, targets) already."""
        # an agent without declared rewards earns 0 everywhere
        self.rewards = {
            agent: self.rewards.get(agent)
            or RewardStructure(agent=agent, agent_index=index)
            for index, agent in enumerate(self.agents)}
        for agent in self.agents:
            for state in self.states:
                acts = self.available.get((agent, state))
                if not acts:
                    raise ModelError(
                        f"agent {agent} has no actions at state {state}")
        self.moves = {}
        # the joint actions of each tuple of action lists
        by_pools: dict[tuple[tuple[str, ...], ...],
                       tuple[JointAction, ...]] = {}
        right: set[int] = set()  # the rows found right, by identity
        for state in self.states:
            pools = tuple([self.available[(agent, state)]
                           for agent in self.agents])
            joints = by_pools.get(pools)
            if joints is None:
                joints = by_pools[pools] = tuple(itertools.product(*pools))
            rows = self.moves[state] = {}
            for joint in joints:
                dist = self.delta.get((state, joint))
                if dist is None:
                    raise ModelError(
                        f"no transition for state {state}, joint action "
                        f"({', '.join(joint)})")
                if id(dist) not in right:
                    self._check_row(state, joint, dist)
                    right.add(id(dist))
                rows[joint] = dist

    def _check_row(self, state: str, joint: JointAction,
                   dist: Mapping[str, Fraction]) -> None:
        # a one-entry row is right exactly when its entry is 1
        if len(dist) == 1 and next(iter(dist.values())) == 1:
            return
        for prob in dist.values():
            if not 0 <= prob.numerator <= prob.denominator:
                raise ModelError(
                    f"probability {prob} out of [0,1] in transition "
                    f"from {state}")
        total = sum(dist.values())
        if total != 1:
            raise ModelError(
                f"transition probabilities from {state} under "
                f"({', '.join(joint)}) sum to {total}, not 1")

    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for props in self.labels.values():
            out.update(props)
        return frozenset(out)

    def unavailable_step(self, start: str, steps: Sequence[JointAction]
                         ) -> tuple[int, str, str, str] | None:
        """The first (step number, agent, action, state) at which a plan
        from `start` plays an action not available at a state it can
        reach, or None when every step is playable."""
        reachable: Iterable[str] = (start,)
        for step_no, joint in enumerate(steps, 1):
            after: set[str] = set()
            for state in reachable:
                dist = self.moves[state].get(joint)
                if dist is None:
                    for agent, action in zip(self.agents, joint):
                        if action not in self.available[(agent, state)]:
                            return step_no, agent, action, state
                # a one-entry row's entry is 1, and no entry is negative
                after.update(dist if len(dist) == 1 else
                             (target for target, prob in dist.items() if prob))
            reachable = after if len(after) == 1 else sorted(after)
        return None


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three-condition admissibility check."""

    ok: bool
    violations: tuple[tuple[int, str, Fraction], ...]

    @staticmethod
    def of(violations: Sequence[tuple[int, str, Fraction]]
           ) -> "AdmissibilityReport":
        """The report of these violations, parameter-level ones (the root
        cause) cited first."""
        priority = {2: 0, 3: 1, 1: 2}
        ordered = sorted(violations, key=lambda v: (priority[v[0]], v[1]))
        return AdmissibilityReport(ok=not ordered, violations=tuple(ordered))


@dataclass(frozen=True)
class ScopeSpace:
    """One agent scope's strategy simplex: the states it covers, its
    actions in declared order, the free parameters in action order and the
    dependent parameter, whose value is 1 - (sum of the free ones)."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    free: tuple[ParamId, ...]
    dependent: ParamId


def _probabilities(space: ScopeSpace) -> dict[str, Polynomial]:
    """Each action's probability at a scope: its free parameter, or 1 -
    (sum of the free ones) for the dependent action."""
    out = {p.action: Polynomial.variable(p) for p in space.free}
    total = Polynomial.one()
    for p in space.free:
        total = total - out[p.action]
    out[space.dependent.action] = total
    return out


class Psmas:
    """Parametric model: one strategy parameter per agent-scope-action.

    `table` maps each scope, in agent order, to its `ScopeSpace`; every
    question about the strategy space reads it.  `moves` is the one table
    of parametric transitions, shaped and ordered as `Csg.moves`: each
    state's joint actions to their targets of nonzero probability, each
    with its polynomial entry; every engine reads it.  The dependent
    action of a scope (lexicographically last, unless the model declares
    parameter names) is replaced by 1 - (sum of the scope's free
    parameters), so every transition row sums to the constant 1 as a
    polynomial identity.

    Each (scope, action) probability is built once per model, and each
    product of one per agent once per tuple of them, multiplied left to
    right in agent order.  Every (state, joint action) playing that tuple
    shares the product (all states do under `params: shared`), scaled by
    its kernel entry, so an entry has the terms, term order and
    denominator of the product formed afresh.  Polynomials are immutable,
    so sharing them is safe; `Polynomial.zero()` and `one()` are shared
    values too.
    """

    def __init__(self, base: Csg, table: Mapping[Scope, ScopeSpace]):
        self.base = base
        self.table = dict(table)
        scope_at = {(scope[0], state): scope
                    for scope, space in self.table.items()
                    for state in space.states}
        self.params = tuple([p for space in self.table.values()
                             for p in space.free])
        self.dependent_params = tuple([space.dependent
                                       for space in self.table.values()])
        self.param_table = {p.name: p for p in (*self.params,
                                                *self.dependent_params)}
        probability = {scope: _probabilities(space)
                       for scope, space in self.table.items()}
        # the products of each tuple of scopes, by joint action
        products: dict[tuple[Scope, ...], dict[JointAction, Polynomial]] = {}
        self.moves: dict[str, dict[JointAction, dict[str, Polynomial]]] = {}
        for state in base.states:
            scopes = tuple([scope_at[agent, state]
                            for agent in base.agents])
            mixes = products.get(scopes)
            if mixes is None:
                mixes = products[scopes] = {}
            rows = self.moves[state] = {}
            for joint, dist in base.moves[state].items():
                mix = mixes.get(joint)
                if mix is None:
                    mix = mixes[joint] = functools.reduce(operator.mul, [
                        probability[scope][action]
                        for scope, action in zip(scopes, joint)])
                rows[joint] = {target: mix if prob == 1 else mix * prob
                               for target, prob in dist.items() if prob}

    def agent_scopes(self, agent: str) -> list[Scope]:
        return [s for s in self.table if s[0] == agent]

    def bound_scopes(self, valuation: Mapping[ParamId, Fraction]
                     ) -> list[Scope]:
        """The scopes that `valuation` binds a parameter of, free or
        dependent: the ones a query at a partial valuation admits."""
        return [s for s, space in self.table.items()
                if valuation.keys() & {*space.free, space.dependent}]

    def vertex_valuation(self, scope: Scope, action: str) -> dict[ParamId, Fraction]:
        """Free-parameter values that make `action` the pure choice at scope."""
        return {p: Fraction(1) if p.action == action else Fraction(0)
                for p in self.table[scope].free}


def build_psmas(g: Csg) -> Psmas:
    """Construct the parametric model for a game.

    Deterministic: identical input text yields identical parameter naming and
    polynomials.  Declared `param` names select the free actions of a scope;
    otherwise every action but the lexicographically last is free.
    """
    declared: dict[Scope, list[tuple[str, str]]] = {}
    for name, agent, state, action in g.param_decls:
        declared.setdefault((agent, state), []).append((name, action))

    spans: list[tuple[Scope, tuple[str, ...]]]  # each scope, its states
    if g.shared_params:
        spans = [((agent, None), g.states) for agent in g.agents]
        for agent in g.agents:
            first = g.available[(agent, g.states[0])]
            for s in g.states:
                if g.available[(agent, s)] != first:
                    raise ModelError(
                        f"params: shared requires agent {agent} to have the "
                        f"same action set at every state")
    else:
        spans = [((agent, s), (s,)) for agent in g.agents for s in g.states]

    table: dict[Scope, ScopeSpace] = {}
    for scope, states in spans:
        agent = scope[0]
        actions = g.available[(agent, states[0])]
        decls = declared.pop(scope, None)
        if decls:
            names = {a: n for n, a in decls}  # the free actions' names
            unknown = names.keys() - set(actions)
            if unknown:
                raise ModelError(
                    f"param declares unknown action {sorted(unknown)[0]} "
                    f"for {agent}")
            if len(names) != len(actions) - 1:
                raise ModelError(
                    f"{agent}: declare exactly {len(actions) - 1} free "
                    f"parameters (one per action except the dependent one) "
                    f"or none")
            dep = next(a for a in actions if a not in names)
        else:
            dep = max(actions)
            names = {}
        # free parameters are interned, so each load of a model shares
        # them; the dependent one never enters a polynomial
        table[scope] = ScopeSpace(
            states, actions,
            tuple([intern(ParamId(agent, scope[1], a, label=names.get(a)))
                   for a in actions if a != dep]),
            ParamId(agent, scope[1], dep))
    if declared:
        scope = next(iter(declared))
        raise ModelError(f"param declaration for unknown scope {scope}")
    return Psmas(g, table)


def scope_violations(m: Psmas, scope: Scope,
                     valuation: Mapping[ParamId, Fraction]
                     ) -> list[tuple[int, str, Fraction]]:
    """Admissibility conditions 2 and 3 at one scope: each action
    probability (free, explicitly bound dependent, or derived dependent)
    lies in [0,1], and they sum to exactly 1.  Every free parameter of the
    scope must be bound."""
    space = m.table[scope]
    values = {}
    for p in space.free:
        if p not in valuation:
            raise MissingParameterError(p)
        value = valuation[p]
        values[p] = value if type(value) is Fraction else Fraction(value)
    dep = space.dependent
    violations = []
    if dep in valuation:
        values[dep] = Fraction(valuation[dep])
        total = sum(values.values())
        if total != 1:
            where = (scope[0] if scope[1] is None
                     else f"{scope[0]}@{scope[1]}")
            violations.append((3, where, total))
    else:
        # derived, so the values sum to 1 by construction
        values[dep] = 1 - sum(values.values())
    violations.extend((2, p.name, value) for p, value in values.items()
                      if value < 0 or value > 1)
    return violations


def check_admissible(m: Psmas, valuation: Mapping[ParamId, Fraction],
                     scopes: Iterable[Scope] | None = None
                     ) -> AdmissibilityReport:
    """Check the three admissibility conditions exactly, at every scope or
    only at `scopes`.

    Condition 1: every instantiated transition value lies in [0,1].
    Conditions 2 and 3 hold at every scope (`scope_violations`).

    Conditions 2 and 3 imply condition 1: a transition value is a product
    of one action probability per agent, each in [0,1] once its scope's
    conditions hold, times a kernel entry, which `Csg` keeps in [0,1].  So
    the transitions are evaluated only when some scope is violated, to
    report the transitions its values break, and only when every scope is
    checked, since they read the parameters of every scope.
    """
    violations = [v for scope in (m.table if scopes is None else scopes)
                  for v in scope_violations(m, scope, valuation)]
    if not violations or scopes is not None:
        return AdmissibilityReport.of(violations)
    free_only = {p: Fraction(valuation[p]) for p in m.params}
    for state, rows in m.moves.items():
        for joint, row in rows.items():
            for target, poly in row.items():
                value = poly.evaluate(free_only)
                if value < 0 or value > 1:
                    where = f"trans {state} ({', '.join(joint)}) -> {target}"
                    violations.append((1, where, value))
    return AdmissibilityReport.of(violations)


def require_admissible(m: Psmas, valuation: Mapping[ParamId, Fraction],
                       scopes: Iterable[Scope] | None = None) -> None:
    """The admissibility gate of every query: InadmissibleError unless
    `valuation` is admissible at every scope or at `scopes`, and
    MissingParameterError if it leaves a free parameter of one unbound."""
    report = check_admissible(m, valuation, scopes)
    if not report.ok:
        raise InadmissibleError(report)


# -- model file parsing -------------------------------------------------

_SECTION_ORDER = ["agents", "states", "init", "params", "param", "labels",
                  "actions", "trans", "reward", "plan"]
# the sections whose lines may also follow a later section
_REPEATABLE = {"param", "actions", "trans", "reward", "plan"}

_PARAM = re.compile(r"param\s+(\w+)\s*:\s*(\w+)\s+(\w+)(?:\s*@\s*(\w+))?")
_LABEL = re.compile(r"(\w+)\s*\{([^}]*)\}")
_ACTIONS = re.compile(r"actions\s+(\w+)\s*@\s*(\w+)\s*:\s*(.+)")
# a `trans` line is _TRANS_STATE followed by _TRANS_MOVE
_TRANS_STATE = re.compile(r"trans\s+(\w+)\s*")
_TRANS_MOVE = re.compile(r"\(([^)]*)\)\s*->\s*\{([^}]*)\}")
_REWARD = re.compile(r"reward\s+(\w+)\s+(action|state)\s+(\w+)\s*:\s*(\S+)")
_PLAN = re.compile(r"plan\s+(\w+)\s*@\s*(\w+)\s*:\s*(.+)")
_STEP = re.compile(r"\(([^)]*)\)")


def parse_model(text: str, source: str = "<model>") -> Csg:
    """Parse the model file format into a Csg."""
    parser = _ModelParser(text, source)
    return parser.parse()


def load_model(path, data: bytes | None = None) -> Csg:
    """Parse the model file at `path`, whose bytes are `data` when the
    caller has read them already."""
    if data is None:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path} is not UTF-8 text: {exc}",
                         source=str(path)) from None
    # A leading byte-order mark is dropped, as the "utf-8-sig" codec would
    # drop it; that codec is a module of its own, imported on first use.
    return parse_model(text.removeprefix("\ufeff"), source=str(path))


class _ModelParser:
    def __init__(self, text: str, source: str):
        self.source = source
        self.lines = text.splitlines()
        self.agents: list[str] = []
        self.states: list[str] = []
        self.initial: str | None = None
        self.shared = False
        self.param_decls: list[tuple[str, str, str | None, str]] = []
        self.labels: dict[str, frozenset[str]] = {}
        self.available: dict[tuple[str, str], tuple[str, ...]] = {}
        self.delta: dict[tuple[str, JointAction], dict[str, Fraction]] = {}
        self.rewards: dict[str, dict[str, dict[str, Fraction]]] = {}
        self.plans: dict[str, tuple[str, tuple[JointAction, ...]]] = {}
        # each number text parsed so far, so a repeated `1/2` is parsed once;
        # likewise each action list, joint action and `trans` move text
        self.numbers: dict[str, Fraction] = {}
        self.action_texts: dict[str, tuple[str, ...]] = {}
        self.joint_texts: dict[str, JointAction] = {}
        self.moves: dict[str, tuple[JointAction, dict[str, Fraction]]] = {}

    def error(self, msg: str, line_no: int, col: int = 1):
        raise ModelError(msg, self.source, line_no, col)

    def parse(self) -> Csg:
        """Each line is stripped once, and its first word looked up in
        `_DIRECTIVES` for its section rank and its handler."""
        section_rank = -1
        for line_no, raw in enumerate(self.lines, start=1):
            line = raw.partition("#")[0]
            stripped = line.strip()
            if not stripped:
                continue
            keyword = stripped.split(None, 1)[0].rstrip(":")
            directive = _DIRECTIVES.get(keyword)
            if directive is None:
                self.error(f"unknown directive '{keyword}'", line_no,
                           line.index(keyword) + 1)
            rank, repeatable, handler = directive
            if rank < section_rank:
                if not repeatable:
                    self.error(f"section '{keyword}' out of order", line_no)
            else:
                section_rank = rank
            handler(self, stripped, line_no)
        if not self.agents:
            raise ModelError("missing agents section", self.source)
        if self.initial is None:
            raise ModelError("missing init section", self.source)
        rewards = {
            agent: RewardStructure(
                agent=agent,
                agent_index=self.agents.index(agent),
                state_reward=decl["state"],
                action_reward=decl["action"])
            for agent, decl in self.rewards.items()
        }
        try:
            game = Csg(
                agents=tuple(self.agents),
                states=tuple(self.states),
                initial=self.initial,
                available=self.available,
                delta=self.delta,
                labels=self.labels,
                rewards=rewards,
                plans=self.plans,
                shared_params=self.shared,
                param_decls=tuple(self.param_decls),
            )
        except ModelError as exc:
            raise ModelError(str(exc), self.source) from None
        self.validate_plans(game)
        return game

    def _after_colon(self, line: str, line_no: int) -> str:
        if ":" not in line:
            self.error("expected ':'", line_no, len(line))
        return line.split(":", 1)[1].strip()

    def on_agents(self, line: str, line_no: int):
        self.agents = self._after_colon(line, line_no).split()
        if len(set(self.agents)) != len(self.agents) or not self.agents:
            self.error("agents must be a non-empty list of distinct names",
                       line_no)

    def on_states(self, line: str, line_no: int):
        self.states = self._after_colon(line, line_no).split()
        if len(set(self.states)) != len(self.states) or not self.states:
            self.error("states must be a non-empty list of distinct names",
                       line_no)

    def on_init(self, line: str, line_no: int):
        self.initial = self._after_colon(line, line_no)
        if self.initial not in self.states:
            self.error(f"unknown initial state '{self.initial}'", line_no)

    def on_params(self, line: str, line_no: int):
        mode = self._after_colon(line, line_no)
        if mode not in ("shared", "per-state"):
            self.error("params must be 'shared' or 'per-state'", line_no)
        self.shared = mode == "shared"

    def on_param(self, line: str, line_no: int):
        m = _PARAM.fullmatch(line)
        if not m:
            self.error("expected 'param NAME: AGENT ACTION [@ STATE]'",
                       line_no)
        name, agent, action, state = m.groups()
        if agent not in self.agents:
            self.error(f"unknown agent '{agent}'", line_no)
        if state is not None and state not in self.states:
            self.error(f"unknown state '{state}'", line_no)
        if self.shared and state is not None:
            self.error("shared params cannot name a state", line_no)
        if not self.shared and state is None:
            self.error("per-state params must name a state", line_no)
        if any(name == n for n, _, _, _ in self.param_decls):
            self.error(f"duplicate parameter name '{name}'", line_no)
        self.param_decls.append((name, agent, state, action))

    def on_labels(self, line: str, line_no: int):
        body = self._after_colon(line, line_no)
        for state, props in _LABEL.findall(body):
            if state not in self.states:
                self.error(f"unknown state '{state}' in labels", line_no)
            self.labels[state] = frozenset(props.split())
        for state in self.states:
            self.labels.setdefault(state, frozenset())

    def on_actions(self, line: str, line_no: int):
        m = _ACTIONS.fullmatch(line)
        if not m:
            self.error("expected 'actions AGENT @ STATE: a b ...'", line_no)
        agent, state, acts_text = m.groups()
        if agent not in self.agents:
            self.error(f"unknown agent '{agent}'", line_no)
        if state not in self.states:
            self.error(f"unknown state '{state}'", line_no)
        acts = self.action_texts.get(acts_text)
        if acts is None:
            acts = tuple(acts_text.split())
            if not acts or len(set(acts)) != len(acts):
                self.error("actions must be a non-empty list of distinct "
                           "names", line_no)
            self.action_texts[acts_text] = acts
        self.available[(agent, state)] = acts

    def number(self, text: str, what: str, line_no: int) -> Fraction:
        """The exact value of a number text; a bad one is an error at
        `line_no` naming `what`."""
        value = self.numbers.get(text)
        if value is None:
            try:
                # Fraction's text parser is about four times slower than
                # int's, and most number texts are digits
                value = self.numbers[text] = (
                    Fraction(int(text)) if text.isascii() and text.isdigit()
                    else Fraction(text))
            except (ValueError, ZeroDivisionError):
                self.error(f"bad {what} '{text}'", line_no)
        return value

    def _parse_joint(self, text: str, line_no: int) -> JointAction:
        """The joint action of a text between parentheses, kept in
        `joint_texts`: the agents are final by the first `trans` or `plan`
        line, so a text that parsed once parses the same again."""
        joint = self.joint_texts.get(text)
        if joint is None:
            joint = tuple(map(str.strip, text.split(",")))
            if len(joint) != len(self.agents):
                self.error(
                    f"joint action ({text}) must list one action per agent "
                    f"in order ({', '.join(self.agents)})", line_no)
            self.joint_texts[text] = joint
        return joint

    def on_trans(self, line: str, line_no: int):
        """A `trans` line is its state and its move, the text from the
        joint action on; each distinct move text is parsed once, and its
        lines share its row, as model objects are not mutated."""
        head = _TRANS_STATE.match(line)
        move = head and self.moves.get(line[head.end():])
        if move is None:
            tail = head and _TRANS_MOVE.fullmatch(line, head.end())
            if not tail:
                self.error("expected 'trans STATE (a, b) -> { s: p, ... }'",
                           line_no)
        state = head.group(1)
        if state not in self.states:
            self.error(f"unknown state '{state}'", line_no)
        if move is None:
            joint_text, dist_text = tail.groups()
            move = self.moves[line[head.end():]] = (
                self._parse_joint(joint_text, line_no),
                self._parse_row(dist_text, line_no))
        joint, dist = move
        self.delta[(state, joint)] = dist

    def _parse_row(self, text: str, line_no: int) -> dict[str, Fraction]:
        dist: dict[str, Fraction] = {}
        for chunk in text.split(","):
            target, colon, prob_text = chunk.partition(":")
            if not colon:
                chunk = chunk.strip()
                if not chunk:
                    continue
                self.error(f"expected 'state: probability' in '{chunk}'",
                           line_no)
            target = target.strip()
            if target not in self.states:
                self.error(f"unknown target state '{target}'", line_no)
            prob = self.number(prob_text.strip(), "probability", line_no)
            if target in dist:
                dist[target] += prob
            else:
                dist[target] = prob
        return dist

    def on_reward(self, line: str, line_no: int):
        m = _REWARD.fullmatch(line)
        if not m:
            self.error("expected 'reward AGENT action|state NAME: value'",
                       line_no)
        agent, kind, name, value_text = m.groups()
        if agent not in self.agents:
            self.error(f"unknown agent '{agent}'", line_no)
        if kind == "state" and name not in self.states:
            self.error(f"unknown state '{name}'", line_no)
        value = self.number(value_text, "reward value", line_no)
        kinds = self.rewards.get(agent)
        if kinds is None:
            kinds = self.rewards[agent] = {"action": {}, "state": {}}
        kinds[kind][name] = value

    def on_plan(self, line: str, line_no: int):
        m = _PLAN.fullmatch(line)
        if not m:
            self.error("expected 'plan NAME @ STATE: (a, b) (a, b) ...'",
                       line_no)
        name, start, body = m.groups()
        if start not in self.states:
            self.error(f"unknown state '{start}'", line_no)
        if name in self.plans:
            self.error(f"duplicate plan name '{name}'", line_no)
        steps = tuple([self._parse_joint(text, line_no)
                       for text in _STEP.findall(body)])
        if not steps:
            self.error("plan needs at least one joint action", line_no)
        self.plans[name] = (start, steps)

    def validate_plans(self, game: Csg):
        for name, (start, steps) in game.plans.items():
            fault = game.unavailable_step(start, steps)
            if fault is not None:
                step_no, agent, action, state = fault
                raise ModelError(
                    f"plan {name}, step {step_no}: action {action} not "
                    f"available to {agent} at {state}", self.source)


# each directive: its section's rank in the file, whether its lines may
# follow a later section, and its handler
_DIRECTIVES = {name: (rank, name in _REPEATABLE,
                      getattr(_ModelParser, f"on_{name}"))
               for rank, name in enumerate(_SECTION_ORDER)}

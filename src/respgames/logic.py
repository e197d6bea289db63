"""Abstract syntax and parser for state/path formulas, plus horizons.

Concrete syntax (whitespace-insensitive):

    state ::= '!' state | state '&' state | state '|' state | '(' state ')'
            | 'true' | 'false' | ATOM
            | '<' A (',' A)* '>' 'P' CMP BOUND '[' path ']'
            | '<' A (',' A)* '>' 'R' CMP BOUND '[' 'F' '<=' K state '@' A ']'
            | '<' A (',' A)* '>' 'D' CMP BOUND '[' ('CAR'|'CPR')
                  '(' A ',' PLAN ',' path ')' ']'
    path  ::= 'X' state | state 'U' '<=' K state | 'F' '<=' K state
    CMP   ::= '<=' | '<' | '>=' | '>'

`F<=k phi` is sugar for `true U<=k phi`; `a | b` is sugar for
`!(!a & !b)`.  Bounds parse as exact rationals (`1/2`, `0.3`, `1`).
Atoms, coalition members and plan names are validated against the model.
The degree operator's agent must belong to its coalition.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import FormulaError
from .model import Csg, Psmas


class CompareOp(enum.Enum):
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"

    def holds(self, left, right) -> bool:
        if self is CompareOp.LE:
            return left <= right
        if self is CompareOp.LT:
            return left < right
        if self is CompareOp.GE:
            return left >= right
        return left > right


class DegreeKind(enum.Enum):
    CAR = "CAR"
    CPR = "CPR"


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class Not:
    body: "StateFormula"


@dataclass(frozen=True)
class And:
    left: "StateFormula"
    right: "StateFormula"


@dataclass(frozen=True)
class CoalitionProb:
    coalition: frozenset[str]
    cmp: CompareOp
    bound: Fraction
    body: "PathFormula"


@dataclass(frozen=True)
class CoalitionReward:
    coalition: frozenset[str]
    cmp: CompareOp
    bound: Fraction
    agent: str
    k: int
    target: "StateFormula"


@dataclass(frozen=True)
class CoalitionDegree:
    coalition: frozenset[str]
    cmp: CompareOp
    bound: Fraction
    kind: DegreeKind
    agent: str
    plan: str
    body: "PathFormula"


@dataclass(frozen=True)
class Next:
    body: "StateFormula"


@dataclass(frozen=True)
class Until:
    left: "StateFormula"
    k: int
    right: "StateFormula"


StateFormula = Union[Atom, TrueFormula, Not, And, CoalitionProb,
                     CoalitionReward, CoalitionDegree]
PathFormula = Union[Next, Until]


def horizon(psi: PathFormula) -> int:
    """Exact enumeration depth needed to decide the path formula."""
    if isinstance(psi, Next):
        return 1
    if isinstance(psi, Until):
        return psi.k
    raise TypeError(f"not a path formula: {psi!r}")


# -- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<cmp><=|>=)
  | (?P<number>\d+/\d+|\d*\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[<>()\[\],!&|@-])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    col: int


def _tokenize(text: str, source: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaError(f"bad character {text[pos]!r}", source,
                               col=pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append(_Token(kind, m.group(), m.start() + 1))
    return out


class _Parser:
    def __init__(self, text: str, model: Psmas | Csg, source: str):
        self.source = source
        self.tokens = _tokenize(text, source)
        self.pos = 0
        game = model.base if isinstance(model, Psmas) else model
        self.agents = set(game.agents)
        self.props = game.propositions()
        self.plans = set(game.plans)

    # -- token plumbing ---------------------------------------------------

    def error(self, msg: str):
        col = (self.tokens[self.pos].col if self.pos < len(self.tokens)
               else (self.tokens[-1].col + len(self.tokens[-1].text)
                     if self.tokens else 1))
        raise FormulaError(msg, self.source, col=col)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def take(self, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of formula")
        if text is not None and tok.text != text:
            self.error(f"expected '{text}', found '{tok.text}'")
        self.pos += 1
        return tok

    def done(self):
        if self.pos != len(self.tokens):
            self.error(f"trailing input '{self.tokens[self.pos].text}'")

    # -- grammar ------------------------------------------------------------

    def parse_state(self) -> StateFormula:
        return self.parse_or()

    def parse_or(self) -> StateFormula:
        left = self.parse_and()
        while self.at("|"):
            self.take()
            right = self.parse_and()
            left = Not(And(Not(left), Not(right)))
        return left

    def parse_and(self) -> StateFormula:
        left = self.parse_unary()
        while self.at("&"):
            self.take()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> StateFormula:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of formula")
        if tok.text == "!":
            self.take()
            return Not(self.parse_unary())
        if tok.text == "(":
            self.take()
            inner = self.parse_state()
            self.take(")")
            return inner
        if tok.text == "<":
            return self.parse_coalition_op()
        if tok.kind == "ident":
            self.take()
            if tok.text == "true":
                return TrueFormula()
            if tok.text == "false":
                return Not(TrueFormula())
            if tok.text not in self.props:
                raise FormulaError(f"unknown proposition '{tok.text}'",
                                   self.source, col=tok.col)
            return Atom(tok.text)
        self.error(f"unexpected '{tok.text}'")

    def parse_coalition_op(self) -> StateFormula:
        self.take("<")
        members: list[str] = []
        while True:
            tok = self.take()
            if tok.kind != "ident":
                self.error("expected agent name in coalition")
            if tok.text not in self.agents:
                raise FormulaError(f"unknown agent '{tok.text}'",
                                   self.source, col=tok.col)
            members.append(tok.text)
            if self.at(","):
                self.take()
                continue
            break
        self.take(">")
        op = self.take()
        if op.text not in ("P", "R", "D"):
            raise FormulaError(f"expected P, R or D after coalition, found "
                               f"'{op.text}'", self.source, col=op.col)
        cmp = self.parse_cmp()
        bound = self.parse_bound()
        coalition = frozenset(members)
        self.take("[")
        if op.text == "P":
            body = self.parse_path()
            result: StateFormula = CoalitionProb(coalition, cmp, bound, body)
            if not (0 <= bound <= 1):
                self.error("probability bound must lie in [0, 1]")
        elif op.text == "R":
            self.take("F")
            self.take("<=")
            k = self.parse_nat()
            target = self.parse_state()
            self.take("@")
            agent = self.parse_agent()
            result = CoalitionReward(coalition, cmp, bound, agent, k, target)
        else:
            kind_tok = self.take()
            if kind_tok.text not in ("CAR", "CPR"):
                raise FormulaError("expected CAR or CPR", self.source,
                                   col=kind_tok.col)
            self.take("(")
            agent_tok = self.take()
            if agent_tok.text not in self.agents:
                raise FormulaError(f"unknown agent '{agent_tok.text}'",
                                   self.source, col=agent_tok.col)
            if agent_tok.text not in coalition:
                raise FormulaError(
                    f"degree agent '{agent_tok.text}' must belong to the "
                    f"coalition", self.source, col=agent_tok.col)
            self.take(",")
            plan_tok = self.take()
            if plan_tok.text not in self.plans:
                raise FormulaError(f"unknown plan '{plan_tok.text}'",
                                   self.source, col=plan_tok.col)
            self.take(",")
            body = self.parse_path()
            self.take(")")
            result = CoalitionDegree(coalition, cmp, bound,
                                     DegreeKind(kind_tok.text),
                                     agent_tok.text, plan_tok.text, body)
        self.take("]")
        return result

    def parse_cmp(self) -> CompareOp:
        tok = self.take()
        if tok.text not in ("<=", "<", ">=", ">"):
            raise FormulaError(f"expected comparison, found '{tok.text}'",
                               self.source, col=tok.col)
        return CompareOp(tok.text)

    def parse_bound(self) -> Fraction:
        tok = self.take()
        minus = False
        if tok.text == "-":
            minus = True
            tok = self.take()
        if tok.kind != "number":
            raise FormulaError(f"expected rational bound, found '{tok.text}'",
                               self.source, col=tok.col)
        value = Fraction(tok.text)
        return -value if minus else value

    def parse_nat(self) -> int:
        tok = self.take()
        if tok.kind != "number" or "/" in tok.text or "." in tok.text:
            raise FormulaError(f"expected natural number, found '{tok.text}'",
                               self.source, col=tok.col)
        return int(tok.text)

    def parse_agent(self) -> str:
        tok = self.take()
        if tok.text not in self.agents:
            raise FormulaError(f"unknown agent '{tok.text}'", self.source,
                               col=tok.col)
        return tok.text

    def parse_path(self) -> PathFormula:
        if self.at("X"):
            self.take()
            return Next(self.parse_unary())
        if self.at("F"):
            self.take()
            self.take("<=")
            k = self.parse_nat()
            return Until(TrueFormula(), k, self.parse_unary())
        left = self.parse_state()
        if not self.at("U"):
            self.error("expected 'U': a path formula is X phi, F<=k phi or "
                       "phi U<=k psi")
        self.take()
        self.take("<=")
        k = self.parse_nat()
        right = self.parse_state()
        return Until(left, k, right)


def parse_formula(text: str, model: Psmas | Csg,
                  source: str = "<formula>") -> StateFormula:
    """Parse a state formula, validating names against the model."""
    parser = _Parser(text, model, source)
    result = parser.parse_state()
    parser.done()
    return result


def parse_path_formula(text: str, model: Psmas | Csg,
                       source: str = "<formula>") -> PathFormula:
    """Parse a bare path formula (the body of P, or a degree outcome)."""
    parser = _Parser(text, model, source)
    result = parser.parse_path()
    parser.done()
    return result


# -- rendering ----------------------------------------------------------


def render_formula(phi) -> str:
    """Canonical text for an AST; parse(render(ast)) is structurally equal."""
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, TrueFormula):
        return "true"
    if isinstance(phi, Not):
        return f"!{_wrap(phi.body)}"
    if isinstance(phi, And):
        return f"{_wrap(phi.left)} & {_wrap(phi.right)}"
    if isinstance(phi, CoalitionProb):
        return (f"{_render_coalition(phi.coalition)} P{phi.cmp.value}"
                f"{phi.bound} [ {render_formula(phi.body)} ]")
    if isinstance(phi, CoalitionReward):
        return (f"{_render_coalition(phi.coalition)} R{phi.cmp.value}"
                f"{phi.bound} [ F<={phi.k} "
                f"{_wrap(phi.target)} @ {phi.agent} ]")
    if isinstance(phi, CoalitionDegree):
        return (f"{_render_coalition(phi.coalition)} D{phi.cmp.value}"
                f"{phi.bound} [ {phi.kind.value}({phi.agent}, "
                f"{phi.plan}, {render_formula(phi.body)}) ]")
    if isinstance(phi, Next):
        return f"X {_wrap(phi.body)}"
    if isinstance(phi, Until):
        return f"{_wrap(phi.left)} U<={phi.k} {_wrap(phi.right)}"
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(phi) -> str:
    if isinstance(phi, (Atom, TrueFormula, Not)):
        return render_formula(phi)
    if isinstance(phi, (CoalitionProb, CoalitionReward, CoalitionDegree)):
        return render_formula(phi)
    return f"({render_formula(phi)})"


def _render_coalition(coalition: frozenset[str]) -> str:
    return f"<{','.join(sorted(coalition))}>"

import itertools
import pathlib
from fractions import Fraction

import pytest

from reference_engine import action_probability

from respgames.model import Psmas, build_psmas, load_model
from respgames.polyarith import Polynomial

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def ball() -> Psmas:
    return build_psmas(load_model(MODELS / "ball.game"))


@pytest.fixture(scope="session")
def rounds() -> Psmas:
    return build_psmas(load_model(MODELS / "ball_rounds.game"))


@pytest.fixture(scope="session")
def relay() -> Psmas:
    return build_psmas(load_model(MODELS / "relay.game"))


def var(m: Psmas, name: str) -> Polynomial:
    return Polynomial.variable(m.param_table[name])


def brute_force_histories(m: Psmas, start: str, depth: int):
    """Independent path enumerator: walks the raw kernel and multiplies the
    per-agent action probabilities directly, without the trace module."""
    game = m.base

    def mix(state, joint) -> Polynomial:
        p = Polynomial.one()
        for agent, action in zip(game.agents, joint):
            p = p * action_probability(m, agent, state, action)
        return p

    paths = [((start,), (), Polynomial.one())]
    for _ in range(depth):
        nxt = []
        for states, actions, prob in paths:
            here = states[-1]
            for joint in itertools.product(
                    *[game.available[(a, here)] for a in game.agents]):
                step = mix(here, joint)
                for target, dp in game.delta[(here, joint)].items():
                    if dp == 0:
                        continue
                    nxt.append((states + (target,), actions + (joint,),
                                prob * (step * dp)))
        paths = nxt
    return paths


BALL_VALUATIONS = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(3, 10), Fraction(7, 10)),
    (Fraction(2, 3), Fraction(1, 4)),
)


def ball_valuation(m: Psmas, x1: Fraction, x2: Fraction) -> dict:
    return {m.param_table["x1"]: x1, m.param_table["x2"]: x2}

"""Tests of the benchmark itself: python3 -m pytest perfbench

The reference evaluator is checked against values derived by hand, and the
smoke mode runs one small request of every workload with all checks.
"""

import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402

MODELS = HERE.parent / "models"
POINTS = [(F(0), F(1)), (F(1, 3), F(2, 5)), (F(7, 8), F(1, 9)), (F(1), F(1))]


@pytest.fixture(scope="module")
def ball():
    return ref.parse_game((MODELS / "ball.game").read_text())


@pytest.fixture(scope="module")
def rounds():
    return ref.parse_game((MODELS / "ball_rounds.game").read_text())


@pytest.mark.parametrize("k", [1, 2, 4, 6])
@pytest.mark.parametrize("x1,x2", POINTS)
def test_collision_within_k_rounds(rounds, k, x1, x2):
    # Each round collides when both catch: (1 - x1)(1 - x2).
    want = 1 - (1 - (1 - x1) * (1 - x2)) ** k
    query = ref.eventually(rounds, k, ["collision"])
    assert ref.probability(rounds, {"x1": x1, "x2": x2}, query) == want


def test_readme_eval_example(ball):
    query = ref.next_(ball, ["dropped", "score2"])
    assert ref.probability(ball, {"x1": F(3, 10), "x2": F(1, 2)},
                           query) == F(3, 10)


@pytest.mark.parametrize("x1,x2", POINTS[1:3])
def test_readme_car_example(ball, x1, x2):
    # Under pi_skip A1 skips; every outcome where A1 skips is A1's doing.
    query = ref.next_(ball, ["dropped", "score2"])
    car = ref.degree(ball, {"x1": x1, "x2": x2}, "CAR", "A1", "pi_skip",
                     query)
    assert car.kappa and car.value == 1


def test_readme_cpr_example(ball):
    # Violations with A2 catching: A1 skips (1/4) out of 1 - 1/4.
    query = ref.next_(ball, ["collision"])
    cpr = ref.degree(ball, {"x1": F(1, 2), "x2": F(1, 2)}, "CPR", "A1",
                     "pi_catch", query)
    assert cpr.kappa and cpr.value == F(1, 3)


@pytest.mark.parametrize("x1,x2", POINTS)
def test_payoff_counts_every_history(ball, x1, x2):
    # One step pays A1 2 for catch (1 - x1) and 1 for skip (x1).  Over two
    # steps on ball, each first step lies in 4 histories and each state is
    # reached by one first step, so the payoff is 8 (2 - x1).
    val = {"x1": x1, "x2": x2}
    assert ref.payoff(ball, val, "A1", 1) == 2 - x1
    assert ref.payoff(ball, val, "A1", 2) == 8 * (2 - x1)


def test_rendered_rational_function():
    text = "(-x1^2*x2 + 3/4*x1 - 2) / (x1 + x2)"
    x1, x2 = F(1, 3), F(2, 5)
    want = (-x1 ** 2 * x2 + F(3, 4) * x1 - 2) / (x1 + x2)
    assert ref.eval_rendered(text, {"x1": x1, "x2": x2}) == want
    assert ref.rendered_denominator(text) == "(x1 + x2)"
    assert ref.rendered_denominator("x1 - 1") is None


def test_smoke():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

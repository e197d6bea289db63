"""`check`, `degree`, `eval` and `ne` answers stay byte-identical.

`payloads.json` holds the exit code and the JSON `result` of each
invocation below, spread over the three shipped models.  The `ne` entries
pin every Newton float, `gap` and `residual` to the byte; their steps come
from `numpy.linalg.lstsq` on systems of at most six unknowns.  `simulate`
is left out: its estimates depend on numpy's random streams.

Regenerate the file, after a change meant to alter answers, with
`PYTHONPATH=src python tests/test_payloads.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from respgames.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "payloads.json"

BALL, ROUNDS, RELAY = ("models/ball.game", "models/ball_rounds.game",
                       "models/relay.game")

INVOCATIONS = [
    # ball
    ["check", "--model", BALL, "--formula", "<A1,A2> P>=1 [ X true ]"],
    ["check", "--model", BALL, "--symbolic",
     "--formula", "<A1,A2> P>0 [ X collision ]"],
    ["check", "--model", BALL, "--bind", "x2=1/2",
     "--formula", "<A1> P>=1/2 [ X score1 ]"],
    ["check", "--model", BALL, "--formula", "!<A1,A2> P>1 [ X true ]"],
    ["check", "--model", BALL, "--symbolic",
     "--formula", "<A1,A2> R>=1 [ F<=2 score1 @ A1 ]"],
    ["degree", "--model", BALL, "--kind", "CAR", "--agent", "A1",
     "--plan", "pi_skip", "--formula", "X (dropped | score2)"],
    ["degree", "--model", BALL, "--kind", "CPR", "--agent", "A1",
     "--plan", "pi_catch", "--formula", "X collision",
     "--bind", "x1=1/2", "--bind", "x2=1/2"],
    ["degree", "--model", BALL, "--kind", "CAR", "--agent", "A2",
     "--plan", "pi1", "--formula", "F<=2 score1"],
    ["eval", "--model", BALL, "--formula", "X (dropped | score2)",
     "--bind", "x1=3/10", "--bind", "x2=1/2"],
    ["eval", "--model", BALL, "--kind", "CPR", "--agent", "A2",
     "--plan", "pi2", "--formula", "F<=2 collision",
     "--bind", "x1=1/3", "--bind", "x2=3/4"],
    # ball_rounds
    ["check", "--model", ROUNDS, "--symbolic",
     "--formula", "<A1,A2> P>=1/2 [ F<=3 score1 ]"],
    ["check", "--model", ROUNDS, "--grid", "10",
     "--formula", "<A1,A2> P>1 [ F<=2 score1 ]"],
    ["check", "--model", ROUNDS, "--symbolic",
     "--formula", "<A1,A2> D>=1/2 [ CAR(A1, pi_mix, F<=2 collision) ]"],
    ["check", "--model", ROUNDS, "--bind", "x2=1/3",
     "--formula", "<A1> R<=5 [ F<=2 score2 @ A2 ]"],
    ["degree", "--model", ROUNDS, "--kind", "CPR", "--agent", "A2",
     "--plan", "pi_mix", "--formula", "F<=2 (collision | dropped)"],
    ["degree", "--model", ROUNDS, "--kind", "CAR", "--agent", "A1",
     "--plan", "pi_mix", "--formula", "F<=2 (collision | dropped)",
     "--bind", "x1=1/3", "--bind", "x2=1/4"],
    ["eval", "--model", ROUNDS, "--formula", "F<=2 dropped",
     "--bind", "x1=1/3", "--bind", "x2=2/5"],
    ["eval", "--model", ROUNDS, "--kind", "CAR", "--agent", "A1",
     "--plan", "pi_mix", "--formula", "F<=2 (collision | dropped)",
     "--bind", "x1=1/5", "--bind", "x2=1/2"],
    # relay
    ["check", "--model", RELAY, "--symbolic",
     "--formula", "<R> R>=3 [ F<=2 finished @ R ]"],
    ["check", "--model", RELAY, "--formula", "<R> P>=1 [ F<=1 finished ]"],
    ["degree", "--model", RELAY, "--kind", "CAR", "--agent", "R",
     "--plan", "go", "--formula", "F<=1 finished"],
    ["eval", "--model", RELAY, "--state", "mid", "--formula",
     "F<=1 finished", "--bind", "x_R_start_hold=1/4"],
    # ne: payoff-only, responsibility-weighted (two Newton seeds, and the
    # horizon-1 query with nine solutions), and per-state relay
    ["ne", "--model", BALL, "--horizon", "3", "--lambda1", "1",
     "--lambda2", "0"],
    *(["ne", "--model", ROUNDS, "--horizon", "2", "--lambda1", "1",
       "--lambda2", "1", "--theta", "1", "--plan", "pi_mix",
       "--formula", "F<=2 (collision | dropped)", "--seed", seed]
      for seed in ("17", "4242")),
    ["ne", "--model", ROUNDS, "--horizon", "1", "--lambda1", "1",
     "--lambda2", "1", "--theta", "1", "--plan", "pi_mix",
     "--formula", "F<=1 (collision | dropped)", "--seed", "5"],
    ["ne", "--model", RELAY, "--horizon", "2"],
    ["ne", "--model", RELAY, "--horizon", "3"],
    # solutions that Newton moved off its start, with nonzero gap and
    # residual
    ["ne", "--model", ROUNDS, "--horizon", "2", "--lambda1", "1",
     "--lambda2", "1", "--theta", "1", "--plan", "pi_mix",
     "--formula", "F<=2 (collision | dropped)", "--epsilon", "0.3"],
]


def answer(argv: list[str]) -> dict:
    """The exit code and JSON `result` of one invocation; model paths are
    relative to the repository root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([str(ROOT / arg) if arg.startswith("models/") else arg
                     for arg in argv] + ["--output", "json"])
    return {"argv": argv, "exit": code,
            "result": json.loads(out.getvalue())["result"]}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_invocation():
    assert [entry["argv"] for entry in _golden()] == INVOCATIONS


@pytest.mark.parametrize("index", range(len(INVOCATIONS)),
                         ids=[f"{argv[0]}-{Path(argv[2]).stem}-{i}"
                              for i, argv in enumerate(INVOCATIONS)])
def test_payload_unchanged(index):
    assert (json.dumps(answer(INVOCATIONS[index]), sort_keys=True)
            == json.dumps(_golden()[index], sort_keys=True))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([answer(argv) for argv in INVOCATIONS],
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import MODELS

import respgames
from respgames import checker, polyarith, trace
from respgames.cli import main

BALL = str(MODELS / "ball.game")
ROUNDS = str(MODELS / "ball_rounds.game")
RELAY = str(MODELS / "relay.game")


def run_json(capsys, *argv):
    code = main(list(argv) + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_trivial_true(capsys):
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--formula", "<A1,A2> P>=1 [ X true ]")
    assert code == 0
    assert env["result"]["verdict"] is True
    assert env["subcommand"] == "check"


def test_check_false_verdict_exit_one(capsys):
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--formula", "<A1,A2> P>1 [ X true ]")
    assert code == 1
    assert env["result"]["verdict"] is False


def test_check_symbolic_region(capsys):
    code, env = run_json(capsys, "check", "--model", BALL, "--symbolic",
                         "--formula", "<A1,A2> P>0 [ X collision ]")
    assert code == 0
    assert env["result"]["region"] == "x1*x2 - x1 - x2 + 1 > 0"


def test_degree_car_value_one(capsys):
    code, env = run_json(capsys, "degree", "--model", BALL, "--kind", "CAR",
                         "--agent", "A1", "--plan", "pi_skip",
                         "--formula", "X (dropped | score2)")
    assert code == 0
    result = env["result"]
    assert result["value"] == "1"
    assert result["kappa"] is True and result["mode"] == "symbolic"


def test_degree_evaluated(capsys):
    code, env = run_json(capsys, "degree", "--model", BALL, "--kind", "CPR",
                         "--agent", "A1", "--plan", "pi_catch",
                         "--formula", "X collision",
                         "--bind", "x1=1/2", "--bind", "x2=1/2")
    assert code == 0
    assert env["result"]["exact"] == "1/3"
    assert abs(env["result"]["decimal"] - 1 / 3) < 1e-12


def test_ne_payoff(capsys):
    code, env = run_json(capsys, "ne", "--model", BALL, "--horizon", "2",
                         "--lambda1", "1", "--lambda2", "0")
    assert code == 0
    sols = env["result"]["solutions"]
    assert len(sols) == 1
    assert sols[0]["params"] == {"x1": 0.0, "x2": 1.0}
    assert sols[0]["gap"] <= 1e-6


def test_ne_requires_outcome_for_responsibility(capsys):
    code = main(["ne", "--model", ROUNDS, "--horizon", "2",
                 "--lambda1", "0", "--lambda2", "1"])
    assert code == 2


def test_simulate_prob(capsys):
    code, env = run_json(capsys, "simulate", "--model", BALL,
                         "--formula", "X (dropped | score2)",
                         "--bind", "x1=3/10", "--bind", "x2=7/10",
                         "--samples", "20000", "--seed", "7")
    assert code == 0
    result = env["result"]
    assert result["samples"] == 20000
    assert abs(result["estimate"] - 0.3) <= 4 * result["stderr"]


def test_eval_exact_decimal(capsys):
    code, env = run_json(capsys, "eval", "--model", BALL,
                         "--formula", "X (dropped | score2)",
                         "--bind", "x1=3/10", "--bind", "x2=0.5")
    assert code == 0
    result = env["result"]
    assert result["value"] == "3/10"
    assert result["rendered"] == "3/10 (0.3)"


def test_eval_inadmissible_exit_three(capsys):
    code = main(["eval", "--model", BALL,
                 "--formula", "X (dropped | score2)",
                 "--bind", "x1=2", "--bind", "x2=1/2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "condition 2" in err and "x1" in err


def test_check_inadmissible_fixed_binding_exit_three(capsys):
    # x2 is outside the coalition, so the search keeps it fixed; at -1 the
    # "probability" of a collision reaches 2
    code = main(["check", "--model", BALL, "--bind", "x2=-1",
                 "--formula", "<A1> P>=1 [ X collision ]"])
    assert code == 3
    err = capsys.readouterr().err
    assert "condition 2" in err and "x2" in err
    # a coalition parameter is searched over, whatever it is bound to
    assert main(["check", "--model", BALL, "--bind", "x1=-1",
                 "--bind", "x2=0", "--formula",
                 "<A1> P>=1 [ X collision ]"]) == 0


def test_check_bound_coalition_parameter_warns(capsys):
    code, env = run_json(capsys, "check", "--model", BALL, "--bind", "x1=-1",
                         "--bind", "x2=0", "--formula",
                         "<A1> P>=1 [ X collision ]")
    assert code == 0
    assert env["result"] == {"verdict": True,
                             "witness": {"x1": "0", "x2": "0"}}
    assert env["warnings"] == ["x1 belongs to the coalition: the search "
                               "ranges over it, not its bound value"]
    # a binding outside the coalition is used, and draws no warning
    code, env = run_json(capsys, "check", "--model", BALL, "--bind", "x2=0",
                         "--formula", "<A1> P>=1 [ X collision ]")
    assert (code, env["warnings"]) == (0, [])
    # the pass is specialised at x2 only: at x1 = 1 neither bound is met,
    # and R is infinite everywhere, so the first grid point would answer
    for formula, witness in (("<A1> P>=1 [ X collision ]", "0"),
                             ("<A1> R>=3 [ F<=2 collision @ A1 ]", "1/50")):
        code, env = run_json(capsys, "check", "--model", BALL, "--bind",
                             "x1=1", "--bind", "x2=0", "--formula", formula)
        assert code == 0
        assert env["result"]["witness"] == {"x1": witness, "x2": "0"}


def test_eval_missing_binding_exit_two(capsys):
    code = main(["eval", "--model", BALL,
                 "--formula", "X (dropped | score2)", "--bind", "x1=3/10"])
    assert code == 2
    assert "x2" in capsys.readouterr().err


def test_parse_error_exit_two(capsys):
    code = main(["check", "--model", BALL, "--formula", "<A1> P>= [X true]"])
    assert code == 2


def test_unknown_bind_name_exit_two(capsys):
    code = main(["eval", "--model", BALL, "--formula", "X true",
                 "--bind", "zz=1"])
    assert code == 2


def test_json_idempotence(capsys):
    invocations = [
        ("degree", "--model", BALL, "--kind", "CAR", "--agent", "A1",
         "--plan", "pi_skip", "--formula", "X (dropped | score2)"),
        ("ne", "--model", BALL, "--horizon", "2", "--lambda1", "1",
         "--lambda2", "0", "--seed", "4"),
        ("simulate", "--model", BALL, "--formula", "X collision",
         "--bind", "x1=1/2", "--bind", "x2=1/2", "--samples", "4000",
         "--seed", "4"),
    ]
    for args in invocations:
        _, a = run_json(capsys, *args)
        _, b = run_json(capsys, *args)
        a.pop("timing")
        b.pop("timing")
        assert a == b, args[0]


def test_digest_tracks_inputs(capsys):
    _, a = run_json(capsys, "check", "--model", BALL,
                    "--formula", "<A1,A2> P>=1 [ X true ]")
    _, b = run_json(capsys, "check", "--model", BALL,
                    "--formula", "<A1,A2> P>=1 [ X (dropped | score2) ]",
                    "--bind", "x1=1", "--bind", "x2=1")
    assert a["digest"] != b["digest"]
    _, c = run_json(capsys, "check", "--model", BALL,
                    "--formula", "<A1,A2> P>=1 [ X true ]")
    assert a["digest"] == c["digest"]


def test_digest_covers_every_argument(capsys):
    # Same model and formula, different bindings and seed: different
    # queries.  Repeating one keeps its digest; --output is not part of it.
    common = ["simulate", "--model", BALL, "--formula",
              "X (dropped | score2)", "--samples", "2000"]
    first = common + ["--bind", "x1=3/10", "--bind", "x2=7/10", "--seed", "1"]
    second = common + ["--bind", "x1=1/2", "--bind", "x2=1/10", "--seed", "2"]
    _, a = run_json(capsys, *first)
    _, b = run_json(capsys, *second)
    _, c = run_json(capsys, *first)
    assert a["digest"] != b["digest"]
    assert a["digest"] == c["digest"]
    from respgames.cli import _digest, build_parser
    human = build_parser().parse_args(first + ["--output", "human"])
    assert _digest(human) == a["digest"]


@pytest.mark.parametrize("prefix,digest", [
    (b"", "sha256:fe89ffc54b2e4214893c6fdd09ca612c"
          "112e47b6446bba25e5bf2ab241785c49"),
    ("\ufeff".encode(), "sha256:448093e6927af79fd6a045ef63639eb6"
                           "d04e24ca9f528c5a2f28cde0c0dba01f"),
], ids=["ball", "bom"])
def test_model_file_is_read_once(tmp_path, capsys, monkeypatch, prefix,
                                 digest):
    # the digest hashes the bytes that were parsed, a byte-order mark
    # included; the pinned values are those of the file read a second time
    model = tmp_path / "model.game"
    model.write_bytes(prefix + (MODELS / "ball.game").read_bytes())
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(model):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, env = run_json(capsys, "check", "--model", str(model),
                         "--formula", "<A1,A2> P>=1 [ X true ]")
    assert code == 0 and env["digest"] == digest
    assert len(opened) == 1


@pytest.mark.parametrize("argv, text", [
    (["check", "--model", BALL], "<A1,A2> P>=1 [ X true ]"),
    (["degree", "--model", BALL, "--kind", "CPR", "--agent", "A1",
      "--plan", "pi_catch"], "X collision"),
    (["eval", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2"],
     "X collision"),
    (["simulate", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2",
      "--samples", "1000"], "X collision"),
    (["ne", "--model", BALL, "--horizon", "1", "--lambda2", "1",
      "--plan", "pi_catch"], "X collision"),
], ids=["check", "degree", "eval", "simulate", "ne"])
def test_formula_file_is_read_once(tmp_path, capsys, monkeypatch, argv,
                                   text):
    # the digest hashes the text that was parsed: the one --formula gives
    path = tmp_path / "query.rpatl"
    path.write_text(text + "\n")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, env = run_json(capsys, *argv, "--formula-file", str(path))
    assert code == 0 and len(opened) == 1
    inline, inline_env = run_json(capsys, *argv, "--formula", text)
    assert inline == 0 and env["digest"] == inline_env["digest"]
    assert env["result"] == inline_env["result"]


@pytest.mark.parametrize("argv", [
    ["check", "--model", BALL, "--formula",
     "<A1,A2> D<=1/2 [ CPR(A1, pi_catch, X collision) ]"],
    ["degree", "--model", BALL, "--kind", "CPR", "--agent", "A1",
     "--plan", "pi_catch", "--formula", "X collision"],
    ["eval", "--model", BALL, "--formula", "X collision"],
    ["simulate", "--model", BALL, "--formula", "X collision",
     "--samples", "1000"],
], ids=["check", "degree", "eval", "simulate"])
def test_parameter_bound_twice_exit_two(capsys, argv):
    once = argv + ["--bind", "x1=1/2", "--bind", "x2=1/2"]
    assert main(once) in (0, 1)
    capsys.readouterr()
    assert main(once + ["--bind", "x1=1/3"]) == 2
    assert "--bind binds x1 twice" in capsys.readouterr().err


def test_main_calls_share_no_parsed_state(capsys):
    # every call parses with one parser: the --bind lists of one call
    # neither reach the next nor change the default of a call without any
    from respgames.cli import _parser
    query = ["eval", "--model", BALL, "--formula", "X collision"]
    _, a = run_json(capsys, *query, "--bind", "x1=1/2", "--bind", "x2=1/2")
    _, b = run_json(capsys, *query, "--bind", "x1=1/3", "--bind", "x2=1/4")
    assert (a["result"]["value"], b["result"]["value"]) == ("1/4", "1/2")
    code = main(query + ["--bind", "x1=1/3"])
    assert code == 2
    assert "no value assigned to parameter x2" in capsys.readouterr().err
    assert main(query) == 2  # nothing bound: not the previous bindings
    assert "no value assigned to parameter x1" in capsys.readouterr().err
    assert _parser() is _parser()
    assert _parser().parse_args(query).bind == []


def test_formula_file(tmp_path, capsys):
    path = tmp_path / "query.rpatl"
    path.write_text("<A1,A2> P>=1 [ X true ]\n")
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--formula-file", str(path))
    assert code == 0 and env["result"]["verdict"] is True


def test_unreadable_formula_file(tmp_path, capsys):
    # the JSON error envelope is still written (its digest reads the file)
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--formula-file", str(tmp_path / "missing.rpatl"))
    assert code == 2
    assert env["result"]["error"].startswith("cannot read input")


@pytest.mark.parametrize("argv", [
    ["check", "--formula", "<A1,A2> P>=1 [ X true ]", "--model"],
    ["eval", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2",
     "--formula-file"],
], ids=["model", "formula-file"])
def test_input_that_is_not_utf8_exits_two(tmp_path, capsys, argv):
    # UnicodeDecodeError is a ValueError, not an OSError: it went through
    # main as a traceback, exit 1 and no envelope
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe")
    code, env = run_json(capsys, *argv, str(path))
    assert code == 2
    assert env["result"]["error"].startswith(f"{path} is not UTF-8 text: ")


@pytest.mark.parametrize("argv,text", [
    (["check", "--formula", "<A1,A2> P>=1 [ X true ]", "--model"],
     (MODELS / "ball.game").read_bytes()),
    (["eval", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2",
      "--formula-file"], b"X collision"),
], ids=["model", "formula-file"])
def test_input_with_a_byte_order_mark(tmp_path, capsys, argv, text):
    # editors on Windows begin UTF-8 files with the mark EF BB BF; the
    # input answers as it does without it, and a file that is not UTF-8
    # after the mark still exits 2
    plain, marked, broken = (tmp_path / name
                             for name in ("plain", "marked", "broken"))
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    broken.write_bytes(b"\xef\xbb\xbf\xff\xfe")
    want = run_json(capsys, *argv, str(plain))
    code, env = run_json(capsys, *argv, str(marked))
    assert (code, env["result"]) == (want[0], want[1]["result"])
    assert code == 0
    code, env = run_json(capsys, *argv, str(broken))
    assert code == 2
    assert env["result"]["error"].startswith(f"{broken} is not UTF-8 text: ")


def test_simulate_degree_estimate(capsys):
    code, env = run_json(capsys, "simulate", "--model", BALL,
                         "--formula", "X collision", "--kind", "CPR",
                         "--agent", "A1", "--plan", "pi_catch",
                         "--bind", "x1=1/2", "--bind", "x2=1/2",
                         "--samples", "20000", "--seed", "5")
    assert code == 0
    result = env["result"]
    assert abs(result["estimate"] - 1 / 3) <= 4 * result["stderr"]


def test_simulate_starts_at_state(capsys):
    # From mid the runner's pass is forced, so X finished holds surely
    # (eval gives 1), while from start it needs the pass (3/4 here).
    argv = ["--model", RELAY, "--formula", "X finished", "--state", "mid",
            "--bind", "x_R_start_hold=1/4"]
    _, exact = run_json(capsys, "eval", *argv)
    code, env = run_json(capsys, "simulate", *argv, "--samples", "20000",
                         "--seed", "3")
    assert code == 0 and exact["result"]["value"] == "1"
    result = env["result"]
    assert abs(result["estimate"] - 1) <= 4 * result["stderr"]


def test_simulate_degree_rejects_short_plan(capsys):
    # pi_mix has 2 steps; the outcome needs 4, as `degree` also says
    argv = ["--model", ROUNDS, "--formula", "F<=4 score1", "--kind", "CAR",
            "--agent", "A1", "--plan", "pi_mix"]
    assert main(["degree"] + argv) == 3
    capsys.readouterr()
    assert main(["simulate"] + argv + ["--bind", "x1=1/2", "--bind",
                                       "x2=1/2", "--samples", "1000"]) == 3
    assert "plan has 2 steps" in capsys.readouterr().err


def test_missing_model_file(capsys):
    code = main(["check", "--model", "no-such.game", "--formula", "true"])
    assert code == 2


def test_human_output(capsys):
    code = main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi_skip",
                 "--formula", "X (dropped | score2)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value" in out and "1" in out


def test_flags_that_do_nothing_are_gone(capsys):
    # --threads was never used; --grid is read by check alone; the term
    # and work caps are constants, not flags
    assert main(["check", "--model", BALL, "--formula", "true",
                 "--threads", "1"]) == 2
    assert main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi_skip",
                 "--formula", "X (dropped | score2)", "--grid", "4"]) == 2
    for flag in ("--limit-terms", "--limit-paths"):
        assert main(["degree", "--model", BALL, "--kind", "CAR",
                     "--agent", "A1", "--plan", "pi1",
                     "--formula", "F<=2 score1", flag, "2"]) == 2
    # only ne and simulate draw random numbers; ne binds no parameters
    for argv in (["check", "--model", BALL, "--formula", "true"],
                 ["degree", "--model", BALL, "--kind", "CAR",
                  "--agent", "A1", "--plan", "pi_skip",
                  "--formula", "X (dropped | score2)"],
                 ["eval", "--model", BALL, "--formula", "X true",
                  "--bind", "x1=1/2", "--bind", "x2=1/2"]):
        assert main(argv + ["--seed", "1"]) == 2
    assert main(["ne", "--model", BALL, "--horizon", "1",
                 "--bind", "zz=qq"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pass_work_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(trace, "MAX_PASS_WORK", 10)
    code = main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi1",
                 "--formula", "F<=2 score1"])
    assert code == 3
    assert "term pairs, over the 10 cap" in capsys.readouterr().err


def test_default_check_answers_deep_horizon(capsys):
    # the pass answers k=32 within the default work cap
    code, env = run_json(capsys, "check", "--model", ROUNDS, "--symbolic",
                         "--formula", "<A1,A2> P>=1/2 [ F<=32 score1 ]")
    assert code == 0
    assert env["result"]["verdict"] is None
    assert env["result"]["region"].endswith(" >= 1/2")


def test_ne_long_horizon(capsys):
    code, env = run_json(capsys, "ne", "--model", BALL, "--horizon", "12")
    assert code == 0
    assert env["result"]["solutions"]


def test_work_cap_refuses_within_one_cell(capsys, monkeypatch):
    # the pass checks its work after each cell, and a cell of ball_rounds
    # multiplies at most 4 entries (4 joint actions, one successor each);
    # it stops at the first check past the cap
    seen, products = [], [0]
    real_check, real_mul = checker.check_work, polyarith.Polynomial.__mul__

    def check(work, unit):
        seen.append((work, products[0]))
        products[0] = 0
        real_check(work, unit)

    def mul(a, b):
        products[0] += 1
        return real_mul(a, b)

    monkeypatch.setattr(trace, "MAX_PASS_WORK", 1000)
    monkeypatch.setattr(checker, "check_work", check)
    monkeypatch.setattr(polyarith.Polynomial, "__mul__", mul)
    code = main(["check", "--model", ROUNDS, "--symbolic",
                 "--formula", "<A1,A2> P>=1/2 [ F<=12 score1 ]"])
    assert code == 3
    assert max(n for _, n in seen[1:]) <= 4  # the first includes loading
    assert seen[-2][0] <= 1000 < seen[-1][0]
    assert (f"the pass did {seen[-1][0]} term pairs, over the 1000 cap"
            in capsys.readouterr().err)


def test_simulate_block_cap(capsys):
    # refused before numpy allocates the 10^11-cell block
    code, env = run_json(capsys, "simulate", "--model", BALL,
                         "--formula", "F<=100000000 collision",
                         "--bind", "x1=1/2", "--bind", "x2=1/2",
                         "--samples", "1000")
    assert code == 3
    assert env["result"]["error"] == (
        "a block of 1000 paths of 100000000 steps has 100000001000 cells, "
        "over the 10000000 cap")


def test_grid_flag_controls_search_resolution(capsys):
    # a coarse grid still finds the vertex witness deterministically
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--formula", "<A1> P>=3/4 [ X score1 ]",
                         "--bind", "x2=1", "--grid", "4")
    assert code == 0
    assert env["result"]["witness"]["x1"] == "0"


def test_grid_below_one_rejected(capsys):
    # -3 used to scan no point and answer false; 0 used to mean 50
    for grid in ("-3", "0"):
        code = main(["check", "--model", ROUNDS, "--grid", grid,
                     "--formula", "<A1,A2> P>1 [ F<=2 score1 ]"])
        assert code == 3
        assert "--grid must be at least 1" in capsys.readouterr().err


def test_grid_point_cap(capsys):
    # 2001^2 points: refused before the scan starts
    started = time.perf_counter()
    code = main(["check", "--model", ROUNDS, "--grid", "2000",
                 "--formula", "<A1,A2> P>1 [ F<=2 score1 ]"])
    assert code == 3
    assert "4004001 points, over the 2000000 cap" in capsys.readouterr().err
    assert time.perf_counter() - started < 5


FOUR_SCOPES = """
agents: A B
states: s t
init: s
labels: t { done }
actions A @ s: a b
actions A @ t: a b
actions B @ s: a b
actions B @ t: a b
trans s (a, a) -> { s: 1 }
trans s (a, b) -> { s: 1 }
trans s (b, a) -> { t: 1 }
trans s (b, b) -> { t: 1 }
trans t (a, a) -> { t: 1 }
trans t (a, b) -> { t: 1 }
trans t (b, a) -> { t: 1 }
trans t (b, b) -> { t: 1 }
"""


def test_grid_point_cap_four_coalition_parameters(tmp_path, capsys):
    # four single-parameter scopes: 51^4 points at the default grid are
    # refused; 37^4 at --grid 36 are under the cap, and the scan stops at
    # its first point, where A plays b at s for sure
    model = tmp_path / "four.game"
    model.write_text(FOUR_SCOPES)
    formula = "<A,B> P>=1 [ X done ]"
    code = main(["check", "--model", str(model), "--formula", formula])
    assert code == 3
    assert "6765201 points, over the 2000000 cap" in capsys.readouterr().err
    code, env = run_json(capsys, "check", "--model", str(model),
                         "--formula", formula, "--grid", "36")
    assert code == 0 and env["result"]["verdict"] is True


# Both agents must play a at s0 to reach s1, from which every joint
# action reaches the goal; every other joint action at s0 is lost.
TWO_STEPS = """agents: A B
states: s0 s1 g z
init: s0
labels: g { goal }
actions A @ s0: a b
actions B @ s0: a b
actions A @ s1: a b
actions B @ s1: a b
actions A @ g: a
actions B @ g: a
actions A @ z: a
actions B @ z: a
trans s0 (a, a) -> { s1: 1 }
trans s0 (a, b) -> { z: 1 }
trans s0 (b, a) -> { z: 1 }
trans s0 (b, b) -> { z: 1 }
trans s1 (a, a) -> { g: 1 }
trans s1 (a, b) -> { g: 1 }
trans s1 (b, a) -> { g: 1 }
trans s1 (b, b) -> { g: 1 }
trans g (a, a) -> { g: 1 }
trans z (a, a) -> { z: 1 }
plan p @ s0: (a, a) (a, a)
"""


def test_degree_brackets_a_denominator_of_several_factors(tmp_path,
                                                          capsys):
    # the CAR degree's denominator is one term of two factors
    model = tmp_path / "two_steps.game"
    model.write_text(TWO_STEPS)
    code, env = run_json(capsys, "degree", "--model", str(model), "--kind",
                         "CAR", "--agent", "A", "--plan", "p", "--formula",
                         "F<=2 goal")
    assert code == 0
    assert env["result"]["value"] == (
        "x_A_s0_a*x_A_s1_a*x_B_s0_a / (x_A_s0_a*x_B_s0_a)")


def test_samples_below_one_rejected(capsys):
    for value in ("0", "-1"):
        code, env = run_json(capsys, "simulate", "--model", BALL,
                             "--formula", "X collision", "--bind", "x1=1/2",
                             "--bind", "x2=1/2", "--samples", value)
        assert code == 3
        assert env["result"] == {"error": "--samples must be at least 1"}


def test_term_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(polyarith, "MAX_TERMS", 2)
    code = main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi1",
                 "--formula", "F<=2 score1"])
    assert code == 3
    assert "(limit 2)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--lambda1", "abc"), ("--lambda1", "1/0"), ("--lambda2", "x"),
    ("--theta", "1/0"), ("--epsilon", "nope"), ("--residual", "1e-9x"),
    # parseable, but no tolerance: inf passed every candidate, while nan
    # and negative values rejected every one
    ("--epsilon", "inf"), ("--epsilon", "-1"), ("--residual", "nan"),
])
def test_ne_bad_number_flag_exit_two(capsys, flag, value):
    assert main(["ne", "--model", BALL, "--horizon", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and value in err


@pytest.mark.parametrize("argv, flag", [
    (["ne", "--model", BALL, "--horizon", "-1"],
     "--horizon must be at least 0"),
    (["ne", "--model", BALL, "--horizon", "2", "--seeds", "0"],
     "--seeds must be at least 1"),
    (["ne", "--model", BALL, "--horizon", "2", "--seeds", "-1"],
     "--seeds must be at least 1"),
    (["simulate", "--model", BALL, "--formula", "X collision", "--bind",
      "x1=1/2", "--bind", "x2=1/2", "--samples", "100", "--seed", "-1"],
     "--seed must be at least 0"),
    (["ne", "--model", BALL, "--horizon", "1", "--lambda1", "1",
      "--lambda2", "0", "--seed", "-1"], "--seed must be at least 0"),
], ids=["ne-horizon-minus-1", "ne-seeds-0", "ne-seeds-minus-1",
        "simulate-seed-minus-1", "ne-seed-minus-1"])
def test_size_flag_below_least_rejected(capsys, argv, flag):
    # ne --horizon -1 and simulate --seed -1 ended in a ValueError
    # traceback; ne --seed -1 ran every Newton start from the same point
    code, env = run_json(capsys, *argv)
    assert code == 3
    assert env["result"] == {"error": flag}


SIM = ["simulate", "--model", BALL, "--formula", "X collision",
       "--bind", "x1=1/2", "--bind", "x2=1/2", "--samples", "1000"]
EVAL = ["eval", "--model", BALL, "--formula", "X collision",
        "--bind", "x1=1/2", "--bind", "x2=1/2"]


@pytest.mark.parametrize("argv, flag", [
    (SIM + ["--horizon", "3"], "--horizon"),
    (["check", "--model", BALL, "--symbolic", "--bind", "x1=1/2",
      "--formula", "<A1,A2> P>0 [ X collision ]"], "--bind"),
    (["check", "--model", BALL, "--symbolic", "--grid", "10",
      "--formula", "<A1,A2> P>0 [ X collision ]"], "--grid"),
    (["ne", "--model", BALL, "--horizon", "1", "--plan", "pi_catch"],
     "--plan"),
    (["ne", "--model", BALL, "--horizon", "1", "--lambda2", "0",
      "--formula", "X collision"], "--formula"),
    (EVAL + ["--plan", "nonexistent"], "--plan"),
    (EVAL + ["--agent", "A1"], "--agent"),
    (SIM + ["--coalition", "A1"], "--coalition"),
    (SIM + ["--agent", "A1", "--plan", "pi_catch"], "--agent"),
    (["ne", "--model", BALL, "--horizon", "1", "--theta", "5"], "--theta"),
], ids=["simulate-horizon", "check-symbolic-bind", "check-symbolic-grid",
        "ne-payoff-plan", "ne-payoff-formula", "eval-plan-without-kind",
        "eval-agent-without-kind", "simulate-coalition-without-kind",
        "simulate-agent-without-kind", "ne-payoff-theta"])
def test_unread_flag_refused(capsys, argv, flag):
    # each of these flags used to be accepted and left unread
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


def test_zero_mass_note_is_one_note(capsys):
    # CPR of A1 under pi_catch at x1 = x2 = 0: no path violates the
    # collision, so the degree is 0 by the zero-mass convention
    query = ["--model", BALL, "--formula", "X collision", "--kind", "CPR",
             "--agent", "A1", "--plan", "pi_catch",
             "--bind", "x1=0", "--bind", "x2=0"]
    _, degree = run_json(capsys, "degree", *query)
    _, evaluated = run_json(capsys, "eval", *query)
    _, checked = run_json(capsys, "check", "--model", BALL,
                          "--bind", "x1=0", "--bind", "x2=0", "--formula",
                          "<A1,A2> D<=0 [ CPR(A1, pi_catch, X collision) ]")
    assert degree["result"]["exact"] == evaluated["result"]["value"] == "0"
    assert checked["result"]["verdict"] is True
    note = ["the degree's denominator mass is zero at this valuation, so "
            "the degree is 0 by convention"]
    assert degree["warnings"] == evaluated["warnings"] == note
    assert checked["warnings"] == note


def test_symbolic_check_of_a_deep_horizon_stops_when_all_is_decided(capsys):
    # every path is a witness at step 0, so the pass ends there instead of
    # stepping through 10^9 empty depths
    started = time.perf_counter()
    for formula in ("<A1,A2> P>=1 [ F<=1000000000 true ]",
                    "<A1,A2> R<=5 [ F<=1000000000 true @ A2 ]"):
        code, env = run_json(capsys, "check", "--model", ROUNDS,
                             "--symbolic", "--formula", formula)
        assert code == 0 and env["result"]["verdict"] is None
    assert time.perf_counter() - started < 5


def test_check_witness_leaves_out_bound_coalition_parameters(capsys):
    # x_A1_catch is A1's dependent parameter: the search sets x1, so a
    # bound 1/3 would contradict the witness's x1 = 0
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--bind", "x_A1_catch=1/3", "--bind", "x2=0",
                         "--formula", "<A1> P>=1 [ X collision ]")
    assert code == 0
    assert env["result"] == {"verdict": True,
                             "witness": {"x1": "0", "x2": "0"}}
    assert env["warnings"] == ["x_A1_catch belongs to the coalition: the "
                               "search ranges over it, not its bound value"]


@pytest.mark.parametrize("argv, message", [
    (EVAL[:-4] + ["--bind", "x1"], "--bind expects NAME=VALUE, got 'x1'"),
    (EVAL + ["--bind", "y=1/2"], "unknown parameter 'y'"),
    (EVAL + ["--state", "nowhere"], "unknown state 'nowhere'"),
    (EVAL + ["--kind", "CPR", "--agent", "A1", "--plan", "pi_catch",
             "--coalition", "A1,A9"], "unknown agent 'A9'"),
    (EVAL[:-4] + ["--bind", "x1=1/0"], "bad rational '1/0' for x1"),
    (["eval", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2"],
     "eval needs --formula or --formula-file"),
    (EVAL + ["--formula-file", BALL], "give --formula or --formula-file, "
                                      "not both"),
    (EVAL + ["--kind", "CAR", "--agent", "A1"],
     "--kind needs --agent and --plan"),
    (["ne", "--model", BALL, "--horizon", "1", "--lambda2", "1"],
     "responsibility-weighted utilities need --plan and --formula"),
], ids=["bind-syntax", "unknown-parameter", "unknown-state", "unknown-agent",
        "bad-rational", "needs-formula", "not-both", "kind-needs",
        "weighted-needs"])
def test_usage_error_names_no_formula_location(capsys, argv, message):
    # these errors are about flags, not formula text: no <formula>:1:1:
    code, env = run_json(capsys, *argv)
    assert code == 2
    assert env["result"] == {"error": message}


def test_false_check_verdict_says_it_is_no_proof(capsys):
    code, env = run_json(capsys, "check", "--model", ROUNDS, "--grid", "10",
                         "--formula", "<A1,A2> P>1 [ F<=2 score1 ]")
    assert (code, env["result"]["verdict"]) == (1, False)
    assert env["warnings"] == [
        "this false verdict comes from a 1/10 grid search with local "
        "refinement, not from a proof; the witness is the best point found"]
    # every point has an infinite reward, so no point is best
    code, env = run_json(capsys, "check", "--model", BALL, "--grid", "20",
                         "--bind", "x2=1/2", "--formula",
                         "<A1> R<=2 [ F<=3 collision @ A1 ]")
    assert (code, env["result"]) == (1, {"verdict": False})
    assert env["warnings"] == [
        "this false verdict comes from a 1/20 grid search with local "
        "refinement, not from a proof"]


CPR_CHECK = "<A1,A2> D>=1/2 [ CPR(A1, pi_catch, X collision) ]"


def test_evaluated_degree_check_refuses_inadmissible_binding(capsys):
    # D is decided at the bound valuation, which `degree` refuses at x1=2;
    # `check` used to answer true with the witness x1: 2
    argv = ["--model", BALL, "--bind", "x1=2", "--bind", "x2=1/2"]
    assert main(["degree", *argv, "--kind", "CPR", "--agent", "A1",
                 "--plan", "pi_catch", "--formula", "X collision"]) == 3
    capsys.readouterr()
    code, env = run_json(capsys, "check", *argv, "--formula", CPR_CHECK)
    assert code == 3
    assert env["result"]["error"] == (
        "inadmissible valuation: condition 2 violated at x1 (value 2)")


def test_evaluated_degree_check_reads_only_its_bound_scopes(capsys):
    # CAR of A1 under pi_skip for X (dropped | score2) is the constant 1,
    # so it is decided without bindings; a degree that reads x1 and x2
    # still needs them
    code, env = run_json(
        capsys, "check", "--model", BALL, "--formula",
        "<A1,A2> D>=1/2 [ CAR(A1, pi_skip, X (dropped | score2)) ]")
    assert (code, env["result"]) == (0, {"verdict": True, "witness": {}})
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--bind", "x1=1/2", "--formula", CPR_CHECK)
    assert (code, env["result"]) == (
        2, {"error": "no value assigned to parameter x2"})


def test_degree_and_check_admit_the_same_partial_binding(capsys):
    # with x1 bound alone, both commands admit A1's scope only: the CAR
    # degree 1 reads no parameter, so both answer it; the CPR degree reads
    # x2, which both name
    car = ("--kind", "CAR", "--agent", "A1", "--plan", "pi_skip",
           "--formula", "X (dropped | score2)")
    code, env = run_json(capsys, "degree", "--model", BALL, *car,
                         "--bind", "x1=1/2")
    assert code == 0
    assert (env["result"]["exact"], env["result"]["mode"]) == ("1",
                                                               "evaluated")
    code, env = run_json(
        capsys, "check", "--model", BALL, "--bind", "x1=1/2", "--formula",
        "<A1,A2> D>=1/2 [ CAR(A1, pi_skip, X (dropped | score2)) ]")
    assert (code, env["result"]["verdict"]) == (0, True)
    missing = (2, {"error": "no value assigned to parameter x2"})
    code, env = run_json(capsys, "degree", "--model", BALL, "--kind", "CPR",
                         "--agent", "A1", "--plan", "pi_catch",
                         "--formula", "X collision", "--bind", "x1=1/2")
    assert (code, env["result"]) == missing
    code, env = run_json(capsys, "check", "--model", BALL,
                         "--bind", "x1=1/2", "--formula", CPR_CHECK)
    assert (code, env["result"]) == missing


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2"],
    ["eval", "--model", BALL, "--bind", "x1=1/2", "--bind", "x2=1/2"],
    ["ne", "--model", ROUNDS, "--horizon", "1", "--lambda2", "1",
     "--plan", "pi_mix"],
    ["degree", "--model", BALL, "--kind", "CAR", "--agent", "A1",
     "--plan", "pi_catch"],
], ids=["simulate", "eval", "ne", "degree"])
def test_formula_file_errors_name_the_file(tmp_path, capsys, argv):
    path = tmp_path / "typo.rpatl"
    path.write_text("F<=2 colision\n")
    code, env = run_json(capsys, *argv, "--formula-file", str(path))
    assert code == 2
    assert env["result"]["error"] == (
        f"{path}:1:6: unknown proposition 'colision'")


def test_eval_reports_a_typo_where_it_is(capsys):
    # eval used to retry a failed path formula as a state formula and
    # report the retry's error, at 'F'
    code, env = run_json(capsys, *EVAL[:3], "--formula", "F<=2 colision",
                         *EVAL[5:])
    assert code == 2
    assert env["result"]["error"] == (
        "<formula>:1:6: unknown proposition 'colision'")


def test_eval_refuses_a_state_formula(capsys):
    # state formulas go to `check`, which also gives the witness
    code, env = run_json(capsys, *EVAL[:3], "--formula",
                         "<A1> P>=1 [ X collision ]", *EVAL[5:])
    assert code == 2
    assert env["result"]["error"] == (
        "<formula>:1:26: expected 'U': a path formula is X phi, F<=k phi "
        "or phi U<=k psi")


@pytest.mark.parametrize("subcommand", ["degree", "simulate", "eval"])
def test_degree_agent_outside_flag_coalition_exit_two(capsys, subcommand):
    # the formula parser refuses <A2> D>=1/2 [ CPR(A1, ...) ] with exit 2;
    # the same query from flags used to exit 3
    code, env = run_json(capsys, subcommand, "--model", BALL, "--kind",
                         "CPR", "--agent", "A1", "--plan", "pi_catch",
                         "--coalition", "A2", "--formula", "X collision",
                         "--bind", "x1=1/2", "--bind", "x2=1/2")
    assert code == 2
    assert env["result"] == {
        "error": "degree agent A1 must belong to the coalition"}
    assert main(["check", "--model", BALL, "--formula",
                 "<A2> D>=1/2 [ CPR(A1, pi_catch, X collision) ]"]) == 2


# Runs each argv list of argv[1] (JSON) through `cli.main` in this fresh
# interpreter, then prints what those calls left imported, then runs the
# lists of argv[2] and prints each exit code and result.
_FRESH = """
import contextlib, io, json, sys
from respgames.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--output", "json"])
    return [code, json.loads(out.getvalue())["result"]]

light = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([name for name in
                  ("numpy", "respgames.synth", "respgames.oracle")
                  if name in sys.modules]))
print(json.dumps(light))
print(json.dumps([run(argv) for argv in json.loads(sys.argv[2])]))
"""

_LIGHT = [
    ["check", "--model", BALL, "--symbolic",
     "--formula", "<A1,A2> P>0 [ X collision ]"],
    ["check", "--model", BALL, "--formula", "<A1,A2> P>=1 [ X true ]"],
    ["degree", "--model", BALL, "--kind", "CPR", "--agent", "A1",
     "--plan", "pi_catch", "--formula", "X collision"],
    ["eval", "--model", BALL, "--formula", "X (dropped | score2)",
     "--bind", "x1=3/10", "--bind", "x2=1/2"],
]
_NUMPY = [
    ["ne", "--model", BALL, "--horizon", "2", "--lambda1", "1",
     "--lambda2", "0"],
    ["simulate", "--model", BALL, "--formula", "X collision",
     "--bind", "x1=1/2", "--bind", "x2=1/2", "--samples", "2000",
     "--seed", "1"],
]


def test_check_degree_and_eval_never_import_numpy(capsys):
    src = str(Path(respgames.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, json.dumps(_LIGHT),
         json.dumps(_NUMPY)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    loaded, light, heavy = map(json.loads, done.stdout.splitlines())
    assert loaded == []
    for argv, fresh in zip(_LIGHT + _NUMPY, light + heavy):
        code, env = run_json(capsys, *argv)
        assert code == 0, argv
        assert fresh == [code, env["result"]], argv


_API = [
    "DegenerateQueryError", "FormulaError", "InadmissibleError",
    "MissingParameterError", "ModelError", "NoSolutionError",
    "ResourceLimitError", "RespgamesError", "UndefinedEstimateError",
    "UnsupportedQueryError", "UsageError", "ZeroDenominatorError",
    "Monomial", "ParamId", "Polynomial", "RationalFunction",
    "AdmissibilityReport", "Csg", "Psmas", "RewardStructure", "build_psmas",
    "check_admissible", "load_model", "parse_model", "CompareOp",
    "DegreeKind", "PathFormula", "StateFormula", "horizon", "parse_formula",
    "parse_path_formula", "render_formula", "Plan", "plan_from_model",
    "CheckResult", "DegreeResult", "ExtendedValue", "QueryContext", "Region",
    "car_degree", "check_formula", "cpr_degree", "degree_at",
    "path_sat_prob", "reward_value", "responsibility_degree", "NeSolution",
    "NeSystem", "ResponsibilitySpec", "UtilityConfig", "build_ne_system",
    "find_equilibria", "payoff_valuation", "solve_ne", "utility_parts",
    "verify_ne", "Estimate", "SimConfig", "estimate_degree",
    "estimate_path_prob",
]


def test_package_exports_every_name():
    listed = dir(respgames)
    star: dict = {}
    exec("from respgames import *", star)
    for name in _API:
        assert name in listed, name
        assert star[name] is getattr(respgames, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        respgames.no_such_name  # noqa: B018

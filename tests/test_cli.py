import json
import time

from conftest import MODELS

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


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RESPGAMES_SEED", "99")
    _, a = run_json(capsys, "simulate", "--model", BALL,
                    "--formula", "X collision",
                    "--bind", "x1=1/2", "--bind", "x2=1/2",
                    "--samples", "5000")
    _, b = run_json(capsys, "simulate", "--model", BALL,
                    "--formula", "X collision",
                    "--bind", "x1=1/2", "--bind", "x2=1/2",
                    "--samples", "5000", "--seed", "99")
    assert a["result"] == b["result"]


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


def test_threads_flag_validated(capsys):
    code = main(["check", "--model", BALL, "--formula", "true",
                 "--threads", "0"])
    assert code == 3


def test_limit_paths_flag(capsys):
    code = main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi1",
                 "--formula", "F<=2 score1", "--limit-paths", "10"])
    assert code == 3
    assert "exceeds" in capsys.readouterr().err
    # restore the default for other tests in this process
    from respgames import trace
    trace.set_path_limit(trace.DEFAULT_PATH_LIMIT)


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


def test_limit_terms_flag(capsys):
    code = main(["degree", "--model", BALL, "--kind", "CAR",
                 "--agent", "A1", "--plan", "pi1",
                 "--formula", "F<=2 score1", "--limit-terms", "2"])
    assert code == 3
    from respgames import polyarith
    polyarith.set_term_limit(polyarith.DEFAULT_TERM_LIMIT)

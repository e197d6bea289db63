"""Reference figures for the README: horizon sweeps through the CLI.

    python3 perfbench/sweep.py

Prints markdown tables of wall time per CLI invocation for:

- `check --symbolic` P[F<=k score1] and `degree` CAR/CPR on ball_rounds with
  a seeded 8-step plan, k = 2..8, with the term count of the answer and
  the process's peak resident memory after the query;
- `ne` payoff-only on ball and responsibility-weighted on ball_rounds
  (outcome F<=2 (collision | dropped) under pi_mix) at horizons 2-4;
- `simulate` P[F<=k score1] at 200k samples, as sampled paths per second.

Each answer is checked against reference.py where the workloads check it.
Single runs, one process, so the figures are indicative, not benchmark
medians.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from fractions import Fraction

import run
import reference as ref


def _timed(cli, argv: list[str]):
    start = time.perf_counter()
    code, text = run.invoke(cli, argv)
    took = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return took, json.loads(text)["result"]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"wrong answer: {what}")


def _terms(rendered: str) -> int:
    return rendered.count(" + ") + rendered.count(" - ") + 1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


MAX_K = 8


def main() -> int:
    run._fix_environment()
    out = run.OUT / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random("sweep:1")
    plan_path = run.workloads.ball_rounds_with_plan(
        run.ROOT, out, rng, MAX_K, "score1")
    game = ref.parse_game(plan_path.read_text())
    point = {"x1": Fraction(1, 3), "x2": Fraction(2, 5)}
    cli = run.load_cli()
    m = str(plan_path)

    print("| k | P s | P terms | CAR s | CPR s | degree den terms "
          "| peak RSS MB |")
    print("|---|---|---|---|---|---|---|")
    for k in range(2, MAX_K + 1):
        query = ref.eventually(game, k, ["score1"])
        path = f"F<={k} score1"
        p_s, region = _timed(cli, ["check", "--model", m, "--symbolic",
                                      "--formula", f"<A1> P>=1/2 [ {path} ]"])
        value = region["region"].rsplit(" ", 2)[0]
        _require(ref.eval_rendered(value, point) == ref.probability(
            game, point, query), f"P at k={k}")
        times = []
        for kind in ("CAR", "CPR"):
            took, degree = _timed(cli, [
                "degree", "--model", m, "--kind", kind, "--agent", "A1",
                "--plan", "pi_bench", "--formula", path])
            _require(ref.eval_rendered(degree["value"], point) == ref.degree(
                game, point, kind, "A1", "pi_bench", query).value,
                f"{kind} at k={k}")
            times.append(took)
        den = ref.rendered_denominator(degree["value"]) or ""
        print(f"| {k} | {p_s:.3f} | {_terms(value)} | {times[0]:.3f} "
              f"| {times[1]:.3f} | {_terms(den) if den else '-'} "
              f"| {_rss_mb():.0f} |",
              flush=True)

    print("\n| horizon | ne payoff-only (ball) s "
          "| ne weighted (ball_rounds) s |")
    print("|---|---|---|")
    ball = str(run.ROOT / "models" / "ball.game")
    rounds = str(run.ROOT / "models" / "ball_rounds.game")
    for horizon in (2, 3, 4):
        pay_s, _ = _timed(cli, ["ne", "--model", ball, "--horizon",
                                   str(horizon), "--seed", "1"])
        weighted_s, _ = _timed(cli, [
            "ne", "--model", rounds, "--horizon", str(horizon),
            "--lambda1", "1", "--lambda2", "1", "--theta", "1",
            "--plan", "pi_mix", "--formula", "F<=2 (collision | dropped)",
            "--seed", "1"])
        print(f"| {horizon} | {pay_s:.3f} | {weighted_s:.3f} |", flush=True)

    print("\n| depth | simulate 200k s | paths/s |")
    print("|---|---|---|")
    for k in (2, 4, 6, 8):
        took, _ = _timed(cli, ["simulate", "--model", rounds, "--formula",
                                  f"F<={k} score1", "--bind", "x1=1/3",
                                  "--bind", "x2=2/5", "--samples", "200000",
                                  "--seed", "1"])
        print(f"| {k} | {took:.3f} | {200_000 / took:,.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of respgames through its command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The benchmark drives `respgames.cli.main(argv)` in-process with
`--output json`, as one client in a closed loop: the next request starts
when the previous one has returned.  A request is the workload's fixed list
of CLI invocations (see workloads.py); requests repeat until the next one
would end after `--seconds`.  Every request's payloads are checked against
reference.py.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics: set-up time (median of fresh
interpreters), median request latency, CLI invocations per second and peak
resident memory.  `--trace 1` alternates untraced and traced requests and
reports the per-layer metrics of tracer.py plus the tracing overhead.
`--smoke` runs one small request of every workload, untraced and traced,
with all checks, and exits 0 only if all pass.

The process re-executes itself once with PYTHONHASHSEED=0 and one BLAS
thread, so set iteration order, and with it the order of work, is the same
in every run, and numpy does not compete for the machine's cores.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7

FIXED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _fix_environment() -> None:
    if all(os.environ.get(k) == v for k, v in FIXED_ENV.items()):
        return
    env = dict(os.environ, **FIXED_ENV)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


# -- requests -----------------------------------------------------------------


def load_cli():
    """respgames' CLI module, from the checkout's sources."""
    sys.path.insert(0, str(ROOT / "src"))
    from respgames import cli
    return cli


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in-process: its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--output", "json"])
    return code, out.getvalue()


class Client:
    """Runs a request's invocations and checks their payloads."""

    def __init__(self, request: workloads.Request):
        self.cli = load_cli()
        self.request = request
        self._verdicts: dict[str, list[str]] = {}

    def send(self) -> list[tuple[int, str]]:
        """One request: every invocation, with its exit code and stdout."""
        return [invoke(self.cli, argv) for argv, _ in self.request.invocations]

    def problems(self, outputs) -> list[str]:
        """What is wrong with a request's outputs (empty when correct).

        Requests repeat, so each distinct output is checked once.
        """
        found = []
        payloads = []
        for (code, text), (argv, expected) in zip(outputs,
                                                  self.request.invocations):
            if code != expected:
                found.append(f"{argv[0]} exited {code}, expected {expected}")
            try:
                payloads.append(json.loads(text)["result"])
            except (ValueError, KeyError):
                found.append(f"{argv[0]} printed no JSON envelope")
        if found:
            return found
        key = json.dumps(payloads, sort_keys=True)
        if key not in self._verdicts:
            self._verdicts[key] = self.request.check(payloads)
        return self._verdicts[key]


def _prepare(name: str, seed: int, smoke: bool = False):
    out = OUT / f"{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return workloads.WORKLOADS[name].make(rng, ROOT, out, smoke)


def _setup_seconds(request: workloads.Request) -> float:
    """Median set-up time over fresh interpreters."""
    spec = json.dumps({"src": str(ROOT / "src"), "models": request.models,
                       "formulas": request.formulas})
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), spec],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _loop(seconds: float, step) -> None:
    """Call step() until the next call would end after `seconds`.

    step() returns the duration of the request it ran; at least three run.
    """
    started = time.perf_counter()
    durations = []
    while True:
        gc.collect()
        durations.append(step())
        elapsed = time.perf_counter() - started
        if (len(durations) >= 3
                and elapsed + statistics.median(durations) > seconds):
            return


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- end to end ---------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    request = _prepare(name, seed)
    setup_s = _setup_seconds(request)
    client = Client(request)
    warm = client.problems(client.send())
    latencies: list[float] = []
    failed = 0
    wrong = list(warm)

    def step():
        nonlocal failed
        start = time.perf_counter()
        outputs = client.send()
        took = time.perf_counter() - start
        latencies.append(took)
        problems = client.problems(outputs)
        failed += bool(problems)
        wrong.extend(problems)
        return took

    _loop(seconds, step)
    for problem in sorted(set(wrong)):
        print(f"problem: {problem}", file=sys.stderr)
    per_request = len(request.invocations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "correct": not wrong,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "latency_p50_s": _metric(statistics.median(latencies), "s"),
            "queries_per_s": _metric(per_request * len(latencies)
                                     / sum(latencies), "1/s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "setup_s": _metric(setup_s, "s"),
        },
    }


# -- per layer ----------------------------------------------------------------


# Self-time keys of tracer.py, reported as "<key>_s".
SELF_TIMES = [
    "polyarith.mul", "polyarith.add", "polyarith.eval", "polyarith.eval_float",
    "polyarith.substitute", "polyarith.derivative", "polyarith.normalize",
    "polyarith.render", "trace.enumerate", "trace.payoff", "trace.compat",
    "checker.check", "checker.prob", "checker.degree", "checker.search",
    "synth.find", "synth.utility_parts", "synth.build_system", "synth.solve",
    "synth.verify", "oracle.sample", "oracle.estimate", "model.load",
    "model.build", "model.admissible", "logic.parse", "cli.self",
    "bench.remainder", "tracing.self",
]
COUNTS = [
    "polyarith.mul_calls", "polyarith.mul_term_pairs", "polyarith.add_calls",
    "polyarith.peak_terms", "polyarith.eval_calls", "polyarith.eval_terms",
    "polyarith.eval_float_calls", "trace.histories", "trace.compat_members",
    "checker.witness_paths", "synth.utility_parts_calls",
    "synth.supports_tried", "synth.verify_calls", "oracle.paths_sampled",
]
RATIOS = {"polyarith.mul_ns_per_term_pair": "ns",
          "synth.verified_share": "ratio", "oracle.paths_per_s": "1/s"}
PER_LAYER = {**{f"{k}_s": "s" for k in SELF_TIMES},
             **{k: "count" for k in COUNTS}, **RATIOS}


def _ratio(a, b):
    return a / b if b else 0.0


def _unaccounted(tracer, took: float) -> list[str]:
    """A problem if a traced request's self times do not add up to it."""
    if tracer.residual > 1e-6 + 1e-6 * took:
        return [f"self times miss the request time by {tracer.residual}"]
    return []


def layer_values(self_s: dict, counts: dict) -> dict[str, float]:
    """One traced request's per-layer metrics (absent ones read 0)."""
    values = {f"{k}_s": self_s.get(k, 0.0) for k in SELF_TIMES}
    values.update({k: counts.get(k, 0) for k in COUNTS})
    values["polyarith.mul_ns_per_term_pair"] = _ratio(
        1e9 * values["polyarith.mul_s"], values["polyarith.mul_term_pairs"])
    values["synth.verified_share"] = _ratio(counts.get("synth.verified", 0),
                                            values["synth.verify_calls"])
    values["oracle.paths_per_s"] = _ratio(values["oracle.paths_sampled"],
                                          values["oracle.sample_s"])
    return values


def per_layer(name: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    request = _prepare(name, seed)
    client = Client(request)
    wrong = list(client.problems(client.send()))
    tracer = Tracer()
    tracer.install()
    plain: list[float] = []
    traced: list[float] = []
    layers: dict[str, list[float]] = {k: [] for k in PER_LAYER}
    residuals: list[float] = []
    failed = 0

    def step():
        nonlocal failed
        # An untraced request (the hooks are inert outside run_request),
        # then a traced one, so both see the same machine state.
        start = time.perf_counter()
        outputs = client.send()
        plain.append(time.perf_counter() - start)
        outputs_traced, took = tracer.run_request(len(traced), client.send)
        traced.append(took)
        for problems in (client.problems(outputs),
                         client.problems(outputs_traced)):
            failed += bool(problems)
            wrong.extend(problems)
        residuals.append(tracer.residual)
        wrong.extend(_unaccounted(tracer, took))
        for key, value in layer_values(tracer.self_s, tracer.counts).items():
            layers[key].append(value)
        return plain[-1] + took

    try:
        _loop(seconds, step)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as handle:
        json.dump({"spans": tracer.spans, "missing": tracer.missing}, handle)
    for problem in sorted(set(wrong)):
        print(f"problem: {problem}", file=sys.stderr)
    for hook in tracer.missing:
        print(f"note: hook target {hook} not found", file=sys.stderr)
    for counter in sorted(tracer.miscounted):
        print(f"note: counter {counter} does not fit its hook",
              file=sys.stderr)
    metrics = {key: _metric(statistics.median(layers[key]), unit)
               for key, unit in PER_LAYER.items()}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["tracing.overhead_s"] = _metric(overhead, "s")
    metrics["tracing.overhead_share"] = _metric(
        overhead / statistics.median(plain), "ratio")
    metrics["tracing.sum_residual_s"] = _metric(max(residuals), "s")
    return {"correct": not wrong, "attempted": 2 * len(traced),
            "failed": failed, "metrics": metrics}


# -- entry point --------------------------------------------------------------


def smoke() -> int:
    """One small request per workload, untraced and traced, all checks on."""
    from tracer import Tracer

    ok = True
    for name in workloads.WORKLOADS:
        request = _prepare(name, 1, smoke=True)
        client = Client(request)
        problems = client.problems(client.send())
        tracer = Tracer()
        tracer.install()
        try:
            outputs, took = tracer.run_request(0, client.send)
        finally:
            tracer.uninstall()
        problems += client.problems(outputs) + _unaccounted(tracer, took)
        problems += [f"hook target {h} not found" for h in tracer.missing]
        problems += [f"counter {c} does not fit its hook"
                     for c in sorted(tracer.miscounted)]
        print(f"{name}: {'ok' if not problems else 'FAILED'} "
              f"({took:.3f} s traced)")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "respgames").is_dir():
        print(f"error: no respgames sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _fix_environment()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run = per_layer if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: check, degree, ne, simulate, eval.

Machine interface is JSON on stdout (`--output json`): a stable envelope
with the subcommand, a digest of the whole query (model bytes, formula text
and every other argument except `--output`), the result
payload, warnings, and timing (timing is the only field allowed to differ
between identical runs).  Human mode prints the same facts as short lines.
Diagnostics go to stderr.

Exit codes: 0 success / true verdict / solutions produced; 1 false verdict
or no solutions; 2 usage, parse or missing-parameter errors; 3 resource,
admissibility and degenerate-query errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import polyarith, trace
from .checker import (QueryContext, car_degree, check_formula, cpr_degree,
                      degree_value_at, path_sat_prob)
from .errors import (DegenerateQueryError, FormulaError, InadmissibleError,
                     MissingParameterError, ModelError, NoSolutionError,
                     ResourceLimitError, RespgamesError,
                     UndefinedEstimateError, UnsupportedQueryError)
from .logic import DegreeKind, parse_formula, parse_path_formula
from .model import build_psmas, check_admissible, load_model
from .oracle import SimConfig, estimate_degree, estimate_path_prob
from .synth import ResponsibilitySpec, UtilityConfig, find_equilibria
from .trace import plan_from_model

USAGE_EXIT = 2
RESOURCE_EXIT = 3

_USAGE_ERRORS = (FormulaError, ModelError, MissingParameterError)
_RESOURCE_ERRORS = (ResourceLimitError, DegenerateQueryError,
                    UnsupportedQueryError, InadmissibleError,
                    UndefinedEstimateError, NoSolutionError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respgames",
        description="Responsibility-aware model checking and equilibrium "
                    "synthesis for parametric concurrent stochastic games.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, formula: bool = True):
        p.add_argument("--model", required=True, help="model file path")
        if formula:
            p.add_argument("--formula", help="formula text")
            p.add_argument("--formula-file", help="read formula from file")
        p.add_argument("--bind", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="bind a strategy parameter to an exact rational")
        p.add_argument("--state", help="query state (default: initial)")
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (falls back to RESPGAMES_SEED, then 0)")
        p.add_argument("--grid", type=int, default=None,
                       help="grid denominator for searches")
        p.add_argument("--limit-terms", type=int, default=None)
        p.add_argument("--limit-paths", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap (results are worker-count independent)")
        p.add_argument("--output", choices=("human", "json"),
                       default="human")

    p_check = sub.add_parser("check", help="decide a state formula")
    common(p_check)
    p_check.add_argument("--symbolic", action="store_true",
                         help="report the symbolic region instead of deciding")

    p_degree = sub.add_parser("degree", help="responsibility degree")
    common(p_degree)
    p_degree.add_argument("--kind", choices=("CAR", "CPR"), required=True)
    p_degree.add_argument("--agent", required=True)
    p_degree.add_argument("--plan", required=True,
                          help="plan name declared in the model file")
    p_degree.add_argument("--coalition",
                          help="comma-separated agents (default: all)")

    p_ne = sub.add_parser("ne", help="synthesize Nash equilibria")
    common(p_ne)
    p_ne.add_argument("--horizon", type=int, required=True)
    p_ne.add_argument("--lambda1", default="1")
    p_ne.add_argument("--lambda2", default="0")
    p_ne.add_argument("--theta", default="1")
    p_ne.add_argument("--plan", help="responsibility outcome plan name")
    p_ne.add_argument("--seeds", type=int, default=24,
                      help="Newton starts per support")
    p_ne.add_argument("--epsilon", default="1e-6")
    p_ne.add_argument("--residual", default="1e-9")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimation")
    common(p_sim)
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--kind", choices=("CAR", "CPR"),
                       help="estimate a degree instead of a probability")
    p_sim.add_argument("--agent")
    p_sim.add_argument("--plan")
    p_sim.add_argument("--coalition")
    p_sim.add_argument("--horizon", type=int, default=None,
                       help="sample depth (default: formula horizon)")

    p_eval = sub.add_parser(
        "eval", help="evaluate a symbolic quantity at exact bindings")
    common(p_eval)
    p_eval.add_argument("--kind", choices=("CAR", "CPR"))
    p_eval.add_argument("--agent")
    p_eval.add_argument("--plan")
    p_eval.add_argument("--coalition")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    started = time.time()
    warnings: list[str] = []
    try:
        _apply_limits(args)
        code, result = _dispatch(args, warnings)
    except OSError as exc:
        return _finish_error(args, f"cannot read input: {exc}", USAGE_EXIT,
                             started)
    except _USAGE_ERRORS as exc:
        return _finish_error(args, str(exc), USAGE_EXIT, started)
    except _RESOURCE_ERRORS as exc:
        return _finish_error(args, str(exc), RESOURCE_EXIT, started)
    except RespgamesError as exc:
        return _finish_error(args, str(exc), RESOURCE_EXIT, started)
    envelope = _envelope(args, result, warnings, started)
    _emit(args, envelope)
    return code


def run(argv=None) -> int:  # console entry point
    return main(argv)


def _apply_limits(args) -> None:
    if getattr(args, "limit_terms", None):
        polyarith.set_term_limit(args.limit_terms)
    if getattr(args, "limit_paths", None):
        trace.set_path_limit(args.limit_paths)
    if getattr(args, "threads", 1) < 1:
        raise UnsupportedQueryError("--threads must be at least 1")
    if getattr(args, "grid", None) is not None and args.grid < 1:
        raise UnsupportedQueryError("--grid must be at least 1")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RESPGAMES_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise FormulaError(f"RESPGAMES_SEED must be an integer, got '{env}'")


def _load(args):
    return build_psmas(load_model(args.model))


def _formula_text(args) -> str | None:
    if getattr(args, "formula", None) and getattr(args, "formula_file", None):
        raise FormulaError("give --formula or --formula-file, not both")
    if getattr(args, "formula", None):
        return args.formula
    if getattr(args, "formula_file", None):
        with open(args.formula_file, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    return None


def _bindings(args, m) -> dict:
    out = {}
    for item in args.bind:
        if "=" not in item:
            raise FormulaError(f"--bind expects NAME=VALUE, got '{item}'")
        name, value_text = item.split("=", 1)
        name = name.strip()
        pid = m.param_table.get(name)
        if pid is None:
            raise FormulaError(f"unknown parameter '{name}'")
        try:
            out[pid] = Fraction(value_text.strip())
        except (ValueError, ZeroDivisionError):
            raise FormulaError(f"bad rational '{value_text}' for {name}")
    return out


def _coalition(args, m):
    text = getattr(args, "coalition", None)
    if not text:
        return frozenset(m.base.agents)
    members = frozenset(a.strip() for a in text.split(","))
    unknown = members - set(m.base.agents)
    if unknown:
        raise FormulaError(f"unknown agent '{sorted(unknown)[0]}'")
    return members


def _state(args, m) -> str:
    state = getattr(args, "state", None) or m.base.initial
    if state not in m.base.states:
        raise FormulaError(f"unknown state '{state}'")
    return state


def _require_admissible(m, binds) -> None:
    report = check_admissible(m, binds)
    if not report.ok:
        raise InadmissibleError(report)


def _dispatch(args, warnings) -> tuple[int, dict]:
    handler = {
        "check": _cmd_check,
        "degree": _cmd_degree,
        "ne": _cmd_ne,
        "simulate": _cmd_simulate,
        "eval": _cmd_eval,
    }[args.subcommand]
    return handler(args, warnings)


def _cmd_check(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    text = _formula_text(args)
    if text is None:
        raise FormulaError("check needs --formula or --formula-file")
    phi = parse_formula(text, m, source=args.formula_file or "<formula>")
    state = _state(args, m)
    binds = _bindings(args, m)
    if args.symbolic:
        result = check_formula(m, state, phi, QueryContext.symbolic())
        if result.region is not None:
            return 0, {"verdict": None, "region": result.region.render()}
        return (0 if result.holds else 1), {"verdict": result.holds}
    grid = args.grid if args.grid is not None else 50
    ctx = QueryContext.evaluated(binds, grid_denominator=grid)
    result = check_formula(m, state, phi, ctx)
    warnings.extend(result.warnings)
    payload = {"verdict": result.holds}
    if result.witness is not None:
        payload["witness"] = {p.name: _frac_str(v)
                              for p, v in sorted(result.witness.items(),
                                                 key=lambda kv: kv[0].order_key)}
    return (0 if result.holds else 1), payload


def _degree_query(args, m):
    text = _formula_text(args)
    if text is None:
        raise FormulaError("a path formula is required (--formula)")
    psi = parse_path_formula(text, m, source=args.formula_file or "<formula>")
    plan = plan_from_model(m, args.plan)
    coalition = _coalition(args, m)
    kind = DegreeKind(args.kind)
    fn = car_degree if kind is DegreeKind.CAR else cpr_degree
    return psi, plan, coalition, kind, fn


def _cmd_degree(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    psi, plan, coalition, kind, fn = _degree_query(args, m)
    state = _state(args, m)
    binds = _bindings(args, m)
    ctx = QueryContext.evaluated(binds) if binds else QueryContext.symbolic()
    result = fn(m, state, args.agent, plan, psi, coalition, ctx)
    payload = {
        "value": result.value.render(),
        "kappa": result.kappa,
        "mode": ctx.mode,
        "numerator_paths": result.numerator_paths,
        "denominator_paths": result.denominator_paths,
    }
    if not result.kappa:
        warnings.append("kappa is 0: the degree is 0 by definition")
    if binds:
        _require_admissible(m, binds)
        value = degree_value_at(result, m.derived_valuation(binds))
        if result.kappa and result.value.den.evaluate(binds) == 0:
            warnings.append("denominator mass is zero at this valuation; "
                            "degree is 0 by convention")
        payload["exact"] = _frac_str(value)
        payload["decimal"] = float(value)
    return 0, payload


def _cmd_ne(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    cfg = UtilityConfig(Fraction(args.lambda1), Fraction(args.lambda2),
                        Fraction(args.theta))
    resp_spec = None
    text = _formula_text(args)
    if cfg.lambda2 != 0 or (text and args.plan):
        if not (text and args.plan):
            raise FormulaError(
                "responsibility-weighted utilities need --plan and --formula")
        resp_spec = ResponsibilitySpec(plan_from_model(m, args.plan),
                                       parse_path_formula(text, m))
    state = _state(args, m)
    solutions = find_equilibria(
        m, args.horizon, cfg, resp_spec, state=state,
        seeds=args.seeds, seed=_seed(args),
        residual_tol=float(args.residual), epsilon=float(args.epsilon))
    payload = {"solutions": [
        {
            "params": sol.as_floats(),
            "residual": sol.residual,
            "gap": sol.epsilon,
            "support": {f"{scope[0]}" + (f"@{scope[1]}" if scope[1] else ""):
                        list(actions)
                        for scope, actions in sorted(sol.support.items())},
        }
        for sol in solutions
    ]}
    if not solutions:
        warnings.append("no equilibrium passed verification")
    return (0 if solutions else 1), payload


def _cmd_simulate(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    binds = _bindings(args, m)
    _require_admissible(m, binds)
    text = _formula_text(args)
    if text is None:
        raise FormulaError("simulate needs a path formula (--formula)")
    psi = parse_path_formula(text, m)
    from .logic import horizon as horizon_of
    depth = args.horizon if args.horizon is not None else horizon_of(psi)
    cfg = SimConfig(samples=args.samples, seed=_seed(args), horizon=depth,
                    valuation=binds, start=_state(args, m))
    if args.kind:
        if not (args.agent and args.plan):
            raise FormulaError("degree estimation needs --agent and --plan")
        est = estimate_degree(m, cfg, args.agent, plan_from_model(m, args.plan),
                              psi, DegreeKind(args.kind), _coalition(args, m))
    else:
        est = estimate_path_prob(m, cfg, psi)
    return 0, {"estimate": est.mean, "stderr": est.stderr,
               "samples": est.samples}


def _cmd_eval(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    binds = _bindings(args, m)
    state = _state(args, m)
    text = _formula_text(args)
    if text is None:
        raise FormulaError("eval needs --formula")
    for p in m.params:
        if p not in binds:
            raise MissingParameterError(p)
    _require_admissible(m, binds)
    if args.kind:
        if not (args.agent and args.plan):
            raise FormulaError("degree evaluation needs --agent and --plan")
        psi = parse_path_formula(text, m)
        fn = car_degree if DegreeKind(args.kind) is DegreeKind.CAR else cpr_degree
        result = fn(m, state, args.agent, plan_from_model(m, args.plan), psi,
                    _coalition(args, m), QueryContext.evaluated(binds))
        value = degree_value_at(result, binds)
        symbolic = result.value.render()
    else:
        try:
            psi = parse_path_formula(text, m)
        except FormulaError:
            phi = parse_formula(text, m)
            result = check_formula(m, state, phi,
                                   QueryContext.evaluated(binds))
            warnings.extend(result.warnings)
            return (0 if result.holds else 1), {"verdict": result.holds}
        rf = path_sat_prob(m, state, psi, QueryContext.evaluated(binds))
        value = rf.evaluate(binds)
        symbolic = rf.render()
    return 0, {"symbolic": symbolic, "value": _frac_str(value),
               "decimal": float(value),
               "rendered": f"{_frac_str(value)} ({float(value):g})"}


# -- envelope ---------------------------------------------------------------


def _frac_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# Arguments whose content the digest hashes in their place, or that only
# change how the result is printed.
_NOT_QUERY = ("model", "formula", "formula_file", "output")


def _digest(args) -> str:
    """Hash of the canonical query: model bytes, formula text and every
    other parsed argument, with the seed as it will be used."""
    sha = hashlib.sha256()
    try:
        with open(args.model, "rb") as handle:
            sha.update(handle.read())
    except (OSError, AttributeError):
        pass
    sha.update(b"\x00")
    text = None
    try:
        text = _formula_text(args)
    except (RespgamesError, OSError):
        pass
    if text:
        sha.update(text.encode("utf-8"))
    sha.update(b"\x00")
    query = {key: value for key, value in sorted(vars(args).items())
             if key not in _NOT_QUERY}
    if query.get("seed") is None:
        query["seed"] = os.environ.get("RESPGAMES_SEED")
    sha.update(json.dumps(query, sort_keys=True).encode("utf-8"))
    return f"sha256:{sha.hexdigest()}"


def _envelope(args, result: dict, warnings: list[str], started: float) -> dict:
    return {
        "subcommand": args.subcommand,
        "digest": _digest(args),
        "result": result,
        "warnings": warnings,
        "timing": {"seconds": round(time.time() - started, 6)},
    }


def _emit(args, envelope: dict) -> None:
    if getattr(args, "output", "human") == "json":
        json.dump(envelope, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return
    result = envelope["result"]
    for key in sorted(result):
        print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    for note in envelope["warnings"]:
        print(f"note: {note}")


def _finish_error(args, message: str, code: int, started: float) -> int:
    print(f"error: {message}", file=sys.stderr)
    if getattr(args, "output", "human") == "json":
        envelope = _envelope(args, {"error": message}, [], started)
        json.dump(envelope, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

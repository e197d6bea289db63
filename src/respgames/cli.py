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
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from .checker import (QueryContext, check_formula, degree_at, path_sat_prob,
                      responsibility_degree)
from .errors import (FormulaError, MissingParameterError, ModelError,
                     RespgamesError, UnsupportedQueryError, UsageError)
from .logic import DegreeKind, parse_formula, parse_path_formula
from .model import build_psmas, load_model, require_admissible
from .oracle import SimConfig, estimate_degree, estimate_path_prob
from .synth import ResponsibilitySpec, UtilityConfig, find_equilibria
from .trace import plan_from_model

USAGE_EXIT = 2
RESOURCE_EXIT = 3

_USAGE_ERRORS = (FormulaError, ModelError, MissingParameterError,
                 UsageError)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational '{text}'")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number '{text}'")
    if not 0 <= value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(
            f"tolerance '{text}' is not a finite number >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="respgames",
        description="Responsibility-aware model checking and equilibrium "
                    "synthesis for parametric concurrent stochastic games.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, bind: bool = True,
               seed: bool = False):
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--formula", help="formula text")
        p.add_argument("--formula-file", help="read formula from file")
        if bind:
            p.add_argument("--bind", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="bind a strategy parameter to an exact "
                                "rational")
        p.add_argument("--state", help="query state (default: initial)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        p.add_argument("--output", choices=("human", "json"),
                       default="human")

    def degree_query(p: argparse.ArgumentParser, required: bool):
        """The flags that `_degree_query` reads."""
        p.add_argument("--kind", choices=("CAR", "CPR"), required=required,
                       help="responsibility degree to compute")
        p.add_argument("--agent", required=required)
        p.add_argument("--plan", required=required,
                       help="plan name declared in the model file")
        p.add_argument("--coalition",
                       help="comma-separated agents (default: all)")

    p_check = sub.add_parser("check", help="decide a state formula")
    common(p_check)
    p_check.add_argument("--symbolic", action="store_true",
                         help="report the symbolic region instead of deciding")
    p_check.add_argument("--grid", type=int, default=None,
                         help="grid denominator for coalition searches")

    p_degree = sub.add_parser("degree", help="responsibility degree")
    common(p_degree)
    degree_query(p_degree, required=True)

    p_ne = sub.add_parser("ne", help="synthesize Nash equilibria")
    common(p_ne, bind=False, seed=True)
    p_ne.add_argument("--horizon", type=int, required=True)
    p_ne.add_argument("--lambda1", type=_rational, default="1")
    p_ne.add_argument("--lambda2", type=_rational, default="0")
    p_ne.add_argument("--theta", type=_rational,
                      help="CPR weight against CAR (default 1)")
    p_ne.add_argument("--plan", help="responsibility outcome plan name")
    p_ne.add_argument("--seeds", type=int, default=24,
                      help="Newton starts per support")
    p_ne.add_argument("--epsilon", type=_tolerance, default="1e-6")
    p_ne.add_argument("--residual", type=_tolerance, default="1e-9")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimation")
    common(p_sim, seed=True)
    p_sim.add_argument("--samples", type=int, default=100_000)
    degree_query(p_sim, required=False)

    p_eval = sub.add_parser(
        "eval", help="evaluate a symbolic quantity at exact bindings")
    common(p_eval)
    degree_query(p_eval, required=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call shares: building it costs more than
    most queries, and parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        unread = _unread_flag(args)
        if unread:
            parser.error(unread)
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
    except RespgamesError as exc:
        return _finish_error(args, str(exc), RESOURCE_EXIT, started)
    envelope = _envelope(args, result, warnings, started)
    _emit(args, envelope)
    return code


def _unread_flag(args) -> str | None:
    """Why the first given flag that the rest of the query leaves unread
    is refused, or None."""
    if args.subcommand == "check" and args.symbolic:
        names, context = ("bind", "grid"), "with --symbolic"
    elif args.subcommand == "ne" and args.lambda2 == 0:
        names = ("plan", "formula", "formula_file", "theta")
        context = "with --lambda2 0"
    elif args.subcommand in ("eval", "simulate") and args.kind is None:
        names, context = ("agent", "plan", "coalition"), "without --kind"
    else:
        return None
    for name in names:
        if getattr(args, name) not in (None, []):
            return f"--{name.replace('_', '-')} is not read {context}"
    return None


# the least value of each size flag; a smaller one exits 3 before any work
_SIZE_FLAGS = {"grid": 1, "samples": 1, "seeds": 1, "horizon": 0,
               "seed": 0}


def _apply_limits(args) -> None:
    for name, least in _SIZE_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise UnsupportedQueryError(f"{flag} must be at least {least}")


def _load(args):
    """The query's model.  The file's bytes stay on `args` for the
    digest, so an invocation reads the file once."""
    with open(args.model, "rb", buffering=0) as handle:
        args.model_bytes = handle.read()
    return build_psmas(load_model(args.model, args.model_bytes))


def _formula_text(args) -> str | None:
    if args.formula and args.formula_file:
        raise UsageError("give --formula or --formula-file, not both")
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as handle:
            try:
                # a leading byte-order mark is dropped, as in load_model
                return handle.read().removeprefix("\ufeff").strip()
            except UnicodeDecodeError as exc:
                raise UsageError(
                    f"{args.formula_file} is not UTF-8 text: {exc}") from None
    return args.formula or None


def _formula(args, m, path: bool):
    """The query's formula, read from --formula or --formula-file and
    parsed as a path formula or a state formula; errors name its source."""
    text = _formula_text(args)
    if text is None:
        raise UsageError(
            f"{args.subcommand} needs --formula or --formula-file")
    parse = parse_path_formula if path else parse_formula
    return parse(text, m, source=args.formula_file or "<formula>")


def _bindings(args, m) -> dict:
    out = {}
    for item in args.bind:
        if "=" not in item:
            raise UsageError(f"--bind expects NAME=VALUE, got '{item}'")
        name, value_text = item.split("=", 1)
        name = name.strip()
        pid = m.param_table.get(name)
        if pid is None:
            raise UsageError(f"unknown parameter '{name}'")
        try:
            out[pid] = Fraction(value_text.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad rational '{value_text}' for {name}")
    return out


def _coalition(args, m):
    if not args.coalition:
        return frozenset(m.base.agents)
    members = frozenset(a.strip() for a in args.coalition.split(","))
    unknown = members - set(m.base.agents)
    if unknown:
        raise UsageError(f"unknown agent '{sorted(unknown)[0]}'")
    return members


def _state(args, m) -> str:
    state = args.state or m.base.initial
    if state not in m.base.states:
        raise UsageError(f"unknown state '{state}'")
    return state


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
    phi = _formula(args, m, path=False)
    state = _state(args, m)
    if args.symbolic:
        result = check_formula(m, state, phi, QueryContext.symbolic())
        if result.region is not None:
            return 0, {"verdict": None, "region": result.region.render()}
        return (0 if result.holds else 1), {"verdict": result.holds}
    ctx = QueryContext.evaluated(_bindings(args, m), args.grid)
    result = check_formula(m, state, phi, ctx)
    warnings.extend(result.warnings)
    payload = {"verdict": result.holds}
    if result.witness is not None:
        payload["witness"] = {p.name: str(v)
                              for p, v in sorted(result.witness.items(),
                                                 key=lambda kv: kv[0].order_key)}
    return (0 if result.holds else 1), payload


def _degree_query(args, m):
    """(plan, coalition, kind) of the degree that --kind, --agent, --plan
    and --coalition ask for; None without --kind."""
    if args.kind is None:
        return None
    if not (args.agent and args.plan):
        raise UsageError("--kind needs --agent and --plan")
    return (plan_from_model(m, args.plan), _coalition(args, m),
            DegreeKind(args.kind))


def _cmd_degree(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    psi = _formula(args, m, path=True)
    plan, coalition, kind = _degree_query(args, m)
    state = _state(args, m)
    binds = _bindings(args, m)
    ctx = QueryContext.evaluated(binds) if binds else QueryContext.symbolic()
    result = responsibility_degree(m, state, args.agent, plan, psi, kind,
                                   coalition, ctx)
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
        require_admissible(m, binds, m.bound_scopes(binds))
        value, notes = degree_at(result, binds)
        warnings.extend(notes)
        payload["exact"] = str(value)
        payload["decimal"] = float(value)
    return 0, payload


def _cmd_ne(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    theta = Fraction(1) if args.theta is None else args.theta
    cfg = UtilityConfig(args.lambda1, args.lambda2, theta)
    resp_spec = None
    if cfg.lambda2 != 0:
        if not args.plan:
            raise UsageError(
                "responsibility-weighted utilities need --plan and --formula")
        resp_spec = ResponsibilitySpec(plan_from_model(m, args.plan),
                                       _formula(args, m, path=True))
    state = _state(args, m)
    solutions = find_equilibria(
        m, args.horizon, cfg, resp_spec, state=state,
        seeds=args.seeds, seed=args.seed, residual_tol=args.residual,
        epsilon=args.epsilon)
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
    psi = _formula(args, m, path=True)
    query = _degree_query(args, m)
    cfg = SimConfig(samples=args.samples, seed=args.seed, valuation=binds,
                    start=_state(args, m))
    if query is None:
        est = estimate_path_prob(m, cfg, psi)
    else:
        plan, coalition, kind = query
        est = estimate_degree(m, cfg, args.agent, plan, psi, kind, coalition)
    return 0, {"estimate": est.mean, "stderr": est.stderr,
               "samples": est.samples}


def _cmd_eval(args, warnings) -> tuple[int, dict]:
    m = _load(args)
    binds = _bindings(args, m)
    state = _state(args, m)
    psi = _formula(args, m, path=True)
    require_admissible(m, binds)  # every parameter bound, admissibly
    query = _degree_query(args, m)
    ctx = QueryContext.evaluated(binds)
    if query is not None:
        plan, coalition, kind = query
        result = responsibility_degree(m, state, args.agent, plan, psi, kind,
                                       coalition, ctx)
        value, notes = degree_at(result, binds)
        warnings.extend(notes)
        symbolic = result.value.render()
    else:
        rf = path_sat_prob(m, state, psi, ctx)
        value = rf.evaluate(binds)
        symbolic = rf.render()
    return 0, {"symbolic": symbolic, "value": str(value),
               "decimal": float(value),
               "rendered": f"{value} ({float(value):g})"}


# -- envelope ---------------------------------------------------------------


# Arguments whose content the digest hashes in their place, or that only
# change how the result is printed.
_NOT_QUERY = ("model", "model_bytes", "formula", "formula_file", "output")


def _digest(args) -> str:
    """Hash of the canonical query: model bytes, formula text and every
    other parsed argument (exact rationals as their canonical text).  The
    model bytes are the ones `_load` parsed, or read here when the query
    ended before loading its model."""
    sha = hashlib.sha256()
    data = getattr(args, "model_bytes", None)
    if data is None:
        try:
            with open(args.model, "rb") as handle:
                data = handle.read()
        except (OSError, AttributeError):
            data = b""
    sha.update(data)
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
    sha.update(json.dumps(query, sort_keys=True, default=str)
               .encode("utf-8"))
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

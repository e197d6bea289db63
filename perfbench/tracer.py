"""Spans and counters around respgames' public functions, from outside.

`Tracer.install()` replaces each hooked function or method with a wrapper
in every respgames module that bound it (modules import names with `from
... import`, so patching only the defining module would miss callers) and
`uninstall()` puts the originals back.  No file under src/ is touched.

Every wrapper keeps a frame on a stack, so a call's self time is its
duration minus the time its wrapped callees took.  Two kinds of hook:

- layer hooks (model loading, formula parsing, checker operators, trace
  enumeration, the equilibrium pipeline, the sampler, the CLI entry point)
  also append a span record (name, start, end, parent, request id) to an
  in-memory list that is written out when the run ends;
- kernel hooks (polynomial operations, `History.extend`, the sampler's
  blocks) run up to millions of times per request, so they only add to
  per-name self times and counters.

The wrapper's own bookkeeping is timed as well and booked to `tracing`, not
to the caller, so a request's time is exactly the sum of the self times of
its hooks, the tracing bookkeeping and the unwrapped remainder.  A hook whose
target no longer exists is skipped and listed in `missing`; a counter that
no longer fits its target's arguments or result is listed in `miscounted`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from typing import Callable

now = time.perf_counter


def _nterms(p) -> int:
    terms = getattr(p, "terms", None)
    return len(terms()) if callable(terms) else 1


def _mul_counts(args, result):
    return {"polyarith.mul_calls": 1,
            "polyarith.mul_term_pairs": _nterms(args[0]) * _nterms(args[1]),
            "polyarith.peak_terms": ("max", _nterms(result))}


def _add_counts(args, result):
    return {"polyarith.add_calls": 1,
            "polyarith.peak_terms": ("max", _nterms(result))}


# (module, attribute path, self-time key, layer hook?, counter).  A counter
# maps (args, result) to counts to add, or to ("max", n) for a peak.  Keys
# and count names are the per-layer metric names (a key K reports as K_s).
HOOKS: list[tuple[str, str, str | None, bool, Callable | None]] = [
    ("respgames.cli", "main", "cli.self", True, None),
    ("respgames.model", "load_model", "model.load", True, None),
    ("respgames.model", "build_psmas", "model.build", True, None),
    ("respgames.model", "check_admissible", "model.admissible", True, None),
    ("respgames.logic", "parse_formula", "logic.parse", True, None),
    ("respgames.logic", "parse_path_formula", "logic.parse", True, None),
    ("respgames.checker", "check_formula", "checker.check", True, None),
    ("respgames.checker", "path_sat_prob", "checker.prob", True, None),
    ("respgames.checker", "car_degree", "checker.degree", True, None),
    ("respgames.checker", "cpr_degree", "checker.degree", True, None),
    ("respgames.checker", "_exists_search", "checker.search", True, None),
    ("respgames.trace", "enumerate_histories", "trace.enumerate", True, None),
    ("respgames.trace", "plan_histories", "trace.enumerate", True, None),
    ("respgames.trace", "compatible_plans", "trace.compat", True,
     lambda a, r: {"trace.compat_members": len(r.members)}),
    ("respgames.synth", "find_equilibria", "synth.find", True, None),
    ("respgames.synth", "utility_parts", "synth.utility_parts", True,
     lambda a, r: {"synth.utility_parts_calls": 1}),
    ("respgames.synth", "build_ne_system", "synth.build_system", True,
     lambda a, r: {"synth.supports_tried": 1}),
    ("respgames.synth", "solve_ne", "synth.solve", True, None),
    ("respgames.synth", "verify_ne", "synth.verify", True,
     lambda a, r: {"synth.verify_calls": 1,
                   "synth.verified": int(bool(r[0]))}),
    ("respgames.oracle", "estimate_path_prob", "oracle.estimate", True, None),
    ("respgames.oracle", "estimate_degree", "oracle.estimate", True, None),
    # kernel hooks
    ("respgames.polyarith", "Polynomial.__mul__", "polyarith.mul", False,
     _mul_counts),
    ("respgames.polyarith", "Polynomial.__rmul__", "polyarith.mul", False,
     _mul_counts),
    ("respgames.polyarith", "Polynomial.__add__", "polyarith.add", False,
     _add_counts),
    ("respgames.polyarith", "Polynomial.__radd__", "polyarith.add", False,
     _add_counts),
    ("respgames.polyarith", "Polynomial.evaluate", "polyarith.eval", False,
     lambda a, r: {"polyarith.eval_calls": 1,
                   "polyarith.eval_terms": _nterms(a[0])}),
    ("respgames.polyarith", "Polynomial.evaluate_float",
     "polyarith.eval_float", False,
     lambda a, r: {"polyarith.eval_float_calls": 1}),
    ("respgames.polyarith", "Polynomial.substitute", "polyarith.substitute",
     False, None),
    ("respgames.polyarith", "Polynomial.derivative", "polyarith.derivative",
     False, None),
    ("respgames.polyarith", "RationalFunction.__init__",
     "polyarith.normalize", False, None),
    ("respgames.polyarith", "Polynomial.render", "polyarith.render", False,
     None),
    ("respgames.polyarith", "RationalFunction.render", "polyarith.render",
     False, None),
    ("respgames.trace", "History.extend", "trace.enumerate", False,
     lambda a, r: {"trace.histories": 1}),
    ("respgames.trace", "payoff", "trace.payoff", False, None),
    ("respgames.oracle", "_Sampler.sample_block", "oracle.sample", False,
     lambda a, r: {"oracle.paths_sampled": a[2]}),
    # witnesses are counted, their loop stays in the calling checker span
    ("respgames.checker", "_witnesses", None, False,
     lambda a, r: {"checker.witness_paths": len(r[0]) + len(r[1])}),
]


class Tracer:
    """Per-request self times and counters, plus a run-long span list."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.miscounted: set[str] = set()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # frames: [time covered by wrapped callees, id of the enclosing span]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self.request_id = -1
        self.residual = 0.0

    # -- requests -----------------------------------------------------------

    def run_request(self, request_id: int, body: Callable[[], object]):
        """Run `body` as one traced request; returns (result, seconds).

        Self times and counters start from zero for every request;
        `residual` is how far their sum misses the request's duration.
        """
        self.request_id = request_id
        self.self_s.clear()
        self.counts.clear()
        span_id = next(self._ids)
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = now()
        try:
            result = body()
        finally:
            end = now()
            self._stack.pop()
        self.self_s["bench.remainder"] += (end - start) - frame[0]
        # every moment of the request is booked to exactly one key
        self.residual = abs(sum(self.self_s.values()) - (end - start))
        self.spans.append((span_id, "request", start, end, None, request_id))
        return result, end - start

    # -- hooks --------------------------------------------------------------

    def install(self) -> None:
        for module_name, path, key, layer, counter in HOOKS:
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            original = getattr(target, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = (self._wrap(original, key, layer, counter) if key
                       else self._wrap_counter(original, counter))
            if owner:
                self._patch(target, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "respgames":
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, fn, counter, args, result) -> None:
        table = self.counts
        try:
            counted = counter(args, result)
        except (TypeError, IndexError, AttributeError):
            # the hooked function changed its arguments or result
            self.miscounted.add(f"{fn.__module__}.{fn.__qualname__}")
            return
        for name, value in counted.items():
            if isinstance(value, tuple):  # ("max", n)
                table[name] = max(table[name], value[1])
            else:
                table[name] += value

    def _wrap(self, fn, key, layer, counter):
        stack, self_s, spans, ids = (self._stack, self.self_s, self.spans,
                                     self._ids)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a traced request
                return fn(*args, **kwargs)
            entered = now()
            parent = stack[-1]
            span_id = next(ids) if layer else parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = now()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = now()
                stack.pop()
                self_s[key] += (end - start) - frame[0]
                if done and counter is not None:
                    self._count(fn, counter, args, result)
                if layer:
                    spans.append((span_id, key, start, end, parent[1],
                                  self.request_id))
                left = now()
                parent[0] += left - entered
                self_s["tracing.self"] += ((left - entered)
                                           - (end - start))
            return result

        return wrapper

    def _wrap_counter(self, fn, counter):
        """Count a call's outcome; its time stays with the caller."""
        stack, self_s = self._stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                counted = now()
                self._count(fn, counter, args, result)
                left = now()
                stack[-1][0] += left - counted
                self_s["tracing.self"] += left - counted
            return result

        return wrapper

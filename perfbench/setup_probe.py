"""Time to be ready for the first request, measured in a fresh interpreter.

Usage: python3 setup_probe.py '<json spec>' where the spec names the source
directory, the model files to load and build, and the formulas to parse as
[model, text, "state" | "path"].  Prints the seconds from just before
`import respgames` (which imports numpy) to the last parsed formula.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import respgames  # noqa: E402,F401
from respgames.logic import parse_formula, parse_path_formula  # noqa: E402
from respgames.model import build_psmas, load_model  # noqa: E402

models = {path: build_psmas(load_model(path)) for path in spec["models"]}
for path, text, kind in spec["formulas"]:
    parse = parse_formula if kind == "state" else parse_path_formula
    parse(text, models[path])
print(time.perf_counter() - start)

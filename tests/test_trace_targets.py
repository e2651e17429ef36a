"""The benchmark's span tracer still finds every function it wraps.

``benchmarks/spantrace.py`` wraps library functions named by (module,
attribute path) in its ``TARGETS``.  The file is only read here, so a
refactor that moves, renames or re-wraps a traced function fails these
tests, not only the benchmark.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import gradedrings

SPANTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "spantrace.py"


def load_targets():
    # executed from its source text, so no bytecode is written beside it
    module = types.ModuleType("spantrace")
    code = compile(SPANTRACE.read_text(encoding="utf-8"), str(SPANTRACE), "exec")
    exec(code, module.__dict__)
    return module.TARGETS


TARGETS = load_targets()
MODULES = [gradedrings] + [
    importlib.import_module(f"gradedrings.{info.name}")
    for info in pkgutil.iter_modules(gradedrings.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(f"gradedrings.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer reads the attribute from the owner itself, not a base class
    target = vars(owner).get(attr)
    assert callable(target), f"{module_name}.{path} is not defined where the tracer looks"
    if not classes:
        # a plain function is rebound by identity in every module holding it,
        # so no module may hold a different object under the same name
        for module in MODULES:
            held = vars(module).get(attr)
            assert held is None or held is target, f"{module.__name__}.{attr} is another object"

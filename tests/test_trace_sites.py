"""perfbench's layer tracer wraps functions where their callers look them up.

``perfbench/tracing.py`` names each traced function together with the
modules (or classes) that bind it. A refactor that drops such a binding, or
binds a different object at one site, leaves the program working but breaks
traced runs; this test catches it without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _sites() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_function_resolves_to_one_object_at_all_its_sites():
    sites = _sites()
    assert sites
    problems = []
    for name, lookups in sites.items():
        attr = name.rsplit(".", 1)[1]
        found = []
        for site in lookups:
            module_name, _, class_name = site.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            target = getattr(owner, attr, None)
            if owner is None or not callable(target):
                problems.append(f"{name}: nothing callable at {site}")
            else:
                found.append(target)
        if any(f is not found[0] for f in found[1:]):
            problems.append(f"{name}: different objects at {lookups}")
    assert not problems

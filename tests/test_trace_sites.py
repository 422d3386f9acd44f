"""perfbench's layer tracer wraps functions where their callers look them up.

``perfbench/tracing.py`` names each traced function together with the
modules (or classes) that bind it. A refactor that drops such a binding, or
binds a different object at one site, leaves the program working but breaks
traced runs; these tests catch it without running the benchmark.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import quadkit

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


# Installs the tracer in a fresh interpreter (it rebinds module attributes for
# good), then collects one episode and evaluates a kNN policy fitted on it.
TRACED_RUN = """
import json
from collections import Counter
from tracing import Tracer
tracer = Tracer()
tracer.install()
from quadkit.evaluation import build_suite, harness, policies
from quadkit.expert import collect
suite = build_suite("traced", {"go_to": 2, "distinguish": 1}, 3)
episode = collect.generate_episode(suite.entries[0].task, suite.entries[0].seed)
harness.run_suite(policies.knn_bc_policy([episode]), suite)
print(json.dumps({"steps": len(episode.steps), **Counter(span[0] for span in tracer.spans)}))
"""


def test_the_tracer_sees_every_render_and_codec_call_of_the_rollout_loop():
    path = os.pathsep.join([str(Path(quadkit.__file__).resolve().parents[1]),
                            str(TRACING.parent)])
    out = subprocess.run([sys.executable, "-c", TRACED_RUN], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300, check=True)
    counts = json.loads(out.stdout)
    assert counts["steps"] > 0 and counts["evaluation.KnnPolicy.act"] > 0
    assert counts["world.render_observation"] == counts["steps"] + counts["evaluation.KnnPolicy.act"]
    assert counts["actions.tokenize"] == counts["steps"]
    assert counts.get("actions.detokenize", 0) > 0

"""Span tracing of quadkit's layers, installed from outside the package.

``Tracer.install`` replaces each traced function at the place its caller
looks it up (a module attribute bound by ``from ... import``, or a method on
its class) with a wrapper that records one span per call. Spans stay in
memory as tuples and are written when the run ends. This module imports only
the standard library, so a worker can start its set-up clock before quadkit
is imported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# metric name -> the lookup sites it is wrapped at ("module" or "module:Class").
# The attribute wrapped is the last component of the metric name.
SITES: dict[str, tuple[str, ...]] = {
    "expert.sample_scene": ("quadkit.expert.collect", "quadkit.evaluation.harness"),
    "expert.grid_from_scene": ("quadkit.expert.collect",),
    "expert.plan_astar": ("quadkit.expert.collect",),
    "expert.smooth_path": ("quadkit.expert.collect",),
    "expert.PathTracker.command": ("quadkit.expert.tracker:PathTracker",),
    "expert.generate_episode": ("quadkit.expert.collect", "quadkit.cli"),
    "world.Simulator.step": ("quadkit.world.sim:Simulator",),
    "world.render_observation": ("quadkit.expert.collect", "quadkit.evaluation.harness"),
    "actions.tokenize": ("quadkit.expert.collect", "quadkit.evaluation.policies"),
    "actions.detokenize": ("quadkit.evaluation.harness",),
    "actions.clamp_to_space": ("quadkit.expert.collect", "quadkit.evaluation.policies"),
    "language.render_instruction": ("quadkit.expert.collect", "quadkit.evaluation.harness"),
    "language.parse_instruction": ("quadkit.evaluation.policies",),
    "store.ShardWriter.add": ("quadkit.store.episodes:ShardWriter",),
    "store.put_image": ("quadkit.store.episodes:EpisodeStore",),
    "store.commit_shards": ("quadkit.store.episodes:EpisodeStore",),
    # A generator: each resumption (one episode read, plus the last) is a call.
    "store.iter_episodes": ("quadkit.store.episodes:EpisodeStore",),
    "store.load_image": ("quadkit.store.episodes:EpisodeStore",),
    "evaluation.run_suite": ("quadkit.evaluation.harness",),
    "evaluation.OraclePolicy.bind": ("quadkit.evaluation.policies:OraclePolicy",),
    "evaluation.KnnPolicy.act": ("quadkit.evaluation.policies:KnnPolicy",),
    "evaluation.knn_bc_policy": ("quadkit.evaluation.policies",),
}

LAYERS = ("expert", "world", "actions", "language", "store", "evaluation")

SETUP = -1  # episode index of spans recorded before the first episode


class Tracer:
    """Records spans ``(name, start_ns, end_ns, parent, episode, error)``.

    ``parent`` is the index of the enclosing span or -1, ``episode`` is the
    value of :attr:`episode` when the span started, and ``error`` is the
    name of the exception the call raised, or None. While :attr:`episode`
    is None, calls are not recorded.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.episode = SETUP
        self._stack: list[int] = []

    def install(self) -> None:
        for name, sites in SITES.items():
            attr = name.rsplit(".", 1)[1]
            for site in sites:
                module_name, _, class_name = site.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._call(name, next, items)
                    except StopIteration:
                        return
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, *args, **kwargs)
        return traced

    def _call(self, name: str, fn, *args, **kwargs):
        episode = self.episode
        if episode is None:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, episode, error)


def self_times_ns(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and nested, so children never overlap each other
    and the part of a span they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[tuple], episodes_per_pass: int) -> tuple[dict, list[dict]]:
    """Per-function counts and times for set-up plus one pass.

    Returns ``(stats, pass_calls)``. ``stats[name]`` holds ``calls``,
    ``no_path``, ``s`` and ``self_s``: set-up spans once, plus the spans of
    the episode phase averaged over passes. ``pass_calls`` lists each
    pass's call counts, which must all be equal for a deterministic run.
    """
    own = self_times_ns(spans)
    setup: dict[str, list[int]] = {}
    passes: list[dict[str, list[int]]] = []
    for (name, start, end, _, episode, error), self_ns in zip(spans, own):
        if episode == SETUP:
            bucket = setup
        else:
            p = episode // episodes_per_pass
            while len(passes) <= p:
                passes.append({})
            bucket = passes[p]
        entry = bucket.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += error == "NoPathError"
        entry[2] += end - start
        entry[3] += self_ns
    n = max(len(passes), 1)
    stats = {}
    for name in SITES:
        first = passes[0].get(name, [0, 0, 0, 0]) if passes else [0, 0, 0, 0]
        s = setup.get(name, [0, 0, 0, 0])
        total = [sum(p.get(name, [0, 0, 0, 0])[i] for p in passes) for i in range(4)]
        stats[name] = {
            "calls": s[0] + first[0],
            "no_path": s[1] + first[1],
            "s": (s[2] + total[2] / n) / 1e9,
            "self_s": (s[3] + total[3] / n) / 1e9,
        }
    pass_calls = [{name: p.get(name, [0])[0] for name in SITES} for p in passes]
    return stats, pass_calls


def write_spans(path, spans: list[tuple]) -> None:
    """One tab-separated line per span; times in ns from the first span."""
    t0 = spans[0][1] if spans else 0
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tepisode\terror\n")
        for i, (name, start, end, parent, episode, error) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start - t0}\t{end - t0}\t{parent}\t{episode}\t{error or ''}\n")

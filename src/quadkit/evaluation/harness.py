"""Closed-loop policy evaluation.

A suite is a fixed list of (task, scene seed, template) entries, built
deterministically from per-task budgets. The harness rolls each entry in the
simulator: it binds the policy to the episode's simulator (a hook only the
privileged oracle reads), then gives it each tick's camera frame and the
instruction text and executes its detokenized commands until the simulator
reaches a terminal status, the policy raises its terminate token, or the
policy misbehaves. A frame is rendered the first time the policy reads its
``image`` and at most once, so the oracle and the random policy, which never
look, cost no render. Tokens are decoded only when they differ from the
previous tick's in the same episode; a repeat reuses that tick's command.
Every episode lands in exactly one outcome bucket:

    success       simulator reported the task criterion met
    collision     hit geometry or left the arena
    timeout       step budget exhausted
    wrong_target  policy terminated without success
    malformed     policy emitted undecodable tokens or raised

so bucket counts always sum to the suite budget. A render that raises is a
fault of the harness, not of the policy: it aborts the suite.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..actions import ActionSpaceSpec, CodecError, default_action_space, detokenize
from ..config import CameraConfig, RunConfig
from ..language import canonical_template_id, paraphrase_ids, render_instruction
from ..roster import build_task_roster
from ..store.episodes import Episode
from ..store.mixing import MixPolicy, mix_stream
from ..taxonomy import SEEN_COLORS, Skill, Split, TaskSpec, unseen_variant
from ..world.camera import render_observation
from ..world.sim import Simulator
from ..world.state import Status, WorldState
from .policies import Policy
from ..expert.scenes import sample_scene

log = logging.getLogger(__name__)

BUCKETS = ("success", "collision", "timeout", "wrong_target", "malformed")

_STATUS_BUCKET = {
    Status.SUCCESS: "success",
    Status.COLLISION: "collision",
    Status.OUT_OF_BOUNDS: "collision",
    Status.TIMEOUT: "timeout",
}


@dataclass(frozen=True)
class EvalEntry:
    task: TaskSpec
    seed: int
    template_id: str | None = None


@dataclass(frozen=True)
class EvalSuite:
    name: str
    split: Split
    entries: tuple[EvalEntry, ...]

    def budgets(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.entries:
            out[e.task.skill.value] = out.get(e.task.skill.value, 0) + 1
        return out


def build_suite(name: str, budgets: dict[str, int], seed: int) -> EvalSuite:
    """Deterministic seen-split suite from per-skill budgets; seeds drive scene draws."""
    rng = np.random.default_rng(seed)
    entries: list[EvalEntry] = []
    used: set[int] = set()
    for skill_name in sorted(budgets):
        roster = build_task_roster(Skill(skill_name), budgets[skill_name], rng)
        for task in roster:
            entry_seed = int(rng.integers(0, 2**31 - 1))
            while entry_seed in used:  # scene seeds are unique within a suite
                entry_seed = int(rng.integers(0, 2**31 - 1))
            used.add(entry_seed)
            entries.append(EvalEntry(task, entry_seed))
    return EvalSuite(name=name, split=Split.SEEN_SIM, entries=tuple(entries))


def make_unseen_suites(base: EvalSuite) -> dict[str, EvalSuite]:
    """Derive the generalization suites from a seen suite, budget for budget.

    The object suite swaps every referenced object for its unseen-split
    counterpart (never a seen color); the verbal suite keeps the objects but
    renders each instruction with a held-out paraphrase template where the
    skill has one.
    """
    object_entries = []
    for i, e in enumerate(base.entries):
        obj = unseen_variant(e.task.obj, i)
        if obj.color is not None and obj.color in SEEN_COLORS:
            raise ValueError(f"unseen variant kept a seen color: {obj}")
        task = TaskSpec(e.task.skill, obj, e.task.speed, e.task.gait,
                        Split.UNSEEN_OBJECT)
        object_entries.append(EvalEntry(task, e.seed))

    verbal_entries = []
    for i, e in enumerate(base.entries):
        pids = paraphrase_ids(e.task.skill)
        template = pids[i % len(pids)] if pids else canonical_template_id(e.task.skill)
        task = e.task.with_split(Split.UNSEEN_VERBAL)
        verbal_entries.append(EvalEntry(task, e.seed, template))

    return {
        "unseen_object": EvalSuite(f"{base.name}-unseen-object",
                                   Split.UNSEEN_OBJECT, tuple(object_entries)),
        "unseen_verbal": EvalSuite(f"{base.name}-unseen-verbal",
                                   Split.UNSEEN_VERBAL, tuple(verbal_entries)),
    }


@dataclass
class TaskResult:
    budget: int = 0
    buckets: dict[str, int] = field(default_factory=lambda: {b: 0 for b in BUCKETS})

    @property
    def success_rate(self) -> float:
        return self.buckets["success"] / self.budget if self.budget else 0.0


@dataclass
class EvalReport:
    suite: str
    split: str
    per_task: dict[str, TaskResult]
    outcomes: list[tuple[str, str]]  # (entry id, bucket)

    @property
    def overall(self) -> TaskResult:
        total = TaskResult(budget=sum(t.budget for t in self.per_task.values()))
        for t in self.per_task.values():
            for b in BUCKETS:
                total.buckets[b] += t.buckets[b]
        return total

    def success_rate(self, skill: str | None = None) -> float:
        if skill is None:
            return self.overall.success_rate
        return self.per_task[skill].success_rate

    def _rows(self) -> list[tuple[str, TaskResult]]:
        return sorted(self.per_task.items()) + [("overall", self.overall)]

    def to_table(self) -> str:
        header = f"{'task':<12} {'n':>5} " + " ".join(f"{b:>12}" for b in BUCKETS) + f" {'SR':>7}"
        lines = [f"suite: {self.suite} (split: {self.split})", header]
        for name, t in self._rows():
            cells = " ".join(f"{t.buckets[b]:>12}" for b in BUCKETS)
            lines.append(f"{name:<12} {t.budget:>5} {cells} {t.success_rate:>7.3f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["task", "budget", *BUCKETS, "success_rate"])
        for name, t in self._rows():
            writer.writerow([name, t.budget, *(t.buckets[b] for b in BUCKETS),
                             f"{t.success_rate:.6f}"])
        return buf.getvalue()


class _Frame:
    """One tick's observation, rendered when ``image`` is first read.

    The simulator replaces its state on every step, so the frame shows its
    own tick whenever it is read. A render error is kept in ``error``.
    """

    __slots__ = ("_state", "_camera", "_image", "error")

    def __init__(self, state: WorldState, camera: CameraConfig):
        self._state, self._camera = state, camera
        self._image: np.ndarray | None = None
        self.error: Exception | None = None

    @property
    def image(self) -> np.ndarray:
        if self._image is None:
            if self.error is not None:
                raise self.error
            try:
                self._image = render_observation(self._state, self._camera).image
            except Exception as exc:
                self.error = exc
                raise
        return self._image


def _roll_entry(policy: Policy, entry: EvalEntry, run: RunConfig,
                space: ActionSpaceSpec) -> str:
    sim = Simulator(sample_scene(entry.task, entry.seed, run.scene), run.sim)
    text = render_instruction(entry.task, entry.template_id).text
    policy.bind(sim)
    last = None  # this episode's previous tokens; cmd is their command
    while True:
        if sim.done:
            return _STATUS_BUCKET[sim.status]
        obs = _Frame(sim.state, run.sim.camera)
        try:
            tokens = policy.act(obs, text)
            if tokens != last:
                cmd = detokenize(tokens, space)
                last = tokens
        except Exception as exc:
            if obs.error is None:  # a broken policy must not abort the suite
                log.warning("malformed action from policy on %s: %s",
                            entry.task.skill.value, exc)
                return "malformed"
        if obs.error is not None:
            raise obs.error  # even if the policy caught it
        if cmd.terminate:
            # Terminating while the task is unmet is stopping at the wrong place.
            return "wrong_target"
        sim.step(cmd)


def run_suite(policy: Policy, suite: EvalSuite, run: RunConfig | None = None,
              space: ActionSpaceSpec | None = None) -> EvalReport:
    """Roll every suite entry; bucket counts per task sum to the budgets."""
    run = run or RunConfig()
    space = space or default_action_space()
    per_task: dict[str, TaskResult] = {}
    outcomes: list[tuple[str, str]] = []
    for i, entry in enumerate(suite.entries):
        bucket = _roll_entry(policy, entry, run, space)
        skill = entry.task.skill.value
        result = per_task.setdefault(skill, TaskResult())
        result.budget += 1
        result.buckets[bucket] += 1
        outcomes.append((f"{skill}[{i}]", bucket))
    report = EvalReport(suite=suite.name, split=suite.split.value,
                        per_task=per_task, outcomes=outcomes)
    for name, t in report.per_task.items():
        if sum(t.buckets.values()) != t.budget:
            raise RuntimeError(f"outcome buckets for {name} do not sum to budget")
    return report


@dataclass
class ScalingResult:
    rows: list[tuple[str, EvalReport]]

    def to_table(self) -> str:
        if not self.rows:
            return "(no regimes)\n"
        tasks = sorted(self.rows[0][1].per_task)
        header = f"{'regime':<12} " + " ".join(f"{t:>12}" for t in tasks) + f" {'overall':>9}"
        lines = [header]
        for label, report in self.rows:
            cells = " ".join(f"{report.success_rate(t):>12.3f}" for t in tasks)
            lines.append(f"{label:<12} {cells} {report.overall.success_rate:>9.3f}")
        return "\n".join(lines) + "\n"


def scaling_experiment(policy_factory: Callable[[Sequence[Episode]], Policy],
                       regimes: Iterable[tuple[str, MixPolicy]],
                       sim_pool, real_pool, suite: EvalSuite,
                       run: RunConfig | None = None,
                       space: ActionSpaceSpec | None = None,
                       seed: int = 0) -> ScalingResult:
    """Train a policy per data regime and evaluate each on the same suite."""
    rows = []
    for label, mix in regimes:
        episodes = mix_stream(mix, sim_pool, real_pool, seed)
        policy = policy_factory(episodes)
        rows.append((label, run_suite(policy, suite, run, space)))
    return ScalingResult(rows)

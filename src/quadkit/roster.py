"""Task rosters: deterministic task lists for collection plans and eval suites.

Speed levels are assigned in exact thirds and gaits by their configured
weights, both via largest-remainder apportionment, then shuffled with the
caller's generator so the attributes do not correlate with episode order.
"""

from __future__ import annotations

import numpy as np

from .config import GAIT_WEIGHTS
from .taxonomy import GaitName, Skill, SpeedLevel, TaskSpec, seen_object_pool


def largest_remainder(weights: dict[str, float], total: int) -> dict[str, int]:
    """Integer apportionment of ``total`` by weight; remainders break ties by
    size then by key order."""
    if total < 0:
        raise ValueError("total must be non-negative")
    scale = sum(weights.values())
    exact = {k: total * w / scale for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    leftover = total - sum(counts.values())
    order = sorted(weights, key=lambda k: (-(exact[k] - counts[k]), list(weights).index(k)))
    for k in order[:leftover]:
        counts[k] += 1
    return counts


def build_task_roster(skill: Skill, count: int, rng: np.random.Generator) -> list[TaskSpec]:
    """``count`` task specs for one skill with balanced speeds and weighted gaits."""
    speed_counts = largest_remainder({s.value: 1.0 for s in SpeedLevel}, count)
    speeds = [SpeedLevel(name) for name, n in speed_counts.items() for _ in range(n)]
    gait_counts = largest_remainder(GAIT_WEIGHTS, count)
    gaits = [GaitName(name) for name, n in gait_counts.items() for _ in range(n)]
    speeds = [speeds[i] for i in rng.permutation(count)]
    gaits = [gaits[i] for i in rng.permutation(count)]
    pool = seen_object_pool(skill)
    return [
        TaskSpec(
            skill=skill,
            obj=pool[int(rng.integers(0, len(pool)))],
            speed=speeds[i],
            gait=gaits[i],
        )
        for i in range(count)
    ]

"""Composing training streams from a simulated and a real episode pool.

A mix policy names how many episodes to draw from each pool and how to order
them. ``EXHAUSTIVE`` interleaves deterministically so that every prefix of
the stream holds the sim:real ratio as closely as integer counts allow (the
final counts are exact). ``WEIGHTED_STREAM`` shuffles the selected multiset
with a seeded generator, so the ratio holds exactly over the full pass and
in expectation over prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .episodes import Episode, StoreError


class MixMode(str, Enum):
    EXHAUSTIVE = "exhaustive"
    WEIGHTED_STREAM = "weighted_stream"


@dataclass(frozen=True)
class MixPolicy:
    sim_count: int
    real_count: int
    mode: MixMode = MixMode.EXHAUSTIVE

    def __post_init__(self):
        if self.sim_count < 0 or self.real_count < 0:
            raise ValueError("mix counts must be non-negative")
        if self.sim_count + self.real_count == 0:
            raise ValueError("mix must request at least one episode")


def _select(pool: Sequence[Episode], count: int, label: str,
            rng: np.random.Generator) -> list[Episode]:
    if count > len(pool):
        raise StoreError(
            f"mix requests {count} {label} episodes but only {len(pool)} are available"
        )
    if count == len(pool):
        return list(pool)
    # Subsample without replacement, keeping the pool's original order.
    idx = np.sort(rng.choice(len(pool), size=count, replace=False))
    return [pool[i] for i in idx]


def mix_stream(policy: MixPolicy, sim_pool: Iterable[Episode],
               real_pool: Iterable[Episode], seed: int = 0) -> list[Episode]:
    """Return the mixed episode sequence for a policy; deterministic in seed."""
    rng = np.random.default_rng(seed)
    sim = _select(list(sim_pool), policy.sim_count, "sim", rng)
    real = _select(list(real_pool), policy.real_count, "real", rng)
    total = len(sim) + len(real)
    if policy.mode is MixMode.WEIGHTED_STREAM:
        merged = sim + real
        order = rng.permutation(total)
        return [merged[i] for i in order]
    # Exhaustive: emit sim whenever the sim quota for this prefix is unmet.
    out: list[Episode] = []
    si = ri = 0
    for i in range(1, total + 1):
        quota = math.ceil(i * policy.sim_count / total)
        if si < min(quota, len(sim)) or ri >= len(real):
            out.append(sim[si])
            si += 1
        else:
            out.append(real[ri])
            ri += 1
    return out

"""Dataset statistics: per-task episode counts, mean and median lengths,
and speed/gait/source/outcome shares, plus text-table and SVG renderings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..taxonomy import GaitName, Skill, SpeedLevel
from .episodes import Episode, EpisodeStore

SVG_WIDTH = 640  # pixels


@dataclass
class TaskStats:
    count: int = 0
    steps: int = 0
    success: int = 0
    mean_length: float = 0.0
    median_length: float = 0.0

    @property
    def success_rate(self) -> float:
        return self.success / self.count if self.count else 0.0


@dataclass
class StoreStats:
    total_episodes: int
    total_steps: int
    per_task: dict[str, TaskStats]
    speed_shares: dict[str, float]
    gait_shares: dict[str, float]
    source_shares: dict[str, float]
    outcome_shares: dict[str, float]


def _shares(counts: dict[str, int], total: int) -> dict[str, float]:
    return {k: (v / total if total else 0.0) for k, v in sorted(counts.items())}


def _median(lengths: list[int]) -> float:
    ordered = sorted(lengths)
    mid = len(ordered) // 2
    return float(ordered[mid]) if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def compute_stats(episodes: Iterable[Episode] | EpisodeStore) -> StoreStats:
    if isinstance(episodes, EpisodeStore):
        episodes = episodes.iter_episodes(load_images=False)
    lengths: dict[str, list[int]] = {s.value: [] for s in Skill}
    success = dict.fromkeys(lengths, 0)
    speed = {s.value: 0 for s in SpeedLevel}
    gait = {g.value: 0 for g in GaitName}
    source: dict[str, int] = {}
    outcome: dict[str, int] = {}
    for ep in episodes:
        lengths[ep.task.skill.value].append(len(ep))
        success[ep.task.skill.value] += ep.outcome == "success"
        speed[ep.task.speed.value] += 1
        gait[ep.task.gait.value] += 1
        source[ep.source] = source.get(ep.source, 0) + 1
        outcome[ep.outcome] = outcome.get(ep.outcome, 0) + 1
    per_task = {name: TaskStats(len(ls), sum(ls), success[name], sum(ls) / len(ls), _median(ls))
                for name, ls in lengths.items() if ls}
    total = sum(t.count for t in per_task.values())
    return StoreStats(
        total_episodes=total,
        total_steps=sum(t.steps for t in per_task.values()),
        per_task=per_task,
        speed_shares=_shares(speed, total),
        gait_shares=_shares(gait, total),
        source_shares=_shares(source, total),
        outcome_shares=_shares(outcome, total),
    )


def stats_table(stats: StoreStats) -> str:
    lines = [
        f"episodes: {stats.total_episodes}    steps: {stats.total_steps}",
        "",
        f"{'task':<12} {'count':>7} {'steps':>8} {'mean len':>9} {'median':>7} {'success':>8}",
    ]
    for name in sorted(stats.per_task):
        t = stats.per_task[name]
        lines.append(
            f"{name:<12} {t.count:>7} {t.steps:>8} {t.mean_length:>9.2f} "
            f"{t.median_length:>7.1f} {t.success_rate:>8.3f}"
        )
    for label, shares in (("speed", stats.speed_shares),
                          ("gait", stats.gait_shares),
                          ("source", stats.source_shares),
                          ("outcome", stats.outcome_shares)):
        parts = "  ".join(f"{k}={v:.3f}" for k, v in shares.items())
        lines.append(f"{label:<8} {parts}")
    return "\n".join(lines) + "\n"


def stats_svg(stats: StoreStats) -> str:
    """Bar chart of per-task counts; a pure function of the stats."""
    tasks = sorted(stats.per_task)
    bar_h, gap, left, top = 22, 8, 120, 30
    height = top + len(tasks) * (bar_h + gap) + 20
    peak = max((stats.per_task[t].count for t in tasks), default=1)
    span = SVG_WIDTH - left - 90
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}">',
        f'<text x="{left}" y="18" font-family="monospace" font-size="13">'
        f"episodes per task (total {stats.total_episodes})</text>",
    ]
    for i, name in enumerate(tasks):
        t = stats.per_task[name]
        y = top + i * (bar_h + gap)
        w = int(round(span * t.count / peak)) if peak else 0
        parts.append(
            f'<text x="4" y="{y + 15}" font-family="monospace" font-size="12">{name}</text>'
        )
        parts.append(
            f'<rect x="{left}" y="{y}" width="{max(w, 1)}" height="{bar_h}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{left + max(w, 1) + 6}" y="{y + 15}" font-family="monospace" '
            f'font-size="12">{t.count} (len {t.mean_length:.1f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

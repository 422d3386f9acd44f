"""Importing externally recorded episodes into a store.

Expected source layout, one directory per episode:

    <episode_name>/
        instruction.txt      command text (must parse against the templates)
        commands.csv         one row per tick: 11 floats then terminate (0/1)
        frames/0000.ppm ...  one P6 raster per tick, numbered from zero

An episode with any malformed part (unparseable instruction, bad CSV row,
frame count mismatch, unreadable frame, or a terminate column that is not 1
on exactly the last row, as every success needs) is skipped whole and the
reason is logged and reported; a bad episode never aborts the import.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..actions import (ActionCommand, ActionSpaceSpec, NUM_CONTINUOUS, clamp_to_space,
                       default_action_space, tokenize)
from ..language import LanguageError, parse_instruction
from ..taxonomy import Split
from ..world.camera import from_ppm
from .episodes import Episode, EpisodeStore, Step, episode_problems

log = logging.getLogger(__name__)


@dataclass
class ImportReport:
    imported: int = 0
    skipped: list[tuple[str, str]] = field(default_factory=list)


class _SkipEpisode(Exception):
    pass


def _read_commands(path: Path) -> list[tuple[tuple[float, ...], bool]]:
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if len(row) != NUM_CONTINUOUS + 1:
                raise _SkipEpisode(f"commands.csv row {i}: expected 12 columns, got {len(row)}")
            try:
                values = tuple(float(v) for v in row[:NUM_CONTINUOUS])
                term = float(row[NUM_CONTINUOUS])
            except ValueError as exc:
                raise _SkipEpisode(f"commands.csv row {i}: {exc}") from exc
            if not all(math.isfinite(v) for v in values):
                raise _SkipEpisode(f"commands.csv row {i}: non-finite value")
            if term not in (0.0, 1.0):  # 1.7, nan and inf too
                raise _SkipEpisode(f"commands.csv row {i}: terminate must be 0 or 1")
            rows.append((values, term == 1.0))
    if not rows:
        raise _SkipEpisode("commands.csv: no rows")
    return rows


def _read_episode(folder: Path, index: int, space: ActionSpaceSpec) -> Episode:
    instruction_path = folder / "instruction.txt"
    if not instruction_path.exists():
        raise _SkipEpisode("instruction.txt missing")
    text = instruction_path.read_text().strip()
    try:
        instruction = parse_instruction(text)
    except LanguageError as exc:
        raise _SkipEpisode(str(exc)) from exc
    rows = _read_commands(folder / "commands.csv")
    frames = sorted((folder / "frames").glob("*.ppm")) if (folder / "frames").is_dir() else []
    if len(frames) != len(rows):
        raise _SkipEpisode(f"{len(frames)} frames for {len(rows)} command rows")
    steps = []
    for frame_path, (values, term) in zip(frames, rows):
        try:
            image = from_ppm(frame_path.read_bytes())
        except ValueError as exc:
            raise _SkipEpisode(f"{frame_path.name}: {exc}") from exc
        cmd = clamp_to_space(ActionCommand.from_continuous(values, term), space)
        steps.append(Step(
            image=image,
            tokens=tokenize(cmd, space).tokens,
            command=cmd,
            pose=(0.0, 0.0, 0.0),
        ))
    episode = Episode(
        episode_id=f"real-{folder.name}",
        task=instruction.spec.with_split(Split.SEEN_REAL),
        instruction=instruction.text,
        template_id=instruction.template_id,
        source="real",
        seed=index,
        outcome="success",
        steps=steps,
    )
    problems = episode_problems(episode, space)
    if problems:
        raise _SkipEpisode(problems[0])
    return episode


def import_real(src: str | Path, store_root: str | Path,
                shard_name: str = "real-000") -> ImportReport:
    """Import every episode directory under ``src`` into a store."""
    src = Path(src)
    store_root = Path(store_root)
    if (store_root / "manifest.json").exists():
        store = EpisodeStore.open(store_root)
    else:
        store = EpisodeStore.create(store_root, default_action_space())
    space = store.action_space

    report = ImportReport()
    folders = sorted(p for p in src.iterdir() if p.is_dir())

    def episodes():
        # Read lazily: the shard holds each episode before the next is read.
        for i, folder in enumerate(folders):
            try:
                episode = _read_episode(folder, i, space)
            except _SkipEpisode as exc:
                log.warning("skipping %s: %s", folder.name, exc)
                report.skipped.append((folder.name, str(exc)))
                continue
            report.imported += 1
            yield episode

    store.write_shard(shard_name, episodes())
    return report

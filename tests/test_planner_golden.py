"""Golden digests of the expert planner over sampled scenes.

The planner feeds both the demonstrations and the oracle, so any change to
grid building, A* or smoothing must keep these bytes: a faster rewrite that
returns different cells or costs would silently change collected data. The
D* Lite digest pins whole incremental sessions (edits, start moves, and
endpoints inside, outside or on blocked cells) down to the cells, the cost
bits and each ``NoPathError`` message.
"""

import hashlib

import numpy as np

from quadkit.config import RunConfig
from quadkit.expert import (DStarLitePlanner, NoPathError, grid_from_scene, plan_astar,
                           sample_scene, smooth_path)
from quadkit.taxonomy import GaitName, Skill, SpeedLevel, TaskSpec, seen_object_pool

from oracles import random_grid

PLANNED_SKILLS = (Skill.GO_TO, Skill.GO_AVOID, Skill.GO_THROUGH, Skill.CRAWL, Skill.UNLOAD)
SCENES_PER_SKILL = 12

GRID_DIGEST = "143034b0d28621778a8d88e404e23733bae083449b3d44d329b1c7692aab7fa5"
PATH_DIGEST = "1d4e29d761970d74d4f5b5688a51f0ac36ff632c27dcdd8970024ca493525b23"
DSTAR_DIGEST = "007319fd0cc8a89d05437768cf6922795cf8870a699a0086c3d80af0e4faf078"
DSTAR_SESSIONS = 80


def planner_digests() -> tuple[str, str]:
    run = RunConfig()
    rng = np.random.default_rng(2312)
    grids, paths = hashlib.sha256(), hashlib.sha256()
    for skill in PLANNED_SKILLS:
        pool = seen_object_pool(skill)
        for i in range(SCENES_PER_SKILL):
            obj = pool[int(rng.integers(0, len(pool)))]
            seed = int(rng.integers(0, 2**31 - 1))
            scene = sample_scene(TaskSpec(skill, obj, SpeedLevel.NORMAL, GaitName.TROT), seed)
            # Alternate the expert's margin with the default one so two disk
            # radii are pinned.
            inflation = run.sim.footprint_radius + run.expert.inflation_margin if i % 2 else None
            grid = grid_from_scene(scene, run.sim, resolution=run.expert.grid_resolution,
                                   inflation=inflation)
            grids.update(np.packbits(grid.occupied).tobytes())
            try:
                path = smooth_path(grid, plan_astar(grid, scene.start_pose[:2], scene.goal_xy))
            except NoPathError:
                paths.update(b"no path;")
                continue
            paths.update(repr(path.cells).encode() + path.cost.hex().encode() + b";")
    return grids.hexdigest(), paths.hexdigest()


def test_planner_output_matches_golden_digests():
    grid_digest, path_digest = planner_digests()
    assert grid_digest == GRID_DIGEST
    assert path_digest == PATH_DIGEST


def _endpoint(rng: np.random.Generator, grid, corner):
    """A free corner, a random (possibly blocked) cell, or a cell one or
    three cells outside the grid."""
    kind = int(rng.integers(0, 10))
    if kind < 6:
        return corner
    if kind < 8:
        return (int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)))
    out = 1 if kind == 8 else 3
    side = int(rng.integers(0, 4))
    along = int(rng.integers(-1, max(grid.nx, grid.ny) + 1))
    return ((-out, along), (grid.nx - 1 + out, along),
            (along, -out), (along, grid.ny - 1 + out))[side]


def dstar_digest() -> str:
    rng = np.random.default_rng(6061)
    digest = hashlib.sha256()

    def record(planner):
        try:
            path = planner.plan()
        except NoPathError as exc:
            digest.update(f"no path: {exc};".encode())
            return None
        digest.update(repr(path.cells).encode() + path.cost.hex().encode() + b";")
        return path

    for _ in range(DSTAR_SESSIONS):
        nx, ny = int(rng.integers(6, 17)), int(rng.integers(6, 17))
        grid = random_grid(rng, nx, ny, fill=float(rng.uniform(0.05, 0.25)))
        start = _endpoint(rng, grid, (0, 0))
        goal = _endpoint(rng, grid, (nx - 1, ny - 1))
        planner = DStarLitePlanner(grid, grid.cell_to_world(start), grid.cell_to_world(goal))
        path = record(planner)
        for _round in range(4):
            changes = []
            for _k in range(int(rng.integers(1, 9))):
                # Edits may land on the endpoints too.
                if rng.random() < 0.1 and grid.in_bounds(goal):
                    cell = goal
                else:
                    cell = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
                changes.append((cell, bool(rng.integers(0, 2))))
            planner.update_cells(changes)
            path = record(planner)
            if rng.random() < 0.5:
                if path is not None and len(path.cells) > 2:
                    start = path.cells[int(rng.integers(1, len(path.cells)))]
                else:
                    start = _endpoint(rng, grid, (0, 0))
                planner.move_start(grid.cell_to_world(start))
                path = record(planner)
    return digest.hexdigest()


def test_dstar_sessions_match_golden_digest():
    assert dstar_digest() == DSTAR_DIGEST

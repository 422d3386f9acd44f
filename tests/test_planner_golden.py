"""Golden digests of the expert planner over sampled scenes.

The planner feeds both the demonstrations and the oracle, so any change to
grid building, A* or smoothing must keep these bytes: a faster rewrite that
returns different cells or costs would silently change collected data. The
expert digest pins ``plan_for_task`` itself, straight-segment shortcut
included. The raw A* digest pins ``plan_astar`` before smoothing, which keeps
only the end waypoints of a straight plan: every cell, waypoint and cost bit,
and each ``NoPathError`` message, on the pinned scenes and on open random
grids where many paths tie at the optimal cost, so a changed tie-break shows.
The D* Lite digest pins whole incremental sessions (edits, start
moves, and endpoints inside, outside or on blocked cells) down to the cells,
the cost bits and each ``NoPathError`` message, and every ``plan()`` in
those sessions must agree with a fresh A* on its outcome and cost bits.
"""

import hashlib

import numpy as np
import pytest

from quadkit.config import RunConfig
from quadkit.expert import (DStarLitePlanner, NoPathError, OccupancyGrid, grid_from_scene,
                           plan_astar, sample_scene, smooth_path)
from quadkit.expert.collect import plan_for_task
from quadkit.taxonomy import GaitName, Skill, SpeedLevel, TaskSpec, seen_object_pool

from oracles import random_grid

PLANNED_SKILLS = (Skill.GO_TO, Skill.GO_AVOID, Skill.GO_THROUGH, Skill.CRAWL, Skill.UNLOAD)
SCENES_PER_SKILL = 12

GRID_DIGEST = "143034b0d28621778a8d88e404e23733bae083449b3d44d329b1c7692aab7fa5"
PATH_DIGEST = "1d4e29d761970d74d4f5b5688a51f0ac36ff632c27dcdd8970024ca493525b23"
DSTAR_DIGEST = "6192fc3386d831bb9d2f7d922323a91509f64f061ca6ee0f40693be93d212b88"
EXPERT_DIGEST = "dd24e476e34e0fadd0f9966bc325139f772631d6acc614a3888a0f6bbc5cb587"
RAW_ASTAR_DIGEST = "6a3702d4b0fbd54988c9b3e85dfd379161b51096ef7df4db4f33c4ce23894b05"
RAW_ASTAR_SEED = 1968
RAW_ASTAR_CASES = 200
DSTAR_SEED = 6061
DSTAR_SESSIONS = 80


def sampled_scenes():
    """``(index within skill, scene)`` for each of the 60 pinned scenes."""
    rng = np.random.default_rng(2312)
    for skill in PLANNED_SKILLS:
        pool = seen_object_pool(skill)
        for i in range(SCENES_PER_SKILL):
            obj = pool[int(rng.integers(0, len(pool)))]
            seed = int(rng.integers(0, 2**31 - 1))
            yield i, sample_scene(TaskSpec(skill, obj, SpeedLevel.NORMAL, GaitName.TROT), seed)


def pinned_grids():
    """``(scene, grid)`` for each pinned scene. Grids alternate the expert's
    margin with the default one so two disk radii are pinned."""
    run = RunConfig()
    for i, scene in sampled_scenes():
        inflation = run.sim.footprint_radius + run.expert.inflation_margin if i % 2 else None
        yield scene, grid_from_scene(scene, run.sim, resolution=run.expert.grid_resolution,
                                     inflation=inflation)


def planner_digests() -> tuple[str, str]:
    grids, paths = hashlib.sha256(), hashlib.sha256()
    for scene, grid in pinned_grids():
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


def expert_digest() -> str:
    """The expert's own plans (``plan_for_task``): waypoints, cells, cost bits
    and each ``NoPathError`` message."""
    run = RunConfig()
    digest = hashlib.sha256()
    for _, scene in sampled_scenes():
        try:
            path = plan_for_task(scene, run)
        except NoPathError as exc:
            digest.update(f"no path: {exc};".encode())
            continue
        digest.update(repr((path.waypoints, path.cells)).encode()
                      + path.cost.hex().encode() + b";")
    return digest.hexdigest()


def test_expert_plans_match_golden_digest():
    assert expert_digest() == EXPERT_DIGEST


def raw_astar_digest() -> str:
    """Raw ``plan_astar`` output on the pinned scenes, then on
    ``RAW_ASTAR_CASES`` open random grids with snapped or unsnapped
    endpoints that may be blocked or off the grid."""
    digest = hashlib.sha256()

    def record(grid, start_xy, goal_xy, snap=True):
        try:
            path = plan_astar(grid, start_xy, goal_xy, snap=snap)
        except NoPathError as exc:
            digest.update(f"no path: {exc};".encode())
            return
        digest.update(repr((path.waypoints, path.cells)).encode()
                      + path.cost.hex().encode() + b";")

    for scene, grid in pinned_grids():
        record(grid, scene.start_pose[:2], scene.goal_xy)
    rng = np.random.default_rng(RAW_ASTAR_SEED)
    for _ in range(RAW_ASTAR_CASES):
        nx, ny = int(rng.integers(4, 25)), int(rng.integers(4, 25))
        grid = random_grid(rng, nx, ny, fill=float(rng.uniform(0.0, 0.2)))
        start = _endpoint(rng, grid, (0, 0))
        goal = _endpoint(rng, grid, (nx - 1, ny - 1))
        record(grid, grid.cell_to_world(start), grid.cell_to_world(goal),
               snap=bool(rng.integers(0, 2)))
    return digest.hexdigest()


def test_raw_astar_output_matches_golden_digest():
    assert raw_astar_digest() == RAW_ASTAR_DIGEST


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


def dstar_sessions(seed: int) -> tuple[str, list[str]]:
    """Replay the random D* Lite sessions drawn from ``seed``. Returns their
    digest and the ``plan()`` calls whose outcome or cost bits differ from a
    fresh ``plan_astar`` on the same grid and endpoints."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    disagreements: list[str] = []

    def outcome(plan):
        try:
            path = plan()
        except NoPathError as exc:
            return None, f"no path: {exc}"
        return path, path.cost.hex()

    def record(planner, occupied):
        path, result = outcome(planner.plan)
        if path is None:
            digest.update(f"{result};".encode())
        else:
            digest.update(repr(path.cells).encode() + result.encode() + b";")
        current = OccupancyGrid(grid.origin, grid.resolution, occupied.copy())
        fresh, expected = outcome(lambda: plan_astar(
            current, grid.cell_to_world(planner.start), grid.cell_to_world(planner.goal),
            snap=False))
        if (path is None) != (fresh is None) or (path is not None and result != expected):
            disagreements.append(f"{planner.start}->{planner.goal}: {result} vs {expected}")
        return path

    for _ in range(DSTAR_SESSIONS):
        nx, ny = int(rng.integers(6, 17)), int(rng.integers(6, 17))
        grid = random_grid(rng, nx, ny, fill=float(rng.uniform(0.05, 0.25)))
        occupied = grid.occupied.copy()
        start = _endpoint(rng, grid, (0, 0))
        goal = _endpoint(rng, grid, (nx - 1, ny - 1))
        planner = DStarLitePlanner(grid, grid.cell_to_world(start), grid.cell_to_world(goal))
        path = record(planner, occupied)
        for _round in range(4):
            changes = []
            for _k in range(int(rng.integers(1, 9))):
                # Edits may land on the endpoints too.
                if rng.random() < 0.1 and grid.in_bounds(goal):
                    cell = goal
                else:
                    cell = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
                changes.append((cell, bool(rng.integers(0, 2))))
                occupied[cell[1], cell[0]] = changes[-1][1]
            planner.update_cells(changes)
            path = record(planner, occupied)
            if rng.random() < 0.5:
                if path is not None and len(path.cells) > 2:
                    start = path.cells[int(rng.integers(1, len(path.cells)))]
                else:
                    start = _endpoint(rng, grid, (0, 0))
                planner.move_start(grid.cell_to_world(start))
                path = record(planner, occupied)
    return digest.hexdigest(), disagreements


def test_dstar_sessions_match_golden_digest():
    assert dstar_sessions(DSTAR_SEED)[0] == DSTAR_DIGEST


@pytest.mark.parametrize("seed", [DSTAR_SEED, 1, 2])
def test_every_dstar_plan_agrees_with_fresh_astar(seed):
    assert dstar_sessions(seed)[1] == []


def test_dstar_reports_an_edit_that_cuts_the_goal_off():
    """A 0.05 m grid whose float metre keys used to stop the repair early, so
    ``plan()`` failed path extraction instead of reporting the cut goal."""
    rows = ("0000", "1000", "1110", "0000")  # iy = 0..3
    occupied = np.array([[c == "1" for c in row] for row in rows])
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied)
    planner = DStarLitePlanner(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((3, 3)))
    assert planner.plan().cells == ((0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (3, 3))
    planner.update_cell((3, 2), True)
    with pytest.raises(NoPathError, match=r"goal unreachable from \(0, 0\)"):
        planner.plan()

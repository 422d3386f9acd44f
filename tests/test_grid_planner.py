"""Grid planners: A* against a Dijkstra oracle, D* Lite against fresh A*,
occupancy-grid geometry, path smoothing, and the straight-segment shortcut
against smoothing A*'s path."""

import math

import numpy as np
import pytest

from quadkit.config import ExpertConfig, RunConfig, SimConfig
from quadkit.expert import (
    DStarLitePlanner,
    NoPathError,
    OccupancyGrid,
    grid_from_scene,
    line_of_sight,
    plan_astar,
    sample_scene,
    smooth_path,
)
from quadkit.expert.astar import SQRT2, straight_path

from quadkit.expert.grid import _rasterize_box
from quadkit.taxonomy import GaitName, Skill, SpeedLevel, TaskSpec, seen_object_pool

from oracles import (box_cells, dijkstra_cost, dilate_disk, line_of_sight_reference, random_grid,
                     segment_cells)


def empty_grid(n: int = 12, res: float = 0.05) -> OccupancyGrid:
    return OccupancyGrid((0.0, 0.0), res, np.zeros((n, n), dtype=bool))


def path_is_valid(grid: OccupancyGrid, path) -> bool:
    """Every cell free, every step 8-adjacent, no corner cutting, cost honest."""
    cells = path.cells
    if not all(grid.is_free(c) for c in cells):
        return False
    diag = straight = 0
    for (ax, ay), (bx, by) in zip(cells, cells[1:]):
        dx, dy = bx - ax, by - ay
        if max(abs(dx), abs(dy)) != 1 or (dx, dy) == (0, 0):
            return False
        if dx != 0 and dy != 0:
            if not (grid.is_free((ax + dx, ay)) and grid.is_free((ax, ay + dy))):
                return False
            diag += 1
        else:
            straight += 1
    want = grid.resolution * straight + grid.resolution * SQRT2 * diag
    return path.cost == want


def test_astar_cost_matches_dijkstra_on_random_grids():
    rng = np.random.default_rng(20240)
    solved = 0
    for _ in range(60):
        grid = random_grid(rng)
        start = grid.cell_to_world((0, 0))
        goal = grid.cell_to_world((grid.nx - 1, grid.ny - 1))
        oracle = dijkstra_cost(grid, (0, 0), (grid.nx - 1, grid.ny - 1))
        if oracle is None:
            with pytest.raises(NoPathError):
                plan_astar(grid, start, goal, snap=False)
            continue
        path = plan_astar(grid, start, goal, snap=False)
        assert path.cost == oracle  # both canonicalize counts, so exact
        assert path_is_valid(grid, path)
        assert path.cells[0] == (0, 0)
        assert path.cells[-1] == (grid.nx - 1, grid.ny - 1)
        solved += 1
    assert solved >= 40  # the fill rate leaves most grids solvable


def test_straight_and_diagonal_costs_are_exact():
    grid = empty_grid()
    res = grid.resolution
    straight = plan_astar(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((9, 0)))
    assert straight.cost == 9 * res
    diag = plan_astar(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((9, 9)))
    assert diag.cost == 9 * res * SQRT2


def test_diagonal_squeeze_through_blocked_corner_is_forbidden():
    occupied = np.zeros((2, 2), dtype=bool)
    occupied[0, 1] = True  # cell (1, 0)
    occupied[1, 0] = True  # cell (0, 1)
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied)
    with pytest.raises(NoPathError):
        plan_astar(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((1, 1)),
                   snap=False)


def test_snap_moves_blocked_endpoints_to_nearest_free_cell():
    occupied = np.zeros((8, 8), dtype=bool)
    occupied[0, 0] = True
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied)
    path = plan_astar(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((7, 7)))
    assert grid.is_free(path.cells[0])
    assert max(abs(path.cells[0][0]), abs(path.cells[0][1])) == 1


def test_inflate_blocks_exactly_a_euclidean_disk():
    occupied = np.zeros((11, 11), dtype=bool)
    occupied[5, 5] = True
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied).inflate(2 * 0.05)
    for ix in range(11):
        for iy in range(11):
            inside = (ix - 5) ** 2 + (iy - 5) ** 2 <= 4
            assert grid.occupied[iy, ix] == inside, (ix, iy)


def test_inflate_matches_brute_force_disk_on_random_masks():
    rng = np.random.default_rng(4242)
    res = 0.25  # a power of two, so radius / resolution is exact
    for ny, nx in ((13, 17), (20, 9), (3, 5), (1, 6)):
        for _ in range(3):
            occupied = rng.random((ny, nx)) < 0.08
            # Obstacles on all four borders exercise the out-of-grid edge.
            occupied[0, rng.integers(0, nx)] = True
            occupied[-1, rng.integers(0, nx)] = True
            occupied[rng.integers(0, ny), 0] = True
            occupied[rng.integers(0, ny), -1] = True
            grid = OccupancyGrid((0.0, 0.0), res, occupied)
            for r in range(9):
                assert np.array_equal(grid.inflate(r * res).occupied,
                                      dilate_disk(occupied, r)), (ny, nx, r)


@pytest.mark.parametrize("skill", [Skill.GO_AVOID, Skill.GO_THROUGH])
def test_the_runs_expert_settings_reach_the_grid(skill):
    run = RunConfig(expert=ExpertConfig(grid_resolution=0.1, inflation_margin=0.05))
    scene = sample_scene(TaskSpec(skill, seen_object_pool(skill)[0], SpeedLevel.NORMAL,
                                  GaitName.TROT), 11)
    grid = grid_from_scene(scene, run)
    assert grid.resolution == 0.1 and grid.occupied.shape == (70, 75)
    # The same rasterization with nothing added around it.
    raw = grid_from_scene(scene, RunConfig(sim=SimConfig(footprint_radius=0.0),
                                           expert=ExpertConfig(grid_resolution=0.1,
                                                               inflation_margin=0.0)))
    assert raw.occupied.any() and not np.array_equal(raw.occupied, grid.occupied)
    r = math.ceil((run.sim.footprint_radius + 0.05) / 0.1)
    assert np.array_equal(grid.occupied, dilate_disk(raw.occupied, r))


def test_box_rasterization_matches_per_cell_test():
    # Boxes inside, straddling and beyond every border, axis-aligned and rotated.
    rng = np.random.default_rng(515)
    grid = OccupancyGrid((-0.4, 0.3), 0.05, np.zeros((17, 23), dtype=bool))
    for k in range(120):
        center = (float(rng.uniform(-0.9, 1.3)), float(rng.uniform(-0.2, 1.4)))
        half = (float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.0, 0.4)))
        yaw = float(rng.uniform(-math.pi, math.pi)) if k % 2 else (k % 4) * math.pi / 2
        mask = np.zeros((grid.ny, grid.nx), dtype=bool)
        _rasterize_box(mask, grid, center, half, yaw)
        assert np.array_equal(mask, box_cells(grid, center, half, yaw)), (center, half, yaw)


def test_nearest_free_prefers_smallest_euclidean_distance():
    occupied = np.zeros((9, 9), dtype=bool)
    occupied[0:3, 0:3] = True  # 3x3 block in the corner
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied)
    found = grid.nearest_free((0, 0))
    assert grid.is_free(found)
    # (0, 3) and (3, 0) tie at Euclidean distance 3; nothing free is closer.
    assert found[0] ** 2 + found[1] ** 2 == 9
    assert grid.nearest_free((4, 4)) == (4, 4)


def test_dstar_matches_fresh_astar_after_random_updates():
    rng = np.random.default_rng(77)
    for _ in range(25):
        grid = random_grid(rng, fill=0.15)
        start = grid.cell_to_world((0, 0))
        goal = grid.cell_to_world((grid.nx - 1, grid.ny - 1))
        planner = DStarLitePlanner(grid, start, goal)
        current = grid
        for _round in range(4):
            changes = []
            for _k in range(6):
                cell = (int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)))
                if cell in ((0, 0), (grid.nx - 1, grid.ny - 1)):
                    continue
                occ = bool(rng.integers(0, 2))
                changes.append((cell, occ))
                current = current.with_cell(cell, occ)
            planner.update_cells(changes)
            try:
                fresh = plan_astar(current, start, goal, snap=False)
            except NoPathError:
                with pytest.raises(NoPathError):
                    planner.plan()
                continue
            incremental = planner.plan()
            assert incremental.cost == fresh.cost  # canonical counts, exact
            assert path_is_valid(current, incremental)


def test_dstar_move_start_follows_the_robot():
    rng = np.random.default_rng(9)
    grid = random_grid(rng, fill=0.2)
    start = grid.cell_to_world((0, 0))
    goal = grid.cell_to_world((grid.nx - 1, grid.ny - 1))
    planner = DStarLitePlanner(grid, start, goal)
    path = planner.plan()
    # Walk three waypoints down the path, replanning at each.
    for step in (1, 2, 3):
        if step >= len(path.cells) - 1:
            break
        new_start = grid.cell_to_world(path.cells[step])
        planner.move_start(new_start)
        fresh = plan_astar(grid, new_start, goal, snap=False)
        assert planner.plan().cost == fresh.cost


def test_smooth_path_preserves_endpoints_and_visibility():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(30):
        grid = random_grid(rng, fill=0.2)
        start = grid.cell_to_world((0, 0))
        goal = grid.cell_to_world((grid.nx - 1, grid.ny - 1))
        try:
            raw = plan_astar(grid, start, goal, snap=False)
        except NoPathError:
            continue
        smooth = smooth_path(grid, raw)
        assert smooth.waypoints[0] == raw.waypoints[0]
        assert smooth.waypoints[-1] == raw.waypoints[-1]
        assert len(smooth) <= len(raw)
        for a, b in zip(smooth.waypoints, smooth.waypoints[1:]):
            assert line_of_sight(grid, a, b)
        euclid = sum(
            math.hypot(b[0] - a[0], b[1] - a[1])
            for a, b in zip(smooth.waypoints, smooth.waypoints[1:])
        )
        assert smooth.cost == pytest.approx(euclid)
        assert smooth.cost <= raw.cost + 1e-9  # shortcutting never lengthens
        checked += 1
    assert checked >= 20


def test_smooth_path_collapses_a_clear_staircase():
    grid = empty_grid(16)
    raw = plan_astar(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((15, 7)))
    smooth = smooth_path(grid, raw)
    assert len(smooth) == 2  # open room: one straight shot
    assert smooth.cost == pytest.approx(
        math.hypot(15 * grid.resolution, 7 * grid.resolution)
    )


def test_line_of_sight_detects_blockers():
    occupied = np.zeros((9, 9), dtype=bool)
    occupied[4, 4] = True
    grid = OccupancyGrid((0.0, 0.0), 0.05, occupied)
    a = grid.cell_to_world((0, 4))
    b = grid.cell_to_world((8, 4))
    assert not line_of_sight(grid, a, b)
    assert line_of_sight(grid, grid.cell_to_world((0, 0)), grid.cell_to_world((8, 0)))


def test_line_of_sight_matches_the_per_sample_reference():
    """Random segments inside and across the border of a grid with an offset
    origin, plus segments whose samples land exactly on cell edges."""
    rng = np.random.default_rng(808)
    res = 0.05
    grid = OccupancyGrid((-0.4, 0.3), res, rng.random((13, 17)) < 0.15)
    x0, y0 = grid.origin
    segments = []
    for _ in range(600):
        segments.append(tuple(
            (float(rng.uniform(x0 - 0.2, x0 + 17 * res + 0.2)),
             float(rng.uniform(y0 - 0.2, y0 + 13 * res + 0.2)))
            for _ in range(2)))
    for _ in range(600):
        # Endpoints on cell corners and edge midpoints: axis-parallel runs
        # along an edge and diagonals through corners sample on the edges.
        segments.append(tuple(
            (x0 + int(rng.integers(-2, 36)) * res / 2, y0 + int(rng.integers(-2, 28)) * res / 2)
            for _ in range(2)))
    seen = {True: 0, False: 0}
    for a, b in segments:
        want = line_of_sight_reference(grid, a, b)
        assert line_of_sight(grid, a, b) == want, (a, b)
        seen[want] += 1
    assert min(seen.values()) >= 100


def test_line_of_sight_tests_exactly_the_reference_sample_cells():
    """On a grid blocked everywhere but the reference's sample cells the
    segment is visible, and blocking any one of those cells hides it; endpoints
    on half-cell multiples put many samples exactly on cell edges."""
    rng = np.random.default_rng(909)
    res, nx, ny = 0.05, 17, 13
    origin = (-0.4, 0.3)
    checked = 0
    for _ in range(1500):
        a, b = ((origin[0] + int(rng.integers(0, 2 * nx + 1)) * res / 2,
                 origin[1] + int(rng.integers(0, 2 * ny + 1)) * res / 2) for _ in range(2))
        cells = segment_cells(OccupancyGrid(origin, res, np.zeros((ny, nx), dtype=bool)), a, b)
        if not all(0 <= ix < nx and 0 <= iy < ny for ix, iy in cells):
            continue
        only = np.ones((ny, nx), dtype=bool)
        for ix, iy in cells:
            only[iy, ix] = False
        assert line_of_sight(OccupancyGrid(origin, res, only), a, b), (a, b)
        ix, iy = cells[int(rng.integers(0, len(cells)))]
        one = np.zeros((ny, nx), dtype=bool)
        one[iy, ix] = True
        assert not line_of_sight(OccupancyGrid(origin, res, one), a, b), (a, b, (ix, iy))
        checked += 1
    assert checked >= 1000


def _occupied(n: int, *cells) -> np.ndarray:
    occupied = np.zeros((n, n), dtype=bool)
    for ix, iy in cells:
        occupied[iy, ix] = True
    return occupied


def _reference(grid, a, b):
    try:
        return smooth_path(grid, plan_astar(grid, a, b))
    except NoPathError as exc:
        return f"no path: {exc}"


def _shortcut(grid, a, b):
    """``plan_for_task``'s planner calls, and whether A* was skipped."""
    try:
        path = straight_path(grid, a, b)
        if path is not None:
            return path, True
        return smooth_path(grid, plan_astar(grid, a, b)), False
    except NoPathError as exc:
        return f"no path: {exc}", False


def _same(got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return (got.waypoints == want.waypoints and got.cells == want.cells
            and got.cost.hex() == want.cost.hex())


# name: (blocked cells of a 10x10 grid, start cell, goal cell, A* skipped)
SHORTCUT_CASES = {
    "identical": ((), (3, 3), (3, 3), False),
    "adjacent": ((), (3, 3), (4, 3), False),
    "diagonal": ((), (3, 3), (4, 4), False),
    "diagonal, one cardinal blocked": (((4, 3),), (3, 3), (4, 4), False),
    "diagonal, both cardinals blocked": (((4, 3), (3, 4)), (3, 3), (4, 4), False),
    "open row": ((), (1, 2), (8, 2), True),
    "open staircase": ((), (0, 0), (9, 4), True),
    "long diagonal, a cut corner on the way": (((3, 2),), (1, 1), (6, 6), False),
    # A wall of diagonally touching cells along the anti-diagonal: the segment
    # slips between (4, 5) and (5, 4), but no legal move crosses the wall.
    "slips between touching corners": (tuple((k, 9 - k) for k in range(10)),
                                       (2, 2), (7, 7), False),
    "endpoints snapped out of obstacles": (((0, 1), (1, 0), (1, 1), (8, 8), (9, 8)),
                                           (1, 1), (8, 8), True),
    "blocked on the way": (((5, 5),), (2, 2), (8, 8), False),
    "goal walled in": (((6, 6), (7, 6), (8, 6), (6, 7), (8, 7), (6, 8), (7, 8), (8, 8)),
                       (1, 1), (7, 7), False),
}


@pytest.mark.parametrize("name", SHORTCUT_CASES)
def test_straight_path_matches_smoothed_astar_on_built_cases(name):
    blocked, start, goal, skipped = SHORTCUT_CASES[name]
    grid = OccupancyGrid((0.0, 0.0), 0.05, _occupied(10, *blocked))
    a, b = grid.cell_to_world(start), grid.cell_to_world(goal)
    want = _reference(grid, a, b)
    got, did_skip = _shortcut(grid, a, b)
    assert _same(got, want), (got, want)
    assert did_skip == skipped


def test_straight_path_leaves_a_snap_failure_to_astar():
    grid = OccupancyGrid((0.0, 0.0), 0.05, np.ones((4, 4), dtype=bool))
    a, b = grid.cell_to_world((0, 0)), grid.cell_to_world((3, 3))
    assert straight_path(grid, a, b) is None
    want = _reference(grid, a, b)
    assert want.startswith("no path: no free cell within")
    assert _shortcut(grid, a, b) == (want, False)


def test_straight_path_matches_smoothed_astar_on_random_grids():
    rng = np.random.default_rng(3131)
    skipped = declined = 0
    for k in range(400):
        nx, ny = int(rng.integers(3, 20)), int(rng.integers(3, 20))
        grid = random_grid(rng, nx, ny, fill=float(rng.uniform(0.0, 0.4)))
        if k % 2:  # cell centres
            ends = [grid.cell_to_world((int(rng.integers(0, nx)), int(rng.integers(0, ny))))
                    for _ in range(2)]
        else:  # any point near the grid, snapped by both
            ends = [(float(rng.uniform(-0.1, nx * 0.05 + 0.1)),
                     float(rng.uniform(-0.1, ny * 0.05 + 0.1))) for _ in range(2)]
        want = _reference(grid, *ends)
        got, did_skip = _shortcut(grid, *ends)
        assert _same(got, want), (k, got, want)
        skipped += did_skip
        declined += not did_skip
    assert skipped >= 50 and declined >= 50

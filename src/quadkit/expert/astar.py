"""Grid path planning with A*.

Movement contract (shared by every planner in this package and by their
tests): 8-connected moves between free cells, cardinal steps cost one cell
resolution, diagonal steps cost resolution * sqrt(2), and a diagonal move is
legal only when both adjacent cardinal cells are free (no corner cutting).
``search_space`` is the contract's only encoding; A* here and D* Lite in
:mod:`.dstar_lite` both search it. The octile heuristic is consistent under
this contract, so returned costs are optimal. ``plan_astar`` computes it for
a cell when the cell is pushed, so a plan pays only for the cells it reaches
(a few hundred of a scene grid's twenty thousand); equal keys pop in push
order, and pushes follow ``NEIGHBOR_OFFSETS``.

Straight-segment rule: ``smooth_path`` of an A* path first tests line of sight
between its end waypoints, which are the snapped start and goal cell centres
whatever A* found in between; when it passes, the answer is that one segment.
``straight_path`` gives the same answer without running A*, and declines
(returns None) unless all three guards hold:

1. the snapped cells are more than one cell apart (Chebyshev distance > 1);
   closer ones smooth to the raw path with its step-count cost;
2. every sample of the segment lies in a free cell of the grid;
3. consecutive sample cells are legal moves, so a diagonal step has both of
   its cardinal cells free; the samples are then a path A* could take, and A*
   cannot raise ``NoPathError`` for a case the shortcut accepts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .grid import Cell, OccupancyGrid

SQRT2 = math.sqrt(2.0)

# Fixed neighbor order keeps expansion, and therefore returned paths,
# deterministic.
NEIGHBOR_OFFSETS = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)


class NoPathError(RuntimeError):
    """No collision-free path exists between the requested endpoints."""


@dataclass(frozen=True)
class PlannedPath:
    """A planned route: cell-center waypoints in meters plus total cost."""

    waypoints: tuple[tuple[float, float], ...]
    cells: tuple[Cell, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.waypoints)


def search_space(grid: OccupancyGrid, steps: tuple | None = None) -> tuple[bytearray, int, tuple]:
    """The movement contract on flat indices: ``(free, width, moves)``.

    ``free`` has one byte per cell of the grid padded by one blocked cell per
    side, so cell ``(x, y)`` is ``(y + 1) * width + x + 1`` and no move needs
    a bounds check. A move ``(offset, step cost, side_a, side_b)`` from ``i``
    is legal when ``i + offset``, ``i + side_a`` and ``i + side_b`` are free:
    a diagonal names the cardinals it must not cut, a cardinal its own target.
    Step costs are ``steps = (cardinal, diagonal)``, by default in metres.
    """
    res = grid.resolution
    cardinal, diagonal = steps or (res, res * SQRT2)
    width = grid.nx + 2
    free = bytearray(np.pad(~grid.occupied, 1).tobytes())
    moves = tuple(
        (dy * width + dx, diagonal, dx, dy * width) if dx and dy
        else (dy * width + dx, cardinal, dy * width + dx, dy * width + dx)
        for dx, dy in NEIGHBOR_OFFSETS
    )
    return free, width, moves


def flat_path(grid: OccupancyGrid, flat: list[int]) -> PlannedPath:
    """The path through these ``search_space`` indices. Its cost comes from
    step counts: optimal n_cardinal/n_diagonal pairs are unique, so
    equal-cost planners agree bit for bit."""
    width, res = grid.nx + 2, grid.resolution
    cells = tuple((n % width - 1, n // width - 1) for n in flat)
    waypoints = tuple(grid.cell_to_world(c) for c in cells)
    diag = sum(1 for a, b in zip(cells, cells[1:]) if a[0] != b[0] and a[1] != b[1])
    straight = len(cells) - 1 - diag
    return PlannedPath(waypoints=waypoints, cells=cells,
                       cost=res * straight + res * SQRT2 * diag)


def _endpoints(grid: OccupancyGrid, start_xy: tuple[float, float],
               goal_xy: tuple[float, float], snap: bool) -> tuple[Cell, Cell]:
    """The start and goal cells of a plan, snapped to the nearest free cells
    when ``snap``; raises NoPathError when either is not free."""
    start = grid.world_to_cell(*start_xy)
    goal = grid.world_to_cell(*goal_xy)
    if snap:
        try:
            start = grid.nearest_free(start)
            goal = grid.nearest_free(goal)
        except ValueError as exc:
            raise NoPathError(str(exc)) from exc
    if not grid.is_free(start) or not grid.is_free(goal):
        raise NoPathError(f"endpoint blocked: start={start} goal={goal}")
    return start, goal


def plan_astar(grid: OccupancyGrid, start_xy: tuple[float, float],
               goal_xy: tuple[float, float], snap: bool = True) -> PlannedPath:
    """Optimal path between two world points, snapping endpoints to free cells."""
    start, goal = _endpoints(grid, start_xy, goal_xy, snap)
    res = grid.resolution
    free, width, moves = search_space(grid)
    # A cardinal move's sides are its own target: mark them 0, test nothing.
    moves = tuple((offset, step, side_a, side_b) if side_a != offset else (offset, step, 0, 0)
                  for offset, step, side_a, side_b in moves)
    goal_x, goal_y = goal[0] + 1, goal[1] + 1
    src = (start[1] + 1) * width + start[0] + 1
    dst = goal_y * width + goal_x
    g = [math.inf] * len(free)
    g[src] = 0.0
    parent: dict[int, int] = {}
    # Free and not yet closed: the one byte a move's target must have set.
    open_cells = bytearray(free)
    counter = 0
    open_heap = [(0.0, counter, src)]  # popped first whatever its key
    # Octile distance to the goal: res * (max + (sqrt2 - 1) * min).
    diag_extra = SQRT2 - 1.0
    heappush, heappop = heapq.heappush, heapq.heappop
    while open_heap:
        cur = heappop(open_heap)[2]
        if not open_cells[cur]:
            continue
        if cur == dst:
            flat = [dst]
            while flat[-1] != src:
                flat.append(parent[flat[-1]])
            return flat_path(grid, flat[::-1])
        open_cells[cur] = 0
        g_cur = g[cur]
        for offset, step, side_a, side_b in moves:
            nxt = cur + offset
            if not open_cells[nxt] or side_a and not (free[cur + side_a] and free[cur + side_b]):
                continue
            cand = g_cur + step
            if cand < g[nxt] - 1e-12:
                g[nxt] = cand
                parent[nxt] = cur
                counter += 1
                y, x = divmod(nxt, width)
                dx, dy = abs(x - goal_x), abs(y - goal_y)
                h = res * (dx + diag_extra * dy) if dx > dy else res * (dy + diag_extra * dx)
                heappush(open_heap, (cand + h, counter, nxt))
    raise NoPathError(f"goal unreachable: start={start} goal={goal}")


def _free_samples(grid: OccupancyGrid, a: tuple[float, float],
                  b: tuple[float, float]) -> tuple[np.ndarray, np.ndarray] | None:
    """The cells ``(ix, iy)`` of the segment a-b sampled at half the grid
    resolution, or None when a sample leaves the grid or lands on a blocked
    cell. Each sample is ``world_to_cell(a + (i / n) * (b - a))``, elementwise."""
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(1, int(math.ceil(length / (grid.resolution / 2.0))))
    t = np.arange(n + 1) / n
    ix = np.floor((a[0] + t * (b[0] - a[0]) - grid.origin[0]) / grid.resolution)
    iy = np.floor((a[1] + t * (b[1] - a[1]) - grid.origin[1]) / grid.resolution)
    if not ((ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)).all():
        return None
    ix, iy = ix.astype(np.intp), iy.astype(np.intp)
    return None if grid.occupied[iy, ix].any() else (ix, iy)


def line_of_sight(grid: OccupancyGrid, a: tuple[float, float],
                  b: tuple[float, float]) -> bool:
    """True if the straight segment a-b stays in free cells (sampled at half
    the grid resolution)."""
    return _free_samples(grid, a, b) is not None


def straight_path(grid: OccupancyGrid, start_xy: tuple[float, float],
                  goal_xy: tuple[float, float]) -> PlannedPath | None:
    """``smooth_path(grid, plan_astar(grid, start_xy, goal_xy))`` when that is
    one straight segment and the module's three guards show it; else None.
    None also when an endpoint cannot be snapped: every unplannable scene
    is then reported by ``plan_astar`` itself."""
    try:
        start, goal = _endpoints(grid, start_xy, goal_xy, snap=True)
    except NoPathError:
        return None
    if max(abs(goal[0] - start[0]), abs(goal[1] - start[1])) <= 1:
        return None
    a, b = grid.cell_to_world(start), grid.cell_to_world(goal)
    samples = _free_samples(grid, a, b)
    if samples is None:
        return None
    ix, iy = samples
    dx, dy = np.diff(ix), np.diff(iy)
    diag = (dx != 0) & (dy != 0)
    x, y = ix[:-1][diag], iy[:-1][diag]
    if grid.occupied[y, x + dx[diag]].any() or grid.occupied[y + dy[diag], x].any():
        return None
    return PlannedPath(waypoints=(a, b), cells=(start, goal),
                       cost=math.hypot(b[0] - a[0], b[1] - a[1]))


def smooth_path(grid: OccupancyGrid, path: PlannedPath) -> PlannedPath:
    """Prune grid stairsteps: keep the farthest waypoint each anchor can see.

    The result is no longer grid-optimal in cost (its cost field is the sum
    of its segment lengths); use the raw A* output where optimality matters.
    """
    wps = path.waypoints
    if len(wps) <= 2:
        return path
    kept_idx = [0]
    i = 0
    last = len(wps) - 1
    while i < last:
        j = last
        while j > i + 1 and not line_of_sight(grid, wps[i], wps[j]):
            j -= 1
        kept_idx.append(j)
        i = j
    waypoints = tuple(wps[k] for k in kept_idx)
    cells = tuple(path.cells[k] for k in kept_idx)
    cost = sum(
        math.hypot(b[0] - a[0], b[1] - a[1])
        for a, b in zip(waypoints, waypoints[1:])
    )
    return PlannedPath(waypoints=waypoints, cells=cells, cost=cost)

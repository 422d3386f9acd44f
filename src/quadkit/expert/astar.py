"""Grid path planning with A*.

Movement contract (shared by every planner in this package and by their
tests): 8-connected moves between free cells, cardinal steps cost one cell
resolution, diagonal steps cost resolution * sqrt(2), and a diagonal move is
legal only when both adjacent cardinal cells are free (no corner cutting).
``search_space`` is the contract's only encoding; A* here and D* Lite in
:mod:`.dstar_lite` both search it. The octile heuristic is consistent under
this contract, so returned costs are optimal.
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


def octile(a: Cell, b: Cell, resolution: float) -> float:
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return resolution * (max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy))


def search_space(grid: OccupancyGrid) -> tuple[bytearray, int, tuple]:
    """The movement contract on flat indices: ``(free, width, moves)``.

    ``free`` has one byte per cell of the grid padded by one blocked cell per
    side, so cell ``(x, y)`` is ``(y + 1) * width + x + 1`` and no move needs
    a bounds check. A move ``(offset, step cost, side_a, side_b)`` from ``i``
    is legal when ``i + offset``, ``i + side_a`` and ``i + side_b`` are free:
    a diagonal names the cardinals it must not cut, a cardinal its own target.
    """
    res = grid.resolution
    width = grid.nx + 2
    free = bytearray(np.pad(~grid.occupied, 1).tobytes())
    moves = tuple(
        (dy * width + dx, res * SQRT2, dx, dy * width) if dx and dy
        else (dy * width + dx, res, dy * width + dx, dy * width + dx)
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


def plan_astar(grid: OccupancyGrid, start_xy: tuple[float, float],
               goal_xy: tuple[float, float], snap: bool = True) -> PlannedPath:
    """Optimal path between two world points, snapping endpoints to free cells."""
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

    res = grid.resolution
    free, width, moves = search_space(grid)
    src = (start[1] + 1) * width + start[0] + 1
    dst = (goal[1] + 1) * width + goal[0] + 1
    # Octile heuristic of every padded cell, with octile()'s arithmetic.
    dist_x = np.abs(np.arange(-1, width - 1) - goal[0])
    dist_y = np.abs(np.arange(-1, grid.ny + 1) - goal[1])[:, None]
    h = (res * (np.maximum(dist_x, dist_y)
                + (SQRT2 - 1.0) * np.minimum(dist_x, dist_y))).ravel().tolist()
    g = [math.inf] * len(free)
    g[src] = 0.0
    parent: dict[int, int] = {}
    closed = bytearray(len(free))
    counter = 0
    open_heap = [(h[src], counter, src)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while open_heap:
        cur = heappop(open_heap)[2]
        if closed[cur]:
            continue
        if cur == dst:
            flat = [dst]
            while flat[-1] != src:
                flat.append(parent[flat[-1]])
            return flat_path(grid, flat[::-1])
        closed[cur] = 1
        g_cur = g[cur]
        for offset, step, side_a, side_b in moves:
            nxt = cur + offset
            if closed[nxt] or not (free[nxt] and free[cur + side_a] and free[cur + side_b]):
                continue
            cand = g_cur + step
            if cand < g[nxt] - 1e-12:
                g[nxt] = cand
                parent[nxt] = cur
                counter += 1
                heappush(open_heap, (cand + h[nxt], counter, nxt))
    raise NoPathError(f"goal unreachable: start={start} goal={goal}")


def line_of_sight(grid: OccupancyGrid, a: tuple[float, float],
                  b: tuple[float, float]) -> bool:
    """True if the straight segment a-b stays in free cells (sampled at half
    the grid resolution)."""
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(1, int(math.ceil(length / (grid.resolution / 2.0))))
    for i in range(n + 1):
        t = i / n
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        if not grid.is_free(grid.world_to_cell(x, y)):
            return False
    return True


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

"""Incremental replanning with D* Lite.

Implements the two-key formulation with a lazy priority queue: stale heap
entries are skipped on pop instead of being removed in place. The planner
shares the movement contract of :mod:`.astar`, and after any sequence of
``update_cell`` / ``move_start`` calls, ``plan()`` returns a path whose cost
equals a fresh A* run on the same grid.

Costs are canonicalized from the extracted path (cardinal and diagonal step
counts), which makes that equality exact in floating point: an optimal cost
``n_c + sqrt(2) * n_d`` determines the step counts uniquely.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .astar import NoPathError, PlannedPath, canonical_cost, grid_neighbors, octile
from .grid import Cell, OccupancyGrid

_INF = math.inf


class DStarLitePlanner:
    """Plan on a mutable grid, repairing only what map edits invalidate."""

    def __init__(self, grid: OccupancyGrid, start_xy: tuple[float, float],
                 goal_xy: tuple[float, float]):
        self.grid = grid
        self.start = grid.world_to_cell(*start_xy)
        self.goal = grid.world_to_cell(*goal_xy)
        self._last = self.start
        self._km = 0.0
        self._g: dict[Cell, float] = {}
        self._rhs: dict[Cell, float] = {self.goal: 0.0}
        self._heap: list[tuple[float, float, int, Cell]] = []
        self._entries: dict[Cell, int] = {}
        self._counter = itertools.count()
        self._push(self.goal)

    # -- queue ----------------------------------------------------------------

    def _key(self, s: Cell) -> tuple[float, float]:
        m = min(self._g.get(s, _INF), self._rhs.get(s, _INF))
        return (m + octile(self.start, s, self.grid.resolution) + self._km, m)

    def _push(self, s: Cell) -> None:
        seq = next(self._counter)
        self._entries[s] = seq
        k1, k2 = self._key(s)
        heapq.heappush(self._heap, (k1, k2, seq, s))

    def _discard(self, s: Cell) -> None:
        self._entries.pop(s, None)

    def _peek(self) -> tuple[float, float]:
        while self._heap:
            k1, k2, seq, s = self._heap[0]
            if self._entries.get(s) == seq:
                return (k1, k2)
            heapq.heappop(self._heap)
        return (_INF, _INF)

    def _pop(self) -> tuple[tuple[float, float], Cell]:
        while self._heap:
            k1, k2, seq, s = heapq.heappop(self._heap)
            if self._entries.get(s) == seq:
                del self._entries[s]
                return (k1, k2), s
        raise NoPathError("priority queue exhausted")

    # -- core -----------------------------------------------------------------

    def _update_vertex(self, u: Cell) -> None:
        if u != self.goal:
            if self.grid.is_free(u):
                costs = [c + self._g.get(n, _INF) for n, c in grid_neighbors(self.grid, u)]
                self._rhs[u] = min(costs, default=_INF)
            else:
                self._rhs[u] = _INF
        self._discard(u)
        if self._g.get(u, _INF) != self._rhs.get(u, _INF):
            self._push(u)

    def _compute_shortest_path(self) -> None:
        budget = 16 * self.grid.nx * self.grid.ny + 64
        while (self._peek() < self._key(self.start)
               or self._rhs.get(self.start, _INF) != self._g.get(self.start, _INF)):
            budget -= 1
            if budget < 0:
                raise RuntimeError("replanning failed to converge")
            k_old, u = self._pop()
            k_new = self._key(u)
            if k_old < k_new:
                self._push(u)
            elif self._g.get(u, _INF) > self._rhs.get(u, _INF):
                self._g[u] = self._rhs[u]
                for n, _ in grid_neighbors(self.grid, u):
                    self._update_vertex(n)
            else:
                self._g[u] = _INF
                self._update_vertex(u)
                for n, _ in grid_neighbors(self.grid, u):
                    self._update_vertex(n)

    # -- public API -------------------------------------------------------------

    def update_cell(self, cell: Cell, occupied: bool) -> None:
        """Toggle one cell's occupancy and repair the affected vertices."""
        ix, iy = cell
        if not self.grid.in_bounds(cell):
            raise ValueError(f"cell {cell} out of bounds")
        if bool(self.grid.occupied[iy, ix]) == occupied:
            return
        self.grid = self.grid.with_cell(cell, occupied)
        # Every edge whose cost changed has both endpoints within one cell of
        # the toggle (diagonal legality depends on the adjacent cardinals).
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                u = (ix + dx, iy + dy)
                if self.grid.in_bounds(u):
                    self._update_vertex(u)

    def update_cells(self, changes) -> None:
        for cell, occupied in changes:
            self.update_cell(cell, occupied)

    def move_start(self, new_start_xy: tuple[float, float]) -> None:
        """Shift the query point, keeping previous search effort valid."""
        new_start = self.grid.world_to_cell(*new_start_xy)
        if new_start == self.start:
            return
        self._km += octile(self._last, new_start, self.grid.resolution)
        self._last = new_start
        self.start = new_start

    def plan(self) -> PlannedPath:
        """Shortest path from the current start; cost matches a fresh A*."""
        if not self.grid.is_free(self.start):
            raise NoPathError(f"start {self.start} blocked")
        self._compute_shortest_path()
        if self._g.get(self.start, _INF) == _INF:
            raise NoPathError(f"goal unreachable from {self.start}")
        cells = [self.start]
        seen = {self.start}
        while cells[-1] != self.goal:
            cur = cells[-1]
            best, best_cost = None, _INF
            for n, c in grid_neighbors(self.grid, cur):
                cand = c + self._g.get(n, _INF)
                if cand < best_cost:
                    best, best_cost = n, cand
            if best is None or best in seen:
                raise NoPathError("path extraction failed")
            cells.append(best)
            seen.add(best)
        cells_t = tuple(cells)
        waypoints = tuple(self.grid.cell_to_world(c) for c in cells_t)
        return PlannedPath(waypoints=waypoints, cells=cells_t,
                           cost=canonical_cost(cells_t, self.grid.resolution))

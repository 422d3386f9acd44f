"""Incremental replanning with D* Lite.

Implements the two-key formulation with a lazy priority queue: stale heap
entries are skipped on pop instead of being removed in place. The planner
searches A*'s :func:`.astar.search_space` by flat index, and a map edit flips
one of its bytes. After any sequence of ``update_cell`` / ``move_start``
calls, ``plan()`` returns a path whose cost equals a fresh A* run on the
same grid.

Keys are exact integers in cell units: a cardinal step costs ``_UNIT`` and a
diagonal ``_DIAG``, ``_UNIT * sqrt(2)`` rounded down. Float keys in metres
round sums of equal cost apart and break ties that the second key should
decide, so a repair could stop early. Integer sums ``n_c * _UNIT + n_d *
_DIAG`` are equal exactly when their step counts are, and they order like
the true costs ``n_c + sqrt(2) * n_d`` while the counts stay below about
2**15 steps. The returned metric cost is rebuilt from the extracted path's
step counts, the same way as A*'s, so the two agree in floating point.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .astar import NoPathError, PlannedPath, flat_path, search_space
from .grid import Cell, OccupancyGrid

_INF = math.inf
_UNIT = 1 << 32
_DIAG = math.isqrt(2 * _UNIT * _UNIT)


def _octile(a: Cell, b: Cell) -> int:
    """Octile distance between two cells in the planner's integer units."""
    dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
    return _UNIT * abs(dx - dy) + _DIAG * min(dx, dy)


class DStarLitePlanner:
    """Plan on a mutable grid, repairing only what map edits invalidate."""

    def __init__(self, grid: OccupancyGrid, start_xy: tuple[float, float],
                 goal_xy: tuple[float, float]):
        # The grid gives the geometry; occupancy lives in self._free.
        self._grid = grid
        self._free, self._width, self._moves = search_space(grid, steps=(_UNIT, _DIAG))
        self.start = grid.world_to_cell(*start_xy)
        self.goal = grid.world_to_cell(*goal_xy)
        self._last = self.start
        self._km = 0
        self._g = [_INF] * len(self._free)
        self._rhs = [_INF] * len(self._free)
        self._heap: list[tuple[int, int, int, int]] = []
        self._entries: dict[int, int] = {}
        self._counter = itertools.count()
        # A goal outside the grid is never entered, so it seeds nothing.
        self._goal = self._index(self.goal)
        if self._goal is not None:
            self._rhs[self._goal] = 0
            self._push(self._goal)

    def _index(self, cell: Cell) -> int | None:
        """Flat search-space index of an in-grid cell; None outside it."""
        if not self._grid.in_bounds(cell):
            return None
        return (cell[1] + 1) * self._width + cell[0] + 1

    def _neighbors(self, u: int):
        """Yield (index, step cost) of each legal move out of ``u``."""
        free = self._free
        for offset, step, side_a, side_b in self._moves:
            if free[u + offset] and free[u + side_a] and free[u + side_b]:
                yield u + offset, step

    # -- queue ----------------------------------------------------------------

    def _key(self, s: int) -> tuple[float, float]:
        m = min(self._g[s], self._rhs[s])
        cell = (s % self._width - 1, s // self._width - 1)
        return (m + _octile(self.start, cell) + self._km, m)

    def _push(self, s: int) -> None:
        seq = next(self._counter)
        self._entries[s] = seq
        k1, k2 = self._key(s)
        heapq.heappush(self._heap, (k1, k2, seq, s))

    def _peek(self) -> tuple[float, float]:
        """Top key after dropping stale entries; (inf, inf) when empty."""
        heap = self._heap
        while heap and self._entries.get(heap[0][3]) != heap[0][2]:
            heapq.heappop(heap)
        return heap[0][:2] if heap else (_INF, _INF)

    def _pop(self) -> tuple[tuple[float, float], int]:
        self._peek()
        if not self._heap:
            raise NoPathError("priority queue exhausted")
        k1, k2, _, s = heapq.heappop(self._heap)
        del self._entries[s]
        return (k1, k2), s

    # -- core -----------------------------------------------------------------

    def _update_vertex(self, u: int) -> None:
        if u != self._goal:
            if self._free[u]:
                costs = [c + self._g[n] for n, c in self._neighbors(u)]
                self._rhs[u] = min(costs, default=_INF)
            else:
                self._rhs[u] = _INF
        self._entries.pop(u, None)
        if self._g[u] != self._rhs[u]:
            self._push(u)

    def _compute_shortest_path(self, start: int) -> None:
        g, rhs = self._g, self._rhs
        budget = 16 * self._grid.nx * self._grid.ny + 64
        while self._peek() < self._key(start) or rhs[start] != g[start]:
            budget -= 1
            if budget < 0:
                raise RuntimeError("replanning failed to converge")
            k_old, u = self._pop()
            k_new = self._key(u)
            if k_old < k_new:
                self._push(u)
                continue
            if g[u] > rhs[u]:
                g[u] = rhs[u]
            else:
                g[u] = _INF
                self._update_vertex(u)
            for n, _ in self._neighbors(u):
                self._update_vertex(n)

    # -- public API -------------------------------------------------------------

    def update_cell(self, cell: Cell, occupied: bool) -> None:
        """Toggle one cell's occupancy and repair the affected vertices."""
        i = self._index(cell)
        if i is None:
            raise ValueError(f"cell {cell} out of bounds")
        if self._free[i] == (not occupied):
            return
        self._free[i] = not occupied
        # Every edge whose cost changed has both endpoints within one cell of
        # the toggle (diagonal legality depends on the adjacent cardinals).
        ix, iy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                u = self._index((ix + dx, iy + dy))
                if u is not None:
                    self._update_vertex(u)

    def update_cells(self, changes) -> None:
        for cell, occupied in changes:
            self.update_cell(cell, occupied)

    def move_start(self, new_start_xy: tuple[float, float]) -> None:
        """Shift the query point, keeping previous search effort valid."""
        new_start = self._grid.world_to_cell(*new_start_xy)
        if new_start == self.start:
            return
        self._km += _octile(self._last, new_start)
        self._last = new_start
        self.start = new_start

    def plan(self) -> PlannedPath:
        """Shortest path from the current start; cost matches a fresh A*."""
        start = self._index(self.start)
        if start is None or not self._free[start]:
            raise NoPathError(f"start {self.start} blocked")
        self._compute_shortest_path(start)
        if self._g[start] == _INF:
            raise NoPathError(f"goal unreachable from {self.start}")
        flat = [start]
        seen = {start}
        while flat[-1] != self._goal:
            best, best_cost = None, _INF
            for n, c in self._neighbors(flat[-1]):
                cand = c + self._g[n]
                if cand < best_cost:
                    best, best_cost = n, cand
            if best is None or best in seen:
                raise NoPathError("path extraction failed")
            flat.append(best)
            seen.add(best)
        return flat_path(self._grid, flat)

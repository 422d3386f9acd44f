"""Independent reference implementations used as test oracles.

These deliberately re-derive results from first principles (textbook
Dijkstra over the same movement rule, a disk stamped around every occupied
cell, pinhole projection area) instead of
calling the code under test, so agreement is evidence of correctness rather
than tautology.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from quadkit.expert.grid import OccupancyGrid

SQRT2 = math.sqrt(2.0)


def dijkstra_cost(grid: OccupancyGrid, start, goal) -> float | None:
    """Optimal 8-connected path cost from start to goal cell, or None.

    Diagonal moves are forbidden when either orthogonal neighbor is blocked
    (no squeezing through corners). Costs are tracked as integer counts of
    straight/diagonal moves and only converted to float for comparison, so
    the returned value is bit-reproducible.
    """
    if not (grid.is_free(start) and grid.is_free(goal)):
        return None
    if start == goal:
        return 0.0
    best: dict[tuple[int, int], float] = {start: 0.0}
    heap = [(0.0, 0, 0, start)]
    while heap:
        key, s_cnt, d_cnt, cell = heapq.heappop(heap)
        if key > best.get(cell, math.inf):
            continue
        if cell == goal:
            return grid.resolution * s_cnt + grid.resolution * SQRT2 * d_cnt
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (cx + dx, cy + dy)
                if not grid.is_free(nxt):
                    continue
                diagonal = dx != 0 and dy != 0
                if diagonal and not (grid.is_free((cx + dx, cy))
                                     and grid.is_free((cx, cy + dy))):
                    continue
                ns, nd = (s_cnt, d_cnt + 1) if diagonal else (s_cnt + 1, d_cnt)
                nkey = ns + SQRT2 * nd
                if nkey < best.get(nxt, math.inf):
                    best[nxt] = nkey
                    heapq.heappush(heap, (nkey, ns, nd, nxt))
    return None


def dilate_disk(occupied: np.ndarray, radius_cells: int) -> np.ndarray:
    """Mark every cell within Euclidean distance ``radius_cells`` of an
    occupied cell, by stamping the disk around each occupied cell in turn.

    Stamps that fall outside the grid are dropped: there is nothing beyond
    the border to block.
    """
    ny, nx = occupied.shape
    out = np.zeros((ny, nx), dtype=bool)
    r = radius_cells
    for oy, ox in zip(*np.nonzero(occupied)):
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                y, x = oy + dy, ox + dx
                if dx * dx + dy * dy <= r * r and 0 <= y < ny and 0 <= x < nx:
                    out[y, x] = True
    return out


def box_cells(grid: OccupancyGrid, center, half_extents, yaw: float) -> np.ndarray:
    """Cells whose center lies within half a cell of a rotated box, testing
    every cell of the grid in the box's own frame."""
    res = grid.resolution
    c, s = math.cos(-yaw), math.sin(-yaw)
    out = np.zeros((grid.ny, grid.nx), dtype=bool)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            x = grid.origin[0] + (ix + 0.5) * res
            y = grid.origin[1] + (iy + 0.5) * res
            u = (x - center[0]) * c - (y - center[1]) * s
            v = (x - center[0]) * s + (y - center[1]) * c
            out[iy, ix] = (abs(u) <= half_extents[0] + res / 2.0
                           and abs(v) <= half_extents[1] + res / 2.0)
    return out


def random_grid(rng: np.random.Generator, nx: int = 16, ny: int = 16,
                fill: float = 0.25, resolution: float = 0.05) -> OccupancyGrid:
    """Random occupancy grid with free start/goal corners."""
    occupied = rng.random((ny, nx)) < fill
    occupied[0, 0] = False
    occupied[ny - 1, nx - 1] = False
    return OccupancyGrid(origin=(0.0, 0.0), resolution=resolution,
                         occupied=occupied)

"""Independent reference implementations used as test oracles.

These deliberately re-derive results from first principles (textbook
Dijkstra over the same movement rule, a disk stamped around every occupied
cell, pinhole projection area, a full sort for nearest neighbours) instead of
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


def knn_reference(features: np.ndarray, labels: np.ndarray, k: int,
                  query: np.ndarray, vocab: int) -> tuple[int, ...]:
    """kNN vote by definition: the first k of a stable argsort of all squared
    distances, then one ``bincount`` per token position (ties go to the
    smaller token, the first maximum).

    The distance is the policy's own float32 expression, because which
    distances are equal is part of the contract and depends on rounding.
    """
    f = features.astype(np.float32)
    q = query.astype(np.float32)
    d2 = (f ** 2).sum(axis=1) - 2.0 * (f @ q) + float(q @ q)
    votes = labels[np.argsort(d2, kind="stable")[:k]]
    return tuple(int(np.bincount(votes[:, j], minlength=vocab).argmax())
                 for j in range(votes.shape[1]))


def block_mean_pool(image: np.ndarray, rows: int = 6, cols: int = 8) -> np.ndarray:
    """Per-channel means of a rows x cols block grid (remainders cropped), in [0, 1]."""
    h, w, c = image.shape
    rh, rw = h // rows, w // cols
    blocks = image[: rh * rows, : rw * cols].reshape(rows, rh, cols, rw, c)
    return blocks.mean(axis=(1, 3)).reshape(-1) / 255.0

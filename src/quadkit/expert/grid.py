"""Occupancy grid used by the path planners.

The grid rasterizes the scene's blocking geometry (obstacles, letter boxes,
tunnel walls) at the run's resolution and then inflates it by the robot's
footprint radius plus the run's safety margin, so planners can treat the
robot as a point. Bars and target objects never enter the grid: the robot
crawls under the former and is allowed to stop next to the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import RunConfig
from ..world.entities import Entity, EntityKind, SOLID_KINDS
from ..world.scene import Scene

Cell = tuple[int, int]

NEAREST_FREE_RADIUS = 40  # cells searched around a blocked endpoint


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean occupancy over a rectangular region.

    ``occupied[iy, ix]`` covers the square whose center is
    ``origin + resolution * (ix + 0.5, iy + 0.5)``. Cells are addressed as
    ``(ix, iy)`` tuples everywhere in the planner API.
    """

    origin: tuple[float, float]
    resolution: float
    occupied: np.ndarray

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.occupied.dtype != np.bool_ or self.occupied.ndim != 2:
            raise ValueError("occupied must be a 2-D boolean array")
        self.occupied.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.occupied.shape[1]

    @property
    def ny(self) -> int:
        return self.occupied.shape[0]

    def world_to_cell(self, x: float, y: float) -> Cell:
        ix = int(math.floor((x - self.origin[0]) / self.resolution))
        iy = int(math.floor((y - self.origin[1]) / self.resolution))
        return ix, iy

    def cell_to_world(self, cell: Cell) -> tuple[float, float]:
        ix, iy = cell
        return (
            self.origin[0] + (ix + 0.5) * self.resolution,
            self.origin[1] + (iy + 0.5) * self.resolution,
        )

    def in_bounds(self, cell: Cell) -> bool:
        ix, iy = cell
        return 0 <= ix < self.nx and 0 <= iy < self.ny

    def is_free(self, cell: Cell) -> bool:
        ix, iy = cell
        return self.in_bounds(cell) and not self.occupied[iy, ix]

    def with_cell(self, cell: Cell, occupied: bool) -> "OccupancyGrid":
        """Copy of this grid with one cell toggled."""
        if not self.in_bounds(cell):
            raise ValueError(f"cell {cell} out of bounds")
        grid = self.occupied.copy()
        grid[cell[1], cell[0]] = occupied
        return OccupancyGrid(self.origin, self.resolution, grid)

    def inflate(self, radius: float) -> "OccupancyGrid":
        """Dilate occupancy by a disk of the given metric radius; cells
        beyond the border count as free."""
        r = max(0, int(math.ceil(radius / self.resolution)))
        src = self.occupied
        rows = [src]  # rows[w]: src OR-ed over the horizontal shifts -w..w
        for w in range(1, r + 1):
            row = rows[-1].copy()
            row[:, w:] |= src[:, :-w]
            row[:, :-w] |= src[:, w:]
            rows.append(row)
        dilated = rows[r].copy()
        for dy in range(1, r + 1):  # the disk's row at dy spans |dx| <= isqrt(r^2 - dy^2)
            row = rows[math.isqrt(r * r - dy * dy)]
            dilated[dy:] |= row[:-dy]
            dilated[:-dy] |= row[dy:]
        return OccupancyGrid(self.origin, self.resolution, dilated)

    def nearest_free(self, cell: Cell) -> Cell:
        """Closest free cell to ``cell``, searching outward ring by ring."""
        if self.is_free(cell):
            return cell
        cx, cy = cell
        for r in range(1, NEAREST_FREE_RADIUS + 1):
            best = None
            for dx in range(-r, r + 1):
                for dy in range(-r, r + 1):
                    if max(abs(dx), abs(dy)) != r:
                        continue
                    cand = (cx + dx, cy + dy)
                    if self.is_free(cand):
                        d = dx * dx + dy * dy
                        if best is None or d < best[0]:
                            best = (d, cand)
            if best is not None:
                return best[1]
        raise ValueError(f"no free cell within {NEAREST_FREE_RADIUS} cells of {cell}")


def _rasterize_box(mask: np.ndarray, grid: OccupancyGrid, center: tuple[float, float],
                   half_extents: tuple[float, float], yaw: float) -> None:
    res = grid.resolution
    c, s = math.cos(-yaw), math.sin(-yaw)
    # Any cell whose center lies within half a cell of the box is blocked.
    pad = res / 2.0
    hx, hy = half_extents[0] + pad, half_extents[1] + pad
    # Test only the cells within the padded box's axis-aligned bounds, plus
    # one cell of slack for rounding.
    ex, ey = abs(c) * hx + abs(s) * hy + res, abs(s) * hx + abs(c) * hy + res
    ix0, iy0 = grid.world_to_cell(center[0] - ex, center[1] - ey)
    ix1, iy1 = grid.world_to_cell(center[0] + ex, center[1] + ey)
    ix0, iy0 = max(ix0, 0), max(iy0, 0)
    ix1, iy1 = max(ix0, min(ix1 + 1, grid.nx)), max(iy0, min(iy1 + 1, grid.ny))
    xs = grid.origin[0] + (np.arange(ix0, ix1) + 0.5) * res
    ys = grid.origin[1] + (np.arange(iy0, iy1) + 0.5) * res
    gx, gy = np.meshgrid(xs, ys)
    u = (gx - center[0]) * c - (gy - center[1]) * s
    v = (gx - center[0]) * s + (gy - center[1]) * c
    mask[iy0:iy1, ix0:ix1] |= (np.abs(u) <= hx) & (np.abs(v) <= hy)


def _rasterize_entity(mask: np.ndarray, grid: OccupancyGrid, ent: Entity) -> None:
    x, y, yaw = ent.pose
    if ent.kind in SOLID_KINDS:
        _rasterize_box(mask, grid, (x, y), (ent.dims[0] / 2.0, ent.dims[1] / 2.0), yaw)
    elif ent.kind is EntityKind.TUNNEL:
        passage = ent.attributes["passage_width"]
        thickness = ent.attributes.get(
            "wall_thickness", ent.attributes["outer_halfwidth"] - passage / 2.0
        )
        wall_center = passage / 2.0 + thickness / 2.0
        for side in (-1.0, 1.0):
            cy = y + side * wall_center
            _rasterize_box(mask, grid, (x, cy), (ent.dims[0] / 2.0, thickness / 2.0), yaw)


def grid_from_scene(scene: Scene, run: RunConfig) -> OccupancyGrid:
    """The planning grid of a scene over ``run.sim.arena`` at the expert's
    resolution, inflated by the footprint radius plus the expert's margin."""
    x0, _, y0, _ = run.sim.arena
    resolution = run.expert.grid_resolution
    nx, ny = run.grid_cells
    mask = np.zeros((ny, nx), dtype=bool)
    grid = OccupancyGrid((x0, y0), resolution, mask.copy())
    for ent in scene.entities:
        _rasterize_entity(mask, grid, ent)
    inflation = run.sim.footprint_radius + run.expert.inflation_margin
    return OccupancyGrid((x0, y0), resolution, mask).inflate(inflation)

"""Independent reference implementations used as test oracles.

These deliberately re-derive results from first principles (textbook
Dijkstra over the same movement rule, line of sight one sample at a time, a
disk stamped around every occupied cell, pinhole projection area, a full sort
for nearest neighbours) instead of calling the code under test, so agreement
is evidence of correctness rather than tautology. The world-layer references
(``step_reference``, ``render_reference``) are the straightforward
per-substep, per-entity forms of the simulator and renderer: a fresh
``BodyState`` and a walk over every entity on each substep, one projection
per entity on each frame.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np

from quadkit.config import CameraConfig, SimConfig
from quadkit.evaluation.policies import _encode_spec, _featurize
from quadkit.expert.grid import OccupancyGrid
from quadkit.world.camera import COLOR_RGB, GROUND_RGB, SKY_RGB
from quadkit.world.entities import ROUND_SHAPES, SOLID_KINDS, EntityKind
from quadkit.world.sim import SimulationError, check_success
from quadkit.world.state import BodyState, Status

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


def segment_cells(grid: OccupancyGrid, a, b) -> list[tuple[int, int]]:
    """The cell of each sample of the segment a-b, one sample at a time: every
    half cell, at ``t = i / n``."""
    length = math.hypot(b[0] - a[0], b[1] - a[1])
    n = max(1, int(math.ceil(length / (grid.resolution / 2.0))))
    cells = []
    for i in range(n + 1):
        t = i / n
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        cells.append(grid.world_to_cell(x, y))
    return cells


def line_of_sight_reference(grid: OccupancyGrid, a, b) -> bool:
    """Line of sight with each sample's cell tested on its own."""
    return all(grid.is_free(cell) for cell in segment_cells(grid, a, b))


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


def knn_fit_reference(episodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kNN fit step by step: ``(features, sq, labels)``.

    Each step's float64 ``_featurize`` row, stacked into float32; each row's
    float32 sum of squares over the whole matrix at once; the token rows.
    """
    feats, labels = [], []
    for ep in episodes:
        spec_features = _encode_spec(ep.task)
        for step in ep.steps:
            feats.append(_featurize(step.image, spec_features))
            labels.append(step.tokens)
    features = np.stack(feats, dtype=np.float32)
    return features, (features ** 2).sum(axis=1), np.asarray(labels).astype(np.int64)


def block_mean_pool(image: np.ndarray, rows: int = 6, cols: int = 8) -> np.ndarray:
    """Per-channel means of a rows x cols block grid (remainders cropped), in [0, 1]."""
    h, w, c = image.shape
    rh, rw = h // rows, w // cols
    blocks = image[: rh * rows, : rw * cols].reshape(rows, rh, cols, rw, c)
    return blocks.mean(axis=(1, 3)).reshape(-1) / 255.0


# -- world layer -------------------------------------------------------------------


def _slew(current: float, target: float, rate: float, dt: float) -> float:
    step = rate * dt
    if target > current:
        return min(current + step, target)
    return max(current - step, target)


def _integrate_substep(pose, body: BodyState, cmd, slew, dt: float):
    """One high-rate substep: translate with the current yaw, then rotate,
    then slew body parameters."""
    x, y, yaw = pose
    x += (cmd.v_x * math.cos(yaw) - cmd.v_y * math.sin(yaw)) * dt
    y += (cmd.v_x * math.sin(yaw) + cmd.v_y * math.cos(yaw)) * dt
    yaw += cmd.omega_z * dt
    new_body = BodyState(
        h_z=_slew(body.h_z, cmd.h_z, slew.h_z, dt),
        phi=_slew(body.phi, cmd.phi, slew.phi, dt),
        s_y=_slew(body.s_y, cmd.s_y, slew.s_y, dt),
        h_z_f=_slew(body.h_z_f, cmd.h_z_f, slew.h_z_f, dt),
        theta=(
            _slew(body.theta[0], cmd.theta_1, slew.theta, dt),
            _slew(body.theta[1], cmd.theta_2, slew.theta, dt),
            _slew(body.theta[2], cmd.theta_3, slew.theta, dt),
        ),
        f=_slew(body.f, cmd.f, slew.f, dt),
    )
    return (x, y, yaw), new_body


def footprint_distance(ent, x: float, y: float) -> float:
    """Distance from (x, y) to an entity's footprint boundary (<= 0 inside):
    a circle of diameter dx for round shapes, else the axis-aligned box."""
    ex, ey, _ = ent.pose
    if ent.shape in ROUND_SHAPES:
        return ((x - ex) ** 2 + (y - ey) ** 2) ** 0.5 - ent.dims[0] / 2.0
    hx, hy = ent.dims[0] / 2.0, ent.dims[1] / 2.0
    dx = max(abs(x - ex) - hx, 0.0)
    dy = max(abs(y - ey) - hy, 0.0)
    if dx == 0.0 and dy == 0.0:
        return max(abs(x - ex) - hx, abs(y - ey) - hy)
    return (dx * dx + dy * dy) ** 0.5


def _passable_halfwidth(tunnel, body_height: float) -> float:
    passage = tunnel.attributes["passage_width"] / 2.0
    if tunnel.attributes.get("cross_section") == "triangle":
        height = tunnel.attributes["height"]
        return passage * max(0.0, 1.0 - body_height / height)
    return passage


def collision_reference(pose, body: BodyState, entities, config: SimConfig) -> str | None:
    """The first violation of any entity, walking the entity list in order."""
    x, y, _ = pose
    r = config.footprint_radius
    for ent in entities:
        if ent.kind in SOLID_KINDS:
            if footprint_distance(ent, x, y) < r:
                return f"footprint hit {ent.kind.value} ({ent.shape})"
        elif ent.kind is EntityKind.TUNNEL:
            ex, ey, _ = ent.pose
            depth = ent.dims[0]
            lateral = abs(y - ey)
            outer = ent.attributes["outer_halfwidth"]
            if lateral >= outer + r:
                continue
            if abs(x - ex) <= depth / 2.0:
                half = _passable_halfwidth(ent, body.h_z)
                if lateral > max(half - r, 0.0):
                    return "footprint hit tunnel wall"
                if body.s_y > 2.0 * half:
                    return "stance wider than tunnel passage"
            elif abs(x - ex) < depth / 2.0 + r:
                if lateral > ent.attributes["passage_width"] / 2.0 - r:
                    return "footprint hit tunnel wall"
        elif ent.kind is EntityKind.BAR:
            bx, by, _ = ent.pose
            if abs(x - bx) <= ent.dims[0] / 2.0 + r and abs(y - by) <= ent.dims[1] / 2.0:
                if body.h_z >= ent.attributes["clearance"]:
                    return "body height above bar clearance"
    return None


def step_reference(sim, a):
    """Advance ``sim`` by one command tick, integrating each substep with a
    fresh ``BodyState`` and checking bar crossings and collisions against
    every entity; the per-tick bookkeeping is the simulator's own."""
    if sim.done:
        raise SimulationError(f"episode already terminal ({sim.status.value})")
    cfg = sim.config
    rates = cfg.rates
    pose, body = sim.state.robot_pose, sim.state.body
    collided = None
    for _ in range(rates.substeps):
        pose, body = _integrate_substep(pose, body, a, cfg.slew, rates.substep_dt)
        for ent in sim.scene.entities:
            if (ent.kind is EntityKind.BAR
                    and pose[0] > ent.pose[0] + ent.dims[0] / 2.0 + cfg.footprint_radius):
                sim.state.bar_passed = True
        collided = collision_reference(pose, body, sim.state.entities, cfg)
        if collided is not None:
            break
    if not all(math.isfinite(v) for v in pose):
        raise SimulationError(f"non-finite pose after integration: {pose}")
    step_count = sim.state.step_count + 1
    sim.state = replace(sim.state, robot_pose=pose, body=body,
                        sim_time=step_count / rates.f_low, step_count=step_count)
    sim._update_orientation_hold()
    sim._maybe_release_ball()
    if collided is not None:
        sim.status, sim.violation = Status.COLLISION, collided
    elif not sim._in_arena():
        sim.status = Status.OUT_OF_BOUNDS
    else:
        sim.status = check_success(sim.state, sim.scene, cfg)
    return sim.outcome()


def _dot3(rel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of ``rel`` dotted with ``v`` as ``(a*v0 + b*v1) + c*v2``:
    plain elementwise products and sums, no BLAS kernel to choose a
    summation order or fuse a multiply-add."""
    return (rel[:, 0] * v[0] + rel[:, 1] * v[1]) + rel[:, 2] * v[2]


def render_reference(state, intrinsics: CameraConfig | None = None) -> np.ndarray:
    """First-person raster with one pinhole projection per entity, far first."""
    cam = intrinsics or CameraConfig()
    w, h = cam.width, cam.height
    fx = (w / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
    cx, cy_px = w / 2.0, h / 2.0

    x, y, yaw = state.robot_pose
    pitch = state.body.phi
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    forward = np.array([cp * cy, cp * sy, sp])
    right = np.array([sy, -cy, 0.0])
    down = np.cross(forward, right)
    cam_pos = np.array([
        x + cam.forward_offset * math.cos(yaw),
        y + cam.forward_offset * math.sin(yaw),
        state.body.h_z + cam.height_offset,
    ])

    img = np.empty((h, w, 3), dtype=np.uint8)
    horizon = cy_px + fx * math.tan(pitch)
    split = min(max(int(math.ceil(horizon)), 0), h)
    img[:split] = SKY_RGB
    img[split:] = GROUND_RGB

    order = sorted(
        state.entities,
        key=lambda e: -((e.pose[0] - x) ** 2 + (e.pose[1] - y) ** 2),
    )
    for ent in order:
        ex, ey, _ = ent.pose
        hx, hy, dz = ent.dims[0] / 2.0, ent.dims[1] / 2.0, ent.dims[2]
        corners = np.array([
            [ex + sx * hx, ey + sy_ * hy, z]
            for sx in (-1, 1) for sy_ in (-1, 1) for z in (0.0, dz)
        ])
        rel = corners - cam_pos
        zc = _dot3(rel, forward)
        if (zc <= cam.near_plane).all():
            continue
        zc = np.maximum(zc, cam.near_plane)
        u = cx + fx * _dot3(rel, right) / zc
        v = cy_px + fx * _dot3(rel, down) / zc
        u0, u1 = int(round(u.min())), int(round(u.max()))
        v0, v1 = int(round(v.min())), int(round(v.max()))
        u0, u1 = max(u0, 0), min(u1, w)
        v0, v1 = max(v0, 0), min(v1, h)
        if u0 < u1 and v0 < v1:
            img[v0:v1, u0:u1] = COLOR_RGB[ent.color]
    return img

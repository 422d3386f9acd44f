"""Schematic first-person rendering.

A pinhole camera rides at the front of the body, yawed with the robot and
pitched with the realized body pitch. Entities render as color-filled
bounding boxes in painter's order; ground and sky fill the rest. The raster
is a pure function of (state, intrinsics): identical states give
byte-identical images.

All entities' corners are projected together: one ``(8N, 3) @ (3,)``
product per camera axis, with the same elementwise expressions as projecting
each entity's ``(8, 3)`` corners on its own, and boxes rounded half to even
as ``round`` does. The camera's down axis is ``forward x right`` written out
term by term as ``np.cross`` computes it. The bytes are the same as a
per-entity projection (``tests/oracles.py`` keeps that form as the
reference).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..config import CameraConfig
from ..taxonomy import Color
from .state import WorldState

# Fixed palette; ground and sky are distinct from every entity color.
COLOR_RGB = {
    Color.GREEN: (40, 170, 70),
    Color.RED: (200, 40, 40),
    Color.BLUE: (40, 90, 200),
    Color.YELLOW: (230, 200, 40),
    Color.GOLD: (218, 165, 32),
    Color.PINK: (255, 105, 180),
    Color.ORANGE: (240, 140, 20),
    Color.PURPLE: (140, 60, 160),
}
GROUND_RGB = (120, 110, 100)
SKY_RGB = (180, 210, 235)


@dataclass(frozen=True)
class Observation:
    image: np.ndarray          # (H, W, 3) uint8

    def __post_init__(self):
        if self.image.dtype != np.uint8 or self.image.ndim != 3:
            raise ValueError("observation image must be (H, W, 3) uint8")


# Corner order of an entity's bounding box: x sign, then y sign, then base
# (z = 0) before top (z = dz).
_CORNER_X = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
_CORNER_Y = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_CORNER_TOP = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


@functools.lru_cache(maxsize=64)
def _row(rgb: tuple[int, int, int], width: int) -> np.ndarray:
    """``width`` pixels of one color as a flat, read-only uint8 row."""
    row = np.tile(np.array(rgb, dtype=np.uint8), width)
    row.flags.writeable = False
    return row


def _camera_basis(yaw: float, pitch: float):
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    f0, f1, f2 = cp * cy, cp * sy, sp
    r0, r1, r2 = sy, -cy, 0.0
    down = (f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0)
    return np.array([r0, r1, r2]), np.array(down), np.array([f0, f1, f2])


def render_observation(state: WorldState, intrinsics: CameraConfig | None = None) -> Observation:
    cam = intrinsics or CameraConfig()
    w, h = cam.width, cam.height
    fx = (w / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
    cx, cy_px = w / 2.0, h / 2.0

    x, y, yaw = state.robot_pose
    pitch = state.body.phi
    right, down, forward = _camera_basis(yaw, pitch)
    cam_pos = np.array([
        x + cam.forward_offset * math.cos(yaw),
        y + cam.forward_offset * math.sin(yaw),
        state.body.h_z + cam.height_offset,
    ])

    img = np.empty((h, w, 3), dtype=np.uint8)
    pixels = img.reshape(h, w * 3)  # a view: one row of w RGB triples per line
    horizon = cy_px + fx * math.tan(pitch)
    split = min(max(int(math.ceil(horizon)), 0), h)
    pixels[:split] = _row(SKY_RGB, w)
    pixels[split:] = _row(GROUND_RGB, w)

    # Painter's order: far entities first.
    order = sorted(
        state.entities,
        key=lambda e: -((e.pose[0] - x) ** 2 + (e.pose[1] - y) ** 2),
    )
    n = len(order)
    boxes = np.array([
        (e.pose[0], e.pose[1], e.dims[0] / 2.0, e.dims[1] / 2.0, e.dims[2])
        for e in order
    ]).reshape(n, 5)
    rel = np.empty((n, 8, 3))
    rel[:, :, 0] = boxes[:, 0:1] + _CORNER_X * boxes[:, 2:3]
    rel[:, :, 1] = boxes[:, 1:2] + _CORNER_Y * boxes[:, 3:4]
    rel[:, :, 2] = _CORNER_TOP * boxes[:, 4:5]
    rel -= cam_pos
    rel = rel.reshape(-1, 3)
    zc = rel @ forward
    visible = ~(zc <= cam.near_plane).reshape(n, 8).all(axis=1)
    zc = np.maximum(zc, cam.near_plane)
    uv = np.array([[cx], [cy_px]]) + fx * np.array([rel @ right, rel @ down]) / zc
    uv = uv.reshape(2, n, 8)
    # Round both edges so the filled area is unbiased wrt the exact box.
    (u0s, v0s), (u1s, v1s) = (np.rint(uv.min(axis=2)).tolist(),
                              np.rint(uv.max(axis=2)).tolist())
    for ent, shown, u0, u1, v0, v1 in zip(order, visible.tolist(), u0s, u1s, v0s, v1s):
        if not shown:
            continue
        u0, u1 = max(int(u0), 0), min(int(u1), w)
        v0, v1 = max(int(v0), 0), min(int(v1), h)
        if u0 < u1 and v0 < v1:
            pixels[v0:v1, 3 * u0:3 * u1] = _row(COLOR_RGB[ent.color], w)[:3 * (u1 - u0)]

    img.flags.writeable = False
    return Observation(img)


def to_ppm(obs_or_image) -> bytes:
    """Serialize a raster as binary PPM (P6)."""
    image = obs_or_image.image if isinstance(obs_or_image, Observation) else obs_or_image
    h, w, _ = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + image.tobytes()


def from_ppm(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6) produced by :func:`to_ppm`."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    parts = data.split(b"\n", 3)
    w, h = (int(t) for t in parts[1].split())
    raster = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return raster.reshape(h, w, 3)

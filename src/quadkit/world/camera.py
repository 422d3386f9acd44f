"""Schematic first-person rendering.

A pinhole camera rides at the front of the body, yawed with the robot and
pitched with the realized body pitch. Entities render as color-filled
bounding boxes in painter's order; ground and sky fill the rest.
:func:`render_observation` returns the raster itself, a read-only (H, W, 3)
uint8 array, as a pure function of (state, intrinsics): identical states
give byte-identical images.

The projection is plain IEEE double arithmetic in Python floats, with no
BLAS call, so the bytes do not depend on the machine. Each corner's offset
from the camera is ``(ex -/+ hx) - px``, ``(ey -/+ hy) - py`` and
``0.0 - pz`` or ``dz - pz``; its coordinate on a camera axis ``v`` is the
left-to-right sum ``(a*v0 + b*v1) + c*v2``; its image coordinates are
``cx + fx*X/zc`` and ``cy + fx*Y/zc``, with depths at or in front of the
near plane clamped to it. Boxes are rounded half to even. The camera's down
axis is ``forward x right`` written out term by term as ``np.cross``
computes it. ``tests/oracles.py`` keeps a per-entity numpy form of the same
arithmetic as the reference.
"""

from __future__ import annotations

import functools
import math

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


@functools.lru_cache(maxsize=64)
def _row(rgb: tuple[int, int, int], width: int) -> np.ndarray:
    """``width`` pixels of one color as a flat, read-only uint8 row."""
    row = np.tile(np.array(rgb, dtype=np.uint8), width)
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=64)
def _background(split: int, width: int, height: int) -> np.ndarray:
    """Sky above row ``split`` and ground from it down, read-only."""
    image = np.empty((height, width, 3), dtype=np.uint8)
    image[:split] = SKY_RGB
    image[split:] = GROUND_RGB
    image.flags.writeable = False
    return image


def render_observation(state: WorldState, intrinsics: CameraConfig | None = None) -> np.ndarray:
    """The frame of ``state`` as a read-only (H, W, 3) uint8 array."""
    cam = intrinsics or CameraConfig()
    w, h = cam.width, cam.height
    fx = (w / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
    cx, cy_px = w / 2.0, h / 2.0

    x, y, yaw = state.robot_pose
    pitch = state.body.phi
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    cos_p, sin_p = math.cos(pitch), math.sin(pitch)
    f0, f1, f2 = cos_p * cos_y, cos_p * sin_y, sin_p   # forward
    r0, r1, r2 = sin_y, -cos_y, 0.0                    # right
    d0, d1, d2 = f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0  # down
    px = x + cam.forward_offset * cos_y
    py = y + cam.forward_offset * sin_y
    pz = state.body.h_z + cam.height_offset
    near = cam.near_plane

    horizon = cy_px + fx * math.tan(pitch)
    img = _background(min(max(int(math.ceil(horizon)), 0), h), w, h).copy()
    pixels = img.reshape(h, w * 3)  # a view: one row of w RGB triples per line

    # Painter's order: far entities first.
    order = sorted(
        state.entities,
        key=lambda e: -((e.pose[0] - x) ** 2 + (e.pose[1] - y) ** 2),
    )
    for ent in order:
        ex, ey, _ = ent.pose
        hx, hy, dz = ent.dims[0] / 2.0, ent.dims[1] / 2.0, ent.dims[2]
        b0, b1 = (ey - hy) - py, (ey + hy) - py
        c0, c1 = 0.0 - pz, dz - pz
        b_terms = ((b0 * f1, b0 * r1, b0 * d1), (b1 * f1, b1 * r1, b1 * d1))
        c_terms = ((c0 * f2, c0 * r2, c0 * d2), (c1 * f2, c1 * r2, c1 * d2))
        # Shared partial sums; corner (a, b, c) on axis v is (a*v0 + b*v1) + c*v2.
        us, vs, shown = [], [], False
        for a in ((ex - hx) - px, (ex + hx) - px):
            fa, ra, da = a * f0, a * r0, a * d0
            for fb, rb, db in b_terms:
                fab, rab, dab = fa + fb, ra + rb, da + db
                for fc, rc, dc in c_terms:
                    zc = fab + fc
                    if zc > near:
                        shown = True
                    else:
                        zc = near
                    us.append(cx + fx * (rab + rc) / zc)
                    vs.append(cy_px + fx * (dab + dc) / zc)
        if not shown:
            continue
        # Round both edges so the filled area is unbiased wrt the exact box.
        u0, u1 = max(round(min(us)), 0), min(round(max(us)), w)
        v0, v1 = max(round(min(vs)), 0), min(round(max(vs)), h)
        if u0 < u1 and v0 < v1:
            pixels[v0:v1, 3 * u0:3 * u1] = _row(COLOR_RGB[ent.color], w)[:3 * (u1 - u0)]

    img.flags.writeable = False
    return img


def to_ppm(image: np.ndarray) -> bytes:
    """Serialize an (H, W, 3) uint8 raster as binary PPM (P6)."""
    h, w, _ = image.shape
    return b"P6\n%d %d\n255\n" % (w, h) + image.tobytes()


def from_ppm(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6) as :func:`to_ppm` writes it: the header must be
    ``P6\\n<w> <h>\\n255\\n`` with a positive size; else ValueError."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"not a P6 header with maxval 255: {data[:16]!r}")
    size = parts[1].split()
    if len(size) != 2 or not all(t.isdigit() and int(t) > 0 for t in size):
        raise ValueError(f"PPM size must be two positive integers, got {parts[1]!r}")
    w, h = map(int, size)
    raster = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return raster.reshape(h, w, 3)

"""First-person rendering: determinism, projection geometry, PPM codec."""

import math

import numpy as np
import pytest

from quadkit.config import CameraConfig
from quadkit.taxonomy import Color
from quadkit.world.camera import (
    COLOR_RGB,
    GROUND_RGB,
    SKY_RGB,
    from_ppm,
    render_observation,
    to_ppm,
)
from quadkit.world.entities import Entity, EntityKind
from quadkit.world.state import BodyState, WorldState

from blas_kernels import run_under_each_kernel, uses_openblas
from oracles import render_reference


def fma_edge_state() -> WorldState:
    """A frame whose projection fused multiply-adds round differently: with
    numpy's matrix products, OpenBLAS's Haswell kernel drew it with other
    bytes than its Sandybridge and Prescott kernels."""
    cube = Entity(EntityKind.OBSTACLE, "cube", Color.RED,
                  (2.016068585547879, -0.37848503804443845, 0.0), (0.3, 0.3, 0.3))
    return WorldState(robot_pose=(0.0, 0.0, -0.33934799122487314),
                      body=BodyState(phi=0.18797016528645305), entities=[cube])


FMA_EDGE_SHA256 = "3b927adcc71050bb4c4df4fcb1ea3ec8e92f6afb14b6c56d2cfdbba00e692940"


def cube_at(x: float, size: float = 0.6, color: Color = Color.RED) -> Entity:
    return Entity(EntityKind.TARGET_OBJECT, "cube", color, (x, 0.0, 0.0),
                  (size, size, size))


def count_color(image: np.ndarray, color: Color) -> int:
    return int((image == np.array(COLOR_RGB[color], dtype=np.uint8)).all(axis=-1).sum())


def expected_extent(cam: CameraConfig, cube_x: float, size: float) -> float:
    """Projected edge length of the cube's near face under the pinhole model.

    Derived from camera geometry alone: the camera sits ``forward_offset``
    ahead of the robot origin; a face of edge ``size`` at depth z spans
    f*size/z pixels.
    """
    fx = (cam.width / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
    z = cube_x - size / 2.0 - cam.forward_offset
    return fx * size / z


def spans(image: np.ndarray, color: Color) -> tuple[int, int]:
    mask = (image == np.array(COLOR_RGB[color], dtype=np.uint8)).all(axis=-1)
    cols = np.where(mask.any(axis=0))[0]
    rows = np.where(mask.any(axis=1))[0]
    return int(cols.max() - cols.min() + 1), int(rows.max() - rows.min() + 1)


def test_rendering_is_deterministic():
    state = WorldState(robot_pose=(0.2, -0.1, 0.3), entities=[cube_at(2.0)])
    a = render_observation(state)
    b = render_observation(state)
    assert to_ppm(a) == to_ppm(b)


def test_projected_size_follows_inverse_square_distance():
    cam = CameraConfig()
    near_x, far_x = 1.5, 3.0
    state_near = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[cube_at(near_x)])
    state_far = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[cube_at(far_x)])
    img_near = render_observation(state_near, cam)
    img_far = render_observation(state_far, cam)

    # Edge spans match the pinhole prediction to rasterization rounding.
    for img, x in ((img_near, near_x), (img_far, far_x)):
        want = expected_extent(cam, x, 0.6)
        w, h = spans(img, Color.RED)
        assert abs(w - want) <= 1.5
        assert abs(h - want) <= 1.5
    # The painted area tracks the inverse square of camera-to-face depth.
    n_near = count_color(img_near, Color.RED)
    n_far = count_color(img_far, Color.RED)
    z_near = near_x - 0.3 - cam.forward_offset
    z_far = far_x - 0.3 - cam.forward_offset
    assert n_near / n_far == pytest.approx((z_far / z_near) ** 2, rel=0.15)


def test_entities_behind_the_camera_are_invisible():
    ahead = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[cube_at(2.0)])
    behind = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[cube_at(-2.0)])
    assert count_color(render_observation(ahead), Color.RED) > 0
    assert count_color(render_observation(behind), Color.RED) == 0


def test_nearer_entity_paints_over_farther_one():
    near = cube_at(1.5, color=Color.BLUE)
    far = cube_at(3.0, color=Color.RED)
    img = render_observation(
        WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[far, near])
    )
    cam = CameraConfig()
    center = img[cam.height // 2, cam.width // 2]
    assert tuple(center) == COLOR_RGB[Color.BLUE]


def test_horizon_splits_sky_from_ground_and_moves_with_pitch():
    level = render_observation(WorldState(robot_pose=(0.0, 0.0, 0.0)))
    assert tuple(level[0, 0]) == SKY_RGB
    assert tuple(level[-1, 0]) == GROUND_RGB
    sky_level = (level == np.array(SKY_RGB, dtype=np.uint8)).all(axis=-1).sum()
    pitched = render_observation(
        WorldState(robot_pose=(0.0, 0.0, 0.0), body=BodyState(phi=0.3))
    )
    sky_pitched = (pitched == np.array(SKY_RGB, dtype=np.uint8)).all(axis=-1).sum()
    assert sky_pitched > sky_level  # pitching up reveals more sky


def test_yaw_pans_the_scene_sideways():
    state = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[cube_at(2.0)])
    img = render_observation(state)
    cols = np.where((img == np.array(COLOR_RGB[Color.RED], dtype=np.uint8))
                    .all(axis=-1).any(axis=0))[0]
    mid = (cols.min() + cols.max()) / 2.0
    turned = render_observation(
        WorldState(robot_pose=(0.0, 0.0, 0.2), entities=[cube_at(2.0)])
    )
    cols_t = np.where((turned == np.array(COLOR_RGB[Color.RED], dtype=np.uint8))
                      .all(axis=-1).any(axis=0))[0]
    mid_t = (cols_t.min() + cols_t.max()) / 2.0
    assert mid_t > mid  # yawing left shifts the target toward the image right


def test_ppm_round_trip_is_exact():
    rng = np.random.default_rng(3)
    image = rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8)
    data = to_ppm(image)
    assert data.startswith(b"P6\n64 48\n255\n")
    assert np.array_equal(from_ppm(data), image)
    with pytest.raises(ValueError):
        from_ppm(b"P3\n1 1\n255\n0 0 0")


@pytest.mark.parametrize("data", [
    b"P6\n64 48\n",
    b"P6\n64\n255\n" + bytes(64 * 3),
    b"P6\n64 48 1\n255\n" + bytes(64 * 48 * 3),
    b"P6\n-1 48\n255\n" + bytes(48 * 3),
    b"P6\n0 0\n255\n",
    b"P6\n6.4 48\n255\n" + bytes(64 * 48 * 3),
    b"P6\n64 48\n65535\n" + bytes(64 * 48 * 6),
    b"P6 64 48 255\n" + bytes(64 * 48 * 3),
    b"P6\n64 48\n255\n" + bytes(64 * 48 * 3 - 1),
], ids=["truncated", "one-size", "three-sizes", "negative-width", "zero-size", "float-width",
        "maxval", "one-line-header", "short-raster"])
def test_from_ppm_rejects_any_other_header(data):
    with pytest.raises(ValueError):
        from_ppm(data)


def test_observation_image_is_write_protected():
    image = render_observation(WorldState(robot_pose=(0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        image[0, 0] = 0


def _entity_around(rng, cx: float, cy: float, spread: float) -> Entity:
    color = list(COLOR_RGB)[int(rng.integers(len(COLOR_RGB)))]
    kind = list(EntityKind)[int(rng.integers(len(EntityKind)))]
    pose = (cx + float(rng.uniform(-spread, spread)),
            cy + float(rng.uniform(-spread, spread)), float(rng.uniform(-3.0, 3.0)))
    dims = tuple(float(d) for d in rng.uniform(0.02, 1.5, size=3))
    return Entity(kind, "cube", color, pose, dims)


def test_render_matches_the_per_entity_reference_bytes():
    rng = np.random.default_rng(5)
    cams = [CameraConfig(), CameraConfig(width=37, height=23, hfov_deg=100.0,
                                         forward_offset=0.0, near_plane=0.3)]
    for i in range(400):
        cam = cams[i % 2]
        x, y, yaw = (float(v) for v in rng.uniform(-3.0, 3.0, size=3))
        body = BodyState(h_z=float(rng.uniform(0.05, 0.4)), phi=float(rng.uniform(-0.6, 0.6)))
        # Entities ahead, behind, and on the camera itself (straddling the
        # near plane); none, one or many per frame.
        cam_x = x + cam.forward_offset * math.cos(yaw)
        cam_y = y + cam.forward_offset * math.sin(yaw)
        n = (0, 1, 2, 7, 25)[i % 5]
        entities = [_entity_around(rng, cam_x, cam_y, (0.3, 4.0)[j % 2]) for j in range(n)]
        if i % 4 == 0:
            entities.append(_entity_around(rng, cam_x - 3.0 * math.cos(yaw),
                                           cam_y - 3.0 * math.sin(yaw), 0.5))
        state = WorldState(robot_pose=(x, y, yaw), body=body, entities=entities)
        got = render_observation(state, cam)
        assert got.tobytes() == render_reference(state, cam).tobytes()


def test_render_edge_cases_match_the_reference():
    on_camera = Entity(EntityKind.OBSTACLE, "cube", Color.RED, (0.18, 0.0, 0.0),
                       (1.0, 1.0, 1.0))  # corners on both sides of the near plane
    behind = cube_at(-2.0, color=Color.BLUE)
    tied = [cube_at(2.0, color=Color.GREEN), cube_at(2.0, size=0.3, color=Color.PINK)]
    for entities in ([], [on_camera], [behind], [behind, on_camera], tied, tied[::-1]):
        for pose in ((0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (1e-9, 0.0, math.pi)):
            state = WorldState(robot_pose=pose, entities=entities)
            assert (render_observation(state).tobytes()
                    == render_reference(state).tobytes())
    state = fma_edge_state()
    assert render_observation(state).tobytes() == render_reference(state).tobytes()
    # A near face at depth fx, 0.5 m right of the axis, has its right edge at
    # exactly u = w/2 + 0.5: both round it half to even, to an empty box.
    cam = CameraConfig(forward_offset=0.0)
    fx = (cam.width / 2.0) / math.tan(math.radians(cam.hfov_deg) / 2.0)
    half_pixel = Entity(EntityKind.OBSTACLE, "cube", Color.ORANGE, (fx + 0.25, 0.0, 0.0),
                        (0.5, 1.0, 1.3))
    state = WorldState(robot_pose=(0.0, 0.0, 0.0), entities=[half_pixel])
    image = render_observation(state, cam)
    assert image.tobytes() == render_reference(state, cam).tobytes()
    assert count_color(image, Color.ORANGE) == 0


@pytest.mark.skipif(not uses_openblas(), reason="numpy does not use OpenBLAS")
def test_frame_bytes_do_not_depend_on_the_blas_kernel():
    probe = ("import hashlib, test_render; from quadkit.world.camera import render_observation; "
             "print(hashlib.sha256(render_observation(test_render.fma_edge_state())"
             ".tobytes()).hexdigest())")
    digests = run_under_each_kernel(probe, (None, "Sandybridge", "Prescott"))
    assert digests == dict.fromkeys(digests, FMA_EDGE_SHA256)

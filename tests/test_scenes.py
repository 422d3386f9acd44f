"""Scene sampling: per-skill layout invariants and determinism."""

import json

import numpy as np
import pytest

from quadkit.config import RunConfig, SceneConfig, load_config
from quadkit.expert import sample_scene
from quadkit.expert.collect import plan_for_task
from quadkit.taxonomy import (
    Color,
    GaitName,
    ObjectRef,
    Skill,
    SpeedLevel,
    TaskSpec,
)
from quadkit.world.entities import EntityKind


def task(skill: Skill, obj: ObjectRef) -> TaskSpec:
    return TaskSpec(skill, obj, SpeedLevel.NORMAL, GaitName.TROT)


GO_AVOID = task(Skill.GO_AVOID, ObjectRef("cube", Color.RED))
GO_TO = task(Skill.GO_TO, ObjectRef("ball", Color.BLUE))
GO_THROUGH = task(Skill.GO_THROUGH, ObjectRef("triangle tunnel", Color.GREEN))
CRAWL = task(Skill.CRAWL, ObjectRef("bar", None))
UNLOAD = task(Skill.UNLOAD, ObjectRef("traybox", Color.YELLOW))
DISTINGUISH = task(Skill.DISTINGUISH, ObjectRef("letter box", None, letter="A"))


def test_sampling_is_deterministic_per_seed():
    a = sample_scene(GO_AVOID, 123)
    b = sample_scene(GO_AVOID, 123)
    assert a == b
    assert sample_scene(GO_AVOID, 124) != a


def test_go_avoid_obstacle_sits_on_the_approach_line():
    cfg = SceneConfig()
    for seed in range(300):
        scene = sample_scene(GO_AVOID, seed, cfg)
        tx, ty = scene.goal_xy
        assert cfg.target_x_range[0] <= tx <= cfg.target_x_range[1]
        assert cfg.target_y_range[0] <= ty <= cfg.target_y_range[1]
        obstacles = [e for e in scene.entities if e.kind is EntityKind.OBSTACLE]
        assert len(obstacles) == 1
        ox, oy, _ = obstacles[0].pose
        assert ox == tx - cfg.obstacle_gap
        assert oy == ty
        assert obstacles[0].color != scene.entities[scene.target_index].color


def test_go_to_has_target_plus_differing_distractor():
    for seed in range(100):
        scene = sample_scene(GO_TO, seed)
        assert len(scene.entities) == 2
        target = scene.entities[scene.target_index]
        distractor = scene.entities[1 - scene.target_index]
        assert target.shape == "ball" and target.color is Color.BLUE
        assert distractor.shape != target.shape
        assert distractor.color != target.color
        assert scene.goal_xy == target.pose[:2]


def test_go_through_goal_lies_beyond_the_far_face():
    cfg = SceneConfig()
    for seed in range(100):
        scene = sample_scene(GO_THROUGH, seed, cfg)
        tunnels = [e for e in scene.entities if e.kind is EntityKind.TUNNEL]
        assert len(tunnels) == 2
        named = scene.entities[scene.target_index]
        assert named.attributes["cross_section"] == "triangle"
        assert named.color is Color.GREEN
        other = tunnels[1 - scene.target_index]
        assert other.attributes["cross_section"] == "rectangle"
        assert other.color is not Color.GREEN
        # The goal is past the target tunnel's exit, on its axis.
        assert scene.goal_xy[0] > named.pose[0] + cfg.tunnel_depth / 2.0
        assert scene.goal_xy[1] == named.pose[1]


def test_crawl_bar_blocks_the_straight_line_to_the_marker():
    cfg = SceneConfig()
    for seed in range(100):
        scene = sample_scene(CRAWL, seed, cfg)
        bar = next(e for e in scene.entities if e.kind is EntityKind.BAR)
        lo, hi = cfg.bar_clearance_range
        assert lo <= bar.attributes["clearance"] <= hi
        # Between the start (x=0) and the marker, spanning the corridor.
        assert 0.0 < bar.pose[0] < scene.goal_xy[0]
        assert bar.dims[1] >= 2.0


def test_distinguish_boxes_differ_in_letter_and_color():
    for seed in range(100):
        scene = sample_scene(DISTINGUISH, seed)
        boxes = [e for e in scene.entities if e.kind is EntityKind.LETTER_BOX]
        assert len(boxes) == 2
        named = scene.entities[scene.target_index]
        assert named.attributes["letter"] == "A"
        other = boxes[1 - scene.target_index]
        assert other.attributes["letter"] != "A"
        assert other.color != named.color


def test_unload_scene_is_a_single_receptacle():
    scene = sample_scene(UNLOAD, 5)
    assert [e.kind for e in scene.entities] == [EntityKind.RECEPTACLE]
    assert scene.entities[0].color is Color.YELLOW
    assert scene.goal_xy == scene.entities[0].pose[:2]


def test_start_pose_is_the_arena_origin():
    for spec in (GO_TO, GO_AVOID, GO_THROUGH, CRAWL, UNLOAD, DISTINGUISH):
        assert sample_scene(spec, 0).start_pose == (0.0, 0.0, 0.0)


def test_planning_grid_keeps_start_and_goal_reachable():
    # Solid geometry must never wall off the task across a seed sweep: the
    # expert's own plan, on its own inflated grid, finds a path (it raises
    # NoPathError otherwise).
    rng = np.random.default_rng(31)
    run = RunConfig()
    for spec in (GO_TO, GO_AVOID, GO_THROUGH, CRAWL, UNLOAD):
        for seed in rng.integers(0, 2**31 - 1, size=25):
            path = plan_for_task(sample_scene(spec, int(seed)), run)
            assert path.waypoints


def test_a_dims_table_override_merges_into_the_defaults(tmp_path):
    # Restating the sofa's default must leave every other category's dims.
    path = tmp_path / "sofa.json"
    path.write_text(json.dumps({"scene": {"furniture_dims": {"sofa": [0.8, 1.6, 0.7]}}}))
    scene = load_config(path).scene
    bookshelf = task(Skill.GO_TO, ObjectRef("bookshelf", None))
    target = sample_scene(bookshelf, 7, scene).entities[0]
    assert target.kind is EntityKind.TARGET_OBJECT and target.shape == "bookshelf"
    assert target.dims == SceneConfig().furniture_dims["bookshelf"] == (0.4, 0.8, 1.2)
    assert scene == SceneConfig()


def test_a_dims_table_built_in_python_merges_into_the_defaults():
    scene = SceneConfig(furniture_dims={"sofa": (0.8, 1.6, 0.7)})
    bookshelf = task(Skill.GO_TO, ObjectRef("bookshelf", None))
    assert sample_scene(bookshelf, 7, scene).entities[0].dims == (0.4, 0.8, 1.2)
    assert scene == SceneConfig()


@pytest.mark.parametrize("table, key", [("furniture_dims", "sofaa"), ("shape_dims", "cubee")])
def test_a_dims_table_key_no_lookup_reads_is_rejected_in_python(table, key):
    with pytest.raises(ValueError, match=rf"'scene\.{table}\.{key}'"):
        SceneConfig(**{table: {"sofa": (0.8, 1.6, 0.7), key: (1, 1, 1)}})

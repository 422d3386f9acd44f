"""Golden digests of the expert planner over sampled scenes.

The planner feeds both the demonstrations and the oracle, so any change to
grid building, A* or smoothing must keep these bytes: a faster rewrite that
returns different cells or costs would silently change collected data.
"""

import hashlib

import numpy as np

from quadkit.config import RunConfig
from quadkit.expert import NoPathError, grid_from_scene, plan_astar, sample_scene, smooth_path
from quadkit.taxonomy import GaitName, Skill, SpeedLevel, TaskSpec, seen_object_pool

PLANNED_SKILLS = (Skill.GO_TO, Skill.GO_AVOID, Skill.GO_THROUGH, Skill.CRAWL, Skill.UNLOAD)
SCENES_PER_SKILL = 12

GRID_DIGEST = "143034b0d28621778a8d88e404e23733bae083449b3d44d329b1c7692aab7fa5"
PATH_DIGEST = "1d4e29d761970d74d4f5b5688a51f0ac36ff632c27dcdd8970024ca493525b23"


def planner_digests() -> tuple[str, str]:
    run = RunConfig()
    rng = np.random.default_rng(2312)
    grids, paths = hashlib.sha256(), hashlib.sha256()
    for skill in PLANNED_SKILLS:
        pool = seen_object_pool(skill)
        for i in range(SCENES_PER_SKILL):
            obj = pool[int(rng.integers(0, len(pool)))]
            seed = int(rng.integers(0, 2**31 - 1))
            scene = sample_scene(TaskSpec(skill, obj, SpeedLevel.NORMAL, GaitName.TROT), seed)
            # Alternate the expert's margin with the default one so two disk
            # radii are pinned.
            inflation = run.sim.footprint_radius + run.expert.inflation_margin if i % 2 else None
            grid = grid_from_scene(scene, run.sim, resolution=run.expert.grid_resolution,
                                   inflation=inflation)
            grids.update(np.packbits(grid.occupied).tobytes())
            try:
                path = smooth_path(grid, plan_astar(grid, scene.start_pose[:2], scene.goal_xy))
            except NoPathError:
                paths.update(b"no path;")
                continue
            paths.update(repr(path.cells).encode() + path.cost.hex().encode() + b";")
    return grids.hexdigest(), paths.hexdigest()


def test_planner_output_matches_golden_digests():
    grid_digest, path_digest = planner_digests()
    assert grid_digest == GRID_DIGEST
    assert path_digest == PATH_DIGEST

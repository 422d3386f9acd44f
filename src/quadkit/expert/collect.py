"""Scripted demonstration episodes.

``generate_episode`` runs the planner + tracker against the simulator and
records (observation, action) pairs. The terminate action is written by
protocol, not by the controller: when the simulator reports success, one
final step is recorded that pairs the current observation with a stop
command whose terminate flag is set, and nothing is recorded after that.
Successful episodes therefore contain terminate exactly once, as the last
step. Failed episodes (collision, timeout, out of bounds) are kept and
flagged via their outcome field so dataset statistics can account for them.
"""

from __future__ import annotations

from ..actions import ActionCommand, ActionSpaceSpec, clamp_to_space, default_action_space, tokenize
from ..config import RunConfig
from ..language import render_instruction
from ..store.episodes import Episode, Step
from ..taxonomy import Skill, TaskSpec
from ..world.sim import Simulator
from ..world.camera import render_observation
from ..world.state import Status
from .astar import NoPathError, plan_astar, smooth_path, straight_path
from .grid import grid_from_scene
from .scenes import sample_scene
from .tracker import PathTracker


def plan_for_task(scene, run: RunConfig):
    """Expert path for a scene, or None for the rotation-only task."""
    if scene.task.skill is Skill.DISTINGUISH:
        return None
    grid = grid_from_scene(
        scene, run.sim,
        resolution=run.expert.grid_resolution,
        inflation=run.sim.footprint_radius + run.expert.inflation_margin,
    )
    start, goal = scene.start_pose[:2], scene.goal_xy
    # A* runs only when the smoothed answer may not be one straight segment.
    path = straight_path(grid, start, goal)
    if path is None:
        path = smooth_path(grid, plan_astar(grid, start, goal))
    return path


def expert_tracker(scene, run: RunConfig) -> PathTracker:
    """The expert's controller for a scene, as used for demonstrations and by
    the oracle policy; raises NoPathError when the scene cannot be planned."""
    return PathTracker(scene, plan_for_task(scene, run), run.expert, run.sim)


def _record_step(steps: list[Step], obs, cmd: ActionCommand, pose,
                 space: ActionSpaceSpec) -> None:
    clamped = clamp_to_space(cmd, space)
    steps.append(Step(
        image=obs.image,
        tokens=tokenize(clamped, space).tokens,
        command=clamped,
        pose=tuple(pose),
    ))


def generate_episode(task: TaskSpec, seed: int,
                     run: RunConfig | None = None,
                     space: ActionSpaceSpec | None = None,
                     source: str = "sim") -> Episode:
    """Roll one scripted episode; deterministic in (task, seed, config)."""
    run = run or RunConfig()
    space = space or default_action_space()
    scene = sample_scene(task, seed, run.scene)
    instruction = render_instruction(task)
    episode = Episode(
        episode_id=f"{task.skill.value}-{source}-{seed:08d}",
        task=task,
        instruction=instruction.text,
        template_id=instruction.template_id,
        source=source,
        seed=int(seed),
        outcome="success",
        steps=[],
    )

    try:
        tracker = expert_tracker(scene, run)
    except NoPathError:
        episode.outcome = "unplannable"
        return episode

    sim = Simulator(scene, run.sim)
    steps: list[Step] = []
    while not sim.done:
        obs = render_observation(sim.state, run.sim.camera)
        cmd = tracker.command(sim.state)
        _record_step(steps, obs, cmd, sim.state.robot_pose, space)
        sim.step(cmd)
    # Only a success records the terminal observation, paired with the stop.
    if sim.status is Status.SUCCESS:
        obs = render_observation(sim.state, run.sim.camera)
        _record_step(steps, obs, tracker.stop_command(), sim.state.robot_pose, space)
    episode.outcome = sim.status.value
    episode.steps = steps
    return episode

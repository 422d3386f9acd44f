"""Scripted demonstration episodes, and the closed loop collect and eval share.

``rollout`` observes, acts and steps the simulator; the evaluation harness
runs a policy through it, and ``generate_episode`` runs the planner + tracker
and records (observation, action) pairs. The terminate action is written by
protocol, not by the controller: when the simulator reports success, one
final step is recorded that pairs the current observation with a stop
command whose terminate flag is set, and nothing is recorded after that.
Successful episodes therefore contain terminate exactly once, as the last
step. Failed episodes (collision, timeout, out of bounds) are kept and
flagged via their outcome field so dataset statistics can account for them.
"""

from __future__ import annotations

from functools import cached_property

from ..actions import ActionCommand, ActionSpaceSpec, clamp_to_space, default_action_space, tokenize
from ..config import CameraConfig, RunConfig
from ..language import render_instruction
from ..store.episodes import Episode, Step
from ..taxonomy import Skill, TaskSpec
from ..world.sim import Simulator
from ..world.camera import render_observation
from ..world.state import Status, WorldState
from .astar import NoPathError, plan_astar, smooth_path, straight_path
from .grid import grid_from_scene
from .scenes import sample_scene
from .tracker import PathTracker


def plan_for_task(scene, run: RunConfig):
    """Expert path for a scene, or None for the rotation-only task."""
    if scene.task.skill is Skill.DISTINGUISH:
        return None
    grid = grid_from_scene(scene, run)
    start, goal = scene.start_pose[:2], scene.goal_xy
    # A* runs only when the smoothed answer may not be one straight segment.
    path = straight_path(grid, start, goal)
    if path is None:
        path = smooth_path(grid, plan_astar(grid, start, goal))
    return path


def expert_tracker(scene, run: RunConfig) -> PathTracker:
    """The expert's controller for a scene, as used for demonstrations and by
    the oracle policy; raises NoPathError when the scene cannot be planned."""
    return PathTracker(scene, plan_for_task(scene, run), run)


class Frame:
    """One tick's observation, rendered when ``image`` is first read.

    The simulator replaces its state on every step, so the frame shows its
    own tick whenever it is read. A render error is kept in ``error``.
    """

    def __init__(self, state: WorldState, camera: CameraConfig):
        self._state, self._camera = state, camera
        self.error: Exception | None = None

    @cached_property
    def image(self):  # a read-only (H, W, 3) uint8 array
        if self.error is not None:
            raise self.error
        try:
            return render_observation(self._state, self._camera)
        except Exception as exc:
            self.error = exc
            raise


def rollout(sim: Simulator, camera: CameraConfig, act) -> str | None:
    """Step ``act(frame)``'s command each tick until the simulator is done;
    a string from ``act`` ends the rollout and is returned. A render error is
    raised even when ``act`` caught it: it is a fault of the loop."""
    while not sim.done:
        frame = Frame(sim.state, camera)
        cmd = act(frame)
        if frame.error is not None:
            raise frame.error
        if isinstance(cmd, str):
            return cmd
        sim.step(cmd)
    return None


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
    def record(frame: Frame, cmd: ActionCommand) -> ActionCommand:
        clamped = clamp_to_space(cmd, space)
        episode.steps.append(Step(image=frame.image, tokens=tokenize(clamped, space).tokens,
                                  command=clamped, pose=tuple(sim.state.robot_pose)))
        return cmd  # the raw command is stepped, not the recorded one

    rollout(sim, run.sim.camera, lambda frame: record(frame, tracker.command(sim.state)))
    # Only a success records the terminal observation, paired with the stop.
    if sim.status is Status.SUCCESS:
        record(Frame(sim.state, run.sim.camera), tracker.stop_command())
    episode.outcome = sim.status.value
    return episode

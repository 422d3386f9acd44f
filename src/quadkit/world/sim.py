"""Deterministic kinematic simulation of the command-level tasks.

:meth:`Simulator.step` is the package's only integrator. Each command tick
it integrates a unicycle with lateral slip at the high rate (f_high/f_low
substeps), while realized body parameters slew toward their commanded
values. Collision and the bar/tunnel constraints are checked on every
substep's pose and body, so a fast robot cannot step across a thin solid;
task success and termination are judged once per tick.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..actions import ActionCommand
from ..config import SimConfig, SlewConfig
from ..taxonomy import Skill, TaskSpec
from .entities import Entity, EntityKind, SOLID_KINDS, tunnel_passable_halfwidth
from .scene import Scene
from .state import BodyState, Status, StepOutcome, TERMINAL_STATUSES, WorldState


class SimulationError(RuntimeError):
    """Internal inconsistency (non-finite pose, stepping a finished episode)."""


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _slew(current: float, target: float, rate: float, dt: float) -> float:
    step = rate * dt
    if target > current:
        return min(current + step, target)
    return max(current - step, target)


def _integrate_substep(pose, body: BodyState, cmd: ActionCommand,
                       slew: SlewConfig, dt: float):
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


def check_collision(pose, body: BodyState, entities: list[Entity],
                    config: SimConfig | None = None) -> str | None:
    """Return a violation description if the robot footprint at ``pose``
    intersects solid geometry (obstacles, letter boxes, tunnel walls) or
    ``body`` fails the bar/tunnel height constraints; None otherwise."""
    config = config or SimConfig()
    x, y, _ = pose
    r = config.footprint_radius
    for ent in entities:
        if ent.kind in SOLID_KINDS:
            if ent.footprint_distance(x, y) < r:
                return f"footprint hit {ent.kind.value} ({ent.shape})"
        elif ent.kind is EntityKind.TUNNEL:
            ex, ey, _ = ent.pose
            depth = ent.dims[0]
            lateral = abs(y - ey)
            outer = ent.attributes["outer_halfwidth"]
            if lateral >= outer + r:
                continue  # not at this tunnel at all
            if abs(x - ex) <= depth / 2.0:
                half = tunnel_passable_halfwidth(ent, body.h_z)
                if lateral > max(half - r, 0.0):
                    return "footprint hit tunnel wall"
                if body.s_y > 2.0 * half:
                    return "stance wider than tunnel passage"
            elif abs(x - ex) < depth / 2.0 + r:
                # Approaching the wall faces; conservative at the corners.
                if lateral > ent.attributes["passage_width"] / 2.0 - r:
                    return "footprint hit tunnel wall"
        elif ent.kind is EntityKind.BAR:
            bx, by, _ = ent.pose
            if abs(x - bx) <= ent.dims[0] / 2.0 + r and abs(y - by) <= ent.dims[1] / 2.0:
                if body.h_z >= ent.attributes["clearance"]:
                    return "body height above bar clearance"
    return None


def _distance_to_target(state: WorldState, scene: Scene) -> float:
    x, y, _ = state.robot_pose
    tx, ty, _ = scene.entities[scene.target_index].pose
    return math.hypot(x - tx, y - ty)


def _bearing_error(state: WorldState, scene: Scene) -> float:
    x, y, yaw = state.robot_pose
    tx, ty, _ = scene.entities[scene.target_index].pose
    return abs(_wrap_angle(math.atan2(ty - y, tx - x) - yaw))


def check_success(state: WorldState, task: TaskSpec, scene: Scene,
                  config: SimConfig | None = None) -> StepOutcome:
    """Evaluate the task's success criterion on the current state.

    Distance-based skills succeed strictly inside the success radius; the
    skill-specific extras (bar crossed, orientation held, ball landed in the
    receptacle, tunnel cleared) are encoded per skill below. Reports Timeout
    once the step budget is exhausted without success.
    """
    config = config or SimConfig()
    if task.skill != scene.task.skill:
        raise ValueError(
            f"task/scene mismatch: {task.skill.value} vs {scene.task.skill.value}"
        )
    dist = _distance_to_target(state, scene)
    skill = task.skill

    if skill in (Skill.GO_TO, Skill.GO_AVOID):
        ok = dist < config.success_radius
    elif skill is Skill.CRAWL:
        ok = dist < config.success_radius and state.bar_passed
    elif skill is Skill.GO_THROUGH:
        tunnel = scene.entities[scene.target_index]
        far_face = tunnel.pose[0] + tunnel.dims[0] / 2.0
        x, y, _ = state.robot_pose
        ok = (x > far_face + config.go_through_margin
              and abs(y - tunnel.pose[1]) < tunnel.attributes["passage_width"] / 2.0)
    elif skill is Skill.DISTINGUISH:
        ok = state.oriented_ticks >= config.distinguish_hold_ticks
    elif skill is Skill.UNLOAD:
        receptacle = scene.entities[scene.target_index]
        ok = False
        for ent in state.entities:
            if ent.kind is EntityKind.CARRIED_BALL:
                bx, by, _ = ent.pose
                ok = (abs(bx - receptacle.pose[0]) <= receptacle.dims[0] / 2.0
                      and abs(by - receptacle.pose[1]) <= receptacle.dims[1] / 2.0)
                break
    else:
        raise ValueError(f"unknown skill {skill!r}")

    if ok:
        return StepOutcome(Status.SUCCESS, dist)
    if state.step_count >= config.max_ticks:
        return StepOutcome(Status.TIMEOUT, dist)
    return StepOutcome(Status.RUNNING, dist)


class Simulator:
    """Owns one episode: advances the world, judges outcomes, absorbs terminals."""

    def __init__(self, scene: Scene, config: SimConfig | None = None):
        self.config = config or SimConfig()
        self.scene = scene
        self.state = scene.initial_state(self.config.standing_height)
        self.status = Status.RUNNING
        self.violation: str | None = None
        self._maybe_mark_success()

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def distance_to_target(self) -> float:
        return _distance_to_target(self.state, self.scene)

    def outcome(self) -> StepOutcome:
        return StepOutcome(self.status, self.distance_to_target(), self.violation)

    def step(self, a: ActionCommand) -> StepOutcome:
        """Apply one command tick. Raises if the episode already ended."""
        if self.done:
            raise SimulationError(f"episode already terminal ({self.status.value})")
        cfg = self.config
        rates, slew = cfg.rates, cfg.slew
        pose, body = self.state.robot_pose, self.state.body
        dt = rates.substep_dt
        collided = None
        for _ in range(rates.substeps):
            pose, body = _integrate_substep(pose, body, a, slew, dt)
            self._update_crossings(pose[0])
            collided = check_collision(pose, body, self.state.entities, cfg)
            if collided is not None:
                break
        if not all(math.isfinite(v) for v in pose):
            raise SimulationError(f"non-finite pose after integration: {pose}")

        step_count = self.state.step_count + 1
        self.state = replace(
            self.state, robot_pose=pose, body=body,
            sim_time=step_count / rates.f_low, step_count=step_count,
        )
        self._update_orientation_hold()
        self._maybe_release_ball()

        if collided is not None:
            self.status, self.violation = Status.COLLISION, collided
        elif not self._in_arena():
            self.status = Status.OUT_OF_BOUNDS
        else:
            out = check_success(self.state, self.scene.task, self.scene, cfg)
            self.status = out.status
        return self.outcome()

    # -- internal bookkeeping -------------------------------------------------

    def _in_arena(self) -> bool:
        x0, x1, y0, y1 = self.config.arena
        x, y, _ = self.state.robot_pose
        return x0 <= x <= x1 and y0 <= y <= y1

    def _maybe_mark_success(self) -> None:
        out = check_success(self.state, self.scene.task, self.scene, self.config)
        if out.status is Status.SUCCESS:
            self.status = Status.SUCCESS

    def _update_crossings(self, x: float) -> None:
        if self.state.bar_passed:
            return
        for ent in self.scene.entities:
            if ent.kind is EntityKind.BAR:
                if x > ent.pose[0] + ent.dims[0] / 2.0 + self.config.footprint_radius:
                    self.state.bar_passed = True

    def _update_orientation_hold(self) -> None:
        if self.scene.task.skill is not Skill.DISTINGUISH:
            return
        err = _bearing_error(self.state, self.scene)
        if math.degrees(err) < self.config.distinguish_bearing_deg:
            self.state.oriented_ticks += 1
        else:
            self.state.oriented_ticks = 0

    def _maybe_release_ball(self) -> None:
        carried = self.state.carried_object
        if carried is None or self.state.body.phi < self.config.release_pitch:
            return
        x, y, yaw = self.state.robot_pose
        d = self.config.throw_distance
        landed = replace(carried, pose=(x + d * math.cos(yaw), y + d * math.sin(yaw), 0.0))
        self.state.entities = self.state.entities + [landed]
        self.state.carried_object = None
        self.state.ball_released = True

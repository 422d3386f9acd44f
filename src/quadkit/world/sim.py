"""Deterministic kinematic simulation of the command-level tasks.

:meth:`Simulator.step` is the package's only integrator. Each command tick
it integrates a unicycle with lateral slip at the high rate (f_high/f_low
substeps), while realized body parameters slew toward their commanded
values. Collision and the bar/tunnel constraints are checked on every
substep's pose and body of a tick whose reach box meets the record, so a
fast robot cannot step across a thin solid; task success and termination are
judged once per tick, by :func:`check_success` on the scene's own task.

The substep loop runs on local floats. Collision geometry is checked against
collision records: each solid, tunnel and bar entity becomes one tuple of the
numbers its check needs, built once per entity list by
:func:`_collision_records` and tested in list order by
:func:`_first_violation`, the one collision kernel (:func:`check_collision`
uses it too). Each record has a box (:func:`_reach_boxes`) outside which it
can never be violated, and a tick checks only the records whose box meets
the tick's reach box: the start pose grown by the farthest the command can
move the robot in the tick, plus a rounding pad. A tick that reaches no
record slews each body channel straight to its value after the tick, and a
body already at its commanded values, bit for bit, is kept as it is.

Every float expression keeps its operand order and its ``min``/``max``
argument order, so poses, bodies, statuses and violations are the same bits,
signed zeros included, as integrating each substep into a fresh
``BodyState`` and walking every entity (``tests/oracles.py`` keeps that form
as the reference).
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..actions import ActionCommand
from ..config import SimConfig
from ..taxonomy import Skill
from .entities import Entity, EntityKind, ROUND_SHAPES, SOLID_KINDS
from .scene import Scene
from .state import BodyState, Status, StepOutcome, TERMINAL_STATUSES, WorldState


class SimulationError(RuntimeError):
    """Unusable input or state (a non-finite command or pose, stepping a
    finished episode)."""


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _slew(current: float, target: float, step: float, n: int) -> float:
    """The value of ``current`` after ``n`` substeps that move it toward
    ``target`` by at most ``step`` (rate * dt).

    Once a substep leaves the value unchanged bit for bit (same value and
    sign), every later substep would too, so the loop stops there.
    """
    for _ in range(n):
        if target > current:
            moved = min(current + step, target)
        else:
            moved = max(current - step, target)
        if moved == current and math.copysign(1.0, moved) == math.copysign(1.0, current):
            break
        current = moved
    return current


def _same_bits(a: tuple, b: tuple) -> bool:
    """Whether two tuples of floats hold the same values with the same signs;
    ``==`` alone does not tell -0.0 from 0.0."""
    return a == b and (0.0 not in a or all(
        math.copysign(1.0, u) == math.copysign(1.0, v) for u, v in zip(a, b)))


# Collision record tags; the fields after (tag, ex, ey) depend on the tag.
_ROUND, _BOX, _TUNNEL, _BAR = range(4)


def _collision_records(entities: list[Entity], r: float) -> list[tuple]:
    """One record per entity that can stop the robot, in list order:

    - ``(_ROUND, ex, ey, radius, message)`` and
      ``(_BOX, ex, ey, hx, hy, message)`` for solids;
    - ``(_TUNNEL, ex, ey, outer + r, depth/2, depth/2 + r, passage/2,
      apex height or None, passage/2 - r)``;
    - ``(_BAR, ex, ey, dx/2 + r, dy/2, clearance)``.

    Targets, receptacles and landed balls block nothing and get no record.
    """
    records = []
    for ent in entities:
        ex, ey, _ = ent.pose
        dims, attrs = ent.dims, ent.attributes
        if ent.kind in SOLID_KINDS:
            message = f"footprint hit {ent.kind.value} ({ent.shape})"
            if ent.shape in ROUND_SHAPES:
                records.append((_ROUND, ex, ey, dims[0] / 2.0, message))
            else:
                records.append((_BOX, ex, ey, dims[0] / 2.0, dims[1] / 2.0, message))
        elif ent.kind is EntityKind.TUNNEL:
            passage = attrs["passage_width"] / 2.0
            apex = attrs["height"] if attrs.get("cross_section") == "triangle" else None
            records.append((_TUNNEL, ex, ey, attrs["outer_halfwidth"] + r,
                            dims[0] / 2.0, dims[0] / 2.0 + r, passage, apex, passage - r))
        elif ent.kind is EntityKind.BAR:
            records.append((_BAR, ex, ey, dims[0] / 2.0 + r, dims[1] / 2.0,
                            attrs["clearance"]))
    return records


def _reach_boxes(records: list[tuple], r: float) -> list[tuple[float, float, float, float]]:
    """Per record, the box ``(x0, x1, y0, y1)`` outside which
    :func:`_first_violation` never returns it: the footprint grown by ``r``
    for solids, the depth band and outer width for tunnels, the bar's span."""
    boxes = []
    for rec in records:
        tag, ex, ey = rec[0], rec[1], rec[2]
        if tag == _ROUND:
            hx = hy = rec[3] + r
        elif tag == _BOX:
            hx, hy = rec[3] + r, rec[4] + r
        elif tag == _TUNNEL:
            hx, hy = rec[5], rec[3]
        else:  # _BAR
            hx, hy = rec[3], rec[4]
        boxes.append((ex - hx, ex + hx, ey - hy, ey + hy))
    return boxes


# Pad of a tick's reach box, relative to its coordinates: far above the
# rounding of the substep sums and of the record checks (a few ulps per
# substep) and far below any geometry, so at worst it keeps a record that
# the tick cannot reach.
_REACH_PAD = 1e-6


def _first_violation(records: list[tuple], x: float, y: float, h_z: float,
                     s_y: float, r: float) -> str | None:
    """The violation of the first record the robot at (x, y) with body height
    ``h_z`` and stance ``s_y`` breaks, or None."""
    for rec in records:
        tag, ex, ey = rec[0], rec[1], rec[2]
        if tag == _ROUND:
            if ((x - ex) ** 2 + (y - ey) ** 2) ** 0.5 - rec[3] < r:
                return rec[4]
        elif tag == _BOX:
            hx, hy = rec[3], rec[4]
            dx = max(abs(x - ex) - hx, 0.0)
            dy = max(abs(y - ey) - hy, 0.0)
            if dx == 0.0 and dy == 0.0:
                distance = max(abs(x - ex) - hx, abs(y - ey) - hy)
            else:
                distance = (dx * dx + dy * dy) ** 0.5
            if distance < r:
                return rec[5]
        elif tag == _TUNNEL:
            _, _, _, outer_r, half_depth, half_depth_r, passage, apex, face = rec
            lateral = abs(y - ey)
            if lateral >= outer_r:
                continue  # not at this tunnel at all
            if abs(x - ex) <= half_depth:
                # Triangular cross-sections narrow linearly toward the apex.
                half = passage if apex is None else passage * max(0.0, 1.0 - h_z / apex)
                if lateral > max(half - r, 0.0):
                    return "footprint hit tunnel wall"
                if s_y > 2.0 * half:
                    return "stance wider than tunnel passage"
            elif abs(x - ex) < half_depth_r:
                # Approaching the wall faces; conservative at the corners.
                if lateral > face:
                    return "footprint hit tunnel wall"
        elif abs(x - ex) <= rec[3] and abs(y - ey) <= rec[4] and h_z >= rec[5]:  # _BAR
            return "body height above bar clearance"
    return None


def check_collision(pose, body: BodyState, entities: list[Entity],
                    config: SimConfig | None = None) -> str | None:
    """Return a violation description if the robot footprint at ``pose``
    intersects solid geometry (obstacles, letter boxes, tunnel walls) or
    ``body`` fails the bar/tunnel height constraints; None otherwise."""
    r = (config or SimConfig()).footprint_radius
    x, y, _ = pose
    return _first_violation(_collision_records(entities, r), x, y, body.h_z, body.s_y, r)


def _distance_to_target(state: WorldState, scene: Scene) -> float:
    x, y, _ = state.robot_pose
    tx, ty, _ = scene.entities[scene.target_index].pose
    return math.hypot(x - tx, y - ty)


def _bearing_error(state: WorldState, scene: Scene) -> float:
    x, y, yaw = state.robot_pose
    tx, ty, _ = scene.entities[scene.target_index].pose
    return abs(_wrap_angle(math.atan2(ty - y, tx - x) - yaw))


def check_success(state: WorldState, scene: Scene, config: SimConfig) -> Status:
    """Evaluate the scene task's success criterion on the current state.

    Distance-based skills succeed strictly inside the success radius; the
    skill-specific extras (bar crossed, orientation held, ball landed in the
    receptacle, tunnel cleared) are encoded per skill below. Reports Timeout
    once the step budget is exhausted without success.
    """
    skill = scene.task.skill

    if skill in (Skill.GO_TO, Skill.GO_AVOID):
        ok = _distance_to_target(state, scene) < config.success_radius
    elif skill is Skill.CRAWL:
        ok = _distance_to_target(state, scene) < config.success_radius and state.bar_passed
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
        return Status.SUCCESS
    if state.step_count >= config.max_ticks:
        return Status.TIMEOUT
    return Status.RUNNING


class Simulator:
    """Owns one episode: advances the world, judges outcomes, absorbs terminals."""

    def __init__(self, scene: Scene, config: SimConfig | None = None):
        self.config = config or SimConfig()
        self.scene = scene
        self.state = scene.initial_state(self.config.standing_height)
        self.status = Status.RUNNING
        self.violation: str | None = None
        cfg = self.config
        r = cfg.footprint_radius
        self._set_records(self.state.entities)
        # The robot has crossed a bar once its x passes the nearest bar's far
        # face plus the footprint radius.
        self._bar_crossed_at = min((ent.pose[0] + ent.dims[0] / 2.0 + r
                                    for ent in scene.entities if ent.kind is EntityKind.BAR),
                                   default=math.inf)
        rates, slew = cfg.rates, cfg.slew
        self._dt = dt = rates.substep_dt
        self._substeps = rates.substeps
        self._slew_steps = (slew.h_z * dt, slew.phi * dt, slew.s_y * dt, slew.h_z_f * dt,
                            slew.theta * dt, slew.f * dt)
        self._maybe_mark_success()

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def outcome(self) -> StepOutcome:
        return StepOutcome(self.status, self.violation)

    def step(self, a: ActionCommand) -> StepOutcome:
        """Apply one command tick. Raises, leaving the state as it was, if the
        episode already ended or a command value is not finite."""
        if self.done:
            raise SimulationError(f"episode already terminal ({self.status.value})")
        if not all(map(math.isfinite, a.continuous())):
            raise SimulationError(f"non-finite command: {a.continuous()}")
        dt, n, r = self._dt, self._substeps, self.config.footprint_radius
        s_h_z, s_phi, s_s_y, s_h_z_f, s_theta, s_f = self._slew_steps
        state = self.state
        body = state.body
        x, y, yaw = state.robot_pose
        v_x, v_y, omega_z = a.v_x, a.v_y, a.omega_z
        # No substep moves the robot more than (|v_x| + |v_y|) * dt along
        # either axis, so only records whose box meets the reach box can stop
        # it this tick.
        reach = n * (abs(v_x) + abs(v_y)) * dt
        reach += _REACH_PAD * (1.0 + abs(x) + abs(y) + reach)
        x0, x1, y0, y1 = x - reach, x + reach, y - reach, y + reach
        live = [rec for rec, (bx0, bx1, by0, by1) in zip(self._records, self._boxes)
                if bx0 <= x1 and x0 <= bx1 and by0 <= y1 and y0 <= by1]
        bar_crossed_at, passed = self._bar_crossed_at, state.bar_passed
        # The body slews independently of the pose; the collision check reads
        # the body height and stance of each substep. A body already at its
        # targets stays the same object.
        h_z, s_y, theta = body.h_z, body.s_y, body.theta
        at_targets = _same_bits(
            (a.h_z, a.phi, a.s_y, a.h_z_f, a.theta_1, a.theta_2, a.theta_3, a.f),
            (h_z, body.phi, s_y, body.h_z_f, *theta, body.f),
        )
        collided = None
        cos, sin = math.cos, math.sin
        for k in range(n):
            # Translate with the current yaw, then rotate.
            cos_yaw, sin_yaw = cos(yaw), sin(yaw)
            x += (v_x * cos_yaw - v_y * sin_yaw) * dt
            y += (v_x * sin_yaw + v_y * cos_yaw) * dt
            yaw += omega_z * dt
            if not passed:
                passed = x > bar_crossed_at
            if live:
                h_z = _slew(h_z, a.h_z, s_h_z, 1)
                s_y = _slew(s_y, a.s_y, s_s_y, 1)
                collided = _first_violation(live, x, y, h_z, s_y, r)
                if collided is not None:
                    break
        pose = (x, y, yaw)
        if not all(map(math.isfinite, pose)):
            raise SimulationError(f"non-finite pose after integration: {pose}")

        if not at_targets:
            # A channel the collision check did not read needs only its value
            # after the k + 1 substeps.
            m = k + 1
            if not live:
                h_z = _slew(h_z, a.h_z, s_h_z, m)
                s_y = _slew(s_y, a.s_y, s_s_y, m)
            body = BodyState(
                h_z, _slew(body.phi, a.phi, s_phi, m), s_y,
                _slew(body.h_z_f, a.h_z_f, s_h_z_f, m),
                (_slew(theta[0], a.theta_1, s_theta, m), _slew(theta[1], a.theta_2, s_theta, m),
                 _slew(theta[2], a.theta_3, s_theta, m)),
                _slew(body.f, a.f, s_f, m),
            )
        step_count = state.step_count + 1
        # Every field, so that no per-tick ``dataclasses.replace`` is needed.
        self.state = WorldState(
            robot_pose=pose, body=body, carried_object=state.carried_object,
            entities=state.entities, sim_time=step_count / self.config.rates.f_low,
            step_count=step_count, oriented_ticks=state.oriented_ticks,
            bar_passed=passed, ball_released=state.ball_released,
        )
        self._update_orientation_hold()
        self._maybe_release_ball()

        if collided is not None:
            self.status, self.violation = Status.COLLISION, collided
        elif not self._in_arena():
            self.status = Status.OUT_OF_BOUNDS
        else:
            self.status = check_success(self.state, self.scene, self.config)
        return self.outcome()

    # -- internal bookkeeping -------------------------------------------------

    def _set_records(self, entities: list[Entity]) -> None:
        r = self.config.footprint_radius
        self._records = _collision_records(entities, r)
        self._boxes = _reach_boxes(self._records, r)

    def _in_arena(self) -> bool:
        x0, x1, y0, y1 = self.config.arena
        x, y, _ = self.state.robot_pose
        return x0 <= x <= x1 and y0 <= y <= y1

    def _maybe_mark_success(self) -> None:
        if check_success(self.state, self.scene, self.config) is Status.SUCCESS:
            self.status = Status.SUCCESS

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
        self._set_records(self.state.entities)
        self.state.carried_object = None
        self.state.ball_released = True

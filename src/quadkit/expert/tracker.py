"""Command-level controller that turns a planned path into action commands.

One tracker instance drives one episode. Locomotion tasks follow the planned
path with pure pursuit (fixed lookahead) plus a PD loop on heading and on
distance-to-goal, with forward speed clipped into the band of the commanded
speed level. The distinguish task rotates in place toward the lettered box,
and the unload task switches to a stationary dump once within reach of the
receptacle. Body-configuration channels are filled from the task: gait phase
offsets, stance, and a height profile that ducks for bars and tunnels.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..actions import ActionCommand
from ..config import RunConfig
from ..taxonomy import GAIT_PHASES, Skill
from ..world.scene import Scene
from ..world.sim import _wrap_angle
from ..world.state import WorldState
from .astar import PlannedPath


class PathTracker:
    """One episode's controller, tuned by ``run.expert`` and ``run.sim`` alone."""

    def __init__(self, scene: Scene, path: PlannedPath | None, run: RunConfig):
        self.task = scene.task
        self.scene = scene
        self.path = path
        self.expert = run.expert
        self.sim = run.sim
        if self.task.skill is not Skill.DISTINGUISH and path is None:
            raise ValueError(f"{self.task.skill.value} requires a planned path")
        self._progress = 0
        self._prev_heading_err: float | None = None
        self._prev_dist: float | None = None

    # -- channel profiles -------------------------------------------------------

    def _height_profile(self) -> float:
        if self.task.skill is Skill.CRAWL:
            return self.expert.crawl_height
        if self.task.skill is Skill.GO_THROUGH:
            return self.expert.tunnel_height_profile
        return self.sim.standing_height

    def _base_command(self, v_x: float, omega: float, phi: float = 0.0) -> ActionCommand:
        theta = GAIT_PHASES[self.task.gait]
        return ActionCommand(
            v_x=v_x, v_y=0.0, omega_z=omega,
            theta_1=theta[0], theta_2=theta[1], theta_3=theta[2],
            f=self.expert.gait_frequency,
            h_z=self._height_profile(), phi=phi,
            s_y=self.expert.stance_width,
            h_z_f=self.expert.foot_swing_height,
        )

    # -- control loops ----------------------------------------------------------

    def _heading_control(self, err: float, dt: float) -> float:
        gains = self.expert.gains
        d_err = 0.0 if self._prev_heading_err is None else (err - self._prev_heading_err) / dt
        self._prev_heading_err = err
        omega = gains.k_p_ang * err + gains.k_d_ang * d_err
        return max(-1.0, min(1.0, omega))

    def _speed_control(self, dist: float, dt: float) -> float:
        gains = self.expert.gains
        d_dist = 0.0 if self._prev_dist is None else (dist - self._prev_dist) / dt
        self._prev_dist = dist
        v = gains.k_p_lin * dist + gains.k_d_lin * d_dist
        lo, hi = self.expert.bands.band(self.task.speed)
        return max(lo, min(hi, v))

    def _lookahead_distance(self) -> float:
        # The aim point must stay ahead of one tick of travel or tracking
        # degenerates into weaving around the path.
        _, hi = self.expert.bands.band(self.task.speed)
        return max(self.expert.lookahead, 1.2 * hi * self.sim.rates.tick_dt)

    def _lookahead_point(self, x: float, y: float) -> tuple[float, float]:
        wps = self.path.waypoints
        if len(wps) == 1:
            return wps[0]
        # Project the robot onto the path (never backwards past _progress),
        # then walk one lookahead of arc length forward and interpolate.
        best: tuple[float, int, float, float] | None = None
        for i in range(self._progress, len(wps) - 1):
            ax, ay = wps[i]
            bx, by = wps[i + 1]
            dx, dy = bx - ax, by - ay
            seg2 = dx * dx + dy * dy
            t = 0.0 if seg2 == 0.0 else ((x - ax) * dx + (y - ay) * dy) / seg2
            t = max(0.0, min(1.0, t))
            px, py = ax + t * dx, ay + t * dy
            d2 = (px - x) ** 2 + (py - y) ** 2
            if best is None or d2 < best[0] - 1e-12:
                best = (d2, i, px, py)
        _, seg, px, py = best
        self._progress = seg
        remaining = self._lookahead_distance()
        cx, cy = px, py
        for j in range(seg, len(wps) - 1):
            bx, by = wps[j + 1]
            step = math.hypot(bx - cx, by - cy)
            if step >= remaining:
                u = 1.0 if step == 0.0 else remaining / step
                return (cx + u * (bx - cx), cy + u * (by - cy))
            remaining -= step
            cx, cy = bx, by
        return wps[-1]

    # -- per-skill behaviors ------------------------------------------------------

    def _track_path(self, state: WorldState) -> ActionCommand:
        x, y, yaw = state.robot_pose
        dt = self.sim.rates.tick_dt
        lx, ly = self._lookahead_point(x, y)
        err = _wrap_angle(math.atan2(ly - y, lx - x) - yaw)
        omega = self._heading_control(err, dt)
        gx, gy = self.scene.goal_xy
        v = self._speed_control(math.hypot(gx - x, gy - y), dt)
        # Slow through bends: full band speed only when pointed along the
        # path, dropping smoothly as heading error grows.
        v *= max(0.0, math.cos(err)) ** 2
        if abs(err) > self.expert.heading_gate:
            v = 0.0
        return self._base_command(v, omega)

    def _face_target(self, state: WorldState, phi: float = 0.0) -> ActionCommand:
        """Turn in place toward the target entity."""
        x, y, yaw = state.robot_pose
        tx, ty, _ = self.scene.target.pose
        err = _wrap_angle(math.atan2(ty - y, tx - x) - yaw)
        omega = self._heading_control(err, self.sim.rates.tick_dt)
        return self._base_command(0.0, omega, phi)

    def _unload(self, state: WorldState) -> ActionCommand:
        x, y, _ = state.robot_pose
        tx, ty, _ = self.scene.target.pose
        dist = math.hypot(tx - x, ty - y)
        if state.ball_released or dist <= self.expert.unload_dump_radius:
            return self._face_target(state, phi=self.expert.unload_dump_pitch)
        return self._track_path(state)

    def command(self, state: WorldState) -> ActionCommand:
        """Next command for the current world state."""
        skill = self.task.skill
        if skill is Skill.DISTINGUISH:
            return self._face_target(state)
        if skill is Skill.UNLOAD:
            return self._unload(state)
        return self._track_path(state)

    def stop_command(self) -> ActionCommand:
        """Stand still and raise the terminate flag."""
        return replace(self._base_command(0.0, 0.0), terminate=True)

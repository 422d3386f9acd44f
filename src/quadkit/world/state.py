"""World state containers and per-tick outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .entities import Entity


class Status(str, Enum):
    RUNNING = "running"
    SUCCESS = "success"
    COLLISION = "collision"
    TIMEOUT = "timeout"
    OUT_OF_BOUNDS = "out_of_bounds"


TERMINAL_STATUSES = (Status.SUCCESS, Status.COLLISION, Status.TIMEOUT, Status.OUT_OF_BOUNDS)


@dataclass(frozen=True)
class BodyState:
    """Realized body configuration, slewed toward the last command."""

    h_z: float = 0.25
    phi: float = 0.0
    s_y: float = 0.30
    h_z_f: float = 0.08
    theta: tuple[float, float, float] = (0.5, 0.0, 0.0)
    f: float = 3.0


@dataclass(frozen=True)
class StepOutcome:
    status: Status
    violation: str | None = None


@dataclass
class WorldState:
    """Everything the simulator tracks about one episode's world.

    The robot starts at the origin. ``sim_time`` is always
    ``step_count / f_low`` for the rate config used to advance the state.
    Counters at the bottom support success criteria that need history
    (orientation hold, bar crossing, ball release).
    """

    robot_pose: tuple[float, float, float] = (0.0, 0.0, 0.0)
    body: BodyState = field(default_factory=BodyState)
    carried_object: Entity | None = None
    entities: list[Entity] = field(default_factory=list)
    sim_time: float = 0.0
    step_count: int = 0
    oriented_ticks: int = 0
    bar_passed: bool = False
    ball_released: bool = False

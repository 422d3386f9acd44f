"""Scene entities: targets, obstacles, tunnels, bars, receptacles, letter boxes.

Geometry is deliberately schematic: every entity is an upright box or
cylinder described by a 2D pose and bounding extents, which keeps collision
and rendering exact and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..taxonomy import Color


class EntityKind(str, Enum):
    TARGET_OBJECT = "target_object"
    OBSTACLE = "obstacle"
    TUNNEL = "tunnel"
    BAR = "bar"
    RECEPTACLE = "receptacle"
    LETTER_BOX = "letter_box"
    CARRIED_BALL = "carried_ball"


# Kinds whose footprint blocks the robot. Targets and receptacles are
# non-solid: the robot stops at the target and leans over the receptacle.
SOLID_KINDS = (EntityKind.OBSTACLE, EntityKind.LETTER_BOX)

# Shapes whose footprint is a circle of diameter dims[0]; every other
# footprint is the axis-aligned dims[0] x dims[1] box.
ROUND_SHAPES = ("ball", "cylinder", "sphere", "tube", "vase", "trashcan", "fan")


@dataclass
class Entity:
    kind: EntityKind
    shape: str                      # catalog category or proxy name
    color: Color
    pose: tuple[float, float, float]      # x, y, yaw
    dims: tuple[float, float, float]      # bounding extents dx, dy, dz
    attributes: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.dims) <= 0:
            raise ValueError(f"entity dims must be positive, got {self.dims}")

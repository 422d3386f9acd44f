"""Scene description: the entity layout for one task instance."""

from __future__ import annotations

from dataclasses import dataclass

from ..taxonomy import TaskSpec
from .entities import Entity, EntityKind
from .state import BodyState, WorldState


@dataclass
class Scene:
    task: TaskSpec
    entities: list[Entity]
    target_index: int
    goal_xy: tuple[float, float]
    start_pose: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def target(self) -> Entity:
        return self.entities[self.target_index]

    def initial_state(self, standing_height: float) -> WorldState:
        """Build the episode-start world state (robot at the origin)."""
        carried = None
        entities = list(self.entities)
        if self.task.skill.value == "unload":
            carried = Entity(
                kind=EntityKind.CARRIED_BALL, shape="ball",
                color=self.target.color, pose=self.start_pose,
                dims=(0.12, 0.12, 0.12),
            )
        return WorldState(
            robot_pose=self.start_pose,
            body=BodyState(h_z=standing_height),
            carried_object=carried,
            entities=entities,
        )

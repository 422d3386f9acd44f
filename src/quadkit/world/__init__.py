from .entities import Entity, EntityKind
from .scene import Scene
from .state import BodyState, StepOutcome, Status, WorldState
from .sim import SimulationError, Simulator, check_collision, check_success
from .camera import Observation, render_observation, to_ppm

__all__ = [
    "Entity", "EntityKind", "Scene", "BodyState", "StepOutcome", "Status",
    "WorldState", "SimulationError", "Simulator", "check_collision",
    "check_success", "Observation", "render_observation", "to_ppm",
]

from .grid import OccupancyGrid, grid_from_scene
from .astar import NoPathError, PlannedPath, line_of_sight, plan_astar, smooth_path
from .dstar_lite import DStarLitePlanner
from .scenes import sample_scene
from .tracker import PathTracker
from .collect import generate_episode

__all__ = [
    "OccupancyGrid",
    "grid_from_scene",
    "NoPathError",
    "PlannedPath",
    "plan_astar",
    "smooth_path",
    "line_of_sight",
    "DStarLitePlanner",
    "sample_scene",
    "PathTracker",
    "generate_episode",
]

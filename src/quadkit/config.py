"""Numeric defaults for the simulator, scene sampler, and expert pipeline.

Every tunable the rest of the package consumes lives in one of the dataclasses
below; code never hardcodes a range or threshold. All configs round-trip
through JSON so a run can be pinned to a config file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .taxonomy import BASIC_SHAPES, INDOOR_FURNITURE, OUTDOOR_FACILITIES, UNSEEN_CATEGORIES

# Per-dimension command envelope: (name, min, max, unit). Chosen as a
# plausible envelope for a ~25 cm standing-height robot; override via the
# action-space config file if the platform differs.
DEFAULT_ACTION_RANGES = (
    ("v_x", -1.0, 1.0, "m/s"),
    ("v_y", -0.6, 0.6, "m/s"),
    ("omega_z", -1.0, 1.0, "rad/s"),
    ("theta_1", 0.0, 1.0, "cycle"),
    ("theta_2", 0.0, 1.0, "cycle"),
    ("theta_3", 0.0, 1.0, "cycle"),
    ("f", 1.5, 4.0, "Hz"),
    ("h_z", 0.10, 0.35, "m"),
    ("phi", -0.4, 0.4, "rad"),
    ("s_y", 0.0, 0.45, "m"),
    ("h_z_f", 0.03, 0.25, "m"),
)


@dataclass(frozen=True)
class RateConfig:
    """Two-rate execution scheme: command ticks at f_low, integration at f_high."""

    f_high: float = 50.0
    f_low: float = 2.0

    def __post_init__(self):
        n = self.f_high / self.f_low
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(f"f_high/f_low must be a positive integer, got {n}")

    @property
    def substeps(self) -> int:
        return round(self.f_high / self.f_low)

    @property
    def tick_dt(self) -> float:
        return 1.0 / self.f_low

    @property
    def substep_dt(self) -> float:
        return 1.0 / self.f_high


@dataclass(frozen=True)
class SlewConfig:
    """Max rates at which realized body state chases commanded values."""

    h_z: float = 0.2        # m/s
    phi: float = 0.5        # rad/s
    s_y: float = 0.3        # m/s
    h_z_f: float = 0.3      # m/s
    f: float = 5.0          # Hz/s
    theta: float = 2.0      # cycle/s

    def __post_init__(self):
        # A negative or non-finite rate would slew away from the target.
        for spec in dataclasses.fields(self):
            rate = getattr(self, spec.name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"slew rate {spec.name} must be finite and >= 0, got {rate!r}")


@dataclass(frozen=True)
class CameraConfig:
    width: int = 64
    height: int = 48
    hfov_deg: float = 70.0
    forward_offset: float = 0.18   # camera sits at the front of the body
    height_offset: float = 0.05    # above realized body height
    near_plane: float = 0.05

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"camera width and height must be >= 1, "
                             f"got {self.width}x{self.height}")


@dataclass(frozen=True)
class SimConfig:
    """World-simulation constants: geometry, success criteria, termination."""

    rates: RateConfig = field(default_factory=RateConfig)
    slew: SlewConfig = field(default_factory=SlewConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    footprint_radius: float = 0.20          # half of the 0.40 m body length
    standing_height: float = 0.25
    success_radius: float = 1.0             # strict < check
    distinguish_bearing_deg: float = 10.0
    distinguish_hold_ticks: int = 4
    go_through_margin: float = 0.3          # beyond the tunnel far face
    max_ticks: int = 120
    arena: tuple[float, float, float, float] = (-1.5, 6.0, -3.5, 3.5)
    release_pitch: float = 0.30             # realized pitch that dumps the ball
    throw_distance: float = 0.40            # ball lands this far ahead


@dataclass(frozen=True)
class SceneConfig:
    """Scene sampling geometry. Target placement mirrors the collection
    constraints: x in [2.7, 3.3], y in [0.9, 1.1], obstacle 1.5 m before the
    target at the same y."""

    target_x_range: tuple[float, float] = (2.7, 3.3)
    target_y_range: tuple[float, float] = (0.9, 1.1)
    obstacle_gap: float = 1.5
    obstacle_dims: tuple[float, float, float] = (0.45, 0.45, 0.5)
    tunnel_passage_width: float = 1.1
    tunnel_wall_thickness: float = 0.1
    tunnel_depth: float = 0.8
    tunnel_height: float = 0.6
    tunnel_separation: float = 2.0          # lateral offset of the wrong tunnel
    bar_offset: float = 1.5                 # bar this far before the target
    bar_thickness: float = 0.06
    bar_span: float = 2.2
    bar_clearance_range: tuple[float, float] = (0.15, 0.22)
    receptacle_dims: tuple[float, float, float] = (0.7, 0.7, 0.25)
    letterbox_dims: tuple[float, float, float] = (0.4, 0.4, 0.4)
    distractor_offset: float = 2.0          # lateral offset of the wrong box
    shape_dims: dict = field(default_factory=lambda: {
        "cube": (0.3, 0.3, 0.3),
        "ball": (0.3, 0.3, 0.3),
        "cylinder": (0.24, 0.24, 0.4),
    })
    furniture_dims: dict = field(default_factory=lambda: {
        "bookshelf": (0.4, 0.8, 1.2),
        "oven": (0.6, 0.6, 0.8),
        "vase": (0.25, 0.25, 0.5),
        "cooker": (0.5, 0.5, 0.5),
        "drawers": (0.5, 0.4, 0.7),
        "fan": (0.35, 0.35, 1.0),
        "sofa": (0.8, 1.6, 0.7),
        "trashcan": (0.35, 0.35, 0.6),
        "bench": (0.5, 1.4, 0.5),
    })
    default_dims: tuple[float, float, float] = (0.4, 0.4, 0.4)

    def __post_init__(self):
        # A dims table merges into its default; a key no lookup reads is a typo.
        for name, keys in _TABLE_KEYS.items():
            table = getattr(self, name)
            for key in table:
                if key not in keys:
                    raise ValueError(f"unknown config key 'scene.{name}.{key}'")
            default = self.__dataclass_fields__[name].default_factory()
            object.__setattr__(self, name, {**default, **table})


@dataclass(frozen=True)
class SpeedBands:
    """Target |v_x| band per speed level; disjoint thirds of the envelope."""

    slow: tuple[float, float] = (0.2, 0.4)
    normal: tuple[float, float] = (0.4, 0.7)
    fast: tuple[float, float] = (0.7, 1.0)

    def band(self, level) -> tuple[float, float]:
        return getattr(self, level.value)


@dataclass(frozen=True)
class PDGains:
    k_p_lin: float = 1.0
    k_d_lin: float = 0.1
    k_p_ang: float = 2.0
    k_d_ang: float = 0.2

    def __post_init__(self):
        for name in ("k_p_lin", "k_d_lin", "k_p_ang", "k_d_ang"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ExpertConfig:
    """Planner and tracker settings for the demonstration pipeline."""

    gains: PDGains = field(default_factory=PDGains)
    bands: SpeedBands = field(default_factory=SpeedBands)
    lookahead: float = 0.4
    grid_resolution: float = 0.05
    inflation_margin: float = 0.15          # added to footprint when planning
    gait_frequency: float = 3.0             # Hz commanded for every gait
    stance_width: float = 0.30
    foot_swing_height: float = 0.08
    crawl_height: float = 0.12
    tunnel_height_profile: float = 0.15
    unload_dump_radius: float = 0.7
    unload_dump_pitch: float = 0.38
    heading_gate: float = 1.0               # rad; above this, creep at band floor

    def __post_init__(self):
        if not (math.isfinite(self.grid_resolution) and self.grid_resolution > 0):
            raise ValueError(f"grid_resolution must be finite and > 0, "
                             f"got {self.grid_resolution!r}")


# Full-scale per-task episode counts for the collection plan; the desk-scale
# default divides these by plan_divisor. "go_to_real" stands in for the
# lab-collected split so mixing and statistics see a sim:real share.
FULL_SCALE_PLAN = {
    "distinguish": 10_000,
    "go_to": 72_000,
    "go_through": 48_000,
    "go_avoid": 63_000,
    "crawl": 1_000,
    "unload": 52_000,
    "go_to_real": 3_000,
}

# Gait usage shares for generated data: trot dominates.
GAIT_WEIGHTS = {"trot": 0.7, "bound": 0.1, "pace": 0.1, "pronk": 0.1}

PLAN_DIVISOR = 1000


@dataclass(frozen=True)
class RunConfig:
    """Bundle of everything a collection or evaluation run needs."""

    sim: SimConfig = field(default_factory=SimConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)
    expert: ExpertConfig = field(default_factory=ExpertConfig)


# The keys scenes._dims_for can look up in each table (a shape variant as its
# base); it reads shape_dims, which always holds the basic shapes, first.
_OBJECTS = INDOOR_FURNITURE + OUTDOOR_FACILITIES + UNSEEN_CATEGORIES
_TABLE_KEYS = {"shape_dims": BASIC_SHAPES + _OBJECTS, "furniture_dims": _OBJECTS}


def _value(value, default, path: str):
    """``value`` from JSON, checked against the type of ``default``.

    An int may stand in for a float and a JSON list for a tuple of the same
    length; anything else raises ValueError naming the dotted path. A new
    table key takes the type of the default's first entry.
    """
    if dataclasses.is_dataclass(default):
        return _build(type(default), value, f"{path}.")
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise ValueError(f"config value '{path}' must be a list of {len(default)}")
        return tuple(_value(v, d, f"{path}[{i}]")
                     for i, (v, d) in enumerate(zip(value, default)))
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config value '{path}' must be a JSON object")
        sample = next(iter(default.values()))
        return {k: _value(v, default.get(k, sample), f"{path}.{k}") for k, v in value.items()}
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, expected):
        raise ValueError(
            f"config value '{path}' must be {type(default).__name__}, got {value!r}"
        )
    return value


def _build(cls, data, path: str = ""):
    """``cls`` from its JSON form; nested config types come from the defaults.

    Raises ValueError naming the dotted path of the first unknown key or of
    the first value whose type does not match the default's.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{path.rstrip('.') or 'config'} must be a JSON object")
    default = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ValueError(f"unknown config key '{path}{key}'")
        kwargs[key] = _value(value, getattr(default, key), f"{path}{key}")
    return cls(**kwargs)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")


def load_config(path: str | Path) -> RunConfig:
    return _build(RunConfig, json.loads(Path(path).read_text()))

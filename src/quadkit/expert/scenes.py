"""Deterministic scene sampling for each skill.

Every scene draws the target position first (x in [2.7, 3.3], y in
[0.9, 1.1] by default), then lays out skill-specific geometry around it:
the avoid-task obstacle sits exactly ``obstacle_gap`` before the target at
the same y, tunnels come in a correct/wrong pair offset laterally, the
crawl bar spans the approach corridor, and the distinguish distractor box
carries a different letter. Identical (task, seed) pairs produce identical
scenes.
"""

from __future__ import annotations

import numpy as np

from ..config import SceneConfig
from ..taxonomy import (
    BASIC_SHAPES,
    SEEN_COLORS,
    SHAPE_VARIANTS,
    LETTERS,
    Color,
    ObjectRef,
    Skill,
    TaskSpec,
)
from ..world.entities import Entity, EntityKind
from ..world.scene import Scene

_VARIANT_BASE = {v: k for k, v in SHAPE_VARIANTS.items()}


def _dims_for(category: str, cfg: SceneConfig) -> tuple[float, float, float]:
    base = _VARIANT_BASE.get(category, category)
    if base in cfg.shape_dims:
        return tuple(cfg.shape_dims[base])
    if base in cfg.furniture_dims:
        return tuple(cfg.furniture_dims[base])
    return tuple(cfg.default_dims)


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(0, len(options)))]


def _pick_color(rng: np.random.Generator, exclude=()) -> Color:
    palette = [c for c in SEEN_COLORS if c not in exclude]
    if not palette:
        palette = [c for c in Color if c not in exclude]
    return _pick(rng, palette)


def _target_entity(obj: ObjectRef, pos: tuple[float, float],
                   rng: np.random.Generator, cfg: SceneConfig) -> Entity:
    color = obj.color if obj.color is not None else _pick_color(rng)
    return Entity(
        kind=EntityKind.TARGET_OBJECT, shape=obj.category, color=color,
        pose=(pos[0], pos[1], 0.0), dims=_dims_for(obj.category, cfg),
    )


def _distractor_entity(avoid: Entity, pos: tuple[float, float],
                       rng: np.random.Generator, cfg: SceneConfig) -> Entity:
    categories = [s for s in BASIC_SHAPES if s != avoid.shape]
    category = _pick(rng, categories)
    color = _pick_color(rng, exclude=(avoid.color,))
    return _target_entity(ObjectRef(category, color), pos, rng, cfg)


def sample_scene(task: TaskSpec, seed: int,
                 config: SceneConfig | None = None) -> Scene:
    """Sample the entity layout for one episode of ``task``."""
    cfg = config or SceneConfig()
    rng = np.random.default_rng(seed)
    tx = float(rng.uniform(*cfg.target_x_range))
    ty = float(rng.uniform(*cfg.target_y_range))
    skill = task.skill
    entities: list[Entity]
    goal = (tx, ty)

    if skill in (Skill.GO_TO, Skill.GO_AVOID):
        target = _target_entity(task.obj, (tx, ty), rng, cfg)
        distractor = _distractor_entity(
            target, (tx, ty - cfg.distractor_offset), rng, cfg
        )
        entities = [target, distractor]
        if skill is Skill.GO_AVOID:
            entities.append(Entity(
                kind=EntityKind.OBSTACLE, shape="cube",
                color=_pick_color(rng, exclude=(target.color,)),
                pose=(tx - cfg.obstacle_gap, ty, 0.0),
                dims=cfg.obstacle_dims,
            ))
    elif skill is Skill.GO_THROUGH:
        outer_half = cfg.tunnel_passage_width / 2.0 + cfg.tunnel_wall_thickness
        cross = "triangle" if "triangle" in task.obj.category else "rectangle"
        other_cross = "rectangle" if cross == "triangle" else "triangle"
        color = task.obj.color if task.obj.color else _pick_color(rng)

        def tunnel(cy: float, cross_section: str, tunnel_color: Color) -> Entity:
            return Entity(
                kind=EntityKind.TUNNEL, shape=f"{cross_section} tunnel",
                color=tunnel_color, pose=(tx, cy, 0.0),
                dims=(cfg.tunnel_depth, 2.0 * outer_half, cfg.tunnel_height),
                attributes={
                    "passage_width": cfg.tunnel_passage_width,
                    "outer_halfwidth": outer_half,
                    "wall_thickness": cfg.tunnel_wall_thickness,
                    "cross_section": cross_section,
                    "height": cfg.tunnel_height,
                },
            )

        wrong_color = _pick_color(rng, exclude=(color,))
        entities = [
            tunnel(ty, cross, color),
            tunnel(ty - cfg.tunnel_separation, other_cross, wrong_color),
        ]
        goal = (tx + cfg.tunnel_depth / 2.0 + 0.6, ty)
    elif skill is Skill.CRAWL:
        clearance = float(rng.uniform(*cfg.bar_clearance_range))
        marker = _target_entity(ObjectRef("cube"), (tx, ty), rng, cfg)
        bar = Entity(
            kind=EntityKind.BAR, shape="bar", color=_pick_color(rng),
            pose=(tx - cfg.bar_offset, ty, 0.0),
            dims=(cfg.bar_thickness, cfg.bar_span, cfg.bar_thickness),
            attributes={"clearance": clearance},
        )
        entities = [marker, bar]
    elif skill is Skill.UNLOAD:
        color = task.obj.color if task.obj.color else _pick_color(rng)
        entities = [Entity(
            kind=EntityKind.RECEPTACLE, shape="traybox", color=color,
            pose=(tx, ty, 0.0), dims=cfg.receptacle_dims,
        )]
    elif skill is Skill.DISTINGUISH:
        color = _pick_color(rng)
        wrong_letter = _pick(rng, [l for l in LETTERS if l != task.obj.letter])
        wrong_color = _pick_color(rng, exclude=(color,))
        entities = [
            Entity(
                kind=EntityKind.LETTER_BOX, shape="letter box", color=color,
                pose=(tx, ty, 0.0), dims=cfg.letterbox_dims,
                attributes={"letter": task.obj.letter},
            ),
            Entity(
                kind=EntityKind.LETTER_BOX, shape="letter box", color=wrong_color,
                pose=(tx, ty - cfg.distractor_offset, 0.0), dims=cfg.letterbox_dims,
                attributes={"letter": wrong_letter},
            ),
        ]
    else:
        raise ValueError(f"unknown skill {skill!r}")

    return Scene(
        task=task, entities=entities, target_index=0, goal_xy=goal,
        start_pose=(0.0, 0.0, 0.0),
    )

"""Desk-scale toolkit for a language-commanded quadruped task family.

The pieces compose in this order: a discrete action codec
(:mod:`quadkit.actions`), a deterministic kinematic simulator of the tasks
(:mod:`quadkit.world`), a classical-planning demonstration pipeline
(:mod:`quadkit.expert`), instruction templates (:mod:`quadkit.language`),
an on-disk episode store (:mod:`quadkit.store`), and a policy evaluation
harness (:mod:`quadkit.evaluation`). The ``quadkit`` CLI fronts the common
workflows.
"""

from .actions import (
    ActionCommand,
    ActionSpaceSpec,
    CodecError,
    clamp_to_space,
    default_action_space,
    detokenize,
    tokenize,
)
from .config import RunConfig, SimConfig, load_config, save_config
from .taxonomy import Color, GaitName, ObjectRef, Skill, SpeedLevel, Split, TaskSpec
from .language import Instruction, parse_instruction, render_instruction

__version__ = "0.1.0"

__all__ = [
    "ActionCommand",
    "ActionSpaceSpec",
    "CodecError",
    "clamp_to_space",
    "default_action_space",
    "detokenize",
    "tokenize",
    "RunConfig",
    "SimConfig",
    "load_config",
    "save_config",
    "Color",
    "GaitName",
    "ObjectRef",
    "Skill",
    "SpeedLevel",
    "Split",
    "TaskSpec",
    "Instruction",
    "parse_instruction",
    "render_instruction",
    "__version__",
]

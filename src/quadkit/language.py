"""Instruction text: template rendering and its exact inverse.

Every task instance maps to a natural-language command through a small set
of slot templates ("go to the {object} {speed} with {gait} gait").  Each
skill has one canonical template used for data collection, plus optional
paraphrase templates that are held out of training and exercised only by
the verbal-generalization eval split.

Rendering and parsing are exact inverses over the template set: for any
task spec and template, ``parse_instruction(render_instruction(spec))``
recovers the spec (up to the dataset split tag, which text cannot carry).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

from .taxonomy import (
    BAR_CATEGORY,
    BASIC_SHAPES,
    INDOOR_FURNITURE,
    LETTERS,
    OUTDOOR_FACILITIES,
    RECEPTACLE_CATEGORY,
    SHAPE_VARIANTS,
    TUNNEL_CATEGORIES,
    UNSEEN_CATEGORIES,
    Color,
    GaitName,
    ObjectRef,
    Skill,
    SpeedLevel,
    TaskSpec,
)

SLOTS = ("object", "speed", "gait")

# Every category an object phrase may mention, across all splits.
CATEGORY_VOCAB = (
    BASIC_SHAPES
    + tuple(SHAPE_VARIANTS.values())
    + INDOOR_FURNITURE
    + OUTDOOR_FACILITIES
    + UNSEEN_CATEGORIES
    + TUNNEL_CATEGORIES
    + (RECEPTACLE_CATEGORY, BAR_CATEGORY)
)


class LanguageError(ValueError):
    """Raised for unknown templates or unparseable instruction text."""


@dataclass(frozen=True)
class Template:
    id: str
    skill: Skill
    role: str
    pattern: str

    def __post_init__(self) -> None:
        for slot in SLOTS:
            if self.pattern.count("{%s}" % slot) != 1:
                raise LanguageError(
                    f"template {self.id!r} must use slot {{{slot}}} exactly once"
                )

    def render(self, object_phrase: str, speed_phrase: str, gait_word: str) -> str:
        return self.pattern.format(
            object=object_phrase, speed=speed_phrase, gait=gait_word
        )

    def regex(self, speed_phrases: tuple[str, ...]) -> re.Pattern:
        parts = re.split(r"(\{object\}|\{speed\}|\{gait\})", self.pattern)
        out = []
        for part in parts:
            if part == "{object}":
                out.append(r"(?P<object>.+?)")
            elif part == "{speed}":
                out.append("(?P<speed>%s)" % "|".join(map(re.escape, speed_phrases)))
            elif part == "{gait}":
                out.append("(?P<gait>%s)" % "|".join(g.value for g in GaitName))
            else:
                out.append(re.escape(part))
        return re.compile("".join(out))

    def literal_length(self) -> int:
        skeleton = self.pattern
        for slot in SLOTS:
            skeleton = skeleton.replace("{%s}" % slot, "")
        return len(skeleton)


@dataclass(frozen=True)
class Instruction:
    """Rendered command text together with the spec it encodes."""

    text: str
    spec: TaskSpec
    template_id: str


@functools.lru_cache(maxsize=1)
def _catalog() -> tuple[dict[str, Template], dict[SpeedLevel, str]]:
    raw = json.loads(
        resources.files("quadkit.data").joinpath("templates.json").read_text()
    )
    speed_phrases = {SpeedLevel(k): v for k, v in raw["speed_phrases"].items()}
    if set(speed_phrases) != set(SpeedLevel):
        raise LanguageError("speed_phrases must cover every speed level")
    templates: dict[str, Template] = {}
    for entry in raw["templates"]:
        tpl = Template(
            id=entry["id"],
            skill=Skill(entry["skill"]),
            role=entry["role"],
            pattern=entry["pattern"],
        )
        if tpl.id in templates:
            raise LanguageError(f"duplicate template id {tpl.id!r}")
        templates[tpl.id] = tpl
    for skill in Skill:
        canon = [t for t in templates.values() if t.skill is skill and t.role == "canonical"]
        if len(canon) != 1:
            raise LanguageError(f"skill {skill.value} needs exactly one canonical template")
    return templates, speed_phrases


@functools.lru_cache(maxsize=1)
def _parsers() -> tuple[tuple[tuple[Template, re.Pattern], ...], dict[str, SpeedLevel]]:
    """Templates in parse order, each with its compiled regex, and the map
    from speed phrase back to speed level."""
    templates, phrases = _catalog()
    ordered = sorted(templates.values(), key=lambda t: (-t.literal_length(), t.id))
    speed_phrases = tuple(phrases.values())
    parsers = tuple((tpl, tpl.regex(speed_phrases)) for tpl in ordered)
    return parsers, {v: k for k, v in phrases.items()}


def all_templates() -> tuple[Template, ...]:
    templates, _ = _catalog()
    return tuple(templates.values())


def canonical_template_id(skill: Skill) -> str:
    templates, _ = _catalog()
    for tpl in templates.values():
        if tpl.skill is skill and tpl.role == "canonical":
            return tpl.id
    raise LanguageError(f"no canonical template for {skill.value}")


def paraphrase_ids(skill: Skill) -> tuple[str, ...]:
    """Held-out template ids for the verbal split; empty for some skills."""
    templates, _ = _catalog()
    return tuple(
        t.id for t in templates.values() if t.skill is skill and t.role == "paraphrase"
    )


def speed_phrase(level: SpeedLevel) -> str:
    _, phrases = _catalog()
    return phrases[level]


def render_instruction(spec: TaskSpec, template_id: str | None = None) -> Instruction:
    """Render a task spec to command text, canonically unless told otherwise."""
    templates, phrases = _catalog()
    if template_id is None:
        template_id = canonical_template_id(spec.skill)
    tpl = templates.get(template_id)
    if tpl is None:
        raise LanguageError(f"unknown template id {template_id!r}")
    if tpl.skill is not spec.skill:
        raise LanguageError(
            f"template {template_id!r} renders {tpl.skill.value}, not {spec.skill.value}"
        )
    text = tpl.render(spec.obj.phrase(), phrases[spec.speed], spec.gait.value)
    return Instruction(text=text, spec=spec, template_id=tpl.id)


def _parse_object_phrase(phrase: str, skill: Skill) -> ObjectRef | None:
    words = phrase.split()
    if not words:
        return None
    if skill is Skill.DISTINGUISH:
        if len(words) == 1 and words[0] in LETTERS:
            return ObjectRef("letter", letter=words[0])
        return None
    color = None
    try:
        color = Color(words[0])
        words = words[1:]
    except ValueError:
        pass
    category = " ".join(words)
    if category not in CATEGORY_VOCAB:
        return None
    return ObjectRef(category, color)


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


def parse_instruction(text: str) -> Instruction:
    """Recover the task spec from command text.

    Templates are tried most-literal first so that, e.g., the avoid-obstacle
    wording is never swallowed by the plain go-to object slot.  The split tag
    of the returned spec is always the default; text does not encode it.
    """
    parsers, speed_by_phrase = _parsers()
    normalized = _normalize(text)
    for tpl, regex in parsers:
        m = regex.fullmatch(normalized)
        if m is None:
            continue
        obj = _parse_object_phrase(m.group("object"), tpl.skill)
        if obj is None:
            continue
        spec = TaskSpec(
            skill=tpl.skill,
            obj=obj,
            speed=speed_by_phrase[m.group("speed")],
            gait=GaitName(m.group("gait")),
        )
        return Instruction(text=normalized, spec=spec, template_id=tpl.id)
    import difflib  # only a failed parse needs it

    templates, phrases = _catalog()
    skeletons = {
        tpl.render("object", phrases[SpeedLevel.NORMAL], "trot"): tpl.id
        for tpl in templates.values()
    }
    close = difflib.get_close_matches(normalized, skeletons, n=1, cutoff=0.0)
    hint = f"; closest template is {skeletons[close[0]]!r}" if close else ""
    raise LanguageError(f"cannot parse instruction {text!r}{hint}")

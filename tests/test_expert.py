"""Scripted expert: closed-loop success per skill, terminate protocol,
speed-band compliance, determinism."""

from dataclasses import replace

import pytest

from quadkit.actions import default_action_space, tokenize
from quadkit.config import RunConfig
from quadkit.expert import NoPathError, generate_episode
from quadkit.expert import collect as collect_mod
from quadkit.taxonomy import (
    Color,
    GaitName,
    ObjectRef,
    Skill,
    SpeedLevel,
    TaskSpec,
)

SPACE = default_action_space()


def task(skill: Skill, obj: ObjectRef, speed: SpeedLevel = SpeedLevel.NORMAL,
         gait: GaitName = GaitName.TROT) -> TaskSpec:
    return TaskSpec(skill, obj, speed, gait)


SKILL_TASKS = {
    Skill.GO_TO: task(Skill.GO_TO, ObjectRef("cube", Color.RED)),
    Skill.GO_AVOID: task(Skill.GO_AVOID, ObjectRef("ball", Color.BLUE)),
    Skill.GO_THROUGH: task(Skill.GO_THROUGH, ObjectRef("triangle tunnel", Color.GREEN)),
    Skill.CRAWL: task(Skill.CRAWL, ObjectRef("bar", None)),
    Skill.UNLOAD: task(Skill.UNLOAD, ObjectRef("traybox", Color.YELLOW)),
    Skill.DISTINGUISH: task(Skill.DISTINGUISH, ObjectRef("letter box", None, letter="B")),
}


def terminate_token_positions(episode) -> list[int]:
    terminate = SPACE.token_offset + 1
    return [i for i, step in enumerate(episode.steps)
            if step.tokens[-1] == terminate]


@pytest.mark.parametrize("skill", list(SKILL_TASKS), ids=lambda s: s.value)
def test_expert_solves_each_skill_and_terminates_last(skill):
    failures = []
    for seed in range(101, 111):
        ep = generate_episode(SKILL_TASKS[skill], seed)
        if ep.outcome != "success":
            failures.append((seed, ep.outcome))
            continue
        assert terminate_token_positions(ep) == [len(ep.steps) - 1], seed
        assert len(ep.steps) >= 2
    assert not failures, failures


def test_episodes_are_bit_deterministic():
    spec = SKILL_TASKS[Skill.GO_TO]
    a = generate_episode(spec, 321)
    b = generate_episode(spec, 321)
    assert a.outcome == b.outcome
    assert a.instruction == b.instruction
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.tokens == sb.tokens
        assert sa.pose == sb.pose
        assert (sa.image == sb.image).all()


def test_forward_speed_respects_the_commanded_band():
    run = RunConfig()
    for level in SpeedLevel:
        spec = task(Skill.GO_TO, ObjectRef("cube", Color.RED), speed=level)
        lo, hi = run.expert.bands.band(level)
        ep = generate_episode(spec, 77)
        assert ep.outcome == "success"
        vx = [step.command.v_x for step in ep.steps]
        assert max(vx) <= hi + 1e-9
        assert max(vx) > lo  # actually reaches cruise within the band


def test_faster_band_finishes_in_fewer_ticks():
    slow = generate_episode(
        task(Skill.GO_TO, ObjectRef("cube", Color.RED), speed=SpeedLevel.SLOW), 55)
    fast = generate_episode(
        task(Skill.GO_TO, ObjectRef("cube", Color.RED), speed=SpeedLevel.FAST), 55)
    assert slow.outcome == fast.outcome == "success"
    assert len(fast.steps) < len(slow.steps)


def test_unplannable_scene_is_reported_not_crashed(monkeypatch):
    def refuse(scene, run):
        raise NoPathError("walled off")

    monkeypatch.setattr(collect_mod, "plan_for_task", refuse)
    ep = collect_mod.generate_episode(SKILL_TASKS[Skill.GO_TO], 1)
    assert ep.outcome == "unplannable"
    assert ep.steps == []


def test_every_rendered_observation_is_recorded(monkeypatch):
    # A failed episode records no terminal step, so its final state is not
    # rendered; a successful one records it paired with the stop command.
    calls = []
    render = collect_mod.render_observation

    def counting_render(state, camera):
        calls.append(state.step_count)
        return render(state, camera)

    monkeypatch.setattr(collect_mod, "render_observation", counting_render)
    short = replace(RunConfig(), sim=replace(RunConfig().sim, max_ticks=2))
    ep = generate_episode(SKILL_TASKS[Skill.GO_TO], 1, short)
    assert ep.outcome == "timeout"
    assert len(calls) == len(ep.steps) == 2

    calls.clear()
    ep = generate_episode(SKILL_TASKS[Skill.GO_TO], 1)
    assert ep.outcome == "success"
    assert len(calls) == len(ep.steps)


def test_tokens_match_commands_through_the_codec():
    ep = generate_episode(SKILL_TASKS[Skill.GO_TO], 13)
    for step in ep.steps:
        assert step.tokens == tokenize(step.command, SPACE)


def test_crawl_actually_lowers_the_body_under_the_bar():
    run = RunConfig()
    ep = generate_episode(SKILL_TASKS[Skill.CRAWL], 105)
    assert ep.outcome == "success"
    heights = [step.command.h_z for step in ep.steps]
    assert min(heights) <= run.expert.crawl_height + 1e-9  # ducked under the bar


def test_unload_pitches_to_dump_the_payload():
    run = RunConfig()
    ep = generate_episode(SKILL_TASKS[Skill.UNLOAD], 105)
    assert ep.outcome == "success"
    assert max(step.command.phi for step in ep.steps) == pytest.approx(
        run.expert.unload_dump_pitch
    )

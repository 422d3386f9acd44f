"""Two-rate simulation: integration, slew, collision probes, success rules."""

import math
from dataclasses import replace

import pytest

import numpy as np

from quadkit.actions import ActionCommand
from quadkit.config import DEFAULT_ACTION_RANGES, RateConfig, SimConfig, SlewConfig
from quadkit.expert import sample_scene
from quadkit.taxonomy import Color, GaitName, ObjectRef, Skill, SpeedLevel, TaskSpec
from quadkit.world.entities import Entity, EntityKind
from quadkit.world.scene import Scene
from quadkit.world import sim as sim_module
from quadkit.world.sim import SimulationError, Simulator, check_collision, check_success
from quadkit.world.sim import _first_violation as first_violation
from quadkit.world.state import BodyState, Status, WorldState

from oracles import footprint_distance, step_reference


def task(skill: Skill, obj: ObjectRef | None = None) -> TaskSpec:
    return TaskSpec(skill, obj or ObjectRef("cube", Color.RED),
                    SpeedLevel.NORMAL, GaitName.TROT)


def go_to_scene(target_xy=(3.0, 1.0), extra=()) -> Scene:
    target = Entity(EntityKind.TARGET_OBJECT, "cube", Color.RED,
                    (*target_xy, 0.0), (0.3, 0.3, 0.3))
    return Scene(task=task(Skill.GO_TO), entities=[target, *extra],
                 target_index=0, goal_xy=target_xy)


def neutral_command(**overrides) -> ActionCommand:
    """Command equal to the initial body state, so slew is a no-op."""
    body = BodyState()
    return ActionCommand(
        theta_1=body.theta[0], theta_2=body.theta[1], theta_3=body.theta[2],
        f=body.f, h_z=body.h_z, phi=body.phi, s_y=body.s_y, h_z_f=body.h_z_f,
        **overrides,
    )


# -- integration ---------------------------------------------------------------


def test_one_tick_is_exactly_the_configured_substeps():
    cfg = SimConfig()
    sim = Simulator(go_to_scene(), cfg)
    start = sim.state
    cmd = neutral_command(v_x=0.5)
    assert sim.step(cmd).status is Status.RUNNING
    out = sim.state
    # Reference: the same kinematics integrated by a plain loop here.
    x, y, yaw = start.robot_pose
    dt = cfg.rates.substep_dt
    for _ in range(cfg.rates.substeps):
        x += cmd.v_x * math.cos(yaw) * dt - cmd.v_y * math.sin(yaw) * dt
        y += cmd.v_x * math.sin(yaw) * dt + cmd.v_y * math.cos(yaw) * dt
        yaw += cmd.omega_z * dt
    assert out.robot_pose == (x, y, yaw)
    assert out.step_count == 1
    assert out.sim_time == pytest.approx(cfg.rates.tick_dt)
    assert cfg.rates.substeps == round(cfg.rates.f_high / cfg.rates.f_low)


def test_curved_motion_matches_reference_integration():
    cfg = SimConfig()
    sim = Simulator(go_to_scene(), cfg)
    start = sim.state
    cmd = neutral_command(v_x=0.6, v_y=0.2, omega_z=0.8)
    for _ in range(4):
        assert sim.step(cmd).status is Status.RUNNING
    out = sim.state
    x, y, yaw = start.robot_pose
    dt = cfg.rates.substep_dt
    for _ in range(4 * cfg.rates.substeps):
        x += (cmd.v_x * math.cos(yaw) - cmd.v_y * math.sin(yaw)) * dt
        y += (cmd.v_x * math.sin(yaw) + cmd.v_y * math.cos(yaw)) * dt
        yaw += cmd.omega_z * dt
    assert out.robot_pose == (x, y, yaw)
    assert out.step_count == 4
    assert out.sim_time == pytest.approx(4 * cfg.rates.tick_dt)


def test_identical_command_sequences_are_bit_identical():
    cmds = [neutral_command(v_x=0.4, omega_z=0.3),
            neutral_command(v_x=0.9, omega_z=-0.5, v_y=0.1),
            ActionCommand(v_x=0.2, h_z=0.12, phi=0.3)]
    runs = []
    for _ in range(2):
        sim = Simulator(go_to_scene())
        for cmd in cmds:
            sim.step(cmd)
        runs.append((sim.state.robot_pose, sim.state.body))
    assert runs[0] == runs[1]


def test_body_parameters_slew_at_their_configured_rates():
    cfg = SimConfig()
    sim = Simulator(go_to_scene(), cfg)
    # Standing height starts at 0.25; command 0.10 with slew limit 0.2 m/s.
    sim.step(ActionCommand(h_z=0.10))
    assert sim.state.body.h_z == pytest.approx(0.25 - cfg.slew.h_z * cfg.rates.tick_dt)
    sim.step(ActionCommand(h_z=0.10))
    assert sim.state.body.h_z == pytest.approx(0.10)
    sim.step(ActionCommand(h_z=0.10))
    assert sim.state.body.h_z == pytest.approx(0.10)  # no overshoot


def test_non_finite_command_poisons_integration_loudly():
    sim = Simulator(go_to_scene())
    with pytest.raises(SimulationError):
        sim.step(neutral_command(v_x=float("nan")))


@pytest.mark.parametrize("channel,value", [
    ("h_z", float("nan")), ("phi", float("inf")), ("theta_1", float("-inf")),
])
def test_non_finite_body_command_is_rejected_before_integrating(channel, value):
    sim = Simulator(go_to_scene())
    sim.step(neutral_command(v_x=0.3))
    before = repr(sim.state)
    for _ in range(3):
        with pytest.raises(SimulationError, match="non-finite command"):
            sim.step(replace(neutral_command(v_x=0.3), **{channel: value}))
    assert repr(sim.state) == before
    assert sim.status is Status.RUNNING and sim.violation is None
    assert sim.step(neutral_command(v_x=0.3)).status is Status.RUNNING


def _extra_entities(rng, around_start: bool) -> list[Entity]:
    """Blocking geometry of every kind near the robot's path: a round and a
    box obstacle, a letter box, a bar and tunnels of both cross-sections,
    the triangular one around the start pose if ``around_start``."""
    def near(dx, dy=1.0):
        return (float(rng.uniform(0.3, 2.5)) * dx, float(rng.uniform(-dy, dy)), 0.0)
    tunnel_attrs = {"passage_width": 1.1, "outer_halfwidth": 0.65,
                    "wall_thickness": 0.1, "height": 0.6}
    return [
        Entity(EntityKind.OBSTACLE, "cylinder", Color.BLUE, near(1.0), (0.3, 0.3, 0.4)),
        Entity(EntityKind.OBSTACLE, "cube", Color.RED, near(1.0), (0.45, 0.3, 0.5)),
        Entity(EntityKind.LETTER_BOX, "letter box", Color.GREEN, near(-1.0), (0.4, 0.4, 0.4)),
        Entity(EntityKind.BAR, "bar", Color.YELLOW, near(1.0), (0.06, 2.2, 0.06),
               attributes={"clearance": float(rng.uniform(0.1, 0.3))}),
        Entity(EntityKind.TUNNEL, "triangle tunnel", Color.PINK,
               (0.0, 0.0, 0.0) if around_start else near(1.0, 0.1), (0.8, 1.3, 0.6),
               attributes={**tunnel_attrs, "cross_section": "triangle"}),
        Entity(EntityKind.TUNNEL, "rectangle tunnel", Color.GOLD, near(-1.0), (0.8, 1.3, 0.6),
               attributes={**tunnel_attrs, "cross_section": "rectangle"}),
    ]


def _random_command(rng, body: BodyState) -> ActionCommand:
    """Each field is +0.0, -0.0, the body's current value or a random value."""
    current = {"theta_1": body.theta[0], "theta_2": body.theta[1],
               "theta_3": body.theta[2], "f": body.f, "h_z": body.h_z,
               "phi": body.phi, "s_y": body.s_y, "h_z_f": body.h_z_f}
    ranges = {"v_x": (-1.5, 1.5), "v_y": (-1.5, 1.5), "omega_z": (-1.5, 1.5),
              "theta_1": (0.0, 1.0), "theta_2": (0.0, 1.0), "theta_3": (0.0, 1.0),
              "f": (1.5, 4.0), "h_z": (0.05, 0.4), "phi": (-0.5, 0.8),
              "s_y": (0.0, 1.2), "h_z_f": (0.03, 0.25)}
    values = {}
    for name, (lo, hi) in ranges.items():
        pick = int(rng.integers(4))
        if pick < 2:
            values[name] = (0.0, -0.0)[pick]
        elif pick == 2 and name in current:
            values[name] = current[name]
        else:
            values[name] = float(rng.uniform(lo, hi))
    return ActionCommand(**values)


def test_step_matches_the_per_substep_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    configs = [
        SimConfig(),
        SimConfig(slew=SlewConfig(h_z=0.0, phi=0.0, s_y=0.0, h_z_f=0.0, f=0.0, theta=0.0)),
        SimConfig(slew=SlewConfig(h_z=0.0, phi=2.0, s_y=0.05, theta=0.0),
                  rates=RateConfig(f_high=40.0, f_low=4.0)),
    ]
    seen = {"violations": set(), "statuses": set(), "bar_passed": 0, "released": 0}
    for episode in range(150):
        # Scripted episodes: stand still inside a triangle tunnel and widen
        # the stance, or crouch and drive straight under a crawl scene's bar.
        stance, crouch = episode % 10 == 5, episode % 10 == 0
        skill = Skill.CRAWL if crouch else list(Skill)[episode % len(Skill)]
        scene = sample_scene(task(skill), seed=episode)
        if stance or (episode % 3 and not crouch):
            scene = replace(scene, entities=scene.entities + _extra_entities(rng, stance))
        cfg = SimConfig() if stance or crouch else configs[episode % len(configs)]
        sim, ref = Simulator(scene, cfg), Simulator(scene, cfg)
        for _ in range(20):
            if sim.done:
                break
            cmd = _random_command(rng, sim.state.body)
            if stance:
                cmd = replace(cmd, v_x=0.0, v_y=-0.0, omega_z=0.0, s_y=1.2)
            elif crouch:
                cmd = replace(cmd, v_x=1.0, v_y=0.0, omega_z=0.0, h_z=0.05)
            out, want = sim.step(cmd), step_reference(ref, cmd)
            assert out == want
            assert (sim.status, sim.violation) == (ref.status, ref.violation)
            assert sim.state == ref.state
            # repr tells -0.0 from 0.0, which == does not.
            assert repr(out) == repr(want)
            assert repr(sim.state) == repr(ref.state)
        seen["violations"].add(sim.violation)
        seen["statuses"].add(sim.status)
        seen["bar_passed"] += sim.state.bar_passed
        seen["released"] += sim.state.ball_released
    # The sample reaches every kind of violation, and releases the ball.
    assert seen["violations"] >= {
        None, "footprint hit obstacle (cylinder)", "footprint hit obstacle (cube)",
        "footprint hit letter_box (letter box)", "footprint hit tunnel wall",
        "stance wider than tunnel passage",
        "body height above bar clearance",
    }
    assert {Status.SUCCESS, Status.COLLISION, Status.OUT_OF_BOUNDS} <= seen["statuses"]
    assert seen["bar_passed"] and seen["released"]


# -- tick-level culling -----------------------------------------------------------


@pytest.fixture
def checks(monkeypatch):
    """One entry per ``_first_violation`` call the simulator makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return first_violation(*args)

    monkeypatch.setattr(sim_module, "_first_violation", counted)
    return calls


def _blocker(kind: str, rng) -> Entity:
    """One entity of a collision-record kind near (2, 0), of random size."""
    at = (2.0 + float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)), 0.0)
    if kind == "round":
        d = float(rng.uniform(0.1, 0.6))
        return Entity(EntityKind.OBSTACLE, "cylinder", Color.BLUE, at, (d, d, 0.4))
    if kind == "box":
        return Entity(EntityKind.LETTER_BOX, "letter box", Color.GREEN, at,
                      (float(rng.uniform(0.1, 0.8)), float(rng.uniform(0.1, 0.8)), 0.4))
    if kind == "tunnel":
        section = ("triangle", "rectangle")[int(rng.integers(2))]
        return Entity(EntityKind.TUNNEL, f"{section} tunnel", Color.PINK, at, (0.8, 1.3, 0.6),
                      attributes={"passage_width": 1.1, "outer_halfwidth": 0.65,
                                  "wall_thickness": 0.1, "height": 0.6,
                                  "cross_section": section})
    return Entity(EntityKind.BAR, "bar", Color.YELLOW, at, (0.06, 2.2, 0.06),
                  attributes={"clearance": float(rng.uniform(0.1, 0.3))})


def _reach_half_extents(ent: Entity, r: float) -> tuple[float, float]:
    """Half extents of the box around ``ent`` that the robot's center must
    enter to break it: the footprint grown by r, a tunnel's depth and outer
    width grown by r, a bar's thickness grown by r along its span."""
    hx, hy = ent.dims[0] / 2.0, ent.dims[1] / 2.0
    if ent.kind is EntityKind.TUNNEL:
        return hx + r, ent.attributes["outer_halfwidth"] + r
    if ent.kind is EntityKind.BAR:
        return hx + r, hy
    return hx + r, hy + r


MAX_SPEED = {name: hi for name, _, hi, _ in DEFAULT_ACTION_RANGES}


@pytest.mark.parametrize("kind", ["round", "box", "tunnel", "bar"])
def test_ticks_at_the_edge_of_a_record_box_match_the_reference(kind, checks):
    """Drive at up to the top speed straight at one record, from where a
    tick ends just short of or just inside the box its center must enter,
    and compare every tick with the per-substep reference."""
    rng = np.random.default_rng(["round", "box", "tunnel", "bar"].index(kind))
    cfg = SimConfig()
    n, dt, r = cfg.rates.substeps, cfg.rates.substep_dt, cfg.footprint_radius
    culled = edge_hits = 0
    for trial in range(80):
        ent = _blocker(kind, rng)
        half = _reach_half_extents(ent, r)
        axis, side, sideways = trial % 2, (-1.0, 1.0)[trial // 2 % 2], trial // 4 % 2
        speed = MAX_SPEED["v_y" if sideways else "v_x"]
        if trial % 3:
            speed *= float(rng.uniform(0.05, 1.0))
        gap = (-1e-3, -1e-9, 1e-9, 1e-3)[trial // 8 % 4]  # > 0 ends the tick inside
        # Start on the record's ``side`` along ``axis``, heading at it.
        along = ent.pose[axis] + side * (half[axis] + n * speed * dt - gap)
        other = ent.pose[1 - axis] + half[1 - axis] * (
            0.0 if trial % 5 == 0 else float(rng.uniform(-0.95, 0.95)))
        heading = math.atan2(-side, 0.0) if axis else math.atan2(0.0, -side)
        x, y = (along, other) if axis == 0 else (other, along)
        cmd = ActionCommand(v_x=0.0 if sideways else speed, v_y=speed if sideways else 0.0,
                            h_z=float(rng.uniform(0.1, 0.35)) if trial % 7 < 3 else 0.25)
        if trial % 6 == 5:  # a turning, drifting command near the box
            cmd = replace(cmd, **{name: float(rng.uniform(-MAX_SPEED[name], MAX_SPEED[name]))
                                  for name in ("v_x", "v_y", "omega_z")})
        target = Entity(EntityKind.TARGET_OBJECT, "cube", Color.RED, (5.5, -3.0, 0.0),
                        (0.3, 0.3, 0.3))
        scene = Scene(task=task(Skill.GO_TO), entities=[target, ent], target_index=0,
                      goal_xy=(5.5, -3.0),
                      start_pose=(x, y, heading - math.pi / 2.0 if sideways else heading))
        sim, ref = Simulator(scene, cfg), Simulator(scene, cfg)
        for tick in range(3):
            if sim.done:
                break
            before = len(checks)
            out, want = sim.step(cmd), step_reference(ref, cmd)
            assert repr(out) == repr(want)
            assert repr(sim.state) == repr(ref.state)
            if tick == 0:
                culled += len(checks) == before
                edge_hits += gap == 1e-9 and out.status is Status.COLLISION
    # Both sides of the edge were reached: whole ticks culled, and ticks that
    # end a billionth of a metre inside the box broke the record.
    assert culled and edge_hits


def test_a_tick_that_reaches_no_record_makes_no_collision_check(checks):
    wall = Entity(EntityKind.OBSTACLE, "cube", Color.BLUE, (1.0, 0.0, 0.0), (0.45, 0.45, 0.5))
    bar = Entity(EntityKind.BAR, "bar", Color.YELLOW, (-1.2, 0.0, 0.0), (0.06, 2.2, 0.06),
                 attributes={"clearance": 0.1})
    sim = Simulator(go_to_scene(target_xy=(4.0, -2.0), extra=[wall, bar]))
    # A full-speed tick ends 0.5 m ahead, short of the wall's box at 0.575 m.
    assert sim.step(neutral_command(v_x=1.0)).status is Status.RUNNING
    assert checks == []
    # The next one reaches it and checks every substep until the hit.
    assert sim.step(neutral_command(v_x=1.0)).status is Status.COLLISION
    assert 0 < len(checks) <= sim.config.rates.substeps


def test_records_rebuilt_at_a_ball_release_are_still_culled(checks):
    tray = Entity(EntityKind.RECEPTACLE, "traybox", Color.BLUE, (3.0, 1.0, 0.0),
                  (0.7, 0.7, 0.25))
    wall = Entity(EntityKind.OBSTACLE, "cube", Color.RED, (1.2, 0.0, 0.0), (0.3, 0.3, 0.5))
    scene = Scene(task=task(Skill.UNLOAD, ObjectRef("traybox", Color.BLUE)),
                  entities=[tray, wall], target_index=0, goal_xy=(3.0, 1.0))
    sim, ref = Simulator(scene), Simulator(scene)
    # Pitch in place until the ball drops at the end of tick 2, then walk
    # into the wall, whose box starts 0.85 m ahead.
    per_tick = []
    for cmd in [ActionCommand(phi=0.38)] * 2 + [ActionCommand(v_x=1.0, phi=0.38)] * 2:
        before = len(checks)
        out, want = sim.step(cmd), step_reference(ref, cmd)
        per_tick.append(len(checks) - before)
        assert repr(out) == repr(want)
        assert repr(sim.state) == repr(ref.state)
    assert sim.state.ball_released
    assert sim.status is Status.COLLISION
    assert per_tick[:3] == [0, 0, 0] and per_tick[3] > 0


# -- collision -----------------------------------------------------------------


def test_collision_is_detected_within_one_substep_of_contact():
    cfg = SimConfig()
    wall = Entity(EntityKind.OBSTACLE, "cube", Color.BLUE, (1.0, 0.0, 0.0),
                  (0.3, 0.3, 0.5))
    sim = Simulator(go_to_scene(extra=[wall]), cfg)
    out = None
    for _ in range(10):
        out = sim.step(neutral_command(v_x=1.0))
        if sim.done:
            break
    assert sim.status is Status.COLLISION
    # A tick-level check would allow up to v*tick_dt = 0.5 m of penetration;
    # the substep probe stops within one substep of first contact.
    x, y, _ = sim.state.robot_pose
    penetration = cfg.footprint_radius - footprint_distance(wall, x, y)
    assert penetration >= 0.0
    assert penetration <= 1.0 * cfg.rates.substep_dt + 1e-9
    assert out.violation and "obstacle" in out.violation


def test_round_entities_collide_by_radius():
    cylinder = [Entity(EntityKind.OBSTACLE, "cylinder", Color.BLUE, (1.0, 0.0, 0.0),
                       (0.3, 0.3, 0.4))]
    # Gap = 0.24 - 0.15 = 0.09 < footprint 0.20 -> collision.
    assert check_collision((0.76, 0.0, 0.0), BodyState(), cylinder) is not None
    assert check_collision((0.6, 0.0, 0.0), BodyState(), cylinder) is None


def test_targets_and_receptacles_are_not_solid():
    entities = [
        Entity(EntityKind.TARGET_OBJECT, "cube", Color.RED, (3.0, 1.0, 0.0),
               (0.3, 0.3, 0.3)),
        Entity(EntityKind.RECEPTACLE, "traybox", Color.BLUE, (3.0, 1.0, 0.0),
               (0.7, 0.7, 0.25)),
    ]
    assert check_collision((3.0, 1.0, 0.0), BodyState(), entities) is None


def test_tunnel_wall_blocks_only_at_entry_band():
    tunnel = Entity(
        EntityKind.TUNNEL, "rectangle tunnel", Color.GREEN, (3.0, 1.0, 0.0),
        (0.8, 1.3, 0.6),
        attributes={"passage_width": 1.1, "outer_halfwidth": 0.65,
                    "wall_thickness": 0.1, "cross_section": "rectangle",
                    "height": 0.6},
    )
    def at(x, y, h=0.25):
        return check_collision((x, y, 0.0), BodyState(h_z=h), [tunnel])

    assert at(3.0, 1.0) is None          # centered inside
    assert at(3.0, 1.4) is not None      # squeezed at wall
    assert at(3.0, 3.0) is None          # far from tunnel
    assert at(2.0, 1.0) is None          # before the mouth


def test_triangle_tunnel_narrows_with_body_height():
    tunnel = Entity(
        EntityKind.TUNNEL, "triangle tunnel", Color.GREEN, (3.0, 1.0, 0.0),
        (0.8, 1.3, 0.6),
        attributes={"passage_width": 1.1, "outer_halfwidth": 0.65,
                    "wall_thickness": 0.1, "cross_section": "triangle",
                    "height": 0.6},
    )
    # Passable half-width at h: 0.55 * (1 - h/0.6); minus the 0.2 footprint
    # that leaves 0.24 of lateral room at h=0.12 but none at h=0.40.
    pose = (3.0, 1.22, 0.0)
    assert check_collision(pose, BodyState(h_z=0.12), [tunnel]) is None
    assert check_collision(pose, BodyState(h_z=0.40), [tunnel]) is not None


def test_bar_requires_body_below_clearance():
    bar = Entity(EntityKind.BAR, "bar", Color.RED, (1.5, 1.0, 0.0),
                 (0.06, 2.2, 0.06), attributes={"clearance": 0.18})
    under = (1.5, 1.0, 0.0)
    assert check_collision(under, BodyState(h_z=0.12), [bar]) is None
    assert check_collision(under, BodyState(h_z=0.25), [bar]) is not None
    assert check_collision((1.5, 2.5, 0.0), BodyState(h_z=0.25), [bar]) is None


# -- success rules ---------------------------------------------------------------


def test_go_to_succeeds_strictly_inside_one_meter():
    cfg = SimConfig()
    scene = go_to_scene(target_xy=(3.0, 0.0))
    at = lambda x: WorldState(robot_pose=(x, 0.0, 0.0))
    assert check_success(at(2.0), scene, cfg) is Status.RUNNING
    assert check_success(at(2.001), scene, cfg) is Status.SUCCESS
    boundary = check_success(at(2.0 - 1e-12), scene, cfg)
    assert boundary is Status.RUNNING  # strict <


def test_crawl_needs_both_proximity_and_bar_crossing():
    cfg = SimConfig()
    marker = Entity(EntityKind.TARGET_OBJECT, "cube", Color.RED, (3.0, 1.0, 0.0),
                    (0.3, 0.3, 0.3))
    bar = Entity(EntityKind.BAR, "bar", Color.RED, (1.5, 1.0, 0.0),
                 (0.06, 2.2, 0.06), attributes={"clearance": 0.18})
    scene = Scene(task=task(Skill.CRAWL, ObjectRef("bar")),
                  entities=[marker, bar], target_index=0, goal_xy=(3.0, 1.0))
    near = WorldState(robot_pose=(2.8, 1.0, 0.0))
    assert check_success(near, scene, cfg) is Status.RUNNING
    crossed = replace(near)
    crossed.bar_passed = True
    assert check_success(crossed, scene, cfg) is Status.SUCCESS


def test_go_through_needs_exit_beyond_far_face_inside_passage():
    cfg = SimConfig()
    tunnel = Entity(
        EntityKind.TUNNEL, "rectangle tunnel", Color.GREEN, (3.0, 1.0, 0.0),
        (0.8, 1.3, 0.6),
        attributes={"passage_width": 1.1, "outer_halfwidth": 0.65,
                    "wall_thickness": 0.1, "cross_section": "rectangle",
                    "height": 0.6},
    )
    scene = Scene(task=task(Skill.GO_THROUGH, ObjectRef("rectangle tunnel")),
                  entities=[tunnel], target_index=0, goal_xy=(4.0, 1.0))
    far_face = 3.0 + 0.4
    at = lambda x, y: WorldState(robot_pose=(x, y, 0.0))
    assert check_success(at(far_face + 0.2, 1.0), scene, cfg) \
        is Status.RUNNING  # not yet past the margin
    assert check_success(at(far_face + 0.31, 1.0), scene, cfg) \
        is Status.SUCCESS
    assert check_success(at(far_face + 0.31, 1.0 + 0.6), scene, cfg) \
        is Status.RUNNING  # exited outside the passage


def test_distinguish_requires_holding_orientation():
    cfg = SimConfig()
    box = Entity(EntityKind.LETTER_BOX, "letter box", Color.RED, (3.0, 1.0, 0.0),
                 (0.4, 0.4, 0.4), attributes={"letter": "a"})
    scene = Scene(task=task(Skill.DISTINGUISH, ObjectRef("letter", letter="a")),
                  entities=[box], target_index=0, goal_xy=(3.0, 1.0))
    state = WorldState(robot_pose=(0.0, 0.0, 0.0))
    state.oriented_ticks = cfg.distinguish_hold_ticks - 1
    assert check_success(state, scene, cfg) is Status.RUNNING
    state.oriented_ticks = cfg.distinguish_hold_ticks
    assert check_success(state, scene, cfg) is Status.SUCCESS


def test_unload_succeeds_when_ball_lands_inside_receptacle():
    cfg = SimConfig()
    tray = Entity(EntityKind.RECEPTACLE, "traybox", Color.BLUE, (3.0, 1.0, 0.0),
                  (0.7, 0.7, 0.25))
    scene = Scene(task=task(Skill.UNLOAD, ObjectRef("traybox", Color.BLUE)),
                  entities=[tray], target_index=0, goal_xy=(3.0, 1.0))
    ball_in = Entity(EntityKind.CARRIED_BALL, "ball", Color.BLUE, (3.1, 1.2, 0.0),
                     (0.12, 0.12, 0.12))
    ball_out = replace(ball_in, pose=(3.6, 1.0, 0.0))
    inside = WorldState(robot_pose=(2.5, 1.0, 0.0), entities=[tray, ball_in])
    outside = WorldState(robot_pose=(2.5, 1.0, 0.0), entities=[tray, ball_out])
    assert check_success(inside, scene, cfg) is Status.SUCCESS
    assert check_success(outside, scene, cfg) is Status.RUNNING


def test_pitch_command_releases_the_carried_ball_forward():
    cfg = SimConfig()
    tray = Entity(EntityKind.RECEPTACLE, "traybox", Color.BLUE, (3.0, 1.0, 0.0),
                  (0.7, 0.7, 0.25))
    scene = Scene(task=task(Skill.UNLOAD, ObjectRef("traybox", Color.BLUE)),
                  entities=[tray], target_index=0, goal_xy=(3.0, 1.0))
    sim = Simulator(scene, cfg)
    assert sim.state.carried_object is not None
    for _ in range(3):  # phi slews toward 0.38 at 0.5 rad/s
        sim.step(ActionCommand(phi=0.38))
        if sim.state.ball_released:
            break
    assert sim.state.ball_released
    assert sim.state.carried_object is None
    balls = [e for e in sim.state.entities if e.kind is EntityKind.CARRIED_BALL]
    assert len(balls) == 1
    x, y, yaw = sim.state.robot_pose
    expect = (x + cfg.throw_distance * math.cos(yaw),
              y + cfg.throw_distance * math.sin(yaw))
    assert balls[0].pose[0] == pytest.approx(expect[0])
    assert balls[0].pose[1] == pytest.approx(expect[1])


# -- episode termination -----------------------------------------------------------


def test_terminal_states_are_absorbing():
    sim = Simulator(go_to_scene(target_xy=(0.5, 0.0)))  # success at spawn
    assert sim.status is Status.SUCCESS
    with pytest.raises(SimulationError):
        sim.step(neutral_command())


def test_timeout_after_step_budget():
    cfg = replace(SimConfig(), max_ticks=3)
    sim = Simulator(go_to_scene(), cfg)
    for _ in range(2):
        assert sim.step(neutral_command()).status is Status.RUNNING
    assert sim.step(neutral_command()).status is Status.TIMEOUT
    assert sim.done


def test_leaving_the_arena_is_out_of_bounds():
    sim = Simulator(go_to_scene())
    out = None
    for _ in range(10):
        out = sim.step(neutral_command(v_x=-1.0))
        if sim.done:
            break
    assert out.status is Status.OUT_OF_BOUNDS
    assert sim.state.robot_pose[0] < sim.config.arena[0]

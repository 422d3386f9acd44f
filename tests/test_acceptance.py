"""End-to-end acceptance checks.

Each test prints exactly one ``[C#] PASS/FAIL`` line with the measured
quantities and the tolerance it was held to, then asserts. Reference values
come from independent oracles (textbook Dijkstra, pinhole geometry, direct
recomputation) rather than from the code under test wherever the quantity
is derivable.
"""

import contextlib
import hashlib
import io
import json
import statistics
import time
from importlib import resources
from pathlib import Path

import numpy as np

from quadkit.actions import default_action_space, detokenize_batch, tokenize_batch
from quadkit.cli import main as cli_main
from quadkit.config import SceneConfig
from quadkit.evaluation import (
    KnnPolicy,
    OraclePolicy,
    RandomPolicy,
    build_suite,
    make_unseen_suites,
    run_suite,
    scaling_experiment,
)
from quadkit.evaluation.policies import _episode_rows
from quadkit.expert import (
    DStarLitePlanner,
    NoPathError,
    generate_episode,
    plan_astar,
    sample_scene,
)
from quadkit.roster import build_task_roster
from quadkit.store import Episode, MixPolicy, mix_stream
from quadkit.taxonomy import (
    SEEN_COLORS,
    Color,
    GaitName,
    ObjectRef,
    Skill,
    SpeedLevel,
    Split,
    TaskSpec,
)
from quadkit.world.entities import EntityKind

from oracles import dijkstra_cost, random_grid

SPACE = default_action_space()


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")


# -- C1: action codec ----------------------------------------------------------------


def test_c1_codec_round_trip():
    t0 = time.perf_counter()
    mins = SPACE.mins
    widths = SPACE.bin_widths
    bins = SPACE.bin_count

    # Exhaustive: every bin center in every dimension is a fixed point.
    centers = mins[None, :] + (np.arange(bins)[:, None] + 0.5) * widths[None, :]
    toks = tokenize_batch(centers, np.zeros(bins, dtype=bool), SPACE)
    decoded, term = detokenize_batch(toks, SPACE)
    exhaustive_ok = (
        np.array_equal(decoded, centers)
        and not term.any()
        and np.array_equal(
            toks[:, :11] - SPACE.token_offset,
            np.tile(np.arange(bins)[:, None], (1, 11)),
        )
    )

    # Random: quantization error is at most half a bin width, everywhere.
    rng = np.random.default_rng(11)
    n = 100_000
    samples = rng.uniform(mins, SPACE.maxs, size=(n, 11))
    flags = rng.integers(0, 2, size=n).astype(bool)
    toks = tokenize_batch(samples, flags, SPACE)
    decoded, term = detokenize_batch(toks, SPACE)
    err = np.abs(decoded - samples)
    worst = float((err / (widths / 2.0)).max())
    random_ok = bool((err <= widths / 2.0 + 1e-12).all()) and np.array_equal(term, flags)

    elapsed = time.perf_counter() - t0
    ok = exhaustive_ok and random_ok and elapsed < 1.0
    report("C1", ok,
           f"codec: {bins}x11 bin centers exact={exhaustive_ok}; "
           f"{n} random samples worst err {worst:.4f} of half-width (cap 1.0); "
           f"{elapsed:.2f}s < 1s")
    assert ok


# -- C2: planners --------------------------------------------------------------------


def test_c2_planners_match_shortest_path_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)

    astar_checked = astar_ok = 0
    for _ in range(200):
        grid = random_grid(rng)
        goal_cell = (grid.nx - 1, grid.ny - 1)
        oracle = dijkstra_cost(grid, (0, 0), goal_cell)
        try:
            cost = plan_astar(grid, grid.cell_to_world((0, 0)),
                              grid.cell_to_world(goal_cell), snap=False).cost
        except NoPathError:
            cost = None
        astar_checked += 1
        astar_ok += (cost == oracle) if oracle is not None else (cost is None)

    dstar_checked = dstar_ok = 0
    for _ in range(50):
        grid = random_grid(rng, fill=0.15)
        start = grid.cell_to_world((0, 0))
        goal = grid.cell_to_world((grid.nx - 1, grid.ny - 1))
        planner = DStarLitePlanner(grid, start, goal)
        current = grid
        changes = []
        for _k in range(10):
            cell = (int(rng.integers(0, grid.nx)), int(rng.integers(0, grid.ny)))
            if cell in ((0, 0), (grid.nx - 1, grid.ny - 1)):
                continue
            occ = bool(rng.integers(0, 2))
            changes.append((cell, occ))
            current = current.with_cell(cell, occ)
        planner.update_cells(changes)
        try:
            fresh = plan_astar(current, start, goal, snap=False).cost
        except NoPathError:
            fresh = None
        try:
            incremental = planner.plan().cost
        except NoPathError:
            incremental = None
        dstar_checked += 1
        dstar_ok += incremental == fresh

    elapsed = time.perf_counter() - t0
    ok = (astar_ok == astar_checked == 200 and dstar_ok == dstar_checked == 50
          and elapsed < 10.0)
    report("C2", ok,
           f"planner: A*==Dijkstra exact on {astar_ok}/200 random 16x16 grids; "
           f"D*Lite==fresh A* exact after {dstar_ok}/50 update sequences; "
           f"{elapsed:.2f}s < 10s")
    assert ok


# -- C3: scene constraints -----------------------------------------------------------


def test_c3_go_avoid_scene_constraints():
    cfg = SceneConfig()
    spec = TaskSpec(Skill.GO_AVOID, ObjectRef("cube", Color.RED),
                    SpeedLevel.NORMAL, GaitName.TROT)
    violations = 0
    for seed in range(10_000):
        scene = sample_scene(spec, seed, cfg)
        tx, ty = scene.goal_xy
        obstacles = [e for e in scene.entities if e.kind is EntityKind.OBSTACLE]
        good = (
            2.7 <= tx <= 3.3
            and 0.9 <= ty <= 1.1
            and len(obstacles) == 1
            and obstacles[0].pose[0] == tx - 1.5
            and obstacles[0].pose[1] == ty
        )
        violations += not good
    ok = violations == 0
    report("C3", ok,
           f"scenes: 10000 go_avoid draws, target x in [2.7,3.3], y in [0.9,1.1], "
           f"obstacle exactly at (x-1.5, y): {violations} violations (tolerance 0)")
    assert ok


# -- C4: expert closed loop ----------------------------------------------------------


def test_c4_expert_closed_loop_success():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    roster = build_task_roster(Skill.GO_TO, 100, rng)
    episodes = [
        generate_episode(spec, int(rng.integers(0, 2**31 - 1))) for spec in roster
    ]
    successes = sum(ep.outcome == "success" for ep in episodes)
    terminate_token = SPACE.token_offset + 1
    protocol_ok = all(
        [i for i, st in enumerate(ep.steps) if st.tokens[-1] == terminate_token]
        == [len(ep.steps) - 1]
        for ep in episodes
        if ep.outcome == "success"
    )
    elapsed = time.perf_counter() - t0
    ok = successes >= 95 and protocol_ok and elapsed < 60.0
    report("C4", ok,
           f"expert: {successes}/100 go_to successes (need >=95); terminate token "
           f"exactly once and last in every success={protocol_ok}; "
           f"{elapsed:.1f}s < 60s")
    assert ok


# -- C5: statistics mirror -----------------------------------------------------------


def test_c5_collection_statistics_mirror():
    from quadkit.store import compute_stats

    rng = np.random.default_rng(55)
    episodes = []
    for skill in (Skill.DISTINGUISH, Skill.GO_TO, Skill.UNLOAD):
        for spec in build_task_roster(skill, 200, rng):
            episodes.append(generate_episode(spec, int(rng.integers(0, 2**31 - 1))))
    stats = compute_stats(episodes)

    mean_d = stats.per_task["distinguish"].mean_length
    mean_g = stats.per_task["go_to"].mean_length
    mean_u = stats.per_task["unload"].mean_length
    ordering_ok = mean_d < mean_g < mean_u

    shares = [stats.speed_shares[level.value] for level in SpeedLevel]
    shares_ok = all(abs(s - 1 / 3) <= 0.02 for s in shares)

    ok = ordering_ok and shares_ok
    report("C5", ok,
           f"statistics: 200 eps/task mean lengths distinguish {mean_d:.1f} < "
           f"go_to {mean_g:.1f} < unload {mean_u:.1f} = {ordering_ok}; speed shares "
           f"{[f'{s:.3f}' for s in shares]} within 1/3 +- 0.02 = {shares_ok}")
    assert ok


# -- C6: mixing regimes --------------------------------------------------------------


def _stub_episode(i: int, source: str) -> Episode:
    spec = TaskSpec(Skill.GO_TO, ObjectRef("cube", Color.RED),
                    SpeedLevel.NORMAL, GaitName.TROT)
    return Episode(
        episode_id=f"{source}-{i:06d}", task=spec,
        instruction="go to the red cube at normal speed with trot gait",
        template_id="go_to/canonical", source=source, seed=i,
        outcome="success", steps=[],
    )


def test_c6_mixing_regime_ratios():
    sim_pool = [_stub_episode(i, "sim") for i in range(2560)]
    real_pool = [_stub_episode(i, "real") for i in range(30)]
    details = []
    ok = True
    for n_sim in (0, 256, 2560):
        stream = mix_stream(MixPolicy(n_sim, 30), sim_pool, real_pool, seed=6)
        got_sim = sum(ep.source == "sim" for ep in stream)
        total = len(stream)
        target = n_sim / (n_sim + 30)
        realized = got_sim / total
        regime_ok = total == n_sim + 30 and abs(realized - target) <= 0.01
        if n_sim == 0:
            regime_ok = regime_ok and got_sim == 0
        ok = ok and regime_ok
        details.append(f"{n_sim}:30 -> {got_sim}/{total} sim "
                       f"(target {target:.4f}, got {realized:.4f})")
    report("C6", ok,
           "mixing: " + "; ".join(details) + "; ratio tolerance 1%, zero sim in 0:30")
    assert ok


# -- C7: baseline ordering -----------------------------------------------------------


def _pool_with_features(skill: Skill, count: int, rng, source: str, feats: dict):
    stubs = []
    roster = build_task_roster(skill, count, rng)
    if source == "real":
        roster = [t.with_split(Split.SEEN_REAL) for t in roster]
    for spec in roster:
        seed = int(rng.integers(0, 2**31 - 1))
        while True:
            ep = generate_episode(spec, seed, source=source)
            if ep.steps and ep.episode_id not in feats:
                break
            seed = (seed + 1) % (2**31 - 1)
        feats[ep.episode_id] = _episode_rows(ep)
        stubs.append(Episode(ep.episode_id, ep.task, ep.instruction,
                             ep.template_id, source, ep.seed, ep.outcome, []))
    return stubs


def _interleave(a: list, b: list) -> list:
    out = []
    for x, y in zip(a, b):
        out.extend((x, y))
    return out


def test_c7_baseline_ordering():
    feats: dict = {}
    rng = np.random.default_rng(77)
    sim_stubs = _interleave(
        _pool_with_features(Skill.GO_TO, 1280, rng, "sim", feats),
        _pool_with_features(Skill.GO_AVOID, 1280, rng, "sim", feats),
    )
    real_stubs = _interleave(
        _pool_with_features(Skill.GO_TO, 15, rng, "real", feats),
        _pool_with_features(Skill.GO_AVOID, 15, rng, "real", feats),
    )

    def fit(stream):
        return KnnPolicy(np.concatenate([feats[ep.episode_id][0] for ep in stream]),
                         np.concatenate([feats[ep.episode_id][1] for ep in stream]), 5, SPACE)

    regimes = [(label, MixPolicy(n_sim, 30))
               for label, n_sim in (("0:30", 0), ("256:30", 256), ("2560:30", 2560))]
    reports: dict[str, list] = {}
    for s in range(5):
        suite = build_suite("baselines", {"go_to": 16, "go_avoid": 16},
                            seed=9000 + s)
        for name, rep in (("oracle", run_suite(OraclePolicy(), suite)),
                          ("random", run_suite(RandomPolicy(SPACE, seed=s), suite)),
                          *scaling_experiment(fit, regimes, sim_stubs, real_stubs, suite,
                                              seed=s).rows):
            reports.setdefault(name, []).append(rep)

    med = {
        name: {skill: statistics.median(rep.success_rate(skill) for rep in reps)
               for skill in ("go_to", "go_avoid")}
        for name, reps in reports.items()
    }
    ordering_ok = all(
        med["oracle"][skill] > med["256:30"][skill] > med["random"][skill]
        for skill in ("go_to", "go_avoid")
    )
    trend = [med[label]["go_to"] for label, _ in regimes]
    trend_ok = trend[0] <= trend[1] <= trend[2]
    ok = ordering_ok and trend_ok
    report("C7", ok,
           f"baselines (median of 5 seeds): oracle go_to {med['oracle']['go_to']:.2f} "
           f"> knn(256:30) {med['256:30']['go_to']:.2f} > random "
           f"{med['random']['go_to']:.2f}; go_avoid {med['oracle']['go_avoid']:.2f} "
           f"> {med['256:30']['go_avoid']:.2f} > {med['random']['go_avoid']:.2f}; "
           f"knn go_to across regimes {[f'{v:.2f}' for v in trend]} non-decreasing")
    assert ok


# -- C8: end-to-end determinism ------------------------------------------------------


def _run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def _tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_c8_cli_determinism(tmp_path):
    collect_ok = True
    for sub in ("a", "b"):
        code, _ = _run_cli("collect", "--out", str(tmp_path / sub),
                           "--seed", "8", "--workers", "2")
        collect_ok = collect_ok and code == 0
    trees = (_tree_hashes(tmp_path / "a"), _tree_hashes(tmp_path / "b"))
    stores_identical = trees[0] == trees[1]

    eval_ok = True
    for sub in ("ea", "eb"):
        code, _ = _run_cli("eval", "--policy", "oracle", "--suite", "dev_small",
                           "--seed", "8", "--out", str(tmp_path / sub))
        eval_ok = eval_ok and code == 0
    csvs = [(tmp_path / sub / "report.csv").read_bytes() for sub in ("ea", "eb")]
    csv_identical = csvs[0] == csvs[1]

    ok = collect_ok and stores_identical and eval_ok and csv_identical
    report("C8", ok,
           f"determinism: two seeded collect runs byte-identical over "
           f"{len(trees[0])} files={stores_identical}; two seeded eval runs "
           f"byte-identical CSV={csv_identical}")
    assert ok


# -- C9: suite budgets ---------------------------------------------------------------


def test_c9_suite_budgets():
    budgets = json.loads(
        resources.files("quadkit.data").joinpath("suites.json").read_text()
    )["seen_full"]
    want = {"go_to": 425, "go_avoid": 500, "go_through": 150,
            "unload": 100, "distinguish": 100, "crawl": 75}
    suite = build_suite("seen_full", budgets, seed=0)
    seen_ok = suite.budgets() == want and len(suite.entries) == sum(want.values())

    derived = make_unseen_suites(suite)
    budgets_ok = all(d.budgets() == want for d in derived.values())
    colors_ok = all(
        e.task.obj.color is None or e.task.obj.color not in SEEN_COLORS
        for e in derived["unseen_object"].entries
    )
    ok = seen_ok and budgets_ok and colors_ok
    report("C9", ok,
           f"suites: seen budgets {suite.budgets()} == packaged counts={seen_ok}; "
           f"unseen suites preserve budgets={budgets_ok}; unseen-object suite "
           f"free of seen colors={colors_ok}")
    assert ok

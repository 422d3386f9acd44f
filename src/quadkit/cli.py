"""Command-line entry point.

Subcommands: collect (scripted episodes into a store), stats, eval, render,
import-real, validate. Reads an optional run config from --config or the
QUARD_CONFIG environment variable. Exit codes: 0 on success, 2 on usage
errors (argparse handles those), 130 on an interrupt (SIGINT), which prints
one line and no traceback, and 1 on any other failure, which prints one line
(-v adds its traceback). collect and import-real write shards through
``EpisodeStore.fill_shard``, which takes the interrupt only between episodes,
so neither leaves a writer process or a temporary shard behind. All logs go
to stderr; result tables go to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import traceback
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .actions import default_action_space
from .config import FULL_SCALE_PLAN, PLAN_DIVISOR, RunConfig, load_config
from .expert.collect import generate_episode
from .roster import build_task_roster
from .store import (
    EpisodeStore,
    ShardInfo,
    compute_stats,
    import_real,
    stats_svg,
    stats_table,
)
from .taxonomy import Skill, Split
from .evaluation import (
    OraclePolicy,
    RandomPolicy,
    build_suite,
    knn_bc_policy,
    make_unseen_suites,
    run_suite,
)
from .world.camera import to_ppm

log = logging.getLogger("quadkit")

CONFIG_ENV_VAR = "QUARD_CONFIG"


class UsageError(Exception):
    """Bad arguments or configuration; exits with status 2 like argparse."""


def _load_run_config(args) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        log.info("loading run config from %s", path)
        try:
            return load_config(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad config {path}: {exc}") from exc
    return RunConfig()


# -- collect -----------------------------------------------------------------------


def _desk_plan() -> list[tuple[str, int, str]]:
    """(task, count, source) triples for the scaled-down default plan."""
    plan = []
    for name, full_count in FULL_SCALE_PLAN.items():
        count = max(1, full_count // PLAN_DIVISOR)
        if name.endswith("_real"):
            plan.append((name[: -len("_real")], count, "real"))
        else:
            plan.append((name, count, "sim"))
    return plan


def _collect_shard(root: str, shard: str, jobs: list, run: RunConfig) -> dict:
    """Worker: generate one shard's episodes and write them (no commit);
    :meth:`EpisodeStore.fill_shard` takes an interrupt only between episodes."""
    store = EpisodeStore.open(root)
    space = store.action_space
    episodes = (generate_episode(task, seed, run, space, source=source)
                for task, seed, source in jobs)
    return asdict(store.fill_shard(shard, episodes))


def cmd_collect(args) -> int:
    if not args.task:
        for flag, value in (("--count", args.count), ("--source", args.source)):
            if value is not None:
                raise UsageError(f"{flag} needs --task (the default plan fixes both)")
    run = _load_run_config(args)
    space = default_action_space()
    root = Path(args.out)
    if (root / "manifest.json").exists():
        store = EpisodeStore.open(root)
        rates = asdict(run.sim.rates)
        if store.rates != rates:
            raise UsageError(f"the run config's rates {rates} differ from the rates "
                             f"{store.rates} of the store at {root}")
    else:
        store = EpisodeStore.create(root, space, run.sim.rates)

    if args.task:
        plan = [(args.task, 10 if args.count is None else args.count, args.source or "sim")]
    else:
        plan = _desk_plan()

    rng = np.random.default_rng(args.seed)
    shards: list[tuple[str, list]] = []
    for task_name, count, source in plan:
        roster = build_task_roster(Skill(task_name), count, rng)
        if source == "real":
            roster = [t.with_split(Split.SEEN_REAL) for t in roster]
        jobs = [(task, int(rng.integers(0, 2**31 - 1)), source) for task in roster]
        shards.append((f"{task_name}-{source}-{args.seed:04d}", jobs))

    total = sum(len(jobs) for _, jobs in shards)
    # A worker beyond the shard count would only start and sit idle.
    workers = min(args.workers, len(shards))
    log.info("collecting %d episodes into %s (%d shards, %d workers)",
             total, root, len(shards), workers)
    if workers > 1:
        # Imported here, as the only use: the pool pulls in multiprocessing,
        # sockets and subprocess, which every other command would pay for.
        from concurrent.futures import ProcessPoolExecutor

        # Pool workers hold SIGINT for good: each shard takes it between
        # episodes, and an idle worker prints no traceback.
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=signal.pthread_sigmask,
                                 initargs=(signal.SIG_BLOCK, {signal.SIGINT})) as pool:
            futures = [
                pool.submit(_collect_shard, str(root), shard, jobs, run)
                for shard, jobs in shards
            ]
            try:
                infos = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)  # start no further shard
                raise
    else:
        infos = [_collect_shard(str(root), shard, jobs, run) for shard, jobs in shards]

    store.commit_shards(ShardInfo(**d) for d in infos)
    print(stats_table(compute_stats(EpisodeStore.open(root))), end="")
    return 0


# -- stats -------------------------------------------------------------------------


def cmd_stats(args) -> int:
    store = EpisodeStore.open(args.store)
    stats = compute_stats(store)
    print(stats_table(stats), end="")
    if args.svg:
        Path(args.svg).write_text(stats_svg(stats))
        log.info("wrote %s", args.svg)
    return 0


# -- eval --------------------------------------------------------------------------


def _suite_budgets(name_or_path: str) -> dict:
    packaged = json.loads(
        resources.files("quadkit.data").joinpath("suites.json").read_text()
    )
    if name_or_path in packaged:
        return packaged[name_or_path]
    path = Path(name_or_path)
    if not path.exists():
        raise UsageError(
            f"unknown suite {name_or_path!r}; packaged suites: {sorted(packaged)}"
        )
    try:
        budgets = json.loads(path.read_text())
    except ValueError as exc:
        raise UsageError(f"bad suite file {path}: {exc}") from exc
    if not isinstance(budgets, dict):
        raise UsageError(f"bad suite file {path}: expected an object of skill budgets")
    skills = sorted(s.value for s in Skill)
    for name, count in budgets.items():
        if name not in skills:
            raise UsageError(f"bad suite file {path}: unknown skill {name!r}; "
                             f"skills: {skills}")
        if type(count) is not int or count < 0:
            raise UsageError(f"bad suite file {path}: budget of {name!r} must be a "
                             f"non-negative integer, got {count!r}")
    if sum(budgets.values()) == 0:
        raise UsageError(f"bad suite file {path}: budgets total 0 episodes")
    return budgets


def _build_policy(spec: str, run: RunConfig, space, seed: int, k: int):
    if spec == "oracle":
        return OraclePolicy(run, space)
    if spec == "random":
        return RandomPolicy(space, seed)
    if spec.startswith("knn:"):
        store = EpisodeStore.open(spec[len("knn:"):])
        return knn_bc_policy(store, k=k)
    raise UsageError(f"unknown policy {spec!r} (use oracle, random, or knn:<store>)")


def cmd_eval(args) -> int:
    run = _load_run_config(args)
    space = default_action_space()
    budgets = _suite_budgets(args.suite)
    suite = build_suite(args.suite, budgets, args.seed)
    if args.split != "seen":
        suite = make_unseen_suites(suite)[args.split]
    policy = _build_policy(args.policy, run, space, args.seed, args.knn_k)
    log.info("evaluating %s on %s (%d episodes)", args.policy, suite.name,
             len(suite.entries))
    report = run_suite(policy, suite, run, policy.space)  # a store's, for knn
    print(report.to_table(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tmp = out / "report.csv.tmp"  # a write that stops part-way keeps the last report
        try:
            tmp.write_text(report.to_csv())
            os.replace(tmp, out / "report.csv")
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        log.info("wrote %s", out / "report.csv")
    return 0


# -- render ------------------------------------------------------------------------


def _trajectory_svg(episode, run: RunConfig) -> str:
    from .expert.scenes import sample_scene
    from .world.camera import COLOR_RGB

    scene = sample_scene(episode.task, episode.seed, run.scene)
    x0, x1, y0, y1 = run.sim.arena
    scale = 80.0
    w, h = (x1 - x0) * scale, (y1 - y0) * scale

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#f4f2ee" stroke="#444"/>',
    ]
    for ent in scene.entities:
        ex, ey, _ = ent.pose
        r, g, b = COLOR_RGB[ent.color]
        dx, dy = ent.dims[0] * scale, ent.dims[1] * scale
        parts.append(
            f'<rect x="{sx(ex) - dx / 2:.1f}" y="{sy(ey) - dy / 2:.1f}" '
            f'width="{dx:.1f}" height="{dy:.1f}" fill="rgb({r},{g},{b})" '
            f'fill-opacity="0.7" stroke="#333"/>'
        )
    if episode.steps:
        points = " ".join(
            f"{sx(s.pose[0]):.1f},{sy(s.pose[1]):.1f}" for s in episode.steps
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#202020" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{sx(episode.steps[0].pose[0]):.1f}" '
            f'cy="{sy(episode.steps[0].pose[1]):.1f}" r="5" fill="#208020"/>'
        )
    gx, gy = scene.goal_xy
    parts.append(f'<circle cx="{sx(gx):.1f}" cy="{sy(gy):.1f}" r="5" fill="none" stroke="#c03030" stroke-width="2"/>')
    parts.append(
        f'<text x="8" y="16" font-family="monospace" font-size="13">'
        f"{episode.episode_id}: {episode.instruction} [{episode.outcome}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> int:
    run = _load_run_config(args)
    store = EpisodeStore.open(args.store)
    episode = store.find_episode(args.episode)
    if episode is None:
        raise UsageError(f"episode {args.episode!r} not found in {args.store}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.svg").write_text(_trajectory_svg(episode, run))
    for i, step in enumerate(episode.steps):
        (out / f"frame-{i:04d}.ppm").write_bytes(to_ppm(step.image))
    log.info("wrote trajectory and %d frames to %s", len(episode.steps), out)
    print(f"{episode.episode_id}: {len(episode.steps)} steps, outcome {episode.outcome}")
    return 0


# -- import-real / validate -----------------------------------------------------------


def cmd_import_real(args) -> int:
    report = import_real(args.src, args.store)
    print(f"imported {report.imported} episodes, skipped {len(report.skipped)}")
    for name, reason in report.skipped:
        print(f"  skipped {name}: {reason}")
    return 0


def cmd_validate(args) -> int:
    problems = EpisodeStore.open(args.store).validate()
    if problems:
        for p in problems:
            print(p)
        return 1
    print("store ok")
    return 0


# -- parser ------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``, so that a typo such
    as ``--seed -1`` is a usage error before anything runs."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadkit",
        description="Deterministic quadruped task toolkit: collect scripted "
                    "episodes, inspect stores, and evaluate policies.",
    )
    parser.add_argument("--config", help=f"run config JSON (or ${CONFIG_ENV_VAR})")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="info logs and error tracebacks to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="generate scripted episodes into a store")
    p.add_argument("--out", required=True, help="store directory")
    p.add_argument("--task", choices=[s.value for s in Skill],
                   help="single task (default: the scaled-down full plan)")
    p.add_argument("--count", type=_int_at_least(0),
                   help="episodes for --task (default 10)")
    p.add_argument("--source", choices=["sim", "real"], help="source for --task (default sim)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("stats", help="dataset statistics for a store")
    p.add_argument("--store", required=True)
    p.add_argument("--svg", help="also write a chart to this path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="run a policy over an eval suite")
    p.add_argument("--policy", required=True, help="oracle | random | knn:<store>")
    p.add_argument("--suite", default="dev_small",
                   help="packaged suite name or budgets JSON path")
    p.add_argument("--split", choices=["seen", "unseen_object", "unseen_verbal"],
                   default="seen")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--knn-k", type=_int_at_least(1), default=5)
    p.add_argument("--out", help="directory for report.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="export one episode's trajectory and frames")
    p.add_argument("--store", required=True)
    p.add_argument("--episode", required=True, help="episode id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("import-real", help="import recorded episodes into a store")
    p.add_argument("--src", required=True, help="directory of episode folders")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_import_real)

    p = sub.add_parser("validate", help="check a store's checksums, schema and files")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def _sigint(signum, frame) -> None:
    """Raise ``KeyboardInterrupt`` once and ignore repeated signals, so that
    clean-up (reaping image writers, removing temporary shards) runs to its
    end."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    previous = signal.signal(signal.SIGINT, _sigint)
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            if args.verbose:
                traceback.print_exc()
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGINT, previous)


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark workload, run in a fresh single-process interpreter.

Modes (``--mode``):

    prepare  import quadkit once (compiles bytecode, warms the file cache);
             with ``--train-store`` also build the eval_knn training store
             from the default collect plan and check it against the pinned
             collect digest
    setup    set up the workload, print the set-up split, exit
    run      set up, then run whole passes over the workload's inputs, at
             least three and until they add up to ``--seconds``; with
             ``--trace`` record spans around quadkit's layers

Each mode prints one JSON object as its last stdout line. Set-up is timed
from the first line of this file, before quadkit is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, summarize, write_spans  # noqa: E402

# Per-task budgets with seen_full's proportions (17:20:6:4:4:3) at 6/25 of
# its size: 324 distinct episodes per pass, so that more than ten of them
# lie beyond the p95, while three eval_knn passes and the training store
# still fit the time a benchmark call may take several times over.
EVAL_BUDGETS = {
    "crawl": 18,
    "distinguish": 24,
    "go_avoid": 120,
    "go_through": 36,
    "go_to": 102,
    "unload": 24,
}
KNN_K = 5
TRAIN_SEED = 7  # the eval_knn training store is `quadkit collect --seed 7`

WORKLOADS = ("collect", "eval_oracle", "eval_knn")
MIN_PASSES = 3  # each episode's slowest time is taken over at least three moments


def golden() -> dict:
    """Pinned output digests: ``{workload: {"default_seed": n, "digests": {seed: sha256}}}``."""
    return json.loads((Path(__file__).parent / "golden.json").read_text())


def pinned_digest(workload: str, seed: int) -> str | None:
    """The output digest pinned for ``workload`` at ``seed``, if any."""
    return golden()[workload]["digests"].get(str(seed))


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then its bytes' SHA-256."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tree_size(root: Path) -> tuple[int, int, int]:
    """(files, bytes, observation images) under a store root."""
    files = [p for p in root.rglob("*") if p.is_file()]
    images = sum(1 for p in files if p.suffix == ".ppm")
    return len(files), sum(p.stat().st_size for p in files), images


# -- collect -----------------------------------------------------------------------


@contextmanager
def episode_clock(owner, attr: str, tracer: Tracer, times: list[float]):
    """Time each call of ``owner.attr`` as one episode, while the block runs.

    The program's own loop calls ``owner.attr`` once per episode. An
    episode's time runs from the start of its call to the start of the next
    one, or to the end of the block, so it includes the work the loop does
    with the result (writing it to the store, adding it to the report).
    """
    fn = getattr(owner, attr)
    marks: list[float] = []

    def timed(*args, **kwargs):
        tracer.episode = len(times) + len(marks)
        marks.append(time.perf_counter())
        return fn(*args, **kwargs)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        marks.append(time.perf_counter())
        setattr(owner, attr, fn)
        times += [end - start for start, end in zip(marks, marks[1:])]


def collect_plan(seed: int):
    """The shards `quadkit collect --seed <seed>` writes: [(name, [(task, seed, source)])]."""
    import numpy as np
    from quadkit.cli import _desk_plan
    from quadkit.roster import build_task_roster
    from quadkit.taxonomy import Skill, Split

    rng = np.random.default_rng(seed)
    shards = []
    for task_name, count, source in _desk_plan():
        roster = build_task_roster(Skill(task_name), count, rng)
        if source == "real":
            roster = [t.with_split(Split.SEEN_REAL) for t in roster]
        jobs = [(task, int(rng.integers(0, 2**31 - 1)), source) for task in roster]
        shards.append((f"{task_name}-{source}-{seed:04d}", jobs))
    return shards


def collect_pass(store, shards, run, tracer, times):
    """`quadkit collect --workers 1` into ``store``: the CLI's shard worker, then the commit."""
    from quadkit import cli
    from quadkit.store.episodes import ShardInfo

    infos = []
    for name, jobs in shards:
        with episode_clock(cli, "generate_episode", tracer, times):
            infos.append(cli._collect_shard(str(store.root), name, jobs, run))
    store.commit_shards(ShardInfo(d["name"], d["episodes"], d["sha256"]) for d in infos)


def check_store(store, shards) -> tuple[dict, list[str]]:
    """Exact counts and invariant problems of a finished collect store."""
    problems = list(store.validate())
    expected: dict[tuple[str, str], int] = {}
    for _, jobs in shards:
        for task, _, source in jobs:
            key = (task.skill.value, source)
            expected[key] = expected.get(key, 0) + 1
    found: dict[tuple[str, str], int] = {}
    counts = {"episodes": 0, "steps": 0, "success": 0}
    for ep in store.iter_episodes(load_images=False):
        key = (ep.task.skill.value, ep.source)
        found[key] = found.get(key, 0) + 1
        counts["episodes"] += 1
        counts["steps"] += len(ep.steps)
        if ep.outcome == "success":
            counts["success"] += 1
            flags = [step.command.terminate for step in ep.steps]
            if sum(flags) != 1 or not flags[-1]:
                problems.append(f"{ep.episode_id}: success without exactly one final terminate")
    if found != expected:
        problems.append(f"episodes per (task, source) {found} != plan {expected}")
    files, size, images = tree_size(store.root)
    counts.update({
        "store.files_written": files,
        "store.bytes_written": size,
        "store.images_written": images,
        "digest": tree_digest(store.root),
    })
    return counts, problems


def build_training_store(root: Path) -> dict:
    """Collect the eval_knn training store; returns its episode count and problems."""
    from quadkit.actions import default_action_space
    from quadkit.config import RunConfig
    from quadkit.store import EpisodeStore

    run = RunConfig()
    shards = collect_plan(TRAIN_SEED)
    episodes = sum(len(jobs) for _, jobs in shards)
    try:
        store = EpisodeStore.create(root, default_action_space(), run.sim.rates)
        collect_pass(store, shards, run, Tracer(), [])
        counts, problems = check_store(store, shards)
    except Exception as exc:  # a crash fails the training store like a bad digest
        traceback.print_exc()
        return {"episodes": episodes, "problems": [f"raised {exc!r}"]}
    if counts["digest"] != pinned_digest("collect", TRAIN_SEED):
        problems.append(f"digest {counts['digest']} != pinned collect digest")
    return {"episodes": episodes, "problems": problems}


# -- eval --------------------------------------------------------------------------


def eval_pass(suite, policy, run, space, tracer, times):
    """`quadkit eval` on ``suite``: one `run_suite` call, timing each episode it rolls."""
    from quadkit.evaluation import harness

    tracer.episode = len(times)
    with episode_clock(harness, "_roll_entry", tracer, times):
        return harness.run_suite(policy, suite, run, space)


def check_report(report, workload: str) -> tuple[dict, list[str]]:
    """Exact counts and invariant problems of a suite's report.

    `run_suite` itself raises if a task's bucket counts do not sum to its
    budget; here the budgets must be the suite's. The oracle must solve
    every episode, as the repository's tests require on their small suite.
    """
    problems = []
    budgets = {name: t.budget for name, t in report.per_task.items()}
    if budgets != EVAL_BUDGETS:
        problems.append(f"per-task budgets {budgets} != {EVAL_BUDGETS}")
    overall = report.overall
    if workload == "eval_oracle" and overall.buckets["success"] != overall.budget:
        problems.append(f"oracle solved {overall.buckets['success']} of {overall.budget} episodes")
    counts = {"episodes": overall.budget, "success": overall.buckets["success"]}
    counts.update({f"bucket.{b}": n for b, n in overall.buckets.items()})
    counts["digest"] = hashlib.sha256(report.to_csv().encode()).hexdigest()
    return counts, problems


# -- set-up and run ----------------------------------------------------------------


def set_up(args, tracer):
    """Everything a CLI call does before its first episode; returns (state, split)."""
    import quadkit.cli  # noqa: F401  (every `quadkit` command imports all of it)
    from quadkit.actions import default_action_space
    from quadkit.config import RunConfig
    from quadkit.evaluation import OraclePolicy, build_suite, policies
    from quadkit.store import EpisodeStore

    import_end = time.perf_counter()
    if args.trace:
        tracer.install()
    start = time.perf_counter()
    run, space = RunConfig(), default_action_space()
    state = {"run": run, "space": space}
    if args.workload == "collect":
        state["shards"] = collect_plan(args.seed)
        state["store"] = EpisodeStore.create(args.work / "store-0", space, run.sim.rates)
    else:
        state["suite"] = build_suite(args.workload, EVAL_BUDGETS, args.seed)
        if args.workload == "eval_knn":
            train = EpisodeStore.open(args.train_store)
    inputs_end = time.perf_counter()
    if args.workload == "eval_oracle":
        state["policy"] = OraclePolicy(run, space)
    elif args.workload == "eval_knn":
        state["policy"] = policies.knn_bc_policy(train, k=KNN_K)
    policy_end = time.perf_counter()
    split = {
        "import_s": import_end - T0,
        "inputs_s": inputs_end - start,
        "policy_s": policy_end - inputs_end,
    }
    return state, split


def run_passes(args, state, tracer) -> dict:
    """At least MIN_PASSES whole passes, until they add up to --seconds; each is checked."""
    from quadkit.store import EpisodeStore

    run, space = state["run"], state["space"]
    if args.workload == "collect":
        per_pass = sum(len(jobs) for _, jobs in state["shards"])
    else:
        per_pass = len(state["suite"].entries)
    times: list[float] = []
    pass_s: list[float] = []
    passes: list[dict] = []
    problems: list[str] = []
    failed = 0
    while len(passes) < MIN_PASSES or sum(pass_s) < args.seconds:
        p = len(passes)
        try:
            if args.workload == "collect":
                store = state["store"] if p == 0 else EpisodeStore.create(
                    args.work / f"store-{p}", space, run.sim.rates)
                start = time.perf_counter()
                collect_pass(store, state["shards"], run, tracer, times)
                pass_s.append(time.perf_counter() - start)
                tracer.episode = None
                counts, pass_problems = check_store(store, state["shards"])
                shutil.rmtree(store.root)
            else:
                start = time.perf_counter()
                report = eval_pass(state["suite"], state["policy"], run, space,
                                   tracer, times)
                pass_s.append(time.perf_counter() - start)
                tracer.episode = None
                counts, pass_problems = check_report(report, args.workload)
        except Exception as exc:  # a crash fails the pass; report it and stop
            traceback.print_exc()
            counts, pass_problems = {}, [f"pass {p} raised {exc!r}"]
        if passes and counts != passes[0]:
            pass_problems.append(f"pass {p} counts differ from pass 0")
        passes.append(counts)
        if pass_problems:
            problems += [f"pass {p}: {m}" for m in pass_problems]
            failed += per_pass
            break
    return {
        "passes": len(passes),
        "episodes_per_pass": per_pass,
        "attempted": len(passes) * per_pass,
        "failed": failed,
        "episode_s": times[: len(pass_s) * per_pass],
        "pass_s": pass_s,
        "counts": passes[0],
        "problems": problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("prepare", "setup", "run"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", type=Path, help="directory for stores this run writes")
    parser.add_argument("--train-store", type=Path)
    parser.add_argument("--spans", type=Path, help="spans file (with --trace)")
    args = parser.parse_args()

    if args.mode == "prepare":
        import quadkit.cli  # noqa: F401
        built = build_training_store(args.train_store) if args.train_store else {}
        print(json.dumps(built))
        return 0

    tracer = Tracer()
    state, split = set_up(args, tracer)
    if args.mode == "setup":
        print(json.dumps({"setup": split}))
        return 0
    tracer.episode = 0
    result = run_passes(args, state, tracer)
    result["setup"] = split
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        spans = tracer.spans
        stats, pass_calls = summarize(spans, result["episodes_per_pass"])
        if any(calls != pass_calls[0] for calls in pass_calls):
            result["problems"].append("call counts differ between passes")
            result["failed"] = result["attempted"]
        result["layers"] = stats
        write_spans(args.spans, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

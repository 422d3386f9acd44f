"""quadkit benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload collect|eval_oracle|eval_knn \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; quadkit is imported from ``src``.
Every workload runs in fresh single-process interpreters (``worker.py``)
started one at a time, with BLAS thread pools pinned to one thread.

``--trace 0`` prints the end-to-end metrics: the median set-up time of
several fresh interpreters, and episode throughput, latency, peak RSS and
success rate of one run of ``--seconds``. ``--trace 1`` runs the workload
once without and once with spans around quadkit's layers, writes the spans
and a per-layer table under ``.perfbench_out/trace/``, and prints the
per-layer metrics. Both check the outputs: digests pinned in golden.json
at a set of seeds, invariants at every seed, and exact counts that
must repeat between passes, between the traced and untraced run, and
between runs of the same sources in this checkout. The last stdout line is
one JSON object; if any check failed it reads ``correct: false``, has no
metrics, and the exit status is 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYERS, SITES
from worker import WORKLOADS, pinned_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole call must end within 180 s
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("episode_ms.p50", "ms"),
    ("episode_ms.p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = []
    for name in SITES:
        metrics += [(f"{name}.calls", "count", "lower"),
                    (f"{name}.s", "s", "lower"),
                    (f"{name}.self_s", "s", "lower")]
    metrics += [
        ("expert.plan_astar.no_path", "count", "lower"),
        ("store.images_written", "count", "lower"),
        ("store.image_dedup_ratio", "fraction", "higher"),
        ("store.bytes_written", "B", "lower"),
        ("store.files_written", "count", "lower"),
        ("setup.import_s", "s", "lower"),
        ("setup.inputs_s", "s", "lower"),
        ("setup.policy_s", "s", "lower"),
    ]
    for layer in LAYERS:
        metrics += [(f"{layer}.self_s", "s", "lower"),
                    (f"{layer}.self_share", "fraction", "lower")]
    metrics += [("trace.episodes_per_s", "1/s", "higher"),
                ("trace.episodes_per_s_delta", "1/s", "higher")]
    return metrics


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[:2]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv[:2]} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """Digest of the program and benchmark sources; keys the count records."""
    h = hashlib.sha256()
    files = [p for d in (SRC, HERE) for p in d.rglob("*")
             if p.suffix in (".py", ".json") and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_counts(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with the pinned digest and with earlier runs.

    golden.json pins the output digest at a set of seeds; at those seeds any
    change of behaviour, a success rate among them, fails the check. Earlier
    runs of the same sources, workload and seed in this checkout leave their
    counts in ``.perfbench_out/counts``; every count they share with this
    run must be equal.
    """
    problems = []
    pinned = pinned_digest(workload, seed)
    if pinned is not None and counts["digest"] != pinned:
        problems.append(f"output digest {counts['digest']} != pinned {pinned}")
    record = OUT / "counts" / f"{workload}-seed{seed}-{source_digest()[:16]}.json"
    earlier = json.loads(record.read_text()) if record.exists() else {}
    for key in sorted(earlier.keys() & counts.keys()):
        if earlier[key] != counts[key]:
            problems.append(f"{key}: {counts[key]} != {earlier[key]} in an earlier run")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**earlier, **counts}, indent=1, sort_keys=True))
    return problems


def pass_stats(run: dict) -> tuple[float, list[float]]:
    """Each episode's slowest time over the passes, and the throughput they give.

    Every pass repeats the same episodes, and there are at least three. On
    a shared VM whose other tenants come and go, the same work runs at the
    machine's steady contended speed most of the time and up to 40 % faster
    in bursts of seconds to a minute. An episode's slowest time is the one
    such a burst sped up least, so it varies least between runs; the
    throughput is the episodes of one pass over the sum of those times.
    """
    n = run["episodes_per_pass"]
    times = run["episode_s"]
    slowest = [max(ts) for ts in zip(*(times[i:i + n] for i in range(0, len(times), n)))]
    return n / sum(slowest), slowest


def end_to_end(setups: list[dict], run: dict) -> tuple[dict, dict]:
    """End-to-end metrics, and the set-up split of the median set-up sample."""
    throughput, episode_s = pass_stats(run)
    ms = [1000.0 * t for t in episode_s]
    split = sorted(setups, key=lambda s: sum(s.values()))[len(setups) // 2]
    counts = run["counts"]
    values = {
        "setup_s": sum(split.values()),
        "episodes_per_s": throughput,
        "episode_ms.p50": statistics.median(ms),
        "episode_ms.p95": statistics.quantiles(ms, n=20, method="inclusive")[18],
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": counts["success"] / counts["episodes"],
    }
    return values, split


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced run, and its per-layer table."""
    layers = traced["layers"]
    values = {}
    for name, stat in layers.items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.s"] = stat["s"]
        values[f"{name}.self_s"] = stat["self_s"]
    values["expert.plan_astar.no_path"] = layers["expert.plan_astar"]["no_path"]
    counts = traced["counts"]
    images = counts.get("store.images_written", 0)
    puts = layers["store.put_image"]["calls"]
    values["store.images_written"] = images
    values["store.image_dedup_ratio"] = 1.0 - images / puts if puts else 0.0
    values["store.bytes_written"] = counts.get("store.bytes_written", 0)
    values["store.files_written"] = counts.get("store.files_written", 0)
    for part, seconds in untraced["setup"].items():
        values[f"setup.{part}"] = seconds
    # Wall time the spans can cover: set-up after import, plus one pass.
    wall = (traced["setup"]["inputs_s"] + traced["setup"]["policy_s"]
            + statistics.fmean(traced["pass_s"]))
    lines = [f"{'function':<32} {'calls':>8} {'s':>10} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        names = [n for n in layers if n.split(".")[0] == layer]
        self_s = sum(layers[n]["self_s"] for n in names)
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.self_share"] = self_s / wall
        lines.append(f"{layer:<32} {'':>8} {'':>10} {self_s:>10.4f} {self_s / wall:>7.1%}")
        for n in names:
            st = layers[n]
            lines.append(f"  {n:<30} {st['calls']:>8} {st['s']:>10.4f} "
                         f"{st['self_s']:>10.4f} {st['self_s'] / wall:>7.1%}")
    other = wall - sum(values[f"{layer}.self_s"] for layer in LAYERS)
    lines.append(f"{'(outside spans)':<32} {'':>8} {'':>10} {other:>10.4f} {other / wall:>7.1%}")
    lines.append(f"{'(wall after import, one pass)':<32} {'':>8} {'':>10} {wall:>10.4f}")
    traced_eps = pass_stats(traced)[0]
    untraced_eps = pass_stats(untraced)[0]
    values["trace.episodes_per_s"] = traced_eps
    values["trace.episodes_per_s_delta"] = traced_eps - untraced_eps
    lines.append(f"tracing overhead: {traced_eps:.3f} traced - {untraced_eps:.3f} untraced "
                 f"= {traced_eps - untraced_eps:+.3f} episodes/s")
    return values, lines


def measure(args, work: Path, deadline: float) -> dict:
    """Run the worker interpreters; returns their results by role."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    prepare = ["--mode", "prepare"]
    if args.workload == "eval_knn":
        train = str(work / "train")
        prepare += ["--train-store", train]
        common += ["--train-store", train]
    built = worker(prepare, deadline)
    if built.get("problems"):
        return {"training_store": built}

    def run(name: str, *extra: str) -> dict:
        return worker(["--mode", "run", *common, "--seconds", str(args.seconds),
                       "--work", str(work / name), *extra], deadline)

    if not args.trace:
        def setup(i: int) -> dict:
            return worker(["--mode", "setup", *common, "--work", str(work / f"setup-{i}")],
                          deadline)["setup"]

        # Set-up samples before and after the run, so that they span its minutes.
        before = [setup(i) for i in range(SETUP_SAMPLES // 2)]
        untraced = run("run")
        after = [setup(i) for i in range(len(before), SETUP_SAMPLES - 1)]
        return {"setups": before + [untraced["setup"]] + after, "untraced": untraced}
    trace_dir = OUT / "trace" / f"{args.workload}-seed{args.seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    untraced = run("untraced")
    traced = run("traced", "--trace", "--spans", str(trace_dir / "spans.tsv"))
    return {"untraced": untraced, "traced": traced, "trace_dir": trace_dir}


def report(args, measured: dict) -> tuple[dict, list[str], list[str]]:
    """The result object, the lines to print before it, and the failed checks.

    Metrics are computed only when every check passed; otherwise the result
    is ``correct: false`` with every attempted episode counted as failed.
    """
    if "training_store" in measured:  # the eval_knn training store failed its checks
        built = measured["training_store"]
        result = {"correct": False, "attempted": built["episodes"],
                  "failed": built["episodes"], "metrics": {}}
        return result, ["error_rate 1.0 fraction (training store)"], \
            [f"training store: {p}" for p in built["problems"]]
    runs = [measured[k] for k in ("untraced", "traced") if k in measured]
    attempted = sum(r["attempted"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    lines = [f"{runs[0]['passes']} pass(es) of {runs[0]['episodes_per_pass']} episodes"]
    if not problems:
        counts = dict(runs[0]["counts"])
        if args.trace:
            traced = measured["traced"]
            if traced["counts"] != counts:
                problems.append("traced and untraced runs wrote different outputs")
            counts.update({f"{n}.calls": st["calls"] for n, st in traced["layers"].items()})
            counts["expert.plan_astar.no_path"] = traced["layers"]["expert.plan_astar"]["no_path"]
        problems += check_counts(args.workload, args.seed, counts)
    failed = attempted if problems else sum(r["failed"] for r in runs)
    lines.append(f"error_rate {failed / attempted:.4f} fraction "
                 f"({failed} of {attempted} episodes failed)")
    metrics = {}
    if not problems:
        if args.trace:
            values, table = per_layer(measured["untraced"], measured["traced"])
            trace_dir = measured["trace_dir"]
            (trace_dir / "layers.txt").write_text("\n".join(table) + "\n")
            lines += table + [f"wrote {trace_dir / 'spans.tsv'} and layers.txt"]
            units = {n: u for n, u, _ in per_layer_metrics()}
        else:
            values, split = end_to_end(measured["setups"], measured["untraced"])
            lines.append("setup split (median sample): "
                         + ", ".join(f"{k} {v:.4f} s" for k, v in split.items()))
            lines += [f"  {n:<16} {values[n]:>14.4f} {u}" for n, u in END_TO_END]
            units = dict(END_TO_END)
        metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="quadkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "quadkit" / "__init__.py").is_file():
        print(f"no quadkit sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result, lines, problems = report(args, measure(args, work, deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

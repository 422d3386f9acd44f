"""Pin each workload's output digest in golden.json at the given seeds.

    python3 perfbench/pin.py --write 0 1 2 101

For every seed this writes the collect store and the two eval reports once,
checks their invariants, and prints their digests; ``--write`` adds them to
golden.json. The benchmark then fails any run at a pinned seed whose
outputs differ, so a change of behaviour at those seeds (a success rate
among it) cannot pass as correct. Pin again only after a deliberate change
of behaviour. The default seeds' digests are also checked against the
`quadkit` CLI by test_perfbench.py.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# Before numpy loads: the kNN distances depend on how BLAS splits a product
# between threads, and the benchmark's workers use one thread.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def outputs(seed: int, knn_policy, work: Path) -> dict:
    """{workload: (counts, problems)} of each workload's outputs at ``seed``."""
    from quadkit.actions import default_action_space
    from quadkit.config import RunConfig
    from quadkit.evaluation import OraclePolicy, build_suite
    from quadkit.store import EpisodeStore

    run, space = RunConfig(), default_action_space()
    shards = worker.collect_plan(seed)
    store = EpisodeStore.create(work / f"collect-{seed}", space, run.sim.rates)
    worker.collect_pass(store, shards, run, Tracer(), [])
    found = {"collect": worker.check_store(store, shards)}
    shutil.rmtree(store.root)
    for workload, policy in (("eval_oracle", OraclePolicy(run, space)),
                             ("eval_knn", knn_policy)):
        suite = build_suite(workload, worker.EVAL_BUDGETS, seed)
        report = worker.eval_pass(suite, policy, run, space, Tracer(), [])
        found[workload] = worker.check_report(report, workload)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--write", action="store_true", help="add the digests to golden.json")
    args = parser.parse_args()

    from quadkit.evaluation import knn_bc_policy
    from quadkit.store import EpisodeStore

    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=out))
    try:
        built = worker.build_training_store(work / "train")
        if built["problems"]:
            print(f"training store: {built['problems']}", file=sys.stderr)
            return 1
        knn_policy = knn_bc_policy(EpisodeStore.open(work / "train"), k=worker.KNN_K)
        pinned: dict[str, dict[str, str]] = {w: {} for w in worker.WORKLOADS}
        for seed in args.seeds:
            for workload, (counts, problems) in outputs(seed, knn_policy, work).items():
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                pinned[workload][str(seed)] = counts["digest"]
                print(f"{workload:<12} seed {seed:>4}  success {counts['success']:>4}"
                      f"  {counts['digest']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write:
        path = HERE / "golden.json"
        golden = json.loads(path.read_text())
        for workload, digests in pinned.items():
            merged = {**golden[workload]["digests"], **digests}
            golden[workload]["digests"] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

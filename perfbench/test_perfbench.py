"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The CLI tests run `quadkit collect` and `quadkit eval` once each and check
that the benchmark's passes, which call the same program functions with the
per-episode clock around them, write the same bytes as the default seeds'
digests in golden.json (about a minute on two cores).
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracing import SETUP, Tracer, self_times_ns, summarize  # noqa: E402


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def test_self_time_subtracts_direct_children_per_pass():
    fit, load, suite, plan, grid = ("evaluation.knn_bc_policy", "store.load_image",
                                    "evaluation.run_suite", "expert.plan_astar",
                                    "expert.grid_from_scene")
    spans = [
        (fit, 0, 10, -1, SETUP, None),
        (load, 2, 5, 0, SETUP, None),
        (suite, 20, 30, -1, 0, None),          # pass 0 (episodes 0-1)
        (plan, 21, 24, 2, 1, "NoPathError"),
        (grid, 22, 23, 3, 1, None),
        (suite, 40, 48, -1, 2, None),          # pass 1 (episodes 2-3)
    ]
    assert self_times_ns(spans) == [7, 3, 7, 2, 1, 8]
    stats, pass_calls = summarize(spans, episodes_per_pass=2)
    assert stats[fit] == {"calls": 1, "no_path": 0, "s": 10e-9, "self_s": 7e-9}
    assert stats[suite]["calls"] == 1
    assert stats[suite]["s"] == pytest.approx(9e-9)
    assert stats[suite]["self_s"] == pytest.approx(7.5e-9)
    assert stats[plan]["no_path"] == 1
    assert [calls[plan] for calls in pass_calls] == [1, 0]


def test_tracer_nests_spans_and_records_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def items(n):
        yield from range(n)

    traced_inner = tracer._wrap("inner", inner)
    traced_outer = tracer._wrap("outer", lambda x: traced_inner(x) + 1)
    traced_items = tracer._wrap("items", items)
    tracer.episode = 4
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_outer(-1)
    assert list(traced_items(2)) == [0, 1]
    tracer.episode = None
    assert traced_outer(3) == 4
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [
        ("outer", -1, 4, None), ("inner", 0, 4, None),
        ("outer", -1, 4, "ValueError"), ("inner", 2, 4, "ValueError"),
        ("items", -1, 4, None), ("items", -1, 4, None), ("items", -1, 4, "StopIteration"),
    ]


def test_report_check_flags_other_budgets_and_oracle_failures():
    from quadkit.evaluation.harness import EvalReport, TaskResult

    per_task = {name: TaskResult(budget=n) for name, n in worker.EVAL_BUDGETS.items()}
    for t in per_task.values():
        t.buckets["success"] = t.budget
    report = EvalReport("s", "seen_sim", per_task, [])
    assert worker.check_report(report, "eval_oracle")[1] == []
    per_task["go_to"].buckets["success"] -= 1
    per_task["go_to"].buckets["collision"] += 1
    assert worker.check_report(report, "eval_knn")[1] == []
    assert worker.check_report(report, "eval_oracle")[1] == ["oracle solved 323 of 324 episodes"]
    per_task["go_to"].budget -= 1
    assert worker.check_report(report, "eval_knn")[1][0].startswith("per-task budgets")


def test_episode_clock_times_each_call_up_to_the_next(monkeypatch):
    class Owner:
        @staticmethod
        def step(x):
            return x

    tracer, times = Tracer(), [0.5]
    ticks = iter([1.0, 3.0, 6.0])
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(ticks))
    with worker.episode_clock(Owner, "step", tracer, times):
        assert Owner.step(1) == 1
        assert tracer.episode == 1
        Owner.step(2)
        assert tracer.episode == 2
    assert times == [0.5, 2.0, 3.0]
    assert Owner.step(3) == 3  # the original is back


def test_pass_stats_take_each_episodes_slowest_time():
    measured = {"episodes_per_pass": 2, "pass_s": [1.0, 2.0, 2.0],
                "episode_s": [0.4, 0.6, 1.0, 1.0, 1.5, 0.5]}
    assert run.pass_stats(measured) == (0.8, [1.5, 1.0])


def crashed_run(**overrides):
    """A worker result in which pass 0 raised part-way through."""
    run = {"passes": 1, "episodes_per_pass": 324, "attempted": 324, "failed": 324,
           "episode_s": [0.02] * 100, "pass_s": [], "counts": {},
           "problems": ["pass 0: pass 0 raised RuntimeError('boom')"],
           "setup": {"import_s": 0.4, "inputs_s": 0.01, "policy_s": 0.0},
           "peak_rss_mb": 60.0}
    return {**run, **overrides}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_crashed_pass_reports_correct_false_without_metrics(trace):
    args = argparse.Namespace(workload="eval_oracle", seed=3, trace=trace)
    if trace:
        measured = {"untraced": crashed_run(problems=[], failed=0, pass_s=[9.0] * 3,
                                            episode_s=[0.02] * 1296, attempted=1296),
                    "traced": crashed_run(), "trace_dir": None}
    else:
        measured = {"setups": [crashed_run()["setup"]] * 5, "untraced": crashed_run()}
    result, lines, problems = run.report(args, measured)
    assert result == {"correct": False, "attempted": 324 + 1296 * trace,
                      "failed": 324 + 1296 * trace, "metrics": {}}
    assert problems == ["pass 0: pass 0 raised RuntimeError('boom')"]
    assert any(line.startswith("error_rate 1.0000") for line in lines)


def test_a_failed_training_store_reports_correct_false():
    args = argparse.Namespace(workload="eval_knn", seed=3, trace=0)
    built = {"episodes": 249, "problems": ["digest 00 != pinned collect digest"]}
    result, _, problems = run.report(args, {"training_store": built})
    assert result == {"correct": False, "attempted": 249, "failed": 249, "metrics": {}}
    assert problems == ["training store: digest 00 != pinned collect digest"]


@pytest.fixture(scope="module")
def cli_store(tmp_path_factory):
    from quadkit.cli import main

    root = tmp_path_factory.mktemp("cli") / "store"
    assert main(["collect", "--out", str(root), "--seed", str(worker.TRAIN_SEED)]) == 0
    return root


def test_collect_matches_cli(cli_store, tmp_path):
    assert worker.golden()["collect"]["default_seed"] == worker.TRAIN_SEED
    assert worker.tree_digest(cli_store) == worker.pinned_digest("collect", worker.TRAIN_SEED)
    assert worker.build_training_store(tmp_path / "bench") == {"episodes": 249, "problems": []}


@pytest.mark.parametrize("workload", ["eval_oracle", "eval_knn"])
def test_eval_report_matches_cli(workload, cli_store, tmp_path):
    from quadkit.actions import default_action_space
    from quadkit.cli import main
    from quadkit.config import RunConfig
    from quadkit.evaluation import OraclePolicy, build_suite, knn_bc_policy
    from quadkit.store import EpisodeStore

    seed = worker.golden()[workload]["default_seed"]
    budgets = tmp_path / "budgets.json"
    budgets.write_text(json.dumps(worker.EVAL_BUDGETS))
    policy = "oracle" if workload == "eval_oracle" else f"knn:{cli_store}"
    assert main(["eval", "--policy", policy, "--suite", str(budgets), "--seed", str(seed),
                 "--knn-k", str(worker.KNN_K), "--out", str(tmp_path)]) == 0
    cli_digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert cli_digest == worker.pinned_digest(workload, seed)

    run_config, space = RunConfig(), default_action_space()
    if workload == "eval_oracle":
        bench_policy = OraclePolicy(run_config, space)
    else:
        bench_policy = knn_bc_policy(EpisodeStore.open(cli_store), k=worker.KNN_K)
    suite = build_suite(workload, worker.EVAL_BUDGETS, seed)
    report = worker.eval_pass(suite, bench_policy, run_config, space, Tracer(), [])
    counts, problems = worker.check_report(report, workload)
    assert problems == []
    assert counts["digest"] == cli_digest

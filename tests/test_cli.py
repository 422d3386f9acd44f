"""Command-line interface: exit codes, determinism, artifacts, config plumbing."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quadkit
from quadkit import cli
from quadkit.actions import default_action_space
from quadkit.cli import _desk_plan, main
from quadkit.config import (
    FULL_SCALE_PLAN,
    PLAN_DIVISOR,
    RateConfig,
    RunConfig,
    load_config,
    save_config,
)
from quadkit.roster import build_task_roster
from quadkit.store import EpisodeStore
from quadkit.taxonomy import Skill, Split

from test_import import good_episode
from test_store import store_with_edited_record, tree_bytes


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def collect_small(out: Path, *extra: str) -> tuple[int, str]:
    return run_cli("collect", "--out", str(out), "--task", "go_to",
                   "--count", "3", "--seed", "5", *extra)


def test_collect_writes_a_valid_store_and_prints_stats(tmp_path):
    code, out = collect_small(tmp_path / "store")
    assert code == 0
    assert "go_to" in out
    store = EpisodeStore.open(tmp_path / "store")
    assert store.episode_count == 3
    assert store.validate() == []


def test_collect_zero_episodes_is_a_valid_empty_run(tmp_path):
    code, _ = run_cli("collect", "--out", str(tmp_path / "store"),
                      "--task", "go_to", "--count", "0")
    assert code == 0
    assert EpisodeStore.open(tmp_path / "store").episode_count == 0


def test_collect_is_byte_deterministic(tmp_path):
    collect_small(tmp_path / "a")
    collect_small(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_worker_count_does_not_change_the_bytes(tmp_path):
    # The default plan, since a one-shard plan never starts a pool.
    for sub, workers in (("serial", "1"), ("parallel", "2")):
        run_cli("collect", "--out", str(tmp_path / sub), "--seed", "5", "--workers", workers)
    serial = tree_bytes(tmp_path / "serial")
    assert serial == tree_bytes(tmp_path / "parallel")
    assert not any(name.endswith(".tmp") for name in serial)
    with pytest.raises(ChildProcessError):  # every image writer was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv, asked", [
    (("--task", "go_to", "--count", "2", "--workers", "8"), []),
    (("--workers", "64"), [7]),  # the default plan has 7 shards
], ids=["one-shard", "default-plan"])
def test_collect_starts_no_more_workers_than_shards(tmp_path, monkeypatch, argv, asked):
    pools = []

    class RecordingPool:
        """Stands in for ``ProcessPoolExecutor``: records the worker count it
        is asked for and runs each shard in this process."""

        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # cmd_collect imports the pool class inside its `workers > 1` branch.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, _ = run_cli("collect", "--out", str(tmp_path / "store"), "--seed", "1", *argv)
    assert code == 0
    assert pools == asked
    assert EpisodeStore.open(tmp_path / "store").validate() == []


@pytest.mark.parametrize("flag, value", [("--count", "3"), ("--source", "real")])
def test_collect_count_or_source_without_task_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "store"
    code, _ = run_cli("collect", "--out", str(out), flag, value, "--seed", "1")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"usage error: {flag} needs --task")
    assert not out.exists()


def test_collect_real_source_labels_episodes(tmp_path):
    code, _ = run_cli("collect", "--out", str(tmp_path / "store"), "--task",
                      "go_to", "--count", "2", "--source", "real")
    assert code == 0
    eps = list(EpisodeStore.open(tmp_path / "store").iter_episodes(load_images=False))
    assert all(ep.source == "real" for ep in eps)
    assert all(ep.task.split is Split.SEEN_REAL for ep in eps)


def test_default_plan_matches_the_scaled_down_budget():
    plan = {(task, source): count for task, count, source in _desk_plan()}
    for name, full in FULL_SCALE_PLAN.items():
        want = max(1, full // PLAN_DIVISOR)
        if name.endswith("_real"):
            assert plan[(name[: -len("_real")], "real")] == want
        else:
            assert plan[(name, "sim")] == want
    assert plan[("crawl", "sim")] == 1  # floor keeps every task present
    assert plan[("go_to", "real")] == 3


def test_eval_writes_deterministic_csv(tmp_path):
    code_a, out_a = run_cli("eval", "--policy", "oracle", "--suite", "dev_small",
                            "--seed", "3", "--out", str(tmp_path / "a"))
    code_b, out_b = run_cli("eval", "--policy", "oracle", "--suite", "dev_small",
                            "--seed", "3", "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert "overall" in out_a
    csv_a = (tmp_path / "a" / "report.csv").read_text()
    csv_b = (tmp_path / "b" / "report.csv").read_text()
    assert csv_a == csv_b
    assert out_a == out_b


def test_knn_eval_decodes_under_the_stores_action_space(tmp_path):
    # Tokens shifted by an offset vote and decode as the default ones do.
    EpisodeStore.create(tmp_path / "shifted", default_action_space(token_offset=17))
    csvs = []
    for name in ("shifted", "default"):
        store = str(tmp_path / name)
        assert run_cli("collect", "--out", store, "--task", "go_to", "--count", "6",
                       "--seed", "1")[0] == 0
        assert run_cli("eval", "--policy", f"knn:{store}", "--suite", "dev_small",
                       "--seed", "3", "--out", str(tmp_path / f"{name}-eval"))[0] == 0
        csvs.append((tmp_path / f"{name}-eval" / "report.csv").read_bytes())
    assert csvs[0] == csvs[1]
    header, *_, overall = csvs[0].decode().splitlines()
    assert dict(zip(header.split(","), overall.split(",")))["malformed"] == "0"


def test_eval_accepts_budget_files_and_unseen_splits(tmp_path):
    budgets = tmp_path / "budgets.json"
    budgets.write_text(json.dumps({"go_to": 2}))
    code, out = run_cli("eval", "--policy", "oracle", "--suite", str(budgets),
                        "--split", "unseen_object")
    assert code == 0
    assert "unseen_object" in out


@pytest.mark.parametrize("text", [
    '{"go_to": "2"}', '{"go_to": 1.5}', '{"go_to": true}', '{"go_to": -1}',
    '{"go_to": 0}', '{}', '{"go_tu": 2}', '[["go_to", 2]]', '{"go_to": 2',
], ids=["string", "float", "bool", "negative", "zero-total", "empty", "unknown-skill",
        "not-an-object", "not-json"])
def test_bad_suite_file_is_a_usage_error(tmp_path, capsys, text):
    budgets = tmp_path / "budgets.json"
    budgets.write_text(text)
    code, out = run_cli("eval", "--policy", "oracle", "--suite", str(budgets))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "error:" in err[0] and str(budgets) in err[0]


def test_a_zero_budget_beside_a_positive_one_is_accepted(tmp_path):
    budgets = tmp_path / "budgets.json"
    budgets.write_text(json.dumps({"go_to": 1, "crawl": 0}))
    code, out = run_cli("eval", "--policy", "oracle", "--suite", str(budgets))
    assert code == 0
    assert "go_to" in out and "crawl" not in out


def test_unknown_suite_and_policy_are_usage_errors(tmp_path):
    assert run_cli("eval", "--policy", "oracle", "--suite", "nope")[0] == 2
    assert run_cli("eval", "--policy", "telepathy", "--suite", "dev_small")[0] == 2


@pytest.mark.parametrize("command,flag,value", [
    ("collect", "--seed", "-1"),
    ("collect", "--workers", "0"),
    ("collect", "--count", "-1"),
    ("eval", "--seed", "-1"),
    ("eval", "--knn-k", "0"),
    ("eval", "--knn-k", "five"),
], ids=["collect-seed", "collect-workers", "collect-count", "eval-seed", "eval-knn-k",
        "eval-knn-k-not-an-integer"])
def test_out_of_range_integer_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    store = tmp_path / "store"
    if command == "collect":
        argv = ["collect", "--out", str(store), "--task", "go_to"]
    else:
        argv = ["eval", "--policy", f"knn:{store}", "--out", str(tmp_path / "report")]
    with pytest.raises(SystemExit) as exited:
        main(argv + [flag, value])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert captured.out == ""
    assert not store.exists() and not (tmp_path / "report").exists()


def test_collect_with_rates_other_than_the_stores_is_a_usage_error(tmp_path, capsys):
    store = tmp_path / "store"
    assert collect_small(store)[0] == 0
    before = tree_bytes(store)
    config = tmp_path / "rates.json"
    config.write_text(json.dumps({"sim": {"rates": {"f_high": 40.0, "f_low": 4.0}}}))
    code, _ = run_cli("--config", str(config), "collect", "--out", str(store),
                      "--task", "go_avoid", "--count", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert "'f_high': 40.0, 'f_low': 4.0" in err and "'f_high': 50.0, 'f_low': 2.0" in err
    assert tree_bytes(store) == before


def test_bad_config_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("--config", str(bad), "eval", "--policy", "oracle",
                      "--suite", "dev_small")
    assert code == 2


def test_config_env_var_is_honored(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"max_ticks": 2}}))
    monkeypatch.setenv("QUARD_CONFIG", str(cfg))
    code, out = collect_small(tmp_path / "store")
    assert code == 0
    eps = list(EpisodeStore.open(tmp_path / "store").iter_episodes(load_images=False))
    # Two ticks are never enough to reach the target: every episode times out.
    assert {ep.outcome for ep in eps} == {"timeout"}


def test_render_exports_trajectory_and_frames(tmp_path):
    collect_small(tmp_path / "store")
    store = EpisodeStore.open(tmp_path / "store")
    episode = next(store.iter_episodes(load_images=False))

    code, out = run_cli("render", "--store", str(tmp_path / "store"),
                        "--episode", episode.episode_id,
                        "--out", str(tmp_path / "viz"))
    assert code == 0
    assert episode.episode_id in out
    svg = (tmp_path / "viz" / "trajectory.svg").read_text()
    assert svg.startswith("<svg")
    assert episode.instruction in svg
    frames = sorted((tmp_path / "viz").glob("frame-*.ppm"))
    assert len(frames) == len(episode.steps)

    run_cli("render", "--store", str(tmp_path / "store"),
            "--episode", episode.episode_id, "--out", str(tmp_path / "viz2"))
    assert (tmp_path / "viz2" / "trajectory.svg").read_text() == svg


def test_render_missing_episode_is_a_usage_error(tmp_path):
    collect_small(tmp_path / "store")
    code, _ = run_cli("render", "--store", str(tmp_path / "store"),
                      "--episode", "ghost", "--out", str(tmp_path / "viz"))
    assert code == 2


def test_render_loads_only_the_matched_episodes_images(tmp_path, monkeypatch):
    collect_small(tmp_path / "store")
    last = list(EpisodeStore.open(tmp_path / "store").iter_episodes(load_images=False))[-1]
    loaded = []
    load_image = EpisodeStore.load_image
    monkeypatch.setattr(EpisodeStore, "load_image",
                        lambda self, sha: loaded.append(sha) or load_image(self, sha))
    code, _ = run_cli("render", "--store", str(tmp_path / "store"),
                      "--episode", last.episode_id, "--out", str(tmp_path / "viz"))
    assert code == 0
    assert len(loaded) == len(last.steps)


def test_import_real_command_reports_counts(tmp_path):
    good_episode(tmp_path / "src" / "run-a")
    code, out = run_cli("import-real", "--src", str(tmp_path / "src"),
                        "--store", str(tmp_path / "store"))
    assert code == 0
    assert "imported 1" in out


def test_a_second_import_real_adds_a_shard(tmp_path):
    good_episode(tmp_path / "src" / "run-a")
    for _ in range(2):
        code, out = run_cli("import-real", "--src", str(tmp_path / "src"),
                            "--store", str(tmp_path / "store"))
        assert (code, out) == (0, "imported 1 episodes, skipped 0\n")
    assert run_cli("validate", "--store", str(tmp_path / "store")) == (0, "store ok\n")


def test_validate_exit_codes_follow_store_health(tmp_path):
    collect_small(tmp_path / "store")
    code, out = run_cli("validate", "--store", str(tmp_path / "store"))
    assert code == 0
    assert "store ok" in out

    shard = next((tmp_path / "store" / "shards").glob("*.rec"))
    data = bytearray(shard.read_bytes())
    data[-1] ^= 0x01
    shard.write_bytes(bytes(data))
    code, out = run_cli("validate", "--store", str(tmp_path / "store"))
    assert code == 1
    assert "sha256" in out


def test_validate_reports_a_wrong_typed_record_without_a_traceback(tmp_path, capsys):
    store_with_edited_record(tmp_path / "store", lambda rec: rec.__setitem__("steps", [5]))
    code, out = run_cli("validate", "--store", str(tmp_path / "store"))
    assert code == 1
    assert "shards[batch-0].record[0]: TypeError: " in out
    assert "Traceback" not in capsys.readouterr().err


def _without_sha256(manifest):
    del manifest["shards"][0]["sha256"]
    return manifest


@pytest.mark.parametrize("command, edit, field", [
    ("validate", lambda manifest: [], "expected an object"),
    ("validate", _without_sha256, "shards[0]"),
    ("stats", _without_sha256, "shards[0]"),
    ("stats", lambda manifest: {**manifest, "episode_count": "3"}, "episode_count"),
    ("validate", lambda manifest: {**manifest, "shards": {}}, "shards must be a list"),
], ids=["list", "no-sha256-validate", "no-sha256-stats", "string-count", "shards-object"])
def test_a_malformed_manifest_is_a_store_error(tmp_path, capsys, command, edit, field):
    collect_small(tmp_path / "store")
    path = tmp_path / "store" / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run_cli(command, "--store", str(tmp_path / "store"))[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("name", ["../../outside", "", ".hidden"],
                         ids=["leaves-the-store", "empty", "leading-dot"])
def test_a_shard_name_that_is_not_a_file_name_is_a_store_error(tmp_path, capsys, name):
    collect_small(tmp_path / "store")
    # The shard file is moved to where the edited name points, so only the
    # name check stands between it and "store ok".
    shard = next((tmp_path / "store" / "shards").glob("*.rec"))
    shard.rename(tmp_path / "store" / "shards" / f"{name}.rec")
    path = tmp_path / "store" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["shards"][0]["name"] = name
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code, out = run_cli("validate", "--store", str(tmp_path / "store"))
    assert code == 1
    assert "store ok" not in out
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "shards[0].name" in err


def test_missing_store_is_an_operational_error(tmp_path):
    code, _ = run_cli("stats", "--store", str(tmp_path / "nowhere"))
    assert code == 1


def test_stats_svg_artifact(tmp_path):
    collect_small(tmp_path / "store")
    svg_path = tmp_path / "chart.svg"
    code, _ = run_cli("stats", "--store", str(tmp_path / "store"),
                      "--svg", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize("module", [
    "scipy",  # not a dependency
    # Each is imported where its only use is: the process pool of
    # `collect --workers > 1`, dataset statistics, a failed parse's hint.
    "concurrent.futures.process",
    "multiprocessing",
    "statistics",
    "difflib",
])
def test_cli_import_leaves_module_unloaded(module):
    # Importing the CLI in a fresh interpreter, as every command does, must
    # not pull in a module that only some commands, or none, use.
    env = dict(os.environ, PYTHONPATH=str(Path(quadkit.__file__).resolve().parents[1]))
    probe = f"import sys, quadkit.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("config, key", [
    ({"sim": {"max_tick": 3}, "simm": {}}, "sim.max_tick"),
    ({"sim": {"rates": {"f_hgh": 50.0}}}, "sim.rates.f_hgh"),
    ({"scene": {"furniture_dims": {"sofaa": [0.8, 1.6, 0.7]}}}, "scene.furniture_dims.sofaa"),
], ids=["config0", "config1", "config2"])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, config, key):
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(config))
    code, _ = run_cli("--config", str(bad), "eval", "--policy", "oracle",
                      "--suite", "dev_small")
    assert code == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_eval_out_keeps_the_last_report_when_a_write_stops_part_way(tmp_path, monkeypatch):
    out = tmp_path / "report"
    argv = ["eval", "--policy", "random", "--suite", "dev_small", "--out", str(out)]
    assert run_cli(*argv, "--seed", "3")[0] == 0
    before = (out / "report.csv").read_bytes()
    write_text = Path.write_text

    def stops_part_way(path, data, *args, **kwargs):
        write_text(path, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", stops_part_way)
    code, _ = run_cli(*argv, "--seed", "4")
    monkeypatch.undo()
    assert code == 1
    assert (out / "report.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["report.csv"]


def test_config_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps({"sim": {"max_ticks": "3"}}))
    code, _ = run_cli("--config", str(bad), "collect", "--out", str(tmp_path / "store"),
                      "--task", "go_to", "--count", "1")
    assert code == 2
    assert "'sim.max_ticks'" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("rate", ["-0.2", "NaN", "Infinity"])
def test_bad_slew_rate_is_a_usage_error(tmp_path, capsys, rate):
    bad = tmp_path / "slew.json"
    bad.write_text('{"sim": {"slew": {"phi": %s}}}' % rate)
    code, _ = run_cli("--config", str(bad), "collect", "--out", str(tmp_path / "store"),
                      "--task", "go_to", "--count", "1")
    assert code == 2
    assert "slew rate phi" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("text, message", [
    ('{"expert": {"grid_resolution": 0}}', "grid_resolution must be finite and > 0"),
    ('{"expert": {"grid_resolution": -0.05}}', "grid_resolution must be finite and > 0"),
    ('{"expert": {"grid_resolution": NaN}}', "grid_resolution must be finite and > 0"),
    ('{"sim": {"camera": {"width": 0}}}', "camera width and height must be >= 1"),
    ('{"sim": {"camera": {"height": -48}}}', "camera width and height must be >= 1"),
    ('{"sim": {"camera": {"hfov_deg": 0}}}', "camera hfov_deg must be in (0, 180)"),
    ('{"sim": {"camera": {"hfov_deg": 180}}}', "camera hfov_deg must be in (0, 180)"),
    ('{"sim": {"camera": {"near_plane": 0}}}', "camera near_plane must be finite and > 0"),
    ('{"sim": {"arena": [6, -1.5, -3.5, 3.5]}}', "sim arena (x0, x1, y0, y1) must be finite"),
    ('{"sim": {"arena": [-1e308, 1e308, -3.5, 3.5]}}', "sim arena (x0, x1, y0, y1) must be finite"),
    ('{"expert": {"grid_resolution": 100}}', "leaves no planning grid cell"),
], ids=["resolution-zero", "resolution-negative", "resolution-nan", "width-zero",
        "height-negative", "hfov-zero", "hfov-180", "near-plane-zero", "arena-reversed",
        "arena-extent-overflows", "resolution-beyond-the-arena"])
def test_a_config_value_that_cannot_work_is_a_usage_error(tmp_path, capsys, text, message):
    bad = tmp_path / "c.json"
    bad.write_text(text)
    code, _ = run_cli("--config", str(bad), "collect", "--out", str(tmp_path / "S"),
                      "--task", "go_to", "--count", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad config {bad}") and message in err
    assert not (tmp_path / "S").exists()


def test_an_int_config_value_is_recorded_as_a_float(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"expert": {"gait_frequency": 3}}')
    code, _ = run_cli("--config", str(cfg), "collect", "--out", str(tmp_path / "S"),
                      "--task", "go_to", "--count", "1", "--seed", "5")
    assert code == 0
    store = EpisodeStore.open(tmp_path / "S")
    (record,) = store._iter_records(store.shards[0].name)
    f = default_action_space().index("f")
    values = [step["command"]["values"][f] for step in record["steps"]]
    assert values and all(type(v) is float and v == 3.0 for v in values)


def test_default_config_file_bytes_are_pinned(tmp_path):
    save_config(RunConfig(), tmp_path / "cfg.json")
    digest = hashlib.sha256((tmp_path / "cfg.json").read_bytes()).hexdigest()
    assert digest == "7b14bfa809d28aad4adb48f6abc68c98aff64e0870445979b590ab404f59e39d"


def test_config_round_trip_is_exact(tmp_path):
    cfg = replace(RunConfig(), sim=replace(RunConfig().sim, max_ticks=7,
                                           rates=RateConfig(f_high=100.0)))
    save_config(cfg, tmp_path / "cfg.json")
    assert load_config(tmp_path / "cfg.json") == cfg


# Runs the CLI, then reports whether the process still has a child (a
# writer or pool process that was not reaped), and exits with its status.
INTERRUPTED_CLI = """
import os, sys
from quadkit.cli import main
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("child left")
except ChildProcessError:
    print("no child left")
sys.exit(code)
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_interrupted_collect_exits_130_without_a_traceback(tmp_path, workers):
    store = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(Path(quadkit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_CLI, "collect", "--out", str(store),
         "--seed", "7", "--workers", workers],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        # A temporary shard file means a shard writer and its child are running.
        while not list(store.glob("shards/*.rec.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)  # the whole group, as Ctrl-C does
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err, out) == (130, "interrupted\n", "no child left\n")
    assert not list(store.rglob("*.tmp"))  # every writer finished and cleaned up


def test_an_interrupted_import_real_exits_130_without_a_traceback(tmp_path):
    # 1800 distinct frames keep the shard open while its child writes them.
    src, store = tmp_path / "src", tmp_path / "store"
    for i in range(60):
        good_episode(src / f"run-{i:02d}", n=30, frame_seed=30 * i)
    env = dict(os.environ, PYTHONPATH=str(Path(quadkit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_CLI, "import-real", "--src", str(src),
         "--store", str(store)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(store.glob("shards/*.rec.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err, out) == (130, "interrupted\n", "no child left\n")
    assert not list(store.rglob("*.tmp"))


def test_collect_shard_writes_one_uncommitted_shard(tmp_path, monkeypatch):
    # perfbench times quadkit.cli.generate_episode and commits the dicts
    # that _collect_shard returns, so both are part of its contract.
    root = tmp_path / "store"
    EpisodeStore.create(root, default_action_space())
    jobs = [(task, 11 + i, "sim") for i, task in
            enumerate(build_task_roster(Skill.GO_TO, 2, np.random.default_rng(0)))]
    calls = []
    generate = cli.generate_episode

    def counted(*args, **kwargs):
        calls.append(args[1])
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_episode", counted)
    info = cli._collect_shard(str(root), "go_to-sim-0000", jobs, RunConfig())
    assert isinstance(info, dict) and sorted(info) == ["episodes", "name", "sha256"]
    assert EpisodeStore.open(root).shards == []
    assert (root / "shards" / "go_to-sim-0000.rec").exists()
    assert calls == [11, 12]


def test_verbose_adds_a_traceback_to_operational_errors(tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    assert run_cli("stats", "--store", missing)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    assert run_cli("-v", "stats", "--store", missing)[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last)")
    assert err.splitlines()[-1].startswith("error: no manifest.json")


@pytest.mark.parametrize("error, line", [(ZeroDivisionError("division by zero"),
                                          "error: division by zero"),
                                         (RuntimeError(), "error: RuntimeError")],
                         ids=["unlisted-type", "empty-message"])
def test_any_runtime_failure_prints_one_line_or_its_traceback(monkeypatch, capsys, error, line):
    def fails(args):
        raise error

    monkeypatch.setattr(cli, "cmd_stats", fails)
    assert run_cli("stats", "--store", "S")[0] == 1
    assert capsys.readouterr().err == line + "\n"

    assert run_cli("-v", "stats", "--store", "S")[0] == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last)")
    assert type(error).__name__ in err and err.splitlines()[-1] == line

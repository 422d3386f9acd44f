"""Importing externally recorded episode folders into a store."""

from pathlib import Path

import numpy as np
import pytest

from quadkit.actions import default_action_space
from quadkit.store import EpisodeStore, import_real
from quadkit.store import importer
from quadkit.store.episodes import ShardWriter
from quadkit.taxonomy import Skill, Split
from quadkit.world.camera import to_ppm

GOOD_ROW = "0.5,0.0,0.1,0.5,0.0,0.0,3.0,0.25,0.0,0.3,0.08"


def frame_bytes(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return to_ppm(rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8))


def write_episode(folder: Path, *, instruction: str, rows: list[str],
                  n_frames: int | None = None, frame_seed: int = 0) -> None:
    folder.mkdir(parents=True)
    (folder / "instruction.txt").write_text(instruction + "\n")
    (folder / "commands.csv").write_text("\n".join(rows) + "\n")
    frames = folder / "frames"
    frames.mkdir()
    count = len(rows) if n_frames is None else n_frames
    for i in range(count):
        (frames / f"{i:04d}.ppm").write_bytes(frame_bytes(frame_seed + i))


def good_episode(folder: Path, n: int = 3, frame_seed: int = 0) -> None:
    rows = [f"{GOOD_ROW},0"] * (n - 1) + [f"{GOOD_ROW},1"]
    write_episode(folder, instruction="go to the red cube at normal speed with trot gait",
                  rows=rows, frame_seed=frame_seed)


def test_well_formed_episodes_import_cleanly(tmp_path):
    src = tmp_path / "src"
    for name in ("run-a", "run-b", "run-c"):
        good_episode(src / name, frame_seed=hash(name) % 1000)
    report = import_real(src, tmp_path / "store")
    assert report.imported == 3
    assert report.skipped == []

    store = EpisodeStore.open(tmp_path / "store")
    eps = list(store.iter_episodes())
    assert len(eps) == 3
    assert all(ep.source == "real" for ep in eps)
    assert all(ep.task.split is Split.SEEN_REAL for ep in eps)
    assert all(ep.task.skill is Skill.GO_TO for ep in eps)
    assert eps[0].episode_id == "real-run-a"  # folder order is sorted
    assert [len(ep.steps) for ep in eps] == [3, 3, 3]
    assert store.validate() == []


def test_malformed_episodes_are_skipped_not_fatal(tmp_path):
    src = tmp_path / "src"
    good_episode(src / "00-good")
    write_episode(src / "01-bad-instruction",
                  instruction="teleport to the moon", rows=[f"{GOOD_ROW},1"])
    write_episode(src / "02-bad-csv",
                  instruction="go to the red cube at normal speed with trot gait",
                  rows=["1,2,3"])
    write_episode(src / "03-nonfinite",
                  instruction="go to the red cube at normal speed with trot gait",
                  rows=[f"nan,0.0,0.1,0.5,0.0,0.0,3.0,0.25,0.0,0.3,0.08,1"])
    write_episode(src / "04-frame-mismatch",
                  instruction="go to the red cube at normal speed with trot gait",
                  rows=[f"{GOOD_ROW},0", f"{GOOD_ROW},1"], n_frames=1)
    write_episode(src / "05-bad-terminate",
                  instruction="go to the red cube at normal speed with trot gait",
                  rows=[f"{GOOD_ROW},2"])

    report = import_real(src, tmp_path / "store")
    assert report.imported == 1
    skipped_names = {name for name, _reason in report.skipped}
    assert skipped_names == {
        "01-bad-instruction", "02-bad-csv", "03-nonfinite",
        "04-frame-mismatch", "05-bad-terminate",
    }
    eps = list(EpisodeStore.open(tmp_path / "store").iter_episodes())
    assert [ep.episode_id for ep in eps] == ["real-00-good"]


def test_episodes_breaking_the_success_rule_are_skipped(tmp_path):
    src = tmp_path / "src"
    good_episode(src / "00-good")
    for name, flags in (("01-no-stop", "000"), ("02-early-stop", "100"),
                        ("03-two-stops", "011")):
        write_episode(src / name, rows=[f"{GOOD_ROW},{f}" for f in flags],
                      instruction="go to the red cube at normal speed with trot gait")
    report = import_real(src, tmp_path / "store")
    assert report.imported == 1
    assert [name for name, _ in report.skipped] == ["01-no-stop", "02-early-stop",
                                                    "03-two-stops"]
    assert all("terminate" in reason for _, reason in report.skipped)
    store = EpisodeStore.open(tmp_path / "store")
    assert [ep.episode_id for ep in store.iter_episodes()] == ["real-00-good"]
    assert store.validate() == []


def test_a_terminate_cell_other_than_0_or_1_skips_the_episode(tmp_path):
    src = tmp_path / "src"
    write_episode(src / "00-float-flags", rows=[f"{GOOD_ROW},0.0", f"{GOOD_ROW},1.0"],
                  instruction="go to the red cube at normal speed with trot gait")
    for name, flag in (("01-inf", "inf"), ("02-one-point-seven", "1.7"), ("03-nan", "nan")):
        write_episode(src / name, rows=[f"{GOOD_ROW},0", f"{GOOD_ROW},{flag}"],
                      instruction="go to the red cube at normal speed with trot gait")
    good_episode(src / "04-good")
    report = import_real(src, tmp_path / "store")
    assert report.imported == 2
    assert report.skipped == [(name, "commands.csv row 1: terminate must be 0 or 1")
                              for name in ("01-inf", "02-one-point-seven", "03-nan")]
    store = EpisodeStore.open(tmp_path / "store")
    eps = list(store.iter_episodes())
    assert [ep.episode_id for ep in eps] == ["real-00-float-flags", "real-04-good"]
    assert [s.command.terminate for s in eps[0].steps] == [False, True]
    assert store.validate() == []


@pytest.mark.parametrize("header", [b"P6\n64 48\n", b"P6\n-1 48\n255\n", b"P6\n0 0\n255\n",
                                    b"P6\n64 48\n65535\n"],
                         ids=["truncated", "negative-width", "zero-size", "maxval"])
def test_a_frame_with_a_malformed_header_skips_the_episode(tmp_path, header):
    src = tmp_path / "src"
    good_episode(src / "00-good")
    good_episode(src / "01-bad-frame")
    (src / "01-bad-frame" / "frames" / "0001.ppm").write_bytes(header + bytes(64 * 48 * 3))
    report = import_real(src, tmp_path / "store")
    assert report.imported == 1
    assert [name for name, _ in report.skipped] == ["01-bad-frame"]
    assert report.skipped[0][1].startswith("0001.ppm: ")


def test_each_episode_is_added_before_the_next_is_read(tmp_path, monkeypatch):
    src = tmp_path / "src"
    good_episode(src / "00-a", frame_seed=10)
    write_episode(src / "01-bad", instruction="teleport to the moon", rows=[f"{GOOD_ROW},1"])
    good_episode(src / "02-b", frame_seed=20)
    good_episode(src / "03-c", frame_seed=30)
    events = []
    read, add = importer._read_episode, ShardWriter.add

    def logged_read(folder, index, space):
        events.append(("read", folder.name))
        return read(folder, index, space)

    def logged_add(self, ep):
        events.append(("add", ep.episode_id))
        add(self, ep)

    monkeypatch.setattr(importer, "_read_episode", logged_read)
    monkeypatch.setattr(ShardWriter, "add", logged_add)
    report = import_real(src, tmp_path / "store")
    assert events == [("read", "00-a"), ("add", "real-00-a"), ("read", "01-bad"),
                      ("read", "02-b"), ("add", "real-02-b"),
                      ("read", "03-c"), ("add", "real-03-c")]
    assert report.imported == 3
    assert [name for name, _ in report.skipped] == ["01-bad"]


def test_out_of_range_commands_are_clamped_into_the_space(tmp_path):
    src = tmp_path / "src"
    row = "9.0,0.0,0.1,0.5,0.0,0.0,3.0,0.25,0.0,0.3,0.08,1"  # v_x over max
    write_episode(src / "hot", rows=[row],
                  instruction="go to the red cube at normal speed with trot gait")
    report = import_real(src, tmp_path / "store")
    assert report.imported == 1
    space = default_action_space()
    (ep,) = list(EpisodeStore.open(tmp_path / "store").iter_episodes())
    assert ep.steps[0].command.v_x == space.maxs[0]


def test_reimport_under_a_new_shard_is_token_identical(tmp_path):
    src = tmp_path / "src"
    good_episode(src / "run-a")
    import_real(src, tmp_path / "store")
    import_real(src, tmp_path / "store")

    store = EpisodeStore.open(tmp_path / "store")
    first = list(store.iter_episodes(shard="real-000"))
    second = list(store.iter_episodes(shard="real-001"))
    assert [ep.steps[0].tokens for ep in first] == [ep.steps[0].tokens for ep in second]
    # Identical frames dedup to the same content-addressed files.
    shas = {p.name for p in (tmp_path / "store" / "obs").rglob("*.ppm")}
    assert len(shas) == 3


def test_each_import_commits_the_lowest_unused_real_shard(tmp_path):
    src = tmp_path / "src"
    good_episode(src / "run-a")
    import_real(src, tmp_path / "store")
    EpisodeStore.open(tmp_path / "store").write_shard("real-002", [])
    for _ in range(2):
        assert import_real(src, tmp_path / "store").imported == 1
    store = EpisodeStore.open(tmp_path / "store")
    assert [info.name for info in store.shards] == ["real-000", "real-001", "real-002",
                                                     "real-003"]
    assert store.validate() == []

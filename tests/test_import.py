"""Importing externally recorded episode folders into a store."""

from pathlib import Path

import numpy as np
import pytest

from quadkit.actions import default_action_space
from quadkit.store import EpisodeStore, StoreError, import_real
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
    import_real(src, tmp_path / "store", shard_name="real-000")
    import_real(src, tmp_path / "store", shard_name="real-001")

    store = EpisodeStore.open(tmp_path / "store")
    first = list(store.iter_episodes(shard="real-000"))
    second = list(store.iter_episodes(shard="real-001"))
    assert [ep.steps[0].tokens for ep in first] == [ep.steps[0].tokens for ep in second]
    # Identical frames dedup to the same content-addressed files.
    shas = {p.name for p in (tmp_path / "store" / "obs").rglob("*.ppm")}
    assert len(shas) == 3


def test_duplicate_shard_name_raises(tmp_path):
    src = tmp_path / "src"
    good_episode(src / "run-a")
    import_real(src, tmp_path / "store", shard_name="real-000")
    with pytest.raises(StoreError):
        import_real(src, tmp_path / "store", shard_name="real-000")

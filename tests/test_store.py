"""Episode store: round trips, byte determinism, content addressing,
validation, concurrent shard commits, and statistics."""

import hashlib
import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from quadkit.actions import ActionCommand, default_action_space, tokenize
from quadkit.store import (
    Episode,
    EpisodeStore,
    Step,
    StoreError,
    compute_stats,
    stats_svg,
    stats_table,
)
from quadkit.store import episodes
from quadkit.store.episodes import ShardWriter
from quadkit.taxonomy import Color, GaitName, ObjectRef, Skill, SpeedLevel, TaskSpec
from quadkit.world.camera import to_ppm

SPACE = default_action_space()


def make_image(seed: int, shape=(6, 8, 3)) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


def make_episode(i: int, *, source: str = "sim", outcome: str = "success",
                 n_steps: int = 3, skill: Skill = Skill.GO_TO,
                 image_seed: int | None = None) -> Episode:
    cmds = [ActionCommand(0.5, 0.0, 0.1, 0.5, 0.0, 0.0, 3.0, 0.25, 0.0, 0.3, 0.08)] * n_steps
    if outcome == "success":  # a success ends with its one stop step
        cmds[-1] = ActionCommand(terminate=True)
    steps = [
        Step(
            image=make_image(i * 97 + j if image_seed is None else image_seed),
            tokens=tokenize(cmd, SPACE),
            command=cmd,
            pose=(0.1 * j, 0.0, 0.0),
        )
        for j, cmd in enumerate(cmds)
    ]
    task = TaskSpec(skill, ObjectRef("cube", Color.RED), SpeedLevel.NORMAL,
                    GaitName.TROT)
    return Episode(
        episode_id=f"ep-{source}-{i:05d}", task=task,
        instruction="go to the red cube at normal speed with trot gait",
        template_id="go_to/canonical", source=source, seed=i, outcome=outcome,
        steps=steps,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_round_trip_preserves_everything(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    originals = [make_episode(i) for i in range(4)]
    store.write_shard("batch-0", originals)

    loaded = list(EpisodeStore.open(tmp_path / "s").iter_episodes())
    assert len(loaded) == 4
    for orig, back in zip(originals, loaded):
        assert back.episode_id == orig.episode_id
        assert back.task == orig.task
        assert back.instruction == orig.instruction
        assert back.template_id == orig.template_id
        assert back.source == orig.source
        assert back.seed == orig.seed
        assert back.outcome == orig.outcome
        assert len(back.steps) == len(orig.steps)
        for sa, sb in zip(orig.steps, back.steps):
            assert sb.tokens == sa.tokens
            assert sb.pose == sa.pose
            assert sb.command == sa.command
            assert (sb.image == sa.image).all()


def test_identical_writes_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        store = EpisodeStore.create(tmp_path / sub, SPACE)
        store.write_shard("batch-0", [make_episode(i) for i in range(3)])
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_repeated_observations_are_stored_once(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    eps = [make_episode(i, image_seed=7, n_steps=5) for i in range(10)]
    store.write_shard("batch-0", eps)
    obs_files = list((tmp_path / "s" / "obs").rglob("*.ppm"))
    assert len(obs_files) == 1  # 50 steps, one unique image


def test_skipping_image_load_keeps_metadata(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    (ep,) = list(store.iter_episodes(load_images=False))
    assert ep.steps[0].tokens == make_episode(0).steps[0].tokens
    assert ep.steps[0].image.shape == (1, 1, 3)


def test_validate_passes_on_a_clean_store(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(i) for i in range(3)])
    assert store.validate() == []


def test_validate_catches_shard_corruption(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    shard = tmp_path / "s" / "shards" / "batch-0.rec"
    data = bytearray(shard.read_bytes())
    data[7] ^= 0xFF
    shard.write_bytes(bytes(data))
    problems = EpisodeStore.open(tmp_path / "s").validate()
    assert any("sha256" in p for p in problems)


def test_validate_catches_missing_observation(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    victim = next((tmp_path / "s" / "obs").rglob("*.ppm"))
    victim.unlink()
    problems = EpisodeStore.open(tmp_path / "s").validate()
    assert any("missing image" in p for p in problems)


def test_validate_rehashes_observations(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    victim = sorted((tmp_path / "s" / "obs").rglob("*.ppm"))[0]
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0x01  # a pixel byte: the file still parses
    victim.write_bytes(bytes(data))
    assert store.load_image(victim.stem).shape == (6, 8, 3)
    problems = EpisodeStore.open(tmp_path / "s").validate()
    rel = victim.relative_to(tmp_path / "s").as_posix()
    assert problems == [f"{rel}: content does not hash to its name"]


@pytest.mark.parametrize("stray", ["shards/orphan.rec", "obs/ab/leftover.123.tmp"])
def test_validate_lists_unreferenced_files(tmp_path, stray):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    path = tmp_path / "s" / stray
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"stray")
    assert EpisodeStore.open(tmp_path / "s").validate() == [f"{stray}: unreferenced file"]


def test_validate_lists_stray_entries_at_the_store_root(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    (tmp_path / "s" / "stray.txt").write_bytes(b"stray")
    (tmp_path / "s" / "manifest.json.tmp").write_bytes(b"{}")
    assert EpisodeStore.open(tmp_path / "s").validate() == [
        "manifest.json.tmp: unexpected entry at the store root",
        "stray.txt: unexpected entry at the store root",
    ]


def test_load_image_of_a_missing_observation_is_a_store_error(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    victim = next((tmp_path / "s" / "obs").rglob("*.ppm"))
    assert store.load_image(victim.stem).shape == (6, 8, 3)
    victim.unlink()
    with pytest.raises(StoreError, match=f"^missing observation {victim.stem}$"):
        store.load_image(victim.stem)
    with pytest.raises(StoreError, match="missing observation"):
        list(store.iter_episodes())


def test_validate_catches_count_drift(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["episode_count"] = 9
    manifest_path.write_text(json.dumps(manifest))
    problems = EpisodeStore.open(tmp_path / "s").validate()
    assert any("episode_count" in p for p in problems)


def store_with_edited_record(root: Path, edit) -> EpisodeStore:
    """A store holding ``make_episode(0)`` whose one record was rewritten by
    ``edit(record_dict)``, with the manifest checksum updated to match."""
    def rewrite(payload: bytes) -> bytes:
        rec = json.loads(payload)
        edit(rec)
        return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    return store_with_rewritten_record(root, rewrite)


def store_with_rewritten_record(root: Path, rewrite) -> EpisodeStore:
    """A store holding ``make_episode(0)`` whose one record's payload was
    replaced by ``rewrite(payload_bytes)``, with the manifest checksum updated."""
    EpisodeStore.create(root, SPACE).write_shard("batch-0", [make_episode(0)])
    shard = root / "shards" / "batch-0.rec"
    payload = rewrite(shard.read_bytes()[4:])
    data = len(payload).to_bytes(4, "big") + payload
    shard.write_bytes(data)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shards"][0]["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    return EpisodeStore.open(root)


def record_problems(store: EpisodeStore) -> list[str]:
    return [p for p in store.validate() if p.startswith("shards[")]


@pytest.mark.parametrize("flags, found", [
    ((0, 0, 0), []),
    ((1, 0, 0), [0]),
    ((0, 1, 1), [1, 2]),
], ids=["no-terminate", "earlier-terminate", "two-terminates"])
def test_validate_requires_one_final_terminate_on_success(tmp_path, flags, found):
    def edit(rec):
        for step, flag in zip(rec["steps"], flags):
            step["tokens"][-1] = flag
    store = store_with_edited_record(tmp_path / "s", edit)
    assert store.validate() == [
        "shards[batch-0].record[0].outcome: a success carries the terminate token "
        f"exactly once, at its last step; found it at steps {found}"
    ]


def test_validate_lets_a_failed_episode_end_without_terminate(tmp_path):
    def edit(rec):
        rec["outcome"] = "collision"
        rec["steps"][-1]["tokens"][-1] = 0
    assert store_with_edited_record(tmp_path / "s", edit).validate() == []


def test_validate_decodes_every_token_under_the_action_space(tmp_path):
    store = store_with_edited_record(
        tmp_path / "s", lambda rec: rec["steps"][1]["tokens"].__setitem__(0, 999))
    assert store.validate() == [
        "shards[batch-0].record[0].steps[1].tokens: "
        "detokenize: token 999 out of range for dimension 'v_x'"
    ]


@pytest.mark.parametrize("edit, error", [
    (lambda rec: rec.__setitem__("steps", [5]), "TypeError"),
    (lambda rec: rec.__setitem__("task", "x"), "TypeError"),
    (lambda rec: rec["task"].__setitem__("object", "x"), "AttributeError"),
    (lambda rec: rec["steps"][0]["tokens"].__setitem__(0, float("inf")), "StoreError"),
], ids=["steps-of-ints", "task-string", "object-string", "infinite-token"])
def test_validate_reports_wrong_typed_values_instead_of_raising(tmp_path, edit, error):
    problems = record_problems(store_with_edited_record(tmp_path / "s", edit))
    assert len(problems) == 1
    assert problems[0].startswith(f"shards[batch-0].record[0]: {error}: ")


@pytest.mark.parametrize("edit, word", [
    (lambda rec: rec.pop("seed"), "seed"),
    (lambda rec: rec.__setitem__("outcome", "shrug"), "'shrug'"),
    (lambda rec: rec["steps"][0]["tokens"].pop(), "12 entries"),
    (lambda rec: rec["steps"][0]["tokens"].__setitem__(0, 1.5), "JSON integers"),
    (lambda rec: rec["steps"][0]["tokens"].__setitem__(0, True), "JSON integers"),
    (lambda rec: rec["steps"][1]["pose"].pop(), "3 numbers"),
], ids=["missing-key", "unknown-outcome", "eleven-tokens", "fractional-token", "bool-token",
        "two-entry-pose"])
def test_validate_flags_each_malformed_record_once(tmp_path, edit, word):
    problems = record_problems(store_with_edited_record(tmp_path / "s", edit))
    assert len(problems) == 1
    assert problems[0].startswith("shards[batch-0].record[0]") and word in problems[0]


def test_validate_reports_an_image_reference_outside_the_store(tmp_path):
    store = store_with_edited_record(
        tmp_path / "s", lambda rec: rec["steps"][0].__setitem__("obs", "/outside"))
    problems = store.validate()
    assert record_problems(store) == [
        "shards[batch-0].record[0]: StoreError: "
        "obs must be 64 lowercase hex digits, got '/outside'"
    ]
    assert not any("outside" in p for p in problems if not p.startswith("shards["))


def test_validate_reports_a_deeply_nested_record(tmp_path):
    store = store_with_rewritten_record(
        tmp_path / "s", lambda payload: b"[" * 100_000 + b"]" * 100_000)
    assert record_problems(store) == [
        "shards[batch-0]: batch-0: record nested too deeply",
        "shards[batch-0].episodes: manifest says 1, found 0",
    ]


def test_validate_reports_a_missing_image_once(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(i, image_seed=7) for i in range(4)])
    (victim,) = (tmp_path / "s" / "obs").rglob("*.ppm")
    victim.unlink()
    rel = victim.relative_to(tmp_path / "s").as_posix()
    assert EpisodeStore.open(tmp_path / "s").validate() == [f"{rel}: missing image"]


def test_duplicate_shard_names_are_rejected(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    store.write_shard("batch-0", [make_episode(0)])
    with pytest.raises(StoreError):
        store.write_shard("batch-0", [make_episode(1)])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_exception_leaves_no_shard_file_and_the_name_free(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    with pytest.raises(KeyError):
        with ShardWriter(store, "a") as writer:
            writer.add(make_episode(0, image_seed=7))
            raise KeyError("stop")
    assert list((tmp_path / "s" / "shards").iterdir()) == []
    assert_no_child_left()
    store.write_shard("a", [make_episode(1, image_seed=7)])
    assert store.validate() == []


def test_a_stale_temporary_shard_file_is_overwritten(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    (tmp_path / "s" / "shards" / "a.rec.tmp").write_bytes(b"left by a killed run")
    store.write_shard("a", [make_episode(0)])
    assert store.validate() == []
    assert sorted(p.name for p in (tmp_path / "s" / "shards").iterdir()) == ["a.rec"]


def test_two_open_writers_in_one_process_both_close(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    first, second = ShardWriter(store, "a"), ShardWriter(store, "b")
    first.add(make_episode(0))
    second.add(make_episode(1))
    # The first child sees the end of its input only if the second child
    # holds no copy of the first pipe. Should close() hang, the alarm kills
    # the first child, and close() fails for want of its status.
    stuck = first._images.pid
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(stuck, signal.SIGKILL))
    signal.alarm(30)
    try:
        infos = [first.close(), second.close()]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    store.commit_shards(infos)
    assert store.validate() == []
    assert_no_child_left()


def sigint_blocked(pid: int) -> bool:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigBlk:"):
            return bool(int(line.split()[1], 16) >> (signal.SIGINT - 1) & 1)
    raise AssertionError(f"no SigBlk line for process {pid}")


@pytest.mark.parametrize("at", [1, 3, 4], ids=["middle-episode", "last-episode", "after-the-last"])
def test_a_sigint_while_filling_a_shard_discards_it(tmp_path, monkeypatch, at):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    children = []
    fork_writer = episodes._ImageWriter.__init__

    def recorded(self, obs):
        fork_writer(self, obs)
        children.append(self.pid)

    monkeypatch.setattr(episodes._ImageWriter, "__init__", recorded)
    has_proc = Path("/proc/self/status").exists()
    child_blocked = []

    def interrupt():
        if has_proc:
            child_blocked.append(sigint_blocked(children[0]))
        os.kill(os.getpid(), signal.SIGINT)

    def interrupting():
        for i in range(4):
            if i == at:
                interrupt()
            yield make_episode(i, image_seed=7)
        if at == 4:
            interrupt()

    with pytest.raises(KeyboardInterrupt):
        store.fill_shard("a", interrupting())
    assert list((tmp_path / "s" / "shards").iterdir()) == []
    assert_no_child_left()
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert store.shards == []
    if has_proc:
        # The writer child is forked with SIGINT held, so no SIGINT reaches
        # it before it ignores the signal.
        assert child_blocked == [True]


@pytest.mark.parametrize("shape", [(6, 8, 3), (240, 320, 3)], ids=["at-close", "while-adding"])
def test_a_failed_image_write_raises_the_childs_error(tmp_path, shape):
    # Large images fill the pipe after the child stopped, so the parent's own
    # error is a broken pipe; the child's message is raised either way.
    root = tmp_path / "s"
    store = EpisodeStore.create(root, SPACE)
    eps = [make_episode(i) for i in range(10)]
    for ep in eps:
        for j, step in enumerate(ep.steps):
            step.image = make_image(int(ep.seed) * 97 + j, shape)
    sha = hashlib.sha256(to_ppm(eps[0].steps[0].image)).hexdigest()
    (root / "obs" / sha[:2]).write_bytes(b"a file where a folder belongs")
    with pytest.raises(StoreError, match="image writer failed: NotADirectoryError"):
        with ShardWriter(store, "a") as writer:
            for ep in eps:
                writer.add(ep)
    assert list((root / "shards").iterdir()) == []
    assert not list((root / "obs").rglob("*.tmp"))
    assert_no_child_left()


def test_create_refuses_to_clobber_and_open_requires_manifest(tmp_path):
    EpisodeStore.create(tmp_path / "s", SPACE)
    with pytest.raises(StoreError):
        EpisodeStore.create(tmp_path / "s", SPACE)
    with pytest.raises(StoreError):
        EpisodeStore.open(tmp_path / "nowhere")


def test_unknown_format_version_is_rejected(tmp_path):
    EpisodeStore.create(tmp_path / "s", SPACE)
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError):
        EpisodeStore.open(tmp_path / "s")


def test_commit_rereads_and_checks_the_manifest(tmp_path):
    store = EpisodeStore.create(tmp_path / "s", SPACE)
    info = store.fill_shard("batch-0", [make_episode(0)])
    manifest_path = tmp_path / "s" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["shards"] = [{"name": "other", "episodes": 1}]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=r"shards\[0\]"):
        store.commit_shards([info])


def test_bad_outcome_and_source_are_rejected_at_construction():
    with pytest.raises(StoreError):
        make_episode(0, outcome="shrug")
    with pytest.raises(StoreError):
        make_episode(0, source="dream")


def _write_worker(args) -> int:
    root, worker = args
    store = EpisodeStore.open(root)
    eps = [
        make_episode(worker * 1000 + i, image_seed=worker, n_steps=1)
        for i in range(125)
    ]
    info = store.write_shard(f"worker-{worker}", eps)
    return info.episodes


def test_concurrent_writers_commit_every_shard(tmp_path):
    root = tmp_path / "s"
    EpisodeStore.create(root, SPACE)
    with ProcessPoolExecutor(max_workers=8) as pool:
        counts = list(pool.map(_write_worker, [(str(root), w) for w in range(8)]))
    assert counts == [125] * 8
    store = EpisodeStore.open(root)
    assert store.episode_count == 1000
    assert len(store.shards) == 8
    assert store.validate() == []
    assert not (root / ".manifest.lock").exists()


def test_a_pass_decodes_each_distinct_image_once(tmp_path, monkeypatch):
    root = tmp_path / "s"
    store = EpisodeStore.create(root, SPACE)
    # Repeats within an episode, across episodes and across shards.
    store.write_shard("a", [make_episode(0, image_seed=1, n_steps=3),
                            make_episode(1, n_steps=2)])
    store.write_shard("b", [make_episode(2, image_seed=1, n_steps=2),
                            make_episode(3, image_seed=5, n_steps=4)])
    loads = []
    load_image = EpisodeStore.load_image

    def counted(self, sha):
        loads.append(sha)
        return load_image(self, sha)

    monkeypatch.setattr(EpisodeStore, "load_image", counted)
    eps = list(EpisodeStore.open(root).iter_episodes())
    assert sorted(loads) == sorted(set(loads))
    assert len(loads) == len(list((root / "obs").rglob("*.ppm"))) == 4
    images = [step.image for ep in eps for step in ep.steps]
    assert len(images) == 11
    assert images[0] is images[1] is images[5] is images[6]
    assert not images[0].flags.writeable
    for ep, i in zip(eps, range(4)):
        expected = make_episode(i, image_seed=(1, None, 1, 5)[i], n_steps=len(ep.steps))
        for got, want in zip(ep.steps, expected.steps):
            assert np.array_equal(got.image, want.image)
    # Every pass decodes afresh: nothing is held between passes.
    loads.clear()
    list(EpisodeStore.open(root).iter_episodes(shard="b"))
    assert len(loads) == 2


def test_a_stale_lock_file_does_not_delay_commits(tmp_path):
    root = tmp_path / "s"
    store = EpisodeStore.create(root, SPACE)
    (root / ".manifest.lock").write_bytes(b"")  # left by a killed writer
    start = time.monotonic()
    store.write_shard("a", [make_episode(0)])
    assert time.monotonic() - start < 5.0
    assert EpisodeStore.open(root).episode_count == 1


def test_stats_reflect_outcomes_and_lengths(tmp_path):
    eps = (
        [make_episode(i, skill=Skill.GO_TO, n_steps=4) for i in range(6)]
        + [make_episode(10 + i, skill=Skill.GO_TO, n_steps=4, outcome="collision")
           for i in range(2)]
        + [make_episode(20 + i, skill=Skill.UNLOAD, n_steps=8) for i in range(4)]
    )
    stats = compute_stats(eps)
    assert stats.total_episodes == 12
    assert stats.per_task["go_to"].count == 8
    assert stats.per_task["go_to"].success_rate == pytest.approx(6 / 8)
    assert stats.per_task["go_to"].mean_length == pytest.approx(4.0)
    assert stats.per_task["unload"].mean_length == pytest.approx(8.0)
    assert stats.outcome_shares["collision"] == pytest.approx(2 / 12)
    assert stats.source_shares["sim"] == pytest.approx(1.0)

    table = stats_table(stats)
    assert "go_to" in table and "unload" in table
    svg = stats_svg(stats)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert stats_svg(stats) == svg  # deterministic


def test_stats_handle_an_empty_collection():
    stats = compute_stats([])
    assert stats.total_episodes == 0
    assert stats_table(stats)  # renders without dividing by zero

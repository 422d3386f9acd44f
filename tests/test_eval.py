"""Evaluation harness: suite construction, outcome bookkeeping, policy
behavior, generalization suites, and the scaling experiment."""

import json
import tracemalloc
from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from quadkit.actions import ActionTokens, default_action_space, detokenize
from quadkit.config import CameraConfig, RunConfig, SimConfig
from quadkit.evaluation import (
    KnnPolicy,
    OraclePolicy,
    RandomPolicy,
    build_suite,
    knn_bc_policy,
    make_unseen_suites,
    run_suite,
    scaling_experiment,
)
from quadkit.evaluation import harness, policies
from quadkit.evaluation.harness import BUCKETS, EvalSuite
from quadkit.evaluation.policies import _encode_spec, _featurize, _pool_image
from quadkit.expert import generate_episode
from quadkit.language import LanguageError, parse_instruction, render_instruction
from quadkit.store import EpisodeStore, MixPolicy
from quadkit.taxonomy import SEEN_COLORS, Skill, SpeedLevel, Split
from quadkit.world.camera import render_observation
from quadkit.world.sim import Simulator

from blas_kernels import run_under_each_kernel, uses_openblas
from oracles import block_mean_pool, knn_fit_reference, knn_reference

SPACE = default_action_space()

SMALL_BUDGETS = {"go_to": 3, "distinguish": 2}


def small_suite(seed: int = 0, name: str = "small"):
    return build_suite(name, SMALL_BUDGETS, seed)


class TerminateImmediately:
    def bind(self, sim):
        pass

    def act(self, obs, instruction):
        lo = SPACE.token_offset
        return ActionTokens(tuple([128] * 11 + [lo + 1]))


class EmitGarbage:
    def bind(self, sim):
        pass

    def act(self, obs, instruction):
        return ActionTokens(tuple([10_000] * 12))


class Crash:
    def bind(self, sim):
        pass

    def act(self, obs, instruction):
        raise RuntimeError("model server unreachable")


def test_build_suite_is_deterministic_and_respects_budgets():
    a = small_suite(7)
    b = small_suite(7)
    assert a == b
    assert small_suite(8) != a
    assert a.budgets() == SMALL_BUDGETS
    seeds = [e.seed for e in a.entries]
    assert len(set(seeds)) == len(seeds)  # unique scene draws


def test_oracle_outperforms_and_buckets_sum():
    suite = small_suite(3)
    report = run_suite(OraclePolicy(), suite)
    for name, result in report.per_task.items():
        assert sum(result.buckets.values()) == result.budget, name
    assert report.overall.budget == sum(SMALL_BUDGETS.values())
    assert report.success_rate() == 1.0


def test_random_policy_rarely_succeeds_but_never_crashes():
    suite = small_suite(4)
    report = run_suite(RandomPolicy(SPACE, seed=0), suite)
    assert report.overall.budget == sum(SMALL_BUDGETS.values())
    assert sum(report.overall.buckets.values()) == report.overall.budget
    assert report.success_rate() < 1.0


def test_terminating_without_success_is_wrong_target():
    suite = small_suite(5)
    report = run_suite(TerminateImmediately(), suite)
    assert report.overall.buckets["wrong_target"] == report.overall.budget


def test_undecodable_tokens_and_exceptions_are_malformed():
    suite = small_suite(6)
    for policy in (EmitGarbage(), Crash()):
        report = run_suite(policy, suite)
        assert report.overall.buckets["malformed"] == report.overall.budget


@pytest.fixture
def renders(monkeypatch):
    """The states ``harness.render_observation`` is called with."""
    states = []

    def counted(state, camera):
        states.append(state)
        return render_observation(state, camera)

    monkeypatch.setattr(harness, "render_observation", counted)
    return states


@pytest.mark.parametrize("policy", [OraclePolicy(), RandomPolicy(SPACE, seed=0)],
                         ids=["oracle", "random"])
def test_policies_that_never_read_the_image_cost_no_render(renders, policy):
    report = run_suite(policy, small_suite(3))
    assert report.overall.budget == sum(SMALL_BUDGETS.values())
    assert renders == []


class LookTwiceThenWalk:
    """Reads the frame twice per tick and checks it against a fresh render
    of the live state; terminates on the third tick."""

    def __init__(self, camera):
        self.camera = camera
        self.ticks = 0

    def bind(self, sim):
        self.sim = sim

    def act(self, obs, instruction):
        first, second = obs.image, obs.image
        assert second is first
        expected = render_observation(self.sim.state, self.camera)
        assert first.tobytes() == expected.tobytes()
        self.ticks += 1
        lo = SPACE.token_offset
        return ActionTokens(tuple([lo + 140] + [lo + 128] * 10
                                  + [lo + int(self.ticks % 3 == 0)]))


def test_a_frame_read_twice_renders_once_and_matches_the_live_state(renders):
    policy = LookTwiceThenWalk(RunConfig().sim.camera)
    report = run_suite(policy, small_suite(3))
    assert report.overall.buckets["malformed"] == 0
    assert policy.ticks >= report.overall.budget
    assert len(renders) == policy.ticks
    assert len({id(state) for state in renders}) == policy.ticks


class ReadTheImage:
    def __init__(self, swallow: bool):
        self.swallow = swallow

    def bind(self, sim):
        pass

    def act(self, obs, instruction):
        try:
            obs.image
        except RuntimeError:
            if not self.swallow:
                raise
        return ActionTokens(tuple([128] * 11 + [1]))


@pytest.mark.parametrize("swallow", [False, True], ids=["raises", "swallows"])
def test_a_render_error_aborts_the_suite_instead_of_being_malformed(monkeypatch, swallow):
    def broken(state, camera):
        raise RuntimeError("renderer broke")

    monkeypatch.setattr(harness, "render_observation", broken)
    with pytest.raises(RuntimeError, match="renderer broke"):
        run_suite(ReadTheImage(swallow), small_suite(6))


def tokens(v_x_bin: int, terminate: bool = False) -> ActionTokens:
    """Mid-range bins everywhere but v_x; a v_x bin outside the space is kept."""
    lo = SPACE.token_offset
    return ActionTokens((lo + v_x_bin,) + (lo + 128,) * 10 + (lo + int(terminate),))


class Scripted:
    """Emits ``script[i]`` on tick i of every episode, and the script's last
    vector once it runs out."""

    def __init__(self, script):
        self.script = script

    def bind(self, sim):
        self.tick = 0

    def act(self, obs, instruction):
        self.tick += 1
        return self.script[min(self.tick, len(self.script)) - 1]


@pytest.fixture
def decodes(monkeypatch):
    """The token vectors ``harness.detokenize`` is called with."""
    calls = []

    def counted(tokens, space):
        calls.append(tokens)
        return detokenize(tokens, space)

    monkeypatch.setattr(harness, "detokenize", counted)
    return calls


def test_a_repeated_token_vector_is_decoded_once_per_change(decodes, monkeypatch):
    slow, faster, stop = tokens(128), tokens(140), tokens(128, terminate=True)
    script = [slow, slow, slow, faster, faster, slow, slow, stop]
    stepped = []
    step = Simulator.step

    def recorded(sim, cmd):
        stepped.append(cmd)
        return step(sim, cmd)

    monkeypatch.setattr(Simulator, "step", recorded)
    report = run_suite(Scripted(script), build_suite("one", {"go_to": 1}, 0))
    assert report.overall.buckets["wrong_target"] == 1
    assert decodes == [slow, faster, slow, stop]
    # Every tick still steps its own tokens' command.
    assert stepped == [detokenize(t, SPACE) for t in script[:-1]]


@pytest.mark.parametrize("script,decoded", [
    ([tokens(SPACE.bin_count)], [tokens(SPACE.bin_count)]),
    ([tokens(128), tokens(128), tokens(SPACE.bin_count)],
     [tokens(128), tokens(SPACE.bin_count)]),
    ([tokens(128), tokens(-1), tokens(-1)], [tokens(128), tokens(-1)]),
], ids=["first-tick", "after-a-repeat", "then-repeated"])
def test_out_of_range_tokens_are_malformed_on_any_tick(decodes, script, decoded):
    report = run_suite(Scripted(script), small_suite(6))
    assert report.overall.buckets["malformed"] == report.overall.budget
    assert decodes == decoded * report.overall.budget


def test_the_decode_memo_never_carries_over_to_the_next_entry(decodes):
    run = RunConfig(sim=SimConfig(max_ticks=2))
    report = run_suite(Scripted([tokens(128)]), small_suite(3), run)
    assert report.overall.buckets["timeout"] == report.overall.budget
    # Each entry decodes its first vector, though it equals the last one of
    # the entry before.
    assert decodes == [tokens(128)] * report.overall.budget


def test_report_serializations_cover_all_buckets():
    report = run_suite(OraclePolicy(), small_suite(9))
    table = report.to_table()
    csv_text = report.to_csv()
    for bucket in BUCKETS:
        assert bucket in table
        assert bucket in csv_text
    assert "overall" in csv_text
    # repeated rendering is byte-stable
    assert report.to_csv() == csv_text


def test_knn_with_k1_replays_memorized_episodes():
    spec_tasks = [
        generate_episode(e.task, e.seed) for e in small_suite(11).entries[:2]
    ]
    policy = knn_bc_policy(spec_tasks, k=1)
    # Query with the exact first observation of each training episode: the
    # nearest neighbor is that very step, so the vote is its own label.
    for ep in spec_tasks:
        out = policy.act(
            type("Obs", (), {"image": ep.steps[0].image})(), ep.instruction
        )
        assert out.tokens == ep.steps[0].tokens


def test_knn_rejects_bad_k_and_empty_training():
    ep = generate_episode(small_suite(12).entries[0].task,
                          small_suite(12).entries[0].seed)
    with pytest.raises(ValueError):
        knn_bc_policy([ep], k=0)
    with pytest.raises(ValueError):
        knn_bc_policy([ep], k=len(ep.steps) + 1)
    with pytest.raises(ValueError):
        knn_bc_policy([], k=1)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_knn_query_matches_a_full_sort_when_distances_tie(k):
    rng = np.random.default_rng(100 + k)
    tasks = [e.task for e in small_suite(21).entries]
    texts = [render_instruction(t).text for t in tasks]
    # 30 distinct images recorded 1-4 times each in shuffled step order:
    # duplicated rows give equal distances, so the k-th often lies in a tie,
    # and labels from 3 tokens make per-position vote ties common too.
    images = rng.integers(0, 256, (30, 48, 64, 3), dtype=np.uint8)
    image_task = rng.integers(0, len(tasks), len(images))
    rows = np.repeat(np.arange(len(images)), rng.integers(1, 5, len(images)))
    rng.shuffle(rows)
    features = np.stack([_featurize(images[i], _encode_spec(tasks[image_task[i]]))
                         for i in rows])
    labels = rng.integers(0, 3, (len(rows), 12))
    policy = KnnPolicy(features, labels, k, SPACE)
    vocab = SPACE.token_offset + SPACE.bin_count

    queries = [(images[i], image_task[i]) for i in range(len(images))]
    queries += [(rng.integers(0, 256, (48, 64, 3), dtype=np.uint8), t)
                for t in rng.integers(0, len(tasks), 20)]
    tied = 0
    for image, t in queries:
        query = _featurize(image, _encode_spec(tasks[t])).astype(np.float32)
        got = policy.act(SimpleNamespace(image=image), texts[t]).tokens
        assert got == knn_reference(features, labels, k, query, vocab)
        d2 = np.sort(policy._sq - 2.0 * (policy.features @ query) + float(query @ query))
        tied += bool(d2[k - 1] == d2[k])
    assert tied >= 5


def test_knn_rejects_labels_outside_the_vocabulary():
    features = np.zeros((2, 4))
    with pytest.raises(ValueError):
        KnnPolicy(features, np.full((2, 12), SPACE.token_offset + SPACE.bin_count), 1, SPACE)
    with pytest.raises(ValueError):
        KnnPolicy(features, np.full((2, 12), -1), 1, SPACE)


def test_knn_parses_each_episodes_instruction_once(monkeypatch):
    ep = generate_episode(small_suite(11).entries[0].task, small_suite(11).entries[0].seed)
    policy = knn_bc_policy([ep], k=1)
    parsed = []
    parse = policies.parse_instruction
    monkeypatch.setattr(policies, "parse_instruction",
                        lambda text: parsed.append(text) or parse(text))
    obs = SimpleNamespace(image=ep.steps[0].image)
    for _ in range(3):
        assert policy.act(obs, ep.instruction).tokens == ep.steps[0].tokens
    assert len(parsed) == 1
    # A failed parse is never memoised: it raises on every call.
    for _ in range(2):
        with pytest.raises(LanguageError):
            policy.act(obs, "do a backflip")
    assert policy.act(obs, ep.instruction).tokens == ep.steps[0].tokens
    policy.bind(None)  # a new episode parses again
    policy.act(obs, ep.instruction)
    assert parsed == [ep.instruction, "do a backflip", "do a backflip", ep.instruction]


@pytest.fixture
def knn(monkeypatch):
    """A kNN policy fitted on two episodes, its training episodes, and the
    images ``policies._featurize`` is called with after the fit."""
    entries = small_suite(11).entries
    eps = [generate_episode(e.task, e.seed) for e in (entries[0], entries[-1])]
    policy = knn_bc_policy(eps, k=3)
    images = []
    featurize = policies._featurize

    def counted(image, spec_features):
        images.append(image)
        return featurize(image, spec_features)

    monkeypatch.setattr(policies, "_featurize", counted)
    return policy, eps, images


def test_knn_answers_a_repeated_frame_without_searching_again(knn):
    policy, (ep, _), featurized = knn
    obs = SimpleNamespace(image=ep.steps[1].image)
    first = policy.act(obs, ep.instruction)
    again = policy.act(SimpleNamespace(image=ep.steps[1].image.copy()), ep.instruction)
    assert again == first
    assert len(featurized) == 1


def test_knn_searches_again_for_a_changed_pixel_shape_or_instruction(knn):
    policy, (ep, other), featurized = knn
    image = ep.steps[1].image
    policy.act(SimpleNamespace(image=image), ep.instruction)
    nudged = image.copy()
    nudged[20, 30, 1] ^= 1
    policy.act(SimpleNamespace(image=nudged), ep.instruction)
    policy.act(SimpleNamespace(image=nudged), other.instruction)
    reshaped = nudged.reshape(64, 48, 3)  # the same bytes, another frame
    policy.act(SimpleNamespace(image=reshaped), other.instruction)
    assert len(featurized) == 4
    assert featurized[1] is nudged and featurized[3] is reshaped


def test_knn_searches_again_after_the_caller_mutates_its_array(knn):
    policy, (ep, other), featurized = knn
    image = other.steps[0].image.copy()
    policy.act(SimpleNamespace(image=image), ep.instruction)
    image[...] = ep.steps[0].image  # same array object, new frame
    after = policy.act(SimpleNamespace(image=image), ep.instruction)
    assert len(featurized) == 2
    fresh = knn_bc_policy([ep, other], k=3).act(SimpleNamespace(image=image.copy()),
                                               ep.instruction)
    assert after == fresh


def test_knn_bind_forgets_the_previous_frame(knn):
    policy, (ep, _), featurized = knn
    obs = SimpleNamespace(image=ep.steps[0].image)
    first = policy.act(obs, ep.instruction)
    policy.bind(None)
    assert policy.act(obs, ep.instruction) == first
    assert len(featurized) == 2


class CheckedKnn:
    """Runs a kNN policy and records, per tick, whether its tokens equal the
    reference vote on the same query and whether the frame repeats the
    previous tick's. Records instead of asserting: the harness would bucket
    an assertion raised inside ``act`` as malformed."""

    def __init__(self, policy: KnnPolicy):
        self.policy = policy
        self.vocab = SPACE.token_offset + SPACE.bin_count
        self.agree: list[bool] = []
        self.repeats = 0
        self.previous = None

    def bind(self, sim):
        self.previous = None
        self.policy.bind(sim)

    def act(self, obs, instruction):
        tokens = self.policy.act(obs, instruction)
        image = obs.image
        spec = parse_instruction(instruction).spec
        query = _featurize(image, _encode_spec(spec)).astype(np.float32)
        self.agree.append(tokens.tokens == knn_reference(
            self.policy.features, self.policy.labels, self.policy.k, query, self.vocab))
        self.repeats += image.tobytes() == self.previous
        self.previous = image.tobytes()
        return tokens


def test_knn_rollout_with_repeated_frames_matches_the_reference_vote(dev_small_suite):
    train = [generate_episode(e.task, e.seed)
             for e in build_suite("train", suite_budgets()["dev_small"], seed=4).entries]
    assert checked_rollout(knn_bc_policy(train, k=5), dev_small_suite).repeats >= 1


def count_scans(policy: KnnPolicy) -> list:
    """A list that grows by one each time the policy runs the full scan."""
    scans = []
    scan = policy._scan_nearest
    policy._scan_nearest = lambda q: scans.append(q) or scan(q)
    return scans


def checked_rollout(policy: KnnPolicy, suite) -> CheckedKnn:
    checked = CheckedKnn(policy)
    report = run_suite(checked, suite)
    assert report.overall.buckets["malformed"] == 0
    assert checked.agree and all(checked.agree)
    return checked


def suite_budgets() -> dict:
    return json.loads(resources.files("quadkit.data").joinpath("suites.json").read_text())


def knn_kernel_probe() -> dict:
    """Roll dev_small and a slice of seen_full with a kNN policy checked
    against ``knn_reference`` on every tick; how often each search ran."""
    budgets = suite_budgets()
    train = [generate_episode(e.task, e.seed)
             for e in build_suite("train", budgets["dev_small"], seed=4).entries]
    policy = knn_bc_policy(train, k=5)
    searches = []
    search = policy._certified_nearest
    policy._certified_nearest = lambda q: searches.append(q) or search(q)
    scans = count_scans(policy)
    seen_full = build_suite("seen_full", budgets["seen_full"], seed=3)
    ticks = 0
    for suite in (build_suite("dev_small", budgets["dev_small"], seed=3),
                  EvalSuite("seen_full", seen_full.split, seen_full.entries[::50])):
        ticks += len(checked_rollout(policy, suite).agree)
    return {"ticks": ticks, "certified": len(searches) - len(scans), "scanned": len(scans)}


@pytest.mark.skipif(not uses_openblas(), reason="numpy does not use OpenBLAS")
def test_knn_answers_do_not_depend_on_the_blas_kernel():
    # Every tick equals the reference vote under the same kernel, so the
    # certified search answers as the kernel's full scan would.
    probe = "import json, test_eval; print(json.dumps(test_eval.knn_kernel_probe()))"
    runs = run_under_each_kernel(probe, (None, "Sandybridge", "Prescott", "Haswell"))
    for coretype, out in runs.items():
        counts = json.loads(out)
        assert counts["ticks"] > 0, coretype
        assert counts["certified"] > 0 and counts["scanned"] > 0, (coretype, counts)


@pytest.fixture(scope="module")
def dev_small_suite():
    return build_suite("dev_small", suite_budgets()["dev_small"], seed=3)


@pytest.mark.parametrize("k", ["1", "5", "more than any group"])
def test_knn_certified_search_matches_the_reference_vote(train_store, dev_small_suite, k):
    k = int(k) if k.isdigit() else int(knn_bc_policy(train_store, k=1)._group_sizes.max()) + 1
    policy = knn_bc_policy(train_store, k=k)
    scans = count_scans(policy)
    checked = checked_rollout(policy, dev_small_suite)
    assert len(scans) < len(checked.agree) - checked.repeats  # the certified path answered


def test_knn_certified_search_matches_the_reference_on_unseen_specs(train_store,
                                                                    dev_small_suite):
    policy = knn_bc_policy(train_store, k=5)
    suite = make_unseen_suites(dev_small_suite)["unseen_object"]
    trained = {spec.tobytes() for spec in policy._group_specs}
    queried = {_encode_spec(e.task).astype(np.float32).tobytes() for e in suite.entries}
    assert queried - trained  # some query specs are absent from training
    checked_rollout(policy, suite)


def test_knn_search_breaks_exact_ties_across_groups_by_training_order():
    text = render_instruction(small_suite(21).entries[0].task).text
    spec = parse_instruction(text).spec
    # Two training specs, each one field away from the query's: equal spec
    # distances. Each image is recorded once in each group, so every row
    # ties with one in the other group.
    others = [replace(spec, speed=s) for s in SpeedLevel if s != spec.speed]
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, (3, 48, 64, 3), dtype=np.uint8)
    features = np.stack([_featurize(image, _encode_spec(other))
                         for image in images for other in others])
    labels = rng.integers(0, 3, (len(features), 12))
    vocab = SPACE.token_offset + SPACE.bin_count
    for k in range(1, 5):
        policy = KnnPolicy(features, labels, k, SPACE)
        for image in images:
            query = _featurize(image, _encode_spec(spec)).astype(np.float32)
            assert (policy.act(SimpleNamespace(image=image), text).tokens
                    == knn_reference(features, labels, k, query, vocab))


def test_knn_rows_one_ulp_apart_take_the_full_scan():
    text = render_instruction(small_suite(21).entries[0].task).text
    image = np.random.default_rng(6).integers(0, 256, (48, 64, 3), dtype=np.uint8)
    row = _featurize(image, _encode_spec(parse_instruction(text).spec)).astype(np.float32)
    nudged = row.copy()
    nudged[7] = np.nextafter(nudged[7], np.float32(2.0))  # one ulp in one pooled cell
    features = np.stack([nudged, row, nudged, row])
    labels = np.arange(4)[:, None].repeat(12, axis=1)
    vocab = SPACE.token_offset + SPACE.bin_count
    for k in (1, 3):
        policy = KnnPolicy(features, labels, k, SPACE)
        scans = count_scans(policy)
        assert (policy.act(SimpleNamespace(image=image), text).tokens
                == knn_reference(features, labels, k, row, vocab))
        assert len(scans) == 1


@pytest.mark.parametrize("shape", [(48, 64, 3), (50, 67, 3), (6, 8, 3), (13, 23, 3)])
def test_pool_image_equals_block_means_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    for _ in range(20):
        image = rng.integers(0, 256, shape, dtype=np.uint8)
        assert _pool_image(image).tobytes() == block_mean_pool(image).tobytes()


TRAIN_BUDGETS = {"go_to": 30, "go_avoid": 30, "distinguish": 20, "go_through": 10,
                 "crawl": 5, "unload": 5}


def store_of(root, budgets, run: RunConfig | None = None) -> EpisodeStore:
    """A store of one shard of expert episodes for a ``build_suite`` draw."""
    store = EpisodeStore.create(root, SPACE)
    store.write_shard("train", [generate_episode(e.task, e.seed, run)
                                for e in build_suite("train", budgets, seed=4).entries])
    return EpisodeStore.open(root)


@pytest.fixture(scope="module")
def train_store(tmp_path_factory):
    """About 900 steps: the store's loader hands a repeated frame out as one array."""
    return store_of(tmp_path_factory.mktemp("knn") / "store", TRAIN_BUDGETS)


def assert_fit_equals_reference(policy: KnnPolicy, episodes) -> None:
    features, sq, labels = knn_fit_reference(episodes)
    for got, want in ((policy.features, features), (policy._sq, sq), (policy.labels, labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def shared_frames(episodes) -> tuple[int, int]:
    """(consecutive steps holding one array, consecutive steps with equal bytes)."""
    pairs = [(a.image, b.image) for ep in episodes for a, b in zip(ep.steps, ep.steps[1:])]
    return (sum(a is b for a, b in pairs),
            sum(a.tobytes() == b.tobytes() for a, b in pairs))


def test_knn_fit_on_a_store_equals_the_per_step_reference(train_store):
    assert shared_frames(train_store.iter_episodes())[0] > 0
    assert_fit_equals_reference(knn_bc_policy(train_store, k=5), train_store.iter_episodes())


def test_knn_fit_on_equal_frames_in_distinct_arrays_equals_the_per_step_reference(train_store):
    episodes = [replace(ep, steps=[replace(s, image=s.image.copy()) for s in ep.steps])
                for ep in train_store.iter_episodes()]
    shared, equal = shared_frames(episodes)
    assert shared == 0 and equal > 0
    assert_fit_equals_reference(knn_bc_policy(episodes, k=5), episodes)


def test_knn_fit_on_a_50x67_camera_equals_the_per_step_reference(tmp_path):
    # 50 and 67 leave remainders that the 6x8 pool grid crops.
    run = RunConfig(sim=replace(SimConfig(), camera=CameraConfig(width=67, height=50)))
    store = store_of(tmp_path / "store", SMALL_BUDGETS, run)
    assert next(store.iter_episodes()).steps[0].image.shape == (50, 67, 3)
    assert_fit_equals_reference(knn_bc_policy(store, k=1), store.iter_episodes())


def test_knn_fit_peak_memory_stays_near_one_feature_matrix(train_store):
    # The fit holds the per-episode blocks and their concatenation, never a
    # per-step list of float64 rows, a second float32 copy or a whole-matrix
    # temporary of squares (together about six times the matrix).
    tracemalloc.start()
    try:
        policy = knn_bc_policy(train_store, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * policy.features.nbytes + 2**20


def test_unseen_suites_preserve_budgets_and_drop_seen_colors():
    base = build_suite("seen_full",
                       {"go_to": 12, "go_avoid": 8, "distinguish": 4}, seed=21)
    derived = make_unseen_suites(base)
    obj_suite = derived["unseen_object"]
    verbal_suite = derived["unseen_verbal"]

    assert obj_suite.budgets() == base.budgets()
    assert verbal_suite.budgets() == base.budgets()
    assert obj_suite.split is Split.UNSEEN_OBJECT
    assert verbal_suite.split is Split.UNSEEN_VERBAL

    for entry in obj_suite.entries:
        color = entry.task.obj.color
        assert color is None or color not in SEEN_COLORS
    # Verbal suite keeps the seen objects, only the template changes.
    for base_entry, verbal_entry in zip(base.entries, verbal_suite.entries):
        assert verbal_entry.task.obj == base_entry.task.obj
        assert verbal_entry.seed == base_entry.seed
        assert verbal_entry.template_id is not None


def test_scaling_experiment_reports_one_row_per_regime():
    entries = small_suite(14).entries[:1]
    train = [generate_episode(entries[0].task, entries[0].seed)]
    suite = build_suite("tiny", {"go_to": 1}, seed=14)
    result = scaling_experiment(
        lambda eps: knn_bc_policy(eps, k=1),
        [("1:0", MixPolicy(1, 0)), ("1:0b", MixPolicy(1, 0))],
        train, [], suite,
    )
    assert [label for label, _ in result.rows] == ["1:0", "1:0b"]
    table = result.to_table()
    assert "regime" in table and "1:0b" in table


def test_scaling_experiment_with_no_regimes_renders_placeholder():
    suite = build_suite("tiny", {"go_to": 1}, seed=15)
    result = scaling_experiment(lambda eps: OraclePolicy(), [], [], [], suite)
    assert result.to_table() == "(no regimes)\n"

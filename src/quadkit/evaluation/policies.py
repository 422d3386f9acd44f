"""Evaluation policies: scripted oracle, uniform random, and a trajectory
nearest-neighbor imitator.

Policies consume an observation (:class:`Frame`) plus instruction text and
emit action tokens. The harness renders a frame's ``image`` when a policy
first reads it, so a policy that never reads it costs no render.
The harness calls ``bind(sim)`` on every policy before each episode; only the
oracle reads the live simulator there (it is the privileged reference, not a
learned model), and the other policies ignore it. The nearest-neighbor
policy is an intentionally simple behavior-cloning stand-in: it featurizes
the pooled image and the parsed instruction, finds the k closest recorded
steps, and takes a per-position majority vote over their token vectors.

Its answer is fixed by this contract, whatever the selection algorithm: the
neighbours are the k smallest float32 squared distances, ties broken by
training-step order (the first k of a stable sort), and a per-position vote
tie goes to the smaller token. The query keeps it in O(n): a partition finds
the k-th distance, and only the candidates at or below it are sorted.
The answer is a function of the frame and the instruction alone, and the
robot often moves less than a pixel between ticks, so a frame that repeats
the previous tick's bytes and instruction within an episode is answered
with that tick's tokens, without a second search. The neighbour contract is
unchanged.

The fit writes each episode's rows straight into one float32 block, pooling
a frame once for each run of consecutive steps that hold the same array (the
store's loader hands a repeated frame out as one array), and the policy keeps
the concatenated matrix without a second copy. Its rows are each step's
float64 features cast to float32, as a per-step fit would give them.

The distance's ``features @ q`` and ``q @ q`` are the only BLAS calls in
the package (frames are projected in plain floats). Their float32 rounding
depends on the kernel OpenBLAS picks for the CPU, so near-tied neighbours,
and with them the kNN report bytes, can differ between machines.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from ..actions import (
    ActionCommand,
    ActionSpaceSpec,
    ActionTokens,
    clamp_to_space,
    default_action_space,
    tokenize,
)
from ..config import RunConfig
from ..language import CATEGORY_VOCAB, parse_instruction
from ..store.episodes import Episode, EpisodeStore
from ..taxonomy import Color, GaitName, Skill, SpeedLevel, TaskSpec, LETTERS
from ..world.sim import Simulator
from .. import expert
from ..expert.collect import expert_tracker


class Frame(Protocol):
    """An observation: any object whose ``image`` is the tick's read-only
    (H, W, 3) uint8 camera frame, such as the harness's lazily rendered one."""

    @property
    def image(self) -> np.ndarray: ...


@runtime_checkable
class Policy(Protocol):
    def bind(self, sim: Simulator) -> None: ...

    def act(self, obs: Frame, instruction: str) -> ActionTokens: ...


class OraclePolicy:
    """Privileged scripted controller; the upper reference line in reports."""

    def __init__(self, run: RunConfig | None = None,
                 space: ActionSpaceSpec | None = None):
        self.run = run or RunConfig()
        self.space = space or default_action_space()
        self._sim: Simulator | None = None
        self._tracker: expert.PathTracker | None = None

    def bind(self, sim: Simulator) -> None:
        """Attach the live episode and plan its path."""
        self._sim = sim
        try:
            self._tracker = expert_tracker(sim.scene, self.run)
        except expert.NoPathError:
            self._tracker = None

    def act(self, obs: Frame, instruction: str) -> ActionTokens:
        if self._sim is None:
            raise RuntimeError("oracle must be bound to a simulator first")
        if self._tracker is None:
            # No feasible plan: stand still and give up via terminate.
            return tokenize(clamp_to_space(ActionCommand(terminate=True), self.space),
                            self.space)
        cmd = self._tracker.command(self._sim.state)
        return tokenize(clamp_to_space(cmd, self.space), self.space)


class RandomPolicy:
    """Uniform tokens over the action vocabulary; the lower reference line."""

    def __init__(self, space: ActionSpaceSpec | None = None, seed: int = 0):
        self.space = space or default_action_space()
        self._rng = np.random.default_rng(seed)

    def bind(self, sim: Simulator) -> None:
        pass

    def act(self, obs: Frame, instruction: str) -> ActionTokens:
        lo = self.space.token_offset
        bins = self._rng.integers(lo, lo + self.space.bin_count, size=11)
        term = self._rng.integers(lo, lo + 2)
        return ActionTokens(tuple(int(t) for t in bins) + (int(term),))


# -- nearest-neighbor behavior cloning -------------------------------------------

_POOL_ROWS, _POOL_COLS = 6, 8
_SPEC_WEIGHT = 4.0  # instruction features dominate neighbor choice
_POOL_WIDTH = _POOL_ROWS * _POOL_COLS * 3  # one mean per block and channel
_SQ_CHUNK_ROWS = 256  # rows squared at a time when a policy is built


def _pool_image(image: np.ndarray) -> np.ndarray:
    """Per-channel block means of a 6x8 grid over ``image``, scaled to [0, 1].

    The uint8 block sums are exact integers, so dividing them by the block
    size gives the same float64 values as ``np.mean`` over each block.
    """
    h, w, _ = image.shape
    rh, rw = h // _POOL_ROWS, w // _POOL_COLS
    cropped = image[: rh * _POOL_ROWS, : rw * _POOL_COLS]
    rows = cropped.reshape(_POOL_ROWS, rh, -1).sum(axis=1)
    sums = rows.reshape(_POOL_ROWS, _POOL_COLS, rw, 3).sum(axis=2)
    return (sums / (rh * rw)).reshape(-1) / 255.0


def _one_hot(options: tuple, value) -> np.ndarray:
    vec = np.zeros(len(options) + 1)
    vec[options.index(value) if value in options else len(options)] = 1.0
    return vec


def _encode_spec(spec: TaskSpec) -> np.ndarray:
    return _SPEC_WEIGHT * np.concatenate([
        _one_hot(tuple(Skill), spec.skill),
        _one_hot(tuple(SpeedLevel), spec.speed),
        _one_hot(tuple(GaitName), spec.gait),
        _one_hot(tuple(Color), spec.obj.color),
        _one_hot(tuple(CATEGORY_VOCAB) + ("letter",), spec.obj.category),
        _one_hot(LETTERS, spec.obj.letter),
    ])


def _featurize(image: np.ndarray, spec_features: np.ndarray) -> np.ndarray:
    """One step's features: the pooled image, then ``_encode_spec`` of its task."""
    return np.concatenate([_pool_image(image), spec_features])


class KnnPolicy:
    """Vote the next tokens from the k nearest recorded steps."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, k: int,
                 space: ActionSpaceSpec):
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must align")
        if not 1 <= k <= features.shape[0]:
            raise ValueError(
                f"k must be in [1, {features.shape[0]}] for this training set, got {k}"
            )
        self._vocab = space.token_offset + space.bin_count
        if labels.ndim != 2 or labels.min() < 0 or labels.max() >= self._vocab:
            raise ValueError(f"labels must be token rows in [0, {self._vocab})")
        # A C-contiguous float32 matrix is kept as given, without a copy.
        self.features = np.ascontiguousarray(features, dtype=np.float32)
        self.labels = labels.astype(np.int64)
        self.k = k
        self.space = space
        # Each row's float32 sum of squares, a chunk of rows at a time, so no
        # whole-matrix temporary is made; a row's sum does not depend on the chunk.
        n = self.features.shape[0]
        self._sq = np.empty(n, dtype=np.float32)
        for start in range(0, n, _SQ_CHUNK_ROWS):
            rows = self.features[start:start + _SQ_CHUNK_ROWS]
            np.square(rows).sum(axis=1, out=self._sq[start:start + _SQ_CHUNK_ROWS])
        # Position j votes in bins [j * vocab, (j + 1) * vocab) of one bincount.
        self._vote_offsets = np.arange(labels.shape[1]) * self._vocab
        self._spec_memo: tuple[str, np.ndarray] | None = None
        self._last: tuple[tuple, ActionTokens] | None = None

    def bind(self, sim: Simulator) -> None:
        self._spec_memo = None
        self._last = None

    def _spec_features(self, instruction: str) -> np.ndarray:
        # The instruction is constant within an episode, so parse it once. A
        # failed parse raises on every call and is never memoised.
        if self._spec_memo is None or self._spec_memo[0] != instruction:
            spec = parse_instruction(instruction).spec
            self._spec_memo = (instruction, _encode_spec(spec))
        return self._spec_memo[1]

    def act(self, obs: Frame, instruction: str) -> ActionTokens:
        image = obs.image
        # A byte copy, so a caller that mutates its array in place misses.
        key = (instruction, image.shape, image.dtype.str, image.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        q = _featurize(image, self._spec_features(instruction)).astype(np.float32)
        # self._sq - 2.0 * (features @ q) + q @ q, in the same order, in place.
        d2 = self.features @ q
        d2 *= 2.0
        np.subtract(self._sq, d2, out=d2)
        d2 += float(q @ q)
        kth = np.partition(d2, self.k - 1)[self.k - 1]
        cand = np.flatnonzero(d2 <= kth)
        nearest = cand[np.argsort(d2[cand], kind="stable")[: self.k]]
        votes = (self.labels[nearest] + self._vote_offsets).ravel()
        counts = np.bincount(votes, minlength=self._vote_offsets.size * self._vocab)
        tokens = ActionTokens(tuple(counts.reshape(-1, self._vocab).argmax(axis=1).tolist()))
        self._last = (key, tokens)
        return tokens


def knn_bc_policy(train: Iterable[Episode] | EpisodeStore, k: int = 5,
                  space: ActionSpaceSpec | None = None) -> KnnPolicy:
    """Fit the nearest-neighbor imitator on recorded episodes, one float32
    block per episode (see the module docstring)."""
    space = space or default_action_space()
    if isinstance(train, EpisodeStore):
        space = train.action_space
        train = train.iter_episodes()
    blocks, labels = [], []
    for ep in train:
        spec_features = _encode_spec(ep.task)
        block = np.empty((len(ep.steps), _POOL_WIDTH + spec_features.size), dtype=np.float32)
        block[:, _POOL_WIDTH:] = spec_features
        image = None
        for row, step in zip(block, ep.steps):
            if step.image is not image:
                image = step.image
                pooled = _pool_image(image)
            row[:_POOL_WIDTH] = pooled
            labels.append(step.tokens)
        blocks.append(block)
    if not labels:
        raise ValueError("training set has no steps")
    features = np.concatenate(blocks)
    del blocks  # free the per-episode blocks before the policy is built
    return KnnPolicy(features, np.asarray(labels), k, space)

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

Its answer is fixed by this contract, whatever the search: the neighbours
are the k smallest float32 squared distances ``fl(fl(sq - 2 * dot) + q.q)``,
where ``dot`` is the float32 ``features @ q`` of the BLAS kernel in use, ties
broken by training-step order (the first k of a stable sort), and a
per-position vote tie goes to the smaller token. The answer is a function of
the frame and the instruction alone, and the robot often moves less than a
pixel between ticks, so a frame that repeats the previous tick's bytes and
instruction within an episode is answered with that tick's tokens, without a
second search.

The search reads only the rows near the query's instruction. Rows are
grouped by the bytes of their spec columns, and a query visits the groups in
order of their float64 spec distance to its own spec, ties by first row (the
order is kept per instruction). For a visited row it computes ``S = f . q``
in float64, where each product of float32 values is exact, and from it an
interval that holds ``sq - 2 * dot`` for any kernel: a float32 dot product of
m non-zero, non-negative terms lies within ``gamma_m * S`` of the exact sum
(Higham, Accuracy and Stability of Numerical Algorithms, 3.1). A row is at
least its spec distance from the query, so the search stops before the first
group whose bound, that distance less ``q.q`` and the rounding terms, exceeds
the k-th smallest upper bound. The answer is certified when exactly k rows
have a lower bound at or below that upper bound and the gap to every other
bound is wider than the two float32 roundings that turn ``sq - 2 * dot`` into
the distance, which rises with it: those k rows are then the kernel's own
neighbours. Otherwise (a near tie, or a matrix or query with negative or
non-finite entries) the full float32 product and selection run: a partition
finds the k-th distance, and only the candidates at or below it are sorted.

The fit writes each episode's rows straight into one float32 block, pooling
a frame once for each run of consecutive steps that hold the same array (the
store's loader hands a repeated frame out as one array), and the policy keeps
the concatenated matrix without a second copy. Its rows are each step's
float64 features cast to float32, as a per-step fit would give them.

The full scan's ``features @ q``, ``q @ q`` and the search's float64
products are the only BLAS calls in the package (frames are projected in
plain floats). The scan's float32 rounding depends on the kernel OpenBLAS
picks for the CPU, so near-tied neighbours, and with them the kNN report
bytes, can differ between machines; the certified search gives each kernel
its own scan's answer.
"""

from __future__ import annotations

import itertools
import math
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
_DOT_CHUNK_ROWS = 64  # rows cast to float64 at a time by the certified search
_U32 = 2.0 ** -24  # float32 unit roundoff
_SLACK = 2.0 ** -40  # relative room for the float64 roundings of the bounds
_TINY = 2.0 ** -100  # absolute room for float32 underflow
_CERTIFIED_MAX = 2.0 ** 60  # no float32 overflow below this ||f||^2 and ||q||^2


def _pool_image(image: np.ndarray) -> np.ndarray:
    """Per-channel block means of a 6x8 grid over ``image``, scaled to [0, 1].

    The uint8 block sums are exact integers, so dividing them by the block
    size gives the same float64 values as ``np.mean`` over each block.
    """
    h, w, _ = image.shape
    rh, rw = h // _POOL_ROWS, w // _POOL_COLS
    cropped = image[: rh * _POOL_ROWS, : rw * _POOL_COLS]
    rows = cropped.reshape(_POOL_ROWS, rh, -1).sum(axis=1)
    # Each block's columns in one reduceat: a sum over a strided middle axis
    # costs twice as much.
    sums = np.add.reduceat(rows.reshape(_POOL_ROWS, -1, 3), np.arange(0, _POOL_COLS * rw, rw),
                           axis=1)
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


def _spec_groups(features: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The rows of a C-contiguous float32 matrix grouped by the bytes of
    their spec columns: ``(rows, starts, specs)``.

    Group g is ``rows[starts[g]:starts[g + 1]]``, ascending, with spec
    columns ``specs[g]``; groups go in order of first row, and ``starts`` is
    a list. A view of the spec bytes, one item per row, finds the runs of
    equal rows (an episode's) without copying the matrix.
    """
    n, width = features.shape
    at = min(_POOL_WIDTH, width)
    keys = np.ndarray((n,), np.dtype((np.void, 4 * (width - at))), buffer=features,
                      offset=4 * at, strides=(4 * width,))
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), n]
    groups: dict[bytes, list[range]] = {}
    for start, end in zip(bounds, bounds[1:]):
        groups.setdefault(keys[start].tobytes(), []).append(range(start, end))
    rows = np.fromiter((i for runs in groups.values() for run in runs for i in run),
                       np.intp, n)
    starts = [0, *itertools.accumulate(sum(map(len, runs)) for runs in groups.values())]
    return rows, starts, features[rows[starts[:-1]], at:]


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
        n, width = self.features.shape
        self._sq = np.empty(n, dtype=np.float32)
        for start in range(0, n, _SQ_CHUNK_ROWS):
            rows = self.features[start:start + _SQ_CHUNK_ROWS]
            np.square(rows).sum(axis=1, out=self._sq[start:start + _SQ_CHUNK_ROWS])
        # Position j votes in bins [j * vocab, (j + 1) * vocab) of one bincount.
        self._vote_offsets = np.arange(labels.shape[1]) * self._vocab
        self._spec_memo: tuple[str, np.ndarray] | None = None
        self._visit_memo: tuple[bytes, tuple] | None = None
        self._reach = 0  # spec groups the last search needed
        self._last: tuple[tuple, ActionTokens] | None = None
        # The certified search (module docstring).
        self._group_rows, self._group_starts, self._group_specs = _spec_groups(self.features)
        self._group_sizes = np.diff(self._group_starts)
        # gamma_n of the float32 sq, and the largest ||f||^2 of any row.
        gamma = width * _U32 / (1.0 - width * _U32)
        self._sq_gamma = gamma * (1.0 + 2.0 ** -20)
        self._f_max = float(self._sq.max()) * (1.0 + 2.0 * gamma)
        self._certified = (width * _U32 < 0.5 and self._f_max < _CERTIFIED_MAX
                           and float(self.features.min()) >= 0.0)
        # Absolute room for the roundings of the search's sq terms.
        self._pad = 2.0 ** -23 * self._f_max + _TINY

    def bind(self, sim: Simulator) -> None:
        self._spec_memo = None
        self._visit_memo = None
        self._reach = 0
        self._last = None

    def _spec_features(self, instruction: str) -> np.ndarray:
        # The instruction is constant within an episode, so parse it once. A
        # failed parse raises on every call and is never memoised.
        if self._spec_memo is None or self._spec_memo[0] != instruction:
            spec = parse_instruction(instruction).spec
            self._spec_memo = (instruction, _encode_spec(spec))
        return self._spec_memo[1]

    def _visit_order(self, spec: np.ndarray) -> tuple[list[int], np.ndarray, int]:
        """``(order, low, first)`` for a query's float32 spec columns,
        memoised per spec (it changes with the instruction).

        ``order`` lists the groups by ascending float64 spec distance, ties
        by first row, ``low[i]`` is the spec distance of group ``order[i]``
        rounded down, and the first ``first`` groups hold at least k rows.
        """
        key = spec.tobytes()
        if self._visit_memo is None or self._visit_memo[0] != key:
            diff = self._group_specs - spec.astype(np.float64)
            dist = np.square(diff, out=diff).sum(axis=1)
            order = np.argsort(dist, kind="stable")
            first = int(np.cumsum(self._group_sizes[order]).searchsorted(self.k)) + 1
            self._visit_memo = (key, (order.tolist(), dist[order] * (1.0 - _SLACK), first))
            self._reach = 0
        return self._visit_memo[1]

    def _rows_of(self, groups: list[int]) -> np.ndarray:
        rows, starts = self._group_rows, self._group_starts
        if len(groups) == 1:
            return rows[starts[groups[0]]:starts[groups[0] + 1]]
        return np.concatenate([rows[starts[g]:starts[g + 1]] for g in groups])

    def _estimates(self, rows: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, float]:
        """``sq - 2 * S`` of ``rows`` in float64, and the largest ``S``, for
        ``q2 = 2 * q`` in float64 (exact, as is ``2 * S``).

        ``S = sum f_j q_j`` is computed in float64, where each product of
        float32 values is exact. Any float32 ``dot`` is within
        ``gamma_m * sum |f_j q_j| = gamma_m * S`` of the exact sum, for m
        non-zero terms that are all positive (Higham, Accuracy and Stability
        of Numerical Algorithms, 3.1, in any summation order, with or without
        FMA; a zero term adds no rounding).
        """
        if rows.size <= _DOT_CHUNK_ROWS:
            s2 = self.features.take(rows, axis=0).astype(np.float64) @ q2
        else:  # a chunk of rows at a time, so no large float64 temporary is made
            s2 = np.concatenate([self.features.take(rows[at:at + _DOT_CHUNK_ROWS], axis=0)
                                 .astype(np.float64) @ q2
                                 for at in range(0, rows.size, _DOT_CHUNK_ROWS)])
        return self._sq.take(rows) - s2, 0.5 * float(s2.max())

    def _certified_nearest(self, q: np.ndarray) -> np.ndarray | None:
        """The k nearest rows from a search over the nearest spec groups, or
        None when the bounds cannot prove them the full scan's answer."""
        k = self.k
        qq = float(q @ q)
        if not (self._certified and 0.0 <= qq < _CERTIFIED_MAX
                and np.count_nonzero(q >= 0.0) == q.size):
            return None
        order, low, first = self._visit_order(q[_POOL_WIDTH:])
        # gamma_m of m non-zero products, widened to cover the float64 S
        # (whose own gamma_m is 2^-29 of this). Then ||q||^2 <= qq_up.
        m = int(np.count_nonzero(q))
        gamma = m * _U32 / (1.0 - m * _U32) * (1.0 + 2.0 ** -20)
        qq_up = qq * (1.0 + 2.0 * gamma)
        # A row of group g has sq - 2 * dot >= low[g] - margin: its distance
        # to q is at least the spec distance, less q.q, the rounding of its
        # sq and gamma_m * |f| * |q| (Cauchy-Schwarz) of its dot.
        f_max = self._f_max
        margin = (qq_up + self._sq_gamma * f_max + 2.0 * gamma * math.sqrt(f_max * qq_up)) \
            * (1.0 + _SLACK)
        # Each visited row's sq - 2 * dot is within `half` of its float32
        # estimate e: 2 * gamma_m * S for the largest S, plus 2^-22 * S and
        # the pad for the float64 roundings and the rounding of e to float32.
        slope = 2.0 * gamma + 2.0 ** -22
        q2 = np.multiply(q, 2.0, dtype=np.float64)
        # Start with as many groups as the previous search in this episode
        # needed: the frames of consecutive ticks are alike.
        visited = max(first, self._reach)
        rows = self._rows_of(order[:visited])
        e, s_max = self._estimates(rows, q2)
        e = e.astype(np.float32)
        half = slope * s_max + self._pad
        part = np.partition(e, k - 1)
        kth = float(part[k - 1]) + half
        # Visit every group whose bound does not exceed the k-th upper bound.
        needed = max(first, int(low.searchsorted(kth + margin, side="right")))
        if needed > visited:
            more = self._rows_of(order[visited:needed])
            more_e, more_max = self._estimates(more, q2)
            rows = np.concatenate([rows, more])
            e = np.concatenate([e, more_e.astype(np.float32)])
            half = slope * max(s_max, more_max) + self._pad
            part = np.partition(e, k - 1)
            kth = float(part[k - 1]) + half
            visited = needed
        self._reach = needed
        # The k smallest estimates are the answer if the next one's lower
        # bound, and that of the first group not visited, lie above the k-th
        # upper bound.
        bound = math.inf
        if rows.size > k:
            part[k:].partition(0)
            bound = float(part[k]) - half
        if visited < low.size:
            bound = min(bound, float(low[visited]) - margin)
        # The float32 d2 = fl(fl(sq - 2 * dot) + q.q) rises with sq - 2 * dot,
        # and each rounding moves it by at most u * |value|: a gap wider
        # than both keeps every answer row strictly nearer than the rest.
        if bound != math.inf and not bound - kth > _TINY + _U32 * (1.0 + 2.0 ** -10) * (
                2.0 * abs(kth) + 2.0 * abs(bound) + 2.0 * qq_up):
            return None
        return rows[np.flatnonzero(e <= part[k - 1])]

    def _scan_nearest(self, q: np.ndarray) -> np.ndarray:
        """The contract's answer over the whole matrix, as the float32 BLAS
        kernel rounds it."""
        # self._sq - 2.0 * (features @ q) + q @ q, in the same order, in place.
        d2 = self.features @ q
        d2 *= 2.0
        np.subtract(self._sq, d2, out=d2)
        d2 += float(q @ q)
        kth = np.partition(d2, self.k - 1)[self.k - 1]
        cand = np.flatnonzero(d2 <= kth)
        return cand[np.argsort(d2[cand], kind="stable")[: self.k]]

    def act(self, obs: Frame, instruction: str) -> ActionTokens:
        image = obs.image
        # A byte copy, so a caller that mutates its array in place misses.
        key = (instruction, image.shape, image.dtype.str, image.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        q = _featurize(image, self._spec_features(instruction)).astype(np.float32)
        nearest = self._certified_nearest(q)
        if nearest is None:
            nearest = self._scan_nearest(q)
        votes = (self.labels[nearest] + self._vote_offsets).ravel()
        counts = np.bincount(votes, minlength=self._vote_offsets.size * self._vocab)
        tokens = ActionTokens(tuple(counts.reshape(-1, self._vocab).argmax(axis=1).tolist()))
        self._last = (key, tokens)
        return tokens


def _episode_rows(ep: Episode) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty episode's float32 feature block and its int64 token rows.

    A frame is pooled once for each run of consecutive steps that hold the
    same array (the store's loader hands a repeated frame out as one array).
    """
    spec_features = _encode_spec(ep.task)
    block = np.empty((len(ep.steps), _POOL_WIDTH + spec_features.size), dtype=np.float32)
    block[:, _POOL_WIDTH:] = spec_features
    image = None
    for row, step in zip(block, ep.steps):
        if step.image is not image:
            image = step.image
            pooled = _pool_image(image)
        row[:_POOL_WIDTH] = pooled
    return block, np.array([step.tokens for step in ep.steps], dtype=np.int64)


def knn_bc_policy(train: Iterable[Episode] | EpisodeStore, k: int = 5,
                  space: ActionSpaceSpec | None = None) -> KnnPolicy:
    """Fit the nearest-neighbor imitator on recorded episodes, one float32
    block per episode (see the module docstring)."""
    space = space or default_action_space()
    if isinstance(train, EpisodeStore):
        space = train.action_space
        train = train.iter_episodes()
    fitted = [_episode_rows(ep) for ep in train if ep.steps]
    if not fitted:
        raise ValueError("training set has no steps")
    features = np.concatenate([block for block, _ in fitted])
    labels = np.concatenate([tokens for _, tokens in fitted])
    del fitted  # free the per-episode blocks before the policy is built
    return KnnPolicy(features, labels, k, space)

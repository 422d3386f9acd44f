"""On-disk episode store.

Layout under a store root (see docs/format.md for the full schema):

    manifest.json            action space, rates, shard list with checksums
    shards/<name>.rec        length-prefixed JSON episode records
    obs/<aa>/<sha256>.ppm    content-addressed observation rasters

Records are canonical JSON (sorted keys, no whitespace) framed by a 4-byte
big-endian length, and observations are stored once per distinct image, so
two runs that produce the same episodes produce byte-identical stores. No
timestamps or host details are written anywhere.

Concurrent writers each own one shard file; the manifest commit is
serialized by an exclusive ``flock`` on the store root directory, which the
kernel drops when its holder exits, so a killed writer never blocks the
next commit and no lock file is left in the store.

Each shard writer forks one child that creates the observation files, so
the kernel's file-creation work overlaps the episode loop. A shard file
appears under its name only after the child has written every image it
refers to. ``EpisodeStore.fill_shard`` holds SIGINT from before that fork
until the shard is closed, and takes it only between episodes, so an
interrupt discards the shard and reaps the child.
"""

from __future__ import annotations

import fcntl
import gc
import hashlib
import json
import os
import re
import signal
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..actions import (ActionCommand, ActionSpaceSpec, ActionTokens, CodecError,
                       NUM_CONTINUOUS, detokenize)
from ..config import RateConfig
from ..taxonomy import TaskSpec
from ..world.camera import from_ppm, to_ppm

FORMAT_VERSION = 1
_LEN = struct.Struct(">I")
# A step's observation reference as it appears in a canonical record; a
# quote inside a JSON string is escaped, so only the key itself matches.
_OBS_REF = re.compile(rb'"obs":"([0-9a-f]{64})"')
_SHA = re.compile(r"[0-9a-f]{64}")
_PIPE_BYTES = 1 << 20  # the image pipe holds about a hundred 64x48 frames

OUTCOMES = ("success", "collision", "timeout", "out_of_bounds", "unplannable")
SOURCES = ("sim", "real")


class StoreError(RuntimeError):
    """Malformed store contents or misuse of the store API."""


@dataclass
class Step:
    """One recorded tick: observation, tokenized action, raw command, pose."""

    image: np.ndarray
    tokens: tuple[int, ...]
    command: ActionCommand
    pose: tuple[float, float, float]

    def __post_init__(self):
        if len(self.tokens) != NUM_CONTINUOUS + 1:
            raise StoreError(f"step tokens must have 12 entries, got {len(self.tokens)}")


@dataclass
class Episode:
    episode_id: str
    task: TaskSpec
    instruction: str
    template_id: str
    source: str
    seed: int
    outcome: str
    steps: list[Step] = field(default_factory=list)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise StoreError(f"unknown source {self.source!r}")
        if self.outcome not in OUTCOMES:
            raise StoreError(f"unknown outcome {self.outcome!r}")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ShardInfo:
    name: str
    episodes: int
    sha256: str


def episode_problems(ep: Episode, space: ActionSpaceSpec) -> list[str]:
    """The store's rules for one decoded episode, as field paths: every
    step's tokens decode under ``space``, and a successful episode carries
    the terminate token exactly once, at its last step."""
    problems = []
    for j, step in enumerate(ep.steps):
        try:
            detokenize(ActionTokens(step.tokens), space)
        except CodecError as exc:
            problems.append(f"steps[{j}].tokens: {exc}")
    stops = [j for j, step in enumerate(ep.steps) if step.tokens[-1] == space.token_offset + 1]
    if ep.outcome == "success" and stops != [len(ep.steps) - 1]:
        problems.append("outcome: a success carries the terminate token exactly once, "
                        f"at its last step; found it at steps {stops}")
    return problems


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _episode_record(ep: Episode, obs_shas: list[str]) -> dict:
    return {
        "episode_id": ep.episode_id,
        "task": ep.task.to_dict(),
        "instruction": ep.instruction,
        "template_id": ep.template_id,
        "source": ep.source,
        "seed": ep.seed,
        "outcome": ep.outcome,
        "steps": [
            {
                "obs": sha,
                "tokens": list(step.tokens),
                "command": {
                    "values": list(step.command.continuous()),
                    "terminate": step.command.terminate,
                },
                "pose": list(step.pose),
            }
            for step, sha in zip(ep.steps, obs_shas)
        ],
    }


@contextmanager
def _manifest_lock(root: Path):
    """Hold an exclusive ``flock`` on the store root directory; serializes
    manifest commits. Closing the descriptor releases the lock."""
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


class _ImageWriter:
    """A forked child that writes observation rasters under ``obs``.

    The parent sends each distinct image once, as a frame of its 64 hex
    digits, a 4-byte length and the PPM bytes; the child stores the frame
    under ``obs/<aa>/<sha256>.ppm`` unless that file exists, through a
    temporary file named with its pid and an atomic rename. At end of input
    it reports ``ok`` on a second pipe, or its first error.
    """

    def __init__(self, obs: Path):
        data_r, data_w = os.pipe()
        status_r, status_w = os.pipe()
        try:
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # keep the default pipe size
        self.pid = os.fork()
        if self.pid == 0:
            _image_writer_main(data_r, status_w, str(obs))
        os.close(data_r)
        os.close(status_w)
        self._pipe = open(data_w, "wb")
        self._status = status_r
        self._sent: set[str] = set()

    def send(self, sha: str, data: bytes) -> None:
        if sha not in self._sent:
            self._sent.add(sha)
            self._pipe.write(sha.encode() + _LEN.pack(len(data)) + data)

    def join(self) -> None:
        """End the input and reap the child; raise ``StoreError`` with the
        child's message unless it wrote every image. Later calls do nothing."""
        if self.pid is None:
            return
        try:
            self._pipe.close()
        except BrokenPipeError:
            pass  # the child stopped early; its status says why
        status = b""
        while chunk := os.read(self._status, 4096):
            status += chunk
        os.close(self._status)
        os.waitpid(self.pid, 0)
        self.pid = None
        if status != b"ok":
            reason = status.decode(errors="replace") or "exited without a status"
            raise StoreError(f"image writer failed: {reason}")


def _image_writer_main(data_fd: int, status_fd: int, obs: str) -> None:
    """The body of an :class:`_ImageWriter` child; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # finish what was sent
        gc.disable()  # no collection touches or finalizes the parent's objects
        low, high = sorted((data_fd, status_fd))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        status = b"ok"
        try:
            with open(data_fd, "rb") as frames:
                while head := frames.read(64 + _LEN.size):
                    (length,) = _LEN.unpack(head[64:])
                    data = frames.read(length)
                    if len(data) != length:  # the parent died inside a frame
                        raise StoreError("truncated image frame")
                    _store_image(obs, head[:64].decode(), data)
            code = 0
        except BaseException as exc:
            status = f"{type(exc).__name__}: {exc}".encode()[:4096]
        os.write(status_fd, status)
    finally:
        os._exit(code)


def _store_image(obs: str, sha: str, data: bytes) -> None:
    folder = os.path.join(obs, sha[:2])
    path = os.path.join(folder, f"{sha}.ppm")
    if os.path.exists(path):
        return
    # Per-process temporary name, so concurrent writers of the same image
    # cannot interleave; the rename is atomic either way.
    tmp = os.path.join(folder, f"{sha}.{os.getpid()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(folder, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    os.replace(tmp, path)


class ShardWriter:
    """Appends episodes to one shard file; one writer per shard.

    Records go to ``shards/<name>.rec.tmp``, and images to this writer's
    :class:`_ImageWriter`. :meth:`close` waits until the child has written
    every image, then renames the shard file into place; an exception exit
    reaps the child and removes the temporary shard file.
    """

    def __init__(self, store: "EpisodeStore", name: str):
        if any(s.name == name for s in store.shards):
            raise StoreError(f"shard {name!r} already committed")
        self.store = store
        self.name = name
        self.path = store._shard_path(name)
        if self.path.exists():
            raise StoreError(f"shard file {self.path} already exists")
        self._tmp = self.path.with_name(f"{self.path.name}.tmp")
        self._images = _ImageWriter(store.root / "obs")
        try:
            self._fh = open(self._tmp, "wb")
        except BaseException:
            self._images.join()
            raise
        self._hash = hashlib.sha256()
        self._count = 0

    def add(self, ep: Episode) -> None:
        try:
            shas = [self.store.put_image(step.image, self._images) for step in ep.steps]
        except BrokenPipeError:
            self._images.join()  # raises the child's own error
            raise
        payload = _canonical_json(_episode_record(ep, shas))
        framed = _LEN.pack(len(payload)) + payload
        self._fh.write(framed)
        self._hash.update(framed)
        self._count += 1

    def close(self) -> ShardInfo:
        try:
            self._fh.close()
            self._images.join()
            os.replace(self._tmp, self.path)
        except BaseException:
            self._discard()
            raise
        return ShardInfo(self.name, self._count, self._hash.hexdigest())

    def _discard(self) -> None:
        self._fh.close()
        try:
            self._images.join()
        except StoreError:
            pass  # the exception that ended the writer is the one to report
        self._tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.info = self.close()
        else:
            self._discard()


# The manifest fields that :meth:`EpisodeStore.create` writes and the fields
# of each shard entry (:class:`ShardInfo`), with their JSON types.
_ROOT_ENTRIES = {"manifest.json", "shards", "obs"}  # all that a store root holds
_MANIFEST_FIELDS = {"action_space": dict, "rates": dict, "episode_count": int, "shards": list}
_SHARD_FIELDS = {"name": str, "episodes": int, "sha256": str}
_JSON_TYPES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _read_manifest(path: Path) -> dict:
    """The manifest at ``path``; raises ``StoreError`` naming the first field
    that does not have the shape :meth:`EpisodeStore.create` writes."""
    manifest = json.loads(path.read_text())
    if type(manifest) is not dict:
        raise StoreError(f"{path}: expected an object, got {type(manifest).__name__}")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(f"unsupported store format {manifest.get('format_version')!r}")
    for key, kind in _MANIFEST_FIELDS.items():
        if type(manifest.get(key)) is not kind:
            raise StoreError(f"{path}: {key} must be {_JSON_TYPES[kind]}")
    for i, shard in enumerate(manifest["shards"]):
        if type(shard) is not dict or shard.keys() != _SHARD_FIELDS.keys():
            raise StoreError(f"{path}: shards[{i}] must hold exactly name, episodes and sha256")
        for key, kind in _SHARD_FIELDS.items():
            if type(shard[key]) is not kind:
                raise StoreError(f"{path}: shards[{i}].{key} must be {_JSON_TYPES[kind]}")
        # A shard name is joined under shards/, so it must not lead out of it.
        name = shard["name"]
        if not name or "/" in name or name.startswith("."):
            raise StoreError(f"{path}: shards[{i}].name must be a file name without '/' "
                             f"or a leading '.', got {name!r}")
    return manifest


class EpisodeStore:
    """Reader/writer for one store root."""

    def __init__(self, root: str | Path, manifest: dict):
        self.root = Path(root)
        self._manifest = manifest

    # -- lifecycle ---------------------------------------------------------------

    @staticmethod
    def create(root: str | Path, action_space: ActionSpaceSpec,
               rates: RateConfig | None = None) -> "EpisodeStore":
        root = Path(root)
        if (root / "manifest.json").exists():
            raise StoreError(f"store already exists at {root}")
        (root / "shards").mkdir(parents=True, exist_ok=True)
        (root / "obs").mkdir(parents=True, exist_ok=True)
        rates = rates or RateConfig()
        manifest = {
            "format_version": FORMAT_VERSION,
            "action_space": action_space.to_dict(),
            "rates": {"f_high": rates.f_high, "f_low": rates.f_low},
            "episode_count": 0,
            "shards": [],
        }
        store = EpisodeStore(root, manifest)
        store._write_manifest()
        return store

    @staticmethod
    def open(root: str | Path) -> "EpisodeStore":
        root = Path(root)
        path = root / "manifest.json"
        if not path.exists():
            raise StoreError(f"no manifest.json under {root}")
        return EpisodeStore(root, _read_manifest(path))

    def _write_manifest(self) -> None:
        tmp = self.root / "manifest.json.tmp"
        tmp.write_text(json.dumps(self._manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.root / "manifest.json")

    # -- properties --------------------------------------------------------------

    @property
    def action_space(self) -> ActionSpaceSpec:
        return ActionSpaceSpec.from_dict(self._manifest["action_space"])

    @property
    def rates(self) -> dict:
        """The manifest's ``{"f_high": ..., "f_low": ...}``."""
        return dict(self._manifest["rates"])

    @property
    def shards(self) -> list[ShardInfo]:
        return [ShardInfo(**s) for s in self._manifest["shards"]]

    @property
    def episode_count(self) -> int:
        return self._manifest["episode_count"]

    # -- images --------------------------------------------------------------------

    def _image_path(self, sha: str) -> Path:
        return self.root / "obs" / sha[:2] / f"{sha}.ppm"

    def put_image(self, image: np.ndarray, sink: _ImageWriter) -> str:
        """Encode ``image`` and send it to ``sink``, which writes it once; returns its sha."""
        data = to_ppm(image)
        sha = hashlib.sha256(data).hexdigest()
        sink.send(sha, data)
        return sha

    def load_image(self, sha: str) -> np.ndarray:
        # _image_path as a string, opened without a stat first: a fit reads
        # every distinct frame of the store.
        try:
            with open(f"{self.root}/obs/{sha[:2]}/{sha}.ppm", "rb") as f:
                data = f.read()
        except FileNotFoundError:
            raise StoreError(f"missing observation {sha}") from None
        return from_ppm(data)

    # -- writing -----------------------------------------------------------------

    def fill_shard(self, name: str, episodes: Iterable[Episode]) -> ShardInfo:
        """Write ``episodes`` into the new shard ``name``; commits nothing.

        SIGINT is held while the shard is open and raised as
        ``KeyboardInterrupt`` only before each episode and after the last,
        which discards the shard; a SIGINT still pending is delivered when
        the caller's signal mask is restored."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            with ShardWriter(self, name) as writer:
                for ep in episodes:
                    if signal.SIGINT in signal.sigpending():
                        raise KeyboardInterrupt
                    writer.add(ep)
                if signal.SIGINT in signal.sigpending():
                    raise KeyboardInterrupt
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return writer.info

    def write_shard(self, name: str, episodes: Iterable[Episode]) -> ShardInfo:
        info = self.fill_shard(name, episodes)
        self.commit_shards([info])
        return info

    def commit_shards(self, infos: Iterable[ShardInfo]) -> None:
        """Record finished shards in the manifest (lock-serialized)."""
        infos = list(infos)
        with _manifest_lock(self.root):
            current = _read_manifest(self.root / "manifest.json")
            names = {s["name"] for s in current["shards"]}
            for info in infos:
                if info.name in names:
                    raise StoreError(f"shard {info.name!r} already committed")
                current["shards"].append(asdict(info))
                current["episode_count"] += info.episodes
            current["shards"].sort(key=lambda s: s["name"])
            self._manifest = current
            self._write_manifest()

    # -- reading -----------------------------------------------------------------

    def _shard_path(self, name: str) -> Path:
        return self.root / "shards" / f"{name}.rec"

    def _shard_file(self, name: str) -> Path:
        path = self._shard_path(name)
        if not path.exists():
            raise StoreError(f"missing shard file {path}")
        return path

    def _iter_records(self, name: str) -> Iterator[dict]:
        with open(self._shard_file(name), "rb") as fh:
            while True:
                head = fh.read(_LEN.size)
                if not head:
                    return
                if len(head) < _LEN.size:
                    raise StoreError(f"{name}: truncated record length")
                (length,) = _LEN.unpack(head)
                payload = fh.read(length)
                if len(payload) < length:
                    raise StoreError(f"{name}: truncated record payload")
                try:
                    rec = json.loads(payload)
                except RecursionError:
                    raise StoreError(f"{name}: record nested too deeply") from None
                yield rec

    def _episode_from_record(self, rec: dict, load_image) -> Episode:
        steps = []
        for s in rec["steps"]:
            obs, tokens, pose = s["obs"], s["tokens"], s["pose"]
            if not (isinstance(obs, str) and _SHA.fullmatch(obs)):
                raise StoreError(f"obs must be 64 lowercase hex digits, got {obs!r}")
            if not all(type(t) is int for t in tokens):
                raise StoreError(f"tokens must be JSON integers, got {tokens!r}")
            if len(pose) != 3 or not all(type(v) in (int, float) for v in pose):
                raise StoreError(f"pose must be 3 numbers, got {pose!r}")
            steps.append(Step(
                image=load_image(obs),
                tokens=tuple(tokens),
                command=ActionCommand.from_continuous(
                    s["command"]["values"], s["command"]["terminate"]
                ),
                pose=tuple(pose),
            ))
        return Episode(
            episode_id=rec["episode_id"],
            task=TaskSpec.from_dict(rec["task"]),
            instruction=rec["instruction"],
            template_id=rec["template_id"],
            source=rec["source"],
            seed=rec["seed"],
            outcome=rec["outcome"],
            steps=steps,
        )

    def _pass_loader(self, names: list[str]):
        """``load_image`` for one pass over the shards ``names``: each distinct
        image is decoded once, and kept only while later steps of the pass
        still refer to it. The decoded arrays are read-only, so steps share them.

        The references are counted in the shard bytes without parsing them. A
        miscount costs a second decode or a longer-kept image, never a wrong one.
        """
        uses = Counter(sha.decode() for name in names
                       for sha in _OBS_REF.findall(self._shard_file(name).read_bytes()))
        kept: dict[str, np.ndarray] = {}

        def load(sha: str) -> np.ndarray:
            image = kept.pop(sha, None)
            if image is None:
                image = self.load_image(sha)
            uses[sha] -= 1
            if uses[sha] > 0:
                kept[sha] = image
            return image
        return load

    def iter_episodes(self, shard: str | None = None,
                      load_images: bool = True) -> Iterator[Episode]:
        names = [shard] if shard else [s.name for s in self.shards]
        load = self._pass_loader(names) if load_images else _no_image
        for name in names:
            for rec in self._iter_records(name):
                yield self._episode_from_record(rec, load)

    def find_episode(self, episode_id: str) -> Episode | None:
        """The episode with this id, or None; loads the images of that one only."""
        for info in self.shards:
            for rec in self._iter_records(info.name):
                if rec["episode_id"] == episode_id:
                    return self._episode_from_record(rec, self.load_image)
        return None

    # -- validation ----------------------------------------------------------------

    def validate(self) -> list[str]:
        """Check checksums, decode every record as the readers do and apply
        :func:`episode_problems` to it, then check the files on disk; returns
        problems as field paths (store-relative paths for files)."""
        problems: list[str] = []
        total = 0
        space = self.action_space
        images: dict[str, Path] = {}  # referenced sha -> its file

        def note(sha: str) -> np.ndarray:
            images[sha] = self._image_path(sha)
            return _EMPTY_IMAGE

        for info in self.shards:
            path = self._shard_path(info.name)
            if not path.exists():
                problems.append(f"shards[{info.name}]: file missing")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if digest != info.sha256:
                problems.append(f"shards[{info.name}].sha256: mismatch")
            count = 0
            try:
                for i, rec in enumerate(self._iter_records(info.name)):
                    count += 1
                    where = f"shards[{info.name}].record[{i}]"
                    try:
                        ep = self._episode_from_record(rec, note)
                    except (StoreError, ValueError, LookupError, TypeError, AttributeError,
                            OverflowError) as exc:  # what a malformed JSON value raises
                        problems.append(f"{where}: {type(exc).__name__}: {exc}")
                        continue
                    problems.extend(f"{where}.{p}" for p in episode_problems(ep, space))
            except (StoreError, ValueError) as exc:
                # ValueError covers JSON syntax errors and undecodable bytes.
                problems.append(f"shards[{info.name}]: {exc}")
            if count != info.episodes:
                problems.append(
                    f"shards[{info.name}].episodes: manifest says {info.episodes}, found {count}"
                )
            total += count
        if total != self.episode_count:
            problems.append(
                f"episode_count: manifest says {self.episode_count}, found {total}"
            )
        return problems + self._check_files(images)

    def _check_files(self, images: dict[str, Path]) -> list[str]:
        """Check each referenced image once (it exists and hashes to its
        name), list every file under ``shards/`` and ``obs/`` (temporary
        ones too) that neither the manifest nor a record refers to, and every
        entry at the root other than ``manifest.json``, ``shards/`` and
        ``obs/``."""
        problems = []
        for sha, path in sorted(images.items()):
            rel = f"obs/{sha[:2]}/{sha}.ppm"
            if not path.is_file():
                problems.append(f"{rel}: missing image")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != sha:
                problems.append(f"{rel}: content does not hash to its name")
        known = {self._shard_path(info.name) for info in self.shards}
        known.update(images.values())
        for sub in ("shards", "obs"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.is_file() and path not in known:
                    problems.append(f"{path.relative_to(self.root).as_posix()}: unreferenced file")
        for path in sorted(self.root.iterdir()):
            if path.name not in _ROOT_ENTRIES:
                problems.append(f"{path.name}: unexpected entry at the store root")
        return problems


_EMPTY_IMAGE = np.zeros((1, 1, 3), dtype=np.uint8)


def _no_image(sha: str) -> np.ndarray:
    return _EMPTY_IMAGE

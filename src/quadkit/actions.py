"""Command-level action space and its discretization.

A command is 11 continuous values plus a terminate flag, in this fixed order:

    [v_x, v_y, omega_z, theta_1, theta_2, theta_3, f, h_z, phi, s_y, h_z_f, t]

Each continuous dimension is quantized into ``bin_count`` uniform bins over
its configured [min, max] range (floor-to-bin on encode, bin center on
decode), and each bin index maps to the integer token ``token_offset + bin``.
The terminate flag occupies the 12th token position with values
``token_offset`` (continue) and ``token_offset + 1`` (stop).

Decode of an encoded command is therefore within half a bin width per
dimension, and bin centers are exact fixed points of the round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_ACTION_RANGES

DIMENSION_NAMES = tuple(name for name, _, _, _ in DEFAULT_ACTION_RANGES)
THETA_NAMES = ("theta_1", "theta_2", "theta_3")
NUM_CONTINUOUS = 11
MAX_TOKEN_VOCAB = 1000  # bins must map onto single-token integers


class CodecError(ValueError):
    """Raised for malformed commands, specs, or token vectors."""


@dataclass(frozen=True)
class DimensionSpec:
    name: str
    min: float
    max: float
    unit: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise CodecError(f"dimension {self.name!r}: bounds must be finite")
        if not self.min < self.max:
            raise CodecError(f"dimension {self.name!r}: min must be < max")


@dataclass(frozen=True)
class ActionSpaceSpec:
    """Per-dimension ranges plus bin count and token offset."""

    dimensions: tuple[DimensionSpec, ...]
    bin_count: int = 256
    token_offset: int = 0

    def __post_init__(self):
        names = tuple(d.name for d in self.dimensions)
        if names != DIMENSION_NAMES:
            raise CodecError(
                f"expected the 11 continuous dimensions {DIMENSION_NAMES}, got {names}"
            )
        if self.bin_count < 2:
            raise CodecError("bin_count must be >= 2")
        if self.token_offset < 0:
            raise CodecError("token_offset must be >= 0")
        if self.token_offset + self.bin_count > MAX_TOKEN_VOCAB:
            raise CodecError(
                f"token_offset + bin_count must be <= {MAX_TOKEN_VOCAB}"
            )
        # What the scalar codec reads of each dimension, computed once:
        # (name, min, max, bin width, wraps mod 1).
        object.__setattr__(self, "_codec", tuple(
            (d.name, d.min, d.max, (d.max - d.min) / self.bin_count, d.name in THETA_NAMES)
            for d in self.dimensions
        ))

    @property
    def mins(self) -> np.ndarray:
        return np.array([d.min for d in self.dimensions])

    @property
    def maxs(self) -> np.ndarray:
        return np.array([d.max for d in self.dimensions])

    @property
    def bin_widths(self) -> np.ndarray:
        return (self.maxs - self.mins) / self.bin_count

    def index(self, name: str) -> int:
        return DIMENSION_NAMES.index(name)

    def to_dict(self) -> dict:
        return {
            "bin_count": self.bin_count,
            "token_offset": self.token_offset,
            "dimensions": {
                d.name: {"min": d.min, "max": d.max, "unit": d.unit}
                for d in self.dimensions
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "ActionSpaceSpec":
        dims_in = data["dimensions"]
        missing = set(DIMENSION_NAMES) - set(dims_in)
        if missing:
            raise CodecError(f"action space config missing dimensions: {sorted(missing)}")
        dims = tuple(
            DimensionSpec(name, float(dims_in[name]["min"]), float(dims_in[name]["max"]),
                          dims_in[name].get("unit", ""))
            for name in DIMENSION_NAMES
        )
        return ActionSpaceSpec(dims, int(data.get("bin_count", 256)),
                               int(data.get("token_offset", 0)))


def default_action_space(bin_count: int = 256, token_offset: int = 0) -> ActionSpaceSpec:
    dims = tuple(DimensionSpec(n, lo, hi, unit) for n, lo, hi, unit in DEFAULT_ACTION_RANGES)
    return ActionSpaceSpec(dims, bin_count, token_offset)


@dataclass(frozen=True)
class ActionCommand:
    """One command tick: velocities, gait phases, body posture, terminate."""

    v_x: float = 0.0
    v_y: float = 0.0
    omega_z: float = 0.0
    theta_1: float = 0.5
    theta_2: float = 0.0
    theta_3: float = 0.0
    f: float = 3.0
    h_z: float = 0.25
    phi: float = 0.0
    s_y: float = 0.30
    h_z_f: float = 0.08
    terminate: bool = False

    def continuous(self) -> tuple[float, ...]:
        return (self.v_x, self.v_y, self.omega_z, self.theta_1, self.theta_2,
                self.theta_3, self.f, self.h_z, self.phi, self.s_y, self.h_z_f)

    @staticmethod
    def from_continuous(values, terminate: bool = False) -> "ActionCommand":
        values = tuple(map(float, values))
        if len(values) != NUM_CONTINUOUS:
            raise CodecError(f"expected {NUM_CONTINUOUS} continuous values, got {len(values)}")
        return ActionCommand(*values, terminate=bool(terminate))


def _check_finite(values, context: str) -> None:
    if all(map(math.isfinite, values)):
        return
    for name, v in zip(DIMENSION_NAMES, values):
        if not math.isfinite(v):
            raise CodecError(f"{context}: non-finite value {v!r} for dimension {name!r}")


def tokenize(a: ActionCommand, spec: ActionSpaceSpec) -> tuple[int, ...]:
    """Quantize a command into its 12 tokens, clamping out-of-range values
    into the first/last bin."""
    values = a.continuous()
    _check_finite(values, "tokenize")
    offset, last = spec.token_offset, spec.bin_count - 1
    toks = []
    for (_, lo, _, width, _), v in zip(spec._codec, values):
        k = math.floor((v - lo) / width)
        toks.append(offset + (0 if k < 0 else last if k > last else k))
    toks.append(offset + (1 if a.terminate else 0))
    return tuple(toks)


def detokenize(tokens: tuple[int, ...], spec: ActionSpaceSpec) -> ActionCommand:
    """Map a tuple of 12 plain ``int`` tokens back to the bin-center command;
    anything else (a list, a ``bool``, a numpy integer) raises CodecError."""
    if (type(tokens) is not tuple or len(tokens) != NUM_CONTINUOUS + 1
            or not all(type(t) is int for t in tokens)):
        raise CodecError(f"detokenize: expected a tuple of 12 plain ints, got {tokens!r:.200}")
    offset, count = spec.token_offset, spec.bin_count
    values = []
    for (name, lo, _, width, _), t in zip(spec._codec, tokens):
        k = t - offset
        if not 0 <= k < count:
            raise CodecError(
                f"detokenize: token {t} out of range for dimension {name!r}"
            )
        values.append(lo + (k + 0.5) * width)
    t_term = tokens[NUM_CONTINUOUS] - offset
    if t_term not in (0, 1):
        raise CodecError(
            f"detokenize: token {tokens[NUM_CONTINUOUS]} out of range for dimension 'terminate'"
        )
    return ActionCommand(*values, terminate=t_term == 1)  # bin centers are floats


def clamp_to_space(a: ActionCommand, spec: ActionSpaceSpec) -> ActionCommand:
    """Clamp every continuous value into its range; gait phases wrap mod 1 first."""
    values = a.continuous()
    _check_finite(values, "clamp_to_space")
    clamped = []
    for (_, lo, hi, _, wraps), v in zip(spec._codec, values):
        if wraps:
            v = v - math.floor(v)
        clamped.append(lo if v < lo else hi if v > hi else v)
    return ActionCommand.from_continuous(clamped, terminate=a.terminate)


# ---------------------------------------------------------------------------
# Bulk array codec (same quantization on (N, 11) float arrays)

def tokenize_batch(values: np.ndarray, terminate: np.ndarray,
                   spec: ActionSpaceSpec) -> np.ndarray:
    """Vectorized tokenize: values (..., 11) float, terminate (...,) bool ->
    (..., 12) int tokens."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != NUM_CONTINUOUS:
        raise CodecError(f"expected last axis {NUM_CONTINUOUS}, got {values.shape[-1]}")
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise CodecError(f"tokenize_batch: non-finite value for dimension "
                         f"{DIMENSION_NAMES[bad[-1]]!r}")
    widths = spec.bin_widths
    bins = np.floor((values - spec.mins) / widths).astype(np.int64)
    np.clip(bins, 0, spec.bin_count - 1, out=bins)
    term = np.asarray(terminate, dtype=bool).astype(np.int64)
    out = np.concatenate([bins, term[..., None]], axis=-1)
    return out + spec.token_offset


def detokenize_batch(tokens: np.ndarray, spec: ActionSpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized detokenize: (..., 12) int tokens -> ((..., 11) values, (...,) bool)."""
    tokens = np.asarray(tokens, dtype=np.int64) - spec.token_offset
    if tokens.shape[-1] != NUM_CONTINUOUS + 1:
        raise CodecError(f"expected last axis {NUM_CONTINUOUS + 1}, got {tokens.shape[-1]}")
    bins = tokens[..., :NUM_CONTINUOUS]
    if (bins < 0).any() or (bins >= spec.bin_count).any():
        bad = np.argwhere((bins < 0) | (bins >= spec.bin_count))[0]
        raise CodecError(f"detokenize_batch: token out of range for dimension "
                         f"{DIMENSION_NAMES[bad[-1]]!r}")
    term = tokens[..., NUM_CONTINUOUS]
    if ((term < 0) | (term > 1)).any():
        raise CodecError("detokenize_batch: token out of range for dimension 'terminate'")
    values = spec.mins + (bins + 0.5) * spec.bin_widths
    return values, term.astype(bool)

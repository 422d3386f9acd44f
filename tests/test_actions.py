"""Action codec: quantization, round trips, batch equivalence, validation."""

import math

import numpy as np
import pytest

from quadkit.actions import (
    ActionCommand,
    ActionSpaceSpec,
    CodecError,
    DimensionSpec,
    NUM_CONTINUOUS,
    clamp_to_space,
    default_action_space,
    detokenize,
    detokenize_batch,
    tokenize,
    tokenize_batch,
)
from quadkit.config import DEFAULT_ACTION_RANGES

SPACE = default_action_space()


def bin_center(dim: DimensionSpec, k: int, bins: int) -> float:
    width = (dim.max - dim.min) / bins
    return dim.min + (k + 0.5) * width


def test_bin_centers_are_round_trip_fixed_points():
    for i, dim in enumerate(SPACE.dimensions):
        for k in range(SPACE.bin_count):
            values = [bin_center(d, 0, SPACE.bin_count) for d in SPACE.dimensions]
            values[i] = bin_center(dim, k, SPACE.bin_count)
            cmd = ActionCommand.from_continuous(values)
            out = detokenize(tokenize(cmd, SPACE), SPACE)
            assert out.continuous()[i] == pytest.approx(values[i], abs=1e-12)
            assert tokenize(out, SPACE)[i] == SPACE.token_offset + k


def test_random_round_trip_within_half_bin():
    rng = np.random.default_rng(0)
    mins, maxs = SPACE.mins, SPACE.maxs
    widths = SPACE.bin_widths
    for _ in range(2000):
        values = rng.uniform(mins, maxs)
        cmd = ActionCommand.from_continuous(values)
        out = detokenize(tokenize(cmd, SPACE), SPACE)
        err = np.abs(np.array(out.continuous()) - values)
        assert (err <= widths / 2.0 + 1e-12).all()


def test_range_endpoints_clamp_into_first_and_last_bin():
    lo_cmd = ActionCommand.from_continuous([d.min for d in SPACE.dimensions])
    hi_cmd = ActionCommand.from_continuous([d.max for d in SPACE.dimensions])
    lo_toks = tokenize(lo_cmd, SPACE)[:NUM_CONTINUOUS]
    hi_toks = tokenize(hi_cmd, SPACE)[:NUM_CONTINUOUS]
    assert all(t == SPACE.token_offset for t in lo_toks)
    assert all(t == SPACE.token_offset + SPACE.bin_count - 1 for t in hi_toks)
    # Values beyond the range land in the boundary bin rather than erroring.
    wild = ActionCommand(v_x=99.0, f=0.0, h_z=-3.0)
    toks = tokenize(wild, SPACE)
    assert toks[SPACE.index("v_x")] == SPACE.token_offset + SPACE.bin_count - 1
    assert toks[SPACE.index("f")] == SPACE.token_offset
    assert toks[SPACE.index("h_z")] == SPACE.token_offset


def test_terminate_token_occupies_last_position():
    go = tokenize(ActionCommand(terminate=False), SPACE)
    stop = tokenize(ActionCommand(terminate=True), SPACE)
    assert go[-1] == SPACE.token_offset
    assert stop[-1] == SPACE.token_offset + 1
    assert not detokenize(go, SPACE).terminate
    assert detokenize(stop, SPACE).terminate


def test_nonzero_token_offset_round_trip():
    space = default_action_space(bin_count=256, token_offset=700)
    cmd = ActionCommand(v_x=0.5, omega_z=-0.25)
    toks = tokenize(cmd, space)
    assert all(700 <= t < 700 + 256 for t in toks[:NUM_CONTINUOUS])
    out = detokenize(toks, space)
    assert abs(out.v_x - 0.5) <= space.bin_widths[0] / 2.0
    # The same tokens are invalid under a different offset.
    with pytest.raises(CodecError):
        detokenize(toks, SPACE)


def test_spec_validation_rejects_bad_layouts():
    dims = tuple(DimensionSpec(n, lo, hi, u) for n, lo, hi, u in DEFAULT_ACTION_RANGES)
    with pytest.raises(CodecError):
        ActionSpaceSpec(dims, bin_count=256, token_offset=800)  # 800+256 > 1000
    with pytest.raises(CodecError):
        ActionSpaceSpec(dims, bin_count=1)
    with pytest.raises(CodecError):
        ActionSpaceSpec(dims[:-1])  # missing a dimension
    with pytest.raises(CodecError):
        DimensionSpec("v_x", 1.0, 1.0)  # empty range
    with pytest.raises(CodecError):
        DimensionSpec("v_x", 0.0, math.inf)


def test_token_vector_validation():
    good = tokenize(ActionCommand(), SPACE)
    assert type(good) is tuple and all(type(t) is int for t in good)
    for bad in [
        good[:3],  # wrong arity
        good + (SPACE.token_offset,),
        tuple([1.5] * 12),  # non-integers
        (True,) + good[1:],  # a bool is not a token
        (np.int64(good[0]),) + good[1:],  # nor is a numpy integer
        list(good),  # a list is not a token vector
    ]:
        with pytest.raises(CodecError):
            detokenize(bad, SPACE)
    bad_term = list(good)
    bad_term[-1] = SPACE.token_offset + 7
    with pytest.raises(CodecError):
        detokenize(tuple(bad_term), SPACE)
    bad_bin = list(good)
    bad_bin[0] = SPACE.token_offset + SPACE.bin_count
    with pytest.raises(CodecError):
        detokenize(tuple(bad_bin), SPACE)


def test_non_finite_values_rejected():
    with pytest.raises(CodecError):
        tokenize(ActionCommand(v_x=float("nan")), SPACE)
    with pytest.raises(CodecError):
        clamp_to_space(ActionCommand(h_z=float("inf")), SPACE)


def test_clamp_wraps_gait_phases_and_clips_the_rest():
    cmd = ActionCommand(v_x=5.0, theta_1=1.25, theta_2=-0.25, h_z=0.0)
    out = clamp_to_space(cmd, SPACE)
    assert out.v_x == SPACE.dimensions[0].max
    assert out.theta_1 == pytest.approx(0.25)
    assert out.theta_2 == pytest.approx(0.75)
    assert out.h_z == SPACE.dimensions[SPACE.index("h_z")].min


def test_scalar_codec_matches_its_per_dimension_definition():
    """Bit for bit, the per-dimension expressions the codec is defined by,
    evaluated from the spec's ``DimensionSpec``s on every call."""
    rng = np.random.default_rng(7)
    space = default_action_space(bin_count=200, token_offset=17)
    for _ in range(300):
        values = [float(rng.uniform(d.min - 1.5, d.max + 1.5)) for d in space.dimensions]
        cmd = ActionCommand.from_continuous(values, bool(rng.integers(0, 2)))
        clamped = clamp_to_space(cmd, space)
        expected = []
        for dim, v in zip(space.dimensions, values):
            if dim.name.startswith("theta_"):
                v = v - math.floor(v)
            expected.append(min(max(v, dim.min), dim.max))
        assert [x.hex() for x in clamped.continuous()] == [x.hex() for x in expected]
        tokens = tokenize(cmd, space)
        for dim, v, t in zip(space.dimensions, values, tokens):
            k = math.floor((v - dim.min) / ((dim.max - dim.min) / space.bin_count))
            assert t == 17 + min(max(k, 0), space.bin_count - 1)
        decoded = detokenize(tokens, space).continuous()
        assert [x.hex() for x in decoded] == [
            bin_center(dim, t - 17, space.bin_count).hex()
            for dim, t in zip(space.dimensions, tokens)]


def test_batch_codec_matches_scalar_codec():
    rng = np.random.default_rng(1)
    n = 500
    values = rng.uniform(SPACE.mins - 0.5, SPACE.maxs + 0.5, size=(n, NUM_CONTINUOUS))
    term = rng.random(n) < 0.5
    batch_tokens = tokenize_batch(values, term, SPACE)
    for i in range(n):
        cmd = ActionCommand.from_continuous(values[i], terminate=bool(term[i]))
        assert tuple(batch_tokens[i]) == tokenize(cmd, SPACE)
    back_values, back_term = detokenize_batch(batch_tokens, SPACE)
    for i in range(n):
        cmd = detokenize(tuple(batch_tokens[i].tolist()), SPACE)
        assert tuple(back_values[i]) == pytest.approx(cmd.continuous(), abs=1e-12)
        assert back_term[i] == cmd.terminate


def test_batch_codec_validation():
    with pytest.raises(CodecError):
        tokenize_batch(np.zeros((4, 7)), np.zeros(4, dtype=bool), SPACE)
    bad = np.zeros((2, NUM_CONTINUOUS))
    bad[1, 3] = np.nan
    with pytest.raises(CodecError):
        tokenize_batch(bad, np.zeros(2, dtype=bool), SPACE)
    toks = tokenize_batch(np.zeros((2, NUM_CONTINUOUS)), np.zeros(2, dtype=bool), SPACE)
    toks[0, 2] = SPACE.token_offset + SPACE.bin_count
    with pytest.raises(CodecError):
        detokenize_batch(toks, SPACE)


def test_action_space_serialization_round_trip():
    space = default_action_space(bin_count=128, token_offset=32)
    assert ActionSpaceSpec.from_dict(space.to_dict()) == space
    with pytest.raises(CodecError):
        ActionSpaceSpec.from_dict({"dimensions": {"v_x": {"min": 0, "max": 1}}})

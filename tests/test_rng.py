"""Keyed streams: batched PCG64 states reproduce ``stream`` bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stream_states_check import check

from qembed.rng import _stream_states, stream

# every word-count class of SeedSequence's int coercion, plus seeds that
# fold into 64 bits
_SEEDS = st.one_of(
    st.integers(0, 1000),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**70 + 5, -1, -5, -(2**40)]),
    st.integers(-(2**70), 2**70),
)
# indices hash as one word each
_INDICES = st.one_of(st.integers(0, 1000), st.sampled_from([0, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(
    seed=_SEEDS,
    label=st.text(max_size=12),
    rows=st.integers(0, 4).flatmap(lambda k: st.lists(st.lists(_INDICES, min_size=k, max_size=k), min_size=1, max_size=6)),
)
@example(seed=2**32, label="x", rows=[[2**32 - 1, 5], [0, 1], [2**31, 3]])
@example(seed=-5, label="", rows=[[]])
def test_batched_states_match_stream(seed, label, rows):
    k = len(rows[0])
    states = _stream_states(seed, label, rows if k else np.zeros((len(rows), 0), dtype=np.int64))
    gen = np.random.default_rng(0)
    for row, state in zip(rows, states):
        ref = stream(seed, label, *row)
        assert state == ref.bit_generator.state
        gen.bit_generator.state = state
        assert np.array_equal(gen.random(3), ref.random(3))


def test_integer_dtypes_match_lists():
    rows = np.array([[2**32 - 1, 0], [2**31, 7], [0, 2**32 - 2]], dtype=np.int64)
    want = list(_stream_states(3, "a", rows.tolist()))
    for dtype in (np.int64, np.uint64, np.uint32):
        assert list(_stream_states(3, "a", rows.astype(dtype))) == want


def test_batches_index_and_slice():
    states = _stream_states(9, "b", np.arange(10)[:, None])
    assert len(states) == 10 and len(states[2:7]) == 5
    assert states[3] == states[2:7][1] == stream(9, "b", 3).bit_generator.state
    assert states[-1] == stream(9, "b", 9).bit_generator.state


def test_fixed_key_set():
    keys, bad = check(20_000, seed=1)
    assert (keys, bad) == (20_000, 0)


def test_rejects_non_tabular_indices():
    with pytest.raises(ValueError, match="keys, k"):
        _stream_states(0, "a", [1, 2, 3])


@pytest.mark.parametrize(
    "indices",
    [
        [[0, -1]],
        np.array([[2**32]], dtype=np.uint64),
        [[1, 2**32]],
        np.array([[2**64 + 1], [3]], dtype=object),
        np.array([[1.0], [2.0]]),
    ],
    ids=["negative", "2**32", "2**32-in-list", "huge-object", "float"],
)
def test_rejects_indices_outside_one_word(indices):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)") as info:
        _stream_states(0, "a", indices)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: stream(1.5, "t"),
        lambda: stream(0, "t", 2.5),
        lambda: _stream_states(1.5, "t", [[0]]),
    ],
    ids=["stream-seed", "stream-index", "batched-seed"],
)
def test_rejects_non_integer_seed_or_index(make):
    # int() truncated them: stream(1.5, "t") drew what stream(1, "t") draws
    with pytest.raises(ValueError, match=r"^(seed|index) must be an integer, got ") as info:
        make()
    assert "\n" not in str(info.value)

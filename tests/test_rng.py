"""Keyed streams: batched PCG64 states reproduce ``stream`` bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from stream_states_check import check

from qembed import QuantConfig, ball, build, build_rop, entropy_bound, measure_decay, required_m, sample_pair, sparse
from qembed.embeddings import CodeBlock
from qembed.quantizer import SoftParam, premetric
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


# one real parameter of each public constructor that takes one, and the
# real parameters of the public functions, by the name their errors give them
_REAL_PARAMS = {
    "QuantConfig": ("delta", lambda v: QuantConfig(v)),
    "CodeBlock": ("delta", lambda v: CodeBlock(v, np.zeros((2, 1), dtype=np.int64))),
    "SoftParam": ("t", lambda v: SoftParam(v)),
    "ball": ("radius", lambda v: ball(16, radius=v)),
    "build_rop": ("kappa", lambda v: build_rop(4, 2, 2, seed=0, kappa=v)),
    "sample_pair": ("distance", lambda v: sample_pair(sparse(2, 8), v, stream(0, "t"))),
    "entropy_bound": ("eta", lambda v: entropy_bound(sparse(2, 8), v, 2)),
    "required_m-epsilon": ("epsilon", lambda v: required_m("p1", sparse(2, 8), v, QuantConfig(1.0))),
    "required_m-C": ("C", lambda v: required_m("p1", sparse(2, 8), 0.5, QuantConfig(1.0), C=v)),
    "premetric": ("p", lambda v: premetric(np.zeros(2), np.ones(2), v)),
    "sample_pair-q": ("q", lambda v: sample_pair(sparse(2, 8), 1.0, stream(0, "t"), q=v)),
    "entropy_bound-q": ("q", lambda v: entropy_bound(sparse(2, 8), 0.1, v)),
    "measure_decay": ("grid distance", lambda v: measure_decay(
        [build("gaussian", 4, 8, seed=0)], sparse(2, 8), "l2sq", QuantConfig(1.0), [1.0, v], 1, 1, seed=0)),
}
# norm orders: q = inf is valid, as np.linalg.norm takes it
_ORDERS = {"sample_pair-q", "entropy_bound-q"}
_NOT_REALS = st.one_of(
    st.text(max_size=8),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"), 10**400, -(10**400)]),
    st.floats(allow_nan=False).map(np.array),
    st.lists(st.floats(-10, 10), min_size=1, max_size=4).map(np.array),
    st.builds(lambda k: np.ones((k, k)), st.integers(1, 40)),
)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(_REAL_PARAMS)), value=_NOT_REALS)
@example(case="QuantConfig", value="1.5").via("text that float() parses")
@example(case="QuantConfig", value=np.array([2.0])).via("an array that float() unwraps")
@example(case="sample_pair", value="x").via("text compared with 0")
@example(case="entropy_bound", value="x").via("text compared with 0")
@example(case="required_m-epsilon", value="x").via("text compared with 0")
@example(case="required_m-C", value="x").via("text compared with 0")
@example(case="premetric", value="x").via("text compared with 1")
@example(case="entropy_bound-q", value="x").via("text compared with 1")
@example(case="entropy_bound-q", value=None).via("None compared with 1")
@example(case="entropy_bound-q", value=np.ones(2)).via("an array compared with 1")
@example(case="sample_pair-q", value="x").via("text taken as a norm order")
@example(case="measure_decay", value=True).via("a bool taken as distance 1")
@example(case="measure_decay", value=[1, 2]).via("a nested list compared with 0")
def test_non_real_parameter_raises_one_line_value_error(case, value):
    # these raised TypeErrors ('>' between str and int, float() of None),
    # numpy's ambiguous truth value, or took True as 1
    assume(not (case in _ORDERS and type(value) is float and value == math.inf))
    name, make = _REAL_PARAMS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be ") as info:
            make(value)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("q", [0.5, 0, -1, -math.inf])
@pytest.mark.parametrize("case", sorted(_ORDERS))
def test_norm_order_below_one_rejected(case, q):
    with pytest.raises(ValueError, match=r"^q must be >= 1, got ") as info:
        _REAL_PARAMS[case][1](q)
    assert "\n" not in str(info.value)


def test_norm_orders_admit_inf():
    # the sparse covering bound does not depend on q >= 1; an l_inf pair
    # has its gap in the max norm
    assert entropy_bound(sparse(2, 8), 0.1, math.inf) == entropy_bound(sparse(2, 8), 0.1, 1)
    for q in (math.inf, np.float64(math.inf)):
        x, x_prime = sample_pair(sparse(2, 8), 1.5, stream(0, "t"), q=q)
        assert np.max(np.abs(x - x_prime)) == pytest.approx(1.5, rel=1e-6)
    # integer and numpy orders draw what the float order draws
    pairs = [sample_pair(sparse(2, 8), 1.5, stream(0, "t"), q=q) for q in (2.0, 2, np.int64(2), np.float32(2))]
    assert all(np.array_equal(a, b) for p in pairs[1:] for a, b in zip(pairs[0], p))


@settings(max_examples=100, deadline=None)
@given(value=st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.integers(1, 2**80),
                       st.floats(1e-30, 1e30).map(np.float32)))
def test_real_parameters_are_stored_as_floats(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = [QuantConfig(value).delta, SoftParam(-value).t, ball(2, radius=value).radius]
    assert all(type(v) is float for v in stored)
    assert stored == [float(value), -float(value), float(value)]

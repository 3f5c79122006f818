"""The fused quantize-and-estimate kernel, its threshold search and the
exact integer estimator.

The golden hashes were taken from the per-trial loop that the kernel
replaced (separate dither draws, ``quantize_with_dither`` and
``_estimate_from_codes`` for every trial); the sweeps must reproduce its
records and summary CSVs byte for byte.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qembed import QuantConfig, build, measure_qrip, sample_dither, sparse
from qembed.embeddings import (
    _BLOCK_ENTRIES,
    _dither_thresholds,
    _estimate_from_codes,
    _PairKernel,
    quantize_with_dither,
)
from qembed.rng import _stream_states, stream
from qembed.verify import records_csv, summary_csv

GOLDEN = {
    ("l1", 1.0): "e836779059f3695cae17de95543560f8db5b14f063121e2dc9d95c5d6db8e124",
    ("l1", 0.7): "a5af01080f67705cbf5bb1801e4e077f2063a24915b31ffc05a047646ee704ed",
    ("l1", 1e-09): "43307199cf8c20a5664dc2d248b8248efc95aa41b8b154ba8fd53cd526fc93dc",
    ("l2sq", 1.0): "ee10dc4fc0b9c76707181b3b8aef162d818a17dfed02510e5cdceb2f18c21a5c",
    ("l2sq", 0.7): "ac27c9959ab87c348a7a317934f26820daff1c7b632562538c591bb68d1af427",
    ("l2sq", 1e-09): "e40eafddcc1349f229503ad9ddb59c35eee5601592f632334ad68b201f8fb384",
    ("circ", 1.0): "ef8a7f06a491c1e226e950ca9f06df77cc6da5a37bfa2b691e5816dddbb6adf3",
    ("circ", 0.7): "a34569a00871ebbecaf68459a7f870a7467d64bb7ca0d7e612512220d5be1a31",
    ("circ", 1e-09): "52ffe91ca5996254c1d7b06cee9f6e959974e8992d9b529cdeea80190aa2f228",
}


@pytest.mark.parametrize("mode,delta", sorted(GOLDEN))
def test_sweep_csvs_match_golden(mode, delta):
    # delta = 1e-9 sends l2sq and circ trials through the int64 fallback
    profile = {"rip": (1, 2)} if mode == "l1" else {}
    op = build("gaussian", 256, 64, seed=10, **profile)
    mset = sparse(4, 64, radius=20.0)
    run = measure_qrip(op, mset, mode, QuantConfig(delta), [0.05, 0.2, 1.0, 5.0, 10.0], 3, 4, seed=11)
    digest = hashlib.sha256((records_csv(run) + summary_csv(run)).encode()).hexdigest()
    assert digest == GOLDEN[(mode, delta)]


def _reference_estimate(y, y_prime, mode, delta, seed):
    """Back-to-back sample_dither draws, int64 codes, Python-int sums.

    ``seed`` seeds ``default_rng``; a Generator is drawn from directly.
    """
    cfg = QuantConfig(delta)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = y.size
    dithers = [sample_dither(m, cfg, rng) for _ in range(2 if mode == "circ" else 1)]
    gaps = []
    for xi in dithers:
        a = np.floor((y + xi) / delta).astype(np.int64).tolist()
        b = np.floor((y_prime + xi) / delta).astype(np.int64).tolist()
        gaps.append([abs(i - j) for i, j in zip(a, b)])
    if mode == "l1":
        return delta * sum(gaps[0]) / m, dithers
    return delta * delta * sum(g * h for g, h in zip(gaps[0], gaps[-1])) / m, dithers


def _kernel(ys, y_primes, mode, delta):
    """A kernel loaded with the pairs (ys[k], y_primes[k])."""
    kernel = _PairKernel(mode, QuantConfig(delta))
    kernel.load(ys, y_primes)
    return kernel


def _one_trial(kernel, seed):
    """The kernel's estimate for one trial of its one pair drawn from ``default_rng(seed)``."""
    state = np.random.default_rng(seed).bit_generator.state
    return kernel.trials(np.random.default_rng(0), [state], np.empty((1, 1)))[0, 0]


# |y| / delta spans small values, the 2**52 fast-path limit and beyond,
# staying below 2**62 so that the reference's int64 codes cannot overflow
_SCALES = [1.0, 2.0**20, 2.0**40, 2.0**51, 2.0**52 - 4, 2.0**52, 2.0**53, 2.0**61]


@st.composite
def _pairs(draw):
    m = draw(st.integers(1, 48))
    delta = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    scale = draw(st.sampled_from(_SCALES)) * delta
    unit = st.floats(-1.0, 1.0)
    y = np.array(draw(st.lists(unit, min_size=m, max_size=m))) * scale
    if draw(st.booleans()):
        y_prime = np.array(draw(st.lists(unit, min_size=m, max_size=m))) * scale
    else:
        y_prime = y + np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m))) * delta
    return y, y_prime, delta


@settings(max_examples=300, deadline=None)
@given(pair=_pairs(), mode=st.sampled_from(["l1", "l2sq", "circ"]), seed=st.integers(0, 2**32))
@example(pair=(np.full(3, (2.0**52 - 3) * 0.7), np.full(3, -(2.0**52 - 3) * 0.7), 0.7), mode="circ", seed=1)
@example(pair=(np.array([2.0**52 - 2.0]), np.array([0.0]), 1.0), mode="l1", seed=2)
@example(pair=(np.array([2.0**52]), np.array([0.0]), 1.0), mode="l2sq", seed=3)
def test_kernel_matches_python_int_reference(pair, mode, seed):
    y, y_prime, delta = pair
    kernel = _kernel([y], [y_prime], mode, delta)
    got = _one_trial(kernel, seed)
    want, dithers = _reference_estimate(y, y_prime, mode, delta, seed)
    # the block keeps the draws u, scaled into the dithers delta * u only
    # for a pair on the integer path
    draws = kernel._block[0][0] if kernel._slow else delta * kernel._block[0][0]
    assert np.array_equal(draws, np.stack(dithers))
    assert got == want


def test_kernel_reaches_both_paths(monkeypatch):
    calls = []
    checked = _PairKernel._checked
    monkeypatch.setattr(_PairKernel, "_checked", lambda self, pair, d: calls.append(1) or checked(self, pair, d))
    rng = np.random.default_rng(0)
    small = rng.standard_normal(64)
    cases = [
        (small, -small, "circ", 1.0, False),  # fast path
        (np.array([2.0**52 - 8]), np.zeros(1), "l1", 1.0, False),  # fast path at the 2**52 edge
        (np.full(4, 2.0**52), np.zeros(4), "l1", 1.0, True),  # pair guard
        (np.full(4, 2.0**30), np.zeros(4), "l2sq", 1.0, True),  # sum guard: 4 * (2**30 + 1)**2 >= 2**53
        (np.array([6 * 0.7, 1.0]), np.zeros(2), "l1", 0.7, True),  # a code that steps twice: uncertified
    ]
    for y, y_prime, mode, delta, fallback in cases:
        before = len(calls)
        kernel = _kernel([y], [y_prime], mode, delta)
        assert _one_trial(kernel, 1) == _reference_estimate(y, y_prime, mode, delta, 1)[0]
        assert (len(calls) > before) == fallback


@settings(max_examples=150, deadline=None)
@given(pair=_pairs(), mode=st.sampled_from(["l1", "l2sq", "circ"]), seed=st.integers(0, 2**32), trials=st.integers(1, 40))
def test_trials_match_per_trial_calls(pair, mode, seed, trials):
    # blocked for these small m; states[t] keys the stream of trial t
    y, y_prime, delta = pair
    kernel = _kernel([y], [y_prime], mode, delta)
    states = _stream_states(seed, "test:trials", np.arange(trials)[:, None])
    got = kernel.trials(np.random.default_rng(0), states, np.empty((1, trials)))[0]
    want = [_reference_estimate(y, y_prime, mode, delta, stream(seed, "test:trials", t))[0] for t in range(trials)]
    assert got.tolist() == want


# dither entries per trial (cols * m): below 4096, at 8192 (a few trials
# per block) and above _BLOCK_ENTRIES (one trial per block)
@pytest.mark.parametrize("entries", [2000, 8192, _BLOCK_ENTRIES + 2000])
@pytest.mark.parametrize("mode", ["l1", "circ"])
def test_trials_match_reference_across_block_sizes(mode, entries):
    m = entries // (2 if mode == "circ" else 1)
    rng = np.random.default_rng(entries)
    y, y_prime = rng.standard_normal((2, m)) * 3
    trials = 6
    kernel = _kernel([y], [y_prime], mode, 0.7)
    states = _stream_states(9, "test:sizes", np.arange(trials)[:, None])
    got = kernel.trials(np.random.default_rng(0), states, np.empty((1, trials)))[0]
    assert kernel._block[0].shape[0] == max(1, min(_BLOCK_ENTRIES // entries, trials))
    want = [_reference_estimate(y, y_prime, mode, 0.7, stream(9, "test:sizes", t))[0] for t in range(trials)]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "mode,m,gap", [("l1", 4096, 2**41), ("l1", 8192, 2**40), ("l2sq", 2048, 2**21), ("circ", 2048, 2**21)]
)
def test_pair_guard_sends_every_trial_to_the_integer_path(monkeypatch, mode, m, gap):
    # coordinate 0 has code gap - 1 at zero dither, so k = gap - 1 bounds
    # every trial's sum by m * gap (l1) or m * gap**2; at gap that bound is
    # 2**53 and the pair takes the integer path for all its trials, at
    # gap / 2 it keeps the threshold path
    trials = 16
    states = _stream_states(5, "test:guard", np.arange(trials)[:, None])
    calls = []
    checked = _PairKernel._checked
    for g, fallback in ((gap, True), (gap // 2, False)):
        y = np.zeros(m)
        y[0] = g - 0.5
        reference = _PairKernel(mode, QuantConfig(1.0))
        shape = (reference.cols, m)
        want = [reference._checked((y, np.zeros(m)), stream(5, "test:guard", t).random(shape)) for t in range(trials)]
        monkeypatch.setattr(_PairKernel, "_checked", lambda self, pair, d: calls.append(1) or checked(self, pair, d))
        kernel = _kernel([y], [np.zeros(m)], mode, 1.0)
        got = kernel.trials(np.random.default_rng(0), states, np.empty((1, trials)))[0]
        monkeypatch.undo()
        assert kernel._block[0].shape[0] > 1  # several trials per block
        assert got.tolist() == want
        assert len(calls) == (trials if fallback else 0)
        calls.clear()


def _code(y, u, delta):
    """The code of y under the draw u, through the checked floor."""
    return int(quantize_with_dither(np.array([y]), np.array([delta * u]), QuantConfig(delta))[0])


@st.composite
def _search_inputs(draw):
    delta = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    near = st.integers(-(2**20), 2**20).map(float)
    kind = draw(st.sampled_from(["low half", "integer", "below integer", "negative", "guard"]))
    if kind == "low half":
        unit = draw(st.floats(0.0, 0.5, exclude_max=True))
    elif kind == "integer":
        unit = draw(near)
    elif kind == "below integer":
        unit = np.nextafter(draw(near), -np.inf)
    elif kind == "negative":
        unit = -draw(st.floats(0.0, 2.0**30))
    else:
        unit = draw(st.sampled_from([1.0, -1.0])) * (2.0**52 - draw(st.floats(1.0 + 2.0**-40, 2.0**12)))
    y = unit * delta
    assume(abs(y) / delta + 1 < 2.0**52)
    return y, delta


@settings(max_examples=400, deadline=None)
@given(case=_search_inputs())
@example(case=(0.2, 1.0))
@example(case=(1e-300, 1.0))
@example(case=(np.nextafter(3.0, -np.inf), 1.0))
@example(case=(-0.0, 1.0))
@example(case=(6 * 0.7, 0.7))
@example(case=(2.0**52 - 2.0, 1.0))
def test_certified_thresholds_step_once_at_tau(case):
    y, delta = case
    c0, tau = (float(v[0]) for v in _dither_thresholds(np.array([y]), delta))
    assert c0 == _code(y, 0.0, delta)
    if math.isnan(tau):
        assert delta != 1.0  # the closed form at delta = 1 is exact
        return  # uncertified: the kernel sends the pair to the integer path
    assert tau * 2.0**53 == int(tau * 2.0**53) and 2.0**-53 <= tau <= 1.0
    assert _code(y, tau - 2.0**-53, delta) == c0
    if tau < 1.0:
        assert _code(y, tau, delta) == c0 + 1
        assert _code(y, 1.0 - 2.0**-53, delta) == c0 + 1


def test_only_codes_that_step_twice_go_uncertified():
    # a coordinate is left uncertified only where its code steps twice
    # over the draws; at delta = 1 no code does below the guard
    rng = np.random.default_rng(4)
    for delta in (1.0, 0.7, 3.3, 1e-3):
        y = rng.standard_normal(4096) * delta * 5
        c0, tau = _dither_thresholds(y, delta)
        twice = [_code(v, 1.0 - 2.0**-53, delta) - c for v, c in zip(y[np.isnan(tau)], c0[np.isnan(tau)])]
        assert all(g >= 2 for g in twice)
        if delta == 1.0:
            assert not twice


@pytest.mark.parametrize("mode", ["l1", "l2sq", "circ"])
@pytest.mark.parametrize("delta", [1.0, 0.7])
def test_nested_pairs_read_the_longest_pairs_thresholds(mode, delta):
    # the measurements of a decay sweep's smaller operators lead the
    # largest one's; their estimates equal those of each pair on its own
    rng = np.random.default_rng(8)
    sizes = [16, 100, 300, 1000]
    y, y_prime = rng.standard_normal((2, sizes[-1])) * 4
    ys, y_primes = [y[:m].copy() for m in sizes], [y_prime[:m].copy() for m in sizes]
    ys.append(rng.standard_normal(50))  # a root of its own
    y_primes.append(rng.standard_normal(50))
    if delta != 1.0:
        # a code that steps twice: this pair takes the integer path, and
        # must not see the draws scaled before the runs have read them
        ys.append(np.array([6 * delta, 1.0]))
        y_primes.append(np.zeros(2))
    kernel = _kernel(ys, y_primes, mode, delta)
    assert kernel._thr[0].shape[1] == sum(v.size for v in ys[len(sizes) - 1 :])  # the roots, end to end
    assert kernel._slow == ([] if delta == 1.0 else [len(ys) - 1])
    assert len(kernel._runs) == (2 if mode != "circ" else len(sizes) + 1)
    states = _stream_states(3, "test:nested", np.arange(5)[:, None])
    got = kernel.trials(np.random.default_rng(0), states, np.empty((len(ys), 5)))
    for k, (v, v_prime) in enumerate(zip(ys, y_primes)):
        alone = _kernel([v], [v_prime], mode, delta)
        assert got[k].tolist() == alone.trials(np.random.default_rng(0), states, np.empty((1, 5)))[0].tolist()


def test_load_keeps_buffers_and_retargets():
    rng = np.random.default_rng(3)
    y, y_prime = rng.standard_normal((2, 32)) * 5
    kernel = _kernel([np.zeros(32)], [np.zeros(32)], "circ", 1.0)
    _one_trial(kernel, 4)
    buffers = kernel._block
    kernel.load([y], [y_prime])
    assert _one_trial(kernel, 4) == _one_trial(_kernel([y], [y_prime], "circ", 1.0), 4)
    assert kernel._block is buffers
    with pytest.raises(ValueError):
        kernel.load([np.zeros(3)], [np.zeros(4)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**64])
def test_kernel_rejects_unquantizable_measurements(bad):
    y = np.array([0.0, bad])
    kernel = _kernel([y], [np.zeros(2)], "l1", 1.0)
    with pytest.raises(ValueError, match="finite"):
        _one_trial(kernel, 0)


def test_kernel_input_validation():
    cfg = QuantConfig(1.0)
    with pytest.raises(ValueError):
        _PairKernel("l3", cfg)
    kernel = _PairKernel("l1", cfg)
    for ys, y_primes in (([np.zeros(3)], [np.zeros(4)]), ([np.zeros(0)], [np.zeros(0)]), ([], []), ([np.zeros(3)], [])):
        with pytest.raises(ValueError):
            kernel.load(ys, y_primes)


_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _code_pairs(draw):
    mode = draw(st.sampled_from(["l1", "l2sq", "circ"]))
    m = draw(st.integers(1, 12))
    cols = 2 if mode == "circ" else 1
    codes = st.lists(st.lists(_INT64, min_size=cols, max_size=cols), min_size=m, max_size=m)
    return mode, draw(codes), draw(codes)


@settings(max_examples=300, deadline=None)
@given(case=_code_pairs(), delta=st.floats(1e-3, 1e3))
@example(case=("l1", [[-(2**63)]], [[2**62]]), delta=1.0)
@example(case=("circ", [[2**63 - 1, -(2**63)]], [[-(2**63), 2**63 - 1]]), delta=1.0)
def test_estimate_from_codes_matches_python_int_reference(case, delta):
    mode, a, b = case
    m = len(a)
    gaps = [[abs(i - j) for i, j in zip(ra, rb)] for ra, rb in zip(a, b)]
    if mode == "l1":
        want = delta * sum(g[0] for g in gaps) / m
    else:
        want = delta * delta * sum(g[0] * g[-1] for g in gaps) / m
    got = _estimate_from_codes(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), mode, delta)
    assert got == want


def test_estimate_from_codes_gap_beyond_int64():
    # the gap 3 * 2**62 does not fit in int64
    a = np.array([[-(2**63)]], dtype=np.int64)
    b = np.array([[2**62]], dtype=np.int64)
    assert _estimate_from_codes(a, b, "l1", 1.0) == float(3 * 2**62)

import ast
import importlib
import math
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qembed
from qembed import (
    QuantConfig,
    SoftParam,
    premetric,
    quantize,
    sample_dither,
    soft_distance,
    soft_premetric,
)
from qembed.embeddings import _estimate_from_codes, quantize_with_dither
from qembed.quantizer import _LAYOUT_COLS, _MODES, _threshold_count, soft_distance_array
from qembed.rng import stream


class TestQuantize:
    @pytest.mark.parametrize(
        "value,delta,index,centre",
        [
            (0.3, 1.0, 0, 0.5),
            (-0.2, 1.0, -1, -0.5),
            (2.0, 0.5, 4, 2.25),
            (0.0, 1.0, 0, 0.5),
        ],
    )
    def test_examples(self, value, delta, index, centre):
        k, v = quantize(value, QuantConfig(delta))
        assert k == index
        assert v == pytest.approx(centre, abs=0)

    def test_within_half_cell(self):
        rng = stream(0, "test:quantize")
        for _ in range(200):
            delta = rng.uniform(0.1, 3.0)
            x = rng.uniform(-50, 50)
            _, v = quantize(x, QuantConfig(delta))
            assert abs(v - x) <= delta / 2 + 1e-12

    def test_odd_off_lattice(self):
        # Q(-a) = -Q(a) whenever a is not a lattice point
        rng = stream(1, "test:odd")
        cfg = QuantConfig(0.75)
        for _ in range(500):
            a = rng.uniform(-20, 20)
            if abs(a / cfg.delta - round(a / cfg.delta)) < 1e-9:
                continue
            _, va = quantize(a, cfg)
            _, vneg = quantize(-a, cfg)
            assert vneg == pytest.approx(-va, abs=0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), QuantConfig(1.0))
        with pytest.raises(ValueError):
            quantize(float("inf"), QuantConfig(1.0))

    @pytest.mark.parametrize("value,delta", [(1.0, 1e-320), (1.7e308, 0.5), (-1.7e308, 0.25)])
    def test_overflowing_cell_raises_without_warning(self, value, delta):
        # (v + dither) / delta overflows to inf, which the range check rejects
        with pytest.raises(ValueError, match="int64 range"):
            quantize(value, QuantConfig(delta))
        with pytest.raises(ValueError, match="int64 range"):
            quantize_with_dither(np.full(3, value), np.zeros(3), QuantConfig(delta))

    def test_bad_delta(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                QuantConfig(bad)


class TestSampleDither:
    def test_deterministic_given_seed(self):
        cfg = QuantConfig(1.0)
        a = sample_dither(3, cfg, stream(7, "d"))
        b = sample_dither(3, cfg, stream(7, "d"))
        assert np.array_equal(a, b)

    def test_range(self):
        cfg = QuantConfig(1.0)
        xi = sample_dither(10**6, cfg, stream(8, "d"))
        assert xi.min() >= 0.0
        assert xi.max() < 1.0

    def test_mean(self):
        # LLN: mean of U[0, 2) is 1; 4 sigma / sqrt(N) margin with sigma = 2/sqrt(12)
        cfg = QuantConfig(2.0)
        xi = sample_dither(10**6, cfg, stream(9, "d"))
        assert abs(xi.mean() - 1.0) <= 4 * (2 / math.sqrt(12)) / 1000

    def test_zero_length(self):
        with pytest.raises(ValueError):
            sample_dither(0, QuantConfig(1.0), stream(0, "d"))

    def test_float_length_rejected(self):
        # a length of 2.5 returned 2 dithers
        with pytest.raises(ValueError, match=r"^dither length must be an integer, got 2\.5$"):
            sample_dither(2.5, QuantConfig(1.0), stream(0, "t"))


class TestSoftDistance:
    def test_no_threshold_between(self):
        assert soft_distance(0.2, 0.8, SoftParam(0.0), QuantConfig(1.0)) == 0.0

    def test_guard_band_suppresses_and_negative_zero_counts(self):
        cfg = QuantConfig(1.0)
        assert soft_distance(0.8, 1.2, SoftParam(0.3), cfg) == 0.0
        assert soft_distance(0.8, 1.2, SoftParam(-0.0), cfg) == 1.0

    def test_relaxed_band_counts_nearby_threshold(self):
        # threshold k=1: a-1 = -0.3 < 0.3 and a'-1 = -0.1 > -0.3
        assert soft_distance(0.7, 0.9, SoftParam(-0.3), QuantConfig(1.0)) == 1.0

    def test_zero_matches_quantizer_everywhere(self):
        rng = stream(2, "test:d0")
        cfg = QuantConfig(0.5)
        soft = SoftParam(0.0)
        vals = rng.uniform(-10, 10, size=2000)
        # include exact lattice points
        vals[::10] = np.round(vals[::10] / cfg.delta) * cfg.delta
        for a, b in zip(vals[::2], vals[1::2]):
            _, qa = quantize(a, cfg)
            _, qb = quantize(b, cfg)
            assert soft_distance(a, b, soft, cfg) == pytest.approx(abs(qa - qb), abs=1e-12)

    def test_brute_force_oracle(self):
        # independent oracle: count thresholds with explicit loops
        rng = stream(3, "test:oracle")
        cfg = QuantConfig(0.7)
        for _ in range(300):
            a, b = rng.uniform(-5, 5, size=2)
            t = rng.uniform(-1.0, 1.0)
            count = 0
            for k in range(-20, 21):
                u, v = a - k * cfg.delta, b - k * cfg.delta
                if (u < -t and v > t) or (u > t and v < -t):
                    count += 1
            assert soft_distance(a, b, SoftParam(t), cfg) == pytest.approx(
                cfg.delta * count, abs=1e-12
            )


def _full_count(a, b, t, delta):
    """Reference: test every candidate threshold between the inputs."""
    pad = math.ceil(abs(t) / delta) + 1
    count = 0
    for k in range(math.floor(min(a, b) / delta) - pad, math.ceil(max(a, b) / delta) + pad + 1):
        u, v = a - k * delta, b - k * delta
        if (u < -t and v > t) or (u > t and v < -t):
            count += 1
    return count


_DELTAS = st.sampled_from([1.0, 0.37, 2.5, 0.05])
_VALUES = st.floats(-40.0, 40.0, allow_nan=False)


class TestThresholdCount:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_VALUES, _VALUES, st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=8),
        _DELTAS,
        st.booleans(),
    )
    @example([(0.0, 10.0, 0.0), (3.0, -3.0, -0.0), (0.5, 0.5, 0.5)], 1.0, True)
    def test_matches_full_enumeration(self, rows, delta, on_lattice):
        a, b, t = (np.array(col) for col in zip(*rows))
        if on_lattice:  # inputs on thresholds, and ties
            a, b = np.round(a) * delta, np.round(b) * delta
        ref = [_full_count(x, y, z, delta) for x, y, z in zip(a, b, t)]
        # per-element t, and each tuple through the scalar entry point;
        # at t = 0 soft_distance follows the quantizer instead, so the
        # 0-d counter stands in for it there
        assert _threshold_count(a, b, t, delta).tolist() == ref
        for x, y, z, r in zip(a, b, t, ref):
            if z != 0.0:
                got = soft_distance(x, y, SoftParam(z), QuantConfig(delta))
            else:
                got = delta * _threshold_count(x, y, z, delta)
            assert got == delta * r

    def test_far_apart_inputs_exact(self):
        cfg = QuantConfig(1.0)
        assert soft_distance(0.0, 1e12, SoftParam(0.1), cfg) == 999999999999.0
        assert soft_distance(1e12, 0.0, SoftParam(-0.1), cfg) == 1e12 + 1
        got = soft_distance_array(np.array([0.0, -5e11]), np.array([1e12, 5e11]), SoftParam(0.1), cfg)
        assert got.tolist() == [999999999999.0, 999999999999.0]

    def test_wide_guard_band_raises(self):
        with pytest.raises(ValueError, match=r"guard band \|t\| / delta exceeds 1024$"):
            soft_distance(0, 1, SoftParam(1e17), QuantConfig(1))
        with pytest.raises(ValueError, match="exceeds 1024"):
            _threshold_count(np.zeros(2), np.ones(2), np.array([0.5, -1024.01]), 1.0)

    @pytest.mark.parametrize("a,b,t,delta", [(0.3, 3000.7, 1023.9, 1.0), (-5.0, 300.0, -511.9, 0.5)])
    def test_guard_band_just_under_the_bound(self, a, b, t, delta):
        assert _threshold_count(a, b, t, delta) == _full_count(a, b, t, delta)
        assert soft_distance(a, b, SoftParam(t), QuantConfig(delta)) == delta * _full_count(a, b, t, delta)

    def test_memory_does_not_grow_with_the_gap(self):
        cfg, soft = QuantConfig(1.0), SoftParam(0.1)
        peaks = []
        for gap in (1e3, 1e9, 1e12):
            tracemalloc.start()
            try:
                soft_distance(0.0, gap, soft, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64 * 1024


# magnitudes around the int64 edge of x / delta, and far beyond it
_EDGE = st.one_of(
    st.floats(-(2.0**66), 2.0**66, allow_nan=False),
    st.integers(-(2**64), 2**64).map(float),
    st.sampled_from([2.0**63, -(2.0**63), 2.0**61, 9.3e18, 1e19, -1e300, 1e300]),
)


class TestInt64Edge:
    """Cell indices that do not fit int64 raise instead of wrapping around."""

    @settings(max_examples=300, deadline=None)
    @given(x=_EDGE, delta=st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
    @example(x=-(2.0**63), delta=1.0)
    @example(x=2.0**63, delta=1.0)
    def test_cell_indices(self, x, delta):
        cell = math.floor(x / delta)
        if -(2**63) <= cell < 2**63:
            assert quantize_with_dither([x], [0.0], QuantConfig(delta)).tolist() == [cell]
        else:
            with pytest.raises(ValueError, match="int64"):
                quantize_with_dither([x], [0.0], QuantConfig(delta))

    def test_cell_indices_reported_cases(self):
        with pytest.raises(ValueError, match="int64"):
            quantize_with_dither([1e19, -1e300, 9.3e18], np.zeros(3), QuantConfig(1.0))

    @settings(max_examples=300, deadline=None)
    @given(x=_EDGE, t=st.floats(-4.0, 4.0, allow_nan=False), delta=st.sampled_from([1.0, 0.5, 3.0]))
    @example(x=1e19, t=0.1, delta=1.0)
    @example(x=1e300, t=0.1, delta=1.0)
    @example(x=2.0**60, t=-0.5, delta=1.0)
    @example(x=3e18, t=0.1, delta=1.0)
    @example(x=-(2.0**63), t=0.1, delta=1.0)
    @example(x=1e300, t=0.0, delta=1.0)
    @example(x=-(2.0**63), t=0.0, delta=1.0)
    def test_soft_distance(self, x, t, delta):
        soft, cfg = SoftParam(t), QuantConfig(delta)
        cell = math.floor(x / delta)
        if not -(2**63) <= cell < 2**63:
            with pytest.raises(ValueError, match="cell indices inside the int64 range"):
                soft_distance(0.0, x, soft, cfg)
            return
        if cell == -(2**63) and t == 0.0:  # no guard band: the edge cell fits
            assert soft_distance(0.0, x, soft, cfg) == 2.0**63 * delta
            return
        if cell == -(2**63):  # the only float cell within the guard band of the edge
            with pytest.raises(ValueError, match="threshold window leaves the int64 range"):
                soft_distance(0.0, x, soft, cfg)
            return
        got = soft_distance(0.0, x, soft, cfg)
        # within the guard bands and the rounding of x - k * delta
        assert abs(got - abs(x)) <= 8 * (delta + abs(t)) + 2.0**-50 * abs(x)

    @pytest.mark.parametrize("x", [3e18, 6e18, -6e18, 2.0**63 - 1024])
    def test_soft_distance_below_the_edge(self, x):
        assert soft_distance(0.0, x, SoftParam(0.1), QuantConfig(1.0)) == abs(x)

    def test_count_past_int64_raises(self):
        # both cells fit, but the 1.8e19 thresholds between them do not
        with pytest.raises(ValueError, match="threshold window leaves the int64 range"):
            soft_distance(-9e18, 9e18, SoftParam(0.1), QuantConfig(1.0))


# dyadic values: multiples of delta / 2**10 whose sums stay exact
_STEPS = st.integers(-(2**40), 2**40)


class TestQuantizerInvariance:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.tuples(_STEPS, st.integers(0, 2**10 - 1)), min_size=1, max_size=16),
        p=st.integers(-10, 10),
        k=st.integers(-(2**30), 2**30),
    )
    def test_shift_by_whole_cells_shifts_codes(self, steps, p, k):
        delta = 2.0**p
        x = np.array([i for i, _ in steps]) * (delta / 2**10)
        dither = np.array([j for _, j in steps]) * (delta / 2**10)
        cfg = QuantConfig(delta)
        codes = quantize_with_dither(x, dither, cfg)
        shifted = quantize_with_dither(x + k * delta, dither, cfg)
        assert np.array_equal(shifted, codes + k)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-1e6, 1e6, allow_subnormal=False), st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)),
            min_size=1,
            max_size=16,
        ),
        delta=st.floats(1e-3, 1e3),
        e=st.integers(-20, 20),
    )
    def test_joint_power_of_two_scaling_keeps_codes(self, pairs, delta, e):
        x = np.array([v for v, _ in pairs])
        dither = np.array([u for _, u in pairs]) * delta
        assume(dither.max() < delta)
        # scaling by 2**e is exact unless a sum lands in the subnormal range
        assume(np.all((x + dither == 0) | (np.abs(x + dither) >= 2.0**-1000)))
        c = 2.0**e
        codes = quantize_with_dither(x, dither, QuantConfig(delta))
        assert np.array_equal(quantize_with_dither(c * x, c * dither, QuantConfig(c * delta)), codes)


class TestPremetrics:
    def test_premetric_examples(self):
        assert premetric([0, 1], [1, 3], 1) == pytest.approx(1.5)
        assert premetric([0, 1], [1, 3], 2) == pytest.approx(2.5)
        x = np.arange(5.0)
        assert premetric(x, x, 3) == 0.0

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    def test_premetric_rejects_bad_power(self, p):
        with pytest.raises(ValueError):
            premetric([1.0], [2.0], p)

    def test_premetric_length_mismatch(self):
        with pytest.raises(ValueError):
            premetric([1.0], [1.0, 2.0], 1)

    def test_soft_premetric_l1_example(self):
        cfg = QuantConfig(1.0)
        got = soft_premetric([0.2, 0.8], [0.8, 1.2], SoftParam(0.0), cfg, "l1")
        assert got == pytest.approx(0.5)

    def test_soft_premetric_l1_identity_and_monotone(self):
        cfg = QuantConfig(1.0)
        rng = stream(4, "test:premetric")
        a = rng.uniform(-4, 4, size=64)
        assert soft_premetric(a, a, SoftParam(0.4), cfg, "l1") == 0.0
        b = rng.uniform(-4, 4, size=64)
        assert soft_premetric(a, b, SoftParam(0.5), cfg, "l1") <= soft_premetric(
            a, b, SoftParam(-0.5), cfg, "l1"
        )

    def test_soft_premetric_l1_matches_quantized_l1_at_zero(self):
        cfg = QuantConfig(0.6)
        rng = stream(5, "test:premetric0")
        a = rng.uniform(-4, 4, size=128)
        b = rng.uniform(-4, 4, size=128)
        qa = cfg.delta * (np.floor(a / cfg.delta) + 0.5)
        qb = cfg.delta * (np.floor(b / cfg.delta) + 0.5)
        assert soft_premetric(a, b, SoftParam(0.0), cfg, "l1") == pytest.approx(
            premetric(qa, qb, 1), rel=1e-12
        )

    def test_soft_premetric_l2_examples(self):
        cfg = QuantConfig(1.0)
        assert soft_premetric([0.2, 0.8], [0.8, 1.2], SoftParam(0.0), cfg, "l2sq") == pytest.approx(0.5)
        a = np.array([0.3, 1.7])
        assert soft_premetric(a, a, SoftParam(0.0), cfg, "l2sq") == 0.0
        assert soft_premetric([1.9], [2.1], SoftParam(0.0), QuantConfig(2.0), "l2sq") == pytest.approx(4.0)

    def test_soft_premetric_l2_matches_quantized_l2_at_zero(self):
        cfg = QuantConfig(0.6)
        rng = stream(6, "test:premetric2")
        a = rng.uniform(-4, 4, size=128)
        b = rng.uniform(-4, 4, size=128)
        qa = cfg.delta * (np.floor(a / cfg.delta) + 0.5)
        qb = cfg.delta * (np.floor(b / cfg.delta) + 0.5)
        assert soft_premetric(a, b, SoftParam(0.0), cfg, "l2sq") == pytest.approx(
            premetric(qa, qb, 2), rel=1e-12
        )

    def test_premetric_circ_examples(self):
        cfg = QuantConfig(1.0)
        soft = SoftParam(0.0)
        assert soft_premetric([[0.2, 1.3]], [[1.3, 1.4]], soft, cfg, "circ") == 0.0
        assert soft_premetric([[0.2, 0.3]], [[1.3, 1.4]], soft, cfg, "circ") == pytest.approx(1.0)
        a = np.array([[0.4, 2.1], [1.0, -0.2]])
        assert soft_premetric(a, a, soft, cfg, "circ") == 0.0

    def test_symmetry_and_permutation_invariance(self):
        cfg = QuantConfig(0.8)
        soft = SoftParam(0.25)
        rng = stream(7, "test:sym")
        a = rng.uniform(-4, 4, size=50)
        b = rng.uniform(-4, 4, size=50)
        perm = rng.permutation(50)
        for mode in ("l1", "l2sq"):
            got = soft_premetric(a, b, soft, cfg, mode)
            assert got == pytest.approx(soft_premetric(b, a, soft, cfg, mode), rel=1e-12)
            assert got == pytest.approx(soft_premetric(a[perm], b[perm], soft, cfg, mode), rel=1e-12)


class TestOneQuantizerLayer:
    """The layers agree through the mode table, and every exported name exists."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES, _VALUES), min_size=1, max_size=16),
        delta=_DELTAS,
    )
    @example(rows=[(0.0, 1.0, -1.0, 2.0)], delta=1.0)
    def test_soft_premetric_at_zero_is_the_code_estimate(self, rows, delta):
        cfg = QuantConfig(delta)
        values = np.array(rows)
        for mode, (layout, _) in _MODES.items():
            cols = _LAYOUT_COLS[layout]
            a, b = values[:, :cols], values[:, 2 : 2 + cols]
            zero = np.zeros(a.shape)
            want = _estimate_from_codes(
                quantize_with_dither(a, zero, cfg), quantize_with_dither(b, zero, cfg), mode, delta
            )
            got = soft_premetric(a, b, SoftParam(0.0), cfg, mode)
            assert math.isclose(got, want, rel_tol=1e-12), mode

    def test_exported_names_resolve(self):
        modules = [importlib.import_module(f"qembed.{info.name}") for info in pkgutil.iter_modules(qembed.__path__)]
        assert len(modules) > 5
        for module in modules:
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"
        tree = ast.parse(Path(qembed.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert imported
        for name in imported:
            assert hasattr(qembed, name), f"qembed/__init__.py imports {name}"


class TestDeterministicBounds:
    """Randomized no-violation suites for the perturbation sandwich and
    the guard-band difference bounds."""

    N = 100_000

    def _tuples(self):
        rng = stream(10, "test:bounds")
        a = rng.uniform(-3, 3, size=self.N)
        b = rng.uniform(-3, 3, size=self.N)
        t = rng.uniform(-1.5, 1.5, size=self.N)
        t[::5] = 0.0  # exercise the strict zero case explicitly
        return rng, a, b, t

    def test_sandwich(self):
        rng, a, b, t = self._tuples()
        eps = rng.uniform(0, 1, size=self.N)
        r1 = rng.uniform(-1, 1, size=self.N) * eps
        r2 = rng.uniform(-1, 1, size=self.N) * eps
        mid = _threshold_count(a + r1, b + r2, t, 1.0)
        hi = _threshold_count(a, b, t - eps, 1.0)
        lo = _threshold_count(a, b, t + eps, 1.0)
        assert int(np.count_nonzero((lo > mid) | (mid > hi))) == 0

    def test_guard_band_shift_bound(self):
        rng, a, b, t = self._tuples()
        s = rng.uniform(-1.5, 1.5, size=self.N)
        gap = np.abs(_threshold_count(a, b, t, 1.0) - _threshold_count(a, b, s, 1.0))
        assert int(np.count_nonzero(gap > 4 * (1.0 + np.abs(t - s)) + 1e-12)) == 0

    def test_soft_vs_true_gap_bound(self):
        _, a, b, t = self._tuples()
        gap = np.abs(_threshold_count(a, b, t, 1.0) - np.abs(a - b))
        assert int(np.count_nonzero(gap > 4 * (1.0 + np.abs(t)) + 1e-12)) == 0

    def test_monotone_in_t(self):
        _, a, b, t = self._tuples()
        hi = _threshold_count(a, b, -np.abs(t), 1.0)
        lo = _threshold_count(a, b, np.abs(t), 1.0)
        mid = soft_distance_array(a, b, SoftParam(0.0), QuantConfig(1.0))
        assert int(np.count_nonzero(lo > hi)) == 0
        # the quantizer-tied zero-band count sits inside the chain
        assert int(np.count_nonzero(lo > mid)) == 0
        assert int(np.count_nonzero(mid > hi)) == 0


class TestDitherIdentities:
    def test_mean_gap_unbiased(self):
        # averaging the dithered quantized gap recovers |a - a'|
        rng = stream(11, "test:dither-mean")
        cfg = QuantConfig(1.0)
        n = 10**6
        xi = rng.uniform(0, 1, size=n)
        a, b = 0.13, 0.92
        gaps = np.abs(np.floor(a + xi) - np.floor(b + xi))
        assert abs(gaps.mean() - abs(a - b)) <= 4 * 0.5 / math.sqrt(n)

    def test_guarded_mean_bound(self):
        # |E d^t(a+xi, a'+xi) - |a-a'|| <= 4|t|, with an MC margin
        rng = stream(12, "test:guarded-mean")
        n = 200_000
        for t in (0.15, -0.3):
            a, b = 0.4, 1.7
            xi = rng.uniform(0, 1, size=n)
            vals = _threshold_count(a + xi, b + xi, np.full(n, t), 1.0)
            margin = 4 * vals.std() / math.sqrt(n)
            assert abs(vals.mean() - abs(a - b)) <= 4 * abs(t) + margin

    def test_small_gap_second_moment(self):
        # E (d^0)^2 = delta * |a - a'| when the gap is below one cell
        rng = stream(13, "test:smallgap")
        delta, gap = 1.0, 0.4
        n = 10**6
        xi = rng.uniform(0, delta, size=n)
        d0 = delta * np.abs(np.floor((0.2 + gap + xi) / delta) - np.floor((0.2 + xi) / delta))
        mean_sq = float((d0 * d0).mean())
        assert abs(mean_sq - delta * gap) <= 0.01 * delta * gap

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed import (
    CodeBlock,
    QuantConfig,
    build,
    build_rop,
    deserialize,
    embed,
    embed_bidither,
    embed_rop,
    estimate_distance,
    measure_qrip,
    sample_dither,
    serialize,
    sparse,
)
from qembed.embeddings import HEADER_SIZE, _estimate_from_codes, _PairKernel, quantize_with_dither
from qembed.linops import LinOp, RopOp
from qembed.modelsets import sample_point
from qembed.rng import stream


def _identity_expander():
    op = build("expander", 2, 2, seed=0, degree=1)
    op.neighbors = np.array([[0], [1]])
    return op


class TestEmbed:
    def test_identity_example(self):
        op = _identity_expander()
        cfg = QuantConfig(1.0)
        block = embed(op, np.array([0.2, 0.7]), np.array([0.1, 0.6]), cfg)
        assert block.layout == "single"
        assert np.array_equal(block.codes[:, 0], [0, 1])
        assert np.allclose(block.values[:, 0], [0.5, 1.5])

    def test_zero_input_zero_dither(self):
        op = build("gaussian", 6, 3, seed=1)
        cfg = QuantConfig(0.5)
        block = embed(op, np.zeros(3), np.zeros(6), cfg)
        assert np.array_equal(block.codes, np.zeros((6, 1)))
        assert np.allclose(block.values, 0.25)

    def test_deterministic(self):
        op = build("gaussian", 6, 3, seed=2)
        cfg = QuantConfig(1.0)
        x = stream(3, "t").standard_normal(3)
        xi = sample_dither(6, cfg, stream(4, "t"))
        assert embed(op, x, xi, cfg) == embed(op, x, xi, cfg)

    def test_dither_validation(self):
        op = build("gaussian", 4, 3, seed=5)
        cfg = QuantConfig(1.0)
        with pytest.raises(ValueError):
            embed(op, np.zeros(3), np.full(4, 1.5), cfg)
        with pytest.raises(ValueError):
            embed(op, np.zeros(3), np.full(3, 0.5), cfg)

    def test_layout_follows_dither_shape(self):
        op = build("gaussian", 6, 3, seed=2)
        cfg = QuantConfig(0.5)
        x = stream(3, "t").standard_normal(3)
        xi = sample_dither(6, cfg, stream(4, "t"))
        assert embed(op, x, xi[:, None], cfg) == embed(op, x, xi, cfg)
        xi2 = np.column_stack([xi, sample_dither(6, cfg, stream(5, "t"))])
        block = embed(op, x, xi2, cfg)
        assert block.layout == "bidither"
        assert block == embed_bidither(op, x, xi2, cfg)

    @pytest.mark.parametrize("shape", [(6, 3), (7,), (6, 2, 1)])
    def test_bad_dither_shape_rejected(self, shape):
        op = build("gaussian", 6, 3, seed=2)
        with pytest.raises(ValueError, match=r"^dither must have shape .*got \(") as err:
            embed(op, np.zeros(3), np.zeros(shape), QuantConfig(1.0))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**63, -(2.0**64)])
    def test_unquantizable_measurements_rejected(self, bad):
        cfg = QuantConfig(1.0)
        with pytest.raises(ValueError, match="finite"):
            quantize_with_dither(np.array([0.0, bad]), np.zeros(2), cfg)
        op = _identity_expander()
        with pytest.raises(ValueError, match="finite"):
            embed(op, np.array([0.0, bad]), np.zeros(2), cfg)

    @pytest.mark.parametrize("family", ["gaussian", "subsampled_hadamard", "random_convolution", "rop"])
    def test_overflowing_measurements_raise_without_warning(self, family):
        # the measurements overflow float64 and fail the quantizer's check
        if family == "rop":
            op, x = build_rop(4, 2, 2, seed=3, kappa=1e308), np.array([1.0, 2.0, 3.0, 4.0])
        else:
            op, x = build(family, 4, 4, seed=3), np.full(4, 1e308)
        for cols in (1, 2):
            with pytest.raises(ValueError, match="finite") as err:
                embed(op, x, np.zeros((4, cols)), QuantConfig(1.0))
            assert "\n" not in str(err.value)

    def test_int64_edge_cells_accepted(self):
        # -2**63 is the lowest int64 cell index; 2**63 - 1024 the largest double below 2**63
        codes = quantize_with_dither(np.array([-(2.0**63), 2.0**63 - 1024]), np.zeros(2), QuantConfig(1.0))
        assert codes.tolist() == [-(2**63), 2**63 - 1024]


class TestEmbedBidither:
    def test_scalar_example(self):
        op = _identity_expander()
        cfg = QuantConfig(1.0)
        xi = np.array([[0.1, 0.95], [0.0, 0.0]])
        block = embed_bidither(op, np.array([0.2, 0.0]), xi, cfg)
        assert block.layout == "bidither"
        assert np.allclose(block.values[0], [0.5, 1.5])

    def test_equal_columns_give_equal_codes(self):
        op = build("gaussian", 8, 4, seed=6)
        cfg = QuantConfig(1.0)
        col = sample_dither(8, cfg, stream(7, "t"))
        block = embed_bidither(op, np.ones(4), np.column_stack([col, col]), cfg)
        assert np.array_equal(block.codes[:, 0], block.codes[:, 1])

    def test_product_estimate_unbiased_for_squared_gap(self):
        # MC over fresh two-column dithers: the product estimate matches
        # the squared measurement gap within 4 sigma
        op = build("gaussian", 256, 16, seed=8)
        cfg = QuantConfig(1.0)
        rng = stream(9, "t")
        x = rng.standard_normal(16)
        x_prime = x + 0.2 * rng.standard_normal(16)
        target = np.mean((op.matvec(x) - op.matvec(x_prime)) ** 2)
        trials = 400
        ests = np.empty(trials)
        for t in range(trials):
            drng = stream(10, "t", t)
            xi = np.column_stack([sample_dither(256, cfg, drng), sample_dither(256, cfg, drng)])
            ca = embed_bidither(op, x, xi, cfg)
            cb = embed_bidither(op, x_prime, xi, cfg)
            ests[t] = estimate_distance(ca, cb, "circ")
        margin = 4 * ests.std(ddof=1) / math.sqrt(trials)
        assert abs(ests.mean() - target) <= margin


class TestEmbedRop:
    def test_zero_matrix_zero_dither(self):
        op = build_rop(5, 3, 3, seed=11)
        cfg = QuantConfig(1.0)
        block = embed_rop(op, np.zeros((3, 3)), np.zeros(5), cfg)
        assert np.allclose(block.values[:, 0], 0.5)

    def test_kappa_scales_argument(self):
        op = RopOp(np.array([[1.0]]), np.array([[1.0]]), seed=12, kappa=2.0)
        cfg = QuantConfig(1.0)
        block = embed_rop(op, np.array([[0.3]]), np.array([0.05]), cfg)
        assert block.codes[0, 0] == 0  # floor(2 * 0.3 + 0.05) = 0

    def test_bidither_layout(self):
        op = build_rop(6, 4, 3, seed=13)
        cfg = QuantConfig(0.5)
        u = stream(14, "t").standard_normal((4, 3))
        xi = sample_dither(12, cfg, stream(15, "t")).reshape(6, 2)
        block = embed_rop(op, u, xi, cfg)
        assert block.layout == "bidither"
        assert block == embed(op, u.ravel(), xi, cfg)

    def test_deterministic(self):
        op = build_rop(6, 4, 3, seed=13)
        cfg = QuantConfig(0.5)
        u = stream(14, "t").standard_normal((4, 3))
        xi = sample_dither(6, cfg, stream(15, "t"))
        assert embed_rop(op, u, xi, cfg) == embed_rop(op, u, xi, cfg)

    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(1, 24),
        n2=st.integers(1, 24),
        m=st.integers(1, 96),
        log_kappa=st.floats(-3, 3),
        log_scale=st.floats(-3, 3),
        log_delta=st.one_of(st.floats(-13, 1), st.floats(-13, -12)),
        cols=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_codes_are_the_einsum_codes(self, n1, n2, m, log_kappa, log_scale, log_delta, cols, seed):
        # the certified codes, or the fallback's, equal the codes of the einsum
        # value, or both raise the same error (cells past int64 at tiny delta);
        # delta in [1e-13, 1e-12] makes ambiguous brackets, and the fallback, common
        op = build_rop(m, n1, n2, seed=seed, kappa=10.0**log_kappa)
        cfg = QuantConfig(10.0**log_delta)
        gen = stream(seed, "test:rop-differential")
        u = gen.standard_normal((n1, n2)) * 10.0**log_scale
        xi = sample_dither(m * cols, cfg, gen).reshape(m, cols)
        y = op.matvec(u.ravel())

        def outcome(codes):
            try:
                return codes().tolist()
            except ValueError as exc:
                return str(exc)

        want = outcome(lambda: quantize_with_dither(np.broadcast_to(y[:, None], (m, cols)), xi, cfg))
        assert outcome(lambda: embed_rop(op, u, xi, cfg).codes) == want

    @pytest.mark.parametrize("delta,fallbacks", [(0.5, 0), (1e-13, 1)])
    def test_fallback_runs_only_when_a_bracket_is_ambiguous(self, monkeypatch, delta, fallbacks):
        calls = []

        def spy(op, x):
            calls.append(op.family)
            return LinOp.matvec(op, x)

        monkeypatch.setattr(RopOp, "matvec", spy)
        op = build_rop(1024, 64, 64, seed=16)
        cfg = QuantConfig(delta)
        gen = stream(17, "test:rop-fallback")
        u = gen.standard_normal((64, 64))
        for cols in (1, 2):
            calls.clear()
            xi = sample_dither(1024 * cols, cfg, gen).reshape(1024, cols)
            block = embed_rop(op, u, xi, cfg)
            assert calls == ["rop"] * fallbacks
            y = LinOp.matvec(op, u.ravel())
            assert np.array_equal(block.codes, quantize_with_dither(np.broadcast_to(y[:, None], xi.shape), xi, cfg))

    def test_bracket_past_the_int64_edge_falls_back(self):
        # y = 2**63 - 1024 is the largest double below 2**63: its cell fits
        # int64, y + e does not, so the exact path quantizes y itself
        op = RopOp(np.array([[1.0]]), np.array([[1.0]]), seed=0, kappa=1.0)
        block = embed_rop(op, np.array([[2.0**63 - 1024]]), np.zeros(1), QuantConfig(1.0))
        assert block.codes.tolist() == [[2**63 - 1024]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
    def test_unquantizable_input_rejected(self, bad):
        op = build_rop(8, 2, 3, seed=18)
        cfg = QuantConfig(1.0)
        u = np.ones((2, 3))
        u[1, 2] = bad
        for cols in (1, 2):
            xi = np.zeros((8, cols))
            with pytest.raises(ValueError) as want:
                quantize_with_dither(np.broadcast_to(op.matvec(u.ravel())[:, None], xi.shape), xi, cfg)
            with pytest.raises(ValueError) as got:
                embed_rop(op, u, xi, cfg)
            assert str(got.value) == str(want.value) and "finite" in str(got.value)
            assert "\n" not in str(got.value)


class TestEstimateDistance:
    def test_identical_blocks_zero(self):
        op = build("gaussian", 8, 4, seed=16)
        cfg = QuantConfig(1.0)
        x = stream(17, "t").standard_normal(4)
        xi = sample_dither(8, cfg, stream(18, "t"))
        c = embed(op, x, xi, cfg)
        assert estimate_distance(c, c, "l1") == 0.0
        assert estimate_distance(c, c, "l2sq") == 0.0
        xi2 = np.column_stack([xi, xi])
        cb = embed_bidither(op, x, xi2, cfg)
        assert estimate_distance(cb, cb, "circ") == 0.0

    def test_small_examples(self):
        mk = lambda idx: CodeBlock(1.0, np.array(idx)[:, None])
        a, b = mk([0, 1]), mk([1, 1])
        assert estimate_distance(a, b, "l1") == pytest.approx(0.5)
        assert estimate_distance(a, b, "l2sq") == pytest.approx(0.5)
        ca = CodeBlock(1.0, np.array([[0, 1]]))
        cb = CodeBlock(1.0, np.array([[1, 1]]))
        assert estimate_distance(ca, cb, "circ") == 0.0

    @pytest.mark.parametrize("mode,delta", [("l1", 1e308), ("l2sq", 1e200), ("circ", 1e200)])
    def test_estimate_that_overflows_float64_raises(self, mode, delta):
        # delta * delta overflows at 1e200: equal codes would give inf * 0 = nan
        cols = 2 if mode == "circ" else 1
        a = CodeBlock(delta, np.zeros((2, cols)))
        for gap in [4] if mode == "l1" else [0, 4]:
            b = CodeBlock(delta, np.full((2, cols), gap))
            with pytest.raises(ValueError, match="overflows float64") as err:
                estimate_distance(a, b, mode)
            assert "\n" not in str(err.value)

    def test_incomparable_blocks(self):
        a = CodeBlock(1.0, np.zeros((2, 1), dtype=int))
        b = CodeBlock(1.0, np.zeros((3, 1), dtype=int))
        c = CodeBlock(0.5, np.zeros((2, 1), dtype=int))
        with pytest.raises(ValueError):
            estimate_distance(a, b, "l1")
        with pytest.raises(ValueError):
            estimate_distance(a, c, "l1")

    @pytest.mark.parametrize("entry", ["measure_qrip", "estimate_distance", "_estimate_from_codes", "_PairKernel"])
    def test_unknown_mode_message(self, entry):
        block = CodeBlock(1.0, np.zeros((2, 1), dtype=int))
        calls = {
            "measure_qrip": lambda: measure_qrip(
                build("gaussian", 4, 4, seed=0), sparse(1, 4), "l3", QuantConfig(1.0), [0.5], 1, 1, seed=0
            ),
            "estimate_distance": lambda: estimate_distance(block, block, "l3"),
            "_estimate_from_codes": lambda: _estimate_from_codes(block.codes, block.codes, "l3", 1.0),
            "_PairKernel": lambda: _PairKernel("l3", QuantConfig(1.0)),
        }
        with pytest.raises(ValueError) as err:
            calls[entry]()
        assert str(err.value) == "unknown mode 'l3'; choose l1, l2sq or circ"

    def test_wrong_layout_for_mode(self):
        single = CodeBlock(1.0, np.zeros((2, 1), dtype=int))
        bid = CodeBlock(1.0, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            estimate_distance(single, single, "circ")
        with pytest.raises(ValueError):
            estimate_distance(bid, bid, "l1")

    def test_triangle_baseline(self):
        # |estimate - (1/m)||Phi(x - x')||_1| <= delta, deterministically,
        # because each reconstruction sits within half a cell of its input
        cfg = QuantConfig(0.7)
        op = build("gaussian", 64, 16, seed=19)
        rng = stream(20, "t")
        for trial in range(20):
            x = rng.standard_normal(16)
            x_prime = rng.standard_normal(16)
            xi = sample_dither(64, cfg, rng)
            est = estimate_distance(embed(op, x, xi, cfg), embed(op, x_prime, xi, cfg), "l1")
            lin = np.mean(np.abs(op.matvec(x) - op.matvec(x_prime)))
            assert abs(est - lin) <= cfg.delta + 1e-12

    def test_dither_mean_matches_linear_l1(self):
        # expectation over fresh dithers equals the linear premetric
        cfg = QuantConfig(1.0)
        op = build("gaussian", 128, 8, seed=21)
        rng = stream(22, "t")
        x, x_prime = rng.standard_normal((2, 8))
        target = np.mean(np.abs(op.matvec(x) - op.matvec(x_prime)))
        trials = 600
        ests = np.empty(trials)
        for t in range(trials):
            xi = sample_dither(128, cfg, stream(23, "t", t))
            ests[t] = estimate_distance(embed(op, x, xi, cfg), embed(op, x_prime, xi, cfg), "l1")
        margin = 4 * ests.std(ddof=1) / math.sqrt(trials)
        assert abs(ests.mean() - target) <= margin

    def test_small_gap_l2sq_mean(self):
        # below one cell per coordinate, the mean squared estimate equals
        # delta times the linear l1 premetric
        cfg = QuantConfig(1.0)
        op = build("gaussian", 128, 8, seed=24)
        rng = stream(25, "t")
        x = rng.standard_normal(8)
        x_prime = x + 0.02 * rng.standard_normal(8)
        gap = op.matvec(x) - op.matvec(x_prime)
        assert np.abs(gap).max() < cfg.delta
        target = cfg.delta * np.mean(np.abs(gap))
        trials = 600
        ests = np.empty(trials)
        for t in range(trials):
            xi = sample_dither(128, cfg, stream(26, "t", t))
            ests[t] = estimate_distance(embed(op, x, xi, cfg), embed(op, x_prime, xi, cfg), "l2sq")
        margin = 4 * ests.std(ddof=1) / math.sqrt(trials)
        assert abs(ests.mean() - target) <= margin


class TestOneBitRegime:
    def test_two_indices_per_coordinate(self):
        # resolution at twice the l1 diameter turns each coordinate into
        # a two-valued (sign-like) code
        op = build("expander", 128, 64, seed=27, degree=4)
        radius_l1 = 2.0  # unit-l2 4-sparse vectors have ||x||_1 <= 2
        cfg = QuantConfig(2 * radius_l1)
        xi = sample_dither(op.m, cfg, stream(28, "t"))
        rng = stream(29, "t")
        codes = np.empty((300, op.m), dtype=np.int64)
        for i in range(300):
            x = sample_point(sparse(4, 64), rng)
            codes[i] = embed(op, x, xi, cfg).codes[:, 0]
        distinct = max(len(np.unique(codes[:, j])) for j in range(op.m))
        assert distinct <= 2


class TestSerialization:
    def test_roundtrip_field_by_field(self):
        rng = stream(30, "t")
        for trial in range(25):
            layout = "single" if trial % 2 == 0 else "bidither"
            m = int(rng.integers(1, 50))
            cols = 1 if layout == "single" else 2
            codes = rng.integers(-(2**20), 2**20, size=(m, cols))
            block = CodeBlock(float(rng.uniform(0.1, 3.0)), codes,
                              op_seed=int(rng.integers(0, 2**30)),
                              dither_seed=int(rng.integers(0, 2**30)))
            assert deserialize(serialize(block)) == block

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        layout=st.sampled_from(["single", "bidither"]),
        bits=st.sampled_from([8, 16, 32]),
        m=st.integers(1, 16),
        delta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        op_seed=st.integers(-(2**70), 2**70),
        dither_seed=st.integers(-(2**70), 2**70),
    )
    def test_every_in_range_block_roundtrips(self, data, layout, bits, m, delta, op_seed, dither_seed):
        cols = 1 if layout == "single" else 2
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        values = data.draw(st.lists(st.integers(lo, hi), min_size=m * cols, max_size=m * cols))
        block = CodeBlock(delta, np.array(values).reshape(m, cols),
                          op_seed=op_seed, dither_seed=dither_seed)
        back = deserialize(serialize(block))
        assert back == block
        assert (back.m, back.layout) == (block.m, block.layout) == (m, layout)
        # seeds are stored as rng.stream reads them: folded into u64
        assert (back.op_seed, back.dither_seed) == (op_seed % 2**64, dither_seed % 2**64)
        assert serialize(back) == serialize(block)

    def test_empty_blocks_rejected(self):
        for cols in (1, 2):
            with pytest.raises(ValueError, match="m >= 1"):
                CodeBlock(1.0, np.zeros((0, cols), dtype=np.int64))
        header = bytearray(serialize(CodeBlock(1.0, np.zeros((1, 1), dtype=np.int64)))[:HEADER_SIZE])
        header[8:16] = (0).to_bytes(8, "little")
        with pytest.raises(ValueError, match="m >= 1"):
            deserialize(bytes(header))

    @pytest.mark.parametrize("codes", [
        np.array([[1.5]]),
        np.array([[math.nan]]),
        np.array([[1e300]]),
        np.array([[-math.inf]]),
        np.array([[2**63]], dtype=np.uint64),
        np.array([[2**70]], dtype=object),
        np.array([[0.5]], dtype=object),
        np.array([["1"]]),
    ], ids=["half", "nan", "1e300", "-inf", "uint64-2**63", "object-2**70", "object-float", "text"])
    def test_non_integer_codes_rejected(self, codes):
        # 1.5 became 1; NaN, 1e300 and uint64 2**63 became -2**63; 2**70 raised OverflowError
        with pytest.raises(ValueError, match="^codes must be integers") as info:
            CodeBlock(1.0, codes)
        assert "\n" not in str(info.value)

    def test_integer_valued_codes_of_any_dtype_pass(self):
        want = np.array([[-(2**63)], [0], [2**63 - 1]])
        for codes in (want.astype(object), want[:2].astype(np.float64), np.array([[2**63 - 1]], dtype=np.uint64), [[True]]):
            got = CodeBlock(1.0, codes).codes
            assert got.dtype == np.int64 and np.array_equal(got, np.asarray(codes, dtype=object))
        # an int64 array is taken as it is
        assert CodeBlock(1.0, want).codes is want

    @pytest.mark.parametrize("seed", [1.5, "x", None])
    def test_non_integer_seeds_rejected(self, seed):
        # op_seed=1.5 was accepted and made serialize raise struct.error; "x" raised a TypeError
        for name in ("op_seed", "dither_seed"):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got ") as info:
                CodeBlock(1.0, np.zeros((2, 1), dtype=np.int64), **{name: seed})
            assert "\n" not in str(info.value)

    def test_header_is_40_bytes(self):
        block = CodeBlock(1.0, np.array([[0], [1]]))
        data = serialize(block)
        assert len(data) == HEADER_SIZE + 2  # i8 payload
        assert data[:4] == b"QEMB"

    @pytest.mark.parametrize(
        "lo,hi,width",
        [
            (-3, 5, 0),
            (-128, 127, 0),
            (-129, 0, 1),
            (0, 128, 1),
            (-32768, 32767, 1),
            (0, 32768, 2),
            (-32769, 0, 2),
            (-(2**31), 2**31 - 1, 2),
        ],
    )
    def test_width_selection(self, lo, hi, width):
        block = CodeBlock(1.0, np.array([[lo], [hi]]))
        assert serialize(block)[6] == width

    def test_width_overflow(self):
        block = CodeBlock(1.0, np.array([[2**31]]))
        with pytest.raises(ValueError):
            serialize(block)

    def test_bad_streams(self):
        block = CodeBlock(1.0, np.arange(4)[:, None])
        good = serialize(block)
        with pytest.raises(ValueError):
            deserialize(b"XEMB" + good[4:])  # bad magic
        with pytest.raises(ValueError):
            deserialize(good[:4] + b"\x63" + good[5:])  # unsupported version
        with pytest.raises(ValueError):
            deserialize(good[:-1])  # truncated payload
        with pytest.raises(ValueError):
            deserialize(good[:10])  # truncated header

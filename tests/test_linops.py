import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from expander_draw_check import check as check_draws
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qembed import QuantConfig, build, build_rop, cli, embed_rop, linops
from qembed.linops import LinOp, RopOp, circular_convolve_counted, fwht_counted
from qembed.rng import stream

ALL_FAMILIES = [
    ("gaussian", {}),
    ("gaussian", {"rip": (1, 2)}),
    ("bernoulli", {}),
    ("subsampled_hadamard", {}),
    ("random_convolution", {}),
    ("expander", {"degree": 4}),
]


def _identity_expander():
    """2x2 identity as a degree-1 expander (explicit neighborhoods)."""
    op = build("expander", 2, 2, seed=0, degree=1)
    op.neighbors = np.array([[0], [1]])
    return op


class TestBuildAndMatvec:
    @pytest.mark.parametrize("family,opts", ALL_FAMILIES)
    def test_dense_matches_matvec(self, family, opts):
        for n in (16, 64, 512):
            if family == "expander" and opts["degree"] > n // 4:
                continue
            m = min(n, 32)
            op = build(family, m, n, seed=3, **opts)
            dense = op.dense()
            rng = stream(4, "test:dense", n)
            for _ in range(20):
                x = rng.standard_normal(n)
                ref = dense @ x
                got = op.matvec(x)
                assert np.allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("family,opts", ALL_FAMILIES)
    def test_linearity(self, family, opts):
        n, m = 64, 32
        op = build(family, m, n, seed=5, **opts)
        rng = stream(6, "test:linear")
        x, y = rng.standard_normal((2, n))
        a, b = 1.7, -0.4
        lhs = op.matvec(a * x + b * y)
        rhs = a * op.matvec(x) + b * op.matvec(y)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
        assert np.allclose(op.matvec(np.zeros(n)), 0.0)

    @pytest.mark.parametrize("family,opts", ALL_FAMILIES)
    def test_deterministic(self, family, opts):
        a = build(family, 16, 32, seed=9, **opts)
        b = build(family, 16, 32, seed=9, **opts)
        x = stream(7, "test:det").standard_normal(32)
        assert np.array_equal(a.matvec(x), b.matvec(x))

    def test_output_length_and_mismatch(self):
        op = build("gaussian", 8, 4, seed=0)
        assert op.matvec(np.ones(4)).shape == (8,)
        with pytest.raises(ValueError):
            op.matvec(np.ones(5))

    def test_identity_expander_example(self):
        op = _identity_expander()
        assert np.allclose(op.dense(), np.eye(2))
        assert np.allclose(op.matvec(np.array([3.0, -2.0])), [3.0, -2.0])

    def test_hadamard_first_row_example(self):
        # n=2, selected row 0, signs (+1, +1): the dense row is (1, 1)
        op = build("subsampled_hadamard", 1, 2, seed=12)
        op = _force_hadamard(op, rows=[0], signs=[1.0, 1.0])
        assert np.allclose(op.dense(), [[1.0, 1.0]])
        y = op.matvec(np.array([1.0, 0.0]))
        assert np.allclose(y, [1.0])
        x = np.array([1.0, 0.0])
        assert (op.mu**2 / op.m) * np.sum(y**2) == pytest.approx(np.sum(x**2))

    @pytest.mark.parametrize("make,name", [
        (lambda: build("gaussian", 8.7, 4, seed=1), "m"),
        (lambda: build("subsampled_hadamard", 4, 16.0, seed=1), "n"),
        (lambda: build("expander", 8, 4, seed=1, degree=2.5), "degree"),
        (lambda: build_rop(4.5, 2, 2, seed=1), "m"),
        (lambda: build_rop(4, 2, 2.0, seed=1), "n2"),
        (lambda: linops.GaussianOp(8, 4.5, 1, mu=1.0, rip_profile=(2, 2)), "n"),
        (lambda: build("gaussian", 4, 4, seed=1.7), "seed"),
        (lambda: build_rop(4, 2, 2, seed=0.5), "seed"),
    ])
    def test_non_integer_dimension_rejected(self, make, name):
        # build("gaussian", 8.7, ...) had m = 8, degree=2.5 had d = 2, build_rop(4.5, ...) raised a TypeError
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            make()

    def test_numpy_integer_dimensions_pass(self):
        op = build("expander", np.int64(8), np.int32(4), seed=1, degree=np.int64(2))
        assert (op.m, op.n, op.degree) == (8, 4, 2) and all(type(v) is int for v in (op.m, op.n, op.degree))
        assert np.array_equal(op.dense(), build("expander", 8, 4, seed=1, degree=2).dense())
        assert build_rop(np.int64(4), np.int64(2), np.int64(2), seed=1).n == 4

    def test_build_errors(self):
        with pytest.raises(ValueError):
            build("subsampled_hadamard", 4, 12, seed=0)  # n not a power of two
        with pytest.raises(ValueError):
            build("expander", 4, 8, seed=0, degree=5)  # d > m
        with pytest.raises(ValueError):
            build("expander", 4, 8, seed=0)  # degree missing
        with pytest.raises(ValueError):
            build("gaussian", 4, 8, seed=0, rip=(3, 2))
        with pytest.raises(ValueError):
            build("nonsense", 4, 8, seed=0)

    def test_gaussian_profiles(self):
        op = build("gaussian", 8, 4, seed=1)
        assert op.rip_profile == (2.0, 2.0) and op.mu == 1.0
        op = build("gaussian", 8, 4, seed=1, rip=(1, 2))
        assert op.rip_profile == (1.0, 2.0)
        assert op.mu == pytest.approx(math.sqrt(math.pi / 2))

    def test_gaussian_blockwise_matches_cached(self):
        # streamed row blocks must reproduce the cached dense layout
        op = build("gaussian", 100, 16, seed=14)
        rows = op._rows(37, 85)
        assert np.array_equal(rows, op.dense()[37:85])


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of dense() for (family, m, n, seed); m is not a multiple of the
# 64-row stream block, so the last block is partial
DENSE_GOLDENS = {
    ("gaussian", 1000, 300, 7): "c1d62c8ff9c20fa111cf67ef9a068e2ba26d71f6f1bb172ed13e14973ce9f3fd",
    ("bernoulli", 1000, 300, 7): "d535ecd4a4cecadf727d199b1579d3db31c0940ff18baa3926851d1ed63a6f87",
    ("gaussian", 130, 77, 3): "53a792b10559f77c6fede111739275a943d6668bf236b9899e3fb100fb3d6525",
    ("bernoulli", 130, 77, 3): "149b2d8f2676d191e972862724527191d55601cdb6d476f2b284ff11f1abfef5",
}

class TestDenseBuild:
    @pytest.mark.parametrize("key", sorted(DENSE_GOLDENS))
    def test_dense_matches_golden(self, key):
        family, m, n, seed = key
        dense = build(family, m, n, seed=seed).dense()
        assert dense.shape == (m, n)
        assert _sha256(dense) == DENSE_GOLDENS[key]

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_unaligned_row_slices(self, family):
        op = build(family, 1000, 300, seed=7)
        dense = op.dense()
        for start, stop in [(0, 1), (1, 2), (63, 65), (64, 128), (37, 85), (130, 900), (960, 1000), (999, 1000), (0, 1000)]:
            rows = op._rows(start, stop)
            assert rows.shape == (stop - start, 300)
            assert np.array_equal(rows, dense[start:stop])

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_streamed_path_matches_golden(self, family, monkeypatch):
        # above the ceiling the rows stream, here in 64-row slabs with the
        # last one (896..1000) holding the product's last block whole;
        # the parent streamed 3-row slices, whose rows lost the bits of
        # the cached operator's product
        x = np.linspace(-1.0, 1.0, 300)
        want = build(family, 1000, 300, seed=7).matvec(x)
        monkeypatch.setattr(linops, "_DENSE_CACHE_MAX", 1000)
        monkeypatch.setattr(linops, "_SLAB_ENTRIES", 1000)
        op = build(family, 1000, 300, seed=7)
        dense = op.dense()
        assert op._cache is None
        assert _sha256(dense) == DENSE_GOLDENS[(family, 1000, 300, 7)]
        got = op.matvec(x)
        assert got.tobytes() == want.tobytes()
        assert np.allclose(got, dense @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_build_holds_one_copy(self, family, monkeypatch):
        # a build draws nothing; the first matvec maps the cache, one
        # mapping of m*n entries, 8 bytes each for gaussian and 1 for
        # bernoulli's int8, which tracemalloc does not see.  A bernoulli
        # product widens the cache one float64 piece at a time, on the
        # heap, and dense() maps a float64 copy; any numpy copy of a tenth
        # of the float64 matrix beyond that piece would show in the peak
        m, n = 2048, 256
        width = {"gaussian": 8, "bernoulli": 1}[family]
        piece = 0 if width == 8 else linops._WIDEN_ENTRIES * 8  # whole 8-row groups of 256 entries
        x = np.linspace(-1.0, 1.0, n)
        build(family, m, n, seed=0).matvec(x)  # warm-up: first-call allocations
        mapped = []
        row_buffer = linops._row_buffer

        def spy(rows, cols, dtype=np.float64):
            mapped.append(rows * cols * np.dtype(dtype).itemsize)
            return row_buffer(rows, cols, dtype)

        monkeypatch.setattr(linops, "_row_buffer", spy)
        op = build(family, m, n, seed=1)
        assert mapped == [] and op._cache is None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op.matvec(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert mapped == [m * n * width]
        assert peak <= 0.1 * m * n * 8 + piece
        assert op._cache.shape == (m, n) and op._cache.itemsize == width
        op.matvec(x)
        op.dense()
        assert mapped == [m * n * width] + ([] if width == 8 else [m * n * 8])  # built once

    def test_caches_live_in_their_own_mapping(self):
        # a mapping is unmapped when its operator goes away; heap buffers of
        # changing sizes fragmented the heap across decay sweeps
        big, small = build("gaussian", 2048, 256, seed=1), build("gaussian", 256, 256, seed=1)
        x = np.linspace(-1.0, 1.0, 256)
        big.matvec(x)
        small.dense()
        for op in (big, small):
            assert _mapping_bytes(op._cache) == op.m * op.n * 8  # exactly one copy of the matrix
            assert not op._cache.flags.writeable
        assert np.array_equal(big.dense()[:256], small.dense())
        assert np.array_equal(big.matvec(x), big.dense() @ x)

    @pytest.mark.parametrize("m, n", [(1, 8), (63, 10), (130, 50), (1000, 300), (2048, 256)])
    def test_bernoulli_caches_hold_int8(self, m, n):
        # +-1 entries, one byte each, in a mapping of m*n bytes: no
        # bernoulli cache holds a float64 matrix, whichever call built it
        for build_cache in (lambda op: op.matvec(np.ones(n)), lambda op: op.dense()):
            op = build("bernoulli", m, n, seed=2)
            build_cache(op)
            assert op._cache.dtype == np.int8 and not op._cache.flags.writeable
            assert _mapping_bytes(op._cache) == m * n
            assert set(np.unique(op._cache)) <= {-1, 1}
            dense = op.dense()
            assert dense.dtype == np.float64 and not dense.flags.writeable
            assert not np.shares_memory(dense, op._cache) and dense.tobytes() == op._rows(0, m).tobytes()

    def test_streamed_output_lives_in_its_own_mapping(self):
        # a sweep's (k, m) measurements go back to the system with their
        # array, as the streamed rows do; a cached encode's small output
        # stays on the heap
        xs = stream(3, "test:output").standard_normal((5, 77))
        for family in ("gaussian", "bernoulli"):
            with mock.patch.object(linops, "_DENSE_CACHE_MAX", 0):
                streamed = build(family, 300, 77, seed=1).matvecs(xs)
            op = build(family, 300, 77, seed=1)
            op.dense()
            cached = op.matvecs(xs)
            assert _mapping_bytes(streamed) == 5 * 300 * 8
            assert _mapping_bytes(cached) is None
            assert cached.tobytes() == streamed.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(0, 2**20),
        rows=st.integers(1, 64),
        n=st.integers(1, 1200),
        seed=st.integers(0, 2**64 - 1),
        dtype=st.sampled_from([np.float64, np.int8]),
    )
    @example(block=0, rows=63, n=1201, seed=5, dtype=np.int8).via("odd block over two draws")
    @example(block=3, rows=64, n=4096, seed=3, dtype=np.float64).via("the benchmark's rows, eight draws")
    def test_bernoulli_rows_are_numpys_bits(self, block, rows, n, seed, dtype):
        # a block's +-1 rows, taken from raw PCG64 words in draws of
        # _DRAW_ENTRIES entries, are 2 * integers(0, 2) - 1 of its stream
        start = 64 * block
        got = build("bernoulli", start + rows, n, seed=seed)._rows(start, start + rows, dtype)
        want = stream(seed, "bernoulli:rows", start).integers(0, 2, size=(rows, n)) * 2 - 1
        assert got.dtype == dtype and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.one_of(st.integers(1, 3000), st.integers(2**31 + 1, 2**32), st.integers(2**32 + 1, 2**40)),
        n=st.integers(1, 40),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_expander_picks_are_numpys_choice(self, m, n, d, seed):
        # batched Floyd picks and shuffles, each column's choice; a draw
        # that choice would make again, d > 32 and m > 2**32 run choice
        d = min(d, m)
        nbrs = build("expander", m, n, seed=seed, degree=d).neighbors
        for j in range(n):
            assert np.array_equal(nbrs[j], stream(seed, "expander:nbrs", j).choice(m, size=d, replace=False))

    def test_draws_match_numpy_on_fixed_cases(self):
        # expander picks against choice and bernoulli rows against
        # integers(0, 2) over random keys, the m == d, d == 1, tail-shuffle,
        # redrawn-Lemire and 64-bit cases included; CI runs 2,000 rounds
        done, bad = check_draws(120, seed=1)
        assert done > 0 and bad == 0

    def test_empty_row_slice(self):
        op = build("gaussian", 128, 16, seed=3)
        assert op._rows(64, 64).shape == (0, 16)


class TestLeadingRows:
    """A dense build at m is the first m rows of every larger build of its
    type, seed and n, and draws nothing; a sweep's measurement pass
    (``_products``) reads the larger one's product where the blocks nest."""

    @pytest.mark.parametrize("family,opts", [("gaussian", {}), ("gaussian", {"rip": (1, 2)}), ("bernoulli", {})])
    @pytest.mark.parametrize("m", [1, 63, 64, 100, 300])
    def test_bit_equal_to_a_fresh_build(self, family, opts, m):
        parent = build(family, 300, 77, seed=5, **opts)
        op = build(family, m, 77, seed=5, **opts)
        assert type(op) is type(parent)
        assert (op.m, op.n, op.mu, op.rip_profile, op.seed) == (m, 77, parent.mu, parent.rip_profile, 5)
        xs = np.stack([np.linspace(-1.0, 1.0, 77), stream(6, "test:leading", m).standard_normal(77) * 1e3])
        outs = linops._products([op, parent], xs)
        assert op._cache is None and parent._cache is None
        # 64 ends before the 300-row product's last block (rows 192..299), and 300 is its m
        assert np.shares_memory(outs[0], outs[1]) == (m in (64, 300))
        assert outs[0].tobytes() == op.matvecs(xs).tobytes()
        assert outs[1].tobytes() == parent.matvecs(xs).tobytes()
        assert np.array_equal(op.dense(), parent.dense()[:m])
        for x, y in zip(xs, outs[0]):
            assert op.matvec(x).tobytes() == y.tobytes()
        with pytest.raises(ValueError):
            op.dense()[0, 0] = 1.0

    @pytest.mark.parametrize("make", [
        lambda m: build("subsampled_hadamard", m, 128, seed=1),
        lambda m: build("random_convolution", m, 128, seed=1),
        lambda m: build("expander", m, 128, seed=1, degree=3),
        lambda m: build_rop(m, 8, 16, seed=1),
    ], ids=["subsampled_hadamard", "random_convolution", "expander", "rop"])
    def test_other_families_have_none(self, make, monkeypatch):
        # their rows depend on m, so each operator makes its own matvecs call, one m equal to another's too
        ops = [make(32), make(64), make(64)]
        xs = stream(2, "test:other").standard_normal((3, 128))
        want = [op.matvecs(xs) for op in ops]
        calls = _spy_matvecs(monkeypatch)
        outs = linops._products(ops, xs)
        assert calls == [ops[1], ops[2], ops[0]]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outs, want))

    @pytest.mark.parametrize("small, large", [
        (("gaussian", 64, 8, 1), ("gaussian", 256, 8, 2)),
        (("gaussian", 64, 8, 1), ("gaussian", 256, 16, 1)),
        (("gaussian", 64, 8, 1), ("bernoulli", 256, 8, 1)),
        (("bernoulli", 64, 8, 1), ("gaussian", 256, 8, 1)),
    ], ids=["seed", "n", "family", "family-reversed"])
    def test_unequal_keys_never_share_rows(self, small, large, monkeypatch):
        # 64 rows nest in a 256-row product of the same rows; here the rows
        # differ, so each operator makes its own matvecs call.  The spy
        # returns no product, so operators of different n can share a call
        ops = [build(family, m, n, seed=seed) for family, m, n, seed in (small, large)]
        same = build(*small[:3], seed=small[3])
        calls = []
        monkeypatch.setattr(LinOp, "matvecs", lambda op, xs: calls.append(op) or np.zeros((len(xs), op.m)))
        linops._products(ops, np.zeros((1, 8)))
        assert calls == ops[::-1]
        calls.clear()
        linops._products([same, ops[0]], np.zeros((1, 8)))
        assert calls == [same]  # the same key does share

    def test_decay_ops_draw_nothing(self, monkeypatch):
        # above the cache ceiling too, a decay's dense operators draw no row when built
        monkeypatch.setattr(linops, "_DENSE_CACHE_MAX", 64 * 10)
        drawn = []
        monkeypatch.setattr(linops._DenseIIDOp, "_fill_rows", lambda op, gen, first, out: drawn.append(op))
        assert build("gaussian", linops._DENSE_CACHE_MAX + 1, 1, seed=2).m == linops._DENSE_CACHE_MAX + 1
        args = cli._make_parser().parse_args(["decay", "--family", "gaussian", "--n", "10", "--model", "sparse:2:10",
                                              "--mode", "l1", "--delta", "1", "--grid", "1", "--m-list", "1,2,3,4",
                                              "--seed", "2"])
        ops = [cli._build_op(args, m) for m in [50, 64, 100]]
        assert [op.m for op in ops] == [50, 64, 100]
        assert drawn == []
        calls = []
        monkeypatch.setattr(LinOp, "matvecs", lambda op, xs: calls.append(op) or np.zeros((len(xs), op.m)))
        linops._products(ops, np.zeros((1, 10)))
        assert calls == ops[::-1]  # no m here has its blocks nested in 100's
        monkeypatch.undo()
        for op in ops:
            assert np.array_equal(op.dense(), build("gaussian", op.m, 10, seed=2).dense())


def _mapping_bytes(a: np.ndarray) -> int | None:
    """The size of the anonymous mapping under ``a`` (a ``_row_buffer``),
    None where the memory is numpy's own, from the malloc heap."""
    base = a
    while isinstance(base, np.ndarray):
        base = base.base
    return base.nbytes if isinstance(base, memoryview) else None


def _spy_matvecs(monkeypatch) -> list:
    """The operators of every ``LinOp.matvecs`` call from now on, in call order."""
    calls = []
    matvecs = LinOp.matvecs
    monkeypatch.setattr(LinOp, "matvecs", lambda op, xs: calls.append(op) or matvecs(op, xs))
    return calls


DENSE_FAMILIES = [("gaussian", {}), ("gaussian", {"rip": (1, 2)}), ("bernoulli", {})]

# m in [1, 300], often one of the 0..3 rows past a multiple of the 64-row block
_ROWS = st.one_of(st.integers(1, 300), st.builds(lambda b, r: max(64 * b + r, 1), st.integers(0, 4), st.integers(0, 3)))


class TestMatvecs:
    """``matvecs(X)`` is the stacked ``matvec`` of its rows, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(range(len(DENSE_FAMILIES))),
        m=_ROWS,
        n=st.integers(1, 300),
        k=st.integers(1, 12),
        streamed=st.booleans(),
        data=st.data(),
    )
    def test_dense_matches_stacked_matvec(self, family, m, n, k, streamed, data):
        name, opts = DENSE_FAMILIES[family]
        # a ceiling below m * n keeps every product streamed, in slabs of
        # _SLAB_ENTRIES // (64 n) blocks (at least one), here 1 to 4
        # blocks; at the ceiling the first matvec builds the cache
        ceiling = data.draw(st.integers(0, m * n - 1), label="ceiling") if streamed else linops._DENSE_CACHE_MAX
        slab = 64 * n * data.draw(st.integers(1, 4), label="slab blocks")
        xs = stream(data.draw(st.integers(0, 2**16), label="seed"), "test:matvecs").standard_normal((k, n)) * 10.0
        with mock.patch.object(linops, "_DENSE_CACHE_MAX", ceiling), mock.patch.object(linops, "_SLAB_ENTRIES", slab):
            op = build(name, m, n, seed=3, **opts)
            got = op.matvecs(xs)
            assert op._cache is None
            want = np.stack([op.matvec(x) for x in xs])
            assert (op._cache is None) == streamed
            dense = op.dense()
        assert got.shape == (k, m)
        assert got.tobytes() == want.tobytes()
        assert np.allclose(got, xs @ dense.T, rtol=1e-12, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(range(len(DENSE_FAMILIES))),
        blocks=st.integers(0, 12),
        r=st.integers(0, 63),
        n=st.integers(1, 40),
        slab_blocks=st.integers(1, 5),
        cores=st.integers(1, 3),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    # 4097 x 256 in 16-block slabs: a slab edge at row 4096 would leave the
    # last row alone, off the GEMV bits of the product's last block
    @example(family=0, blocks=64, r=1, n=256, slab_blocks=16, cores=2, k=3, seed=0).via("prototype's lone row")
    @example(family=2, blocks=4, r=1, n=7, slab_blocks=2, cores=2, k=1, seed=1).via("edge at the remainder")
    def test_streamed_matches_cached(self, family, blocks, r, n, slab_blocks, cores, k, seed):
        # m = 64 blocks + r; slab edges every slab_blocks blocks, so some
        # fall at the product's remainder head (64 * (blocks - 1) when r > 0)
        name, opts = DENSE_FAMILIES[family]
        m = max(64 * blocks + r, 1)
        xs = stream(seed, "test:streamed").standard_normal((k, n)) * 10.0
        cached = build(name, m, n, seed=3, **opts)
        cached.dense()
        with mock.patch.object(linops, "_SLAB_ENTRIES", 64 * n * slab_blocks), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores)), create=True):
            op = build(name, m, n, seed=3, **opts)
            got = op.matvecs(xs)
        assert op._cache is None and cached._cache is not None
        assert got.tobytes() == cached.matvecs(xs).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.integers(0, 12),
        r=st.integers(0, 63),
        n=st.integers(1, 300),
        slab_blocks=st.integers(1, 5),
        groups=st.integers(1, 12),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @example(blocks=16, r=0, n=4096, slab_blocks=1, groups=4, k=1, seed=0).via("the benchmark's 1024 x 4096 encode")
    @example(blocks=64, r=1, n=256, slab_blocks=16, groups=64, k=2, seed=0).via("4097 x 256, a remainder row")
    @example(blocks=0, r=63, n=10, slab_blocks=1, groups=1, k=3, seed=1).via("m < 64")
    def test_bernoulli_int8_cache_matches_streamed(self, blocks, r, n, slab_blocks, groups, k, seed):
        # m = 64 blocks + r; the cached product widens the int8 cache in
        # pieces of 8 * groups rows up to the product's last block, which
        # it widens whole, and gets the bits of a fresh operator's rows,
        # streamed in slabs of slab_blocks blocks
        m = max(64 * blocks + r, 1)
        xs = stream(seed, "test:int8").standard_normal((k, n)) * 10.0
        with mock.patch.object(linops, "_SLAB_ENTRIES", 64 * n * slab_blocks), \
                mock.patch.object(linops, "_WIDEN_ENTRIES", 8 * n * groups):
            cached = build("bernoulli", m, n, seed=3)
            ys = [cached.matvec(x) for x in xs]
            got = cached.matvecs(xs)
            fresh = build("bernoulli", m, n, seed=3)
            want = fresh.matvecs(xs)
        assert cached._cache.dtype == np.int8 and fresh._cache is None
        assert got.tobytes() == want.tobytes() and np.stack(ys).tobytes() == want.tobytes()
        dense = cached.dense()
        assert dense.dtype == np.float64 and not dense.flags.writeable
        assert dense.tobytes() == fresh._rows(0, m).tobytes()

    def test_threads_share_one_cache(self):
        # more threads than cores call matvec on one fresh operator at once,
        # with a short switch interval: every result is the one product and
        # the cache is built once, for the float64 and the int8 cache
        for family in ("gaussian", "bernoulli"):
            self._share_one_cache(family)

    def _share_one_cache(self, family):
        op = build(family, 1000, 300, seed=7)
        x = np.linspace(-1.0, 1.0, 300)
        want = build(family, 1000, 300, seed=7).matvecs(x[None])[0]
        built, results = [], []
        rows = op._rows
        op._rows = lambda *args: built.append(args[:2]) or rows(*args)
        barrier = threading.Barrier(8, timeout=60)

        def call():
            barrier.wait()
            results.append(op.matvec(x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == [(0, 1000)]
        assert len(results) == 8 and all(y.tobytes() == want.tobytes() for y in results)

    @settings(max_examples=30, deadline=None)
    @given(
        make=st.sampled_from([
            lambda m, p: build("subsampled_hadamard", min(m, 2**p), 2**p, seed=1),
            lambda m, p: build("random_convolution", min(m, 2**p), 2**p, seed=1),
            lambda m, p: build("expander", m, 2**p, seed=1, degree=min(m, 3)),
            lambda m, p: build_rop(m, 2 ** (p // 2), 2 ** (p - p // 2), seed=1),
        ]),
        m=st.integers(1, 80),
        p=st.integers(0, 7),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_other_families_default_to_stacked_matvec(self, make, m, p, k, seed):
        op = make(m, p)
        xs = stream(seed, "test:matvecs").standard_normal((k, op.n))
        got = op.matvecs(xs)
        assert got.shape == (k, op.m)
        assert got.tobytes() == np.stack([op.matvec(x) for x in xs]).tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_streamed_product_runs_under_the_callers_error_state(self, cores):
        # 192 x 4096 streams in three one-block slabs, on a pool at 2 cores;
        # numpy keeps the error state per thread.  A 1e308 coordinate
        # overflows the rows whose entry there exceeds ~1.8 in size
        op = build("gaussian", 192, 4096, seed=1)
        xs = np.zeros((2, 4096))
        xs[:, 0] = 1e308
        on_main = []
        fill = linops._DenseIIDOp._fill_rows

        def spy(op, gen, first, out):
            on_main.append(threading.current_thread() is threading.main_thread())
            fill(op, gen, first, out)

        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores)), create=True), \
                mock.patch.object(linops._DenseIIDOp, "_fill_rows", spy):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                op.matvecs(xs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore"):
                    ys = op.matvecs(xs)
        assert on_main and all(main == (cores == 1) for main in on_main)
        assert np.isinf(ys).any() and not np.isnan(ys).any()

    def test_input_shape_checked(self):
        op = build("gaussian", 70, 5, seed=1)
        for bad in (np.zeros(5), np.zeros((2, 4)), np.zeros((0, 5)), np.zeros((1, 2, 5))):
            with pytest.raises(ValueError, match="inputs"):
                op.matvecs(bad)

    # shapes whose ``dense() @ x`` changed bits from one OpenBLAS thread to
    # two, on a 2-core x86-64 machine; the last two also changed when the
    # last block of ``matvecs`` was one GEMV of its 64-127 rows
    THREAD_SHAPES = [(130, 4096), (300, 4096), (4097, 256), (4897, 227), (579, 1648), (3314, 256),
                     (1705, 955), (180, 3993), (187, 3932)]

    def test_bits_do_not_depend_on_blas_threads(self):
        # one process per thread count: OpenBLAS reads it at load
        code = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from qembed import build\n"
            "from qembed.rng import stream\n"
            "digest, gemv = hashlib.sha256(), True\n"
            f"for m, n in {self.THREAD_SHAPES}:\n"
            "    op = build('gaussian', m, n, seed=m + n)\n"
            "    xs = stream(m, 'test:threads', n).standard_normal((3, n))\n"
            "    ys = op.matvecs(xs)\n"
            "    digest.update(ys.tobytes())\n"
            "    gemv = gemv and all(np.array_equal(y, op.dense() @ x) for x, y in zip(xs, ys))\n"
            # a cached bernoulli product: int8 rows widened in 8j-row pieces
            "    op = build('bernoulli', m, n, seed=m + n)\n"
            "    dense = op.dense()\n"
            "    ys = op.matvecs(xs)\n"
            "    digest.update(ys.tobytes())\n"
            "    gemv = gemv and op._cache.dtype == np.int8 and all(np.array_equal(y, dense @ x) for x, y in zip(xs, ys))\n"
            "print(digest.hexdigest(), gemv)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(linops.__file__)))
        out = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out[threads] = proc.stdout.split()
        assert out[1][0] == out[2][0]
        # at one thread every row is the GEMV's over all m rows
        assert out[1][1] == "True"


class TestEnergyConcentration:
    def test_gaussian_mean_energy(self):
        # mean over 100 unit vectors of (1/m)||Phi x||^2 near 1
        op = build("gaussian", 4096, 64, seed=17)
        rng = stream(18, "test:energy")
        vals = []
        for _ in range(100):
            x = rng.standard_normal(64)
            x /= np.linalg.norm(x)
            y = op.matvec(x)
            vals.append(np.sum(y * y) / op.m)
        assert 0.9 <= np.mean(vals) <= 1.1

    def test_expander_l1_upper_bound(self):
        # (1/d)||A x||_1 <= ||x||_1 for every x (column sums equal d)
        op = build("expander", 128, 64, seed=19, degree=6)
        rng = stream(20, "test:expander")
        for _ in range(1000):
            x = rng.standard_normal(64)
            assert np.abs(op.matvec(x)).sum() / 6 <= np.abs(x).sum() + 1e-12

    def test_expander_sparse_lower_bound_statistical(self):
        # random left-regular graphs nearly preserve sparse l1 norms
        op = build("expander", 512, 256, seed=21, degree=8)
        rng = stream(22, "test:expander-lo")
        worst = 1.0
        for _ in range(100):
            x = np.zeros(256)
            sup = rng.choice(256, size=4, replace=False)
            x[sup] = rng.standard_normal(4)
            x /= np.abs(x).sum()
            worst = min(worst, np.abs(op.matvec(x)).sum() / (8 * np.abs(x).sum()))
        assert worst >= 0.5


class TestFastTransforms:
    def test_fwht_matches_hadamard_matrix(self):
        n = 16
        cols = np.arange(n)
        h = np.array([[(-1) ** int(i & j).bit_count() for j in cols] for i in cols], dtype=float)
        rng = stream(23, "test:fwht")
        for _ in range(20):
            x = rng.standard_normal(n)
            assert np.allclose(fwht_counted(x)[0], h @ x, rtol=1e-12, atol=1e-9)

    def test_fwht_operation_count(self):
        h = np.ones((1, 1))
        for n in (8, 64, 1024):
            while h.shape[0] < n:  # Sylvester construction: H_2k = [[H, H], [H, -H]]
                h = np.block([[h, h], [h, -h]])
            x = stream(24, "test:fwht-count", n).standard_normal(n)
            y, ops = fwht_counted(x)
            assert np.allclose(y, h @ x, rtol=1e-12, atol=1e-9)
            assert ops <= 3 * n * math.log2(n)

    def test_convolution_count_and_value(self):
        for n in (16, 256, 1024):
            rng = stream(25, "test:conv-count", n)
            g = rng.standard_normal(n)
            x = rng.standard_normal(n)
            spectrum = np.fft.fft(g)
            ref = np.fft.irfft(np.fft.rfft(g) * np.fft.rfft(x), n=n)
            y, ops = circular_convolve_counted(spectrum, x)
            assert np.allclose(y, ref, rtol=1e-9, atol=1e-9)
            assert ops <= 3 * n * math.log2(n)

    def test_hadamard_cost_via_counting(self):
        # matvec is one length-n transform: within the 3 n log2 n budget
        n = 512
        op = build("subsampled_hadamard", 32, n, seed=26)
        x = stream(27, "test:had-cost").standard_normal(n)
        y, ops = fwht_counted(op.signs * x)
        assert np.allclose(y[op.rows], op.matvec(x))
        assert ops <= 3 * n * math.log2(n)

    @pytest.mark.parametrize(
        "family,counted",
        [("subsampled_hadamard", "fwht_counted"), ("random_convolution", "circular_convolve_counted")],
    )
    def test_matvec_runs_the_counted_transform(self, family, counted, monkeypatch):
        # the op counts of test_04 are taken on the transform matvec runs
        op = build(family, 32, 64, seed=35)
        x = stream(36, "test:spy").standard_normal(64)
        expected = op.matvec(x)
        calls = []
        real = getattr(linops, counted)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linops, counted, spy)
        assert np.array_equal(op.matvec(x), expected)
        assert len(calls) == 1

    def test_convolution_count_defined_for_every_n(self):
        for n in range(1, 130):
            x = stream(37, "test:conv-any-n", n).standard_normal(n)
            g = stream(38, "test:conv-any-n", n).standard_normal(n)
            y, ops = circular_convolve_counted(np.fft.rfft(g), x)
            ref = g[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n] @ x
            assert np.allclose(y, ref, rtol=1e-9, atol=1e-9)
            assert isinstance(ops, int) and ops >= n // 2 + 1
            if n >= 2:
                assert ops <= 3 * n * math.log2(n)
        # two length-n real FFTs at (n/2) log2 n each, plus n/2 + 1 products
        x = stream(39, "test:conv-4096").standard_normal(4096)
        assert circular_convolve_counted(np.fft.fft(x), x)[1] == 4096 * 12 + 2049


class TestRankOneProbes:
    def test_is_a_linop(self):
        op = build_rop(7, 3, 4, seed=41, kappa=2.0)
        assert isinstance(op, LinOp) and isinstance(op, RopOp)
        assert (op.family, op.m, op.n, op.n1, op.n2, op.kappa) == ("rop", 7, 12, 3, 4, 2.0)
        assert op.rip_profile == (2.0, 2.0) and op.mu == 0.5
        u = stream(42, "test:rop-linop").standard_normal((3, 4))
        ref = 2.0 * np.einsum("mi,ij,mj->m", op.probes_left, u, op.probes_right)
        assert np.array_equal(op.matvec(u.ravel()), ref)
        assert np.allclose(op.dense() @ u.ravel(), ref, rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(11))

    def test_second_moment_profile(self):
        # (mu**2 / m) * ||op(U)||_2**2 concentrates around ||U||_F**2
        op = build_rop(4096, 6, 5, seed=43, kappa=3.0)
        u = stream(44, "test:rop-moment").standard_normal(30)
        val = op.mu**2 / op.m * float(np.sum(op.matvec(u) ** 2))
        assert val == pytest.approx(float(u @ u), rel=0.15)

    def test_basis_probe(self):
        op = build_rop(1, 3, 3, seed=28)
        probes_l = np.zeros((1, 3))
        probes_l[0, 0] = 1.0
        object.__setattr__(op, "probes_left", probes_l)
        object.__setattr__(op, "probes_right", probes_l.copy())
        u = np.zeros((3, 3))
        u[0, 0] = 1.0
        assert op.matvec(u.ravel()) == pytest.approx([1.0])

    def test_zero_matrix(self):
        op = build_rop(5, 4, 3, seed=29)
        assert np.allclose(op.matvec(np.zeros((4, 3)).ravel()), 0.0)

    def test_double_sum_oracle(self):
        op = build_rop(6, 3, 3, seed=30)
        u = stream(31, "test:rop").standard_normal((3, 3))
        got = op.matvec(u.ravel())
        for i in range(6):
            ref = sum(
                op.probes_left[i, a] * u[a, b] * op.probes_right[i, b]
                for a in range(3)
                for b in range(3)
            )
            assert got[i] == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_bad_kappa_rejected(self, kappa):
        # RopOp(..., kappa=0) raised ZeroDivisionError
        for make in (lambda: build_rop(4, 2, 2, seed=0, kappa=kappa), lambda: RopOp(np.ones((4, 2)), np.ones((4, 2)), 0, kappa)):
            with pytest.raises(ValueError, match="kappa") as info:
                make()
            assert "\n" not in str(info.value)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 8), n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_sizes_are_read_off_the_probes(self, m, n1, n2, seed):
        # given m = 2 with 3-row probes, matvec returned 3 values and dense()
        # failed; given n1 = 2 with 1-column probes, einsum broadcast the input
        gen = stream(seed, "test:rop-shapes")
        op = RopOp(gen.standard_normal((m, n1)), gen.standard_normal((m, n2)), seed, 1.5)
        assert (op.m, op.n1, op.n2, op.n) == (m, n1, n2, n1 * n2)
        assert not (op.probes_left.flags.writeable or op.probes_right.flags.writeable)
        assert op.matvec(gen.standard_normal(n1 * n2)).shape == (m,)
        assert op.dense().shape == (m, n1 * n2)
        with pytest.raises(ValueError):
            op.matvec(np.ones(n1 * n2 + 1))

    @settings(max_examples=50, deadline=None)
    @given(left=st.lists(st.integers(1, 4), max_size=3), right=st.lists(st.integers(1, 4), max_size=3))
    def test_probes_of_other_shapes_raise(self, left, right):
        assume(not (len(left) == len(right) == 2 and left[0] == right[0]))
        with pytest.raises(ValueError, match="^probes ") as info:
            RopOp(np.ones(left), np.ones(right), 0, 1.0)
        assert "\n" not in str(info.value)

    def test_shape_mismatch(self):
        op = build_rop(5, 4, 3, seed=32)
        with pytest.raises(ValueError):
            embed_rop(op, np.zeros((3, 4)), np.zeros(5), QuantConfig(1.0))

    def test_rub_coarse_bound(self):
        # rank-one unit-Frobenius inputs keep the mean absolute
        # measurement within loose constant bounds
        op = build_rop(2048, 16, 16, seed=33)
        rng = stream(34, "test:rub")
        for _ in range(100):
            u = np.outer(rng.standard_normal(16), rng.standard_normal(16))
            u /= np.linalg.norm(u, "fro")
            val = np.abs(op.matvec(u.ravel())).mean()
            assert 0.2 <= val <= 3.0


class TestBoundedMatvec:
    @pytest.mark.parametrize("family,opts", ALL_FAMILIES)
    def test_default_is_the_exact_matvec(self, family, opts):
        op = build(family, 16, 32, seed=35, **opts)
        x = stream(36, "test:bounded").standard_normal(32)
        y, err = op._matvec_bounded(x)
        assert err is None and np.array_equal(y, op.matvec(x))

    @settings(max_examples=200, deadline=None)
    @given(
        n1=st.integers(1, 40),
        n2=st.integers(1, 40),
        m=st.integers(1, 64),
        log_kappa=st.floats(-3, 3),
        log_scale=st.floats(-322, 150),
        log_probe=st.one_of(st.just(0.0), st.floats(-200, 100)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rop_bound_holds(self, n1, n2, m, log_kappa, log_scale, log_probe, seed):
        # from subnormal through huge inputs and probes, the GEMM value is
        # within the bound of the einsum value wherever the bound is finite
        gen = stream(seed, "test:rop-bound")
        a = gen.standard_normal((m, n1)) * 10.0**log_probe
        op = RopOp(a, gen.standard_normal((m, n2)), seed, 10.0**log_kappa)
        x = gen.standard_normal(n1 * n2) * 10.0**log_scale
        y, err = op._matvec_bounded(x)
        exact = op.matvec(x)
        finite = np.isfinite(err)
        assert np.all(np.abs(y - exact)[finite] <= err[finite])
        assert np.all(finite[np.isfinite(exact) & (np.abs(x).max() < 1e150)])

    def test_rop_bound_is_not_finite_on_non_finite_input(self):
        op = build_rop(4, 2, 2, seed=37)
        for bad in (math.nan, math.inf, -math.inf):
            _, err = op._matvec_bounded(np.array([1.0, bad, 0.0, 2.0]))
            assert not np.isfinite(err).any()


def _force_hadamard(op, rows, signs):
    op.rows = np.array(rows)
    op.signs = np.array(signs, dtype=float)
    return op

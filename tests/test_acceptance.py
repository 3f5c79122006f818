"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; statistical checks use fixed seeds and 4-sigma margins on
bounded-variance estimates.
"""

import math
import time

import numpy as np
import pytest

from qembed import (
    QuantConfig,
    ball,
    ball_mean_width_exact,
    build,
    check_product_concentration,
    deserialize,
    embed,
    entropy_bound,
    estimate_distance,
    estimate_rip,
    fit_decay,
    mean_width_mc,
    measure_qrip,
    required_m,
    sample_dither,
    sample_pair,
    sample_point,
    serialize,
    sparse,
    support_function,
)
from qembed.embeddings import CodeBlock
from qembed.linops import circular_convolve_counted, fwht_counted
from qembed.rng import stream
from qembed.quantizer import _threshold_count

GRID = [0.05, 0.2, 1.0, 5.0, 10.0]


def _report(num, name, detail):
    print(f"PASS {num:>2}. {name}: {detail}")


def test_01_dither_identity():
    t0 = time.time()
    rng = stream(101, "acc:dither")
    worst = 0.0
    for _ in range(20):
        delta = rng.uniform(0.3, 2.0)
        a, b = rng.uniform(-5 * delta, 5 * delta, size=2)
        xi = rng.uniform(0, delta, size=10**6)
        mean = float(
            (delta * np.abs(np.floor((a + xi) / delta) - np.floor((b + xi) / delta))).mean()
        )
        dev = abs(mean - abs(a - b))
        tol = 4 * (delta / 2) / 1000
        assert dev <= tol
        worst = max(worst, dev / tol)
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(1, "dither identity", f"20 triples, worst dev/tol={worst:.3f}, {elapsed:.1f}s")


def test_02_small_gap_square_identity():
    rng = stream(102, "acc:smallgap")
    worst = 0.0
    for _ in range(10):
        delta = rng.uniform(0.3, 2.0)
        gap = rng.uniform(0.2, 0.95) * delta
        a = rng.uniform(-3 * delta, 3 * delta)
        xi = rng.uniform(0, delta, size=10**6)
        d0 = delta * np.abs(np.floor((a + gap + xi) / delta) - np.floor((a + xi) / delta))
        rel = abs(float((d0 * d0).mean()) - delta * gap) / (delta * gap)
        assert rel <= 0.01
        worst = max(worst, rel)
    _report(2, "small-gap square identity", f"10 configs, worst rel err={worst:.4f}")


def test_03_soft_distance_suite():
    n = 100_000
    rng = stream(103, "acc:soft")
    a = rng.uniform(-3, 3, size=n)
    b = rng.uniform(-3, 3, size=n)
    t = rng.uniform(-1.5, 1.5, size=n)
    t[::7] = 0.0
    s = rng.uniform(-1.5, 1.5, size=n)
    eps = rng.uniform(0, 1, size=n)
    r1 = rng.uniform(-1, 1, size=n) * eps
    r2 = rng.uniform(-1, 1, size=n) * eps

    sandwich = int(
        np.count_nonzero(
            (_threshold_count(a, b, t + eps, 1.0) > _threshold_count(a + r1, b + r2, t, 1.0))
            | (_threshold_count(a + r1, b + r2, t, 1.0) > _threshold_count(a, b, t - eps, 1.0))
        )
    )
    shift = int(
        np.count_nonzero(
            np.abs(_threshold_count(a, b, t, 1.0) - _threshold_count(a, b, s, 1.0))
            > 4 * (1 + np.abs(t - s)) + 1e-12
        )
    )
    versus = int(
        np.count_nonzero(np.abs(_threshold_count(a, b, t, 1.0) - np.abs(a - b)) > 4 * (1 + np.abs(t)) + 1e-12)
    )
    mono = int(np.count_nonzero(_threshold_count(a, b, np.abs(t), 1.0) > _threshold_count(a, b, -np.abs(t), 1.0)))
    assert sandwich == shift == versus == mono == 0
    _report(3, "soft-distance suite", f"{n} tuples x 4 properties, 0 violations")


def test_04_operator_correctness_and_cost():
    families = [
        ("gaussian", {}),
        ("gaussian", {"rip": (1, 2)}),
        ("bernoulli", {}),
        ("subsampled_hadamard", {}),
        ("random_convolution", {}),
        ("expander", {"degree": 4}),
    ]
    worst = 0.0
    for family, opts in families:
        for n in (64, 512):
            m = min(n, 128)
            op = build(family, m, n, seed=104, **opts)
            dense = op.dense()
            rng = stream(105, "acc:dense", n)
            for _ in range(20):
                x = rng.standard_normal(n)
                ref = dense @ x
                err = np.abs(op.matvec(x) - ref).max() / max(np.abs(ref).max(), 1e-300)
                assert err <= 1e-9
                worst = max(worst, err)
    # asymptotic cost by operation counting, not wall clock
    for n in (64, 512, 4096):
        budget = 3 * n * math.log2(n)
        x = stream(106, "acc:cost", n).standard_normal(n)
        _, ops_h = fwht_counted(x)
        assert ops_h <= budget
        g = stream(107, "acc:cost", n).standard_normal(n)
        _, ops_c = circular_convolve_counted(np.fft.fft(g), x)
        assert ops_c <= budget
    _report(4, "operator correctness", f"6 families dense-checked (worst rel {worst:.1e}); transform ops within 3n log2 n")


def test_05_empirical_rip():
    mset = sparse(4, 256)
    op22 = build("gaussian", 1024, 256, seed=108)
    eps22 = estimate_rip(op22, mset, 2, 2, pairs=200, rng=stream(109, "acc:rip"))
    assert eps22 <= 0.35
    op12 = build("gaussian", 1024, 256, seed=108, rip=(1, 2))
    eps12 = estimate_rip(op12, mset, 1, 2, pairs=200, rng=stream(110, "acc:rip"))
    assert eps12 <= 0.35
    opx = build("expander", 512, 256, seed=111, degree=8)
    rng = stream(112, "acc:rip")
    violations = 0
    for _ in range(100):
        block = rng.standard_normal((100, 256))
        for x in block:
            if np.abs(opx.matvec(x)).sum() / 8 > np.abs(x).sum() + 1e-12:
                violations += 1
    assert violations == 0
    _report(5, "empirical RIP", f"eps(2,2)={eps22:.3f}, eps(1,2)={eps12:.3f} <= 0.35; expander bound 0/10000 violations")


def test_06_l1_distortion_behavior():
    t0 = time.time()
    mset = sparse(4, 256, radius=20.0)
    cfg = QuantConfig(1.0)
    op = build("gaussian", 4096, 256, seed=11, rip=(1, 2))
    run = measure_qrip(op, mset, "l1", cfg, GRID, pairs_per_distance=8, dithers_per_pair=16, seed=3)
    r = run.fit.rho_hat_max
    ratio = float(r.max() / r.min())
    assert ratio <= 4.0

    runs = []
    for i, m in enumerate([128, 256, 512, 1024, 2048, 4096, 8192]):
        op_m = build("gaussian", m, 256, seed=11 + i, rip=(1, 2))
        runs.append(measure_qrip(op_m, mset, "l1", cfg, GRID, 8, 16, seed=3))
    slope = fit_decay(runs)
    assert -0.75 <= slope <= -0.25
    elapsed = time.time() - t0
    assert elapsed < 180
    _report(6, "l1-route distortion", f"residual max/min={ratio:.2f} <= 4; decay slope={slope:.3f}; {elapsed:.1f}s")


def test_07_l2sq_distortion_behavior():
    mset = sparse(4, 256, radius=20.0)
    cfg = QuantConfig(1.0)
    op = build("gaussian", 4096, 256, seed=11)
    run = measure_qrip(op, mset, "l2sq", cfg, GRID, pairs_per_distance=8, dithers_per_pair=16, seed=3)
    rel_at_10 = max(abs(rec.rel_err) for rec in run.records if rec.true_dist == 10.0)
    assert rel_at_10 <= 0.3
    floor_ratio = float(run.pair_mean_est[0].mean() / GRID[0] ** 2)
    assert floor_ratio >= 5.0

    # small-gap mean: E est = (delta/m) ||Phi(x - x')||_1 within 4 sigma
    s_small = 0.05
    for j in range(6):
        x, x_prime = sample_pair(mset, s_small, stream(3, "acc:smallpair", j))
        gap = op.matvec(x) - op.matvec(x_prime)
        assert np.abs(gap).max() < cfg.delta
        target = cfg.delta * np.mean(np.abs(gap))
        trials = 48
        ests = np.empty(trials)
        for t in range(trials):
            xi = sample_dither(op.m, cfg, stream(4, "acc:smalldither", j, t))
            ests[t] = estimate_distance(
                embed(op, x, xi, cfg), embed(op, x_prime, xi, cfg), "l2sq"
            )
        margin = 4 * ests.std(ddof=1) / math.sqrt(trials)
        assert abs(ests.mean() - target) <= margin
    _report(7, "squared-l2-route distortion", f"rel@10d={rel_at_10:.3f} <= 0.3; floor est/s^2={floor_ratio:.1f} >= 5; small-gap mean within 4 sigma")


def test_08_bidither_distortion_behavior():
    mset = sparse(4, 256, radius=20.0)
    cfg = QuantConfig(1.0)
    # larger embedding dimension than the l1 run: the product estimate at
    # the smallest grid distance needs m * (s/delta)**2 well above 1 for
    # its worst-case residual statistics to settle
    op = build("gaussian", 32768, 256, seed=11)
    run = measure_qrip(op, mset, "circ", cfg, GRID, pairs_per_distance=6, dithers_per_pair=96, seed=3)

    # unbiasedness at every grid distance: per-pair dither mean within
    # 4 sigma of the squared linear pre-metric
    sem = run.pair_sd_est / math.sqrt(96)
    dev = np.abs(run.pair_mean_est - run.linear_est)
    assert np.all(dev <= 4 * sem + 1e-12)

    # small-gap floor removed: residual per unit distance stays flat
    # across the grid (the squared-route residual grows as s shrinks
    # below delta; see the companion check in criterion 7)
    per_unit = run.fit.rho_hat_max / np.asarray(GRID)
    ratio = float(per_unit.max() / per_unit.min())
    assert ratio <= 4.0

    ops = [build("gaussian", m, 256, seed=11 + 1000 * i) for i, m in enumerate([128, 256, 512, 1024, 2048, 4096, 8192])]
    rep = check_product_concentration(ops, sparse(4, 256, radius=2.0), cfg, trials=160, seed=9, distance=1.0)
    assert -0.75 <= rep["slope"] <= -0.25
    _report(8, "bi-dither distortion", f"unbiased at all 5 distances; residual/s max/min={ratio:.2f} <= 4; stddev slope={rep['slope']:.3f}")


def test_09_one_bit_regime():
    # resolution at twice the l1 diameter: every coordinate becomes a
    # two-valued code across the sample
    op = build("expander", 256, 256, seed=21, degree=4)
    radius_l1 = 2.0  # unit-l2 4-sparse vectors have ||x||_1 <= sqrt(4)
    cfg = QuantConfig(2 * radius_l1)
    xi = sample_dither(op.m, cfg, stream(77, "acc:onebit"))
    rng = stream(78, "acc:onebit")
    codes = np.empty((500, op.m), dtype=np.int64)
    for i in range(500):
        codes[i] = embed(op, sample_point(sparse(4, 256), rng), xi, cfg).codes[:, 0]
    distinct = max(len(np.unique(codes[:, j])) for j in range(op.m))
    assert distinct <= 2
    _report(9, "one-bit regime", f"500 samples, max {distinct} distinct indices per coordinate")


def test_10_calculators():
    cfg = QuantConfig(1.0)
    mset = sparse(4, 1024, radius=1.0)
    ent = entropy_bound(mset, 0.01, q=2)
    assert abs(ent - 138.8) <= 0.1
    m_req = required_m("p1", mset, 0.1, cfg, C=1.0, q=2)
    # recomputed from the stated formula: ceil(100 * 4 ln(e*256) ln(201))
    assert m_req == math.ceil(100 * 4 * math.log(math.e * 256) * math.log(201)) == 13885
    _report(10, "calculators", f"entropy={ent:.4f} (138.8 +- 0.1); required m={m_req}")


def test_11_mean_width_and_support():
    import itertools

    for n in (1, 2, 8):
        est, se = mean_width_mc(ball(n, radius=1.0), 100_000, stream(116, "acc:width", n))
        assert abs(est - ball_mean_width_exact(n)) <= 3 * se
    rng = stream(117, "acc:support")
    for n, s in [(8, 2), (12, 3)]:
        mset = sparse(s, n)
        for _ in range(25):
            g = rng.standard_normal(n)
            brute = max(
                np.linalg.norm(g[list(sup)]) for sup in itertools.combinations(range(n), s)
            )
            assert support_function(mset, g) == pytest.approx(brute, abs=1e-12)
    _report(11, "mean width", "ball n in {1,2,8} within 3 SE; sparse support matches exhaustive search")


def test_12_serialization():
    rng = stream(118, "acc:serialize")
    for trial in range(100):
        layout = "single" if trial % 2 == 0 else "bidither"
        m = int(rng.integers(1, 64))
        cols = 1 if layout == "single" else 2
        span = int(rng.choice([2**6, 2**14, 2**28]))
        codes = rng.integers(-span, span, size=(m, cols))
        block = CodeBlock(float(rng.uniform(0.01, 4.0)), codes,
                          op_seed=int(rng.integers(0, 2**60)),
                          dither_seed=int(rng.integers(0, 2**60)))
        assert deserialize(serialize(block)) == block
    for lo, hi, width in [(-128, 127, 0), (-129, 127, 1), (-32768, 32767, 1), (32768, 32768, 2)]:
        blk = CodeBlock(1.0, np.array([[lo], [hi]]))
        assert serialize(blk)[6] == width
    with pytest.raises(ValueError):
        serialize(CodeBlock(1.0, np.array([[2**31]])))
    _report(12, "serialization", "100 roundtrips bit-exact; widths switch at the i8/i16/i32 boundaries")


def test_13_vanishing_quantizer_limit():
    mset = sparse(4, 256, radius=20.0)
    cfg = QuantConfig(1e-9)
    grid = [0.2, 1.0, 5.0, 10.0]
    worst = 0.0
    for mode, m, dithers in [("l1", 4096, 64), ("l2sq", 1024, 8), ("circ", 1024, 8)]:
        profile = {"rip": (1, 2)} if mode == "l1" else {}
        op = build("gaussian", m, 256, seed=11, **profile)
        run = measure_qrip(op, mset, mode, cfg, grid, pairs_per_distance=6,
                           dithers_per_pair=dithers, seed=3)
        p_e = 1 if mode == "l1" else 2
        scale = np.asarray(grid)[:, None] ** p_e
        # residual tables collapse ...
        assert np.all(run.fit.rho_hat_max <= 1e-6 * np.asarray(grid) ** p_e)
        # ... and every estimate reproduces the same pair's linear value
        dev = np.abs(run.pair_mean_est - run.linear_est) / scale
        assert float(dev.max()) <= 1e-6
        worst = max(worst, float(dev.max()))
    _report(13, "vanishing-quantizer limit", f"all modes reproduce the linear run, worst residual {worst:.2e} <= 1e-6")

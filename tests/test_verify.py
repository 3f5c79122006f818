import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qembed import (
    QuantConfig,
    build,
    build_rop,
    check_dither_identity,
    check_product_concentration,
    estimate_rip,
    fit_decay,
    low_rank,
    measure_decay,
    measure_qrip,
    sample_dither,
    sample_pair,
    selftest,
    sparse,
)
from qembed import cli, verify
from qembed.linops import LinOp
from qembed.embeddings import _estimate_from_codes, quantize_with_dither
from qembed.quantizer import _threshold_count, premetric
from qembed.rng import stream
from qembed.verify import (
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    _default_workers,
    power_law_slope,
    records_csv,
    summary_csv,
)


def _identity_expander():
    op = build("expander", 2, 2, seed=0, degree=1)
    op.neighbors = np.array([[0], [1]])
    return op


class TestDitherIdentityCheck:
    def test_basic_pass(self):
        rep = check_dither_identity(0.0, 0.37, QuantConfig(1.0), 10**6, rng=stream(0, "t"))
        assert rep["passed"]
        assert abs(rep["mean"] - 0.37) <= 0.005

    def test_equal_points(self):
        rep = check_dither_identity(1.3, 1.3, QuantConfig(1.0), 10**4, rng=stream(1, "t"))
        assert rep["mean"] == 0.0 and rep["passed"]

    def test_lattice_multiple_exact(self):
        # a gap of exactly k cells is recovered by every dither draw
        cfg = QuantConfig(0.5)
        rng = stream(2, "t")
        a = rng.uniform(-2, 2)
        xi = rng.uniform(0, 0.5, size=2000)
        gaps = 0.5 * np.abs(np.floor((a + 1.5 + xi) / 0.5) - np.floor((a + xi) / 0.5))
        assert np.all(gaps == 1.5)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            check_dither_identity(0.0, 0.5, QuantConfig(1.0), 100)

    @pytest.mark.parametrize("bad", [1e300, -1e19, math.inf, math.nan])
    def test_unquantizable_point_rejected(self, bad):
        with pytest.raises(ValueError, match="cell indices inside the int64 range"):
            check_dither_identity(0.0, bad, QuantConfig(1.0), 10**4, rng=stream(3, "t"))


class TestEstimateRip:
    def test_identity_expander_is_exact(self):
        op = _identity_expander()
        mset = sparse(1, 2, radius=1.0)
        eps = estimate_rip(op, mset, 1, 1, pairs=60, rng=stream(3, "t"))
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_l2(self):
        op = build("gaussian", 1024, 256, seed=4)
        eps = estimate_rip(op, sparse(4, 256), 2, 2, pairs=200, rng=stream(5, "t"))
        assert eps <= 0.35

    def test_gaussian_l1_profile(self):
        op = build("gaussian", 1024, 256, seed=6, rip=(1, 2))
        eps = estimate_rip(op, sparse(4, 256), 1, 2, pairs=200, rng=stream(7, "t"))
        assert eps <= 0.35

    def test_profile_mismatch(self):
        op = build("gaussian", 64, 16, seed=8)
        with pytest.raises(ValueError):
            estimate_rip(op, sparse(2, 16), 1, 2, pairs=60, rng=stream(9, "t"))


def _pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of every thread pool that ``verify`` opens from now on."""
    sizes = []

    class Spy(verify.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(verify, "ThreadPoolExecutor", Spy)
    return sizes


def _patch_cores(monkeypatch, cores: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


class TestDefaultWorkers:
    @pytest.mark.parametrize(
        "cores, block, pairs, workers",
        [
            (1, 2**13, 6, 1),
            (1, 2**14 - 1, 6, 1),
            (1, 2**14, 6, 1),
            (4, 2**13 - 1, 6, 1),
            (4, 2**13, 6, 4),
            (4, 2**14 - 1, 6, 4),
            (4, 2**14, 6, 4),
            (4, 2**14, 3, 3),
        ],
    )
    def test_affinity_cores(self, monkeypatch, cores, block, pairs, workers):
        _patch_cores(monkeypatch, cores)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _default_workers(block, pairs) == workers

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _default_workers(2**13, 8) == 3
        assert _default_workers(2**13 - 1, 8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_workers(2**13, 8) == 1


class TestMeasureQrip:
    def _run(self, mode, delta=1.0, m=512, **kw):
        profile = {"rip": (1, 2)} if mode == "l1" else {}
        op = build("gaussian", m, 64, seed=10, **profile)
        mset = sparse(4, 64, radius=20.0)
        return measure_qrip(
            op, mset, mode, QuantConfig(delta),
            kw.pop("grid", [0.05, 0.2, 1.0, 5.0, 10.0]),
            kw.pop("pairs", 4), kw.pop("dithers", 6), seed=kw.pop("seed", 11), **kw,
        )

    def test_record_structure(self):
        run = self._run("l1")
        assert len(run.records) == 5 * 4 * 6
        rec = run.records[0]
        assert rec.mode == "l1" and rec.m == 512 and rec.delta == 1.0
        assert rec.est_dist >= 0
        assert math.isfinite(rec.rel_err)
        # sorted by (pair, trial, distance)
        keys = [(r.pair_id, r.trial_id, r.true_dist) for r in run.records]
        assert keys == sorted(keys)

    def test_deterministic(self):
        a, b = self._run("l2sq"), self._run("l2sq")
        assert a.fit.eps_L_hat == b.fit.eps_L_hat
        assert np.array_equal(a.fit.rho_hat_max, b.fit.rho_hat_max)
        assert [r.est_dist for r in a.records] == [r.est_dist for r in b.records]

    @pytest.mark.parametrize("m, cores", [(512, 2), (512, 4), (8192, 2), (8192, 4)])
    def test_threads_do_not_change_results(self, monkeypatch, m, cores):
        # the worker count follows the CPU affinity set patched in here; a
        # circ trial's dither block has 2 * m entries, which is made the
        # pool threshold at both m
        size = {"pairs": 4} if m == 512 else {"pairs": 3, "dithers": 2}
        monkeypatch.setattr(verify, "_PARALLEL_MIN_BLOCK", 2 * m)
        runs = []
        for n_cores in (1, cores):
            _patch_cores(monkeypatch, n_cores)
            assert verify._default_workers(2 * m, size["pairs"]) == min(n_cores, size["pairs"])
            runs.append(self._run("circ", m=m, **size))
        a, b = runs
        assert [r.est_dist for r in a.records] == [r.est_dist for r in b.records]
        assert np.array_equal(a.fit.rho_hat_max, b.fit.rho_hat_max)

    @pytest.mark.parametrize("grid, dithers", [([0.05, 0.2, 1.0, 5.0, 10.0], 6), ([0.2, 1.0, 1.0, 5.0], 4), ([0.5, 2.0], 1)])
    def test_pair_statistics_are_views_of_estimates(self, grid, dithers):
        run = self._run("circ", grid=grid, dithers=dithers)
        assert run.estimates.shape == (4, len(grid), dithers)
        assert run.pair_mean_est.shape == run.pair_sd_est.shape == run.linear_est.shape == (len(grid), 4)
        for si in range(len(grid)):
            for j in range(4):
                ests = run.estimates[j, si]
                assert run.pair_mean_est[si, j] == ests.mean()
                assert run.pair_sd_est[si, j] == (ests.std(ddof=1) if dithers > 1 else 0.0)
        # a repeated distance resamples the same pairs under fresh dithers
        if len(set(grid)) < len(grid):
            assert np.array_equal(run.linear_est[1], run.linear_est[2])
        recs = run.records
        assert [r.est_dist for r in recs] == run.estimates.transpose(0, 2, 1).ravel().tolist()
        assert [r.true_dist for r in recs[: len(grid)]] == sorted(grid)

    def test_vanishing_quantizer_collapses_residuals(self):
        grid = [0.2, 1.0, 5.0, 10.0]
        run = self._run("l1", delta=1e-9, m=1024, grid=grid, pairs=4, dithers=16)
        assert np.all(run.fit.rho_hat_max <= 1e-6 * np.asarray(grid))
        dev = np.abs(run.pair_mean_est - run.linear_est)
        assert np.all(dev <= 1e-6 * np.asarray(grid)[:, None])

    def test_baseline_bound_every_record(self):
        # |est - true| <= eps_L_hat * true + delta on every l1 record
        run = self._run("l1", m=1024, pairs=6, dithers=8)
        for rec in run.records:
            assert abs(rec.est_dist - rec.true_dist) <= run.fit.eps_L_hat * rec.true_dist + run.delta + 1e-9

    def test_circ_pairwise_unbiased(self):
        run = self._run("circ", m=1024, pairs=4, dithers=24)
        # every (distance, pair): dither mean within 4 sigma of the
        # squared linear premetric
        steps = run.pair_sd_est / math.sqrt(24)
        dev = np.abs(run.pair_mean_est - run.linear_est)
        assert np.all(dev <= 4 * steps + 1e-12)

    def test_validation(self):
        op = build("gaussian", 16, 8, seed=12)
        mset = sparse(2, 8)
        cfg = QuantConfig(1.0)
        with pytest.raises(ValueError):
            measure_qrip(op, mset, "l1", cfg, [], 2, 2, seed=0)
        with pytest.raises(ValueError):
            measure_qrip(op, mset, "l1", cfg, [-1.0], 2, 2, seed=0)
        with pytest.raises(ValueError):
            measure_qrip(op, mset, "bogus", cfg, [0.5], 2, 2, seed=0)

    @pytest.mark.parametrize(
        "mode,s", [("l2sq", 1e-300), ("circ", 1e-170), ("l2sq", 1e155), ("l1", math.inf), ("l1", math.nan)]
    )
    def test_grid_target_must_be_positive_and_finite(self, mode, s):
        # s**p of 0 or inf would make every rel_err and the fit NaN
        op = build("gaussian", 16, 8, seed=12)
        with pytest.raises(ValueError, match="grid distance") as err:
            measure_decay([op], sparse(2, 8, radius=1e160), mode, QuantConfig(1.0), [1.0, s], 1, 2, seed=0)
        assert "\n" not in str(err.value)


# (build arguments, embedding dimensions) of every operator family at n = 32
_DECAY_FAMILIES = {
    "gaussian": (("gaussian",), [1, 5, 63, 64, 100, 9000]),
    "gaussian-l1": (("gaussian", {"rip": (1, 2)}), [1, 5, 63, 64, 100, 9000]),
    "bernoulli": (("bernoulli",), [1, 5, 63, 64, 100, 9000]),
    "subsampled_hadamard": (("subsampled_hadamard",), [2, 5, 17, 31, 32]),
    "random_convolution": (("random_convolution",), [2, 5, 17, 31, 32]),
    "expander": (("expander", {"degree": 2}), [2, 5, 17, 100, 300]),
    "rop": (("rop",), [1, 5, 17, 100, 300]),
}


def _fresh_op(family: str, m: int, seed: int):
    args = _DECAY_FAMILIES[family][0]
    if args[0] == "rop":
        return build_rop(m, 4, 8, seed=seed)
    return build(args[0], m, 32, seed=seed, **(args[1] if len(args) > 1 else {}))


class TestMeasureDecay:
    """``measure_decay`` against a per-record oracle built from the public
    steps: the pair from its keyed stream, a freshly built operator's
    matvec, one ``sample_dither`` per column from the trial's keyed
    stream, ``quantize_with_dither`` and ``_estimate_from_codes``."""

    @staticmethod
    def _oracle(op, mset, mode, cfg, grid, pair, trial, si, seed):
        """(estimate, linear pre-metric) of one record."""
        x, x_prime = sample_pair(mset, float(grid[si]), stream(seed, "qrip:pair", pair), q=op.rip_profile[1])
        y, y_prime = op.matvec(np.ravel(x)), op.matvec(np.ravel(x_prime))
        drng = stream(seed, "qrip:dither", pair, trial, si)
        xi = np.column_stack([sample_dither(op.m, cfg, drng) for _ in range(2 if mode == "circ" else 1)])
        ca, cb = (quantize_with_dither(np.broadcast_to(v[:, None], xi.shape), xi, cfg) for v in (y, y_prime))
        return _estimate_from_codes(ca, cb, mode, cfg.delta), premetric(y, y_prime, 1 if mode == "l1" else 2)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(sorted(_DECAY_FAMILIES)),
        mode=st.sampled_from(["l1", "l2sq", "circ"]),
        nested=st.booleans(),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        delta=st.sampled_from([1.0, 0.37, 1e-9]),
        grid=st.lists(st.sampled_from([0.05, 0.5, 2.0, 9.0, 30.0]), min_size=1, max_size=4),
        pairs=st.integers(1, 3),
        dithers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    # the largest m takes 3-trial blocks; at delta = 1e-9 l2sq and circ
    # trials take the integer path
    @example(family="gaussian", mode="circ", nested=True, picks=[5, 2, 0], delta=1e-9, grid=[9.0, 0.5, 9.0],
             pairs=2, dithers=4, seed=1).via("nested bi-dither prefixes")
    @example(family="bernoulli", mode="l1", nested=True, picks=[5, 3, 4], delta=0.37, grid=[2.0, 2.0],
             pairs=1, dithers=4, seed=2).via("partial last block")
    def test_matches_per_record_oracle(self, family, mode, nested, picks, delta, grid, pairs, dithers, seed):
        ms = _DECAY_FAMILIES[family][1]
        m_list = [ms[min(i, len(ms) - 1)] for i in picks]
        op_seeds = [7] * len(m_list) if nested else [7 + 100 * k for k in range(len(m_list))]
        if nested:
            # a decay sweep's operators: the largest built, the others its leading rows where it has them
            top = _fresh_op(family, max(m_list), 7)
            ops = [top._leading_rows(m) or _fresh_op(family, m, 7) for m in m_list]
        else:
            ops = [_fresh_op(family, m, s) for m, s in zip(m_list, op_seeds)]
        mset = sparse(3, 32, radius=20.0)
        cfg = QuantConfig(delta)
        runs = measure_decay(ops, mset, mode, cfg, grid, pairs, dithers, seed=seed)
        sorted_grid = sorted(grid)
        for run, op, m, op_seed in zip(runs, ops, m_list, op_seeds):
            fresh = _fresh_op(family, m, op_seed)
            assert run.m == m and run.estimates.shape == (pairs, len(grid), dithers)
            assert run.distances.tolist() == sorted_grid
            for j in range(pairs):
                for si in range(len(grid)):
                    for t in range(dithers):
                        est, linear = self._oracle(fresh, mset, mode, cfg, sorted_grid, j, t, si, seed)
                        assert run.estimates[j, si, t] == est
                        assert run.linear_est[si, j] == linear
            alone = measure_qrip(fresh, mset, mode, cfg, grid, pairs, dithers, seed=seed)
            assert records_csv(run) + summary_csv(run) == records_csv(alone) + summary_csv(alone)

    def test_summed_dimensions_size_the_pool(self, monkeypatch):
        # every m is below the pool threshold and their sum is above it:
        # at 2 cores the sweep runs 2 workers, with outputs bit-equal to 1
        ms = [1024, 2048, 3072, 4096]
        assert max(ms) < verify._PARALLEL_MIN_BLOCK <= sum(ms)
        top = build("gaussian", max(ms), 64, seed=21, rip=(1, 2))
        ops = [top._leading_rows(m) for m in ms]
        mset = sparse(4, 64, radius=20.0)
        pools = _pool_sizes(monkeypatch)
        runs = []
        for cores in (1, 2):
            _patch_cores(monkeypatch, cores)
            runs.append(measure_decay(ops, mset, "l1", QuantConfig(0.7), [0.05, 1.0, 10.0], 3, 4, seed=22))
        assert pools == [2]
        for a, b in zip(*runs):
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.linear_est, b.linear_est)
            assert a.fit.eps_L_hat == b.fit.eps_L_hat
            assert np.array_equal(a.fit.rho_hat_max, b.fit.rho_hat_max)
            assert np.array_equal(a.fit.rho_hat_median, b.fit.rho_hat_median)

    def test_operators_must_share_n_and_profile(self):
        mset = sparse(2, 16)
        for ops in ([build("gaussian", 8, 16, seed=0), build("gaussian", 8, 32, seed=0)],
                    [build("gaussian", 8, 16, seed=0), build("gaussian", 8, 16, seed=0, rip=(1, 2))]):
            with pytest.raises(ValueError, match="one \\(n, rip_profile\\)") as info:
                measure_decay(ops, mset, "l1", QuantConfig(1.0), [1.0], 1, 1, seed=0)
            assert "\n" not in str(info.value)
        with pytest.raises(ValueError, match="at least one operator"):
            measure_decay([], mset, "l1", QuantConfig(1.0), [1.0], 1, 1, seed=0)


def _spy_matvecs(monkeypatch) -> list:
    """The operators of every ``LinOp.matvecs`` call from now on, in call
    order; ``LinOp.matvec`` calls fail the test."""
    calls = []
    matvecs = LinOp.matvecs
    monkeypatch.setattr(LinOp, "matvecs", lambda op, xs: calls.append(op) or matvecs(op, xs))
    monkeypatch.setattr(LinOp, "matvec", lambda op, x: pytest.fail("a sweep called matvec"))
    return calls


class TestNestedReads:
    """A sweep computes each operator's measurements in one ``matvecs``
    pass, except an operator whose product blocks are blocks of another
    one's of the sweep: it reads that one's leading rows."""

    # the m of ``_leading_rows(m)`` that read the parent's rows, per M:
    # a multiple of 64 whose blocks end before the parent's last block
    # (64..127 rows), or M itself
    NESTED = {8192: {64, 128, 8128, 8192}, 8193: {64, 128, 8193}, 8255: {64, 128, 8255}}

    @pytest.mark.parametrize("M", sorted(NESTED))
    def test_sweep_reads_the_prefix_where_blocks_nest(self, M, monkeypatch):
        parent = build("gaussian", M, 8, seed=3, rip=(1, 2))
        xs = stream(4, "test:nested", M).standard_normal((4, 8))
        mset = sparse(2, 8, radius=4.0)
        cfg = QuantConfig(0.5)
        for m in (1, 63, 64, 65, 128, M - 64, 8192, M):
            op = parent._leading_rows(m)
            nested = m in self.NESTED[M]
            assert (op._prefix_of is parent) == nested
            if nested:
                assert parent.matvecs(xs)[:, :m].tobytes() == op.matvecs(xs).tobytes()
            calls = _spy_matvecs(monkeypatch)
            run, _ = measure_decay([op, parent], mset, "l1", cfg, [0.5, 2.0], 2, 2, seed=5)
            monkeypatch.undo()
            # one call per pair id and operator computed, in any order across workers
            assert (calls.count(parent), calls.count(op), len(calls)) == ((2, 0, 2) if nested else (2, 2, 4))
            alone = measure_qrip(build("gaussian", m, 8, seed=3, rip=(1, 2)), mset, "l1", cfg, [0.5, 2.0], 2, 2, seed=5)
            assert np.array_equal(run.estimates, alone.estimates)
            assert np.array_equal(run.linear_est, alone.linear_est)

    def test_one_matvecs_call_per_task_on_the_decay_benchmark(self, monkeypatch):
        # the benchmark's decay_l1 sweep: every smaller m reads the largest one's rows
        args = cli._make_parser().parse_args(["decay", "--family", "gaussian", "--rip", "1,2", "--n", "256",
                                              "--model", "sparse:4:256", "--mode", "l1", "--delta", "1",
                                              "--grid", "1", "--m-list", "128,256,512,1024", "--seed", "3"])
        ops = cli._decay_ops(args, [128, 256, 512, 1024, 2048, 4096, 8192])
        calls = _spy_matvecs(monkeypatch)
        runs = measure_decay(ops, sparse(4, 256, radius=20.0), "l1", QuantConfig(1.0), [0.05, 0.2, 1.0, 5.0, 10.0],
                             8, 16, seed=3)
        assert calls == [ops[-1]] * 8
        assert [run.estimates.shape for run in runs] == [(8, 5, 16)] * 7


class TestFitDecay:
    def test_exact_power_law(self):
        ms = [128, 256, 512, 1024, 2048]
        slope = fit_decay([(m, m**-0.5) for m in ms])
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_constant_input(self):
        slope = fit_decay([(m, 3.7) for m in (128, 256, 512, 1024)])
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_decay([(128, 1.0), (256, 0.7), (512, 0.5)])
        # a repeated dimension does not count twice
        with pytest.raises(ValueError, match="got 3"):
            fit_decay([(128, 1.0), (128, 0.9), (256, 0.7), (512, 0.5)])

    @pytest.mark.parametrize("rho", [0.0, math.inf, math.nan])
    def test_rejects_degenerate_residual(self, rho):
        with pytest.raises(ValueError, match="residual at m=256 is"):
            fit_decay([(128, 1.0), (256, rho), (512, 0.7), (1024, 0.5)])

    def test_power_law_slope_validation(self):
        with pytest.raises(ValueError):
            power_law_slope([1, 2], [1.0, 0.0])

    @pytest.mark.parametrize("ms", [[32] * 4, [0, 32, 64], [-32, 32, 64], [32, 64, math.inf], [32, math.nan]])
    def test_power_law_slope_rejects_bad_dimensions(self, ms, capfd):
        with pytest.raises(ValueError):
            power_law_slope(ms, np.arange(1.0, len(ms) + 1))
        assert capfd.readouterr().err == ""

    def test_gaussian_l1_decay(self):
        runs = []
        mset = sparse(4, 64, radius=20.0)
        for i, m in enumerate([128, 256, 512, 1024]):
            op = build("gaussian", m, 64, seed=13 + i, rip=(1, 2))
            runs.append(
                measure_qrip(op, mset, "l1", QuantConfig(1.0), [0.05, 0.2, 1.0, 5.0, 10.0], 4, 8, seed=14)
            )
        assert -0.75 <= fit_decay(runs) <= -0.25


class TestProductConcentration:
    def test_slope_and_ratios(self):
        op = build("gaussian", 128, 64, seed=15)
        rep = check_product_concentration(
            op, sparse(4, 64, radius=2.0), QuantConfig(1.0),
            [128, 256, 512, 1024, 2048, 4096, 8192], trials=160, seed=16, distance=1.0,
        )
        assert rep["passed"]
        assert all(0.55 <= r <= 0.9 for r in rep["doubling_ratios"])

    def test_pinned_stddevs(self):
        # acceptance test 08's call, pinned bit for bit; the check rebuilds
        # the family at every m, so the passed operator's own m is unused
        op = build("gaussian", 128, 256, seed=11)
        rep = check_product_concentration(
            op, sparse(4, 256, radius=2.0), QuantConfig(1.0),
            [128, 256, 512, 1024, 2048, 4096, 8192], trials=160, seed=9, distance=1.0,
        )
        assert rep["stddevs"] == [
            0.054163453883917155, 0.038074675680356204, 0.02565823011485338, 0.017990256320068985,
            0.013336720846952607, 0.009793990104682043, 0.006967063204482336,
        ]

    def test_pool_does_not_change_results(self, monkeypatch):
        # the per-m tasks follow the sweeps' rule: 2 * (1024 + 2048 + 4096)
        # dither entries reach the threshold, so 2 cores run 2 workers
        op = build("gaussian", 128, 64, seed=15)
        pools = _pool_sizes(monkeypatch)
        reps = []
        for cores in (1, 2):
            _patch_cores(monkeypatch, cores)
            reps.append(check_product_concentration(
                op, sparse(4, 64, radius=2.0), QuantConfig(1.0), [4096, 1024, 2048], trials=20, seed=16, distance=1.0,
            ))
        assert pools == [2]
        assert reps[0] == reps[1]
        assert reps[0]["m_list"] == [1024, 2048, 4096]

    def test_rank_one_probes_rebuilt_with_shape_and_kappa(self):
        # the check rebuilds rank-one probes at every m with the passed
        # operator's matrix shape and kappa
        reps = [
            check_product_concentration(
                build_rop(64, 4, 4, seed=1, kappa=kappa), low_rank(1, 4, 4), QuantConfig(1.0),
                [64, 128, 256, 512, 1024], trials=80, seed=3, distance=1.0,
            )
            for kappa in (1.0, 1.0, 2.0)
        ]
        assert reps[0]["passed"] and reps[2]["passed"]
        assert reps[0]["stddevs"] == reps[1]["stddevs"]
        assert reps[0]["stddevs"] != reps[2]["stddevs"]

    def test_identical_points_zero_spread(self):
        op = build("gaussian", 64, 16, seed=17)
        cfg = QuantConfig(1.0)
        x = stream(18, "t").standard_normal(16)
        from qembed.embeddings import quantize_with_dither, _estimate_from_codes
        from qembed import sample_dither

        ests = []
        for t in range(10):
            drng = stream(19, "t", t)
            xi = np.column_stack([sample_dither(64, cfg, drng), sample_dither(64, cfg, drng)])
            y = op.matvec(x)
            c = quantize_with_dither(np.column_stack([y, y]), xi, cfg)
            ests.append(_estimate_from_codes(c, c, "circ", 1.0))
        assert ests == [0.0] * 10


class TestSelftest:
    def test_all_pass_and_stable(self):
        a = selftest(seed=5, fast=True)
        b = selftest(seed=5, fast=True)
        assert all(c["passed"] for c in a)
        assert a == b

    def test_seed_changes_details(self):
        a = selftest(seed=5, fast=True)
        b = selftest(seed=6, fast=True)
        assert [c["name"] for c in a] == [c["name"] for c in b]


class TestEndToEndInvariants:
    def test_guard_band_bounds_on_embedded_measurements(self):
        # the scalar guard-band bounds re-asserted on dithered
        # measurement values coming out of an operator
        op = build("gaussian", 256, 32, seed=23, rip=(1, 2))
        mset = sparse(4, 32, radius=8.0)
        cfg = QuantConfig(1.0)
        rng = stream(24, "t")
        from qembed import sample_dither, sample_pair

        for trial in range(10):
            x, x_prime = sample_pair(mset, 1.5, rng)
            xi = sample_dither(256, cfg, rng)
            a = op.matvec(x) + xi
            b = op.matvec(x_prime) + xi
            t = np.full(256, rng.uniform(-1, 1))
            s = np.full(256, rng.uniform(-1, 1))
            eps = rng.uniform(0, 0.5)
            r1 = rng.uniform(-eps, eps, size=256)
            r2 = rng.uniform(-eps, eps, size=256)
            d_mid = np.asarray(_threshold_count(a + r1, b + r2, t, 1.0))
            assert np.all(_threshold_count(a, b, t + eps, 1.0) <= d_mid)
            assert np.all(d_mid <= _threshold_count(a, b, t - eps, 1.0))
            assert np.all(np.abs(_threshold_count(a, b, t, 1.0) - _threshold_count(a, b, s, 1.0)) <= 4 * (1 + np.abs(t - s)) + 1e-12)
            assert np.all(np.abs(_threshold_count(a, b, t, 1.0) - np.abs(a - b)) <= 4 * (1 + np.abs(t)) + 1e-12)

    def test_l2sq_floor_grows_below_delta(self):
        # the squared-route residual per unit distance increases as the
        # distance drops below one cell, unlike the product route
        op = build("gaussian", 4096, 64, seed=25)
        mset = sparse(4, 64, radius=20.0)
        grid = [0.05, 0.2, 1.0, 5.0, 10.0]
        run = measure_qrip(op, mset, "l2sq", QuantConfig(1.0), grid, 6, 8, seed=26)
        per_unit = run.fit.rho_hat_max / np.asarray(grid)
        below = per_unit[:3]  # distances 0.05, 0.2, 1.0
        assert below[0] > below[1] > below[2]


class TestCsvEmission:
    def test_schemas(self):
        op = build("gaussian", 32, 8, seed=20)
        run = measure_qrip(op, sparse(2, 8, radius=4.0), "l2sq", QuantConfig(1.0), [0.5, 1.0], 2, 3, seed=21)
        rec_lines = records_csv(run).splitlines()
        assert rec_lines[0] == RECORD_COLUMNS
        assert len(rec_lines) == 1 + len(run.records)
        sm_lines = summary_csv(run).splitlines()
        assert sm_lines[0] == SUMMARY_COLUMNS
        assert len(sm_lines) == 3
        # round-trip: fields parse back to the records
        first = rec_lines[1].split(",")
        assert int(first[0]) == 32 and first[2] == "l2sq"
        assert float(first[3]) == run.records[0].true_dist
        assert float(first[4]) == pytest.approx(run.records[0].est_dist, rel=1e-11)

import math
import os
import threading
import warnings

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
from qembed import linops, verify
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

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            check_dither_identity(0.1, 0.4, QuantConfig(1.0), 10_000.5)
        with pytest.raises(ValueError, match="^pairs must be an integer"):
            estimate_rip(build("gaussian", 16, 8, seed=1), sparse(2, 8), 2, 2, 50.5, stream(0, "t"))

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

    def test_model_dimension_must_match(self):
        op = build("gaussian", 64, 16, seed=8)
        with pytest.raises(ValueError, match="model dimension 32 does not match .* n = 16"):
            estimate_rip(op, sparse(2, 32), 2, 2, pairs=60, rng=stream(9, "t"))


def _pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of every thread pool opened from now on: a
    sweep's, and a streamed product's of more than one slab."""
    sizes = []

    class Spy(linops.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(linops, "ThreadPoolExecutor", Spy)
    return sizes


def _sweep_pools(monkeypatch) -> list:
    """The worker count of every sweep pool (``verify._map_threads``) from now on."""
    workers = []
    map_threads = verify._map_threads
    monkeypatch.setattr(verify, "_map_threads", lambda fn, items, n: workers.append(n) or map_threads(fn, items, n))
    return workers


def _patch_cores(monkeypatch, cores: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


class TestDefaultWorkers:
    @pytest.mark.parametrize(
        "cores, block, pairs, workers",
        [
            # below the threshold, the old 2**13 one among them, one worker
            (1, 2**13, 6, 1),
            (1, 2**14 - 1, 6, 1),
            (1, 2**14, 6, 1),
            (4, 2**13 - 1, 6, 1),
            (4, 2**13, 6, 1),
            (4, 2**16 - 1, 6, 1),
            # at and above it, one per core, capped at the task count
            (1, 2**16, 6, 1),
            (4, 2**16, 6, 4),
            (4, 2**17 - 1, 6, 4),
            (4, 2**17, 6, 4),
            (4, 2**17, 3, 3),
        ],
    )
    def test_affinity_cores(self, monkeypatch, cores, block, pairs, workers):
        _patch_cores(monkeypatch, cores)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _default_workers(block, pairs) == workers

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _default_workers(2**16, 8) == 3
        assert _default_workers(2**16 - 1, 8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_workers(2**16, 8) == 1

    @pytest.mark.parametrize(
        "mode, ms, pairs, dithers, key, workers",
        [
            ("l1", [128, 256, 512, 1024, 2048, 4096, 8192], 8, 16, 8192, 1),
            ("circ", [32768], 6, 96, 65536, 2),
        ],
        ids=["decay_l1", "sweep_circ"],
    )
    def test_benchmark_shapes(self, monkeypatch, mode, ms, pairs, dithers, key, workers):
        # the two benchmark sweeps (gaussian, n = 256, 5 distances) on 2
        # cores: a trial draws cols * max(m) dither entries, so decay_l1's
        # seven dimensions run inline and sweep_circ keeps 2 workers.  The
        # spy stops each sweep once the rule has answered.
        _patch_cores(monkeypatch, 2)
        seen = []
        rule = verify._default_workers

        class Stop(Exception):
            pass

        def spy(entries, tasks):
            seen.append((entries, tasks, rule(entries, tasks)))
            raise Stop

        monkeypatch.setattr(verify, "_default_workers", spy)
        ops = [build("gaussian", m, 256, seed=1, **({"rip": (1, 2)} if mode == "l1" else {})) for m in ms]
        with pytest.raises(Stop):
            measure_decay(ops, sparse(4, 256, radius=20.0), mode, QuantConfig(1.0), [0.05, 0.2, 1.0, 5.0, 10.0],
                          pairs, dithers, seed=11)
        assert seen == [(key, pairs, workers)]


class TestSweepErrorState:
    """A sweep's tasks run under the error state around its measure-and-map
    section, the caller's with overflow and invalid values ignored, on the
    pool as inline."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("over", ["raise", "ignore"])
    def test_tasks_on_the_pool_see_the_sweeps_error_state(self, monkeypatch, cores, over):
        _patch_cores(monkeypatch, cores)
        monkeypatch.setattr(verify, "_PARALLEL_MIN_BLOCK", 1)
        seen = []
        task = verify._qrip_task

        def spy(*args):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return task(*args)

        monkeypatch.setattr(verify, "_qrip_task", spy)
        # at radius 1e154 the squared measurement gaps overflow: the tasks
        # report it as the one-line error, with no FloatingPointError or warning
        op = build("gaussian", 16, 8, seed=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over=over, divide="raise"), pytest.raises(ValueError, match="overflows float64") as err:
                measure_decay([op], sparse(2, 8, radius=1e154), "l2sq", QuantConfig(1e150), [1e154], 2, 2, seed=0)
        assert "\n" not in str(err.value)
        assert seen and all(main == (cores == 1) for main, _ in seen)
        assert all(state == {"divide": "raise", "over": "ignore", "under": "ignore", "invalid": "ignore"}
                   for _, state in seen)


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

    @pytest.mark.parametrize("pairs,dithers,match", [
        (1.5, 2, "^pairs_per_distance must be an integer, got "),
        (2, 2.0, "^dithers_per_pair must be an integer, got "),
        (2**32 + 1, 1, r"^pairs_per_distance must be at most 2\*\*32 "),
        (1, 99_999_999_999, r"^dithers_per_pair must be at most 2\*\*32 "),
    ])
    def test_bad_count_rejected(self, pairs, dithers, match):
        # pairs_per_distance=1.5 failed in numpy's indexing ("indices must be integers"); ids are
        # 32-bit stream index words, and np.arange asked for 745 GiB at 99999999999 pairs
        op = build("gaussian", 16, 8, seed=12)
        with pytest.raises(ValueError, match=match):
            measure_qrip(op, sparse(2, 8), "l1", QuantConfig(1.0), [0.5], pairs, dithers, seed=0)

    def test_model_dimension_must_match(self):
        ops = [build("gaussian", m, 8, seed=12) for m in (16, 32)]
        for mset in (sparse(2, 16), sparse(2, 4)):
            with pytest.raises(ValueError, match=f"model dimension {mset.ambient_dim} does not match .* n = 8"):
                measure_decay(ops, mset, "l1", QuantConfig(1.0), [1.0], 1, 2, seed=0)

    @pytest.mark.parametrize(
        "mode,s", [("l2sq", 1e-300), ("circ", 1e-170), ("l2sq", 1e155), ("l1", math.inf), ("l1", math.nan)]
    )
    def test_grid_target_must_be_positive_and_finite(self, mode, s):
        # s**p of 0 or inf would make every rel_err and the fit NaN
        op = build("gaussian", 16, 8, seed=12)
        with pytest.raises(ValueError, match="grid distance") as err:
            measure_decay([op], sparse(2, 8, radius=1e160), mode, QuantConfig(1.0), [1.0, s], 1, 2, seed=0)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("decay", [False, True])
    @pytest.mark.parametrize(
        "delta,match",
        [(1e150, r"grid distance 1e\+154: .* overflows float64"), (1.0, "finite")],
        ids=["estimate", "premetric"],
    )
    def test_estimate_or_premetric_that_overflows_raises(self, decay, delta, match):
        # at radius 1e154 the squared measurement gaps overflow; at delta
        # 1e150 the codes fit but delta**2 times their squared gaps does not
        op = build("gaussian", 16, 8, seed=12)
        args = (sparse(2, 8, radius=1e154), "l2sq", QuantConfig(delta), [1e154], 1, 2)
        with pytest.raises(ValueError, match=match) as err:
            measure_decay([op], *args, seed=0) if decay else measure_qrip(op, *args, seed=0)
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
        # a decay sweep's operators share a seed, so a dense family's smaller m may read the largest one's rows
        op_seeds = [7] * len(m_list) if nested else [7 + 100 * k for k in range(len(m_list))]
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

    def test_nested_dimensions_do_not_add_up(self, monkeypatch):
        # a trial draws its dithers once, at the largest m, so the pool is
        # keyed on that m alone: with the threshold at 8192, 1024 + ... +
        # 4096 sums past it but runs inline on 2 cores, while a largest m
        # at it runs 2 workers; each sweep's outputs are bit-equal at 1 and
        # 2 cores
        monkeypatch.setattr(verify, "_PARALLEL_MIN_BLOCK", 8192)
        mset = sparse(4, 64, radius=20.0)
        for ms, workers in (([1024, 2048, 3072, 4096], 1), ([1024, 2048, 4096, 8192], 2)):
            assert sum(ms) >= 8192
            ops = [build("gaussian", m, 64, seed=21, rip=(1, 2)) for m in ms]
            pools = _sweep_pools(monkeypatch)
            runs = []
            for cores in (1, 2):
                _patch_cores(monkeypatch, cores)
                runs.append(measure_decay(ops, mset, "l1", QuantConfig(0.7), [0.05, 1.0, 10.0], 3, 4, seed=22))
            assert pools == [1, workers]
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


def _spy_blocks(monkeypatch) -> list:
    """(operator, block start) of every dense row block drawn from now on."""
    drawn = []
    fill = linops._DenseIIDOp._fill_rows

    def spy(op, gen, first, out):
        drawn.extend((op, b) for b in range(first, first + len(out), 64))
        fill(op, gen, first, out)

    monkeypatch.setattr(linops._DenseIIDOp, "_fill_rows", spy)
    return drawn


class TestNestedReads:
    """A sweep computes each operator's measurements in one ``matvecs``
    pass, except a dense operator whose rows are the leading rows of a
    larger one of the sweep and whose product blocks are blocks of that
    one's: it reads that one's leading columns."""

    # the m built at the parent's seed that read the parent's rows, per M:
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
            op = build("gaussian", m, 8, seed=3, rip=(1, 2))
            nested = m in self.NESTED[M]
            assert np.shares_memory(*linops._products([parent, op], xs)) == nested
            if nested:
                assert parent.matvecs(xs)[:, :m].tobytes() == op.matvecs(xs).tobytes()
            calls = _spy_matvecs(monkeypatch)
            # the parent comes first, so at m = M it is the one computed
            _, run = measure_decay([parent, op], mset, "l1", cfg, [0.5, 2.0], 2, 2, seed=5)
            monkeypatch.undo()
            # one call per operator computed, for every pair id at once
            assert (calls.count(parent), calls.count(op), len(calls)) == ((1, 0, 1) if nested else (1, 1, 2))
            alone = measure_qrip(build("gaussian", m, 8, seed=3, rip=(1, 2)), mset, "l1", cfg, [0.5, 2.0], 2, 2, seed=5)
            assert np.array_equal(run.estimates, alone.estimates)
            assert np.array_equal(run.linear_est, alone.linear_est)

    def test_one_matvecs_call_per_sweep_on_the_decay_benchmark(self, monkeypatch):
        # the benchmark's decay_l1 sweep, built at every m: every smaller m
        # reads the largest one's rows, and each of its blocks is drawn once
        ops = [build("gaussian", m, 256, seed=3, rip=(1, 2)) for m in (128, 256, 512, 1024, 2048, 4096, 8192)]
        calls, drawn = _spy_matvecs(monkeypatch), _spy_blocks(monkeypatch)
        runs = measure_decay(ops, sparse(4, 256, radius=20.0), "l1", QuantConfig(1.0), [0.05, 0.2, 1.0, 5.0, 10.0],
                             8, 16, seed=3)
        assert calls == [ops[-1]]
        assert all(op is ops[-1] for op, _ in drawn)
        assert sorted(b for _, b in drawn) == list(range(0, 8192, 64))
        assert [run.estimates.shape for run in runs] == [(8, 5, 16)] * 7


class TestStreamedSweeps:
    """A sweep measures each dense operator it computes in one streamed
    pass before its pool starts: slabs of whole 64-row blocks on every
    usable core, each thread reusing one slab buffer, with no matrix held."""

    # 4097 x 256 streams in sixteen 256-row slabs, the last one 257 rows
    M, N = 4097, 256

    def _sweep(self, ops):
        return measure_decay(ops, sparse(4, self.N, radius=20.0), "circ", QuantConfig(1.0), [0.05, 1.0, 10.0],
                             3, 4, seed=9)

    def _ops(self):
        # 128 reads the largest one's rows; 100 and 1000 compute their own
        return [build("gaussian", m, self.N, seed=3) for m in (100, 128, 1000, self.M)]

    def test_one_slab_buffer_per_thread(self, monkeypatch):
        _patch_cores(monkeypatch, 2)
        mapped = []
        row_buffer = linops._row_buffer
        monkeypatch.setattr(linops, "_row_buffer", lambda rows, n: mapped.append((rows, n)) or row_buffer(rows, n))
        op = build("gaussian", self.M, self.N, seed=3)
        self._sweep([op])
        step = linops._SLAB_ENTRIES // self.N
        slabs = [rows for rows, n in mapped if n == self.N]
        # the last slab also takes the 1..63 rows past the product's last full block
        assert len(slabs) == 2 and all(rows <= step + 63 for rows in slabs)
        # the other mapping holds the (k, m) measurements, returned with them
        assert [n for _, n in mapped if n != self.N] == [self.M]
        assert op._cache is None

    def test_each_block_drawn_once_per_operator(self, monkeypatch):
        drawn = _spy_blocks(monkeypatch)
        ops = self._ops()
        calls = _spy_matvecs(monkeypatch)
        self._sweep(ops)
        for op in ops:
            starts = sorted(b for o, b in drawn if o is op)
            assert starts == ([] if op.m == 128 else list(range(0, op.m, 64)))
        assert calls == [ops[-1], ops[2], ops[0]]

    def test_estimates_do_not_depend_on_cores_or_cache(self, monkeypatch):
        runs = []
        for cores, cached in ((1, False), (2, False), (3, False), (2, True)):
            _patch_cores(monkeypatch, cores)
            ops = self._ops()
            if cached:
                for op in ops:
                    op.dense()
            runs.append(self._sweep(ops))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.estimates.tobytes() == b.estimates.tobytes()
                assert a.linear_est.tobytes() == b.linear_est.tobytes()
                assert records_csv(a) + summary_csv(a) == records_csv(b) + summary_csv(b)


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

    @pytest.mark.parametrize("other", [("l2sq", 1.0), ("l1", 0.5)])
    def test_rejects_runs_of_different_mode_or_delta(self, other):
        op = build("gaussian", 16, 8, seed=12)
        mset = sparse(2, 8, radius=4.0)
        runs = [measure_qrip(op, mset, "l1", QuantConfig(1.0), [0.5, 1.0], 2, 2, seed=0) for _ in range(3)]
        mode, delta = other
        runs.append(measure_qrip(op, mset, mode, QuantConfig(delta), [0.5, 1.0], 2, 2, seed=0))
        with pytest.raises(ValueError, match="one \\(mode, delta\\)"):
            fit_decay(runs)

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


def _gaussians(ms, n: int, seed: int) -> list[LinOp]:
    """Gaussian operators at ascending ``ms``, the one of rank i seeded seed + 1000 * i."""
    return [build("gaussian", m, n, seed=seed + 1000 * i) for i, m in enumerate(ms)]


class TestProductConcentration:
    @pytest.mark.parametrize("trials,match", [
        (2.5, "^trials must be an integer"),
        (99_999_999_999, r"^trials must be at most 2\*\*32 "),
    ])
    def test_bad_count_rejected(self, trials, match):
        with pytest.raises(ValueError, match=match):
            check_product_concentration(_gaussians([16, 32], 8, 15), sparse(2, 8), QuantConfig(1.0), trials=trials)

    @pytest.mark.parametrize("ops,match", [
        ([], "^a sweep needs at least one operator$"),
        (_gaussians([16], 8, 15), "^need at least two operators$"),
        ([build("gaussian", 16, 8, seed=15), build("gaussian", 32, 8, seed=15, rip=(1, 2))], r"^operators of one sweep need one \(n, rip_profile\)"),
        ([build("gaussian", 16, 8, seed=15), build("gaussian", 32, 4, seed=15)], r"^operators of one sweep need one \(n, rip_profile\)"),
    ], ids=["none", "one", "two-profiles", "two-dimensions"])
    def test_operator_list_rejected(self, ops, match):
        with pytest.raises(ValueError, match=match):
            check_product_concentration(ops, sparse(2, 8), QuantConfig(1.0), trials=2)

    def test_model_dimension_must_match(self):
        with pytest.raises(ValueError, match="model dimension 64 does not match .* n = 8"):
            check_product_concentration(_gaussians([16, 32], 8, 15), sparse(4, 64), QuantConfig(1.0), trials=2)

    def test_estimate_that_overflows_raises(self):
        # delta**2 times the squared code gaps overflows float64 at every m
        with pytest.raises(ValueError, match=r"grid distance 1e\+154: .* overflows float64") as err:
            check_product_concentration(
                _gaussians([16, 32], 8, 15), sparse(2, 8, radius=1e154), QuantConfig(1e150), trials=2, distance=1e154
            )
        assert "\n" not in str(err.value)

    def test_slope_and_ratios(self):
        rep = check_product_concentration(
            _gaussians([128, 256, 512, 1024, 2048, 4096, 8192], 64, 15), sparse(4, 64, radius=2.0), QuantConfig(1.0),
            trials=160, seed=16, distance=1.0,
        )
        assert rep["passed"]
        assert all(0.55 <= r <= 0.9 for r in rep["doubling_ratios"])

    def test_pinned_stddevs(self):
        # acceptance test 08's call, pinned bit for bit
        rep = check_product_concentration(
            _gaussians([128, 256, 512, 1024, 2048, 4096, 8192], 256, 11), sparse(4, 256, radius=2.0), QuantConfig(1.0),
            trials=160, seed=9, distance=1.0,
        )
        assert rep["stddevs"] == [
            0.054163453883917155, 0.038074675680356204, 0.02565823011485338, 0.017990256320068985,
            0.013336720846952607, 0.009793990104682043, 0.006967063204482336,
        ]

    def test_pool_does_not_change_results(self, monkeypatch):
        # the per-m tasks follow the sweeps' rule, keyed on the largest
        # operator's 2 * 4096 dither entries, made the threshold here, so
        # 2 cores run 2 workers; the operators are ranked by m whatever
        # order they come in.  The streamed products open slab pools of
        # their own, which the sweep's count leaves out
        small, mid, large = _gaussians([1024, 2048, 4096], 64, 15)
        monkeypatch.setattr(verify, "_PARALLEL_MIN_BLOCK", 2 * 4096)
        pools = _sweep_pools(monkeypatch)
        reps = []
        for cores in (1, 2):
            _patch_cores(monkeypatch, cores)
            reps.append(check_product_concentration(
                [large, small, mid], sparse(4, 64, radius=2.0), QuantConfig(1.0), trials=20, seed=16, distance=1.0,
            ))
        assert pools == [1, 2]
        assert reps[0] == reps[1]
        assert reps[0]["m_list"] == [1024, 2048, 4096]

    def test_rank_one_probes_rebuilt_with_shape_and_kappa(self):
        # rank-one probes of one matrix shape at every m; kappa scales the
        # argument fed to the quantizer, so it changes the spread
        reps = [
            check_product_concentration(
                [build_rop(m, 4, 4, seed=1 + 1000 * i, kappa=kappa) for i, m in enumerate([64, 128, 256, 512, 1024])],
                low_rank(1, 4, 4), QuantConfig(1.0), trials=80, seed=3, distance=1.0,
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

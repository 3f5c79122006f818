import itertools
import math

import numpy as np
import pytest

from qembed import (
    QuantConfig,
    ball,
    ball_mean_width_exact,
    dict_sparse,
    entropy_bound,
    finite_cloud,
    group_sparse,
    low_rank,
    low_rank_joint_sparse,
    mean_width_mc,
    required_m,
    sample_pair,
    sample_point,
    sparse,
    subspace_union,
    support_function,
)
from qembed.modelsets import ModelSet
from qembed.rng import stream


def contains(mset: ModelSet, x: np.ndarray, tol: float = 1e-9) -> bool:
    """Structural membership check used by the test suite."""
    k = mset.kind
    p = mset.params
    x = np.asarray(x, dtype=float)
    if k == "sparse":
        return int(np.count_nonzero(x)) <= p["s"]
    if k == "group_sparse":
        blocks = x.reshape(p["n"], p["l"])
        return int(np.count_nonzero(np.linalg.norm(blocks, axis=1) > tol)) <= p["s"]
    if k in ("low_rank", "low_rank_joint_sparse"):
        sv = np.linalg.svd(x.reshape(p["n1"], p["n2"]), compute_uv=False)
        rank_ok = np.all(sv[p["r"] :] <= tol * max(sv[0], 1.0))
        if k == "low_rank":
            return bool(rank_ok)
        rows = np.linalg.norm(x.reshape(p["n1"], p["n2"]), axis=1)
        return bool(rank_ok and int(np.count_nonzero(rows > tol)) <= p["s"])
    if k == "subspace_union":
        for b in p["bases"]:
            resid = x - b @ (b.T @ x)
            if np.linalg.norm(resid) <= tol * max(np.linalg.norm(x), 1.0):
                return True
        return False
    if k == "ball":
        return bool(np.linalg.norm(x) <= mset.radius * (1 + 1e-12) + tol)
    if k == "finite_cloud":
        pts = p["points"]
        return bool(np.min(np.linalg.norm(pts - x, axis=tuple(range(1, pts.ndim)))) <= tol)
    if k == "dict_sparse":
        d = p["D"]
        coef, *_ = np.linalg.lstsq(d, x, rcond=None)
        # representable with some coefficients; sparsity of coef is not
        # identifiable without combinatorial search, so check residual only
        return bool(np.linalg.norm(d @ coef - x) <= tol * max(np.linalg.norm(x), 1.0))
    raise ValueError(f"unknown model kind {k!r}")


def _all_sets(rng):
    bases = [rng.standard_normal((12, 3)) for _ in range(4)]
    pts = rng.standard_normal((6, 8))
    d = rng.standard_normal((10, 24))
    return [
        sparse(2, 5),
        group_sparse(2, 3, 6),
        low_rank(1, 4, 4),
        low_rank_joint_sparse(1, 2, 6, 4),
        subspace_union(bases),
        ball(7, radius=1.5),
        finite_cloud(pts),
        dict_sparse(d, 3),
    ]


class TestSamplePoint:
    def test_membership_many_samples(self):
        rng = stream(0, "test:membership")
        for mset in _all_sets(rng):
            srng = stream(1, "test:membership", hash(mset.kind) % 1000)
            for _ in range(10_000):
                x = sample_point(mset, srng)
                assert contains(mset, x, tol=1e-9), mset.kind

    @pytest.mark.parametrize("kind", ["sparse", "subspace_union", "dict_sparse"])
    def test_matches_the_per_kind_draws_it_replaced(self, kind):
        # sample_point once drew these kinds itself; lifting one Gaussian
        # coordinate vector through the pair sampler's frame consumes the
        # stream the same way, so seeded points did not change
        mset = {s.kind: s for s in _all_sets(stream(0, "test:membership"))}[kind]
        p = mset.params

        def old_draw(rng):
            if kind == "sparse":
                support = rng.choice(p["n"], size=p["s"], replace=False)
                x = np.zeros(p["n"])
                x[support] = rng.standard_normal(p["s"])
            elif kind == "subspace_union":
                b = p["bases"][rng.integers(len(p["bases"]))]
                x = b @ rng.standard_normal(b.shape[1])
            else:
                support = rng.choice(p["D"].shape[1], size=p["s"], replace=False)
                x = p["D"][:, support] @ rng.standard_normal(p["s"])
            return x / np.linalg.norm(x)

        for seed in range(50):
            assert np.array_equal(sample_point(mset, stream(seed, "t")), old_draw(stream(seed, "t")))

    def test_sparse_unit_norm(self):
        mset = sparse(2, 5)
        rng = stream(2, "t")
        for _ in range(50):
            x = sample_point(mset, rng)
            assert np.count_nonzero(x) <= 2
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_low_rank_singular_values(self):
        mset = low_rank(1, 4, 4)
        rng = stream(3, "t")
        for _ in range(50):
            u = sample_point(mset, rng)
            sv = np.linalg.svd(u, compute_uv=False)
            assert sv[0] == pytest.approx(np.linalg.norm(u, "fro"), rel=1e-12)
            assert sv[1] <= 1e-9

    def test_ball_radius(self):
        mset = ball(7, radius=1.5)
        rng = stream(4, "t")
        for _ in range(200):
            assert np.linalg.norm(sample_point(mset, rng)) <= 1.5 + 1e-12


class TestSamplePair:
    def test_distance_zero(self):
        mset = sparse(2, 10)
        x, x_prime = sample_pair(mset, 0.0, stream(5, "t"))
        assert np.array_equal(x, x_prime)

    def test_sparse_exact_distance_shared_support(self):
        mset = sparse(2, 10)
        rng = stream(6, "t")
        for _ in range(100):
            x, x_prime = sample_pair(mset, 0.3, rng)
            assert np.linalg.norm(x - x_prime) == pytest.approx(0.3, rel=1e-10)
            support = set(np.nonzero(x)[0]) | set(np.nonzero(x_prime)[0])
            assert len(support) <= 2
            assert contains(mset, x) and contains(mset, x_prime)

    def test_low_rank_pair(self):
        mset = low_rank(1, 8, 8)
        rng = stream(7, "t")
        for _ in range(25):
            x, x_prime = sample_pair(mset, 1.2, rng)
            assert np.linalg.norm(x - x_prime, "fro") == pytest.approx(1.2, rel=1e-10)
            for u in (x, x_prime):
                sv = np.linalg.svd(u, compute_uv=False)
                assert sv[1] <= 1e-9 * max(sv[0], 1.0)

    def test_q1_distance(self):
        mset = sparse(3, 12, radius=2.0)
        rng = stream(8, "t")
        for _ in range(100):
            x, x_prime = sample_pair(mset, 0.7, rng, q=1)
            assert np.abs(x - x_prime).sum() == pytest.approx(0.7, rel=1e-10)
            assert np.abs(x).sum() <= 2.0 + 1e-9

    def test_points_stay_in_radius(self):
        mset = ball(6, radius=1.0)
        rng = stream(9, "t")
        for _ in range(200):
            d = rng.uniform(0, 2.0)
            x, x_prime = sample_pair(mset, d, rng)
            assert np.linalg.norm(x) <= 1.0 + 1e-9
            assert np.linalg.norm(x_prime) <= 1.0 + 1e-9

    def test_infeasible_distance(self):
        with pytest.raises(ValueError):
            sample_pair(sparse(2, 5, radius=1.0), 2.5, stream(10, "t"))

    def test_l2_radius_whose_square_overflows(self):
        # 1e200**2 overflows a double: the l2 geometry cannot be formed
        with pytest.raises(ValueError, match="square overflows"):
            sample_pair(sparse(2, 8, radius=1e200), 1.0, stream(10, "t"))
        x, x_prime = sample_pair(sparse(2, 8, radius=1e150), 1e150, stream(10, "t"))
        assert np.linalg.norm(x - x_prime) == pytest.approx(1e150, rel=1e-10)

    def test_group_sparse_pair_shares_groups(self):
        mset = group_sparse(2, 3, 6)
        rng = stream(30, "t")
        for _ in range(50):
            x, x_prime = sample_pair(mset, 0.5, rng)
            assert np.linalg.norm(x - x_prime) == pytest.approx(0.5, rel=1e-10)
            blocks = (x != 0) | (x_prime != 0)
            active = {i for i in range(6) if blocks[i * 3 : (i + 1) * 3].any()}
            assert len(active) <= 2
            assert contains(mset, x) and contains(mset, x_prime)

    def test_subspace_union_pair_in_one_subspace(self):
        rng = stream(31, "t")
        bases = [rng.standard_normal((10, 2)) for _ in range(3)]
        mset = subspace_union(bases)
        for _ in range(30):
            x, x_prime = sample_pair(mset, 0.8, rng)
            assert np.linalg.norm(x - x_prime) == pytest.approx(0.8, rel=1e-10)
            in_one = any(
                np.linalg.norm(v - b @ (b.T @ v)) <= 1e-9
                for b in mset.params["bases"]
                for v in [x, x_prime, x - x_prime]
            )
            assert contains(mset, x) and contains(mset, x_prime) and in_one

    def test_dict_sparse_pair(self):
        rng = stream(32, "t")
        d = rng.standard_normal((8, 20))
        mset = dict_sparse(d, 3)
        for _ in range(30):
            x, x_prime = sample_pair(mset, 0.4, rng)
            assert np.linalg.norm(x - x_prime) == pytest.approx(0.4, rel=1e-10)
            assert contains(mset, x) and contains(mset, x_prime)

    def test_cloud_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        mset = finite_cloud(pts, radius=2.0)
        x, x_prime = sample_pair(mset, 1.0, stream(11, "t"))
        assert np.linalg.norm(x - x_prime) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            sample_pair(mset, 0.9, stream(12, "t"))


class TestSupportFunction:
    def test_examples(self):
        assert support_function(sparse(2, 3), [3.0, -1.0, 2.0]) == pytest.approx(math.sqrt(13))
        g = np.diag([3.0, 1.0]).ravel()
        assert support_function(low_rank(1, 2, 2), g) == pytest.approx(3.0)
        assert support_function(ball(2, radius=1.0), [3.0, 4.0]) == pytest.approx(5.0)

    def test_sparse_brute_force(self):
        # exhaustive max over all supports of size s, n <= 12, s <= 3
        rng = stream(13, "t")
        for n, s in [(6, 2), (9, 3), (12, 3)]:
            mset = sparse(s, n)
            for _ in range(20):
                g = rng.standard_normal(n)
                brute = max(
                    np.linalg.norm(g[list(sup)])
                    for sup in itertools.combinations(range(n), s)
                )
                assert support_function(mset, g) == pytest.approx(brute, abs=1e-12)

    def test_low_rank_brute_force(self):
        # random rank-one probes lower-bound the top singular value
        rng = stream(14, "t")
        mset = low_rank(1, 3, 3)
        g = rng.standard_normal(9)
        val = support_function(mset, g)
        best = 0.0
        gm = g.reshape(3, 3)
        for _ in range(100_000):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            best = max(best, abs(u @ gm @ v))
        assert best <= val + 1e-12
        assert best >= 0.98 * val

    def test_subspace_union_and_cloud(self):
        rng = stream(15, "t")
        bases = [rng.standard_normal((8, 2)) for _ in range(3)]
        mset = subspace_union(bases)
        g = rng.standard_normal(8)
        expected = max(np.linalg.norm(b.T @ g) for b in mset.params["bases"])
        assert support_function(mset, g) == pytest.approx(expected, rel=1e-12)
        cloud = finite_cloud(np.eye(3)[:1])
        assert support_function(cloud, [0.4, 1.0, -2.0]) == pytest.approx(0.4)

    def test_group_sparse_brute_force(self):
        # exhaustive max over all sets of s active groups (group j holds
        # entries j*l .. j*l + l - 1), n <= 6 groups
        rng = stream(21, "t")
        for s, l, n in [(1, 3, 4), (2, 2, 5), (3, 2, 6), (2, 4, 2)]:
            mset = group_sparse(s, l, n)
            for _ in range(10):
                g = rng.standard_normal(n * l)
                brute = max(
                    np.linalg.norm(np.concatenate([g[j * l : (j + 1) * l] for j in groups]))
                    for groups in itertools.combinations(range(n), s)
                )
                assert support_function(mset, g) == pytest.approx(brute, abs=1e-12)

    def test_scales_with_radius(self):
        # members scale with the radius; a finite cloud's members are its points
        bases = [stream(22, "t").standard_normal((12, 2))]
        kinds = [
            lambda r: sparse(3, 12, radius=r), lambda r: group_sparse(2, 3, 4, radius=r),
            lambda r: low_rank(1, 3, 4, radius=r), lambda r: ball(12, radius=r),
            lambda r: subspace_union(bases, radius=r),
        ]
        g = stream(23, "t").standard_normal(12)
        for make in kinds:
            assert support_function(make(5.0), g) == pytest.approx(5 * support_function(make(1.0), g), rel=1e-12)
        points = stream(24, "t").standard_normal((4, 12))
        assert support_function(finite_cloud(points, radius=50.0), g) == support_function(finite_cloud(points), g)

    def test_unsupported_kinds(self):
        with pytest.raises(ValueError, match="unsupported for kind 'low_rank_joint_sparse'$"):
            support_function(low_rank_joint_sparse(1, 2, 3, 2), np.zeros(6))
        with pytest.raises(ValueError, match="unsupported for kind 'dict_sparse'$"):
            support_function(dict_sparse(np.eye(4), 2), np.zeros(4))


class TestMeanWidth:
    def test_ball_matches_closed_form(self):
        for n in (1, 2, 8):
            est, se = mean_width_mc(ball(n, radius=1.0), 100_000, stream(16, "t", n))
            assert abs(est - ball_mean_width_exact(n)) <= 3 * se

    def test_ball_closed_form_exact_values(self):
        expected = {
            1: 0.7978845608028655,
            2: 1.2533141373155003,
            3: 1.5957691216057308,
            7: 2.553230594569169,
            10: 3.084327759799865,
            64: 7.968812221998633,
            100: 9.975031639551357,
            1000: 31.614871896968094,
            12345: 111.10580547381839,
            200000: 447.2130364877651,
        }
        for n, value in expected.items():
            assert ball_mean_width_exact(n) == value

    def test_single_point_cloud(self):
        est, se = mean_width_mc(finite_cloud(np.eye(5)[:1]), 100_000, stream(17, "t"))
        assert abs(est - math.sqrt(2 / math.pi)) <= 3 * se

    def test_sparse_order_bound(self):
        est, _ = mean_width_mc(sparse(4, 256), 10_000, stream(18, "t"))
        assert est <= math.sqrt(2 * 4 * math.log(math.e * 256 / 4)) + 2

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            mean_width_mc(ball(2), 50, stream(19, "t"))


class TestEntropyBound:
    def test_sparse_example(self):
        val = entropy_bound(sparse(4, 1024, radius=1.0), 0.01, q=2)
        assert val == pytest.approx(4 * math.log(math.e * 256) * math.log(201), rel=1e-12)
        assert abs(val - 138.8) <= 0.1

    def test_large_eta_saturates(self):
        mset = sparse(4, 64, radius=1.0)
        val = entropy_bound(mset, 2.0 * mset.radius, q=2)
        c_k = 4 * math.log(math.e * 16)
        assert val <= c_k * math.log(2) + 1e-12

    def test_union_adds_log_pieces(self):
        single = entropy_bound(sparse(4, 64), 0.1, q=2)
        union = entropy_bound(sparse(4, 64, pieces=10), 0.1, q=2)
        assert union == pytest.approx(single + math.log(10), rel=1e-12)

    def test_monotone_decreasing_in_eta(self):
        mset = sparse(4, 128)
        etas = [0.01, 0.05, 0.2, 1.0]
        vals = [entropy_bound(mset, e, q=2) for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_q_restrictions(self):
        assert entropy_bound(sparse(2, 16), 0.1, q=1) > 0
        with pytest.raises(ValueError):
            entropy_bound(low_rank(1, 4, 4), 0.1, q=1)
        with pytest.raises(ValueError):
            entropy_bound(ball(4), 0.1, q=1)

    def test_ball_uses_exact_width(self):
        val = entropy_bound(ball(8, radius=1.0), 0.1, q=2)
        w = ball_mean_width_exact(8)
        assert val == pytest.approx((w / 0.1) ** 2, rel=1e-12)


class TestRequiredM:
    def test_reqm_example(self):
        cfg = QuantConfig(1.0)
        mset = sparse(4, 1024, radius=1.0)
        got = required_m("p1", mset, 0.1, cfg, C=1.0, q=2)
        # direct recomputation of the stated formula
        expected = math.ceil(100 * 4 * math.log(math.e * 256) * math.log(201))
        assert got == expected == 13885

    def test_monotone_decreasing_in_eps(self):
        cfg = QuantConfig(1.0)
        mset = sparse(4, 256)
        vals = [required_m("p1", mset, e, cfg) for e in (0.05, 0.1, 0.2, 0.5, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_p2_needs_fewer_than_p3(self):
        cfg = QuantConfig(0.5)
        mset = sparse(4, 256)
        for eps in (0.1, 0.3, 0.7):
            assert required_m("p2", mset, eps, cfg) <= required_m("p3", mset, eps, cfg)

    def test_validation(self):
        cfg = QuantConfig(1.0)
        with pytest.raises(ValueError):
            required_m("p4", sparse(2, 8), 0.1, cfg)
        with pytest.raises(ValueError):
            required_m("p1", sparse(2, 8), 1.5, cfg)
        with pytest.raises(ValueError):
            required_m("p1", sparse(2, 8), 0.1, cfg, C=-1)
        for C in (math.inf, math.nan):
            with pytest.raises(ValueError, match="C must be"):
                required_m("p1", sparse(2, 8), 0.1, cfg, C=C)
        with pytest.raises(ValueError, match="not a finite integer"):
            required_m("p1", sparse(2, 8), 1e-200, cfg)

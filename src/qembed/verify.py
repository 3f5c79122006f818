"""Monte Carlo distortion-verification harness.

Measures how well code-domain estimates track true pairwise distances:
empirical distortion of the linear maps, multiplicative/additive error
decomposition of the quantized estimates across a distance grid, decay
of the additive part with the embedding dimension, and the exact
identities that hold for dithered codes.

Conventions of the distortion fit (``measure_qrip``, ``measure_decay``):

* one sampling stream per pair id, reused across grid distances, so a
  pair keeps its support/direction as the distance sweeps (common random
  numbers; the linear map's per-pair error then cancels from additive
  residuals instead of masquerading as distance-dependent distortion);
* the multiplicative distortion estimate ``eps_L_hat`` is anchored at
  the largest grid distance, where the additive part is negligible
  relative to the signal: it is the worst pair's dither-median relative
  error there (worst pair because the distortion definition quantifies
  over all pairs);
* additive residuals remove the fitted multiplicative part and clip at
  zero; the per-distance table reports the max over records (worst case)
  and the median.

``measure_decay`` runs one sweep over several operators of one input
dimension and profile, such as a ``decay``'s embedding dimensions, and
``measure_qrip`` is its one-operator case.  Pairs and dithers are keyed
by (seed, pair id, ...) and not by the operator, so the sweep samples
each pair once per distance and draws each trial's dithers once, at the
largest m M: the operator at m reads the first cols * m of the trial's
cols * M values, bit for bit the values it would draw alone.  A pair
id's task samples its pair at every distance first, then measures all
2 * |grid| vectors with one ``LinOp.matvecs`` call per operator, which
for a dense family runs every vector against a 64-row block of the
matrix while the block is in cache.  An operator that
``_leading_rows`` marks as a prefix (``LinOp._prefix_of``), one whose
product blocks are blocks of the larger operator's, reads that
operator's leading output rows: the same BLAS calls on the same rows,
so the same bits.  Every other operator computes its own.

Every sweep, ``measure_decay`` and ``check_product_concentration``
alike, runs its pairs through ``_qrip_task``, and every trial runs in
``embeddings._PairKernel``, the single quantize-and-estimate kernel,
whose docstring describes its threshold compares and guards.

The keyed streams of a sweep come from one batched pass each
(``rng._stream_states``): all (pair, trial, distance) dither states and
all pair states are derived up front, and each task assigns them in
turn to one generator of its own.  A run keeps the (pairs, distances,
dithers) estimate array and the linear pre-metrics; the fit and
``records_csv`` read the estimates, and the per-pair dither means and
SDs and ``QripRun.records`` are derived from them on access.

The guard-band identity checks of ``selftest`` count thresholds with
``quantizer._threshold_count``, the counter behind ``soft_distance``,
with one t per tuple.  The dither identity checks quantize with
``quantize_with_dither`` and take cell gaps with ``quantizer._cell_gap``,
the floor and the gap of the code-domain estimators, so out-of-range
inputs raise the quantizer's one-line ValueError.

Every routine is a pure function of (seed, config); trials are keyed by
(seed, pair id, trial id), so results do not depend on execution order
or worker count.  A sweep runs its tasks, the pair ids of
``measure_decay`` or the dimensions of ``check_product_concentration``,
on a thread pool of one worker per usable core when a trial's dither
entries summed over all the sweep's operators (cols * sum of m) reach
``_PARALLEL_MIN_BLOCK`` = 2**13, where numpy spends most of a task
outside the GIL; below that, on one (see ``_default_workers``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import _PairKernel, quantize_with_dither
from .linops import LinOp, build, build_rop
from .modelsets import ModelSet, sample_pair
from .quantizer import _LAYOUT_COLS, QuantConfig, _cell_gap, _mode, _threshold_count, premetric, sample_dither
from .rng import _stream_states, stream

__all__ = [
    "DistortionRecord",
    "QripFit",
    "QripRun",
    "check_dither_identity",
    "estimate_rip",
    "measure_qrip",
    "measure_decay",
    "fit_decay",
    "check_product_concentration",
    "power_law_slope",
    "selftest",
    "records_csv",
    "summary_csv",
    "RECORD_COLUMNS",
    "SUMMARY_COLUMNS",
]

RECORD_COLUMNS = "m,delta,mode,true_dist,est_dist,rel_err,pair_id,trial_id,seed"
SUMMARY_COLUMNS = "m,mode,eps_L_hat,dist,rho_hat_max,rho_hat_median"

# The pool rule of every sweep (``_default_workers``): one worker per
# usable core once a trial's dither entries, summed over every operator
# of the sweep (cols * sum of m), reach this many; one worker below it,
# where the trials' Python and per-call overhead, which holds the GIL,
# dominates.  2 workers against 1, in-process ``measure_decay``, gaussian,
# n = 256, 8 pairs x 16 dithers x 5 distances, 2 cores, OpenBLAS at one
# thread, median of 7 per round, range over 4 rounds, estimates
# bit-identical:
#
#   entries  shape                                  2 workers
#   128      l1, m = 128                            0.58-0.89x
#   512      l1, m = 512; circ, m = 256             0.59-0.74x
#   2048     l1, m = 2048; circ, m = 1024           0.85-1.12x
#   4096     l1, m = 4096; circ, m = 2048           1.05-1.39x
#   8192     l1, m = 8192; circ, m = 4096           1.22-1.41x
#   10240    l1, m = 1024, 2048, 3072, 4096         1.22-1.45x
#   16256    l1, m = 128, 256, ..., 8192 (decay)    1.01-1.43x
#
# The low ends fell in spells when the two cores ran like one (a
# two-thread np.sin ran ~1x then).  An earlier 2-core measurement of
# the same shapes read 0.92-0.99x for l1 up to 4096 entries, so the
# threshold sits at 8192, the smallest size that gained in both.
_PARALLEL_MIN_BLOCK = 2**13


@dataclass(frozen=True)
class DistortionRecord:
    """One (pair, dither draw) measurement at a grid distance."""

    m: int
    delta: float
    mode: str
    true_dist: float
    est_dist: float
    rel_err: float
    pair_id: int
    trial_id: int
    seed: int


@dataclass
class QripFit:
    """Fitted multiplicative distortion and additive residual tables."""

    eps_L_hat: float
    rho_hat_max: np.ndarray
    rho_hat_median: np.ndarray


@dataclass
class QripRun:
    """Full output of one distortion sweep at fixed (op, delta, mode).

    ``estimates`` holds every trial's estimate; the per-pair dither
    statistics and ``records`` are derived from it on access.
    """

    m: int
    delta: float
    mode: str
    distances: np.ndarray
    estimates: np.ndarray  # (pairs, distances, dithers) code-domain estimates
    fit: QripFit
    linear_est: np.ndarray  # (distances, pairs) same pre-metric on the raw measurements
    seed: int

    @property
    def pair_mean_est(self) -> np.ndarray:
        """(distances, pairs) dither-mean estimates."""
        return self.estimates.mean(axis=2).T

    @property
    def pair_sd_est(self) -> np.ndarray:
        """(distances, pairs) dither SD of estimates; zeros for one dither."""
        if self.estimates.shape[2] < 2:
            return np.zeros(self.estimates.shape[1::-1])
        return self.estimates.std(axis=2, ddof=1).T

    @property
    def records(self) -> list[DistortionRecord]:
        """The run's records ordered by (pair, trial, distance)."""
        p_e = _mode(self.mode)[1]
        pairs, grid, dithers = self.estimates.shape
        dists = [(s, s**p_e) for s in self.distances]
        return [
            DistortionRecord(
                m=self.m,
                delta=self.delta,
                mode=self.mode,
                true_dist=float(s),
                est_dist=est,
                rel_err=float((est - target) / target),
                pair_id=j,
                trial_id=t,
                seed=self.seed,
            )
            for j in range(pairs)
            for t in range(dithers)
            for (s, target), est in zip(dists, self.estimates[j, :, t].tolist())
        ]


def check_dither_identity(
    a: float,
    a_prime: float,
    cfg: QuantConfig,
    trials: int,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> dict:
    """Monte Carlo check that dithering makes the quantized gap unbiased.

    Averages |Q(a+xi) - Q(a'+xi)| over uniform dithers and compares with
    |a - a'|; passes within 4 * (delta/2) / sqrt(trials) (the per-draw
    value deviates from its mean by at most one cell).
    """
    if trials < 10_000:
        raise ValueError(f"need trials >= 10000, got {trials}")
    if rng is None:
        rng = stream(seed, "dither-identity")
    xi = sample_dither(trials, cfg, rng)
    gaps = cfg.delta * _dithered_gap(a, a_prime, xi, cfg)
    mean = float(gaps.mean())
    target = abs(a - a_prime)
    tol = 4.0 * (cfg.delta / 2.0) / math.sqrt(trials)
    return {
        "mean": mean,
        "target": target,
        "abs_dev": abs(mean - target),
        "tolerance": tol,
        "trials": trials,
        "passed": abs(mean - target) <= tol,
    }


def _dithered_gap(a: float, a_prime: float, xi: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Cell gaps |Q(a + xi) - Q(a' + xi)| of two scalars under each dither in ``xi``."""
    return _cell_gap(
        quantize_with_dither(np.full(xi.shape, float(a)), xi, cfg),
        quantize_with_dither(np.full(xi.shape, float(a_prime)), xi, cfg),
    )


def estimate_rip(
    op: LinOp,
    mset: ModelSet,
    p: float,
    q: float,
    pairs: int,
    rng: np.random.Generator,
) -> float:
    """Empirical distortion of the linear map on sampled difference vectors.

    Computes sup over pairs of |(mu**p / m) * ||op(u)||_p**p - 1| with
    u = (x - x') normalized in l_q; a statistical lower bound on the true
    worst-case distortion.
    """
    if (p, q) != op.rip_profile:
        raise ValueError(f"operator profile {op.rip_profile} does not match requested ({p}, {q})")
    if pairs < 50:
        raise ValueError(f"need pairs >= 50 for a meaningful supremum, got {pairs}")
    scale = op.mu**p / op.m
    worst = 0.0
    d0 = 0.5 * mset.radius
    for _ in range(pairs):
        x, x_prime = sample_pair(mset, d0, rng, q=q)
        u = (x - x_prime).ravel()
        u = u / np.linalg.norm(u, ord=q)
        val = scale * float(np.sum(np.abs(op.matvec(u)) ** p))
        worst = max(worst, abs(val - 1.0))
    return worst


def _qrip_task(ops, mset, mode, cfg, grid, pair_state, dither_states, q):
    """The (ops, grid, dithers) estimates and the (ops, grid) linear
    pre-metrics of one pair id (pure).

    ``pair_state`` keys the pair's sampling stream, reused at every
    distance; ``dither_states`` key its trials, ordered by (distance,
    trial).  The pair is sampled at every distance first, and each
    operator measures all of them in one ``matvecs`` call, or reads the
    leading rows of the operator it is a prefix of; one generator and
    one kernel serve the whole task, and the kernel draws each trial's
    dithers once for every operator.
    """
    dithers = len(dither_states) // len(grid)
    gen = np.random.default_rng(0)
    xs = np.empty((2 * len(grid), ops[0].n))
    for si, s in enumerate(grid):
        gen.bit_generator.state = pair_state
        xs[2 * si], xs[2 * si + 1] = (np.ravel(v) for v in sample_pair(mset, float(s), gen, q=q))
    # one pass per operator over every input; an operator whose rows lead
    # another's of the sweep reads that one's output, computed first
    outs = {}
    for op in sorted(ops, key=lambda op: (-op.m, op._prefix_of is not None)):
        lead = outs.get(op._prefix_of)
        outs[op] = op.matvecs(xs) if lead is None else lead[:, : op.m]
    kernel = _PairKernel(mode, cfg)
    ests = np.empty((len(ops), len(grid), dithers))
    linear = np.empty((len(ops), len(grid)))
    for si in range(len(grid)):
        ys = [outs[op][2 * si] for op in ops]
        y_primes = [outs[op][2 * si + 1] for op in ops]
        kernel.load(ys, y_primes)
        linear[:, si] = [premetric(y, y_prime, kernel.power) for y, y_prime in zip(ys, y_primes)]
        kernel.trials(gen, dither_states[si * dithers : (si + 1) * dithers], ests[:, si])
    return ests, linear


def _default_workers(entries: int, tasks: int) -> int:
    """Worker count of a sweep of ``tasks`` independent tasks.

    One worker per usable core, capped at ``tasks``, when a trial's
    dither entries summed over every operator of the sweep (``entries``,
    cols * sum of m) reach ``_PARALLEL_MIN_BLOCK``; one worker below
    that.  Usable cores are the process's CPU affinity set where the
    platform reports it, else ``os.cpu_count()``.
    """
    if entries < _PARALLEL_MIN_BLOCK:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return min(cores, tasks)


def _map_tasks(task, items, entries: int) -> list:
    """``[task(i) for i in items]``, on ``_default_workers(entries,
    len(items))`` threads; the results come back in the order of
    ``items`` whatever the worker count."""
    items = list(items)
    workers = _default_workers(entries, len(items))
    if workers < 2:
        return [task(i) for i in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def measure_qrip(
    op: LinOp,
    mset: ModelSet,
    mode: str,
    cfg: QuantConfig,
    distance_grid,
    pairs_per_distance: int,
    dithers_per_pair: int,
    seed: int,
) -> QripRun:
    """Sweep a distance grid, recording estimates and fitting distortion.

    For every grid distance s, ``pairs_per_distance`` pairs are sampled
    at l_q gap s (each pair id keeps its direction across distances) and
    embedded under ``dithers_per_pair`` fresh dithers; estimates, the
    fitted multiplicative distortion and the per-distance additive
    residual tables are returned (see the module docstring for the fit
    conventions).

    Pair ids run on one worker per usable core (the process's CPU
    affinity set), at most ``pairs_per_distance``, when one trial's
    dither block (m entries, 2 * m for circ) has at least 2**13 entries,
    else on one.  Records and fit do not depend on the worker count.
    This is ``measure_decay`` over the one operator.
    """
    (run,) = measure_decay([op], mset, mode, cfg, distance_grid, pairs_per_distance, dithers_per_pair, seed)
    return run


def measure_decay(
    ops,
    mset: ModelSet,
    mode: str,
    cfg: QuantConfig,
    distance_grid,
    pairs_per_distance: int,
    dithers_per_pair: int,
    seed: int,
) -> list[QripRun]:
    """``measure_qrip`` of every operator in ``ops``, as one sweep.

    The operators share n and ``rip_profile``; their runs come back in
    the order of ``ops``, each equal to the operator's own
    ``measure_qrip`` run.  Pairs and dithers are keyed by (seed, pair
    id, ...) and not by the operator, so each pair is sampled once per
    distance for every operator, and each trial's dithers are drawn once,
    at the largest m, every smaller m reading their prefix.  The worker
    count follows a trial's dither entries summed over every operator,
    the work of one task: several operators, each below the 2**13-entry
    pool threshold, may reach it together.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("a sweep needs at least one operator")
    shapes = sorted({(op.n, op.rip_profile) for op in ops})
    if len(shapes) > 1:
        raise ValueError(f"operators of one sweep need one (n, rip_profile), got {shapes}")
    grid = np.sort(np.asarray(list(distance_grid), dtype=float))
    if grid.size < 1 or np.any(grid <= 0):
        raise ValueError("distance grid must be non-empty and positive")
    if pairs_per_distance < 1 or dithers_per_pair < 1:
        raise ValueError("pairs_per_distance and dithers_per_pair must be >= 1")
    layout, p_e = _mode(mode)
    with np.errstate(over="ignore", under="ignore"):
        targets = grid**p_e
    for s, target in zip(grid, targets):
        if not (0 < target < math.inf):
            raise ValueError(
                f"grid distance {s:g} has {mode} target s**{p_e} = {target:g}; it must be positive and finite"
            )
    q = ops[0].rip_profile[1]
    pair_states = _stream_states(seed, "qrip:pair", np.arange(pairs_per_distance)[:, None])
    # rows ordered by (pair, distance, trial), keyed (pair, trial, distance)
    keys = np.indices((pairs_per_distance, grid.size, dithers_per_pair)).reshape(3, -1).T
    dither_states = _stream_states(seed, "qrip:dither", keys[:, [0, 2, 1]])
    per_pair = grid.size * dithers_per_pair

    def task(j):
        states = dither_states[j * per_pair : (j + 1) * per_pair]
        return _qrip_task(ops, mset, mode, cfg, grid, pair_states[j], states, q)

    results = _map_tasks(task, range(pairs_per_distance), _LAYOUT_COLS[layout] * sum(op.m for op in ops))

    runs = []
    for k, op in enumerate(ops):
        ests = np.stack([r[0][k] for r in results])  # (pairs, distances, dithers)
        runs.append(QripRun(
            m=op.m,
            delta=cfg.delta,
            mode=mode,
            distances=grid,
            estimates=ests,
            fit=_fit(ests, grid, p_e),
            linear_est=np.stack([r[1][k] for r in results], axis=1),
            seed=seed,
        ))
    return runs


def _fit(ests: np.ndarray, grid: np.ndarray, p_e: int) -> QripFit:
    """The distortion fit of one operator's (pairs, distances, dithers) estimates."""
    # a grid may repeat a distance; records at equal distances pool, and
    # every expression below matches the per-record rel_err arithmetic
    s_max = grid[-1]
    top = ests[:, grid == s_max, :].reshape(ests.shape[0], -1)
    rels = np.abs((top - s_max**p_e) / s_max**p_e)
    eps_l = float(max(float(np.median(r)) for r in rels))

    rho_max = np.empty(grid.size)
    rho_med = np.empty(grid.size)
    for si, s in enumerate(grid):
        at_s = ests[:, grid == s, :]
        resid = np.maximum(np.abs(at_s - s**p_e) - eps_l * s**p_e, 0.0)
        rho_max[si] = resid.max()
        rho_med[si] = float(np.median(resid))
    return QripFit(eps_L_hat=eps_l, rho_hat_max=rho_max, rho_hat_median=rho_med)


def power_law_slope(ms, values) -> float:
    """Least-squares slope of log(values) against log(ms).

    Needs positive, finite ms with at least 2 distinct values and
    positive, finite values.
    """
    ms = np.asarray(ms, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.unique(ms).size < 2 or ms.shape != values.shape:
        raise ValueError("a log-log fit needs >= 2 distinct dimensions and one value each")
    if not (np.isfinite(ms).all() and np.isfinite(values).all() and ms.min() > 0 and values.min() > 0):
        raise ValueError("a log-log fit needs positive, finite dimensions and values")
    return float(np.polyfit(np.log(ms), np.log(values), 1)[0])


def fit_decay(runs) -> float:
    """Slope of log(median additive residual) against log(m).

    ``runs`` are measure_qrip outputs over >= 4 distinct embedding
    dimensions with matching (mode, delta); each run contributes the
    median over its distance grid of the worst-case residual table, which
    must be positive and finite.  Also accepts (m, residual) pairs
    directly, which is how synthetic decay inputs are fitted.
    """
    pts = []
    for run in runs:
        if isinstance(run, QripRun):
            m, rho = run.m, float(np.median(run.fit.rho_hat_max))
        else:
            m, rho = map(float, run)
        if not (rho > 0 and math.isfinite(rho)):
            cause = f"{rho:g}" if rho != 0 else "0: the fitted multiplicative distortion absorbs the additive error"
            raise ValueError(
                f"fit_decay: median worst-case residual at m={m:g} is {cause}; it must be positive and finite"
            )
        pts.append((m, rho))
    distinct = len({m for m, _ in pts})
    if distinct < 4:
        raise ValueError(f"fit_decay needs >= 4 distinct embedding dimensions, got {distinct}")
    ms, rhos = zip(*sorted(pts))
    return power_law_slope(ms, rhos)


def check_product_concentration(
    op: LinOp,
    mset: ModelSet,
    cfg: QuantConfig,
    m_list,
    trials: int,
    seed: int = 0,
    distance: float | None = None,
) -> dict:
    """Spread of the bi-dither product estimate as m grows.

    Rebuilds the operator family at every m in ``m_list`` (same input
    dimension, derived seeds; rank-one probes keep their matrix shape and
    kappa), fixes one pair at the given distance, and measures the
    standard deviation of the product estimate over fresh dither
    matrices; passes when the log-log slope against m lies in
    [-0.75, -0.25].  Each m is an independent task, keyed by (seed, m
    index, trial); the tasks run on the sweeps' pool under the same rule,
    2 * sum of ``m_list`` dither entries per trial, largest m first.
    """
    m_list = sorted(int(m) for m in m_list)
    if len(m_list) < 2:
        raise ValueError("need at least two embedding dimensions")
    if trials < 2:
        raise ValueError("need trials >= 2")
    if distance is None:
        distance = mset.radius
    extra = {}
    if op.family == "expander":
        extra["degree"] = op.degree
    if op.family == "gaussian" and op.rip_profile == (1.0, 2.0):
        extra["rip"] = (1, 2)
    pair_state = stream(seed, "prodconc:pair").bit_generator.state
    keys = np.indices((len(m_list), trials)).reshape(2, -1).T
    dither_states = _stream_states(seed, "prodconc:dither", keys)

    def task(mi):
        seed_m = op.seed + 1000 * mi
        if op.family == "rop":
            op_m = build_rop(m_list[mi], op.n1, op.n2, seed_m, op.kappa)
        else:
            op_m = build(op.family, m_list[mi], op.n, seed=seed_m, **extra)
        states = dither_states[mi * trials : (mi + 1) * trials]
        ests, _ = _qrip_task([op_m], mset, "circ", cfg, [distance], pair_state, states, op.rip_profile[1])
        return float(ests[0, 0].std(ddof=1))

    # largest m first, so one worker takes the largest while the others share the rest
    sds = _map_tasks(task, reversed(range(len(m_list))), _LAYOUT_COLS["bidither"] * sum(m_list))[::-1]
    slope = power_law_slope(m_list, sds)
    ratios = [sds[i + 1] / sds[i] for i in range(len(sds) - 1)]
    return {
        "m_list": m_list,
        "stddevs": sds,
        "slope": slope,
        "doubling_ratios": ratios,
        "passed": -0.75 <= slope <= -0.25,
    }


# ---------------------------------------------------------------------------
# identity self-tests


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def selftest(seed: int = 0, fast: bool = False) -> list[dict]:
    """Run every deterministic and statistical identity check.

    Returns one dict per check with name / passed / detail; detail
    strings are pure functions of the seed so reports are byte-stable.
    """
    n_mc = 100_000 if fast else 1_000_000
    n_tuples = 20_000 if fast else 100_000
    checks: list[dict] = []

    def add(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    cfg = QuantConfig(1.0)

    # unbiasedness of the dithered cell gap
    rng = stream(seed, "selftest:dither")
    rep = check_dither_identity(0.0, 0.37, cfg, n_mc, rng=rng)
    add(
        "dither-unbiasedness",
        rep["passed"],
        f"mean={_fmt(rep['mean'])} target={_fmt(rep['target'])} tol={_fmt(rep['tolerance'])}",
    )

    # lattice-aligned gaps are recovered exactly for every dither draw
    rng = stream(seed, "selftest:lattice")
    xi = sample_dither(1000, cfg, rng)
    a = rng.uniform(-3, 3)
    exact = np.all(_dithered_gap(a + 3, a, xi, cfg) == 3)
    add("lattice-shift-exactness", bool(exact), f"a={_fmt(a)} k=3")

    # small-gap second moment: E gap^2 = delta * |a - a'| when |a-a'| < delta
    rng = stream(seed, "selftest:smallgap")
    a, gap = 0.25, 0.4
    xi = sample_dither(n_mc, cfg, rng)
    d0 = _dithered_gap(a + gap, a, xi, cfg)
    mean_sq = float((d0 * d0).mean())
    rel = abs(mean_sq - gap) / gap
    add("small-gap-second-moment", rel <= 0.01, f"mean={_fmt(mean_sq)} target={_fmt(gap)} rel={_fmt(rel)}")

    # perturbation sandwich and guard-band bounds, randomized; at
    # delta = 1 the guarded threshold count is the soft distance
    rng = stream(seed, "selftest:sandwich")
    a = rng.uniform(-3, 3, size=n_tuples)
    b = rng.uniform(-3, 3, size=n_tuples)
    t = rng.uniform(-1.5, 1.5, size=n_tuples)
    eps = rng.uniform(0.0, 1.0, size=n_tuples)
    r1 = rng.uniform(-1, 1, size=n_tuples) * eps
    r2 = rng.uniform(-1, 1, size=n_tuples) * eps
    d_mid = _threshold_count(a + r1, b + r2, t, 1.0)
    d_up = _threshold_count(a, b, t + eps, 1.0)
    d_lo = _threshold_count(a, b, t - eps, 1.0)
    violations = int(np.count_nonzero((d_up > d_mid) | (d_mid > d_lo)))
    add("perturbation-sandwich", violations == 0, f"tuples={n_tuples} violations={violations}")

    s2 = rng.uniform(-1.5, 1.5, size=n_tuples)
    lhs = np.abs(_threshold_count(a, b, t, 1.0) - _threshold_count(a, b, s2, 1.0))
    ok12 = int(np.count_nonzero(lhs > 4.0 * (1.0 + np.abs(t - s2)) + 1e-12))
    add("guard-band-shift-bound", ok12 == 0, f"tuples={n_tuples} violations={ok12}")

    lhs13 = np.abs(_threshold_count(a, b, t, 1.0) - np.abs(a - b))
    ok13 = int(np.count_nonzero(lhs13 > 4.0 * (1.0 + np.abs(t)) + 1e-12))
    add("soft-vs-true-gap-bound", ok13 == 0, f"tuples={n_tuples} violations={ok13}")

    mono = np.count_nonzero(_threshold_count(a, b, np.abs(t), 1.0) > _threshold_count(a, b, -np.abs(t), 1.0))
    add("guard-band-monotonicity", mono == 0, f"tuples={n_tuples} violations={int(mono)}")

    # guarded-mean bound: |E d^t(a+xi, a'+xi) - |a-a'|| <= 4|t| (+ MC margin)
    rng = stream(seed, "selftest:guardmean")
    a0, b0, t0 = 0.3, 1.1, 0.2
    xi = sample_dither(n_mc // 10, cfg, rng)
    vals = _threshold_count(a0 + xi, b0 + xi, t0, 1.0)
    margin = 4.0 * float(vals.std()) / math.sqrt(xi.size)
    dev = abs(float(vals.mean()) - abs(a0 - b0))
    add("guarded-mean-bound", dev <= 4 * abs(t0) + margin, f"dev={_fmt(dev)} bound={_fmt(4 * abs(t0) + margin)}")

    # joint scaling invariance: indices are unchanged when (values, dither,
    # delta) scale together, so product estimates scale by delta**2 exactly
    rng = stream(seed, "selftest:homogeneity")
    y = rng.standard_normal(256)
    xi = rng.uniform(0, 1, size=(256, 2))
    c1 = quantize_with_dither(np.column_stack([y, y]), xi, QuantConfig(1.0))
    c2 = quantize_with_dither(np.column_stack([2 * y, 2 * y]), 2 * xi, QuantConfig(2.0))
    add("joint-scaling-invariance", bool(np.array_equal(c1, c2)), "delta doubled with inputs")

    # serialization roundtrip
    from .embeddings import CodeBlock, deserialize, serialize

    rng = stream(seed, "selftest:serialize")
    codes = rng.integers(-130, 40000, size=(64, 1))
    blk = CodeBlock("single", 64, 0.5, codes, op_seed=7, dither_seed=9)
    add("code-roundtrip", deserialize(serialize(blk)) == blk, "64x1 block, i16 width")

    return checks


# ---------------------------------------------------------------------------
# CSV emission (schema shared with the command-line runner)


def records_csv(run: QripRun) -> str:
    """One row per record, ordered by (pair, trial, distance), formatted
    from the estimate array with the arithmetic of ``run.records``."""
    p_e = _mode(run.mode)[1]
    head = f"{run.m},{_fmt(run.delta)},{run.mode},"
    # texts[si][j][t] holds the distance, estimate and relative-error fields
    texts = []
    for si, s in enumerate(run.distances):
        target = s**p_e
        est = run.estimates[:, si, :]
        s_txt = _fmt(s)
        texts.append([
            [f"{s_txt},{_fmt(e)},{_fmt(r)}" for e, r in zip(e_row, r_row)]
            for e_row, r_row in zip(est.tolist(), ((est - target) / target).tolist())
        ])
    pairs, grid, dithers = run.estimates.shape
    lines = [RECORD_COLUMNS]
    for j in range(pairs):
        for t in range(dithers):
            tail = f",{j},{t},{run.seed}"
            lines.extend(head + texts[si][j][t] + tail for si in range(grid))
    return "\n".join(lines) + "\n"


def summary_csv(run: QripRun) -> str:
    lines = [SUMMARY_COLUMNS]
    f = run.fit
    for s, mx, md in zip(run.distances, f.rho_hat_max, f.rho_hat_median):
        lines.append(f"{run.m},{run.mode},{_fmt(f.eps_L_hat)},{_fmt(s)},{_fmt(mx)},{_fmt(md)}")
    return "\n".join(lines) + "\n"

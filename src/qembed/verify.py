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
cols * M values, bit for bit the values it would draw alone.  Before
its pool starts, the sweep samples every (pair, distance) input and
measures all of them in one pass (``linops._products``): a dense
family without a cache streams its rows once, in slabs on every usable
core, and holds no matrix, and an operator whose rows are another's
leading rows may read that one's leading output columns, by the rule
that the ``linops`` docstring states.

Every sweep, ``measure_decay`` and ``check_product_concentration``
alike, measures the operators it is given, which ``_sweep_ops`` checks
share one input dimension and profile.  Its pool then runs
``_qrip_task`` on each pair's (or each operator's) measurement rows,
and every trial runs in ``embeddings._PairKernel``, the single
quantize-and-estimate kernel, whose docstring describes its threshold
compares and guards.

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
``measure_decay`` or the operators of ``check_product_concentration``,
on ``_default_workers`` threads (``linops._map_threads``), under the
error state that the sweep sets around its measure-and-map section:
overflow and invalid values give inf or nan, which the tasks report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import _PairKernel, quantize_with_dither
from .linops import LinOp, _map_threads, _products, _usable_cores
from .modelsets import ModelSet, sample_pair
from .quantizer import _LAYOUT_COLS, QuantConfig, _cell_gap, _mode, _threshold_count, premetric, sample_dither
from .rng import _integer, _real, _stream_states, stream

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
# usable core once one trial's dither block, cols * m at the sweep's
# largest m, reaches this many entries; one worker below it.  The kernel
# draws each trial once, at the largest m, and smaller m read a prefix,
# so nested dimensions add nothing.  A task runs only the kernel's
# ``load`` and ``trials`` (the products run in one pass before the
# pool), many short numpy calls that hold the GIL, so a second worker
# pays off only once a trial's draws are long.  2 workers against 1,
# from ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
# tests/pool_crossover.py --rounds 7`` (in-process ``measure_decay``,
# gaussian, n = 256, sparse:4:256, delta 1, 5 distances, a 2-core x86
# machine), median and range over 7 rounds, two runs, estimates
# bit-identical:
#
#   key     shape (pairs x dithers)                   run 1             run 2
#   2048    l1, m = 2048 (8 x 16)                     0.74 (0.51-0.85)  0.60 (0.52-0.90)
#   8192    l1, m = 128, ..., 8192 (8 x 16; decay_l1) 0.74 (0.60-0.81)  0.65 (0.58-0.98)
#   8192    l2sq, m = 8192 (8 x 16)                   0.68 (0.63-1.05)  0.69 (0.67-0.78)
#   16384   circ, m = 8192 (8 x 16)                   0.68 (0.58-0.91)  0.72 (0.62-0.85)
#   32768   l1, m = 32768 (8 x 16)                    0.90 (0.81-1.00)  0.90 (0.81-0.96)
#   32768   circ, m = 16384 (8 x 16)                  0.78 (0.67-0.92)  0.83 (0.74-0.98)
#   65536   l1, m = 65536 (8 x 16)                    0.97 (0.86-1.31)  0.99 (0.86-1.14)
#   65536   circ, m = 32768 (8 x 16)                  0.91 (0.80-1.37)  1.20 (1.01-1.31)
#   65536   circ, m = 32768 (6 x 96; sweep_circ)      1.25 (0.97-1.35)  1.18 (0.92-1.62)
#
# Every key below 2**16 lost in both runs, so the threshold sits at the
# smallest key where a median gained.
_PARALLEL_MIN_BLOCK = 2**16


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
    if _integer("trials", trials) < 10_000:
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
    _check_dim(op.n, mset)
    if _integer("pairs", pairs) < 50:
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


def _ids(name: str, count) -> int:
    """A count of pair or trial ids: each id is one 32-bit word of a
    stream key (``rng._stream_states``), so at most 2**32 of them."""
    count = _integer(name, count)
    if count > 2**32:
        raise ValueError(f"{name} must be at most 2**32 (ids are 32-bit stream indices), got {count}")
    return count


def _check_dim(n: int, mset: ModelSet) -> None:
    """Reject a model set whose points are not the operator's inputs."""
    if mset.ambient_dim != n:
        raise ValueError(f"model dimension {mset.ambient_dim} does not match the operator's input dimension n = {n}")


def _sweep_ops(ops, mset: ModelSet) -> list[LinOp]:
    """``ops`` as a list, rejected unless it is non-empty, has one
    (n, rip_profile) and takes the points of ``mset`` as inputs."""
    ops = list(ops)
    if not ops:
        raise ValueError("a sweep needs at least one operator")
    shapes = sorted({(op.n, op.rip_profile) for op in ops})
    if len(shapes) > 1:
        raise ValueError(f"operators of one sweep need one (n, rip_profile), got {shapes}")
    _check_dim(ops[0].n, mset)
    return ops


def _pair_inputs(mset, grid, pair_states, q: float) -> np.ndarray:
    """The (pairs * 2 * |grid|, n) inputs of a sweep, by (pair, distance):
    each pair sampled at every distance from its own state, at l_q gap."""
    gen = np.random.default_rng(0)
    xs = np.empty((len(pair_states), len(grid), 2, mset.ambient_dim))
    for j, state in enumerate(pair_states):
        for si, s in enumerate(grid):
            gen.bit_generator.state = state
            xs[j, si] = [np.ravel(v) for v in sample_pair(mset, float(s), gen, q=q)]
    return xs.reshape(-1, mset.ambient_dim)


def _qrip_task(rows, mode, cfg, grid, dither_states):
    """The (ops, grid, dithers) estimates and the (ops, grid) linear
    pre-metrics of one pair id (pure).

    ``rows`` holds each operator's (2 * |grid|, m) measurements of the
    pair, ordered by (distance, side); ``dither_states`` key its trials,
    ordered by (distance, trial).  One generator and one kernel serve
    the whole task, and the kernel draws each trial's dithers once for
    every operator.  An estimate or linear pre-metric that overflows
    float64 raises a one-line ValueError naming its grid distance; the
    sweep runs its tasks with overflow and invalid values ignored, so
    that is the only report.
    """
    dithers = len(dither_states) // len(grid)
    gen = np.random.default_rng(0)
    kernel = _PairKernel(mode, cfg)
    ests = np.empty((len(rows), len(grid), dithers))
    linear = np.empty((len(rows), len(grid)))
    for si in range(len(grid)):
        ys = [r[2 * si] for r in rows]
        y_primes = [r[2 * si + 1] for r in rows]
        kernel.load(ys, y_primes)
        linear[:, si] = [premetric(y, y_prime, kernel.power) for y, y_prime in zip(ys, y_primes)]
        kernel.trials(gen, dither_states[si * dithers : (si + 1) * dithers], ests[:, si])
        if not (np.isfinite(ests[:, si]).all() and np.isfinite(linear[:, si]).all()):
            raise ValueError(f"grid distance {grid[si]:g}: an estimate or linear pre-metric overflows float64")
    return ests, linear


def _default_workers(entries: int, tasks: int) -> int:
    """Worker count of a sweep of ``tasks`` independent tasks.

    One worker per usable core, capped at ``tasks``, when one trial's
    dither block (``entries``, cols * m at the sweep's largest m)
    reaches ``_PARALLEL_MIN_BLOCK``; one worker below that.  Usable
    cores come from ``linops._usable_cores``.
    """
    if entries < _PARALLEL_MIN_BLOCK:
        return 1
    return min(_usable_cores(), tasks)


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

    Pair ids run on the sweeps' pool (``_default_workers``); records and
    fit do not depend on the worker count.  This is ``measure_decay``
    over the one operator.
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
    at the largest m, every smaller m reading their prefix.  Pair ids run
    on the sweeps' pool (``_default_workers``).
    """
    ops = _sweep_ops(ops, mset)
    grid = np.sort(np.array([_real("grid distance", s, positive=True) for s in distance_grid], dtype=float))
    if grid.size < 1:
        raise ValueError("distance grid must be non-empty")
    pairs_per_distance = _ids("pairs_per_distance", pairs_per_distance)
    dithers_per_pair = _ids("dithers_per_pair", dithers_per_pair)
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
    pair_states = _stream_states(seed, "qrip:pair", np.arange(pairs_per_distance)[:, None])
    # rows ordered by (pair, distance, trial), keyed (pair, trial, distance)
    keys = np.indices((pairs_per_distance, grid.size, dithers_per_pair)).reshape(3, -1).T
    dither_states = _stream_states(seed, "qrip:dither", keys[:, [0, 2, 1]])
    per_pair = grid.size * dithers_per_pair
    rows = 2 * grid.size
    workers = _default_workers(_LAYOUT_COLS[layout] * max(op.m for op in ops), pairs_per_distance)

    def task(j):
        states = dither_states[j * per_pair : (j + 1) * per_pair]
        return _qrip_task([out[j * rows : (j + 1) * rows] for out in outs], mode, cfg, grid, states)

    with np.errstate(over="ignore", invalid="ignore"):
        outs = _products(ops, _pair_inputs(mset, grid, pair_states, ops[0].rip_profile[1]))
        results = _map_threads(task, range(pairs_per_distance), workers)

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
    pts, settings = [], set()
    for run in runs:
        if isinstance(run, QripRun):
            m, rho = run.m, float(np.median(run.fit.rho_hat_max))
            settings.add((run.mode, run.delta))
        else:
            m, rho = map(float, run)
        if not (rho > 0 and math.isfinite(rho)):
            cause = f"{rho:g}" if rho != 0 else "0: the fitted multiplicative distortion absorbs the additive error"
            raise ValueError(
                f"fit_decay: median worst-case residual at m={m:g} is {cause}; it must be positive and finite"
            )
        pts.append((m, rho))
    if len(settings) > 1:
        raise ValueError(f"fit_decay needs runs of one (mode, delta), got {sorted(settings)}")
    distinct = len({m for m, _ in pts})
    if distinct < 4:
        raise ValueError(f"fit_decay needs >= 4 distinct embedding dimensions, got {distinct}")
    ms, rhos = zip(*sorted(pts))
    return power_law_slope(ms, rhos)


def check_product_concentration(
    ops,
    mset: ModelSet,
    cfg: QuantConfig,
    trials: int,
    seed: int = 0,
    distance: float | None = None,
) -> dict:
    """Spread of the bi-dither product estimate as m grows.

    Measures each of ``ops``, at least two operators of one input
    dimension and profile, on one pair at the given distance, and takes
    the standard deviation of the product estimate over fresh dither
    matrices; passes when the log-log slope against m lies in
    [-0.75, -0.25].  The operators are ranked by m and measure the pair
    before the pool starts (``linops._products``); each is then an
    independent task, keyed by (seed, rank, trial), and the tasks,
    largest m first, run on the sweeps' pool (``_default_workers``),
    keyed on the largest operator's 2 * m dither entries per trial.
    """
    ops = sorted(_sweep_ops(ops, mset), key=lambda op: op.m)
    if len(ops) < 2:
        raise ValueError("need at least two operators")
    if _ids("trials", trials) < 2:
        raise ValueError("need trials >= 2")
    if distance is None:
        distance = mset.radius
    m_list = [op.m for op in ops]
    pair_state = stream(seed, "prodconc:pair").bit_generator.state
    keys = np.indices((len(ops), trials)).reshape(2, -1).T
    dither_states = _stream_states(seed, "prodconc:dither", keys)
    workers = _default_workers(_LAYOUT_COLS["bidither"] * m_list[-1], len(ops))

    def task(mi):
        states = dither_states[mi * trials : (mi + 1) * trials]
        ests, _ = _qrip_task([outs[mi]], "circ", cfg, [distance], states)
        return float(ests[0, 0].std(ddof=1))

    with np.errstate(over="ignore", invalid="ignore"):
        outs = _products(ops, _pair_inputs(mset, [distance], [pair_state], ops[0].rip_profile[1]))
        # largest m first, so one worker takes the largest while the others share the rest
        sds = _map_threads(task, reversed(range(len(ops))), workers)[::-1]
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
    blk = CodeBlock(0.5, codes, op_seed=7, dither_seed=9)
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

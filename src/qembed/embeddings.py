"""Quantized embeddings: dithered codes, distance estimation, persistence.

A CodeBlock stores the integer cell indices of a dithered, quantized
measurement vector.  Distances between two comparable blocks are exact
integer accumulations scaled once by the resolution at the end, so the
estimators carry no float accumulation error.

``embed`` is the one encoder; the dither's shape picks the layout.  It
takes the operator's measurements from ``LinOp._matvec_bounded``; for
rank-one probes that is a fast value with a per-row error bound, and
``embed`` keeps its codes only where the bound proves them equal to the
codes of ``op.matvec(x)``, else it quantizes ``op.matvec(x)`` itself.
The mode table, the checked floor ``quantize_with_dither`` and the exact
cell gap live in ``quantizer``; this module quantizes and estimates
through them (``quantize_with_dither`` is re-exported here under its
name).

Monte Carlo sweeps quantize one measurement pair under many dithers;
``_PairKernel`` fuses dither sampling, quantization and estimation for
that case and returns the same estimates as ``quantize_with_dither``
followed by ``_estimate_from_codes``; the class docstring says how.
"""

from __future__ import annotations

import bisect
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .linops import LinOp, RopOp
from .quantizer import _COLS_LAYOUT, _LAYOUT_COLS, QuantConfig, _cell_gap, _mode, quantize_with_dither

__all__ = [
    "CodeBlock",
    "embed",
    "embed_bidither",
    "embed_rop",
    "estimate_distance",
    "serialize",
    "deserialize",
    "quantize_with_dither",
    "HEADER_SIZE",
]

HEADER_SIZE = 40
_MAGIC = b"QEMB"
_VERSION = 1
_WIDTH_DTYPES = {0: "<i1", 1: "<i2", 2: "<i4"}
_U64 = 0xFFFFFFFFFFFFFFFF
# ``_PairKernel.trials`` quantizes up to _BLOCK_ENTRIES // (cols * m)
# trials, at least one, at a time as one (rows, cols, m) block, at most
# 256 KiB of float64 per buffer.  With 16 trials on 2 cores, blocked
# against per-trial ran 2.4-3.0x at 128-512 entries per trial, 1.6-1.9x
# at 1024 and 2048 and 1.2-1.3x at 4096 (l1 and circ alike).  Timed
# interleaved in one process, 4-row blocks ran 1.15-1.28x at 8192
# entries and 2-row blocks 1.05-1.12x at 16384.
_BLOCK_ENTRIES = 2**15
# Generator.random yields u = k * 2**-53, 0 <= k < 2**53: a lattice of
# _POINTS draws spaced _LATTICE apart, the largest _U_TOP.
_LATTICE = 2.0**-53
_POINTS = 2.0**53
_U_TOP = 1.0 - _LATTICE
# lattice steps a candidate threshold may take toward its certificate
_NUDGES = 4
# coordinates of y and of y' per threshold-search chunk; the search's
# temporaries are (2, _SEARCH_CHUNK) arrays held by the kernel
_SEARCH_CHUNK = 2**11
_EXPONENT_BITS = 0x7FF0000000000000


@dataclass(frozen=True)
class CodeBlock:
    """Quantized embedding output: cell indices plus provenance.

    ``codes`` has shape (m, cols) with cols = 1 for the single layout and
    2 for the bi-dither layout; decoding index k gives the cell centre
    delta * (k + 1/2).  Blocks are comparable only when (layout, m,
    delta) agree.  Seeds are stored folded into unsigned 64 bits, as
    ``rng.stream`` folds them, so -1 and 2**64 - 1 name the same stream.
    """

    layout: str
    m: int
    delta: float
    codes: np.ndarray
    op_seed: int = 0
    dither_seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"code blocks need m >= 1, got m = {self.m}")
        if self.layout not in _LAYOUT_COLS:
            raise ValueError(f"layout must be 'single' or 'bidither', got {self.layout!r}")
        codes = np.asarray(self.codes, dtype=np.int64)
        expected_cols = _LAYOUT_COLS[self.layout]
        if codes.ndim != 2 or codes.shape != (self.m, expected_cols):
            raise ValueError(
                f"codes must have shape ({self.m}, {expected_cols}) for layout "
                f"{self.layout!r}, got {codes.shape}"
            )
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        # deserialize builds a block per query; in-range seeds skip the fold
        if not (0 <= self.op_seed <= _U64 and 0 <= self.dither_seed <= _U64):
            object.__setattr__(self, "op_seed", int(self.op_seed) & _U64)
            object.__setattr__(self, "dither_seed", int(self.dither_seed) & _U64)

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Cell-centre reconstruction values delta * (k + 1/2)."""
        return self.delta * (self.codes + 0.5)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeBlock):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.m == other.m
            and self.delta == other.delta
            and self.op_seed == other.op_seed
            and self.dither_seed == other.dither_seed
            and np.array_equal(self.codes, other.codes)
        )


def embed(
    op: LinOp,
    x: np.ndarray,
    dither: np.ndarray,
    cfg: QuantConfig,
    dither_seed: int = 0,
) -> CodeBlock:
    """Codes ``quantize_with_dither`` of op.matvec(x), one matvec for every column.

    The dither's shape picks the layout: (m,) or (m, 1) gives the single
    layout, (m, 2), two independent dither columns, the bi-dither layout.

    The measurements come from ``op._matvec_bounded``.  Where it returns
    a fast y with a per-row bound e (rank-one probes), y - e and y + e
    are quantized; the floor is monotone, so where their codes agree
    everywhere they are the codes of every value in between, op.matvec(x)
    included.  If any cell differs, a bound is not finite or the bracket
    raises, the codes come from op.matvec(x) itself, as for every other
    operator.
    """
    dither = np.asarray(dither, dtype=float)
    cols = dither.shape[1] if dither.ndim == 2 else 1
    if dither.ndim not in (1, 2) or dither.shape[0] != op.m or cols not in _COLS_LAYOUT:
        raise ValueError(f"dither must have shape ({op.m},), ({op.m}, 1) or ({op.m}, 2), got {dither.shape}")
    dither = dither.reshape(op.m, cols)
    y, err = op._matvec_bounded(x)
    codes = None if err is None else _bracketed_codes(y, err, dither, cfg)
    if codes is None:
        if err is not None:
            y = op.matvec(x)
        codes = quantize_with_dither(np.broadcast_to(y[:, None], dither.shape), dither, cfg)
    return CodeBlock(
        layout=_COLS_LAYOUT[cols],
        m=op.m,
        delta=cfg.delta,
        codes=codes,
        op_seed=op.seed,
        dither_seed=dither_seed,
    )


def _bracketed_codes(y: np.ndarray, err: np.ndarray, dither: np.ndarray, cfg: QuantConfig) -> np.ndarray | None:
    """The one code array of every value within ``err`` of ``y``, or None.

    None when a bound is not finite, the bracket's two ends quantize
    differently in some cell, or either end cannot be quantized.
    """
    if not math.isfinite(err.max()):
        return None
    with np.errstate(over="ignore"):  # an end past the largest double fails the int64 check
        ends = (y - err, y + err)
    try:
        lo, hi = (quantize_with_dither(np.broadcast_to(v[:, None], dither.shape), dither, cfg) for v in ends)
    except ValueError:
        return None
    return lo if np.array_equal(lo, hi) else None


def embed_bidither(
    op: LinOp,
    x: np.ndarray,
    dither: np.ndarray,
    cfg: QuantConfig,
    dither_seed: int = 0,
) -> CodeBlock:
    """``embed`` that accepts only the bi-dither layout's (m, 2) dither."""
    dither = np.asarray(dither, dtype=float)
    if dither.shape != (op.m, 2):
        raise ValueError(f"bi-dither layout needs an ({op.m}, 2) dither, got {dither.shape}")
    return embed(op, x, dither, cfg, dither_seed)


def embed_rop(
    op: RopOp,
    u: np.ndarray,
    dither: np.ndarray,
    cfg: QuantConfig,
    dither_seed: int = 0,
) -> CodeBlock:
    """``embed`` of an n1-by-n2 matrix u: the codes of kappa * a_i^T U b_i + xi_i.

    Both layouts work, as in ``embed``.  Distance estimates over these
    codes approximate kappa times the Frobenius gap; dividing the
    estimate by op.kappa is the caller's responsibility (kappa defaults
    to 1).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (op.n1, op.n2):
        raise ValueError(f"expected a {op.n1}x{op.n2} matrix, got shape {u.shape}")
    return embed(op, u.ravel(), dither, cfg, dither_seed)


def _estimate_from_codes(codes_a: np.ndarray, codes_b: np.ndarray, mode: str, delta: float) -> float:
    """Shared integer-exact estimator core over (m, cols) index arrays.

    The arrays have the columns of ``mode``'s layout.  Gaps are the exact
    uint64 values of ``_cell_gap`` for every int64 index pair.  Sums run in 64-bit
    integers when the worst case provably fits, otherwise in
    arbitrary-precision Python ints; either way the accumulation is
    exact and delta scaling is applied once at the end.
    """
    power = _mode(mode)[1]
    m = codes_a.shape[0]
    gaps = _cell_gap(np.asarray(codes_a, dtype=np.int64), np.asarray(codes_b, dtype=np.int64))
    if power == 1:
        peak = m * int(gaps[:, 0].max(initial=0))
        if peak < 2**62:
            total = int(np.sum(gaps[:, 0]))
        else:
            total = int(np.sum(gaps[:, 0], dtype=object))
        return delta * total / m
    # power 2: a single column multiplies itself, bi-dither its two columns
    g1, g2 = gaps[:, 0], gaps[:, -1]
    top = int(g1.max(initial=0))
    peak = m * top * (top if gaps.shape[1] == 1 else int(g2.max(initial=0)))
    if peak < 2**62:
        total = int(np.dot(g1, g2))
    else:
        total = int(np.sum(g1.astype(object) * g2.astype(object)))
    return delta * delta * total / m


def _reaches(y, u, delta: float, n, tmp, out):
    """Whether the code of y under the dither fl(delta * u) is at least n.

    The code is floor(fl(fl(y + fl(delta * u)) / delta)), the floor of
    ``quantize_with_dither``; for an integer n, floor(v) >= n is v >= n.
    """
    if delta == 1.0:
        np.add(y, u, out=tmp)
    else:
        np.multiply(u, delta, out=tmp)
        np.add(y, tmp, out=tmp)
        np.divide(tmp, delta, out=tmp)
    return np.greater_equal(tmp, n, out=out)


def _step(x, toward: int, out):
    """The doubles next to ``x`` toward +inf (``toward`` = 1) or -inf
    (-1), into ``out``.

    Doubles of one sign that are neighbours have neighbouring bit
    patterns, which rise with the magnitude; the sign bit, shifted down,
    is -1 below zero.  +0 toward -inf gives NaN.
    """
    bits = out.view(np.int64)
    np.right_shift(x.view(np.int64), 63, out=bits)
    bits *= 2 * toward
    bits += toward
    bits += x.view(np.int64)
    return out


def _dither_thresholds(y, delta: float, c0=None, tau=None, work=None, flags=None):
    """Each coordinate's code c0 at zero dither and dither threshold tau; returns (c0, tau).

    A draw u of ``Generator.random`` is a lattice point k * 2**-53,
    0 <= k < 2**53, and the code of y_i under the dither fl(delta * u) is
    floor(fl(fl(y_i + fl(delta * u)) / delta)), floor(fl(y_i + u)) at
    delta = 1.  Every step is a monotone rounding, so the code rises with
    u.  tau_i is the smallest lattice u whose code is c0_i + 1, and 1.0
    where no draw reaches c0_i + 1; the code of y_i under every draw u is
    then c0_i + (u >= tau_i).  tau_i is NaN where no candidate is
    certified.

    The candidate inverts the chain one rounding at a time.  At delta = 1,
    fl(y + u) >= n = c0 + 1 exactly when y + u >= n - h, h half the
    spacing below n: a tie rounds to n, an integer below 2**52 whose last
    significand bit is 0.  h * 2**53 is 2**e for |n - 1/2| in [2**e,
    2**(e+1)), read off its exponent bits.  With fl(n - y) and its
    rounding error r = (n - fl(n - y)) - y, exact, k = ceil(fl(n - y) *
    2**53) + ceil(r * 2**53 - h * 2**53): r is 0 but for 0 < y < 1/2,
    where fl(n - y) * 2**53 is an integer; h * 2**53 is an integer from
    n = 2 up and down from n = -1; and at n = 0, where the term reads 1/2
    but y + u is never within h of 0 without reaching it, ceil(-1/2) is
    0.  At other delta the candidate takes s, the least double with
    fl(s / delta) >= n, then about the least dither with fl(y + dither)
    >= s, then about the least lattice u with fl(delta * u) at or above
    it.

    The chain itself is the certificate: the code at tau - 2**-53 is c0,
    and the code at tau is c0 + 1 (for tau < 1), and, at delta != 1, the
    code at 1 - 2**-53 is at most c0 + 1.  At delta = 1 the last holds
    for every |y| < 2**52 - 1: y <= pred(n), and fl(pred(n) + 1 - 2**-53)
    stays below n + 1, since the spacing below n + 1 is at most twice
    the spacing below n.  Where the certificate fails, the candidate
    steps one lattice point toward it, up where the code at tau is still
    c0 and down where the code at tau - 2**-53 is already c0 + 1, at most
    ``_NUDGES`` times.

    ``y`` must be finite with |y| / delta + 1 < 2**52.  ``c0`` and ``tau``
    take y's shape, ``work`` is (3,) + y.shape float64 scratch and
    ``flags`` (3,) + y.shape bool scratch; each is allocated when not
    given.
    """
    y = np.ascontiguousarray(y, dtype=float)
    c0 = np.empty(y.shape) if c0 is None else c0
    tau = np.empty(y.shape) if tau is None else tau
    n, s, v = np.empty((3,) + y.shape) if work is None else work
    hit, below, ok = np.empty((3,) + y.shape, dtype=bool) if flags is None else flags
    if delta == 1.0:
        np.floor(y, out=c0)
        np.add(c0, 1.0, out=n)
        # s = h * 2**53; the exponent mask drops the sign bit
        np.subtract(n, 0.5, out=s)
        np.bitwise_and(s.view(np.int64), _EXPONENT_BITS, out=s.view(np.int64))
        np.subtract(n, y, out=tau)
        np.subtract(n, tau, out=v)
        v -= y
        v *= _POINTS
        v -= s
        np.ceil(v, out=v)
        tau *= _POINTS
        np.ceil(tau, out=tau)
        tau += v
    else:
        np.divide(y, delta, out=c0)
        np.floor(c0, out=c0)
        np.add(c0, 1.0, out=n)
        # s: fl(n * delta), a step up where fl(s / delta) < n, then a step
        # down where the double below s still reaches n (none below +0,
        # whose NaN gap fmax drops)
        np.multiply(n, delta, out=s)
        np.subtract(_step(s, 1, v), s, out=v)
        np.divide(s, delta, out=tau)
        s += np.multiply(v, np.less(tau, n, out=hit), out=v)
        np.subtract(s, _step(s, -1, v), out=v)
        np.fmax(v, 0.0, out=v)
        np.subtract(s, v, out=tau)
        tau /= delta
        s -= np.multiply(v, np.greater_equal(tau, n, out=hit), out=v)
        # about the least dither with fl(y + dither) >= s: s less half the
        # gap below it, less y; then about the least index k with
        # fl(delta * k * 2**-53) at or above it
        np.subtract(s, _step(s, -1, v), out=v)
        np.fmax(v, 0.0, out=v)
        v *= 0.5
        np.subtract(s, y, out=tau)
        tau -= v
        tau /= delta
        tau *= _POINTS
        np.ceil(tau, out=tau)
        np.maximum(tau, 1.0, out=tau)
        np.minimum(tau, _POINTS, out=tau)
    tau *= _LATTICE
    for step in range(_NUDGES + 1):
        _reaches(y, tau, delta, n, v, hit)
        if delta != 1.0:
            # tau = 1 stands for "never": its code is not read, only the one below
            hit |= np.equal(tau, 1.0, out=below)
        np.subtract(tau, _LATTICE, out=s)
        _reaches(y, s, delta, n, v, below)
        # certified: reached at tau, not at tau - 2**-53
        if np.greater(hit, below, out=ok).all() or step == _NUDGES:
            break
        # one lattice step toward the certificate: (1 - hit - below) * 2**-53
        np.add(hit, below, out=s, dtype=float)
        np.subtract(1.0, s, out=s)
        s *= _LATTICE
        tau += s
    if not ok.all():
        np.copyto(tau, np.nan, where=np.logical_not(ok, out=ok))
    if delta != 1.0:
        # the code at 1 - 2**-53 must not pass c0 + 1
        np.add(n, 1.0, out=s)
        np.copyto(tau, np.nan, where=_reaches(y, _U_TOP, delta, s, v, hit))
    return c0, tau


class _PairKernel:
    """Quantize-and-estimate kernel for a sweep's measurement pairs (y,
    y'), one per operator.

    ``load`` points the kernel at the pairs and keeps its buffers;
    ``trials`` runs trials of every pair, each from its own keyed
    generator state.  A trial draws a (cols, M) block of
    ``Generator.random`` draws u (cols from the mode table's layout, M the
    longest pair's length) and each pair of length m reads the block's
    first cols * m values as its (cols, m) block.  A generator yields its
    doubles in order, so the dithers fl(delta * u) of that block are, bit
    for bit, ``cols`` back-to-back ``sample_dither`` calls of length m on
    the trial's stream (for the bi-dither layout too, whose (2, m) blocks
    are not column prefixes of the (2, M) one), and every estimate equals
    ``_estimate_from_codes`` on the codes of ``quantize_with_dither``.

    ``load`` finds, once per pair, each coordinate's code c0 at zero
    dither and its certified threshold tau (``_dither_thresholds``), the
    least lattice draw whose code is c0 + 1: the code under the draw u is
    c0 + (u >= tau).  So a trial compares its raw draws u with tau at
    every delta and never forms the dithers fl(delta * u): u >= tau is the
    test fl(delta * u) >= fl(delta * tau), because the rounding is
    monotone and a draw below tau with tau's dither would have tau's code.
    With k = c0 - c0' a cell gap is |k + a - b|, a = (u >= tau) and b = (u
    >= tau'), so each estimate is a per-pair integer constant plus a
    weighted count of the draws between the two thresholds: two compares
    per draw, on bool data.  The weights are float32 integers, exact in
    any summation order while the sum of their magnitudes stays below
    2**24.

    A pair takes the integer path (``_checked``) for every trial when a
    guard fails: max |y| / delta + 1 < 2**52, so that codes are exact
    doubles; every coordinate certified, with a code that steps at most
    once over the draws; ``m * (max |k| + 1)`` (l1) or ``m * (max |k| +
    1)**2`` (l2sq, circ) below 2**53, a bound of every trial's sum since
    |k| + 1 bounds every gap; the float32 weight bound.  The dither range
    needs one check per kernel: fl(delta * (1 - 2**-53)) < delta puts
    every dither below delta, and only a subnormal delta fails it, which
    sends every pair to the integer path, where each dither is checked.
    An instance owns its buffers and must not be shared between threads.
    """

    def __init__(self, mode: str, cfg: QuantConfig):
        layout, self.power = _mode(mode)
        self.cols = _LAYOUT_COLS[layout]
        self.mode = mode
        self.cfg = cfg
        self._in_range = cfg.delta * _U_TOP < cfg.delta
        self._block = None
        self._chunk = None
        self._thr = None

    def load(self, ys: list, y_primes: list) -> None:
        """Make (ys[k], y_primes[k]) the kernel's pairs, one per operator;
        the buffers are kept.

        Every pair that passes the 2**52 guard gets its thresholds from
        one search over all of them (``_search``), except a pair whose y
        and y' are the leading coordinates of the longest pair's, as a
        decay sweep's nested operators give: it reads the longest pair's
        thresholds.
        """
        if len(ys) != len(y_primes) or not ys:
            raise ValueError(f"need one y' per y, got {len(ys)} and {len(y_primes)}")
        pairs, fast = [], []
        for y, y_prime in zip(ys, y_primes):
            y = np.asarray(y, dtype=float)
            y_prime = np.asarray(y_prime, dtype=float)
            if y.ndim != 1 or y.size < 1 or y.shape != y_prime.shape:
                raise ValueError(
                    f"measurement pair must be two equal-length vectors, got {y.shape} and {y_prime.shape}"
                )
            # NaN or inf fails the comparison, so non-finite pairs take the
            # checked path, which rejects them.
            peak = max(float(np.abs(y).max()), float(np.abs(y_prime).max()))
            if self._in_range and peak / self.cfg.delta + 1 < 2.0**52:
                fast.append(len(pairs))
            pairs.append((y, y_prime))
        self._runs = []
        if fast:
            top = max(fast, key=lambda j: pairs[j][0].size)
            ty, ty_prime = pairs[top]
            leads = {j for j in fast if j != top and np.array_equal(ty[: pairs[j][0].size], pairs[j][0])
                     and np.array_equal(ty_prime[: pairs[j][0].size], pairs[j][1])}
            self._search(pairs, [top] + [j for j in fast if j != top and j not in leads], dict.fromkeys(leads, top))
        on_runs = {j for *_, (ks, *_) in self._runs for j in ks.tolist()}
        self._slow = [j for j in range(len(pairs)) if j not in on_runs]
        self._pairs = pairs

    def _search(self, pairs, roots, nested) -> None:
        """Thresholds, weights and constants of the pairs ``roots``, laid
        end to end in the kernel's (2, total) threshold array, and of the
        pairs ``nested`` maps to the root they lead; a pair that fails a
        guard stays on the integer path.

        The search runs ``_SEARCH_CHUNK`` coordinates of y and of y' at a
        time.  Per-pair sums and maxima come from pieces: the stretches
        between the roots' bounds and the nested pairs' ends.
        """
        delta, power = self.cfg.delta, self.power
        bounds = list(itertools.accumulate([pairs[r][0].size for r in roots], initial=0))
        start = dict(zip(roots, bounds))
        nested_ends = {j: start[r] + pairs[j][0].size for j, r in nested.items()}
        cuts = sorted(set(bounds) | set(nested_ends.values()))
        total = bounds[-1]
        if self._thr is None or self._thr[0].shape[1] != total:
            self._thr = (np.empty((2, total)), np.empty(total, dtype=np.float32) if power == 2 else None)
        thr, weights = self._thr
        width = 2 * min(total, _SEARCH_CHUNK)
        if self._chunk is None or self._chunk[0].shape[1] < width:
            self._chunk = (np.empty((6, width)), np.empty((3, width), dtype=bool))
        # per piece: sum |k|, max |k|, sum k**2, and NaN where a
        # threshold is uncertified
        stats = np.zeros((4, len(cuts) - 1))
        for a in range(0, total, _SEARCH_CHUNK):
            b = min(a + _SEARCH_CHUNK, total)
            # (2, b - a) rows, each contiguous
            work, flags = (buf[:, : 2 * (b - a)].reshape(len(buf), 2, b - a) for buf in self._chunk)
            yc, c0, tau = work[:3]
            overlap = range(bisect.bisect_right(bounds, a) - 1, bisect.bisect_left(bounds, b))
            for row in range(2):
                parts = [pairs[roots[i]][row][max(a - bounds[i], 0) : b - bounds[i]] for i in overlap]
                np.concatenate(parts, out=yc[row])
            # measurements near the largest double overflow in the search;
            # the chain's own arithmetic then fails their certificates
            with np.errstate(over="ignore", invalid="ignore"):
                _dither_thresholds(yc, delta, c0, tau, work[3:], flags)
            here = slice(bisect.bisect_right(cuts, a) - 1, bisect.bisect_left(cuts, b))
            local = [max(c - a, 0) for c in cuts[here]]
            if math.isnan(tau.sum()):
                stats[3, here] += np.add.reduceat(tau, local, axis=1).sum(axis=0)
            k, kk, t = work[3:, 0]
            np.subtract(c0[0], c0[1], out=k)
            lo, hi = thr[:, a:b]
            if power == 1:
                # l1 counts u >= P less u >= N: (P, N) = (tau, tau') where
                # k > 0, or k = 0 and tau < tau', else (tau', tau).  sel =
                # clip(sign(tau' - tau) + 4k, 0, 1) is 1 there, else 0;
                # lattice differences are exact, so P = tau' - sel * (tau'
                # - tau) and N = tau + sel * (tau' - tau)
                np.subtract(tau[1], tau[0], out=kk)
                np.sign(kk, out=t)
                t += np.multiply(k, 4.0, out=lo)
                np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
                t *= kk
                np.subtract(tau[1], t, out=lo)
                np.add(tau[0], t, out=hi)
            else:
                # between lo and hi the gap is |k| + sign(k * (tau' - tau)):
                # circ weighs each column by V = k * sign(T' - T), l2sq
                # weighs by 2 * V + 1
                np.minimum(tau[0], tau[1], out=lo)
                np.maximum(tau[0], tau[1], out=hi)
                np.subtract(tau[1], tau[0], out=t)
                np.sign(t, out=t)
                t *= k
                if self.cols == 1:
                    t *= 2.0
                    t += 1.0
                np.copyto(weights[a:b], t, casting="same_kind")
                np.multiply(k, k, out=kk)
            np.abs(k, out=k)
            stats[0, here] += np.add.reduceat(k, local)
            np.maximum(stats[1, here], np.maximum.reduceat(k, local), out=stats[1, here])
            if power == 2:
                stats[2, here] += np.add.reduceat(kk, local)
        ksums, kmaxes, k2sums, tsums = stats.tolist()
        members = {r: [] for r in roots}
        for j, end in [(r, start[r] + pairs[r][0].size) for r in roots] + list(nested_ends.items()):
            first = start[nested.get(j, j)]
            span = slice(cuts.index(first), cuts.index(end))
            ksum, kmax = sum(ksums[span]), max(kmaxes[span])
            m = pairs[j][0].size
            exact = m * (int(kmax) + 1) ** power < 2**53
            if power == 2:
                exact = exact and (2 * ksum if self.cols == 2 else m + 2 * ksum) < 2**24
            if exact and not math.isnan(sum(tsums[span])):
                members[nested.get(j, j)].append((j, m, int(ksum if power == 1 else sum(k2sums[span]))))
        # a run compares one stretch of the block with its thresholds and
        # sums it piecewise, ending a pair at each piece bound; its ends are
        # the int64 rows (pair, piece, m, constant); a bi-dither pair's (2,
        # m) block is no prefix of a longer pair's
        for r, group in members.items():
            for part in [group] if self.cols == 1 else [[g] for g in group]:
                if part:
                    sizes = sorted({m for _, m, _ in part})
                    ends = np.array([(j, sizes.index(m), m, const) for j, m, const in part]).T
                    self._runs.append((start[r], sizes[-1], [0] + sizes[:-1], ends))

    def trials(self, gen: np.random.Generator, states, out: np.ndarray) -> np.ndarray:
        """Estimates of a run of trials into the (pairs, trials) ``out``;
        returns ``out``.

        Trial t draws from ``gen`` with its bit generator set to
        ``states[t]`` (see ``rng._stream_states``).  Up to
        ``_BLOCK_ENTRIES // (cols * M)`` trials, at least one and at most
        the run's, are drawn at a time as one (rows, cols, M) block, and
        each run of pairs compares its rows of it against its
        thresholds; then, if a pair is on the integer path, the block is
        scaled into dithers, which that pair quantizes trial by trial.
        The block and two bool masks of its size are kept for the next
        run of the same shape and serve every pair.
        """
        delta = self.cfg.delta
        cols = self.cols
        scale = delta if self.power == 1 else delta * delta
        top = max(y.size for y, _ in self._pairs)
        # capped at the run's trials: rows past them left the work as it
        # was but made decay sweeps, which build a kernel per task, 4-10%
        # slower at m = 512-1024
        rows = max(1, min(_BLOCK_ENTRIES // (cols * top), len(states)))
        if self._block is None or self._block[0].shape != (rows, cols, top):
            self._block = (np.empty((rows, cols, top)), np.empty((2, rows * cols * top), dtype=bool))
        block = self._block[0].reshape(rows, cols * top)
        thr, weights = self._thr or (None, None)
        for t0 in range(0, len(states), rows):
            chunk = states[t0 : t0 + rows]
            n = len(chunk)
            for row, state in zip(block, chunk):
                gen.bit_generator.state = state
                gen.random(out=row)
            for first, m, starts, (ks, pieces, sizes, consts) in self._runs:
                seg = slice(first, first + m)
                d = block[:n, : cols * m].reshape(n, cols, m)
                totals = self._estimates(d, thr[:, seg], None if weights is None else weights[seg], starts)
                # every sum is an integer below 2**53, exact as a double
                out[ks, t0 : t0 + n] = scale * (consts[:, None] + totals[:, pieces].T) / sizes[:, None]
            if self._slow:
                # the dithers of ``sample_dither``, now that every run has read the draws
                np.multiply(block[:n], delta, out=block[:n])
                for k in self._slow:
                    m = self._pairs[k][0].size
                    dithers = block[:n, : cols * m].reshape(n, cols, m)
                    out[k, t0 : t0 + n] = [self._checked(self._pairs[k], d) for d in dithers]
        return out

    def _estimates(self, d: np.ndarray, thr: np.ndarray, weights, starts: list[int]) -> np.ndarray:
        """Running sums, over the pieces that begin at ``starts``, of every
        draw row of the (rows, cols, m) block ``d``: the count of its
        entries at or above thr[0] less those at or above thr[1] (l1), or
        the weighted count of those between them (l2sq, circ, one piece).
        Each is an exact integer; (rows, pieces)."""
        a, b = (buf[: d.size].reshape(d.shape) for buf in self._block[1])
        np.greater_equal(d, thr[0], out=a)
        np.greater_equal(d, thr[1], out=b)
        if self.power == 1:
            e = np.subtract(a.view(np.int8), b.view(np.int8), out=a.view(np.int8))[:, 0]
            sums = np.add.reduceat(e, starts, axis=1, dtype=np.int32 if e.shape[1] < 2**31 else np.int64)
        else:
            # a above b: lo <= u < hi
            w = np.greater(a, b, out=a)
            if self.cols == 1:
                bounds = zip(starts, starts[1:] + [None])
                sums = np.stack([np.dot(w[:, 0, i:j], weights[i:j]) for i, j in bounds], axis=1)
            else:
                both = np.logical_and(w[:, 0], w[:, 1], out=b[:, 0])
                pair = np.add(w[:, 0].view(np.int8), w[:, 1].view(np.int8), out=b[:, 1].view(np.int8))
                sums = np.add(np.dot(pair, weights), [np.count_nonzero(c) for c in both], dtype=float)[:, None]
        return np.cumsum(sums, axis=1, dtype=np.int64 if self.power == 1 else float)

    def _checked(self, pair: tuple, d: np.ndarray) -> float:
        """The integer path of ``pair`` = (y, y') over one (cols, m) dither row ``d``."""
        ca, cb = (quantize_with_dither(np.broadcast_to(v, d.shape), d, self.cfg) for v in pair)
        return _estimate_from_codes(ca.T, cb.T, self.mode, self.cfg.delta)


def estimate_distance(c: CodeBlock, c_prime: CodeBlock, mode: str) -> float:
    """Distance estimate from two comparable code blocks.

    l1    -> (delta/m)    * sum |k_i - k'_i|        (targets the l_q gap)
    l2sq  -> (delta**2/m) * sum (k_i - k'_i)**2     (targets the squared l2 gap)
    circ  -> (delta**2/m) * sum |dk_i1| * |dk_i2|   (targets the squared l2 gap)

    Accumulation is exact in integers; the delta scaling is applied once.
    """
    if (c.layout, c.m, c.delta) != (c_prime.layout, c_prime.m, c_prime.delta):
        raise ValueError(
            "incomparable blocks: "
            f"(layout, m, delta) = ({c.layout}, {c.m}, {c.delta}) vs "
            f"({c_prime.layout}, {c_prime.m}, {c_prime.delta})"
        )
    layout = _mode(mode)[0]
    if c.layout != layout:
        raise ValueError(f"mode {mode!r} requires the {layout} layout, got {c.layout!r}")
    return _estimate_from_codes(c.codes, c_prime.codes, mode, c.delta)


def _pick_width(codes: np.ndarray) -> int:
    lo = int(codes.min()) if codes.size else 0
    hi = int(codes.max()) if codes.size else 0
    if -(1 << 7) <= lo and hi < (1 << 7):
        return 0
    if -(1 << 15) <= lo and hi < (1 << 15):
        return 1
    if -(1 << 31) <= lo and hi < (1 << 31):
        return 2
    raise ValueError(f"code indices [{lo}, {hi}] overflow the 32-bit storage width")


def serialize(c: CodeBlock) -> bytes:
    """Little-endian stream: 40-byte header then row-major indices.

    Header: magic 'QEMB', version u8, layout u8 (its column count:
    1 single / 2 bidither), width u8 (0 -> i8, 1 -> i16, 2 -> i32),
    reserved u8 = 0, m u64, delta f64, op_seed u64, dither_seed u64.
    The narrowest signed width holding every index is chosen
    automatically.
    """
    width = _pick_width(c.codes)
    header = struct.pack(
        "<4sBBBBQdQQ",
        _MAGIC,
        _VERSION,
        c.cols,
        width,
        0,
        c.m,
        c.delta,
        c.op_seed,
        c.dither_seed,
    )
    payload = np.ascontiguousarray(c.codes).astype(_WIDTH_DTYPES[width]).tobytes(order="C")
    return header + payload


def deserialize(data: bytes) -> CodeBlock:
    """Inverse of serialize; validates magic, version and payload size."""
    if len(data) < HEADER_SIZE:
        raise ValueError(f"truncated stream: {len(data)} bytes is shorter than the {HEADER_SIZE}-byte header")
    magic, version, cols, width, _reserved, m, delta, op_seed, dither_seed = struct.unpack(
        "<4sBBBBQdQQ", data[:HEADER_SIZE]
    )
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a code file")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    if cols not in _COLS_LAYOUT:
        raise ValueError(f"unknown layout code {cols}")
    if width not in _WIDTH_DTYPES:
        raise ValueError(f"unknown width code {width}")
    expected = m * cols * (1 << width)
    payload = data[HEADER_SIZE:]
    if len(payload) != expected:
        raise ValueError(f"truncated stream: expected {expected} payload bytes, got {len(payload)}")
    codes = np.frombuffer(payload, dtype=_WIDTH_DTYPES[width]).astype(np.int64).reshape(m, cols)
    return CodeBlock(
        layout=_COLS_LAYOUT[cols],
        m=int(m),
        delta=float(delta),
        codes=codes,
        op_seed=int(op_seed),
        dither_seed=int(dither_seed),
    )

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
followed by ``_estimate_from_codes``.  Its ``trials`` method, the one
entry point, runs a pair's trials from their keyed generator states in
blocks of up to ``_BLOCK_ENTRIES`` dither entries, which cuts the
per-call overhead that dominates small m; from ``_BLOCK_ENTRIES``
entries per trial up, a block holds one trial.
"""

from __future__ import annotations

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


class _PairKernel:
    """Quantize-and-estimate kernel for one measurement pair (y, y'), or
    for one pair per operator of a sweep over several.

    ``trials`` runs trials of the pairs, each from its own keyed generator
    state: a trial draws a (cols, M) dither block (cols from the mode
    table's layout, M the longest pair's length) and each pair of length
    m reads the block's first cols * m values as its (cols, m) block,
    quantizes both measurements against it and yields the code-domain
    estimate.  A generator yields its doubles in order, so that block
    holds, bit for bit, the values of ``cols`` back-to-back
    ``sample_dither`` calls of length m on the trial's stream (for the
    bi-dither layout too, whose (2, m) blocks are not column prefixes of
    the (2, M) one), and the estimate equals ``_estimate_from_codes`` on
    the codes of ``quantize_with_dither``.  ``load`` points the kernel at
    the next pairs and keeps its buffers.

    The arithmetic runs in float64 buffers owned by the instance, so an
    instance must not be shared between threads.  It is exact under two
    guards: cell indices below 2**52 in magnitude (checked once per pair,
    from max |y| / delta) are exact doubles, and gap sums and products
    are exact while ``m * max gap`` (l1) or ``m * max gap1 * max gap2``
    (l2sq, circ) stays below 2**53 (checked per trial).  A trial that
    fails either guard takes the integer path instead.
    """

    def __init__(self, y, y_prime, mode: str, cfg: QuantConfig):
        layout, self.power = _mode(mode)
        self.cols = _LAYOUT_COLS[layout]
        self.mode = mode
        self.cfg = cfg
        self._block = None
        self.load(y, y_prime)

    def load(self, y, y_prime) -> None:
        """Make (y, y') the kernel's pair, or, given a list of vectors
        each, its pairs, one per operator; the trial buffers are kept.

        ``y``, ``y_prime`` and ``_fast`` hold the pair that ``_estimates``
        and ``_checked`` work on: the first after ``load``, each in turn
        within ``trials``.
        """
        ys, y_primes = (v if isinstance(v, list) else [v] for v in (y, y_prime))
        if len(ys) != len(y_primes) or not ys:
            raise ValueError(f"need one y' per y, got {len(ys)} and {len(y_primes)}")
        # drop the last pairs before the guard's temporaries are allocated
        self._pairs, self.y, self.y_prime = [], None, None
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
            self._pairs.append((y, y_prime, peak / self.cfg.delta + 1 < 2.0**52))
        self.y, self.y_prime, self._fast = self._pairs[0]

    def trials(self, gen: np.random.Generator, states, out: np.ndarray) -> np.ndarray:
        """Estimates of a run of trials into ``out``; returns ``out``.

        ``out`` is (trials,) for one pair and (pairs, trials) for several.
        Trial t draws from ``gen`` with its bit generator set to
        ``states[t]`` (see ``rng._stream_states``).  Up to
        ``_BLOCK_ENTRIES // (cols * M)`` trials, at least one and at most
        the run's, are drawn at a time as one (rows, cols, M) block, and
        each pair quantizes its rows of it with per-trial guards; a pair
        that fails the 2**52 guard takes the integer path trial by trial.
        The block and two scratch buffers of its size are kept for the
        next run of the same shape and serve every pair.
        """
        delta = self.cfg.delta
        cols = self.cols
        top = max(y.size for y, _, _ in self._pairs)
        # capped at the run's trials: rows past them left the work as it
        # was but made decay sweeps, which build a kernel per task, 4-10%
        # slower at m = 512-1024
        rows = max(1, min(_BLOCK_ENTRIES // (cols * top), len(states)))
        if self._block is None or self._block[0].shape != (rows, cols, top):
            self._block = tuple(np.empty((rows, cols, top)) for _ in range(3))
        block = self._block[0].reshape(rows, cols * top)
        scratch = [buf.reshape(-1) for buf in self._block[1:]]
        per_pair = out if out.ndim == 2 else out[None]
        for t0 in range(0, len(states), rows):
            chunk = states[t0 : t0 + rows]
            n = len(chunk)
            for row, state in zip(block, chunk):
                gen.bit_generator.state = state
                gen.random(out=row)
            # rng.uniform(0, delta) computes 0 + delta * u from the same
            # doubles u in [0, 1) that rng.random yields; 0 + x == x and
            # x * 1.0 == x.  Only delta * u rounding up to delta can leave
            # the range, so the range check in _estimates needs only the
            # maximum.
            if delta != 1.0:
                np.multiply(block[:n], delta, out=block[:n])
            for k, pair in enumerate(self._pairs):
                self.y, self.y_prime, self._fast = pair
                shape = (n, cols, self.y.size)
                d = block[:n, : cols * self.y.size].reshape(shape)
                a, b = (buf[: d.size].reshape(shape) for buf in scratch)
                per_pair[k, t0 : t0 + n] = self._estimates(d, a, b)
        return out

    def _estimates(self, d: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
        """Estimates of every dither row of the (rows, cols, m) block ``d``.

        ``a`` and ``b`` are scratch of the same shape.  Under the guards
        every row sum is an exact integer in float64, so the reduction
        order cannot change a value; a row that fails the sum guard, and
        every row of a pair that fails the 2**52 guard, takes the integer
        path over its own dither row.
        """
        if not self._fast:
            return [self._checked(row) for row in d]
        delta = self.cfg.delta
        if d.max() >= delta:
            raise ValueError("dither entries must lie in [0, delta)")
        np.add(self.y, d, out=a)
        np.add(self.y_prime, d, out=b)
        if delta != 1.0:
            np.divide(a, delta, out=a)
            np.divide(b, delta, out=b)
        np.floor(a, out=a)
        np.floor(b, out=b)
        np.subtract(a, b, out=a)
        g = np.abs(a, out=a)
        m = g.shape[-1]
        if self.power == 1:
            scale = delta
            sums = g[:, 0].sum(axis=1).tolist()
            bounds = [m * int(p) for p in g[:, 0].max(axis=1).tolist()]
        else:
            scale = delta * delta
            sums = np.einsum("ti,ti->t", g[:, 0], g[:, -1]).tolist()
            bounds = [m * int(p[0]) * int(p[-1]) for p in g.max(axis=2).tolist()]
        return [
            self._checked(row) if bound >= 2**53 else scale * total / m
            for row, total, bound in zip(d, sums, bounds)
        ]

    def _checked(self, d: np.ndarray) -> float:
        """The integer path over one (cols, m) dither row ``d``."""
        cfg = self.cfg
        ca = quantize_with_dither(np.broadcast_to(self.y, d.shape), d, cfg)
        cb = quantize_with_dither(np.broadcast_to(self.y_prime, d.shape), d, cfg)
        return _estimate_from_codes(ca.T, cb.T, self.mode, cfg.delta)


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

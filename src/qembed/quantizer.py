"""Uniform mid-rise scalar quantization, dithers, and code-domain pre-metrics.

The quantizer maps a real value to the centre of its cell: cell index
``k = floor(v / delta)`` and reconstruction value ``delta * (k + 1/2)``.
This module is the one quantizer layer:

* the mode table ``_MODES`` gives each distance mode its code layout
  and the power p of the distance ||x - x'||**p it estimates;
  ``embeddings``, ``verify`` and ``cli`` read it through ``_mode``;
* ``quantize_with_dither`` is the one checked floor,
  floor((v + dither) / delta) as int64: every cell index comes from it,
  ``quantize`` included, except inside ``embeddings._PairKernel``, whose
  threshold search evaluates the same arithmetic, fl(fl(v + dither) /
  delta), at two draws per coordinate to certify the one dither
  threshold where the coordinate's index steps, and sends a pair with
  any uncertified coordinate to this floor;
* ``_cell_gap`` is the one exact |k - k'| over int64 cell indices, read
  by the integer estimator, by ``soft_distance`` at t = 0 and by the
  dither identity checks;
* ``_threshold_count`` is the one guard-band counter.

Distances between quantized scalars reduce to counting the cell
thresholds ``k * delta`` separating the two inputs; ``soft_distance``
generalizes that count with a guard band of half-width ``|t|`` around
every threshold (t > 0 suppresses near-threshold counts, t < 0 admits
them), which restores a form of continuity that the plain count lacks.
``soft_premetric`` averages the soft distances of one mode's layout the
way the mode's estimator averages cell gaps.

Cell indices are int64.  Inputs whose indices do not fit raise a
one-line ValueError instead of wrapping around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantConfig",
    "SoftParam",
    "quantize",
    "quantize_with_dither",
    "sample_dither",
    "soft_distance",
    "soft_distance_array",
    "premetric",
    "soft_premetric",
]


_INT64_SPAN = 2.0**63
# Widest guard band that _threshold_count enumerates, in cells.
_GUARD_MAX = 2.0**10
_OUT_OF_RANGE = "measurements must be finite with cell indices inside the int64 range"
# The mode table: the code layout each estimator reads and the power p
# of the distance ||x - x'||**p it estimates; and the dither (and code)
# columns of each layout.  A code file's header stores the layout as its
# column count.
_MODES = {"l1": ("single", 1), "l2sq": ("single", 2), "circ": ("bidither", 2)}
_LAYOUT_COLS = {"single": 1, "bidither": 2}
_COLS_LAYOUT = {v: k for k, v in _LAYOUT_COLS.items()}


def _mode(mode: str) -> tuple[str, int]:
    """``mode``'s (layout, power) entry of the mode table."""
    try:
        return _MODES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; choose l1, l2sq or circ") from None


@dataclass(frozen=True)
class QuantConfig:
    """Quantizer resolution.  Cell k covers [k*delta, (k+1)*delta)."""

    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class SoftParam:
    """Guard-band half-width for the softened threshold count.

    t > 0 forbids counting thresholds whose guard band contains either
    input; t < 0 also counts thresholds whose (relaxed) band is merely
    grazed.  t = 0 reproduces the plain quantized distance.
    """

    t: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")


def quantize(value: float, cfg: QuantConfig) -> tuple[int, float]:
    """Quantize a scalar; returns (cell index, cell-centre value).

    The reconstruction value differs from the input by at most delta/2.
    The index is ``quantize_with_dither``'s at zero dither, so the same
    ValueError rejects non-finite inputs and indices outside int64.
    """
    k = int(quantize_with_dither(float(value), 0.0, cfg))
    return k, cfg.delta * (k + 0.5)


def quantize_with_dither(values: np.ndarray, dither: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Cell indices floor((values + dither) / delta) as int64.

    Raises ValueError when a dither entry lies outside [0, delta) or a
    cell index is not finite or does not fit in int64 (NaN, infinite or
    |value| >= 2**63 * delta measurements).
    """
    values = np.asarray(values, dtype=float)
    dither = np.asarray(dither, dtype=float)
    if values.shape != dither.shape:
        raise ValueError(f"dither shape {dither.shape} does not match measurements {values.shape}")
    if dither.size == 0:
        return np.zeros(values.shape, dtype=np.int64)
    if not (dither.min() >= 0 and dither.max() < cfg.delta):
        raise ValueError("dither entries must lie in [0, delta)")
    cells = np.floor((values + dither) / cfg.delta)
    if not (-_INT64_SPAN <= cells.min() and cells.max() < _INT64_SPAN):
        raise ValueError(_OUT_OF_RANGE)
    return cells.astype(np.int64)


def _cell_gap(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Exact |k - k'| as uint64 for every pair of int64 cell indices.

    max - min of two int64 values lies in [0, 2**64), so the uint64
    difference of their bit patterns is the exact gap.
    """
    hi = np.maximum(codes_a, codes_b).view(np.uint64)
    return np.subtract(hi, np.minimum(codes_a, codes_b).view(np.uint64))


def sample_dither(m: int, cfg: QuantConfig, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. uniform draws on [0, delta), deterministic given the stream."""
    if m < 1:
        raise ValueError(f"dither length must be >= 1, got {m}")
    return cfg.delta * rng.random(int(m))


def _threshold_count(a: np.ndarray, a_prime: np.ndarray, t: float | np.ndarray, delta: float) -> np.ndarray:
    """Count thresholds k*delta with a guard band of half-width |t|.

    The one place that enumerates thresholds.  Counts k such that
    (u, u') = (a - k*delta, a' - k*delta) falls in {u < -t, u' > t} or
    {u > t, u' < -t}; ``a``, ``a_prime`` and ``t`` broadcast together, so
    t may differ per element.  Every such k lies within pad =
    ceil(|t|/delta) + 1 cells of the two inputs.  The first and the last
    2*pad + 1 candidates are enumerated; the thresholds between those
    two windows clear both guard bands by more than delta, so all of
    them count and they are added as an integer difference.  Work and
    memory therefore do not grow with |a - a'|.  They grow with |t|, so
    |t| / delta may be at most 1024 (``_GUARD_MAX``), which caps the
    candidates at 2 * (2 * 1025 + 1) = 4102 per element; a wider guard
    band raises a ValueError before the candidates are allocated.

    The candidates are int64 cell indices.  Inputs whose cells do not
    fit int64 raise the int64 ValueError of ``quantize_with_dither``.  Inputs whose
    cells fit, but whose guard-banded windows reach past int64 or whose
    count could exceed it, raise a ValueError of their own; the float
    bounds below reject every such case, since rounding is monotone.
    """
    a, a_prime, t = np.broadcast_arrays(np.asarray(a, float), np.asarray(a_prime, float), np.asarray(t, float))
    pad_f = np.ceil(np.abs(t) / delta)
    lo_f = np.floor(np.minimum(a, a_prime) / delta)
    hi_f = np.ceil(np.maximum(a, a_prime) / delta)
    if a.size:
        if not pad_f.max() <= _GUARD_MAX:
            raise ValueError(f"soft distance: the guard band |t| / delta exceeds {_GUARD_MAX:.0f}")
        if not (-_INT64_SPAN <= lo_f.min() and hi_f.max() < _INT64_SPAN):
            raise ValueError(_OUT_OF_RANGE)
        # every candidate lies within 3 * max(pad) + 1 cells of [lo, hi]
        reach = 3 * pad_f.max() + 4
        if not (-_INT64_SPAN < lo_f.min() - reach and hi_f.max() + reach < _INT64_SPAN and (hi_f - lo_f).max() < _INT64_SPAN):
            raise ValueError("soft distance: the guard-banded threshold window leaves the int64 range")
    pad = pad_f.astype(np.int64) + 1
    lo = lo_f.astype(np.int64) - pad
    hi = hi_f.astype(np.int64) + pad
    span = 2 * pad + 1
    # the second window follows the first, or ends at hi when the
    # candidates outnumber two windows
    second = np.maximum(lo + span, hi - span + 1)
    j = np.arange(int(span.max(initial=1)), dtype=np.int64)
    ks = np.concatenate([lo[..., None] + j, second[..., None] + j], axis=-1)
    valid = np.concatenate([j < span[..., None], ks[..., j.size :] <= hi[..., None]], axis=-1)
    u = a[..., None] - ks * delta
    u_p = a_prime[..., None] - ks * delta
    tt = t[..., None]
    hit = ((u < -tt) & (u_p > tt)) | ((u > tt) & (u_p < -tt))
    return np.count_nonzero(hit & valid, axis=-1) + (second - lo - span)


def soft_distance(a: float, a_prime: float, soft: SoftParam, cfg: QuantConfig) -> float:
    """delta times the guarded threshold count between a and a'.

    At t = 0 the count is tied to the quantizer (half-open intervals),
    so ``soft_distance(a, a', t=0) == |Q(a) - Q(a')|`` for every input
    including lattice boundaries; the open-interval guard-band rule of
    ``_threshold_count`` differs from it only when an input sits exactly
    on a threshold.  This is the 0-d case of ``soft_distance_array``.
    """
    return float(soft_distance_array(a, a_prime, soft, cfg))


def soft_distance_array(a: np.ndarray, a_prime: np.ndarray, soft: SoftParam, cfg: QuantConfig) -> np.ndarray:
    """Componentwise soft_distance over equal-shape arrays."""
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if a.shape != a_prime.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {a_prime.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(a_prime))):
        raise ValueError("soft_distance requires finite inputs")
    if soft.t == 0.0:
        zero = np.zeros(a.shape)
        return cfg.delta * _cell_gap(quantize_with_dither(a, zero, cfg), quantize_with_dither(a_prime, zero, cfg))
    return cfg.delta * _threshold_count(a, a_prime, soft.t, cfg.delta)


def premetric(a: np.ndarray, a_prime: np.ndarray, p: float) -> float:
    """Averaged p-th power of the entrywise gaps: (1/m) * sum |a_i - a'_i|**p."""
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if a.shape != a_prime.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {a_prime.shape}")
    if not (1 <= p < math.inf):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return float(np.mean(np.abs(a - a_prime) ** p))


def soft_premetric(a: np.ndarray, a_prime: np.ndarray, soft: SoftParam, cfg: QuantConfig, mode: str) -> float:
    """Guard-banded pre-metric of ``mode``: soft distances averaged as
    ``mode``'s estimator averages cell gaps.

    Power 1 averages the soft distances; power 2 averages their squares
    in the single layout and, in the bi-dither layout, the row-wise
    product of the two columns of m-by-2 inputs (one independent dither
    column each).  At t = 0 this is the estimate of the quantized inputs.
    """
    layout, power = _mode(mode)
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if layout == "bidither" and (a.ndim != 2 or a.shape[1] != 2 or a.shape != a_prime.shape):
        raise ValueError(f"expected matching (m, 2) arrays, got {a.shape} vs {a_prime.shape}")
    d = soft_distance_array(a, a_prime, soft, cfg).reshape(-1, _LAYOUT_COLS[layout])
    if power == 1:
        return float(np.mean(d[:, 0]))
    return float(np.mean(d[:, 0] * d[:, -1]))

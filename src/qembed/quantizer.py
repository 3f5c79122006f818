"""Uniform mid-rise scalar quantization, dithers, and code-domain pre-metrics.

The quantizer maps a real value to the centre of its cell: cell index
``k = floor(v / delta)`` and reconstruction value ``delta * (k + 1/2)``.
Distances between quantized scalars reduce to counting the cell
thresholds ``k * delta`` separating the two inputs; ``soft_distance``
generalizes that count with a guard band of half-width ``|t|`` around
every threshold (t > 0 suppresses near-threshold counts, t < 0 admits
them), which restores a form of continuity that the plain count lacks.
``_threshold_count`` is the one guard-band counter: ``soft_distance``
and ``soft_distance_array`` use it with one t, the identity self-tests
with a t per element.

Cell indices are int64.  Inputs whose indices do not fit raise a
one-line ValueError (``_int64_cells``) instead of wrapping around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantConfig",
    "SoftParam",
    "quantize",
    "cell_indices",
    "sample_dither",
    "soft_distance",
    "soft_distance_array",
    "premetric",
    "soft_premetric_l1",
    "soft_premetric_l2",
    "premetric_circ",
]


_INT64_SPAN = 2.0**63
# Widest guard band that _threshold_count enumerates, in cells.
_GUARD_MAX = 2.0**10
_OUT_OF_RANGE = "measurements must be finite with cell indices inside the int64 range"


def _int64_cells(cells: np.ndarray) -> np.ndarray:
    """Float cell indices as int64; ValueError when one is NaN or does not fit."""
    if cells.size and not (-_INT64_SPAN <= cells.min() and cells.max() < _INT64_SPAN):
        raise ValueError(_OUT_OF_RANGE)
    return cells.astype(np.int64)


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
    """
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"quantize requires a finite input, got {value}")
    k = math.floor(v / cfg.delta)
    return k, cfg.delta * (k + 0.5)


def cell_indices(values: np.ndarray, cfg: QuantConfig) -> np.ndarray:
    """Vectorized cell indices floor(v/delta) as int64.

    Raises ValueError for non-finite inputs and for indices outside the
    int64 range (|v| / delta >= 2**63).
    """
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cell_indices requires finite inputs")
    return _int64_cells(np.floor(v / cfg.delta))


def sample_dither(m: int, cfg: QuantConfig, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. uniform draws on [0, delta), deterministic given the stream."""
    if m < 1:
        raise ValueError(f"dither length must be >= 1, got {m}")
    return rng.uniform(0.0, cfg.delta, size=int(m))


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
    fit int64 raise the ValueError of ``_int64_cells``.  Inputs whose
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


def _d0(a: np.ndarray, a_prime: np.ndarray, delta: float) -> np.ndarray:
    """Plain quantized distance |Q(a) - Q(a')| as delta * |cell gap|.

    Equivalent to counting thresholds in the half-open interval
    (min, max], so it agrees with the quantizer on lattice boundaries.
    """
    ka = np.floor(np.asarray(a, float) / delta)
    kb = np.floor(np.asarray(a_prime, float) / delta)
    return delta * np.abs(ka - kb)


def soft_distance(
    a: float,
    a_prime: float,
    soft: SoftParam,
    cfg: QuantConfig,
    strict: bool = False,
) -> float:
    """delta times the guarded threshold count between a and a'.

    At t = 0 the default convention ties the count to the quantizer
    (half-open intervals), so ``soft_distance(a, a', t=0) ==
    |Q(a) - Q(a')|`` for every input including lattice boundaries.
    ``strict=True`` instead applies the open-interval guard-band rule
    verbatim at t = 0; the two differ only when an input sits exactly on
    a threshold.  This is the 0-d case of ``soft_distance_array``.
    """
    return float(soft_distance_array(a, a_prime, soft, cfg, strict))


def soft_distance_array(
    a: np.ndarray,
    a_prime: np.ndarray,
    soft: SoftParam,
    cfg: QuantConfig,
    strict: bool = False,
) -> np.ndarray:
    """Componentwise soft_distance over equal-shape arrays."""
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if a.shape != a_prime.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {a_prime.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(a_prime))):
        raise ValueError("soft_distance requires finite inputs")
    if soft.t == 0.0 and not strict:
        return _d0(a, a_prime, cfg.delta)
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


def soft_premetric_l1(
    a: np.ndarray, a_prime: np.ndarray, soft: SoftParam, cfg: QuantConfig
) -> float:
    """Mean of componentwise soft distances; at t=0 this is the averaged
    l1 distance between the quantized vectors."""
    return float(np.mean(soft_distance_array(a, a_prime, soft, cfg)))


def soft_premetric_l2(
    a: np.ndarray, a_prime: np.ndarray, soft: SoftParam, cfg: QuantConfig
) -> float:
    """Mean of squared componentwise soft distances; at t=0 this is the
    averaged squared l2 distance between the quantized vectors."""
    d = soft_distance_array(a, a_prime, soft, cfg)
    return float(np.mean(d * d))


def premetric_circ(
    a: np.ndarray, a_prime: np.ndarray, soft: SoftParam, cfg: QuantConfig
) -> float:
    """Row-wise product of the two columns' soft distances, averaged.

    Inputs are m-by-2 arrays (one independent dither column each).
    """
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if a.ndim != 2 or a.shape[1] != 2 or a.shape != a_prime.shape:
        raise ValueError(f"expected matching (m, 2) arrays, got {a.shape} vs {a_prime.shape}")
    d = soft_distance_array(a, a_prime, soft, cfg)
    return float(np.mean(d[:, 0] * d[:, 1]))

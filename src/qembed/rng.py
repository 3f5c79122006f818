"""Deterministic keyed random streams.

Every stochastic routine in this package draws from a stream keyed by
(master seed, purpose label, indices).  Two calls with the same key yield
identical draws, independent of call order, which is what makes trials
safe to run on any number of workers and reports bit-reproducible.

``stream`` builds one keyed generator through numpy's ``SeedSequence``
and is the reference for any key.  Loops over many keys, whose indices
lie in [0, 2**32) and so hash as one uint32 word each, use
``_stream_states`` instead: it derives the PCG64 states of a whole batch
of keys in one vectorized pass (``SeedSequence``'s hash mix over uint32
arrays, then PCG64's set-seed step in uint64 limbs), and the loop
assigns each state to one reused ``Generator``.  Deriving and assigning
cost ~2.9 us per key against ~19 us for ``stream`` (2,880 keys, one core
of an x86 Xeon), and draw the same values bit for bit; ``SeedSequence``
output is stable across numpy versions (NEP 19).  A batch keeps 32
bytes per key and builds the state dicts on access.  Where each key
needs only a few draws, ``_States.raw`` runs PCG64 itself over the
whole batch: one 128-bit step and one output per word, vectorized over
the keys, the words of ``random_raw`` bit for bit.
"""

from __future__ import annotations

import math
import numbers
import operator
import zlib
from collections.abc import Sequence

import numpy as np

__all__ = ["stream", "label_key"]

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128) in uint64
# limbs, the low limb also in 32-bit halves for ``_step``'s high product
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO1, _MULT_LO0 = _MULT_LO >> np.uint64(32), _MULT_LO & np.uint64(_U32)


def _integer(name: str, value) -> int:
    """``value`` as a Python int (numpy integers pass); a float or any
    other non-integer raises a one-line ValueError naming ``name``.
    Sizes, dimensions, counts and seeds go through it rather than
    ``int``, which would truncate 2.5 to 2."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _float(name: str, value) -> float:
    """A ``value`` that is not a Python float, converted to one, nan and
    +-inf included (numpy reals and integers pass); text, None, bool,
    arrays and integers beyond float64 raise a one-line ValueError
    naming ``name``.  The type check of ``_real`` and ``_order``, rather
    than ``float``, which would parse "1.5", unwrap a one-element array
    and raise a TypeError on None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        got = " ".join(repr(value).split())  # an array's repr spans lines
        raise ValueError(f"{name} must be a real number, got {got}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number, got an integer beyond float64") from None


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite Python float, above 0 where ``positive``;
    anything else raises ``_float``'s one-line ValueError or one naming
    the range.  Real parameters go through it."""
    if type(value) is not float:  # a float, the common case, skips the call
        value = _float(name, value)
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{name} must be {'positive and finite' if positive else 'finite'}, got {value}")
    return value


def _order(name: str, value) -> float:
    """``value`` as a norm order q, a Python float in [1, inf]: ``_real``
    with +inf admitted, as ``np.linalg.norm`` takes it.  nan, q < 1 and
    anything ``_float`` rejects raise a one-line ValueError naming
    ``name``."""
    if type(value) is not float:
        value = _float(name, value)
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _fold(name: str, value) -> int:
    """The integer ``value`` folded into [0, 2**64), as stream keys fold
    seeds and indices, so -1 and 2**64 - 1 name the same stream; a
    non-integer raises ``_integer``'s ValueError."""
    return _integer(name, value) & _U64


def label_key(label: str) -> int:
    """Stable 32-bit key for a purpose label (process-independent)."""
    return zlib.crc32(label.encode("utf-8"))


def stream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Return the generator keyed by (seed, label, indices).

    Indices may be any non-negative ints (pair ids, trial ids, row
    numbers, ...).  Negative seeds are folded into the unsigned domain;
    a seed or index that is not an integer raises ValueError.
    """
    entropy = (_fold("seed", seed), label_key(label)) + tuple(_fold("index", i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _consts(init: int, mult: int, count: int) -> list[np.uint32]:
    """The data-independent multiplier sequence init * mult**k mod 2**32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _U32)
    return [np.uint32(c) for c in out]


def _pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` over entropy columns (uint32 arrays)."""
    calls = _POOL + _POOL * (_POOL - 1) + _POOL * max(len(words) - _POOL, 0)
    hc = iter(_consts(_INIT_A, _MULT_A, calls))
    mult = next(hc)

    def hashmix(v):
        nonlocal mult
        v = v ^ mult
        mult = next(hc)
        v *= mult
        v ^= v >> 16
        return v

    def mix(x, y):
        r = x * np.uint32(_MIX_L)
        r -= y * np.uint32(_MIX_R)
        r ^= r >> 16
        return r

    zeros = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zeros) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(words)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    return pool


def _seed_words(pool: list[np.ndarray]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of every row as a (rows, 4) array."""
    hb = _consts(_INIT_B, _MULT_B, 2 * _POOL)
    out = np.empty((pool[0].size, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ hb[i]
        v *= hb[i + 1]
        v ^= v >> 16
        out[:, i] = v
    # as numpy does: little-endian uint32 pairs form each uint64 word
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, state * multiplier + inc mod 2**128, on uint64
    limb arrays: wrapping products, the low limbs' high product from
    32-bit halves, and an add with carry."""
    w32, c32 = np.uint64(_U32), np.uint64(32)
    lo0, lo1 = lo & w32, lo >> c32
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> c32) + (p01 & w32) + (p10 & w32)
    high = lo1 * _MULT_LO1 + (p01 >> c32) + (p10 >> c32) + (mid >> c32)
    new_lo = lo * _MULT_LO + inc_lo
    return high + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo), new_lo


def _pcg64_state(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> dict:
    """The ``bit_generator.state`` dict of PCG64 state words (s_hi, s_lo) and increment words (i_hi, i_lo)."""
    state = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


class _States(Sequence):
    """PCG64 ``bit_generator.state`` dicts of a batch of keys.

    Holds each key's (state, inc) as four uint64 words, 32 bytes, and
    builds each dict on access; slices are batches too.  Read-only, so
    threads may share one.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _States(self._words[i])
        return _pcg64_state(*self._words[i].tolist())

    def __iter__(self):
        # a few rows at a time: Python ints for every key would cost ~250 bytes each
        for start in range(0, len(self._words), 256):
            for row in self._words[start : start + 256].tolist():
                yield _pcg64_state(*row)

    def raw(self, count: int) -> np.ndarray:
        """The (keys, count) uint64 array whose row k is ``random_raw(count)``
        of key k's generator: PCG64 steps the state, then outputs it
        through XSL-RR (the high limb xor the low one, rotated right by
        the state's top 6 bits)."""
        hi, lo, inc_hi, inc_lo = np.ascontiguousarray(self._words.T)
        out = np.empty((len(self._words), count), dtype=np.uint64)
        for t in range(count):
            hi, lo = _step(hi, lo, inc_hi, inc_lo)
            word, rot = hi ^ lo, hi >> np.uint64(58)
            out[:, t] = word >> rot | word << (np.uint64(64) - rot & np.uint64(63))
        return out


def _stream_states(seed: int, label: str, indices) -> _States:
    """PCG64 states of ``stream(seed, label, *row)`` for every row of ``indices``.

    ``indices`` is a (keys, k) integer array or nested list whose entries
    lie in [0, 2**32), so that ``SeedSequence`` hashes each as one word;
    anything else raises ValueError.  The seed folds into 64 bits as in
    ``stream``.  Returns one ``bit_generator.state`` dict per row, built
    on access.  A loop keeps one ``Generator`` and assigns the row's
    state before drawing, which reproduces ``stream``'s draws bit for
    bit.  Such a reused generator belongs to one task, and so to one
    thread; do not share it between threads.
    """
    rows = np.asarray(indices)
    if rows.ndim != 2:
        raise ValueError(f"indices must be a (keys, k) array, got shape {rows.shape}")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers in [0, 2**32), got dtype {rows.dtype}")
    if rows.size and not (rows.min() >= 0 and rows.max() <= _U32):
        raise ValueError(f"indices must lie in [0, 2**32), got values in [{rows.min()}, {rows.max()}]")
    s = _fold("seed", seed)
    # SeedSequence hashes an int as its little-endian uint32 words (0 is one word)
    head = [s & _U32] + ([s >> 32] if s >> 32 else []) + [label_key(label)]
    entropy = [np.full(len(rows), w, dtype=np.uint32) for w in head] + list(rows.T.astype(np.uint32))
    s_hi, s_lo, i_hi, i_lo = _seed_words(_pool(entropy)).T
    # PCG64's set-seed step: inc = 2 * stream + 1, state = (inc + seed) * multiplier + inc
    one = np.uint64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> np.uint64(63), i_lo << one | one
    lo = s_lo + inc_lo
    hi, lo = _step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return _States(np.column_stack([hi, lo, inc_hi, inc_lo]))

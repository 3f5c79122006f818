"""Check batched keyed-stream states against numpy's SeedSequence.

``rng._stream_states`` re-derives ``SeedSequence``'s hash mix and PCG64's
set-seed step.  This script draws random keys, with seeds of every
word-count class (0, below 2**32, of 2**32 or more, of 2**64 or more,
and negative, which fold into 64 bits) and indices of 0, below 1000 and
below 2**32, the one-word values the batch accepts, and compares each
batched state with ``default_rng(SeedSequence(key))``.  pytest does not
collect this file; ``test_rng.py`` runs a smaller version of it.

    PYTHONPATH=src python tests/stream_states_check.py --keys 1000000
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from qembed.rng import _stream_states, label_key

_U64 = 2**64 - 1
_LABELS = ("qrip:dither", "qrip:pair", "gaussian:rows", "expander:nbrs", "")


def _seed(rng: np.random.Generator) -> int:
    """A seed from a random word-count class."""
    cls = int(rng.integers(6))
    if cls == 0:
        return 0
    if cls == 1:
        return int(rng.integers(1, 2**32))
    if cls == 2:
        return int(rng.integers(2**32, 2**63)) * 2 + int(rng.integers(2))
    if cls == 3:
        return 2**64 + int(rng.integers(2**62))
    if cls == 4:
        return -int(rng.integers(1, 2**63))
    return int(rng.integers(0, 1000))


def _index(rng: np.random.Generator) -> int:
    """An index of 0, below 1000 or below 2**32."""
    cls = int(rng.integers(3))
    return 0 if cls == 0 else int(rng.integers(0, 1000 if cls == 1 else 2**32))


def check(keys: int, seed: int = 0, batch: int = 1000) -> tuple[int, int]:
    """Compare ``keys`` batched states with SeedSequence; returns (keys, mismatches)."""
    rng = np.random.default_rng(seed)
    done = bad = 0
    while done < keys:
        rows = min(batch, keys - done)
        key_seed = _seed(rng)
        label = _LABELS[int(rng.integers(len(_LABELS)))]
        k = int(rng.integers(5))
        # a list of Python ints: mixes value classes within one call
        indices = [[_index(rng) for _ in range(k)] for _ in range(rows)]
        got = _stream_states(key_seed, label, indices if k else np.zeros((rows, 0), dtype=np.int64))
        for row, state in zip(indices, got):
            entropy = (key_seed & _U64, label_key(label)) + tuple(row)
            want = np.random.default_rng(np.random.SeedSequence(entropy)).bit_generator.state
            bad += state != want
        done += rows
    return done, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    keys, bad = check(args.keys, args.seed)
    print(f"{keys} keys, {bad} mismatches, {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

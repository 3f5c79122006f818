"""Check batched expander picks and raw-word Bernoulli rows against numpy.

``linops._choices`` reproduces ``Generator.choice(m, d, replace=False)``
from raw PCG64 words, and ``BernoulliOp`` draws its +-1 rows from raw
words where numpy would draw ``integers(0, 2)``.  This script builds
expanders over random keys and shapes, and over the cases where numpy's
draws take another path: m == d (no draw at j = 0) and d == 1; m = 10000
and 10001 with d = m // 50 and m // 50 + 1 (the tail-shuffle threshold);
m in (2**31, 2**32], where Lemire's draws are often drawn again; and
m > 2**32 (64-bit draws).  It compares every column with ``choice`` of
the column's own stream, and the rows of Bernoulli operators of random
shapes, as float64 and int8, with ``integers(0, 2)`` of each 64-row
block's stream.  pytest does not collect this file; ``test_linops.py``
runs a smaller version of it.

    PYTHONPATH=src python tests/expander_draw_check.py --rounds 2000
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from qembed import build
from qembed.rng import stream


def _expander_case(rng: np.random.Generator, case: int) -> tuple[int, int, int]:
    """(m, n, d) of one round: a random shape, or one of numpy's other paths."""
    if case == 0:
        m = int(rng.integers(1, 5000))
        return m, int(rng.integers(1, 300)), int(rng.integers(1, min(m, 40) + 1))
    if case == 1:
        d = int(rng.integers(1, 40))
        return d, int(rng.integers(1, 200)), d
    if case == 2:
        return int(rng.integers(1, 10**6)), int(rng.integers(1, 300)), 1
    if case == 3:
        m = 10000 + int(rng.integers(2))
        return m, int(rng.integers(1, 30)), m // 50 + int(rng.integers(2))
    if case == 4:
        return int(rng.integers(2**31 + 1, 2**32 + 1)), int(rng.integers(1, 20)), int(rng.integers(1, 9))
    return int(rng.integers(2**32 + 1, 2**40)), int(rng.integers(1, 20)), int(rng.integers(1, 9))


def check(rounds: int, seed: int = 0) -> tuple[int, int]:
    """Run ``rounds`` expander and Bernoulli comparisons; returns (columns and
    blocks compared, mismatches)."""
    rng = np.random.default_rng(seed)
    done = bad = 0
    for r in range(rounds):
        key = int(rng.integers(2**63))
        m, n, d = _expander_case(rng, r % 6)
        nbrs = build("expander", m, n, seed=key, degree=d).neighbors
        for j in range(n):
            bad += not np.array_equal(nbrs[j], stream(key, "expander:nbrs", j).choice(m, size=d, replace=False))
        m, n = int(rng.integers(1, 200)), int(rng.integers(1, 300))
        op = build("bernoulli", m, n, seed=key)
        rows, cache = op._rows(0, m), op._rows(0, m, np.int8)
        for b in range(0, m, 64):
            want = stream(key, "bernoulli:rows", b).integers(0, 2, size=(min(64, m - b), n)) * 2 - 1
            bad += not (np.array_equal(rows[b : b + 64], want) and np.array_equal(cache[b : b + 64], want))
        done += n + -(-m // 64)
    return done, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    done, bad = check(args.rounds, args.seed)
    print(f"{args.rounds} rounds, {done} columns and blocks, {bad} mismatches, {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

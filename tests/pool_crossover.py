"""Speed-up of a sweep's pool over one worker, by trial dither block.

Usage (from the root of a checkout):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/pool_crossover.py [--rounds 7]

Times in-process ``measure_decay`` sweeps (gaussian, n = 256, model
sparse:4:256 at radius 20, delta 1, 5 distances) on each shape of the
table at ``verify._PARALLEL_MIN_BLOCK``, once on one worker and once on
one worker per usable core, by setting the threshold above and below
the shape's key.  The order of the two alternates from round to round,
and the first round is a discarded warm-up.  Each line gives the key
``cols * max(m)`` that ``verify._default_workers`` reads and the pool's
speed-up over one worker: the median over rounds and the range.  Both
runs of a round must give bit-equal estimates.  Needs at least 2 usable
cores.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from qembed import QuantConfig, build, measure_decay, sparse, verify
from qembed.linops import _usable_cores
from qembed.quantizer import _LAYOUT_COLS, _mode

# (mode, m list, pairs, dithers); the decay_l1 and sweep_circ benchmark configs among them
SHAPES = [
    ("l1", [2048], 8, 16),
    ("l1", [128, 256, 512, 1024, 2048, 4096, 8192], 8, 16),
    ("l2sq", [8192], 8, 16),
    ("circ", [8192], 8, 16),
    ("l1", [32768], 8, 16),
    ("circ", [16384], 8, 16),
    ("l1", [65536], 8, 16),
    ("circ", [32768], 8, 16),
    ("circ", [32768], 6, 96),
]
GRID = [0.05, 0.2, 1.0, 5.0, 10.0]


def _sweep(mode, ms, pairs, dithers, threshold):
    verify._PARALLEL_MIN_BLOCK = threshold
    ops = [build("gaussian", m, 256, seed=7, **({"rip": (1, 2)} if mode == "l1" else {})) for m in ms]
    mset = sparse(4, 256, radius=20.0)
    start = time.perf_counter()
    runs = measure_decay(ops, mset, mode, QuantConfig(1.0), GRID, pairs, dithers, seed=11)
    return time.perf_counter() - start, [run.estimates for run in runs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    cores = _usable_cores()
    if cores < 2:
        print("needs at least 2 usable cores", file=sys.stderr)
        return 1
    print(f"{cores} workers against 1, median (range) over {args.rounds} rounds")
    for mode, ms, pairs, dithers in SHAPES:
        key = _LAYOUT_COLS[_mode(mode)[0]] * max(ms)
        ratios = []
        for r in range(args.rounds + 1):
            arms = [key + 1, 0] if r % 2 else [0, key + 1]
            (t_a, ests_a), (t_b, ests_b) = (_sweep(mode, ms, pairs, dithers, th) for th in arms)
            if not all(np.array_equal(a, b) for a, b in zip(ests_a, ests_b)):
                print(f"{mode} {ms}: estimates differ between worker counts", file=sys.stderr)
                return 1
            one, pool = (t_a, t_b) if arms[0] else (t_b, t_a)
            if r:
                ratios.append(one / pool)
        m_text = f"{ms[0]}..{ms[-1]}" if len(ms) > 1 else str(ms[0])
        print(f"{mode:5} m={m_text:10} {pairs}x{dithers:<3} key {key:6d}  "
              f"{statistics.median(ratios):.2f} ({min(ratios):.2f}-{max(ratios):.2f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the benchmark workloads.

Every check holds for any seed.  The references use qembed's public
functions only to rebuild the operator, the pairs and the keyed dither
streams; quantization is ``floor((y + dither) / delta)`` and every code
sum runs over Python integers.
"""

from __future__ import annotations

import math
import statistics
from operator import mul, sub

import numpy as np

RECORD_FIELDS = ("m", "delta", "mode", "true_dist", "est_dist", "rel_err", "pair_id", "trial_id", "seed")
SUMMARY_FIELDS = ("m", "mode", "eps_L_hat", "dist", "rho_hat_max", "rho_hat_median")
# Summary values are recomputed from 12-digit CSV fields, so they agree
# only to about 1e-12 of the distance scale; corruption is caught above this.
SUMMARY_RTOL = 1e-9


def exponent(mode: str) -> int:
    return 1 if mode == "l1" else 2


def code_sum(mode: str, a: list[list[int]], b: list[list[int]]) -> int:
    """Integer sum behind each estimator; a and b are per-column code lists."""
    gaps = [list(map(abs, map(sub, ca, cb))) for ca, cb in zip(a, b)]
    if mode == "l1":
        return sum(gaps[0])
    if mode == "l2sq":
        return sum(map(mul, gaps[0], gaps[0]))
    return sum(map(mul, gaps[0], gaps[1]))


def reference_estimate(mode: str, a, b, delta: float, m: int) -> float:
    total = code_sum(mode, a, b)
    return delta * total / m if mode == "l1" else delta * delta * total / m


def _parse_csv(text: str, fields, convert):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config:"):
        raise ValueError("missing '# config:' line")
    if lines[1] != ",".join(fields):
        raise ValueError(f"unexpected header {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != len(fields):
            raise ValueError(f"bad row {ln!r}")
        rows.append(convert(parts))
    return rows


def parse_records(text: str) -> list[list]:
    def conv(p):
        return [int(p[0]), float(p[1]), p[2], float(p[3]), float(p[4]), float(p[5]), int(p[6]), int(p[7]), int(p[8])]

    return _parse_csv(text, RECORD_FIELDS, conv)


def parse_summary(text: str) -> list[list]:
    def conv(p):
        return [int(p[0]), p[1], float(p[2]), float(p[3]), float(p[4]), float(p[5])]

    return _parse_csv(text, SUMMARY_FIELDS, conv)


def summary_from_records(records, grid, mode: str) -> list[tuple[float, float, float, float]]:
    """(eps_L_hat, dist, rho_hat_max, rho_hat_median) per grid distance.

    ``records`` are (true_dist, est_dist, rel_err, pair_id) tuples.
    eps_L_hat is the worst pair's median |rel_err| at the largest
    distance; residuals remove eps_L_hat * s**p and clip at zero.
    """
    p = exponent(mode)
    s_max = max(grid)
    by_pair: dict[int, list[float]] = {}
    for s, _est, rel, pid in records:
        if s == s_max:
            by_pair.setdefault(pid, []).append(abs(rel))
    eps = max(statistics.median(v) for v in by_pair.values())
    rows = []
    for s in sorted(grid):
        target = s**p
        resid = [max(abs(est - target) - eps * target, 0.0) for t, est, _r, _p in records if t == s]
        rows.append((eps, s, max(resid), statistics.median(resid)))
    return rows


def summary_mismatches(expected, rows, mode: str) -> list[str]:
    """Compare recomputed (eps, dist, max, median) tuples with summary CSV rows."""
    if len(rows) != len(expected):
        return [f"summary has {len(rows)} rows, expected {len(expected)}"]
    bad = []
    for (eps, s, mx, md), row in zip(expected, rows):
        scale = s ** exponent(mode)
        if row[3] != s:
            bad.append(f"dist {row[3]} != {s}")
        if not math.isclose(row[2], eps, rel_tol=SUMMARY_RTOL, abs_tol=1e-15):
            bad.append(f"eps_L_hat {row[2]} != {eps} at s={s}")
        for got, want, col in ((row[4], mx, "rho_hat_max"), (row[5], md, "rho_hat_median")):
            if abs(got - want) > SUMMARY_RTOL * scale:
                bad.append(f"{col} {got} != {want} at s={s}")
    return bad


class RecordReference:
    """Recomputes sweep records from qembed's public building blocks."""

    def __init__(self, q, op, mset, delta: float, mode: str, grid, seed: int):
        self.q, self.op, self.mset, self.mode, self.seed = q, op, mset, mode, seed
        self.cfg = q.quantizer.QuantConfig(delta)
        self.grid = np.sort(np.asarray(grid, dtype=float))
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def measurements(self, pair_id: int, si: int):
        key = (pair_id, si)
        if key not in self._pairs:
            q = self.q
            rng = q.rng.stream(self.seed, "qrip:pair", pair_id)
            x, xp = q.modelsets.sample_pair(self.mset, float(self.grid[si]), rng, q=self.op.rip_profile[1])
            self._pairs[key] = (self.op.matvec(np.ravel(x)), self.op.matvec(np.ravel(xp)))
        return self._pairs[key]

    def record(self, pair_id: int, trial: int, si: int) -> tuple[float, float]:
        """(est_dist, rel_err) of one record."""
        q, cfg = self.q, self.cfg
        y, yp = self.measurements(pair_id, si)
        drng = q.rng.stream(self.seed, "qrip:dither", pair_id, trial, si)
        cols = 2 if self.mode == "circ" else 1
        dithers = [q.quantizer.sample_dither(self.op.m, cfg, drng) for _ in range(cols)]
        a = [np.floor((y + xi) / cfg.delta).astype(np.int64).tolist() for xi in dithers]
        b = [np.floor((yp + xi) / cfg.delta).astype(np.int64).tolist() for xi in dithers]
        est = reference_estimate(self.mode, a, b, cfg.delta, self.op.m)
        s = self.grid[si]
        target = s ** exponent(self.mode)
        return est, float((est - target) / target)


def record_mismatch(row, ref: tuple[float, float]) -> str | None:
    """Exact comparison of a parsed CSV record with its reference."""
    est, rel = ref
    want = (float(format(est, ".12g")), float(format(rel, ".12g")))
    if (row[4], row[5]) != want:
        return f"record pair={row[6]} trial={row[7]} dist={row[3]}: got {(row[4], row[5])}, want {want}"
    return None

"""Seeded, config-driven experiment runner.

Subcommands: embed, distance, riptest, qrip, decay, meanwidth, entropy,
reqm, selftest.  Every run is fully determined by (flags, seed); outputs
are written atomically (temp file + rename) and the resolved
configuration is echoed into CSV headers as comment lines.

Exit codes: 0 success, 1 validation error (a one-line message on stderr;
every ValueError raised by the library maps to it), 2 failed selftest
assertion.
Sweeps run their trials on one worker per usable core (the CPU affinity
set, e.g. under taskset) when a trial's dither block has at least 2**14
entries, else on one.  Results do not depend on the worker count.  For
sweeps, set OPENBLAS_NUM_THREADS=1: idle OpenBLAS threads spin on the
cores the trial workers need.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from . import modelsets
from .embeddings import deserialize, embed, estimate_distance, serialize
from .linops import FAMILIES, build, build_rop
from .modelsets import ModelSet, entropy_bound, mean_width_mc, required_m
from .quantizer import _LAYOUT_COLS, _MODES, QuantConfig, sample_dither
from .rng import stream
from .verify import (
    SUMMARY_COLUMNS,
    estimate_rip,
    fit_decay,
    measure_qrip,
    records_csv,
    selftest,
    summary_csv,
)

__all__ = ["main", "console_main", "parse_model"]


class _CliError(Exception):
    """Validation failure with a one-line actionable message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def parse_model(spec: str, radius: float = 1.0) -> ModelSet:
    """Parse model descriptors: sparse:s:n, ball:n, lowrank:r:n1:n2,
    group_sparse:s:l:n."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise _CliError(f"model '{spec}': parameters after the kind must be integers")
    try:
        if kind == "sparse" and len(nums) == 2:
            return modelsets.sparse(nums[0], nums[1], radius=radius)
        if kind == "ball" and len(nums) == 1:
            return modelsets.ball(nums[0], radius=radius)
        if kind in ("lowrank", "low_rank") and len(nums) == 3:
            return modelsets.low_rank(nums[0], nums[1], nums[2], radius=radius)
        if kind == "group_sparse" and len(nums) == 3:
            return modelsets.group_sparse(nums[0], nums[1], nums[2], radius=radius)
    except ValueError as exc:
        raise _CliError(f"model '{spec}': {exc}")
    raise _CliError(
        f"model '{spec}': expected sparse:s:n, ball:n, lowrank:r:n1:n2 or group_sparse:s:l:n"
    )


def _build_op(args, m: int) -> "LinOp":
    options = {}
    if args.family == "expander":
        if args.degree is None:
            raise _CliError("family expander: missing --degree (left-degree d)")
        options["degree"] = args.degree
    if args.family == "gaussian" and getattr(args, "rip", None):
        try:
            p, q = (int(v) for v in args.rip.split(","))
        except ValueError:
            raise _CliError(f"--rip: expected 'p,q' integers, got {args.rip!r}")
        options["rip"] = (p, q)
    return build(args.family, m, args.n, seed=args.seed, **options)


def _atomic_write(path: str, data: bytes | str) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qembed-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    current = os.umask(0)
    os.umask(current)
    return current


def _load_vector(path: str, line: int) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise _CliError(f"--input: {exc}")
    except UnicodeDecodeError:
        raise _CliError(f"--input {path}: not a UTF-8 text file")
    if not rows:
        raise _CliError(f"--input {path}: no vectors found")
    if line < 0:
        raise _CliError(f"--line {line}: must be >= 0")
    if line >= len(rows):
        raise _CliError(f"--line {line}: file has only {len(rows)} vector(s)")
    try:
        return np.array([float(v) for v in rows[line].split()])
    except ValueError:
        raise _CliError(f"--input {path} line {line}: entries must be real numbers")


def _config_line(args, keys) -> str:
    parts = [f"{k}={getattr(args, k)}" for k in keys if getattr(args, k, None) is not None]
    return "# config: " + " ".join(parts) + "\n"


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Splice key=value pairs from --config FILE in front of the explicit
    flags (explicit flags win because they are parsed later)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _CliError("--config: missing file path")
    path = argv[idx + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise _CliError(f"--config: {exc}")
    except UnicodeDecodeError:
        raise _CliError(f"--config {path}: not a UTF-8 text file")
    injected: list[str] = []
    for ln in lines:
        if "=" not in ln:
            raise _CliError(f"--config {path}: expected key=value, got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        injected.extend([f"--{key.replace('_', '-')}", value])
    rest = argv[:idx] + argv[idx + 2 :]
    return rest[:1] + injected + rest[1:]


def _add_op_flags(sp, need_m=True):
    sp.add_argument("--family", required=True, choices=FAMILIES)
    if need_m:
        sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, help="expander left-degree")
    sp.add_argument("--rip", help="gaussian profile as 'p,q' (default 2,2)")
    sp.add_argument("--model", required=True, help="sparse:s:n | ball:n | lowrank:r:n1:n2 | group_sparse:s:l:n")
    sp.add_argument("--radius", type=float, default=1.0)


def _make_parser() -> _Parser:
    parser = _Parser(prog="qembed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("embed", help="vector file -> code file")
    sp.add_argument("--family", required=True, choices=FAMILIES + ("rop",))
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, help="input dimension (vector families)")
    sp.add_argument("--n1", type=int, help="matrix rows (rop family)")
    sp.add_argument("--n2", type=int, help="matrix columns (rop family)")
    sp.add_argument("--kappa", type=float, default=1.0, help="rop pre-quantization rescaling")
    sp.add_argument("--degree", type=int, help="expander left-degree")
    sp.add_argument("--rip", help="gaussian profile as 'p,q' (default 2,2)")
    sp.add_argument("--input", required=True, help="text file, one whitespace-separated vector per line")
    sp.add_argument("--line", type=int, default=0, help="vector line to embed (default 0)")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0, help="operator seed")
    sp.add_argument("--dither-seed", type=int, default=0)
    sp.add_argument("--layout", choices=("single", "bidither"), default="single")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("distance", help="two code files -> estimate")
    sp.add_argument("codes", nargs=2)
    sp.add_argument("--mode", required=True, choices=tuple(_MODES))

    sp = sub.add_parser("riptest", help="empirical linear-map distortion")
    _add_op_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--pairs", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("qrip", help="distance-grid distortion sweep")
    _add_op_flags(sp)
    sp.add_argument("--mode", required=True, choices=tuple(_MODES))
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--grid", required=True, help="comma-separated distances")
    sp.add_argument("--pairs", type=int, default=8)
    sp.add_argument("--dithers", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="records CSV path")
    sp.add_argument("--summary", help="summary CSV path (default <out>.summary.csv)")

    sp = sub.add_parser("decay", help="additive-residual decay across m")
    _add_op_flags(sp, need_m=False)
    sp.add_argument("--mode", required=True, choices=tuple(_MODES))
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--m-list", required=True, help="comma-separated embedding dimensions (>= 4)")
    sp.add_argument("--pairs", type=int, default=8)
    sp.add_argument("--dithers", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="summary CSV path")

    sp = sub.add_parser("meanwidth", help="Monte Carlo Gaussian mean width")
    sp.add_argument("--model", required=True)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("entropy", help="covering-number log-bound")
    sp.add_argument("--model", required=True)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--q", type=float, default=2.0)

    sp = sub.add_parser("reqm", help="required embedding dimension")
    sp.add_argument("--prop", required=True, choices=("p1", "p2", "p3"))
    sp.add_argument("--model", required=True)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--C", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=2.0)

    sp = sub.add_parser("selftest", help="run every identity check")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fast", action="store_true", help="reduced sample sizes")

    return parser


def _parse_grid(raw: str) -> list[float]:
    try:
        grid = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise _CliError(f"--grid: expected comma-separated reals, got {raw!r}")
    if not grid or any(g <= 0 for g in grid):
        raise _CliError("--grid: distances must be positive")
    return grid


def _cmd_embed(args) -> int:
    x = _load_vector(args.input, args.line)
    drng = stream(args.dither_seed, "cli:dither")
    cfg = QuantConfig(args.delta)
    if args.family == "rop":
        if args.n1 is None or args.n2 is None:
            raise _CliError("family rop: missing --n1/--n2 (matrix shape)")
        if x.size != args.n1 * args.n2:
            raise _CliError(f"--input: vector length {x.size} does not match --n1*--n2 = {args.n1 * args.n2}")
        op = build_rop(args.m, args.n1, args.n2, seed=args.seed, kappa=args.kappa)
    else:
        if args.n is None:
            raise _CliError(f"family {args.family}: missing --n (input dimension)")
        op = _build_op(args, args.m)
        if x.size != args.n:
            raise _CliError(f"--input: vector length {x.size} does not match --n {args.n}")
    xi = np.column_stack([sample_dither(args.m, cfg, drng) for _ in range(_LAYOUT_COLS[args.layout])])
    block = embed(op, x, xi, cfg, dither_seed=args.dither_seed)
    data = serialize(block)
    _atomic_write(args.out, data)
    print(f"wrote {args.out}: layout={block.layout} m={block.m} delta={block.delta}")
    return 0


def _cmd_distance(args) -> int:
    blocks = []
    for path in args.codes:
        try:
            with open(path, "rb") as fh:
                blocks.append(deserialize(fh.read()))
        except (OSError, ValueError) as exc:
            raise _CliError(f"codes file {path}: {exc}")
    print(format(estimate_distance(blocks[0], blocks[1], args.mode), ".12g"))
    return 0


def _cmd_riptest(args) -> int:
    op = _build_op(args, args.m)
    mset = parse_model(args.model, radius=args.radius)
    eps = estimate_rip(op, mset, args.p, args.q, args.pairs, stream(args.seed, "cli:riptest"))
    print(format(eps, ".12g"))
    return 0


def _run_qrip(args, m: int):
    op = _build_op(args, m)
    mset = parse_model(args.model, radius=args.radius)
    grid = _parse_grid(args.grid)
    cfg = QuantConfig(args.delta)
    return measure_qrip(op, mset, args.mode, cfg, grid, args.pairs, args.dithers, seed=args.seed)


def _cmd_qrip(args) -> int:
    run = _run_qrip(args, args.m)
    keys = ("family", "m", "n", "model", "mode", "delta", "grid", "pairs", "dithers", "seed", "radius")
    header = _config_line(args, keys)
    _atomic_write(args.out, header + records_csv(run))
    summary_path = args.summary or args.out + ".summary.csv"
    _atomic_write(summary_path, header + summary_csv(run))
    print(f"eps_L_hat={format(run.fit.eps_L_hat, '.12g')} records={run.estimates.size} -> {args.out}")
    return 0


def _cmd_decay(args) -> int:
    try:
        m_list = [int(v) for v in args.m_list.split(",") if v.strip()]
    except ValueError:
        raise _CliError(f"--m-list: expected comma-separated integers, got {args.m_list!r}")
    m_list = sorted(set(m_list))
    if len(m_list) < 4:
        raise _CliError(f"--m-list: need >= 4 distinct embedding dimensions, got {len(m_list)}")
    runs = [_run_qrip(args, m) for m in m_list]
    slope = fit_decay(runs)
    if args.out:
        keys = ("family", "n", "model", "mode", "delta", "grid", "pairs", "dithers", "seed", "m_list")
        lines = [_config_line(args, keys).rstrip("\n"), SUMMARY_COLUMNS]
        for run in runs:
            lines.extend(summary_csv(run).splitlines()[1:])
        _atomic_write(args.out, "\n".join(lines) + "\n")
    print(format(slope, ".12g"))
    return 0


def _cmd_meanwidth(args) -> int:
    mset = parse_model(args.model, radius=args.radius)
    est, stderr = mean_width_mc(mset, args.trials, stream(args.seed, "cli:meanwidth"))
    print(f"{format(est, '.12g')} {format(stderr, '.12g')}")
    return 0


def _cmd_entropy(args) -> int:
    mset = parse_model(args.model, radius=args.radius)
    print(format(entropy_bound(mset, args.eta, args.q), ".12g"))
    return 0


def _cmd_reqm(args) -> int:
    mset = parse_model(args.model, radius=args.radius)
    print(required_m(args.prop, mset, args.eps, QuantConfig(args.delta), C=args.C, q=args.q))
    return 0


def _cmd_selftest(args) -> int:
    checks = selftest(seed=args.seed, fast=args.fast)
    failed = 0
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: {c['detail']}")
        failed += 0 if c["passed"] else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "embed": _cmd_embed,
    "distance": _cmd_distance,
    "riptest": _cmd_riptest,
    "qrip": _cmd_qrip,
    "decay": _cmd_decay,
    "meanwidth": _cmd_meanwidth,
    "entropy": _cmd_entropy,
    "reqm": _cmd_reqm,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _make_parser()
    try:
        if argv:
            argv = _apply_config_file(parser, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # -h/--help printed the usage text
            return 0
        return _COMMANDS[args.command](args)
    except (_CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

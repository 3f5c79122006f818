"""Seeded, config-driven experiment runner.

Subcommands: embed, distance, riptest, qrip, decay, meanwidth, entropy,
reqm, selftest.  Every run is fully determined by (flags, seed); outputs
are written atomically (temp file + rename) and the resolved
configuration is echoed into CSV headers as comment lines.

Exit codes: 0 success, 1 failed command, 2 failed selftest assertion.
The CLI has one error type, ValueError: a bad flag (argparse's errors),
a failed check here, a ValueError from the library and an unwritable
output (an OSError from ``_atomic_write``) all become one, and ``main``
prints it as one "error: ..." line on stderr and returns 1.  So does a
MemoryError: a size the machine cannot allocate.  qrip and
decay check that their outputs can be written before they sweep.
Sweeps run their pair ids on one worker per usable core (the CPU
affinity set, e.g. under taskset) when a trial's dither block, m
entries at the sweep's largest m (2m for circ), reaches 2**16, else on
one (``verify._default_workers``); decay runs all its dimensions as
one sweep, drawing each trial's dithers once at the largest m, so its
smaller dimensions add nothing to the block.  Results do not depend on
the worker count.  For sweeps, set
OPENBLAS_NUM_THREADS=1: idle OpenBLAS threads spin on the cores the
trial workers need.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

import numpy as np

from . import modelsets
from .embeddings import deserialize, embed, estimate_distance, serialize
from .linops import FAMILIES, LinOp, build, build_rop
from .modelsets import ModelSet, entropy_bound, mean_width_mc, required_m
from .quantizer import _LAYOUT_COLS, _MODES, QuantConfig, sample_dither
from .rng import stream
from .verify import (
    SUMMARY_COLUMNS,
    estimate_rip,
    fit_decay,
    measure_decay,
    measure_qrip,
    records_csv,
    selftest,
    summary_csv,
)

__all__ = ["main", "console_main", "parse_model"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# --model forms: kind -> (constructor, parameters).  parse_model, its error
# message and the --model help all read this table.
_MODEL_FORMS = {
    "sparse": (modelsets.sparse, "s:n"),
    "ball": (modelsets.ball, "n"),
    "lowrank": (modelsets.low_rank, "r:n1:n2"),
    "group_sparse": (modelsets.group_sparse, "s:l:n"),
}
_MODEL_GRAMMAR = [f"{kind}:{params}" for kind, (_, params) in _MODEL_FORMS.items()]


def parse_model(spec: str, radius: float = 1.0) -> ModelSet:
    """Parse a --model descriptor in one of the forms of ``_MODEL_FORMS``
    (``low_rank`` is accepted for ``lowrank``)."""
    kind, *args = spec.split(":")
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"model '{spec}': parameters after the kind must be integers")
    form = _MODEL_FORMS.get("lowrank" if kind == "low_rank" else kind)
    if form is None or len(nums) != form[1].count(":") + 1:
        raise ValueError(f"model '{spec}': expected {', '.join(_MODEL_GRAMMAR[:-1])} or {_MODEL_GRAMMAR[-1]}")
    try:
        return form[0](*nums, radius=radius)
    except ValueError as exc:
        raise ValueError(f"model '{spec}': {exc}")


def _build_op(args, m: int) -> LinOp:
    """The operator the operator flags name; ``build`` rejects a missing
    --degree and an option its family does not take, and a flag of the
    other operator kind (--n for rop, --n1/--n2/--kappa for a vector
    family) is rejected here."""
    options = {}
    if args.degree is not None:
        options["degree"] = args.degree
    if args.rip is not None:
        try:
            p, q = (int(v) for v in args.rip.split(","))
        except ValueError:
            raise ValueError(f"--rip: expected 'p,q' integers, got {args.rip!r}")
        options["rip"] = (p, q)
    if args.family == "rop":
        if args.n is not None:
            raise ValueError("family rop: vector-family option: --n (the matrix shape is --n1/--n2)")
        if args.n1 is None or args.n2 is None:
            raise ValueError("family rop: missing --n1/--n2 (matrix shape)")
        if options:
            raise ValueError(f"family rop: unknown operator options: {sorted(options)}")
        return build_rop(m, args.n1, args.n2, seed=args.seed, kappa=1.0 if args.kappa is None else args.kappa)
    rop_flags = [f"--{k}" for k in ("n1", "n2", "kappa") if getattr(args, k, None) is not None]
    if rop_flags:
        raise ValueError(f"family {args.family}: rop-only options: {', '.join(rop_flags)}")
    if args.n is None:
        raise ValueError(f"family {args.family}: missing --n (input dimension)")
    return build(args.family, m, args.n, seed=args.seed, **options)


def _atomic_write(path: str, data: bytes | str) -> None:
    """Write ``data`` through a temp file in the target's directory and a
    rename.  The temp file is created with mode 0o666, which the kernel
    masks with the umask.  An OSError becomes a one-line ValueError."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".qembed-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data if isinstance(data, bytes) else data.encode())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(path: str) -> None:
    """Raise now the error ``_atomic_write`` would raise for ``path`` when
    its directory is missing or not writable, or ``path`` is a directory.
    Sweeps check their outputs before they run."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _load_vector(path: str, line: int) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [ln for ln in fh.read().splitlines() if ln.strip()]
    except OSError as exc:
        raise ValueError(f"--input: {exc}")
    except UnicodeDecodeError:
        raise ValueError(f"--input {path}: not a UTF-8 text file")
    if not rows:
        raise ValueError(f"--input {path}: no vectors found")
    if line < 0:
        raise ValueError(f"--line {line}: must be >= 0")
    if line >= len(rows):
        raise ValueError(f"--line {line}: file has only {len(rows)} vector(s)")
    try:
        return np.array([float(v) for v in rows[line].split()])
    except ValueError:
        raise ValueError(f"--input {path} line {line}: entries must be real numbers")


def _config_line(args, keys) -> str:
    parts = [f"{k}={getattr(args, k)}" for k in keys if getattr(args, k, None) is not None]
    return "# config: " + " ".join(parts) + "\n"


def _apply_config_file(argv: list[str]) -> list[str]:
    """Splice key=value pairs from --config FILE in front of the explicit
    flags (explicit flags win because they are parsed later)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config: missing file path")
    path = argv[idx + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise ValueError(f"--config: {exc}")
    except UnicodeDecodeError:
        raise ValueError(f"--config {path}: not a UTF-8 text file")
    injected: list[str] = []
    for ln in lines:
        if "=" not in ln:
            raise ValueError(f"--config {path}: expected key=value, got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        injected.extend([f"--{key.replace('_', '-')}", value])
    rest = argv[:idx] + argv[idx + 2 :]
    return rest[:1] + injected + rest[1:]


def _add_op_flags(sp, need_m=True, rop=False):
    """Operator flags; with ``rop`` the rank-one probes join the families."""
    sp.add_argument("--family", required=True, choices=FAMILIES + ("rop",) if rop else FAMILIES)
    if need_m:
        sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=not rop, help="input dimension (vector families)" if rop else None)
    if rop:
        sp.add_argument("--n1", type=int, help="matrix rows (rop family)")
        sp.add_argument("--n2", type=int, help="matrix columns (rop family)")
        sp.add_argument("--kappa", type=float, help="rop pre-quantization rescaling (default 1)")
    sp.add_argument("--degree", type=int, help="expander left-degree")
    sp.add_argument("--rip", help="gaussian profile as 'p,q' (default 2,2)")
    sp.add_argument("--seed", type=int, default=0, help="operator seed (sweeps also key pairs and dithers by it)")


def _add_model_flags(sp):
    sp.add_argument("--model", required=True, help=" | ".join(_MODEL_GRAMMAR))
    sp.add_argument("--radius", type=float, default=1.0)


def _add_sweep_flags(sp):
    sp.add_argument("--mode", required=True, choices=tuple(_MODES))
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--grid", required=True, help="comma-separated distances")
    sp.add_argument("--pairs", type=int, default=8)
    sp.add_argument("--dithers", type=int, default=16)


@functools.lru_cache(maxsize=None)
def _make_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` and
    ``_apply_config_file`` leave it as built."""
    parser = _Parser(prog="qembed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("embed", help="vector file -> code file")
    _add_op_flags(sp, rop=True)
    sp.add_argument("--input", required=True, help="text file, one whitespace-separated vector per line")
    sp.add_argument("--line", type=int, default=0, help="vector line to embed (default 0)")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--dither-seed", type=int, default=0)
    sp.add_argument("--layout", choices=("single", "bidither"), default="single")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("distance", help="two code files -> estimate")
    sp.add_argument("codes", nargs=2)
    sp.add_argument("--mode", required=True, choices=tuple(_MODES))

    sp = sub.add_parser("riptest", help="empirical linear-map distortion")
    _add_op_flags(sp)
    _add_model_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--pairs", type=int, default=200)

    sp = sub.add_parser("qrip", help="distance-grid distortion sweep")
    _add_op_flags(sp)
    _add_model_flags(sp)
    _add_sweep_flags(sp)
    sp.add_argument("--out", required=True, help="records CSV path")
    sp.add_argument("--summary", help="summary CSV path (default <out>.summary.csv)")

    sp = sub.add_parser("decay", help="additive-residual decay across m")
    _add_op_flags(sp, need_m=False)
    _add_model_flags(sp)
    _add_sweep_flags(sp)
    sp.add_argument("--m-list", required=True, help="comma-separated embedding dimensions (>= 4)")
    sp.add_argument("--out", help="summary CSV path")

    sp = sub.add_parser("meanwidth", help="Monte Carlo Gaussian mean width")
    _add_model_flags(sp)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("entropy", help="covering-number log-bound")
    _add_model_flags(sp)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--q", type=float, default=2.0)

    sp = sub.add_parser("reqm", help="required embedding dimension")
    sp.add_argument("--prop", required=True, choices=("p1", "p2", "p3"))
    _add_model_flags(sp)
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
        raise ValueError(f"--grid: expected comma-separated reals, got {raw!r}")
    if not grid or any(g <= 0 for g in grid):
        raise ValueError("--grid: distances must be positive")
    return grid


def _cmd_embed(args) -> int:
    x = _load_vector(args.input, args.line)
    drng = stream(args.dither_seed, "cli:dither")
    cfg = QuantConfig(args.delta)
    op = _build_op(args, args.m)
    if x.size != op.n:
        shape = "--n1*--n2 =" if args.family == "rop" else "--n"
        raise ValueError(f"--input: vector length {x.size} does not match {shape} {op.n}")
    xi = np.column_stack([sample_dither(args.m, cfg, drng) for _ in range(_LAYOUT_COLS[args.layout])])
    block = embed(op, x, xi, cfg, dither_seed=args.dither_seed)
    _atomic_write(args.out, serialize(block))
    print(f"wrote {args.out}: layout={block.layout} m={block.m} delta={block.delta}")
    return 0


def _cmd_distance(args) -> int:
    blocks = []
    for path in args.codes:
        try:
            with open(path, "rb") as fh:
                blocks.append(deserialize(fh.read()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"codes file {path}: {exc}")
    print(format(estimate_distance(blocks[0], blocks[1], args.mode), ".12g"))
    return 0


def _cmd_riptest(args) -> int:
    op = _build_op(args, args.m)
    mset = parse_model(args.model, radius=args.radius)
    eps = estimate_rip(op, mset, args.p, args.q, args.pairs, stream(args.seed, "cli:riptest"))
    print(format(eps, ".12g"))
    return 0


def _sweep_config(args) -> tuple:
    """(model set, mode, quantizer config, grid) of a sweep, parsed
    before any operator is built."""
    mset = parse_model(args.model, radius=args.radius)
    grid = _parse_grid(args.grid)
    return mset, args.mode, QuantConfig(args.delta), grid


def _cmd_qrip(args) -> int:
    summary = args.summary or args.out + ".summary.csv"
    _check_writable(args.out)
    _check_writable(summary)
    config = _sweep_config(args)
    run = measure_qrip(_build_op(args, args.m), *config, args.pairs, args.dithers, seed=args.seed)
    keys = ("family", "m", "n", "model", "mode", "delta", "grid", "pairs", "dithers", "seed", "radius")
    header = _config_line(args, keys)
    _atomic_write(args.out, header + records_csv(run))
    _atomic_write(summary, header + summary_csv(run))
    print(f"eps_L_hat={format(run.fit.eps_L_hat, '.12g')} records={run.estimates.size} -> {args.out}")
    return 0


def _cmd_decay(args) -> int:
    try:
        m_list = sorted({int(v) for v in args.m_list.split(",") if v.strip()})
    except ValueError:
        raise ValueError(f"--m-list: expected comma-separated integers, got {args.m_list!r}")
    if len(m_list) < 4:
        raise ValueError(f"--m-list: need >= 4 distinct embedding dimensions, got {len(m_list)}")
    if args.out:
        _check_writable(args.out)
    config = _sweep_config(args)
    runs = measure_decay([_build_op(args, m) for m in m_list], *config, args.pairs, args.dithers, seed=args.seed)
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
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    passed = sum(bool(c["passed"]) for c in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 2


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
        argv = _apply_config_file(argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # -h/--help printed the usage text
            return 0
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

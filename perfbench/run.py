"""qembed benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep_circ,decay_l1,codes_mix} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  A run sets the
workload up (fresh import, inputs, operators, store, warm-up), then
drives the workload's closed loop for ``--seconds`` and checks every
output.  It times eight more set-ups in forked children, spread evenly
over the loop, and reports the median of all nine.  With ``--trace 0`` the last line
of standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` request cycles alternate between untraced and traced, and
the JSON holds the per-layer metrics.  Earlier lines
print provenance, input sizes and every metric with its unit and sample
count.  Details and spans go to ``perfbench/out/``.  The exit code is 0
only if every check passed and the checker self-test caught every
injected fault; otherwise it is 1, after the JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("cli", "embeddings", "linops", "modelsets", "quantizer", "rng", "verify")
FORKED_SETUPS = 8
COUNTED_N = 4096


def fresh_import() -> types.SimpleNamespace:
    """Import qembed from the checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "qembed" or n.startswith("qembed.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qembed")
    if Path(pkg.__file__).resolve().parent != SRC / "qembed":
        raise ImportError(f"qembed imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"qembed.{m}") for m in MODULES})


def setup_once(factory, seed: int, workdir: str):
    """One timed set-up: fresh import of qembed, inputs, operators, store, warm-up."""
    gc.collect()
    t0 = perf_counter()
    q = fresh_import()
    wl = factory(seed, workdir)
    wl.setup(q)
    return perf_counter() - t0, q, wl


def forked_setup(factory, seed: int, workdir: str) -> float:
    """Time one set-up in a forked child, so that its memory stays out of the parent's peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            os.write(wfd, repr(setup_once(factory, seed, workdir)[0]).encode())
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"forked set-up failed (wait status {status})")
    return float(text)


def run_loop(wl, seconds: float, tracer=None, between=None) -> list[dict]:
    """Drive whole request cycles until ``seconds`` of loop time have passed.

    Without a tracer this returns one result.  With one, cycles alternate
    between untraced and traced (odd cycles), so that both halves see the
    same machine conditions; it returns [untraced, traced].  Each result
    gets at least one cycle.  ``between(progress)`` runs after each cycle
    with the share of loop time used so far; its own time does not count
    as loop time.
    """
    results = [{"lat": {k: [] for k in wl.kinds}, "attempted": 0, "failed": 0, "problems": []}
               for _ in range(1 if tracer is None else 2)]
    start = perf_counter()
    paused = 0.0
    for k, cycle in enumerate(wl.cycles()):
        if k >= len(results) and perf_counter() - start - paused >= seconds:
            break
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.attach()
        try:
            _run_cycle(wl, cycle, results[traced], tracer if traced else None)
        finally:
            if traced:
                tracer.detach()
        if between is not None:
            t0 = perf_counter()
            between((t0 - start - paused) / seconds)
            paused += perf_counter() - t0
    return results


def _run_cycle(wl, cycle, res: dict, tracer) -> None:
    for kind, fn in cycle:
        res["attempted"] += 1
        try:
            t0 = perf_counter_ns()
            if tracer is None:
                out = fn()
            else:
                with tracer.request(res["attempted"]):
                    out = fn()
            t1 = perf_counter_ns()
        except Exception as exc:  # a failed request is counted, the loop goes on
            res["failed"] += 1
            res["problems"].append(f"{kind}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            continue
        res["lat"][kind].append(t1 - t0)
        if tracer is not None:
            tracer.enabled = False
        try:
            problems = wl.check(kind, out)
        except Exception as exc:  # a checker crash fails the request it checks
            problems = [f"{kind} check raised {exc!r}"]
        finally:
            if tracer is not None:
                tracer.enabled = True
        if problems:
            res["failed"] += 1
            res["problems"].extend(problems[:3])


def pct(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else float(values[0])


def end_to_end(wl, res: dict, setup_times: list[float], peak_rss_mb: float, attempted: int, failed: int):
    """Gated metrics {name: (value, unit)} and printed-only rows (name, value, unit, samples)."""
    lat = res["lat"]
    all_ns = [v for vals in lat.values() for v in vals]
    busy_s = sum(all_ns) * 1e-9
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(all_ns) / busy_s, "1/s"),
        "latency_ms_p50": (pct(lat[wl.primary], 50) * 1e-6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    rows = [("setup_s", gated["setup_s"][0], "s", len(setup_times)),
            ("requests_per_s", gated["requests_per_s"][0], "1/s", len(all_ns)),
            (f"latency_ms_p50 ({wl.primary})", gated["latency_ms_p50"][0], "ms", len(lat[wl.primary]))]
    if "sweep" in lat:
        rows.append(("records_per_s", wl.records_per_request() * len(lat["sweep"]) / busy_s, "1/s", len(lat["sweep"])))
        rows.append(("sweep_s_p50", pct(lat["sweep"], 50) * 1e-9, "s", len(lat["sweep"])))
    else:
        for kind, name, scale, unit in (("encode", "encode_us", 1e-3, "us"), ("query", "query_us", 1e-3, "us"),
                                        ("cli", "cli_roundtrip_ms", 1e-6, "ms")):
            for q in (50, 90):
                rows.append((f"{name}_p{q}", pct(lat[kind], q) * scale, unit, len(lat[kind])))
    rows.append(("peak_rss_mb", peak_rss_mb, "MiB", 1))
    rows.append(("failed_frac", failed / attempted, "ratio", attempted))
    return gated, rows


def counted_transforms(q, seed: int) -> tuple[dict, list[str], float]:
    """Exact test_04 op counts at n=4096 (counts, not speeds)."""
    import numpy as np

    from workloads import bench_rng

    out, absent = {}, []
    budget = 3 * COUNTED_N * math.log2(COUNTED_N)
    x = bench_rng(seed, "counted:x").standard_normal(COUNTED_N)
    g = bench_rng(seed, "counted:g").standard_normal(COUNTED_N)
    fwht_counted = getattr(q.linops, "fwht_counted", None)
    conv_counted = getattr(q.linops, "circular_convolve_counted", None)
    out["linops.hadamard_ops"] = (fwht_counted(x)[1], "count") if fwht_counted else (0, "count")
    out["linops.convolution_ops"] = (conv_counted(np.fft.fft(g), x)[1], "count") if conv_counted else (0, "count")
    for fn, name in ((fwht_counted, "linops.fwht_counted"), (conv_counted, "linops.circular_convolve_counted")):
        if fn is None:
            absent.append(name)
    return out, absent, budget


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unavailable"


def _blas_threads() -> str:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unavailable")


def provenance(args, qemb_threads) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qembed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "QEMB_THREADS": qemb_threads if qemb_threads is not None else "unset",
        "load": "closed loop, 1 client, 1 process, 1 BLAS thread",
    }


def _print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, n in rows:
        print(f"  {name:<36} {value:>16.6g} {unit:<10} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qembed" / "__init__.py").is_file():
        print(f"error: no qembed package under {SRC}", file=sys.stderr)
        return 2
    # One client on one core: sweeps run with one worker (QEMB_THREADS
    # unset) and BLAS with one thread, so that busy-waiting BLAS threads do
    # not compete with the client for the second core.  Set before numpy
    # is imported.
    qemb_threads = os.environ.pop("QEMB_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workloads, spans, str(workdir), qemb_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, spans, workdir: str, qemb_threads) -> int:
    factory = workloads.WORKLOADS[args.workload]
    elapsed, q, wl = setup_once(factory, args.seed, workdir)
    setup_times = [elapsed]
    # Machine speed drifts over seconds on a shared host, so set-ups
    # made back to back would sample one moment of it.  The forked ones
    # are spread over the loop and use a directory of their own.
    setup_dir = os.path.join(workdir, "setup")
    os.mkdir(setup_dir)

    def spread_setups(progress: float) -> None:
        due = min(FORKED_SETUPS, math.floor(FORKED_SETUPS * progress) + 1)
        while len(setup_times) - 1 < due:
            setup_times.append(forked_setup(factory, args.seed, setup_dir))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.prepare(vars(q))
    phases = run_loop(wl, args.seconds, tracer, between=spread_setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spread_setups(1.0)
    res = phases[0]

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [msg for p in phases for msg in p["problems"]]
    for sweep_problems in wl.final_check():
        if sweep_problems:
            failed += 1
            problems.extend(sweep_problems[:3])
    injections = wl.inject_faults()
    correct = failed == 0 and all(injections.values())

    prov = provenance(args, qemb_threads)
    gated, rows = end_to_end(wl, res, setup_times, peak_rss_mb, attempted, failed)
    print(f"# qembed benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    print("input sizes " + json.dumps(wl.sizes()))
    _print_rows("end-to-end (untraced" + (" cycles of a traced run)" if tracer else ")"), rows)
    print("checker self-test (an injected fault must fail its check): "
          + ", ".join(f"{k}={'caught' if v else 'MISSED'}" for k, v in injections.items()))
    for msg in problems[:20]:
        print("  problem: " + msg)

    result = {"provenance": prov, "sizes": wl.sizes(), "setup_times_s": setup_times,
              "end_to_end": {r[0]: {"value": r[1], "unit": r[2], "samples": r[3]} for r in rows},
              "injections": injections, "problems": problems, "attempted": attempted, "failed": failed}
    metrics = gated
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, untraced_request_s=1.0 / gated["requests_per_s"][0])
        requests = metrics["trace.requests"][0]
        ops, absent, budget = counted_transforms(q, args.seed)
        metrics.update(ops)
        absent += tracer.absent
        parts = sum(metrics[name][0] for name in spans.SELF_TIME_METRICS)
        wall = metrics["trace.request_s"][0]
        _print_rows(f"per-layer (traced, per request over {requests} requests; *_s are self times)",
                    [(k, v, u, requests) for k, (v, u) in sorted(metrics.items())])
        print(f"  linops.matvec_bytes_computed is computed from operator, input and output array sizes, not measured")
        print(f"  counted transforms at n={COUNTED_N}: hadamard {metrics['linops.hadamard_ops'][0]}, "
              f"convolution {metrics['linops.convolution_ops'][0]}, budget 3 n log2 n = {budget:g}")
        print(f"  layer self times + bench.self_s = {parts:.6g} s/req of traced wall {wall:.6g} s/req "
              f"(residual {parts - wall:.3g})")
        print("  absent wrapped names: " + (", ".join(absent) if absent else "none"))
        if not math.isclose(parts, wall, rel_tol=1e-9, abs_tol=1e-12):
            correct = False
            print("  problem: layer self times do not add up to the traced wall time")
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.dump(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        result.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, absent=absent)

    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

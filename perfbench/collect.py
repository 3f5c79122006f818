"""Repeat benchmark runs and summarize them as one BENCH file.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --label LABEL [--seeds 1-10] [--traced-seed 1]

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once per seed, one run at
a time, with the ``run_seconds`` of ``BENCHMARK.json``, and reports for
each end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and their spread as a share of the median next to the metric's
bound.  ``--traced-seed`` adds one traced run per workload for the
per-layer metrics.  The summary goes to
``perfbench/results/BENCH_<label>.json``; if any run fails or reports
``"correct": false``, nothing is written and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:  # run.py exits 1 when a check fails
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(ln[len("provenance "):]) for ln in lines if ln.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med, "bound": bound, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seed", type=int, help="also make one traced run per workload with this seed")
    args = ap.parse_args(argv)
    try:
        report = collect(args)
    except RuntimeError as exc:
        print(f"error: {exc}\nno BENCH file written", file=sys.stderr)
        return 1
    out = ROOT / "perfbench" / "results" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def collect(args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"label": args.label, "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs, prov = [], None
        for seed in seeds:
            result, prov = run_once(bench, name, seed, 0)
            runs.append(result)
            print(f"{name} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "provenance": {k: v for k, v in prov.items() if k != "seed"},
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: dict(summarize([r["metrics"][metric]["value"] for r in runs], bounds[metric]),
                             unit=runs[0]["metrics"][metric]["unit"])
                for metric in bounds
            },
        }
        for metric, s in entry["end_to_end"].items():
            print(f"  {name} {metric}: median {s['median']:.6g} {s['unit']}, "
                  f"IQR/median {s['iqr_frac']:.4f} (bound {s['bound']})", flush=True)
        if args.traced_seed is not None:
            traced, _ = run_once(bench, name, args.traced_seed, 1)
            entry["per_layer"] = {"seed": args.traced_seed, "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
        report["workloads"][name] = entry
    return report


if __name__ == "__main__":
    sys.exit(main())

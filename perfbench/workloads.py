"""The benchmark's workloads.

Each workload is a closed loop with one client in one process: the next
request starts only after the previous one has returned.  A workload
hands out requests in cycles of fixed composition, checks each output
right after its request (untimed), and may keep outputs for checks that
run after the measured loop.

Workloads (why each was chosen):

* ``sweep_circ`` -- ``qembed qrip`` at the circ acceptance config.  Large
  arrays: a 64 MiB cached Gaussian operator but only 60 matvecs per
  sweep; dither draws, (m, 2) quantization and the circ estimator do most
  of the work.
* ``decay_l1`` -- ``qembed decay`` over seven embedding dimensions.  Many
  small calls: keyed-stream creation, per-call dither validation, one
  record object per trial, the record fit, and seven operator builds
  per sweep.
* ``codes_mix`` -- encodes, queries and CLI round trips over a store of
  serialized code blocks, in the ratio of an insert-then-search usage
  (see ``CodesMix``).  Operators dominate encodes, serialization and the
  integer estimators dominate queries; the sweep kernels are bypassed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import zlib

import numpy as np

import checks


def bench_rng(seed: int, label: str) -> np.random.Generator:
    """The benchmark's own input stream; qembed only sees what it draws."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))


def _fmt_grid(grid) -> str:
    return ",".join(format(g, "g") for g in grid)


class SweepWorkload:
    """One request is one in-process CLI sweep with its own ``--seed``."""

    kinds = ("sweep",)
    primary = "sweep"
    injections = ("summary_row",)
    deep_checks = 8

    def __init__(self, seed: int, workdir: str, config: dict):
        self.seed = seed
        self.workdir = workdir
        self.cfg = config
        self.deep: list[dict] = []  # per sweep, what its deep check needs
        self.last: dict | None = None  # the last good sweep, target of the self-test

    def setup(self, q) -> None:
        self.q = q
        self.rng = bench_rng(self.seed, self.name)
        self._run(int(self.rng.integers(1, 2**31)), warmup=True)

    def _cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.q.cli.main(argv)
        return rc, buf.getvalue()

    def cycles(self):
        while True:
            yield [("sweep", functools.partial(self._run, int(self.rng.integers(1, 2**31))))]

    def check(self, kind: str, out: dict) -> list[str]:
        """Structural and summary checks now (the next sweep overwrites the CSVs).

        Only the small part of the output that a deep check needs is kept,
        so that the checker adds little to ``peak_rss_mb``.
        """
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        for key, path in out["paths"].items():
            with open(path) as fh:
                out[key] = fh.read()
        problems, deep = self._check_sweep(out)
        if deep is None:
            return problems
        self.deep.append(deep)
        if not problems:
            self.last = out
        return problems

    def final_check(self) -> list[list[str]]:
        """Problems per deep-checked sweep, after the measured loop.

        A seeded sample of ``deep_checks`` sweeps gets records recomputed.
        The k-th deep check has rank k, which spreads decay checks over all m.
        """
        n = len(self.deep)
        picked = bench_rng(self.seed, "check:deep").choice(n, min(n, self.deep_checks), replace=False)
        return [self._deep_check(self.deep[int(i)], rank) for rank, i in enumerate(sorted(picked))]

    def inject_faults(self) -> dict[str, bool]:
        """Each injected fault must make the last good sweep's checks fail."""
        if self.last is None:
            return {name: False for name in self.injections}
        caught = {}
        for name in self.injections:
            problems, deep = self._check_sweep(self.last, inject=name)
            caught[name] = bool(problems) or bool(self._deep_check(deep, 0, inject=name))
        return caught

    def _reference(self, seed: int, m: int):
        c, q = self.cfg, self.q
        opts = {"rip": c["rip"]} if c.get("rip") else {}
        op = q.linops.build(c["family"], m, c["n"], seed=seed, **opts)
        mset = q.cli.parse_model(c["model"], radius=c["radius"])
        return checks.RecordReference(q, op, mset, c["delta"], c["mode"], c["grid"], seed)

    def _common_argv(self, seed: int, warmup: bool) -> list[str]:
        c = dict(self.cfg, **self.cfg["warmup"]) if warmup else self.cfg
        argv = ["--family", c["family"], "--n", str(c["n"]), "--model", c["model"],
                "--radius", format(c["radius"], "g"), "--mode", c["mode"], "--delta", format(c["delta"], "g"),
                "--grid", _fmt_grid(c["grid"]), "--pairs", str(c["pairs"]), "--dithers", str(c["dithers"]),
                "--seed", str(seed)]
        if c.get("rip"):
            argv += ["--rip", ",".join(map(str, c["rip"]))]
        return argv


class QripSweep(SweepWorkload):
    name = "sweep_circ"
    injections = ("record_est_1ulp", "summary_row")
    records_sampled = 6

    def _run(self, seed: int, warmup: bool = False) -> dict:
        c = self.cfg
        records = os.path.join(self.workdir, "records.csv")
        summary = os.path.join(self.workdir, "summary.csv")
        m = c["warmup"]["m"] if warmup else c["m"]
        argv = ["qrip"] + self._common_argv(seed, warmup) + ["--m", str(m), "--out", records, "--summary", summary]
        rc, stdout = self._cli(argv)
        return {"seed": seed, "rc": rc, "stdout": stdout,
                "paths": {"records_text": records, "summary_text": summary}}

    def records_per_request(self) -> int:
        c = self.cfg
        return c["pairs"] * c["dithers"] * len(c["grid"])

    def _check_sweep(self, out: dict, inject: str | None = None) -> tuple[list[str], dict | None]:
        """Structural and summary problems, and the deep-check payload: a seeded sample of records."""
        c = self.cfg
        try:
            records = checks.parse_records(out["records_text"])
            summary = checks.parse_summary(out["summary_text"])
        except ValueError as exc:
            return [str(exc)], None
        problems = []
        if len(records) != self.records_per_request():
            problems.append(f"{len(records)} records, expected {self.records_per_request()}")
        fixed = {(r[0], r[1], r[2], r[8]) for r in records}
        if fixed != {(c["m"], c["delta"], c["mode"], out["seed"])}:
            problems.append(f"record m/delta/mode/seed fields {sorted(fixed)[:3]}")
        if inject == "summary_row":
            summary[1][4] += 1e-6 * summary[1][3] ** checks.exponent(c["mode"])
        tuples = [(r[3], r[4], r[5], r[6]) for r in records]
        problems += checks.summary_mismatches(checks.summary_from_records(tuples, c["grid"], c["mode"]),
                                              summary, c["mode"])
        eps_text = out["summary_text"].splitlines()[2].split(",")[2]
        if not out["stdout"].startswith(f"eps_L_hat={eps_text} records={len(records)} "):
            problems.append(f"stdout {out['stdout']!r} disagrees with the summary")
        n = min(len(records), self.records_sampled)
        pick = bench_rng(out["seed"], "check:records").choice(len(records), n, replace=False)
        return problems, {"seed": out["seed"], "rows": [list(records[idx]) for idx in sorted(pick)]}

    def _deep_check(self, deep: dict, rank: int, inject: str | None = None) -> list[str]:
        """Recompute the sampled records from public functions."""
        c = self.cfg
        problems = []
        ref = self._reference(deep["seed"], c["m"])
        grid_index = {g: i for i, g in enumerate(sorted(c["grid"]))}
        for k, row in enumerate(deep["rows"]):
            if inject == "record_est_1ulp" and k == 0:
                row = row[:4] + [np.nextafter(row[4], np.inf)] + row[5:]
            want = ref.record(row[6], row[7], grid_index[row[3]])
            bad = checks.record_mismatch(row, want)
            if bad:
                problems.append(bad)
        return problems

    def sizes(self) -> dict:
        c = self.cfg
        return {"family": c["family"], "m": c["m"], "n": c["n"], "model": c["model"], "mode": c["mode"],
                "delta": c["delta"], "grid": c["grid"], "pairs_x_dithers": f"{c['pairs']}x{c['dithers']}",
                "records_per_sweep": self.records_per_request(),
                "code_block_bytes": c["m"] * 2 * 8, "code_block_note": "in-memory int64 (m, 2) codes per trial"}


class DecaySweep(SweepWorkload):
    name = "decay_l1"

    def _run(self, seed: int, warmup: bool = False) -> dict:
        c = self.cfg
        summary = os.path.join(self.workdir, "decay.csv")
        m_list = c["warmup"]["m_list"] if warmup else c["m_list"]
        argv = ["decay"] + self._common_argv(seed, warmup) + ["--m-list", ",".join(map(str, m_list)), "--out", summary]
        rc, stdout = self._cli(argv)
        return {"seed": seed, "rc": rc, "stdout": stdout, "paths": {"summary_text": summary}}

    def records_per_request(self) -> int:
        c = self.cfg
        return c["pairs"] * c["dithers"] * len(c["grid"]) * len(c["m_list"])

    def _check_sweep(self, out: dict, inject: str | None = None) -> tuple[list[str], dict | None]:
        """Row and slope problems, and the deep-check payload: the summary rows."""
        c = self.cfg
        grid = sorted(c["grid"])
        try:
            rows = checks.parse_summary(out["summary_text"])
        except ValueError as exc:
            return [str(exc)], None
        ms = sorted(c["m_list"])
        if [r[0] for r in rows] != [m for m in ms for _ in grid]:
            return [f"summary rows cover m={[r[0] for r in rows]}, expected {ms} x {len(grid)}"], None
        if inject == "summary_row":
            rows[1][4] += 1e-6 * rows[1][3] ** checks.exponent(c["mode"])
        problems = []
        medians = [float(np.median([r[4] for r in rows if r[0] == m])) for m in ms]
        slope = float(np.polyfit(np.log(ms), np.log(medians), 1)[0])
        printed = float(out["stdout"].strip())
        if abs(printed - slope) > 1e-6 * max(1.0, abs(slope)):
            problems.append(f"printed slope {printed} != {slope} from the summary")
        return problems, {"seed": out["seed"], "rows": rows}

    def _deep_check(self, deep: dict, rank: int, inject: str | None = None) -> list[str]:
        """Recompute every record of one m and its summary rows.

        An injected fault sits in the rows of the smallest m, so those are
        checked then.
        """
        c = self.cfg
        grid, ms, rows = sorted(c["grid"]), sorted(c["m_list"]), deep["rows"]
        m = ms[0] if inject else ms[(rank + self.seed) % len(ms)]
        ref = self._reference(deep["seed"], m)
        recs = []
        for si, s in enumerate(grid):
            for pid in range(c["pairs"]):
                for t in range(c["dithers"]):
                    est, rel = ref.record(pid, t, si)
                    recs.append((s, est, rel, pid))
        expected = checks.summary_from_records(recs, grid, c["mode"])
        return checks.summary_mismatches(expected, [r for r in rows if r[0] == m], c["mode"])

    def sizes(self) -> dict:
        c = self.cfg
        return {"family": c["family"], "rip": c["rip"], "m_list": c["m_list"], "n": c["n"], "model": c["model"],
                "mode": c["mode"], "delta": c["delta"], "grid": c["grid"],
                "pairs_x_dithers": f"{c['pairs']}x{c['dithers']}", "records_per_sweep": self.records_per_request(),
                "operator_builds_per_sweep": len(c["m_list"]),
                "code_block_bytes": [m * 8 for m in c["m_list"]],
                "code_block_note": "in-memory int64 (m, 1) codes per trial"}


class CodesMix:
    """Encodes, queries and CLI round trips against a ring store of code blocks.

    Usage model: insert then search.  A collection is a ring of ``slots``
    blocks that share one operator and one dither.  Each new vector is
    encoded into the oldest slot of its collection and then compared with
    every other block there, so each encode brings ``slots - 1`` queries.
    One cycle inserts one vector into every collection, in a seeded order,
    and adds one CLI round trip: the CLI share is a fixed, arbitrary
    "small share", one per ``len(collections)`` encodes.
    """

    name = "codes_mix"
    kinds = ("encode", "query", "cli")
    primary = "query"
    injections = ("stored_code_flip",)
    families = ("gaussian", "bernoulli", "subsampled_hadamard", "random_convolution", "expander", "rop")
    m, n, rop_shape, delta = 1024, 4096, (64, 64), 0.5
    slots = 8
    cli_family = "subsampled_hadamard"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, q) -> None:
        self.q = q
        rng = self.rng = bench_rng(self.seed, self.name)
        self.qcfg = q.quantizer.QuantConfig(self.delta)
        self.ops = {}
        for fam in self.families:
            seed = int(rng.integers(1, 2**31))
            if fam == "rop":
                self.ops[fam] = q.linops.build_rop(self.m, *self.rop_shape, seed=seed)
            else:
                opts = {"degree": 8} if fam == "expander" else {}
                self.ops[fam] = q.linops.build(fam, self.m, self.n, seed=seed, **opts)
        self.inputs = rng.standard_normal((16, self.n))
        # a collection holds blocks that share one operator and one dither
        self.collections = []
        for fam in self.families:
            for layout in (("single",) if fam == "rop" else ("single", "bidither")):
                cols = 2 if layout == "bidither" else 1
                dither = rng.uniform(0.0, self.delta, size=(self.m, cols) if cols == 2 else self.m)
                self.collections.append({"family": fam, "layout": layout, "dither": dither,
                                         "store": [b""] * self.slots, "refs": [None] * self.slots, "next": 0})
        for coll in self.collections:
            for _ in range(self.slots):
                self._remember(self._encode(coll, int(rng.integers(len(self.inputs)))))
        self.cli_dir = os.path.join(self.workdir, "cli")
        os.makedirs(self.cli_dir, exist_ok=True)
        self.vector_file = os.path.join(self.cli_dir, "vectors.txt")
        with open(self.vector_file, "w") as fh:
            for x in self.inputs[:2]:
                fh.write(" ".join(format(v, ".17g") for v in x) + "\n")
        self.cli_seeds = (int(rng.integers(1, 2**31)), int(rng.integers(1, 2**31)))
        self.cli_turn = 0
        for kind, fn in next(self.cycles()):
            out = fn()
            if kind == "encode":
                self._remember(out)

    # --- requests -------------------------------------------------------

    def _encode(self, coll: dict, xi: int) -> dict:
        E, op = self.q.embeddings, self.ops[coll["family"]]
        if coll["family"] == "rop":
            blk = E.embed_rop(op, self.inputs[xi].reshape(self.rop_shape), coll["dither"], self.qcfg)
        elif coll["layout"] == "bidither":
            blk = E.embed_bidither(op, self.inputs[xi], coll["dither"], self.qcfg)
        else:
            blk = E.embed(op, self.inputs[xi], coll["dither"], self.qcfg)
        data = E.serialize(blk)
        slot = coll["next"]
        coll["store"][slot] = data
        coll["next"] = (slot + 1) % self.slots
        return {"coll": coll, "slot": slot, "block": blk, "data": data}

    def _query(self, coll: dict, i: int, j: int, mode: str) -> dict:
        E = self.q.embeddings
        a = E.deserialize(coll["store"][i])
        b = E.deserialize(coll["store"][j])
        return {"coll": coll, "i": i, "j": j, "mode": mode, "a": a, "b": b,
                "est": E.estimate_distance(a, b, mode)}

    def _cli_roundtrip(self, layout: str) -> dict:
        paths = [os.path.join(self.cli_dir, f"c{k}.qemb") for k in range(2)]
        buf = io.StringIO()
        rcs = []
        with contextlib.redirect_stdout(buf):
            for line, path in enumerate(paths):
                rcs.append(self.q.cli.main([
                    "embed", "--family", self.cli_family, "--m", str(self.m), "--n", str(self.n),
                    "--input", self.vector_file, "--line", str(line), "--delta", format(self.delta, "g"),
                    "--seed", str(self.cli_seeds[0]), "--dither-seed", str(self.cli_seeds[1]),
                    "--layout", layout, "--out", path]))
            mode = "circ" if layout == "bidither" else "l1"
            rcs.append(self.q.cli.main(["distance", *paths, "--mode", mode]))
        return {"rcs": rcs, "stdout": buf.getvalue(), "paths": paths, "mode": mode}

    def cycles(self):
        """Each cycle is built after the previous one has run, so ``next`` is the slot its encode fills."""
        rng = self.rng
        while True:
            reqs = []
            for c in rng.permutation(len(self.collections)):
                coll = self.collections[int(c)]
                slot = coll["next"]
                reqs.append(("encode", functools.partial(self._encode, coll, int(rng.integers(len(self.inputs))))))
                for j in range(self.slots):
                    if j != slot:
                        mode = "circ" if coll["layout"] == "bidither" else ("l1", "l2sq")[int(rng.integers(2))]
                        reqs.append(("query", functools.partial(self._query, coll, slot, j, mode)))
            layout = ("single", "bidither")[self.cli_turn % 2]
            self.cli_turn += 1
            reqs.insert(int(rng.integers(len(reqs) + 1)), ("cli", functools.partial(self._cli_roundtrip, layout)))
            yield reqs

    # --- checks ---------------------------------------------------------

    @staticmethod
    def _remember(out: dict) -> None:
        """Keep a copy of the codes of a newly stored block, the reference for its queries.

        The copy is a compact array so that the checker adds little to
        ``peak_rss_mb``; checks turn it into Python ints.
        """
        out["coll"]["refs"][out["slot"]] = np.array(out["block"].codes, dtype=np.int64, copy=True)

    @staticmethod
    def _columns(codes) -> list[list[int]]:
        return [codes[:, c].tolist() for c in range(codes.shape[1])]

    def check(self, kind: str, out: dict) -> list[str]:
        E = self.q.embeddings
        if kind == "encode":
            blk, coll = out["block"], out["coll"]
            self._remember(out)
            if E.deserialize(out["data"]) != blk:
                return [f"{coll['family']}/{coll['layout']} block does not survive serialize/deserialize"]
            return []
        if kind == "query":
            coll = out["coll"]
            refs = {slot: self._columns(coll["refs"][slot]) for slot in (out["i"], out["j"])}
            problems = []
            for blk, slot in ((out["a"], out["i"]), (out["b"], out["j"])):
                if self._columns(blk.codes) != refs[slot]:
                    problems.append(f"{coll['family']}/{coll['layout']} slot {slot}: stored codes changed")
            want = checks.reference_estimate(out["mode"], refs[out["i"]], refs[out["j"]], self.delta, self.m)
            if out["est"] != want:
                problems.append(f"{coll['family']} {out['mode']} estimate {out['est']!r} != reference {want!r}")
            return problems
        problems = [f"CLI exit code {rc}" for rc in out["rcs"] if rc != 0]
        if problems:
            return problems
        blocks = []
        for path in out["paths"]:
            with open(path, "rb") as fh:
                blocks.append(E.deserialize(fh.read()))
        lib = E.estimate_distance(blocks[0], blocks[1], out["mode"])
        cols = [self._columns(b.codes) for b in blocks]
        ref = checks.reference_estimate(out["mode"], cols[0], cols[1], self.delta, self.m)
        printed = out["stdout"].strip().splitlines()[-1]
        if printed != format(lib, ".12g") or lib != ref:
            problems.append(f"CLI distance {printed} vs library {lib!r} vs reference {ref!r}")
        return problems

    def final_check(self) -> list[list[str]]:
        return []

    def inject_faults(self) -> dict[str, bool]:
        coll = self.collections[0]
        saved = coll["store"][0]
        corrupted = bytearray(saved)
        corrupted[self.q.embeddings.HEADER_SIZE] ^= 1
        coll["store"][0] = bytes(corrupted)
        try:
            caught = bool(self.check("query", self._query(coll, 0, 1, "l1")))
        finally:
            coll["store"][0] = saved
        return {"stored_code_flip": caught}

    def sizes(self) -> dict:
        per_layout = {}
        for coll in self.collections:
            per_layout.setdefault(coll["layout"], []).extend(len(b) for b in coll["store"])
        return {"families": list(self.families), "m": self.m, "n": self.n, "rop_shape": list(self.rop_shape),
                "expander_degree": 8, "delta": self.delta, "store_slots": f"{len(self.collections)}x{self.slots}",
                "cycle": f"{len(self.collections)} encodes, each followed by {self.slots - 1} queries against"
                         f" its collection, + 1 CLI round trip ({self.cli_family})",
                "code_block_bytes_mean": {k: sum(v) / len(v) for k, v in per_layout.items()}}


CIRC = {"family": "gaussian", "rip": None, "m": 32768, "n": 256, "model": "sparse:4:256",
        "radius": 20.0, "mode": "circ", "delta": 1.0, "grid": [0.05, 0.2, 1.0, 5.0, 10.0], "pairs": 6, "dithers": 96,
        "warmup": {"m": 512, "pairs": 2, "dithers": 4}}
DECAY = {"family": "gaussian", "rip": (1, 2), "n": 256, "model": "sparse:4:256", "radius": 20.0, "mode": "l1",
         "delta": 1.0, "grid": [0.05, 0.2, 1.0, 5.0, 10.0], "m_list": [128, 256, 512, 1024, 2048, 4096, 8192],
         "pairs": 8, "dithers": 16, "warmup": {"m_list": [64, 128, 256, 512], "pairs": 2, "dithers": 4}}

WORKLOADS = {
    "sweep_circ": lambda seed, workdir: QripSweep(seed, workdir, CIRC),
    "decay_l1": lambda seed, workdir: DecaySweep(seed, workdir, DECAY),
    "codes_mix": lambda seed, workdir: CodesMix(seed, workdir),
}

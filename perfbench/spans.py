"""In-memory span tracer and the per-layer metrics derived from it.

The traced run wraps qembed entry points under the name each caller
looks them up by (a module global such as ``verify.sample_dither``, or a
class attribute such as ``LinOp.matvec``), so ``src/`` stays untouched.
Every call through a wrapper records one span: name, start, end, parent
span and request id.  Spans stay in memory until the run ends; self
times (a span's duration minus the part its child spans cover) are
derived from them afterwards.

A wrapped name that no longer exists is listed in ``Tracer.absent`` and
its metrics read 0; it is not an error.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

REQUEST = "bench.request"
MATVEC = "linops.matvec:"
FAMILIES = ("gaussian", "bernoulli", "subsampled_hadamard", "random_convolution", "expander", "rop")


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _count_matvec(counts, args, result):
    op, x = args[0], args[1]
    counts["linops.matvec_bytes"] += _array_bytes(op) + np.asarray(x).nbytes + result.nbytes


def _count_dither(counts, args, result):
    counts["quantizer.dither_values"] += result.size


def _count_quantize(counts, args, result):
    counts["embeddings.quantize_values"] += result.size


def _count_serialize(counts, args, result):
    counts["embeddings.code_bytes"] += len(result)
    counts["embeddings.code_values"] += args[0].codes.size


def _count_records(counts, args, result):
    counts["verify.records"] += len(result.records)


def _count_written(counts, args, result):
    data = args[1]
    counts["cli.bytes_written"] += len(data) if isinstance(data, bytes) else len(data.encode())


def _matvec_name(args) -> str:
    return MATVEC + args[0].family


# (owner, attribute, span name, counter).  Owner is a qembed module name or
# "linops.LinOp"; the span name is a string or a function of the call's
# positional arguments.
WRAPS = [
    ("cli", "main", "cli.main", None),
    ("cli", "_atomic_write", "cli.write", _count_written),
    ("cli", "build", "linops.build", None),
    ("cli", "build_rop", "linops.build", None),
    ("verify", "build", "linops.build", None),
    ("linops.LinOp", "matvec", _matvec_name, _count_matvec),
    ("embeddings", "rop_apply", MATVEC + "rop", _count_matvec),
    ("verify", "sample_dither", "quantizer.dither", _count_dither),
    ("cli", "sample_dither", "quantizer.dither", _count_dither),
    ("embeddings", "quantize_with_dither", "embeddings.quantize", _count_quantize),
    ("verify", "quantize_with_dither", "embeddings.quantize", _count_quantize),
    ("embeddings", "_estimate_from_codes", "embeddings.estimate", None),
    ("verify", "_estimate_from_codes", "embeddings.estimate", None),
    ("embeddings", "estimate_distance", "embeddings.estimate_distance", None),
    ("cli", "estimate_distance", "embeddings.estimate_distance", None),
    ("embeddings", "embed", "embeddings.embed", None),
    ("embeddings", "embed_bidither", "embeddings.embed", None),
    ("embeddings", "embed_rop", "embeddings.embed", None),
    ("cli", "embed", "embeddings.embed", None),
    ("cli", "embed_bidither", "embeddings.embed", None),
    ("cli", "embed_rop", "embeddings.embed", None),
    ("embeddings", "serialize", "embeddings.serialize", _count_serialize),
    ("cli", "serialize", "embeddings.serialize", _count_serialize),
    ("embeddings", "deserialize", "embeddings.deserialize", None),
    ("cli", "deserialize", "embeddings.deserialize", None),
    ("verify", "sample_pair", "modelsets.sample_pair", None),
    ("linops", "stream", "rng.stream", None),
    ("verify", "stream", "rng.stream", None),
    ("cli", "stream", "rng.stream", None),
    ("cli", "measure_qrip", "verify.qrip", _count_records),
    ("cli", "fit_decay", "verify.fit_decay", None),
    ("cli", "records_csv", "verify.csv", None),
    ("cli", "summary_csv", "verify.csv", None),
]


class Tracer:
    """Records spans from wrappers that ``attach`` installs and ``detach`` removes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (span index, name id, parent index or -1, request id, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.enabled = True
        self._stack = [-1]
        self._next = 0
        self._request = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self) -> tuple[int, int]:
        idx = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _end(self, idx, nid, parent, t0) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans.append((idx, nid, parent, self._request, t0, t1))

    @contextmanager
    def request(self, rid: int):
        """Root span of one benchmark request; its self time is the benchmark's own."""
        nid = self.name_id(REQUEST)
        self._request = rid
        idx, parent = self._begin()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._end(idx, nid, parent, t0)

    def prepare(self, modules: dict) -> None:
        """Build a wrapper for every entry point in WRAPS that exists."""
        for owner_name, attr, name, count in WRAPS:
            owner = modules[owner_name.split(".")[0]]
            if "." in owner_name:
                owner = getattr(owner, owner_name.split(".")[1], None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{owner_name}.{attr}")
                continue
            self._patches.append((owner, attr, fn, self._wrap(fn, name, count)))

    def attach(self) -> None:
        for owner, attr, _fn, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        for owner, attr, fn, _wrapper in self._patches:
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, count):
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self.name_id(name(args))
            idx, parent = self._begin()
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, args, result)
                return result
            finally:
                self._end(idx, nid, parent, t0)

        return wrapper

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Per name: summed self time (ns) and call count; plus request wall ns."""
        dur = {}
        covered = defaultdict(int)
        for idx, _nid, parent, _rid, t0, t1 in self.spans:
            dur[idx] = t1 - t0
            if parent >= 0:
                covered[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        wall = 0
        for idx, nid, parent, _rid, t0, t1 in self.spans:
            name = self.names[nid]
            self_ns[name] += dur[idx] - covered[idx]
            calls[name] += 1
            if parent < 0:
                wall += dur[idx]
        return self_ns, calls, wall

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["index", "name", "parent", "request", "start_ns", "end_ns"],
                       "names": self.names, "spans": sorted(self.spans)}, fh)


# Layer self-time metrics; with bench.self_s they sum to trace.request_s.
SELF_TIME_METRICS = {
    "linops.build_s": ("linops.build",),
    "linops.matvec_s": tuple(MATVEC + f for f in FAMILIES),
    "quantizer.dither_s": ("quantizer.dither",),
    "embeddings.quantize_s": ("embeddings.quantize",),
    "embeddings.estimate_s": ("embeddings.estimate", "embeddings.estimate_distance"),
    "embeddings.embed_s": ("embeddings.embed",),
    "embeddings.serialize_s": ("embeddings.serialize",),
    "embeddings.deserialize_s": ("embeddings.deserialize",),
    "modelsets.sample_pair_s": ("modelsets.sample_pair",),
    "rng.stream_s": ("rng.stream",),
    "verify.qrip_self_s": ("verify.qrip",),
    "verify.csv_s": ("verify.csv",),
    "verify.fit_decay_s": ("verify.fit_decay",),
    "cli.self_s": ("cli.main", "cli.write"),
    "bench.self_s": (REQUEST,),
}


def layer_metrics(tracer: Tracer, untraced_request_s: float) -> dict:
    """Per-request layer metrics from the recorded spans.

    Returns {name: (value, unit)}.  Counts and times are per traced
    request so that runs of different length compare.
    """
    self_ns, calls, wall = tracer.self_times()
    c = tracer.counts
    per = 1.0 / max(calls.get(REQUEST, 0), 1)
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_ns.get(n, 0) for n in names) * 1e-9 * per, "s/req")
    matvec_calls = sum(calls.get(MATVEC + f, 0) for f in FAMILIES)
    out["linops.build_calls"] = (calls.get("linops.build", 0) * per, "count/req")
    out["linops.matvec_calls"] = (matvec_calls * per, "count/req")
    for f in FAMILIES:
        n = calls.get(MATVEC + f, 0)
        out[f"linops.matvec_us.{f}"] = (self_ns.get(MATVEC + f, 0) * 1e-3 / n if n else 0.0, "us")
    out["linops.matvec_bytes_computed"] = (c["linops.matvec_bytes"] * per, "B/req")
    out["quantizer.dither_calls"] = (calls.get("quantizer.dither", 0) * per, "count/req")
    out["quantizer.dither_values"] = (c["quantizer.dither_values"] * per, "count/req")
    out["embeddings.quantize_calls"] = (calls.get("embeddings.quantize", 0) * per, "count/req")
    out["embeddings.quantize_values"] = (c["embeddings.quantize_values"] * per, "count/req")
    out["embeddings.estimate_calls"] = (calls.get("embeddings.estimate", 0) * per, "count/req")
    values = c["embeddings.code_values"]
    out["embeddings.code_bytes_per_value"] = (c["embeddings.code_bytes"] / values if values else 0.0, "B")
    out["modelsets.sample_pair_calls"] = (calls.get("modelsets.sample_pair", 0) * per, "count/req")
    out["rng.stream_calls"] = (calls.get("rng.stream", 0) * per, "count/req")
    out["verify.records"] = (c["verify.records"] * per, "count/req")
    out["cli.calls"] = (calls.get("cli.main", 0) * per, "count/req")
    out["cli.bytes_written"] = (c["cli.bytes_written"] * per, "B/req")
    request_s = wall * 1e-9 * per
    out["trace.request_s"] = (request_s, "s/req")
    out["trace.overhead_frac"] = (request_s / untraced_request_s - 1.0, "ratio")
    out["trace.spans"] = (len(tracer.spans) * per, "count/req")
    out["trace.requests"] = (calls.get(REQUEST, 0), "count")
    return out

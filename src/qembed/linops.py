"""Measurement operator families behind one matvec interface.

Each operator carries its output/input dimensions, a declared scaling
``mu`` and norm pair ``rip_profile = (p, q)`` such that
``(mu**p / m) * ||op.matvec(u)||_p**p`` concentrates around ``||u||_q**p``
on the sets the family is built for.  ``matvec`` returns the raw family
action (unit-variance rows for the dense families, +-1 rows for the
subsampled Hadamard, 0/1 adjacency for the expander, kappa-scaled
rank-one probes of a flattened matrix for ``build_rop``); ``mu`` is
metadata consumed by the verification side.

The fast families run one transform each, ``fwht_counted`` (Hadamard)
and ``circular_convolve_counted`` (convolution); both return an
operation tally next to the result, so the O(n log n) cost is counted
on the code that ``matvec`` runs.

``matvecs(X)`` applies the operator to the k rows of X at once, bit for
bit the stacked ``matvec`` of each; only the dense families override the
stacked default.

Operators are immutable after build and matvec is reentrant.  A dense
family draws nothing when it is built.  Its row block b (64 rows) is
drawn from a stream keyed by (seed, family label, b), so any set of
rows can be drawn on its own.  ``matvec`` and ``dense`` keep the matrix
in a cache, in one anonymous mapping, built on first use where m * n
fits ``_DENSE_CACHE_MAX``.  A Gaussian cache holds float64 entries
(8 bytes each); a Bernoulli cache holds its +-1 entries as int8 (1
byte each) and a product widens it to float64 one slab at a time.
``matvecs`` on an operator without a cache streams the rows instead:
slabs of whole blocks, split over the usable cores, each thread drawing
into one reused slab, so a sweep holds no matrix.  The product has one
definition (``_blocked_product``): one GEMV per 64-row block, the last
block taking the 0..63-row remainder, with every input run against a
block while it is in cache.  A slab's float64 rows, drawn or widened,
are the rows a float64 cache holds, and the last slab holds that whole
last block, so the streamed, the widened and the cached product agree
bit for bit.  At one OpenBLAS thread each row has the bits of one GEMV
over all m rows, and at two the same bits.

Row sharing has one rule, applied by ``_products``, the measurement
pass of a sweep.  Two dense operators of one type, seed and n have the
same rows, however they were built, so the one at m is the first m rows
of the one at M >= m.  Its product reads the larger one's leading
columns where its blocks are blocks of that product, the same BLAS calls
on the same rows: where m == M, or where m is a multiple of 64 and ends
before the larger product's last block (``_last_block``).  Every other
operator makes its own ``matvecs`` call.  ``_map_threads`` is the one
thread map, of a streamed product's slabs and of a sweep's tasks.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .rng import _integer, _real, _stream_states, stream

__all__ = [
    "LinOp",
    "build",
    "RopOp",
    "build_rop",
    "fwht_counted",
    "circular_convolve_counted",
    "FAMILIES",
]

FAMILIES = (
    "gaussian",
    "bernoulli",
    "subsampled_hadamard",
    "random_convolution",
    "expander",
)

# Dense-cache ceiling in entries, whatever their width: 2**24 entries,
# 128 MiB as float64 (Gaussian) and 16 MiB as int8 (Bernoulli).  Larger
# dense families stream their rows per matvec from the same keyed
# generators.
_DENSE_CACHE_MAX = 1 << 24
# rows of a dense build's keyed row block, and of its product's block
_BLOCK_ROWS = 64
# float64 entries of a product's slab (512 KiB), rounded down to whole
# blocks and at least one: a streamed product's thread draws a slab, and
# a Bernoulli cache's product widens one, runs every input against it
# and reuses its buffer for the next.  2**16 against 2**18 (5 alternating
# 10 s perfbench pairs on a 2-core x86 machine): decay_l1 peak RSS 51.9 ->
# 49.0 MiB and sweep_circ 64.0 -> 63.1, throughput inside the noise
_SLAB_ENTRIES = 2**16
# float64 entries of a dense product's block-major scratch (64 KiB)
_PRODUCT_SCRATCH = 2**13
# int64 entries of one Bernoulli draw (256 KiB): a block is drawn in row
# chunks of this size, the same values as one draw of the whole block
_DRAW_ENTRIES = 2**15


def _row_buffer(rows: int, n: int, dtype=np.float64) -> np.ndarray:
    """A fresh (rows, n) buffer, float64 unless ``dtype`` says otherwise,
    for dense rows or a sweep's measurements to fill.

    The buffer is an anonymous mapping of its own, unmapped when the
    last array using it goes away.  From the malloc heap, caches of
    different sizes built one after another (a decay sweep builds
    m = 128 ... 8192) fragmented it, and peak RSS grew by about one
    cache.
    """
    size = rows * n * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(size, 8))  # a mapping cannot be empty
    return np.frombuffer(buf, dtype=dtype, count=rows * n).reshape(rows, n)


def _usable_cores() -> int:
    """The process's CPU affinity set where the platform reports it,
    else ``os.cpu_count()``: the thread count of a streamed product and
    of a sweep's pool."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _map_threads(fn, items, workers: int) -> list:
    """``[fn(i) for i in items]`` on ``workers`` threads, in the order of
    ``items``, inline below 2 workers.  numpy keeps the floating-point
    error state per thread, so each call runs under the caller's
    ``np.geterr()``."""
    items = list(items)
    if workers < 2:
        return [fn(i) for i in items]
    err = np.geterr()

    def call(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))


def _last_block(m: int) -> int:
    """The first row of ``_blocked_product``'s last block over m rows."""
    return _BLOCK_ROWS * max(0, (m - _BLOCK_ROWS) // _BLOCK_ROWS)


def _blocked_product(rows: np.ndarray, xs: np.ndarray, out: np.ndarray) -> None:
    """``out[j] = rows @ xs[j]`` for every input j, GEMVs over row blocks,
    every input run against a block while it is in cache.

    The blocks are the build's 64-row blocks, the last one taking the
    0..63-row remainder (all m rows when m < 64).  Each full block goes
    through the same GEMV for every caller, so an operator whose blocks
    are blocks of another one's reads that one's rows of the output
    (``_products``).  A slab of full blocks is one stacked
    ``matmul`` into a block-major scratch of at most
    ``_PRODUCT_SCRATCH`` entries: blocks outermost, so each block meets
    every input in turn, and one call per slab, so the GIL is released
    for the slab's whole BLAS work.
    """
    m, n = rows.shape
    k = xs.shape[0]
    # full blocks, up to the last one where that takes a remainder
    head = m if m % _BLOCK_ROWS == 0 else _last_block(m)
    full = head // _BLOCK_ROWS
    if head:
        blocks = rows[:head].reshape(full, 1, _BLOCK_ROWS, n)
        vecs = xs[None, :, :, None]
        per_slab = max(1, _PRODUCT_SCRATCH // (k * _BLOCK_ROWS))
        scratch = np.empty((min(per_slab, full), k, _BLOCK_ROWS, 1))
        dest = out[:, :head].reshape(k, full, _BLOCK_ROWS)
        for b0 in range(0, full, per_slab):
            b1 = min(b0 + per_slab, full)
            part = scratch[: b1 - b0]
            np.matmul(blocks[b0:b1], vecs, out=part)
            dest[:, b0:b1] = part[..., 0].transpose(1, 0, 2)
    # the last block goes in pieces of 8j rows, then one or two of 4-7
    # rows: a BLAS on two threads splits each piece at a 4-row group, as
    # it does a full block, so every row gets the GEMV kernel of a
    # one-thread product over all m rows
    a = head
    while a < m:
        left = m - a
        b = a + (left if left < 8 else 4 if left < 12 else (left - 4) // 8 * 8)
        np.matmul(rows[a:b], xs[:, :, None], out=out[:, a:b, None])
        a = b


def _slab_products(slabs, xs: np.ndarray, out: np.ndarray, fill, buf: np.ndarray) -> None:
    """``_blocked_product`` of each (first, stop) slab's rows into its
    columns of ``out``, ``fill(first, rows)`` writing the float64 rows
    into ``buf``, as long as the longest slab and reused for each, so
    its pages are faulted once."""
    for a, b in slabs:
        rows = buf[: b - a]
        fill(a, rows)
        _blocked_product(rows, xs, out[:, a:b])


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def fwht_counted(x: np.ndarray) -> tuple[np.ndarray, int]:
    """In-order fast Walsh-Hadamard transform with a tally of its operations.

    Implements H @ x for the Sylvester matrix H[i, j] = (-1)**popcount(i & j)
    and requires len(x) to be a power of two.  Each butterfly produces
    (a+b, a-b) and is tallied as two multiply-adds, n*log2(n) in total.
    This is the transform ``SubsampledHadamardOp.matvec`` runs.
    """
    y = np.array(x, dtype=float, copy=True)
    n = y.size
    if not _is_pow2(n):
        raise ValueError(f"transform length must be a power of two, got {n}")
    ops = 0
    h = 1
    while h < n:
        blk = y.reshape(-1, 2 * h)
        left = blk[:, :h].copy()
        right = blk[:, h:].copy()
        blk[:, :h] = left + right
        blk[:, h:] = left - right
        ops += 2 * (n // (2 * h)) * h
        h *= 2
    return y, ops


def circular_convolve_counted(kernel_spectrum: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Circular convolution by a real-FFT product, with an op tally.

    ``kernel_spectrum`` is the generator's transform, a build-time
    constant that is not tallied: its first n//2 + 1 entries are used,
    so ``np.fft.rfft(g)`` and ``np.fft.fft(g)`` both work.  This is the
    transform ``RandomConvolutionOp.matvec`` runs.  The tally charges
    each of the two real length-n transforms (n//2) * ceil(log2 n)
    multiply-adds, the radix-2 butterfly count (exact for powers of two;
    a convention for other n), plus n//2 + 1 spectrum products: about
    n*log2(n) + n/2 in total, within the 3*n*log2(n) budget.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    half = n // 2 + 1
    y = np.fft.irfft(kernel_spectrum[:half] * np.fft.rfft(x), n=n)
    return y, 2 * (n // 2) * (n - 1).bit_length() + half


class LinOp:
    """Family-built linear measurement operator.

    Attributes: family, m, n, mu, rip_profile (p, q), seed.  Subclasses
    implement _matvec and _dense; dense materialization is meant for
    testing at moderate n.
    """

    family: str = "abstract"

    def __init__(self, m: int, n: int, seed: int, mu: float, rip_profile: tuple[float, float]):
        m, n = _integer("m", m), _integer("n", n)
        if m < 1 or n < 1:
            raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.seed = _integer("seed", seed)
        self.mu = float(mu)
        self.rip_profile = (float(rip_profile[0]), float(rip_profile[1]))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matvec(self._input(x))

    def matvecs(self, xs) -> np.ndarray:
        """The (k, m) array whose row j is ``matvec(xs[j])``, bit for bit,
        for k >= 1 inputs of length n."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != self.n:
            raise ValueError(f"expected (k, {self.n}) inputs with k >= 1, got shape {xs.shape}")
        return self._matvecs(xs)

    def _matvecs(self, xs: np.ndarray) -> np.ndarray:
        return np.stack([self._matvec(x) for x in xs])

    def _input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected input of length {self.n}, got shape {x.shape}")
        return x

    def _matvec_bounded(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(y, err)``: a fast y with |y_k - matvec(x)_k| <= err_k per row.

        ``err`` None means y is ``matvec(x)`` itself, which is what this
        default returns; ``RopOp`` overrides it.  ``embeddings.embed`` is
        the caller.
        """
        return self.matvec(x), None

    def dense(self) -> np.ndarray:
        """Dense m-by-n materialization reproducing matvec exactly."""
        return self._dense()

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dense(self) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        p, q = self.rip_profile
        return (
            f"{type(self).__name__}(family={self.family!r}, m={self.m}, n={self.n}, "
            f"mu={self.mu:.6g}, profile=(l{p:g}, l{q:g}), seed={self.seed})"
        )


class _DenseIIDOp(LinOp):
    """Shared machinery for i.i.d.-entry families.

    The 64-row block starting at row b is drawn from the stream keyed
    by (seed, family-label, b), so matvec and dense materialization
    agree without ever storing the matrix.  Building one draws nothing.
    ``matvec`` and ``dense`` build the read-only cache on their first
    call where m * n fits ``_DENSE_CACHE_MAX`` (one thread builds it
    while others wait), so repeated encodes read it.  The cache holds
    ``_cache_dtype`` entries: float64 for Gaussian, int8 for Bernoulli's
    +-1, which a product widens to float64 one slab at a time on the
    calling thread (``_slab_products``).  ``matvecs`` on an operator
    without a cache streams the rows (``_streamed_product``) into a
    ``_row_buffer`` output; a sweep calls only ``matvecs``, so it never
    holds the matrix.  Each block is filled in place
    (``_fill_row_block``) into a view of one ``_row_buffer``; one
    ``_fill_rows`` call derives its block states in one batched pass
    (``rng._stream_states``) and draws them through the caller's
    generator, so matvec stays reentrant.  The block keys do not depend
    on m, so the first m rows are the operator at m (``_products``).
    """

    _row_label = "rows"
    _cache_dtype = np.float64

    def __init__(self, m, n, seed, mu, rip_profile):
        super().__init__(m, n, seed, mu, rip_profile)
        self._cache: np.ndarray | None = None
        self._cache_lock = threading.Lock()

    def _fill_row_block(self, rng: np.random.Generator, out: np.ndarray) -> None:
        raise NotImplementedError

    def _fill_rows(self, gen: np.random.Generator, first: int, out: np.ndarray) -> None:
        """Draw rows ``first`` .. ``first + len(out)`` into ``out``;
        ``first`` starts a block, and the rows end at a block's end or at m."""
        starts = np.arange(first, first + out.shape[0], _BLOCK_ROWS)
        states = _stream_states(self.seed, f"{self.family}:{self._row_label}", starts[:, None])
        for b0, state in zip(starts.tolist(), states):
            gen.bit_generator.state = state
            self._fill_row_block(gen, out[b0 - first : b0 - first + _BLOCK_ROWS])

    def _rows(self, start: int, stop: int, dtype=np.float64) -> np.ndarray:
        # one keyed stream per 64-row block keeps the layout reproducible
        # for any (start, stop) slicing.  These rows are drawn on one
        # thread: they are a cache or a test's slice, and a sweep's
        # streamed product (``_streamed_product``) draws its slabs on
        # every usable core
        blk = _BLOCK_ROWS
        first = (start // blk) * blk
        last = min(self.m, -(-stop // blk) * blk)
        full = _row_buffer(last - first, self.n, dtype)
        self._fill_rows(np.random.default_rng(0), first, full)
        return full[start - first : stop - first]

    def _cached(self) -> np.ndarray | None:
        """The cache, built on the first call where m * n fits
        ``_DENSE_CACHE_MAX``; None above the ceiling."""
        if self._cache is None and self.m * self.n <= _DENSE_CACHE_MAX:
            with self._cache_lock:
                if self._cache is None:
                    rows = self._rows(0, self.m, self._cache_dtype)
                    rows.setflags(write=False)
                    self._cache = rows
        return self._cache

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        self._cached()
        return self._matvecs(x[None])[0]

    def _matvecs(self, xs: np.ndarray) -> np.ndarray:
        cache = self._cache
        if cache is None:
            out = _row_buffer(xs.shape[0], self.m)
            self._streamed_product(xs, out)
            return out
        out = np.empty((xs.shape[0], self.m))
        if cache.dtype == np.float64:
            _blocked_product(cache, xs, out)
        else:
            # widened on the heap: malloc reuses the slab from call to
            # call, where a fresh mapping faulted its pages in every encode
            slabs = self._slabs()
            buf = np.empty((max(b - a for a, b in slabs), self.n))
            _slab_products(slabs, xs, out, lambda a, rows: np.copyto(rows, cache[a : a + len(rows)]), buf)
        return out

    def _slabs(self) -> list[tuple[int, int]]:
        """The (first, stop) rows of each slab of a product: whole 64-row
        blocks, ``_SLAB_ENTRIES`` float64 entries (at least one block),
        the last slab starting at or before the product's last block
        (``_last_block``) and running to m, so that block, 64 rows plus
        the remainder, goes through one call as it does over the whole
        matrix."""
        step = max(1, _SLAB_ENTRIES // (_BLOCK_ROWS * self.n)) * _BLOCK_ROWS
        starts = list(range(0, _last_block(self.m) + 1, step))
        return list(zip(starts, starts[1:] + [self.m]))

    def _streamed_product(self, xs: np.ndarray, out: np.ndarray) -> None:
        """``_blocked_product`` of the rows without holding them.

        Slab i (``_slabs``) goes to thread i mod t of the t usable cores
        (``_usable_cores``, capped at the slab count), each thread with
        one generator and one slab buffer (``_slab_products``).  Every
        block is a full one but the last, and keyed, so the bits depend
        on neither the slabs nor the threads (``_map_threads``).
        """
        slabs = self._slabs()
        threads = min(_usable_cores(), len(slabs))

        def run(part):
            gen = np.random.default_rng(0)
            buf = _row_buffer(max(b - a for a, b in part), self.n)
            _slab_products(part, xs, out, lambda a, rows: self._fill_rows(gen, a, rows), buf)

        _map_threads(run, [slabs[i::threads] for i in range(threads)], threads)

    def _dense(self) -> np.ndarray:
        cache = self._cached()
        if cache is None:
            return self._rows(0, self.m)
        if cache.dtype == np.float64:
            return cache
        rows = _row_buffer(self.m, self.n)
        np.copyto(rows, cache)
        rows.setflags(write=False)
        return rows


class GaussianOp(_DenseIIDOp):
    """i.i.d. standard normal entries; mu=1 on the (l2, l2) profile or
    mu=sqrt(pi/2) on the (l1, l2) profile."""

    family = "gaussian"

    def _fill_row_block(self, rng, out):
        rng.standard_normal(out=out)


class BernoulliOp(_DenseIIDOp):
    """i.i.d. +-1 entries (unit variance), mu=1, (l2, l2) profile.  Its
    cache holds the entries as int8."""

    family = "bernoulli"
    _cache_dtype = np.int8

    def _fill_row_block(self, rng, out):
        # 0/1 int64 draws of at most _DRAW_ENTRIES, written as 2b - 1 into
        # int8 or float64 rows; chunks of rows draw what one call over the
        # block does (the generator keeps its spare 32 bits between calls)
        step = max(1, _DRAW_ENTRIES // self.n)
        for a in range(0, out.shape[0], step):
            bits = rng.integers(0, 2, size=out[a : a + step].shape)
            np.subtract(np.multiply(bits, 2, out=bits), 1, out=out[a : a + step])


def _products(ops, xs: np.ndarray) -> list[np.ndarray]:
    """Each operator's (k, m) measurements of the k rows of ``xs``, in
    the order of ``ops``: a sweep's one measurement pass.

    The operators go largest m first.  A dense one reads the leading
    columns of the largest one before it of its type, seed and n where
    its product blocks are blocks of that one's (the module docstring's
    row-sharing rule); every other operator makes its own ``matvecs``
    call.
    """
    outs: list = [None] * len(ops)
    leads = {}  # (type, seed, n) -> the product of the largest such dense operator
    for i in sorted(range(len(ops)), key=lambda i: -ops[i].m):
        op, m = ops[i], ops[i].m
        key = (type(op), op.seed, op.n)
        dense = isinstance(op, _DenseIIDOp)
        lead = leads.get(key) if dense else None
        if lead is not None and (m == lead.shape[1] or (m % _BLOCK_ROWS == 0 and m <= _last_block(lead.shape[1]))):
            outs[i] = lead[:, :m]
        else:
            outs[i] = op.matvecs(xs)
            if dense:
                leads.setdefault(key, outs[i])
    return outs


class SubsampledHadamardOp(LinOp):
    """sqrt(n) * (uniform row subset of the orthonormal Hadamard) * random
    sign diagonal.  Rows have +-1 entries; matvec runs in O(n log n)."""

    family = "subsampled_hadamard"

    def __init__(self, m, n, seed):
        if not _is_pow2(n):
            raise ValueError(f"subsampled_hadamard requires n to be a power of two, got {n}")
        if m > n:
            raise ValueError(f"subsampled_hadamard selects rows without replacement; need m <= n, got m={m} > n={n}")
        super().__init__(m, n, seed, mu=1.0, rip_profile=(2.0, 2.0))
        self.rows = np.sort(stream(seed, "hadamard:rows").choice(n, size=m, replace=False))
        self.signs = stream(seed, "hadamard:signs").integers(0, 2, size=n).astype(float) * 2.0 - 1.0
        self.rows.setflags(write=False)
        self.signs.setflags(write=False)

    def _matvec(self, x):
        return fwht_counted(self.signs * x)[0][self.rows]

    def _dense(self):
        cols = np.arange(self.n)
        bits = np.bitwise_and(self.rows[:, None], cols[None, :])
        pop = np.array([[int(v).bit_count() for v in row] for row in bits])
        h = np.where(pop % 2 == 0, 1.0, -1.0)
        return h * self.signs[None, :]


class RandomConvolutionOp(LinOp):
    """Circulant matrix with an i.i.d. standard normal generator, with m
    uniformly selected output coordinates; matvec via FFT in O(n log n)."""

    family = "random_convolution"

    def __init__(self, m, n, seed):
        if m > n:
            raise ValueError(f"random_convolution selects output coordinates without replacement; need m <= n, got m={m} > n={n}")
        super().__init__(m, n, seed, mu=1.0, rip_profile=(2.0, 2.0))
        self.generator = stream(seed, "convolution:generator").standard_normal(n)
        self.coords = np.sort(stream(seed, "convolution:coords").choice(n, size=m, replace=False))
        self._spectrum = np.fft.rfft(self.generator)
        self.generator.setflags(write=False)
        self.coords.setflags(write=False)

    def _matvec(self, x):
        return circular_convolve_counted(self._spectrum, x)[0][self.coords]

    def _dense(self):
        # row i of the circulant is generator[(i - j) mod n]
        i = self.coords[:, None]
        j = np.arange(self.n)[None, :]
        return self.generator[(i - j) % self.n]


class ExpanderOp(LinOp):
    """0/1 adjacency of a random left-d-regular bipartite graph.

    Each input node j connects to d distinct output nodes chosen
    uniformly from the stream keyed by (seed, "expander:nbrs", j); the n
    states come from one batched pass.  matvec accumulates in O(n*d).
    The profile is (l1, l1) with mu = m / d, so the normalized functional
    (mu / m) * ||A x||_1 is ||A x||_1 / d, which equals ||x||_1 exactly on
    nonnegative inputs.
    """

    family = "expander"

    def __init__(self, m, n, seed, degree):
        degree = _integer("degree", degree)
        if degree < 1:
            raise ValueError(f"expander left-degree must be >= 1, got {degree}")
        if degree > m:
            raise ValueError(f"expander left-degree must be <= m, got d={degree} > m={m}")
        super().__init__(m, n, seed, mu=m / degree, rip_profile=(1.0, 1.0))
        self.degree = degree
        nbrs = np.empty((n, degree), dtype=np.int64)
        gen = np.random.default_rng(0)
        for j, state in enumerate(_stream_states(seed, "expander:nbrs", np.arange(n)[:, None])):
            gen.bit_generator.state = state
            nbrs[j] = gen.choice(m, size=degree, replace=False)
        self.neighbors = nbrs
        self.neighbors.setflags(write=False)

    def _matvec(self, x):
        weights = np.repeat(x, self.degree)
        return np.bincount(self.neighbors.ravel(), weights=weights, minlength=self.m).astype(float)

    def _dense(self):
        a = np.zeros((self.m, self.n))
        for j in range(self.n):
            a[self.neighbors[j], j] = 1.0
        return a


def build(family: str, m: int, n: int, seed: int, **options) -> LinOp:
    """Construct a deterministic operator for (family, seed).

    Options: ``rip=(1, 2)`` selects the l1-profile Gaussian (mu =
    sqrt(pi/2)); ``degree=d`` sets the expander left-degree (required).
    """
    m, n = _integer("m", m), _integer("n", n)
    if family == "gaussian":
        profile = tuple(options.pop("rip", (2, 2)))
        _reject_extra(options)
        if profile == (2, 2):
            return GaussianOp(m, n, seed, mu=1.0, rip_profile=(2.0, 2.0))
        if profile == (1, 2):
            return GaussianOp(m, n, seed, mu=math.sqrt(math.pi / 2.0), rip_profile=(1.0, 2.0))
        raise ValueError(f"gaussian rip profile must be (2, 2) or (1, 2), got {profile}")
    if family == "bernoulli":
        _reject_extra(options)
        return BernoulliOp(m, n, seed, mu=1.0, rip_profile=(2.0, 2.0))
    if family == "subsampled_hadamard":
        _reject_extra(options)
        return SubsampledHadamardOp(m, n, seed)
    if family == "random_convolution":
        _reject_extra(options)
        return RandomConvolutionOp(m, n, seed)
    if family == "expander":
        degree = options.pop("degree", None)
        _reject_extra(options)
        if degree is None:
            raise ValueError("expander requires a 'degree' option (left-degree d)")
        return ExpanderOp(m, n, seed, degree=degree)
    raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")


def _reject_extra(options: dict) -> None:
    if options:
        raise ValueError(f"unknown operator options: {sorted(options)}")


# float64 unit roundoff, the relative error of one rounding
_U = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), which bounds |prod (1 + d_i) - 1|
    over k roundings |d_i| <= u; inf from k*u >= 1/16 on, where the bound
    of ``RopOp._matvec_bounded`` stops being proven."""
    ku = k * _U
    return ku / (1.0 - ku) if ku < 1 / 16 else math.inf


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``a``, each row scaled by its largest
    |entry| first, so that no square underflows or overflows
    (``np.linalg.norm`` gives 0 for a row of 1e-200 entries)."""
    peak = np.abs(a).max(axis=1)
    scaled = a / np.where(peak > 0, peak, 1.0)[:, None]
    return peak * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))


class RopOp(LinOp):
    """Rank-one probes on n1-by-n2 matrices, read row-major (n = n1 * n2).

    Output coordinate k is kappa * a_k^T U b_k with i.i.d. unit-variance
    probe vectors a_k, b_k, the rows of ``probes_left`` (m, n1) and
    ``probes_right`` (m, n2), which are made read-only; m, n1 and n2 are
    read off those shapes.  ``kappa`` rescales the argument fed to the
    quantizer, so distance estimates over the codes carry a factor kappa
    (the caller divides it out).  E(a_k^T U b_k)**2 = ||U||_F**2 gives
    the (l2, l2) profile with mu = 1 / kappa.  Probes that are not 2-D
    or differ in row count, and a kappa that is not positive and finite,
    raise a one-line ValueError.

    ``matvec`` is kappa times the 3-operand ``einsum("mi,ij,mj->m")``,
    whose bits define every rop code.  ``_matvec_bounded`` computes the
    same probes through one GEMM (~20x faster at m = 1024 on 64x64
    inputs, one OpenBLAS thread of a 2-core machine) with a rigorous per-row bound on its distance from
    ``matvec``; ``embeddings.embed`` certifies codes with it.  The
    per-row norms ||a_k|| ||b_k|| and the bound's constants are computed
    here, once, so the bound costs O(m) per call.
    """

    family = "rop"

    def __init__(self, probes_left, probes_right, seed, kappa):
        a, b = np.asarray(probes_left, dtype=float), np.asarray(probes_right, dtype=float)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(f"probes must be 2-D arrays, got shapes {a.shape} and {b.shape}")
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"probes need one row count, got {a.shape[0]} and {b.shape[0]} rows")
        kappa = _real("kappa", kappa, positive=True)
        (m, n1), n2 = a.shape, b.shape[1]
        super().__init__(m, n1 * n2, seed, mu=1.0 / kappa, rip_profile=(2.0, 2.0))
        self.n1, self.n2, self.kappa = n1, n2, kappa
        self.probes_left, self.probes_right = a, b
        # read-only, so the norms cached below stay the probes' norms
        a.setflags(write=False)
        b.setflags(write=False)
        with np.errstate(over="ignore"):  # an infinite norm makes the bound inf
            norms_left, norms_right = _row_norms(a), _row_norms(b)
            self._probe_norms = norms_left * norms_right
            self._probe_growth = (1.0 + norms_left) * (1.0 + norms_right)
        self._bound_scale = 2.0 * self.kappa * (_gamma(self.n1 + self.n2 + 2) + _gamma(self.n + 2))

    def _matvec(self, x):
        u = x.reshape(self.n1, self.n2)
        return self.kappa * np.einsum("mi,ij,mj->m", self.probes_left, u, self.probes_right)

    def _matvec_bounded(self, x):
        """``(y, e)`` with y = kappa * rowsum((A @ U) * B) and
        |y_k - matvec(x)_k| <= e_k for every row k.

        With u = 2**-53, N = n1 * n2 and S_k = ||a_k|| ||U||_F ||b_k||:

        1. Both values evaluate s_k = sum_ij a_ki U_ij b_kj.  The einsum
           forms the N triple products (two roundings each) and sums
           them (at most N - 1 roundings per term, in any order); the
           GEMM path rounds each term at most n1 + n2 + 1 times (the
           inner product, the product by b_kj, the row sum), with or
           without FMA.  So each is within gamma_{N+1}, resp.
           gamma_{n1+n2+1}, times sum_ij |a_ki||U_ij||b_kj| of s_k
           (Higham, Accuracy and Stability of Numerical Algorithms,
           2nd ed., 3.1), and that sum is |a_k|^T |U| |b_k| <= S_k by
           Cauchy-Schwarz and ||U||_2 <= ||U||_F.
        2. Each side then rounds kappa * s once.  Since
           (1 + u) gamma_j <= gamma_{j+1}, the two values differ by at
           most (gamma_{n1+n2+2} + gamma_{N+2}) kappa S_k
           + 2.01 u |y_k|.
        3. ``embed`` forms y_k -+ e_k, one rounding each: u (|y_k| + e_k)
           more.
        4. Every product of entries of a_k, U and b_k is at most
           (1 + ||a_k||)(1 + ||U||_F)(1 + ||b_k||) in size, so with
           g_k = N max(kappa, 1) (1 + ||a_k||)(1 + ||U||_F)(1 + ||b_k||)
           every intermediate of either value is below
           (1 + gamma_{N+1}) g_k: where 2 g_k is finite nothing
           overflows, and e_k is inf elsewhere.  A product that
           underflows errs by up to 2**-1075 absolutely; carried through
           at most one later factor and kappa, that adds at most
           2**-1074 (1 + g_k) (1 + gamma_{N+1}) over both values.

        e_k = 2 (gamma_{n1+n2+2} + gamma_{N+2}) kappa S_k + 4 u |y_k|
        + 2**-1072 (1 + g_k).  The factor 2 covers the rounding of the
        computed norms and of e_k's own arithmetic (relative errors below
        (gamma_{N+2} + gamma_{n1+2} + gamma_{n2+2}) / 2 + 12u, under 1/8
        while both gammas of the bound are finite; the norms are taken
        scaled, so their squares do not underflow); 4 u |y_k| covers the
        2.01 u |y_k| of step 2 and the u |y_k| of step 3.  A non-finite
        input makes y_k or e_k non-finite.
        """
        x = self._input(x)
        # non-finite values are the caller's signal to take matvec, not a warning
        with np.errstate(invalid="ignore", over="ignore"):
            y = self.kappa * np.einsum("mj,mj->m", self.probes_left @ x.reshape(self.n1, self.n2), self.probes_right)
            norm_u = float(_row_norms(x[None, :])[0])
            growth = self._probe_growth * (self.n * max(self.kappa, 1.0) * (1.0 + norm_u))
            err = np.abs(y) * (4 * _U)
            err += self._probe_norms * (self._bound_scale * norm_u)
            err += 2.0**-1072 * (1.0 + growth)
            err[~(2.0 * growth < math.inf)] = math.inf
        return y, err

    def _dense(self):
        # row i is the flattened outer product a_i b_i^T
        rows = self.probes_left[:, :, None] * self.probes_right[:, None, :]
        return self.kappa * rows.reshape(self.m, self.n)


def build_rop(m: int, n1: int, n2: int, seed: int, kappa: float = 1.0) -> RopOp:
    """Build a rank-one probing operator with standard normal probes."""
    m, n1, n2 = _integer("m", m), _integer("n1", n1), _integer("n2", n2)
    if m < 1 or n1 < 1 or n2 < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n1={n1}, n2={n2}")
    a = stream(seed, "rop:left").standard_normal((m, n1))
    b = stream(seed, "rop:right").standard_normal((m, n2))
    return RopOp(a, b, seed, kappa)

"""Low-complexity vector sets: samplers, support functions, calculators.

Each ModelSet pairs a structured kind (sparse supports, low-rank factors,
subspace unions, balls, finite clouds) with a declared l_q-diameter
``radius``.  Pair sampling keeps the difference of the two points inside
the model's natural structure (shared support / shared factors), which
is where the distance-preservation claims are exercised.

All covering-number and sample-size calculators set the hidden
proportionality constants to 1; callers scale with the ``C`` multiplier.
Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .rng import _integer, _order, _real

__all__ = [
    "ModelSet",
    "sparse",
    "group_sparse",
    "low_rank",
    "low_rank_joint_sparse",
    "subspace_union",
    "ball",
    "finite_cloud",
    "dict_sparse",
    "sample_point",
    "sample_pair",
    "support_function",
    "mean_width_mc",
    "entropy_bound",
    "required_m",
    "ball_mean_width_exact",
]

KINDS = (
    "sparse",
    "group_sparse",
    "low_rank",
    "low_rank_joint_sparse",
    "subspace_union",
    "ball",
    "finite_cloud",
    "dict_sparse",
)


@dataclass(frozen=True)
class ModelSet:
    """A structured set with parameters, ambient dimension and diameter.

    ``pieces`` counts identical copies forming a union (adds log(pieces)
    to covering-number bounds); ``radius`` is the caller-declared
    l_q-diameter bound for the q they intend to use.
    """

    kind: str
    params: dict[str, Any]
    ambient_dim: int
    radius: float = 1.0
    pieces: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "radius", _real("radius", self.radius, positive=True))
        if _integer("pieces", self.pieces) < 1:
            raise ValueError(f"pieces must be >= 1, got {self.pieces}")


def sparse(s: int, n: int, radius: float = 1.0, pieces: int = 1) -> ModelSet:
    s, n = _integer("s", s), _integer("n", n)
    if not (1 <= s <= n):
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return ModelSet("sparse", {"s": s, "n": n}, n, radius, pieces)


def group_sparse(s: int, l: int, n: int, radius: float = 1.0) -> ModelSet:
    """s active groups out of n groups of size l (ambient dimension n*l)."""
    s, l, n = _integer("s", s), _integer("l", l), _integer("n", n)
    if not (1 <= s <= n) or l < 1:
        raise ValueError(f"need 1 <= s <= n and l >= 1, got s={s}, l={l}, n={n}")
    return ModelSet("group_sparse", {"s": s, "l": l, "n": n}, n * l, radius)


def low_rank(r: int, n1: int, n2: int, radius: float = 1.0) -> ModelSet:
    r, n1, n2 = _integer("r", r), _integer("n1", n1), _integer("n2", n2)
    if not (1 <= r <= min(n1, n2)):
        raise ValueError(f"need 1 <= r <= min(n1, n2), got r={r}, n1={n1}, n2={n2}")
    return ModelSet("low_rank", {"r": r, "n1": n1, "n2": n2}, n1 * n2, radius)


def low_rank_joint_sparse(r: int, s: int, n1: int, n2: int, radius: float = 1.0) -> ModelSet:
    r, s, n1, n2 = _integer("r", r), _integer("s", s), _integer("n1", n1), _integer("n2", n2)
    if not (1 <= r <= min(s, n2)) or not (1 <= s <= n1):
        raise ValueError(f"need 1 <= r <= min(s, n2) and 1 <= s <= n1, got r={r}, s={s}, n1={n1}, n2={n2}")
    return ModelSet("low_rank_joint_sparse", {"r": r, "s": s, "n1": n1, "n2": n2}, n1 * n2, radius)


def subspace_union(bases: list[np.ndarray], radius: float = 1.0) -> ModelSet:
    """Union of the column spans of the given n-by-k_i matrices, each of
    finite entries and full column rank."""
    if not bases:
        raise ValueError("subspace_union needs at least one basis")
    ortho = []
    n = np.asarray(bases[0]).shape[0]
    for i, b in enumerate(bases):
        b = np.asarray(b, dtype=float)
        if b.ndim != 2 or b.shape[0] != n:
            raise ValueError("all bases must be 2-d with a common ambient dimension")
        if min(b.shape) < 1:
            raise ValueError(f"every basis needs at least one row and one column, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError(f"basis {i} has non-finite entries")
        rank = np.linalg.matrix_rank(b)
        if rank < b.shape[1]:
            raise ValueError(f"basis {i} has rank {rank} < its {b.shape[1]} columns; they must be independent")
        q, _ = np.linalg.qr(b)
        q.setflags(write=False)
        ortho.append(q)
    return ModelSet("subspace_union", {"bases": tuple(ortho)}, int(n), radius)


def ball(n: int, radius: float = 1.0) -> ModelSet:
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return ModelSet("ball", {"n": n}, n, radius)


def finite_cloud(points: np.ndarray, radius: float | None = None) -> ModelSet:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("finite_cloud needs a (T, n) array of points")
    if not np.isfinite(pts).all():
        raise ValueError("finite_cloud points have non-finite entries")
    pts.setflags(write=False)
    r = float(np.max(np.linalg.norm(pts, axis=1))) if radius is None else _real("radius", radius)
    r = max(r, np.finfo(float).tiny)
    return ModelSet("finite_cloud", {"points": pts}, int(pts.shape[1]), r)


def dict_sparse(dictionary: np.ndarray, s: int, radius: float = 1.0) -> ModelSet:
    d = np.asarray(dictionary, dtype=float)
    if d.ndim != 2:
        raise ValueError("dictionary must be an (n, d) matrix")
    if not np.isfinite(d).all():
        raise ValueError("dictionary has non-finite entries")
    s = _integer("s", s)
    if not (1 <= s <= d.shape[1]):
        raise ValueError(f"need 1 <= s <= {d.shape[1]}, got s={s}")
    d.setflags(write=False)
    return ModelSet("dict_sparse", {"D": d, "s": s}, d.shape[0], radius)


# ---------------------------------------------------------------------------
# sampling


def _unit(v: np.ndarray, q: float) -> np.ndarray:
    nrm = np.linalg.norm(v.ravel(), ord=q)
    if nrm == 0:
        raise ValueError("degenerate direction")
    return v / nrm


def sample_point(mset: ModelSet, rng: np.random.Generator) -> np.ndarray:
    """One member of the set; structured kinds get unit l2 (or Frobenius)
    norm by default, balls are sampled uniformly."""
    p = mset.params
    if mset.kind == "ball":
        direction = _unit(rng.standard_normal(p["n"]), 2)
        return mset.radius * rng.uniform() ** (1.0 / p["n"]) * direction
    if mset.kind == "finite_cloud":
        pts = p["points"]
        return pts[rng.integers(pts.shape[0])].copy()
    dim, lift = _structured_frame(mset, rng)
    return _unit(lift(rng.standard_normal(dim)), 2)


def _scatter(shape, idx):
    """The lift writing its input into entries (or rows) ``idx`` of a zero array."""

    def lift(c):
        x = np.zeros(shape)
        x[idx] = c
        return x

    return lift


def _structured_frame(mset: ModelSet, rng: np.random.Generator):
    """Draw one structured component (support, groups, factors, subspace)
    and return a map from low-dimensional coordinates into it.

    Returns (dim, lift) where lift maps a dim-vector to a member of the
    component.  Every lift is one of three forms: a scatter into a
    support (sparse, group_sparse; ``_scatter``), a product with a basis
    (subspace_union, dict_sparse; the ball's basis is the identity), or
    the factor product ``left @ C @ right.T`` of the low-rank kinds,
    which low_rank_joint_sparse scatters into its rows.  This is the one
    per-kind sampler: ``sample_point`` lifts one Gaussian coordinate
    vector, ``sample_pair`` a gap direction and a centre.  The draws
    consumed here do not depend on the requested distance, so a reused
    stream yields the same component at every distance.
    """
    k = mset.kind
    p = mset.params
    if k == "sparse":
        return p["s"], _scatter(p["n"], rng.choice(p["n"], size=p["s"], replace=False))
    if k == "group_sparse":
        groups = np.sort(rng.choice(p["n"], size=p["s"], replace=False))
        idx = (groups[:, None] * p["l"] + np.arange(p["l"])).ravel()  # every entry of the drawn groups
        return p["s"] * p["l"], _scatter(p["n"] * p["l"], idx)
    if k in ("low_rank", "low_rank_joint_sparse"):
        r = p["r"]
        place, height = np.asarray, p["n1"]
        if k == "low_rank_joint_sparse":
            rows = np.sort(rng.choice(p["n1"], size=p["s"], replace=False))
            place, height = _scatter((p["n1"], p["n2"]), rows), p["s"]
        left, _ = np.linalg.qr(rng.standard_normal((height, r)))
        right, _ = np.linalg.qr(rng.standard_normal((p["n2"], r)))
        return r * r, lambda c: place(left @ c.reshape(r, r) @ right.T)
    if k == "subspace_union":
        b = p["bases"][rng.integers(len(p["bases"]))]
        return b.shape[1], b.__matmul__
    if k == "dict_sparse":
        support = rng.choice(p["D"].shape[1], size=p["s"], replace=False)
        return p["s"], p["D"][:, support].__matmul__
    if k == "ball":
        return p["n"], np.asarray
    raise ValueError(f"unknown model kind {k!r}")


def sample_pair(
    mset: ModelSet,
    distance: float,
    rng: np.random.Generator,
    q: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two members whose l_q gap is ``distance``, to a relative 1e-6.

    Both points live in one structured component (shared support /
    shared factors), so their difference keeps the model structure.  The
    midpoint is drawn at a feasible norm so both endpoints stay within
    the declared radius; requires distance <= 2 * radius, a norm order
    q >= 1 (inf included) and, for q = 2, a radius whose square is
    finite.  A pair whose gap is lost to rounding against a midpoint
    much larger than the distance raises.
    """
    distance = _real("distance", distance)
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    q = _order("q", q)
    if distance > 2 * mset.radius:
        raise ValueError(f"distance {distance} is infeasible within diameter {2 * mset.radius}")
    if q == 2 and not math.isfinite(mset.radius * mset.radius):
        raise ValueError(f"radius {mset.radius:g} is too large for l2 pairs: its square overflows")
    if mset.kind == "finite_cloud":
        pts = mset.params["points"]
        if distance == 0:
            x = pts[rng.integers(pts.shape[0])].copy()
            return x, x.copy()
        t = pts.shape[0]
        candidates = [
            (i, j)
            for i in range(t)
            for j in range(t)
            if i != j
            and abs(np.linalg.norm((pts[i] - pts[j]).ravel(), ord=q) - distance)
            <= 1e-9 * max(distance, 1.0)
        ]
        if not candidates:
            raise ValueError(f"no cloud pair at distance {distance}")
        i, j = candidates[rng.integers(len(candidates))]
        return pts[i].copy(), pts[j].copy()

    dim, lift = _structured_frame(mset, rng)
    direction = rng.standard_normal(dim)
    centre_raw = rng.standard_normal(dim)
    centre_frac = rng.uniform()

    u = _unit(lift(direction), q)
    half = 0.5 * distance

    if dim >= 2:
        # centre orthogonal to the gap direction (l2 geometry of the frame)
        d_flat = _unit(direction, 2)
        c_low = centre_raw - (centre_raw @ d_flat) * d_flat
        if np.linalg.norm(c_low) > 0:
            c = lift(c_low / np.linalg.norm(c_low))
        else:
            c = lift(np.zeros(dim))
    else:
        c = lift(np.zeros(1))

    c_q = np.linalg.norm(c.ravel(), ord=q)
    if c_q > 0:
        if q == 2.0 and abs(np.vdot(c.ravel(), u.ravel())) < 1e-9:
            gamma_max = math.sqrt(max(mset.radius**2 - half**2, 0.0))
        else:
            gamma_max = max(mset.radius - half * np.linalg.norm(u.ravel(), ord=q), 0.0)
        c = (centre_frac * gamma_max / c_q) * c
    x = c + half * u
    x_prime = c - half * u
    gap = np.linalg.norm((x - x_prime).ravel(), ord=q)
    if not abs(gap - distance) <= 1e-6 * distance:
        raise ValueError(f"distance {distance:g} is lost to rounding at radius {mset.radius:g} (gap {gap:g})")
    return x, x_prime


# ---------------------------------------------------------------------------
# support functions and mean width


def _support_batch(mset: ModelSet, g: np.ndarray) -> np.ndarray:
    """sup over the set of |<g, u>| for a batch of directions g (rows)."""
    k = mset.kind
    p = mset.params
    if k in ("sparse", "group_sparse"):  # the l2 norm of the s largest entry or group magnitudes
        mags = np.abs(g) if k == "sparse" else np.linalg.norm(g.reshape(g.shape[0], p["n"], p["l"]), axis=2)
        top = np.partition(mags, mags.shape[1] - p["s"], axis=1)[:, -p["s"] :]
        return mset.radius * np.linalg.norm(top, axis=1)
    if k == "low_rank":
        out = np.empty(g.shape[0])
        for i, row in enumerate(g):
            sv = np.linalg.svd(row.reshape(p["n1"], p["n2"]), compute_uv=False)
            out[i] = np.linalg.norm(sv[: p["r"]])
        return mset.radius * out
    if k == "ball":
        return mset.radius * np.linalg.norm(g, axis=1)
    if k == "subspace_union":
        proj = np.stack([np.linalg.norm(g @ b, axis=1) for b in p["bases"]], axis=1)
        return mset.radius * proj.max(axis=1)
    if k == "finite_cloud":  # its points are its members, whatever its radius
        pts = p["points"].reshape(p["points"].shape[0], -1)
        return np.abs(g @ pts.T).max(axis=1)
    raise ValueError(f"support function is unsupported for kind {k!r}")


def support_function(mset: ModelSet, g: np.ndarray) -> float:
    """sup of |<g, u>| over the set's members.

    Every kind but finite_cloud is its radius times the value at radius
    1, which is: sparse: l2 norm of the s largest-magnitude entries;
    group_sparse: l2 norm of the s largest group norms (group j holds
    entries j*l to j*l + l - 1); low_rank: l2 norm of the top-r singular
    values of the matricized input; ball: ||g||; subspace_union: largest
    projection norm.  finite_cloud: largest |<g, u_i>| over the stored
    points, which are its members whatever its radius.
    """
    g = np.asarray(g, dtype=float).ravel()
    if g.size != mset.ambient_dim:
        raise ValueError(f"direction length {g.size} does not match ambient dim {mset.ambient_dim}")
    return float(_support_batch(mset, g[None, :])[0])


def mean_width_mc(mset: ModelSet, trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the support function over
    i.i.d. standard normal directions.  Raises ValueError when either
    overflows float64."""
    trials = _integer("trials", trials)
    if trials < 100:
        raise ValueError(f"mean_width_mc needs trials >= 100, got {trials}")
    batch = 4096
    total = 0.0
    total_sq = 0.0
    done = 0
    with np.errstate(over="ignore"):  # an overflow leaves a non-finite moment, rejected below
        while done < trials:
            b = min(batch, trials - done)
            g = rng.standard_normal((b, mset.ambient_dim))
            vals = _support_batch(mset, g)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
            done += b
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"the mean width of {mset.kind} at radius {mset.radius:g} or its error overflows float64")
    return mean, stderr


def ball_mean_width_exact(n: int) -> float:
    """Closed-form expected l2 norm of an n-dim standard normal:
    sqrt(2) * Gamma((n+1)/2) / Gamma(n/2).

    scipy is imported here, its only use, so that importing qembed does
    not load it; math.lgamma is not a drop-in (it differs from gammaln in
    the last bits for most n)."""
    from scipy.special import gammaln

    return math.sqrt(2.0) * math.exp(gammaln((n + 1) / 2.0) - gammaln(n / 2.0))


# ---------------------------------------------------------------------------
# covering-number and sample-size calculators


def entropy_bound(mset: ModelSet, eta: float, q: float) -> float:
    """Covering-number log-bound (natural log) at resolution eta.

    Formulas (hidden constants set to 1; union of identical pieces adds
    log(pieces)):

      sparse             s * ln(e*n/s) * ln(1 + 2*radius/eta)       q >= 1
      dict_sparse        the same, n the dictionary's d atoms       q >= 1
      group_sparse       s * (l + ln(n/s)) * ln(1 + 2*radius/eta)   q >= 1
      subspace_union     k_max * ln(1 + 2*radius/eta) + ln(T)       q >= 1
      low_rank           r*(n1+n2) * ln(1 + radius/eta)             q = 2
      low_rank_joint_s.  (r*(s+n2) + s*ln(n1/s)) * ln(1+radius/eta) q = 2
      ball               (width / eta)**2  (exact Gaussian width)   q = 2
      finite_cloud       ln(T)                                      q >= 1

    q is a norm order in [1, inf].  Raises ValueError when the bound
    overflows float64.
    """
    eta = _real("eta", eta, positive=True)
    q = _order("q", q)
    k = mset.kind
    p = mset.params
    r = mset.radius
    if k in ("sparse", "dict_sparse"):
        atoms = p["n"] if k == "sparse" else p["D"].shape[1]
        base = p["s"] * math.log(math.e * atoms / p["s"]) * math.log1p(2 * r / eta)
    elif k == "group_sparse":
        base = p["s"] * (p["l"] + math.log(p["n"] / p["s"])) * math.log1p(2 * r / eta)
    elif k == "subspace_union":
        dims = max(b.shape[1] for b in p["bases"])
        base = dims * math.log1p(2 * r / eta) + math.log(len(p["bases"]))
    elif k == "low_rank":
        _require_q2(k, q)
        base = p["r"] * (p["n1"] + p["n2"]) * math.log1p(r / eta)
    elif k == "low_rank_joint_sparse":
        _require_q2(k, q)
        base = (p["r"] * (p["s"] + p["n2"]) + p["s"] * math.log(p["n1"] / p["s"])) * math.log1p(r / eta)
    elif k == "ball":
        _require_q2(k, q)
        width = r * ball_mean_width_exact(p["n"])
        try:
            base = (width / eta) ** 2
        except OverflowError:
            base = math.inf
    elif k == "finite_cloud":
        base = math.log(p["points"].shape[0])
    else:
        raise ValueError(f"no covering formula for kind {k!r} at q={q}")
    if not math.isfinite(base):
        raise ValueError(f"the covering bound of {k} at radius {r:g}, eta={eta:g} overflows float64")
    return base + (math.log(mset.pieces) if mset.pieces > 1 else 0.0)


def _require_q2(kind: str, q: float) -> None:
    if q != 2.0:
        raise ValueError(f"kind {kind!r} supports only q=2, got q={q}")


def required_m(
    prop: str,
    mset: ModelSet,
    epsilon: float,
    cfg,
    C: float = 1.0,
    q: float = 2.0,
) -> int:
    """Embedding-dimension requirement ceil(C * eps**-2 * H(eta)).

    The covering resolution is eta = delta * eps**2 for the l1-estimator
    and bi-dither routes ('p1', 'p3') and eta = delta * eps**1.5 for the
    squared-l2 route ('p2').  Raises ValueError when the requirement is
    not a finite integer.
    """
    if prop not in ("p1", "p2", "p3"):
        raise ValueError(f"prop must be one of p1, p2, p3, got {prop!r}")
    epsilon = _real("epsilon", epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    C = _real("C", C, positive=True)
    eta = cfg.delta * (epsilon**2 if prop in ("p1", "p3") else epsilon**1.5)
    try:
        need = C * epsilon**-2 * entropy_bound(mset, eta, q)
    except OverflowError:
        need = math.inf
    if not math.isfinite(need):
        raise ValueError(f"the required dimension at epsilon={epsilon}, C={C} is not a finite integer")
    return math.ceil(need)

"""Volumes and geometry of the entanglable sets on the probability simplex.

Volumes are Monte Carlo fractions of uniform simplex samples passing a
membership predicate.  Sampling uses the counter-based Philox generator,
keyed per fixed-size block, so streams are reproducible bit-for-bit and can
be partitioned across workers without changing the result.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import GibbsContext, PopVector
from .entangle import TAU_F, fstar_batch, witness_batch
from .majorization import batch_majorizes

#: samples per RNG block; one Philox key per block
BLOCK = 65536

#: blocks per worker thread submitted ahead of the results read
IN_FLIGHT = 2

SET_IDS = ("E", "NE", "TNE", "ENT_CONE")

#: largest facet grid resolution: the grid holds 2 m^2 + 2 points, built in
#: a Python set, about 130k at the cap
MAX_GRID = 256


def _simplex_block(d: int, rows: int, seed: int, block: int) -> np.ndarray:
    """One block of uniform simplex points, from the Philox key (seed, block)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)])
    e = np.random.Generator(np.random.Philox(key=key)).standard_exponential((rows, d))
    e /= e.sum(axis=1, keepdims=True)
    return e


def sample_simplex_array(d: int, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. uniform points of the (d-1)-simplex, as an (n, d) array.

    Normalized exponential spacings; deterministic per seed, and any prefix
    of the stream is independent of the total ``n`` requested.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    out = np.empty((n, d))
    for block, lo in enumerate(range(0, n, BLOCK)):
        hi = min(lo + BLOCK, n)
        out[lo:hi] = _simplex_block(d, hi - lo, seed, block)
    return out


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume fraction with its binomial standard error."""

    fraction: float
    std_error: float
    n_samples: int
    seed: int

    @classmethod
    def from_counts(cls, hits: int, n: int, seed: int) -> "VolumeEstimate":
        frac = hits / n
        return cls(fraction=frac, std_error=math.sqrt(frac * (1.0 - frac) / n),
                   n_samples=n, seed=seed)


def membership_mask(set_id: str, Q: np.ndarray, ctx: GibbsContext,
                    origin: PopVector | None = None) -> np.ndarray:
    """Vectorized membership predicate for one batch of simplex samples."""
    if set_id == "E":
        return witness_batch(Q) < -TAU_F
    if set_id == "NE":
        return witness_batch(Q) >= -TAU_F
    if set_id == "TNE":
        return fstar_batch(Q, ctx.checked_gamma()) >= -TAU_F
    if set_id == "ENT_CONE":
        # dominance costs far more than the witness: read it only where needed
        hits = witness_batch(Q) < -TAU_F
        hits[hits] = batch_majorizes(origin, Q[hits], ctx)
        return hits
    raise ValueError(f"unknown set id {set_id!r}; expected one of {SET_IDS}")


def volume_of(set_id: str, ctx: GibbsContext, origin: PopVector | None,
              n: int, seed: int, threads: int = 1) -> VolumeEstimate:
    """Monte Carlo volume fraction of one of the entanglability sets.

    ``origin`` is required for ENT_CONE (the future thermal cone of
    entanglement of that state); it is ignored otherwise.
    """
    if set_id not in SET_IDS:
        raise ValueError(f"unknown set id {set_id!r}; expected one of {SET_IDS}")
    if set_id == "ENT_CONE" and origin is None:
        raise ValueError("ENT_CONE volume requires an origin state")
    if n <= 0:
        raise ValueError("sample count must be positive")
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    if ctx.dim != 4:
        raise ValueError("volume predicates are defined for 4-level systems")

    def count(b):
        Q = _simplex_block(4, min(BLOCK, n - b * BLOCK), seed, b)
        return int(membership_mask(set_id, Q, ctx, origin).sum())

    # blocks are drawn lazily, so the set-up does not grow with n
    blocks = range(-(-n // BLOCK))
    if threads == 1:
        return VolumeEstimate.from_counts(sum(map(count, blocks)), n, seed)
    hits, todo = 0, iter(blocks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # at most IN_FLIGHT blocks per thread are submitted at a time
        pending = deque(pool.submit(count, b) for b in islice(todo, IN_FLIGHT * threads))
        while pending:
            hits += pending.popleft().result()
            pending.extend(pool.submit(count, b) for b in islice(todo, 1))
    return VolumeEstimate.from_counts(hits, n, seed)


@dataclass(frozen=True)
class BoundaryCloud:
    """Bisection approximation of the thermally non-entanglable boundary."""

    points: np.ndarray
    grid_resolution: int
    inner_points: np.ndarray
    outer_points: np.ndarray


def _check_resolution(resolution: int) -> None:
    if not 1 <= resolution <= MAX_GRID:
        raise ValueError(f"grid resolution must lie in 1..{MAX_GRID}, got {resolution}")


def simplex_facet_grid(resolution: int) -> np.ndarray:
    """Regular barycentric grid over the four facets of the 3-simplex."""
    _check_resolution(resolution)
    m = resolution
    pts = set()
    for zero in range(4):
        slots = [i for i in range(4) if i != zero]
        for a in range(m + 1):
            for b in range(m + 1 - a):
                c = m - a - b
                q = [0.0, 0.0, 0.0, 0.0]
                q[slots[0]] = a / m
                q[slots[1]] = b / m
                q[slots[2]] = c / m
                pts.add(tuple(q))
    return np.array(sorted(pts))


def tne_boundary(ctx: GibbsContext, grid: int, iters: int) -> BoundaryCloud:
    """Bisect from boundary grid points toward the Gibbs state to locate the
    thermally non-entanglable surface.

    Grid points that are not thermally entanglable (the lone exceptional
    boundary state, and its permutation images at beta = 0) are skipped.
    At infinite beta the set degenerates to the ground state, which is
    returned as a single-point cloud.
    """
    if ctx.dim != 4:
        raise ValueError("boundary construction is defined for 4-level systems")
    if iters < 1:
        raise ValueError("need at least one bisection step")
    _check_resolution(grid)
    if ctx.beta_is_infinite:
        ground = np.zeros((1, 4))
        ground[0, 0] = 1.0
        return BoundaryCloud(points=ground, grid_resolution=grid,
                             inner_points=ground.copy(), outer_points=ground.copy())

    gamma = ctx.checked_gamma()
    grid_pts = simplex_facet_grid(grid)
    entanglable = fstar_batch(grid_pts, gamma) < -TAU_F
    outer = grid_pts[entanglable]
    inner = np.tile(gamma, (outer.shape[0], 1))

    for _ in range(iters):
        mid = 0.5 * (inner + outer)
        in_tne = fstar_batch(mid, gamma) >= -TAU_F
        inner[in_tne] = mid[in_tne]
        outer[~in_tne] = mid[~in_tne]

    cloud = 0.5 * (inner + outer)
    return BoundaryCloud(points=cloud, grid_resolution=grid,
                         inner_points=inner, outer_points=outer)


def ne_boundary_p3(p1: float, p2: float) -> tuple:
    """Both roots in the third coordinate of the witness zero surface:
    p3 = -2 p1 + p2 -/+ 2 sqrt(p1 - 2 p1 p2).

    Roots are returned raw; callers select the one inside the simplex.
    """
    disc = p1 * (1.0 - 2.0 * p2)
    if disc < 0:
        raise ValueError(f"no real roots: p1 (1 - 2 p2) = {disc} < 0")
    r = 2.0 * math.sqrt(disc)
    base = -2.0 * p1 + p2
    return base - r, base + r


# ---------------------------------------------------------------------------
# Hull export
# ---------------------------------------------------------------------------

# orthonormal basis of the sum-zero subspace of R^4, columns of a 4x3 matrix
_EMBED = np.array([
    [1 / math.sqrt(2), 1 / math.sqrt(6), 1 / math.sqrt(12)],
    [-1 / math.sqrt(2), 1 / math.sqrt(6), 1 / math.sqrt(12)],
    [0.0, -2 / math.sqrt(6), 1 / math.sqrt(12)],
    [0.0, 0.0, -3 / math.sqrt(12)],
])


def embed_simplex(points: np.ndarray) -> np.ndarray:
    """Isometric coordinates of simplex points in the 3-plane sum(p) = 1."""
    return (np.asarray(points) - 0.25) @ _EMBED


def simplex_embedded_volume() -> float:
    from scipy.spatial import ConvexHull  # lazy: scipy.spatial dominates import time

    return float(ConvexHull(embed_simplex(np.eye(4))).volume)


@dataclass(frozen=True)
class HullMesh:
    """Triangulated convex hull of a point cloud inside the simplex."""

    vertices: np.ndarray      # hull vertices, original simplex coordinates
    points3d: np.ndarray      # the same vertices, embedded coordinates
    faces: np.ndarray         # (m, 3) triangles indexing into vertices
    volume: float             # Euclidean volume in the embedding
    volume_fraction: float    # relative to the whole simplex

    def to_obj(self) -> str:
        lines = [f"v {x:.12g} {y:.12g} {z:.12g}" for x, y, z in self.points3d]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in self.faces]
        return "\n".join(lines) + "\n"


def convex_hull_export(cloud) -> HullMesh:
    """3-D convex hull of a boundary cloud, as vertex and face lists."""
    from scipy.spatial import ConvexHull, QhullError  # lazy, as above

    pts = cloud.points if isinstance(cloud, BoundaryCloud) else np.asarray(cloud, dtype=float)
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points for a 3-D hull")
    coords = embed_simplex(pts)
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        raise ValueError(f"degenerate cloud: {exc}") from exc

    remap = {old: new for new, old in enumerate(hull.vertices)}
    faces = np.array([[remap[i] for i in simplex] for simplex in hull.simplices])
    return HullMesh(
        vertices=pts[hull.vertices],
        points3d=coords[hull.vertices],
        faces=faces,
        volume=float(hull.volume),
        volume_fraction=float(hull.volume) / simplex_embedded_volume(),
    )

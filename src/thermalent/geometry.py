"""Volumes and geometry of the entanglable sets on the probability simplex.

Volumes are Monte Carlo fractions of uniform simplex samples passing a
membership predicate.  Sampling uses the counter-based Philox generator,
keyed per fixed-size block, so streams are reproducible bit-for-bit and can
be partitioned across workers without changing the result; each block is
drawn, normalized and classified as one stream of tiles of CHUNK rows.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import CHUNK, PI_STAR, GibbsContext, PopVector, batch_order
from .entangle import TAU_F, fstar_batch, witness_batch
from .majorization import _level_maps, _majorizes_stream, _take_rows, tight_point_tiles

#: samples per RNG block; one Philox key per block
BLOCK = 65536

#: blocks per worker thread submitted ahead of the results read
IN_FLIGHT = 2

SET_IDS = ("E", "NE", "TNE", "ENT_CONE")

#: largest facet grid resolution: the grid holds 2 m^2 + 2 points, about
#: 130k at the cap
MAX_GRID = 256

#: most bracket halvings of ``tne_boundary``: a bracket 2^-iters wide along
#: a ray of [0, 1] is the spacing of doubles near 1 at 52, and narrower ones
#: cannot be resolved
MAX_ITERS = 52


def _simplex_tiles(d: int, rows: int, seed: int, block: int):
    """The first ``rows`` uniform simplex points of the Philox key (seed,
    block), in tiles of CHUNK rows: views of one buffer, refilled per tile."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)])
    gen, buf = np.random.Generator(np.random.Philox(key=key)), np.empty((CHUNK, d))
    for lo in range(0, rows, CHUNK):
        e = gen.standard_exponential(out=buf[:rows - lo])
        # numpy sums a row of fewer than 8 entries left to right, as the column
        # adds of sum(e.T) do, and pairwise from 8 on
        s = sum(e.T) if d < 8 else e.sum(axis=1)
        for k in range(d):
            e[:, k] /= s
        yield e


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
    for block, start in enumerate(range(0, n, BLOCK)):
        tiles = _simplex_tiles(d, min(BLOCK, n - start), seed, block)
        for lo, tile in zip(range(start, n, CHUNK), tiles):
            out[lo:lo + len(tile)] = tile
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
        Qs = _simplex_tiles(4, min(BLOCK, n - b * BLOCK), seed, b)
        if set_id == "TNE":
            Qs = (q for _, q in tight_point_tiles(Qs, ctx.checked_gamma(), PI_STAR))
        if set_id in ("NE", "TNE"):
            return sum(int(np.count_nonzero(witness_batch(Q) >= -TAU_F)) for Q in Qs)
        if set_id == "E":
            return sum(int(np.count_nonzero(witness_batch(Q) < -TAU_F)) for Q in Qs)
        # dominance costs far more than the witness: read it only where needed
        ent = (Q[witness_batch(Q) < -TAU_F] for Q in Qs)
        return sum(int(np.count_nonzero(ok)) for ok in _majorizes_stream(origin, ent, ctx))

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
    """Points on the thermally non-entanglable boundary, one per ray from a
    facet grid point to the Gibbs state, each between a confirmed
    non-entanglable ``inner_points`` row and an entanglable ``outer_points``
    row."""

    points: np.ndarray
    inner_points: np.ndarray
    outer_points: np.ndarray


def _check_resolution(resolution: int) -> None:
    if not 1 <= resolution <= MAX_GRID:
        raise ValueError(f"grid resolution must lie in 1..{MAX_GRID}, got {resolution}")


def simplex_facet_grid(resolution: int) -> np.ndarray:
    """Regular barycentric grid over the four facets of the 3-simplex: the
    points k / m for every k of four non-negative integers summing to m with
    at least one zero, in lexicographic order."""
    _check_resolution(resolution)
    m = resolution
    a, ab = np.triu_indices(m + 1)  # every a + b <= m, as a and a + b
    facet = np.stack([a, ab - a, m - ab], axis=1)
    # each point is listed once, under its first zero coordinate
    K = np.concatenate([np.insert(facet, z, 0, axis=1)[(facet[:, :z] > 0).all(axis=1)]
                        for z in range(4)])
    key = K @ (m + 1) ** np.arange(3, -1, -1)
    return K[np.argsort(key)] / m


def _ray_points(O: np.ndarray, gamma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1 - t) gamma + t o for each row o: exactly gamma at t = 0 and o at t = 1."""
    return (1.0 - t)[:, None] * gamma + t[:, None] * O


def _ray_roots(O: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The root t* in (0, 1] of f* = -TAU_F along each ray from gamma (t = 0)
    to a row o of O (t = 1), where f* < -TAU_F.

    Along the ray every ratio p_i/gamma_i - 1 is t (o_i/gamma_i - 1), so o's
    level ordering holds for all t > 0 and the (2,1,3,4) tight point is
    q0 + t dq, through the map of that ordering.  f* is then the quadratic
    a t^2 + b t + f*(gamma), solved in the stable form of the formula.
    Raises RuntimeError unless each ray has exactly one root in (0, 1].
    """
    order = batch_order(O, gamma)
    t = np.empty(len(O))
    for lo in range(0, len(O), CHUNK):
        rows = slice(lo, lo + CHUNK)
        maps = _level_maps(order[rows], gamma, PI_STAR)
        q0 = np.einsum("nki,nk->ni", maps, np.take(gamma, order[rows]))
        dq = np.einsum("nki,nk->ni", maps, _take_rows(O[rows], order[rows])) - q0
        a, c = witness_batch(dq), witness_batch(q0) + TAU_F
        b = (4.0 * (q0[:, 0] * dq[:, 3] + q0[:, 3] * dq[:, 0])
             - 2.0 * (q0[:, 1] - q0[:, 2]) * (dq[:, 1] - dq[:, 2]))
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            r1, r2 = h / a, c / h
        in1, in2 = (r1 > 0) & (r1 <= 1), (r2 > 0) & (r2 <= 1)
        if not (in1 != in2).all():
            raise RuntimeError(f"{int((in1 == in2).sum())} boundary rays have no "
                               f"single root of f* = -{TAU_F:g} in (0, 1]")
        t[rows] = np.where(in1, r1, r2)
    return t


def _confirmed_ends(O: np.ndarray, gamma: np.ndarray, t: np.ndarray, step: float,
                    in_tne: bool) -> np.ndarray:
    """Ray points at t + step, clamped to [0, 1], whose ``fstar_batch``
    verdict is non-entanglable (``in_tne``) or entanglable.  A row whose
    verdict differs doubles its step until it agrees; at a step of 1 the
    points are gamma and o themselves."""
    steps = np.full(len(t), step)
    todo = np.arange(len(t))
    ends = np.empty_like(O)
    for _ in range(MAX_ITERS + 2):
        ends[todo] = _ray_points(O[todo], gamma, np.clip(t[todo] + steps[todo], 0.0, 1.0))
        todo = todo[(fstar_batch(ends[todo], gamma) >= -TAU_F) != in_tne]
        if not todo.size:
            return ends
        steps[todo] *= 2.0
    raise RuntimeError(f"{todo.size} boundary ends disagree with their verdict at gamma or o")


def tne_boundary(ctx: GibbsContext, grid: int, iters: int) -> BoundaryCloud:
    """Locate the thermally non-entanglable surface along the rays from the
    entanglable facet grid points o toward the Gibbs state gamma.

    On each ray f* is a quadratic in t (``_ray_roots``); its root t* gives
    the cloud point, and the bracket ends sit at t* -/+ 2^-(iters + 1),
    clamped to [0, 1] and confirmed by ``fstar_batch``, so the bracket is
    2^-iters wide along the ray (1 <= iters <= MAX_ITERS) unless a verdict
    widened it.

    Grid points that are not thermally entanglable (the lone exceptional
    boundary state, and its permutation images at beta = 0) are skipped.
    At infinite beta the set degenerates to the ground state, which is
    returned as a single-point cloud.
    """
    if ctx.dim != 4:
        raise ValueError("boundary construction is defined for 4-level systems")
    if not 1 <= iters <= MAX_ITERS:
        raise ValueError(f"iters must lie in 1..{MAX_ITERS}, got {iters}")
    _check_resolution(grid)
    if ctx.beta_is_infinite:
        ground = np.eye(1, 4)
        return BoundaryCloud(points=ground, inner_points=ground.copy(), outer_points=ground.copy())

    gamma = ctx.checked_gamma()
    grid_pts = simplex_facet_grid(grid)
    O = grid_pts[fstar_batch(grid_pts, gamma) < -TAU_F]
    t = _ray_roots(O, gamma)
    half = 2.0 ** -(iters + 1)
    return BoundaryCloud(points=_ray_points(O, gamma, t),
                         inner_points=_confirmed_ends(O, gamma, t, -half, True),
                         outer_points=_confirmed_ends(O, gamma, t, half, False))


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

#: volume of the embedded simplex, a regular tetrahedron of edge sqrt(2)
SIMPLEX_VOLUME = 1.0 / 3.0


def embed_simplex(points: np.ndarray) -> np.ndarray:
    """Isometric coordinates of simplex points in the 3-plane sum(p) = 1."""
    return (np.asarray(points) - 0.25) @ _EMBED


@dataclass(frozen=True)
class HullMesh:
    """Triangulated convex hull of a point cloud inside the simplex."""

    vertices: np.ndarray      # hull vertices, original simplex coordinates
    points3d: np.ndarray      # the same vertices, embedded coordinates
    faces: np.ndarray         # (m, 3) triangles indexing into vertices
    volume: float             # Euclidean volume in the embedding
    volume_fraction: float    # relative to the whole simplex

    def to_obj(self) -> str:
        lines = [f"v {x:.12g} {y:.12g} {z:.12g}" for x, y, z in self.points3d.tolist()]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in self.faces.tolist()]
        return "\n".join(lines) + "\n"


def convex_hull_export(cloud) -> HullMesh:
    """3-D convex hull of a boundary cloud, as vertex and face lists."""
    from scipy.spatial import ConvexHull, QhullError  # lazy: scipy.spatial dominates import time

    pts = cloud.points if isinstance(cloud, BoundaryCloud) else np.asarray(cloud, dtype=float)
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 points for a 3-D hull")
    coords = embed_simplex(pts)
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        raise ValueError(f"degenerate cloud: {exc}") from exc

    remap = np.empty(len(pts), dtype=int)  # each hull vertex's row in ``vertices``
    remap[hull.vertices] = np.arange(len(hull.vertices))
    faces = remap[hull.simplices]
    return HullMesh(
        vertices=pts[hull.vertices],
        points3d=coords[hull.vertices],
        faces=faces,
        volume=float(hull.volume),
        volume_fraction=float(hull.volume) / SIMPLEX_VOLUME,
    )

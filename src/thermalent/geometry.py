"""Volumes and geometry of the entanglable sets on the probability simplex.

Volumes are Monte Carlo fractions of uniform simplex samples passing a
membership predicate.  Sampling uses the counter-based Philox generator,
keyed per fixed-size block, so streams are reproducible bit-for-bit and can
be partitioned across workers without changing the result.  Each worker
classifies its blocks as one stream of level-major tiles of CHUNK samples,
which draws, sums and normalizes every tile into the same three buffers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import CHUNK, PI_STAR, GibbsContext, PopVector, is_two_qubit_context, row_blocks
from .entangle import _margin, fstar_batch, is_thermally_entanglable, witness_batch
from .majorization import _hinge_plan, _within_cone, batch_tight_points, tight_point_tiles

#: samples per RNG block, a multiple of CHUNK; one Philox key per block
BLOCK = 65536

SET_IDS = ("E", "NE", "TNE", "ENT_CONE")

#: most samples of a volume: minutes of work on one thread
MAX_SAMPLES = 10**10

#: most worker threads of a volume; the result does not depend on the count
MAX_THREADS = 64

#: largest facet grid resolution: the grid holds 2 m^2 + 2 points, about
#: 130k at the cap
MAX_GRID = 256

#: most bracket halvings of ``tne_boundary``: a bracket 2^-iters wide along
#: a ray of [0, 1] is the spacing of doubles near 1 at 52, and narrower ones
#: cannot be resolved
MAX_ITERS = 52


def ThreadPoolExecutor(max_workers: int):
    """A ``concurrent.futures.ThreadPoolExecutor``, imported on the first
    call: only a volume of more than one worker starts a pool, and the
    import (``logging`` with it) is dear on a cold start."""
    from concurrent.futures import ThreadPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def _check_seed(seed: int) -> None:
    """Reject a seed that is not a Philox key word, rather than alias it."""
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")


def _simplex_tiles(d: int, n: int, seed: int, blocks):
    """The uniform simplex points of the given ``blocks`` of an ``n``-sample
    stream, as level-major (d, m) tiles of up to CHUNK columns.  Block b
    holds the samples b BLOCK to min(n, (b + 1) BLOCK), drawn from the
    Philox key (seed, b); as BLOCK is a multiple of CHUNK, only a tile that
    ends at n is short.  A stream of more than CHUNK samples draws, sums and
    normalizes every tile into the three buffers of its first tile, which
    each later tile overwrites."""
    kept = []
    for b in blocks:
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        for lo in range(b * BLOCK, min(n, (b + 1) * BLOCK), CHUNK):
            yield _normalized(gen, min(CHUNK, n - lo), d, kept if n > CHUNK else [])


def _normalized(gen: np.random.Generator, m: int, d: int, buffers: list) -> np.ndarray:
    """m rows of d standard exponentials drawn from ``gen``, each divided by
    its sum, as a level-major (d, m) tile.  The draws, their sums and the
    tile fill contiguous prefixes of the three flat ``buffers``; an empty
    list first gets three sized for this tile.  A stream of one tile passes
    a new list, so that its draws are freed before the tile's next steps."""
    if not buffers:
        buffers += np.empty(m * d), np.empty(m), np.empty(m * d)
    draws, sums, tile = buffers
    e, s = gen.standard_exponential(out=draws[:m * d].reshape(m, d)), sums[:m]
    # numpy sums a row of fewer than 8 entries left to right, as these column
    # adds do (d >= 2), and pairwise from 8 on
    if d < 8:
        np.add(e[:, 0], e[:, 1], out=s)
        for k in range(2, d):
            s += e[:, k]
    else:
        e.sum(axis=1, out=s)
    return np.divide(e.T, s, out=tile[:m * d].reshape(d, m))


def sample_simplex_array(d: int, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. uniform points of the (d-1)-simplex, as an (n, d) array.

    Normalized exponential spacings; deterministic per seed, and any prefix
    of the stream is independent of the total ``n`` requested.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_seed(seed)
    out = np.empty((n, d))
    tiles = _simplex_tiles(d, n, seed, range(-(-n // BLOCK)))
    for lo, tile in zip(range(0, n, CHUNK), tiles):
        out[lo:lo + tile.shape[1]] = tile.T
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
    """Monte Carlo volume fraction of one of the entanglability sets, from
    at most MAX_SAMPLES samples.

    ``origin`` is required for ENT_CONE (the future thermal cone of
    entanglement of that state), and rejected for any other set.  Every tile
    ANDs the origin's hinge test (``majorization._hinge_plan``) into its
    witness mask.  An origin that no thermal process entangles reaches no
    entangled state, so where the plan has a kink and the verdict
    (``is_thermally_entanglable``) is non-entanglable, the estimate of zero
    hits returns without drawing, with ``n_samples`` and ``std_error`` as if
    sampled; an empty plan is a cone of the whole simplex.
    ``threads`` workers split the blocks, at most MAX_THREADS and one per
    block; a single worker runs in this thread, and only more than one start
    a pool (``ThreadPoolExecutor``).
    """
    if set_id not in SET_IDS:
        raise ValueError(f"unknown set id {set_id!r}; expected one of {SET_IDS}")
    if (set_id == "ENT_CONE") != (origin is not None):
        raise ValueError("ENT_CONE volume requires an origin state, and no other set takes one")
    if not 0 < n <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in 1..{MAX_SAMPLES}, got {n}")
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    _check_seed(seed)
    if not is_two_qubit_context(ctx):
        raise ValueError("volume predicates are defined for two-qubit (0, E, E, 2E) spectra")
    # the dominance test of the origin; only ENT_CONE has one
    plan = _hinge_plan(origin, ctx) if set_id == "ENT_CONE" else []
    if plan and not is_thermally_entanglable(origin, ctx).in_TE:
        return VolumeEstimate.from_counts(0, n, seed)
    # the non-entanglable sets count a verdict margin >= 0, the others one below
    compare = np.greater_equal if set_id in ("NE", "TNE") else np.less

    def hits(Q):
        return int(np.count_nonzero(_within_cone(plan, Q, compare(
            _margin(witness_batch(Q.T)), 0.0))))

    def count(blocks):
        # one stream of tiles per worker; ``map`` lets go of a tile before the next
        Qs = _simplex_tiles(4, n, seed, blocks)
        if set_id == "TNE":
            Qs = tight_point_tiles(Qs, ctx.checked_gamma(), PI_STAR)
        return sum(map(hits, Qs))

    # blocks are drawn lazily, so the set-up does not grow with n; worker w
    # takes blocks w, w + workers, ...
    blocks = -(-n // BLOCK)
    workers = min(threads, blocks, MAX_THREADS)
    if workers == 1:
        return VolumeEstimate.from_counts(count(range(blocks)), n, seed)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        hits = sum(pool.map(count, (range(w, blocks, workers) for w in range(workers))))
    return VolumeEstimate.from_counts(hits, n, seed)


@dataclass(frozen=True, eq=False)
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
    """(1 - t) gamma + t o for each row o: exactly gamma at t = 0 and o at t = 1.
    The sum is made in the one (n, 4) array of the products t o, a level at
    a time."""
    P, u = t[:, None] * O, 1.0 - t
    for j, g in enumerate(gamma):
        P[:, j] += u * g
    return P


def _ray_roots(dq: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The root t* in (0, 1] of the verdict margin of f* along each ray from
    gamma (t = 0) to a row o of an entanglable O (t = 1), given the rows dq =
    q(o) - gamma of o's (2,1,3,4) tight points q(o).

    Along the ray every ratio p_i/gamma_i - 1 is t (o_i/gamma_i - 1), so o's
    level ordering, and with it the map of the (2,1,3,4) tight point, holds
    for all t > 0.  That map sends gamma, whose curve is the diagonal, to
    itself, so the tight point is gamma + t dq and the margin is the
    quadratic a t^2 + b t + margin(f*(gamma)), solved in the stable form of
    the formula; the temporaries are (n, 4), with n <= 2 MAX_GRID^2 + 2.
    Raises RuntimeError unless each ray has exactly one root in (0, 1].
    """
    a, c = witness_batch(dq), _margin(witness_batch(gamma[None, :]))[0]
    b = (4.0 * (gamma[0] * dq[:, 3] + gamma[3] * dq[:, 0])
         - 2.0 * (gamma[1] - gamma[2]) * (dq[:, 1] - dq[:, 2]))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        r1, r2 = h / a, c / h
    in1, in2 = (r1 > 0) & (r1 <= 1), (r2 > 0) & (r2 <= 1)
    if not (in1 != in2).all():
        raise RuntimeError(f"{int((in1 == in2).sum())} boundary rays have no "
                           "single root of the verdict margin in (0, 1]")
    return np.where(in1, r1, r2)


def _confirmed_ends(O: np.ndarray, gamma: np.ndarray, t: np.ndarray, step: float) -> np.ndarray:
    """Ray points at t + step, clamped to [0, 1], whose ``fstar_batch``
    verdict is non-entanglable for a step toward gamma (step < 0), and
    entanglable for one toward o.  A row whose verdict differs doubles its
    step until it agrees; at a step of 1 the points are gamma and o
    themselves.  The first round reads every row in place; a later one reads
    only the rows still to confirm."""
    def disagree(P):
        return (_margin(fstar_batch(P, gamma)) >= 0.0) != (step < 0)

    ends = _ray_points(O, gamma, np.clip(t + step, 0.0, 1.0))
    todo = np.flatnonzero(disagree(ends))
    steps = np.full(todo.size, step)
    for _ in range(MAX_ITERS + 1):
        if not todo.size:
            return ends
        steps *= 2.0
        ends[todo] = _ray_points(O[todo], gamma, np.clip(t[todo] + steps, 0.0, 1.0))
        keep = disagree(ends[todo])
        todo, steps = todo[keep], steps[keep]
    if todo.size:
        raise RuntimeError(f"{todo.size} boundary ends disagree with their verdict at gamma or o")
    return ends


def tne_boundary(ctx: GibbsContext, grid: int, iters: int) -> BoundaryCloud:
    """Locate the thermally non-entanglable surface along the rays from the
    entanglable facet grid points o toward the Gibbs state gamma.

    On each ray f* is a quadratic in t (``_ray_roots``, fed by the grid's
    one tight-point pass); its root t* gives the cloud point, and the
    bracket ends sit at t* -/+ 2^-(iters + 1), clamped to [0, 1] and
    confirmed by ``fstar_batch``, so the bracket is 2^-iters wide along the
    ray (1 <= iters <= MAX_ITERS) unless a verdict widened it.

    Grid points that are not thermally entanglable (the lone exceptional
    boundary state, and its permutation images at beta = 0) are skipped.
    At infinite beta the set degenerates to the ground state, which is
    returned as a single-point cloud.
    """
    if not is_two_qubit_context(ctx):
        raise ValueError("boundary construction is defined for two-qubit (0, E, E, 2E) spectra")
    if not 1 <= iters <= MAX_ITERS:
        raise ValueError(f"iters must lie in 1..{MAX_ITERS}, got {iters}")
    _check_resolution(grid)
    if ctx.beta_is_infinite:
        ground = np.eye(1, 4)
        return BoundaryCloud(points=ground, inner_points=ground.copy(), outer_points=ground.copy())

    gamma = ctx.checked_gamma()
    O = simplex_facet_grid(grid)
    Q = batch_tight_points(O, gamma, PI_STAR)
    keep = _margin(witness_batch(Q)) < 0.0
    O, Q = O[keep], Q[keep]  # the entanglable rows; the full grid's are freed
    t = _ray_roots(np.subtract(Q, gamma, out=Q), gamma)
    del Q  # not read again: freed before the ends are confirmed
    half = 2.0 ** -(iters + 1)
    return BoundaryCloud(points=_ray_points(O, gamma, t),
                         inner_points=_confirmed_ends(O, gamma, t, -half),
                         outer_points=_confirmed_ends(O, gamma, t, half))


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


@dataclass(frozen=True, eq=False)
class HullMesh:
    """Triangulated convex hull of a point cloud inside the simplex."""

    vertices: np.ndarray      # hull vertices, original simplex coordinates
    points3d: np.ndarray      # the same vertices, embedded coordinates
    faces: np.ndarray         # (m, 3) triangles indexing into vertices
    volume: float             # Euclidean volume in the embedding
    volume_fraction: float    # relative to the whole simplex

    def to_obj(self) -> str:
        """OBJ text: ``v x y z`` lines at ``%.12g``, then ``f a b c`` lines, 1-based."""
        lines = (("v %.12g %.12g %.12g\n", self.points3d), ("f %d %d %d\n", self.faces + 1))
        return "".join(row * len(b) % tuple(v) for row, a in lines for b, v in row_blocks(a))


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

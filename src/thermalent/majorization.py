"""Thermomajorization curves, the induced preorder, and future thermal cones.

A curve is the concave piecewise-linear function through the cumulative
(Gibbs weight, population) sums taken in the state's level ordering
(Horodecki & Oppenheim, Nat. Commun. 4, 2059, 2013).  State ``p`` can reach
``q`` by a thermal process iff p's curve dominates q's everywhere; the
reachable set is a polytope whose extreme points are the tight-majorized
states, one per level ordering.

One batch kernel (``batch_curves``, ``batch_eval``) serves every beta.  Zero
Gibbs weights (infinite beta) produce zero-width curve segments; the kernel
evaluates each as a step at its left edge, so the vertical jump at x=0 stays
exact and a target at x=0 reads the top of the jump.  The single-state
functions are calls on a batch of one row.

With one Gibbs vector shared by a batch, a curve's elbow positions depend on
the state only through its level ordering sigma (one of d!), and its heights
are linear in the populations.  So the tight point of a target ordering is a
linear map of p fixed by sigma, q = M_sigma p: the beta-permutations of de
Oliveira Junior, Czartowski, Zyczkowski & Korzekwa, Phys. Rev. E 106, 064109
(2022).  The batch calls walk their rows in tiles of CHUNK rows, so no
temporary grows with the batch.  A row's ordering is fixed by its d(d-1)/2
pairwise ratio comparisons, packed into a pair code
(``core.ordering_codes``); up to MAX_DENSE_DIM = 6 levels (every spectrum
the package defines) the code indexes a table of the ordering of every code,
above each tile groups its orderings with ``np.unique``.  The maps of the
orderings seen are built once per call, with one ``batch_eval`` call on unit
rises.  ``tight_point_tiles`` applies them tile by tile
(``batch_tight_points`` gathers the tiles, ``entangle.fstar_batch`` takes
the witness of each); ``batch_majorizes`` reads the origin's curve once per
ordering seen.  Per-row Gibbs vectors take each row's own curve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_DENSE_DIM,
    BetaOrdering,
    GibbsContext,
    PopVector,
    _readonly,
    batch_order,
    code_orders,
    ordering_codes,
)

#: comparison tolerance for curve dominance and extreme-point dedup
TAU_CMP = 1e-10

#: largest dimension for which all d! orderings are enumerated
MAX_ENUM_DIM = 8

#: rows per tile of the batch calls.  The largest temporary of a tile is its
#: gathered maps, CHUNK x d x d doubles (512 KB at four levels), so the
#: working set of a 65,536-row volume block stays resident between calls;
#: 4,096 ran ``mc-finite`` faster than 8,192 in paired benchmark runs
CHUNK = 4096


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear majorization curve stored as elbow points.

    ``xs[0], ys[0] == 0, 0``; a duplicated ``x == 0`` entry encodes the
    vertical jump contributed by populated levels of zero Gibbs weight.
    """

    xs: np.ndarray = field(compare=False)
    ys: np.ndarray = field(compare=False)

    @property
    def jump_top(self) -> float:
        """Curve value immediately to the right of x=0 (0 unless a jump exists)."""
        return float(self.ys[1]) if self.xs[1] == 0.0 else 0.0

    def evaluate_upper(self, x):
        """Interpolate, resolving the x=0 jump to its upper value."""
        start = 1 if self.xs[1] == 0.0 else 0
        return np.interp(x, self.xs[start:], self.ys[start:])

    def evaluate(self, x: float) -> float:
        """Curve value at ``x`` in [0, 1]; exactly 0 at x=0."""
        if x < -1e-12 or x > 1 + 1e-12:
            raise ValueError(f"x={x} outside [0, 1]")
        x = min(max(x, 0.0), 1.0)
        if x == 0.0:
            return 0.0
        return float(self.evaluate_upper(x))


def evaluate(curve: ThermoCurve, x: float) -> float:
    return curve.evaluate(x)


def _check_dims(ctx: GibbsContext, *objs) -> None:
    if any(o.dim != ctx.dim for o in objs):
        raise ValueError("dimension mismatch")


def curve(p: PopVector, ctx: GibbsContext) -> ThermoCurve:
    """Thermomajorization curve of ``p`` in the context ``ctx``."""
    _check_dims(ctx, p)
    _, X, Y = batch_curves(p.probs[None, :], ctx.checked_gamma())
    xs = np.concatenate([[0.0], X[0]])
    ys = np.concatenate([[0.0], Y[0]])
    # a zero-width run keeps only its top point; the origin always stays
    keep = np.append(xs[:-1] != xs[1:], True)
    keep[0] = True
    return ThermoCurve(xs=_readonly(xs[keep]), ys=_readonly(ys[keep]))


def thermo_majorizes(p: PopVector, q: PopVector, ctx: GibbsContext,
                     tol: float = TAU_CMP) -> bool:
    """True iff p's curve dominates q's everywhere (``batch_majorizes`` on one row)."""
    _check_dims(ctx, p, q)
    return bool(batch_majorizes(p, q.probs[None, :], ctx, tol)[0])


def extreme_point(p: PopVector, ctx: GibbsContext, target: BetaOrdering) -> PopVector:
    """Tight-majorized state whose ordering is ``target``.

    Its curve elbows sit on p's curve at the cumulative Gibbs weights of the
    target ordering; populations are the consecutive height differences,
    returned in level order.
    """
    _check_dims(ctx, p, target)
    return PopVector(batch_tight_points(p.probs[None, :], ctx.checked_gamma(), target)[0])


@dataclass(frozen=True)
class ThermalCone:
    """Future thermal cone: the states reachable from ``origin``."""

    origin: PopVector
    ctx: GibbsContext
    extremes: tuple  # ((BetaOrdering, PopVector), ...) deduplicated

    @property
    def points(self) -> np.ndarray:
        return np.array([v.probs for _, v in self.extremes])

    def contains(self, q: PopVector) -> bool:
        return cone_contains(self, q)


def _dedup(points, tol):
    """Indices of the distinct points, in increasing order.

    Points are taken in index order, and each is kept unless a kept point
    lies within ``tol`` of it (max norm).  Kept points are therefore more
    than ``tol`` apart, and each is the first of the points it stands for.
    The kept points near a point are sought among those whose first
    coordinate is within ``tol`` of its own.
    """
    pts = np.asarray(points)
    by_first = np.argsort(pts[:, 0], kind="stable")
    firsts = pts[by_first, 0]
    lo = np.searchsorted(firsts, pts[:, 0] - tol, side="left").tolist()
    hi = np.searchsorted(firsts, pts[:, 0] + tol, side="right").tolist()
    kept = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        near = by_first[lo[i]:hi[i]]
        near = near[kept[near]]
        kept[i] = near.size == 0 or not (np.abs(pts[near] - pts[i]).max(axis=1) <= tol).any()
    return np.flatnonzero(kept).tolist()


def future_cone(p: PopVector, ctx: GibbsContext) -> ThermalCone:
    """Evaluate all d! tight-majorized states in one call and keep the distinct ones.

    Each row relabels the levels by its target ordering, which leaves the
    curve unchanged and makes every row's target the identity.
    """
    d = p.dim
    _check_dims(ctx, p)
    if d > MAX_ENUM_DIM:
        raise ValueError(f"dimension {d} too large for {d}! enumeration")
    targets = np.array(list(itertools.permutations(range(d))))
    relabelled = batch_tight_points(p.probs[targets], ctx.checked_gamma()[targets],
                                    BetaOrdering(range(1, d + 1)))
    points = np.empty_like(relabelled)
    np.put_along_axis(points, targets, relabelled, axis=1)
    keep = _dedup(points, TAU_CMP)
    extremes = tuple((BetaOrdering(targets[i] + 1), PopVector(points[i])) for i in keep)
    return ThermalCone(origin=p, ctx=ctx, extremes=extremes)


def cone_contains(cone: ThermalCone, q: PopVector) -> bool:
    """Membership via dominance of the origin's curve (transitivity makes
    this equivalent to checking every extreme point)."""
    return thermo_majorizes(cone.origin, q, cone.ctx)


# ---------------------------------------------------------------------------
# The batch kernel, exact at every beta.  Rows of P are states; gammas is a
# matching (n, d) array or a single shared (d,) Gibbs vector, in which a zero
# weight means infinite beta.
# ---------------------------------------------------------------------------

def _take_rows(A: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``A[r, order[r]]`` for every row r; a 1-d ``A`` is shared by all rows."""
    if A.ndim == 1:
        return np.take(A, order)
    return np.take(A, order + np.arange(0, A.size, A.shape[1])[:, None])


def batch_curves(P: np.ndarray, gammas: np.ndarray):
    """Per-row ordering and cumulative-sum elbows for a batch of states."""
    P = np.asarray(P, dtype=float)
    order = batch_order(P, gammas)
    X = np.cumsum(_take_rows(np.asarray(gammas, dtype=float), order), axis=1)
    Y = np.cumsum(_take_rows(P, order), axis=1)
    return order, X, Y


def batch_eval(X: np.ndarray, Y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Evaluate each row's piecewise-linear curve at that row's targets.

    Computed as a sum over segments of each segment's rise times the covered
    fraction of its width, which avoids a per-row searchsorted.  A zero-width
    segment is a step at its left edge: a target at or right of that edge
    gets its whole rise.
    """
    X0 = np.concatenate([np.zeros((X.shape[0], 1)), X[:, :-1]], axis=1)
    W = X - X0
    step = (W == 0)[:, None, :]
    F = T[:, :, None] - X0[:, None, :]
    F /= np.where(step, 1.0, W[:, None, :])
    np.copyto(F, F >= 0, where=step)
    np.clip(F, 0.0, 1.0, out=F)
    return np.einsum("nts,ns->nt", F, np.diff(Y, prepend=0.0, axis=1))


def _ordering_classes(order: np.ndarray):
    """The distinct orderings of a batch, in lexicographic order, and each
    row's index among them."""
    classes, inverse = np.unique(order, axis=0, return_inverse=True)
    return classes, inverse.ravel()


def _grouped_tiles(P: np.ndarray, gamma: np.ndarray, build):
    """Walk the rows of P in tiles of CHUNK rows, grouped by level ordering.

    Yields ``(lo, sorted_p, table, cls)`` per tile: the tile's populations
    in each row's level ordering, ``build(orderings)`` stacked for the
    orderings seen so far, and each row's index into it.  Up to
    MAX_DENSE_DIM levels a row's pair code names its ordering, and ``build``
    runs once per call, on the codes that no earlier tile had; above, each
    tile groups its orderings with ``np.unique`` and builds its own table.
    """
    n, d = P.shape
    dense = d <= MAX_DENSE_DIM
    if dense:
        orders = code_orders(d)
        cls_of = np.full(len(orders), -1)  # each code's row of the table, -1 until seen
    for lo in range(0, n, CHUNK):
        Pt = P[lo:lo + CHUNK]
        if not dense:
            order = batch_order(Pt, gamma)
            classes, cls = _ordering_classes(order)
            yield lo, _take_rows(Pt, order), build(classes), cls
            continue
        code = ordering_codes(Pt, gamma)
        cls = cls_of[code]
        if cls.min() < 0:
            fresh = np.flatnonzero(np.bincount(code[cls < 0], minlength=len(orders)))
            new = build(orders[fresh])
            # every row of the first tile is fresh, so its table is all new
            table = new if lo == 0 else np.concatenate([table, new])
            cls_of[fresh] = np.arange(len(table) - len(fresh), len(table))
            cls = cls_of[code]
        yield lo, _take_rows(Pt, np.take(orders, code, axis=0)), table, cls


def _tight_maps(classes: np.ndarray, gamma: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """Linear maps from a state's sorted populations to its tight point.

    A state ordered as ``classes[c]`` has the curve elbows
    cumsum(gamma[classes[c]]) and the rises r = p[classes[c]], so its tight
    point is linear in r: q[i] = sum_k maps[c, k, i] r[k].  One
    ``batch_eval`` with unit rises (segment k rises by e_k) gives the
    heights at the target elbows for every class.
    """
    m, d = classes.shape
    X = np.repeat(np.cumsum(gamma[classes], axis=1), d, axis=0)
    units = np.tile(np.triu(np.ones((d, d))), (m, 1))
    heights = batch_eval(X, units, np.cumsum(gamma[t0])[None, :]).reshape(m, d, d)
    maps = np.empty_like(heights)
    maps[:, :, t0] = np.diff(heights, prepend=0.0, axis=2)
    return maps


def tight_point_tiles(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering):
    """Extreme point of every row's cone for one shared target ordering,
    one tile of at most CHUNK rows at a time: yields ``(lo, q)``.

    With one shared (d,) Gibbs vector, each row's sorted populations go
    through the map of its ordering (``_tight_maps``), built once per call
    for each ordering seen; per-row gammas evaluate every row's own curve.
    The maps act on the sorted populations, so swapping the populations of
    two levels of equal weight swaps the tight point exactly.
    """
    P = np.asarray(P, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    t0 = target.zero_based()
    if gammas.ndim == 1:
        tiles = _grouped_tiles(P, gammas, lambda orders: _tight_maps(orders, gammas, t0))
        for lo, sorted_p, maps, cls in tiles:
            q = np.einsum("nki,nk->ni", np.take(maps, cls, axis=0), sorted_p)
            yield lo, np.clip(q, 0.0, None, out=q)
        return
    for lo in range(0, P.shape[0], CHUNK):
        Pt, Gt = P[lo:lo + CHUNK], gammas[lo:lo + CHUNK]
        _, X, Y = batch_curves(Pt, Gt)
        Yt = batch_eval(X, Y, np.cumsum(Gt[:, t0], axis=1))
        q = np.empty_like(Pt)
        q[:, t0] = np.diff(Yt, prepend=0.0, axis=1)
        yield lo, np.clip(q, 0.0, None, out=q)


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering
    (``tight_point_tiles`` gathered into one array)."""
    P = np.asarray(P, dtype=float)
    out = np.empty_like(P)
    for lo, q in tight_point_tiles(P, gammas, target):
        out[lo:lo + len(q)] = q
    return out


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext,
                    tol: float = TAU_CMP) -> np.ndarray:
    """Dominance of a fixed origin's curve over each row of ``Q``.

    By concavity it suffices to test at each row's own elbows, which depend
    only on the row's ordering: the origin's curve is read once per call
    for each ordering seen (at x=0, at the top of its jump).  Rows go in
    tiles of CHUNK; the cumulative sums and the test run column by column,
    which adds in the same order as ``np.cumsum``.
    """
    c = curve(origin, ctx)
    gamma = ctx.checked_gamma()
    Q = np.asarray(Q, dtype=float)
    ok = np.ones(Q.shape[0], dtype=bool)

    def heights_of(orders):
        return c.evaluate_upper(np.cumsum(gamma[orders], axis=1))

    for lo, sorted_q, heights, cls in _grouped_tiles(Q, gamma, heights_of):
        okb, y = ok[lo:lo + len(cls)], np.zeros(len(cls))
        for k in range(Q.shape[1]):
            y += sorted_q[:, k]
            okb &= heights[:, k][cls] >= y - tol
    return ok

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
(2022).  Each block groups its rows by ordering, up to MAX_DENSE_DIM = 6
levels (every spectrum the package defines) through a dense table indexed
by the ordering's radix code, above by ``np.unique`` over the rows, and
builds the maps of the orderings present with one ``batch_eval`` call on
unit rises.  ``batch_tight_points`` applies the maps; ``batch_majorizes``
reads the origin's curve once per ordering present.  Per-row Gibbs vectors
take each row's own curve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import BetaOrdering, GibbsContext, PopVector, _readonly, batch_order

#: comparison tolerance for curve dominance and extreme-point dedup
TAU_CMP = 1e-10

#: largest dimension for which all d! orderings are enumerated
MAX_ENUM_DIM = 8

#: largest dimension whose orderings are found through a dense table of
#: d^(d-1) entries; it covers every spectrum the package defines
MAX_DENSE_DIM = 6

#: rows per block in the batch calls, which bounds their temporaries
CHUNK = 200_000


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

def batch_curves(P: np.ndarray, gammas: np.ndarray):
    """Per-row ordering and cumulative-sum elbows for a batch of states."""
    P = np.asarray(P, dtype=float)
    order = batch_order(P, gammas)
    G = np.broadcast_to(np.asarray(gammas, dtype=float), P.shape)
    X = np.cumsum(np.take_along_axis(G, order, axis=1), axis=1)
    Y = np.cumsum(np.take_along_axis(P, order, axis=1), axis=1)
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
    row's index among them.

    Up to MAX_DENSE_DIM levels rows are grouped through a dense table indexed
    by a radix-d code of their first d-1 entries, which fix the last (d^(d-1)
    entries, one pass over the rows); above, by ``np.unique`` over the rows,
    which sorts them.
    """
    n, d = order.shape
    if d > MAX_DENSE_DIM:
        classes, inverse = np.unique(order, axis=0, return_inverse=True)
        return classes, inverse.ravel()
    code = order[:, 0]
    for k in range(1, d - 1):
        code = code * d + order[:, k]
    row_of = np.full(d ** (d - 1), -1)
    row_of[code] = np.arange(n)
    present = row_of >= 0
    return order[row_of[present]], (np.cumsum(present) - 1)[code]


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
    T = np.broadcast_to(np.cumsum(gamma[t0]), (m * d, d))
    heights = batch_eval(X, units, T).reshape(m, d, d)
    maps = np.empty_like(heights)
    maps[:, :, t0] = np.diff(heights, prepend=0.0, axis=2)
    return maps


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering.

    With one shared (d,) Gibbs vector, each block applies the map of each
    row's ordering (``_tight_maps``), built once per ordering present, to
    the row's sorted populations; per-row gammas evaluate every row's own
    curve.  The maps act on the sorted populations, so swapping the
    populations of two levels of equal weight swaps the tight point exactly.
    Blocks hold CHUNK // d rows, which keeps the temporaries of a block,
    the maps' construction included, within about CHUNK * d^2 doubles.
    """
    P = np.asarray(P, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    t0 = target.zero_based()
    rows = max(CHUNK // P.shape[1], 1)
    out = np.empty_like(P)
    for lo in range(0, P.shape[0], rows):
        Pb = P[lo:lo + rows]
        if gammas.ndim == 1:
            order = batch_order(Pb, gammas)
            classes, inverse = _ordering_classes(order)
            maps = np.take(_tight_maps(classes, gammas, t0), inverse, axis=0)
            block = np.einsum("nki,nk->ni", maps, np.take_along_axis(Pb, order, axis=1))
        else:
            Gb = gammas[lo:lo + rows]
            _, X, Y = batch_curves(Pb, Gb)
            Yt = batch_eval(X, Y, np.cumsum(Gb[:, t0], axis=1))
            block = np.empty_like(Pb)
            block[:, t0] = np.diff(Yt, prepend=0.0, axis=1)
        np.clip(block, 0.0, None, out=out[lo:lo + rows])
    return out


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext,
                    tol: float = TAU_CMP) -> np.ndarray:
    """Dominance of a fixed origin's curve over each row of ``Q``.

    By concavity it suffices to test at each row's own elbows, which depend
    only on the row's ordering: the origin's curve is read once per ordering
    present (at x=0, at the top of its jump).  The cumulative sums and the
    test run column by column, which adds in the same order as
    ``np.cumsum``.
    """
    c = curve(origin, ctx)
    gamma = ctx.checked_gamma()
    Q = np.asarray(Q, dtype=float)
    ok = np.ones(Q.shape[0], dtype=bool)
    for lo in range(0, Q.shape[0], CHUNK):
        Qb = Q[lo:lo + CHUNK]
        order = batch_order(Qb, gamma)
        classes, inverse = _ordering_classes(order)
        heights = c.evaluate_upper(np.cumsum(gamma[classes], axis=1)).T
        sorted_q = np.take_along_axis(Qb, order, axis=1).T
        okb, y = ok[lo:lo + CHUNK], np.zeros(Qb.shape[0])
        for k in range(Q.shape[1]):
            y += sorted_q[k]
            okb &= heights[k][inverse] >= y - tol
    return ok

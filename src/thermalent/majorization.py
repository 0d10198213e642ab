"""Thermomajorization curves, the induced preorder, and future thermal cones.

A curve is the concave piecewise-linear function through the cumulative
(Gibbs weight, population) sums taken in the state's level ordering
(Horodecki & Oppenheim, Nat. Commun. 4, 2059, 2013).  State ``p`` can reach
``q`` by a thermal process iff p's curve dominates q's everywhere; the
reachable set is a polytope whose extreme points are the tight-majorized
states, one per level ordering.

One batch kernel (``batch_curves``, ``batch_eval``) serves every beta, and
``batch_eval`` is the only curve evaluator.  Zero Gibbs weights (infinite
beta) produce zero-width curve segments; the kernel evaluates each as a step
at its left edge, so the vertical jump at x=0 stays exact and a target at
x=0 reads the top of the jump.

For a Gibbs vector gamma, a curve's elbow positions depend on the state only
through its level ordering sigma, and its heights are linear in the
populations, so a tight point is a linear map of the sorted populations,
q = M_sigma p (``_tight_maps``): the beta-permutations of de Oliveira
Junior, Czartowski, Zyczkowski & Korzekwa, Phys. Rev. E 106, 064109 (2022).
Every tight point goes through these maps: ``tight_point_tiles`` builds
them once per stream for each ordering seen when the rows share gamma, and
one per row when each row has its own (the critical-temperature scan),
``all_extreme_points`` builds those of all d! targets for one state, and
``geometry.tne_boundary`` reads f* along each ray from one map.  The
orderings come from packed pairwise comparisons (``core.ordering_codes``).
The kernel walks streams of row tiles, of CHUNK rows for an array (``volume``
streams its samples), so no temporary grows with the batch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CHUNK,
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


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear majorization curve stored as elbow points.

    ``xs[0], ys[0] == 0, 0``; a duplicated ``x == 0`` entry encodes the
    vertical jump contributed by populated levels of zero Gibbs weight.
    """

    xs: np.ndarray = field(compare=False)
    ys: np.ndarray = field(compare=False)

    def evaluate_upper(self, x):
        """Curve value at ``x`` (a number or an array); at x=0 the top of the
        jump.  CHUNK points at a time, so the temporary is CHUNK x levels."""
        x = np.asarray(x, dtype=float)
        X, Y, flat = self.xs[None, 1:], self.ys[None, 1:], x.reshape(1, -1)
        return np.concatenate([batch_eval(X, Y, flat[:, lo:lo + CHUNK])
                               for lo in range(0, max(x.size, 1), CHUNK)], axis=1).reshape(x.shape)

    def evaluate(self, x):
        """Curve value at ``x`` in [0, 1], a number or an array; exactly 0 at x=0."""
        x = np.asarray(x, dtype=float)
        inside = (x >= -1e-12) & (x <= 1 + 1e-12)
        if not inside.all():
            raise ValueError(f"x={x[~inside].flat[0]} outside [0, 1]")
        y = np.where(x <= 0.0, 0.0, self.evaluate_upper(np.clip(x, 0.0, 1.0)))
        return float(y) if y.ndim == 0 else y


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


def thermo_majorizes(p: PopVector, q: PopVector, ctx: GibbsContext) -> bool:
    """True iff p's curve dominates q's everywhere (``batch_majorizes`` on one row)."""
    _check_dims(ctx, p, q)
    return bool(batch_majorizes(p, q.probs[None, :], ctx)[0])


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
    """Future thermal cone: the states reachable from ``origin``.  A state q
    lies in it iff ``thermo_majorizes(origin, q, ctx)``.  Row k of the
    read-only (k, d) arrays holds a distinct extreme point (``points``) and
    the 1-based target ordering that first reaches it (``orders``)."""

    origin: PopVector
    ctx: GibbsContext
    orders: np.ndarray = field(compare=False)
    points: np.ndarray = field(compare=False)


def _dedup(points, tol):
    """Indices of the distinct points, in increasing order: in index order,
    a point is kept unless a kept point lies within ``tol`` of it (max norm),
    sought among those whose first coordinate is within ``tol``.  Each kept
    point is the first of the points it stands for.
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


def all_extreme_points(p: PopVector, ctx: GibbsContext):
    """``(targets, points)``: the d! zero-based target orderings in
    lexicographic order and the tight-majorized state of each, equal to its
    ``extreme_point``.  p is ordered once; the targets go in tiles of CHUNK."""
    d = p.dim
    _check_dims(ctx, p)
    if d > MAX_ENUM_DIM:
        raise ValueError(f"dimension {d} too large for {d}! enumeration")
    gamma = ctx.checked_gamma()
    order = batch_order(p.probs[None, :], gamma)
    sorted_p = _take_rows(p.probs, order)
    targets = np.array(list(itertools.permutations(range(d))))
    points = np.empty(targets.shape)
    for lo in range(0, len(targets), CHUNK):
        t = targets[lo:lo + CHUNK]
        q = _tight(_tight_maps(order, gamma, t), np.repeat(sorted_p, len(t), axis=0))
        np.put_along_axis(points[lo:lo + CHUNK], t, q, axis=1)
    return targets, points


def future_cone(p: PopVector, ctx: GibbsContext) -> ThermalCone:
    """The rows of ``all_extreme_points`` that ``_dedup`` keeps: the distinct
    extreme points, each named by the first target ordering that reaches it."""
    targets, points = all_extreme_points(p, ctx)
    kept = _dedup(points, TAU_CMP)
    return ThermalCone(origin=p, ctx=ctx, orders=_readonly(targets[kept] + 1),
                       points=_readonly(points[kept]))


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


def _covered(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Covered fraction F[n, t, s] of segment s of row n's curve, whose
    elbows are X, at the row's target T[n, t]; rows of X and T broadcast.
    A zero-width segment is a step at its left edge: a target at or right of
    that edge covers all of it."""
    X0 = np.concatenate([np.zeros((X.shape[0], 1)), X[:, :-1]], axis=1)
    W = X - X0
    step = (W == 0)[:, None, :]
    F = T[:, :, None] - X0[:, None, :]
    F /= np.where(step, 1.0, W[:, None, :])
    np.copyto(F, F >= 0, where=step)
    return np.clip(F, 0.0, 1.0, out=F)


def batch_eval(X: np.ndarray, Y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Evaluate each row's piecewise-linear curve at that row's targets: the
    sum over segments of each rise times its covered fraction, which avoids
    a per-row searchsorted."""
    return np.einsum("nts,ns->nt", _covered(X, T), np.diff(Y, prepend=0.0, axis=1))


def _row_tiles(P: np.ndarray):
    """The rows of P in tiles of CHUNK rows."""
    return (P[lo:lo + CHUNK] for lo in range(0, len(P), CHUNK))


def _grouped_tiles(tiles, gamma: np.ndarray, build):
    """Walk a stream of row tiles (``_row_tiles(P)`` for an array), grouped
    by level ordering.

    Yields ``(lo, sorted_p, table, cls)`` per non-empty tile: the stream
    offset of its first row, its populations in each row's level ordering,
    ``build(orderings)`` stacked for the orderings seen so far, and each
    row's index into it.  Up to MAX_DENSE_DIM levels a row's pair code names
    its ordering, and ``build`` runs once per stream, on the codes that no
    earlier tile had; above, each tile groups its orderings with
    ``np.unique`` and builds its own table.
    """
    lo, n, table = 0, 0, None
    for Pt in tiles:
        lo, (n, d) = lo + n, Pt.shape
        if not n:
            continue
        if d > MAX_DENSE_DIM:
            order = batch_order(Pt, gamma)
            classes, cls = np.unique(order, axis=0, return_inverse=True)
            yield lo, _take_rows(Pt, order), build(classes), cls.ravel()
            continue
        orders, code = code_orders(d), ordering_codes(Pt, gamma)
        if table is None:
            cls_of = np.full(len(orders), -1)  # each code's row of the table, -1 until seen
        cls = cls_of[code]
        if cls.min() < 0:
            fresh = np.flatnonzero(np.bincount(code[cls < 0], minlength=len(orders)))
            new = build(orders[fresh])
            table = new if table is None else np.concatenate([table, new])
            cls_of[fresh] = np.arange(len(table) - len(fresh), len(table))
            cls = cls_of[code]
        yield lo, _take_rows(Pt, np.take(orders, code, axis=0)), table, cls


def _tight_maps(orders: np.ndarray, gammas: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Linear maps from a state's sorted populations r = p[orders[c]] to its
    tight point for the target ordering t: q[t[j]] = sum_k maps[c, k, j] r[k],
    the covered fractions of ``batch_eval`` at the target elbows
    cumsum(gamma[t]), differenced.  Rows of ``orders``, ``gammas`` (or one
    shared (d,) vector) and ``targets`` broadcast.  The maps are C-ordered,
    so every einsum over them adds in one order.
    """
    F = _covered(np.cumsum(_take_rows(gammas, orders), axis=1),
                 np.cumsum(_take_rows(gammas, targets), axis=1))
    return np.diff(F, prepend=0.0, axis=1).transpose(0, 2, 1).copy()


def _level_maps(orders: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """``_tight_maps`` for one shared target ordering, with the tight point
    in level order: q[i] = sum_k maps[c, k, i] r[k]."""
    t0 = target.zero_based()
    return np.take(_tight_maps(orders, gammas, t0[None, :]), np.argsort(t0), axis=2)


def _tight(maps: np.ndarray, sorted_p: np.ndarray) -> np.ndarray:
    """Apply each row's map to its sorted populations, clipped at 0."""
    q = np.einsum("nki,nk->ni", maps, sorted_p)
    return np.clip(q, 0.0, None, out=q)


def tight_point_tiles(tiles, gammas: np.ndarray, target: BetaOrdering):
    """Extreme point of every row's cone for one shared target ordering, for
    a stream of row tiles (``_row_tiles(P)`` for an array): yields ``(lo, q)``
    per tile, ``lo`` the offset of its first row in the stream.

    Each row's sorted populations go through the map of its ordering
    (``_tight_maps``): with one shared (d,) Gibbs vector, built once per
    stream for each ordering seen; with one Gibbs vector per row of a stream
    of CHUNK-row tiles, one per row.  Swapping the populations of two levels
    of equal weight swaps the tight point exactly.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim == 1:
        def maps_of(orders):
            return _level_maps(orders, gammas, target)

        for lo, sorted_p, maps, cls in _grouped_tiles(tiles, gammas, maps_of):
            yield lo, _tight(np.take(maps, cls, axis=0), sorted_p)
        return
    for lo, Pt, Gt in zip(itertools.count(0, CHUNK), tiles, _row_tiles(gammas)):
        order = batch_order(Pt, Gt)
        yield lo, _tight(_level_maps(order, Gt, target), _take_rows(Pt, order))


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering
    (``tight_point_tiles`` gathered into one array)."""
    P = np.asarray(P, dtype=float)
    out = np.empty_like(P)
    for lo, q in tight_point_tiles(_row_tiles(P), gammas, target):
        out[lo:lo + len(q)] = q
    return out


def _majorizes_stream(origin: PopVector, tiles, ctx: GibbsContext):
    """Dominance of a fixed origin's curve over each row of a stream of row
    tiles, within TAU_CMP: yields each non-empty tile's verdicts.

    By concavity it suffices to test at each row's own elbows, which depend
    only on the row's ordering: the origin's curve is read once per stream
    for each ordering seen, with ``batch_eval`` (at x=0, at the top of its
    jump).  The cumulative sums and the test run column by column, which
    adds in the same order as ``np.cumsum``.
    """
    _check_dims(ctx, origin)
    gamma = ctx.checked_gamma()
    _, X, Y = batch_curves(origin.probs[None, :], gamma)

    def heights_of(orders):
        return batch_eval(X, Y, np.cumsum(gamma[orders], axis=1))

    for _, sorted_q, heights, cls in _grouped_tiles(tiles, gamma, heights_of):
        ok, y = np.ones(len(cls), dtype=bool), np.zeros(len(cls))
        for k in range(sorted_q.shape[1]):
            y += sorted_q[:, k]
            ok &= heights[:, k][cls] >= y - TAU_CMP
        yield ok


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext) -> np.ndarray:
    """Dominance of a fixed origin's curve over each row of ``Q``
    (``_majorizes_stream`` over tiles of CHUNK rows, gathered)."""
    oks = _majorizes_stream(origin, _row_tiles(np.asarray(Q, dtype=float)), ctx)
    return np.concatenate([np.ones(0, dtype=bool), *oks])

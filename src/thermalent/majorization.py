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
``geometry.tne_boundary`` reads from the stream the tight point of each
ray's far end (its near end, gamma, is its own tight point).  One applier,
``_tight``, reads the maps through their nonzero entries only, and gathers
per row only the entries that differ between orderings (none at beta = 0,
where every map is the same permutation).  The orderings come from packed
pairwise comparisons (``core.ordering_codes``).  The kernel walks streams
of level-major (d, n) tiles, of CHUNK rows of an array (``volume`` streams
its samples), one contiguous row per level or rank.  Each step of a tile
writes into the stream's one ``core._Workspace``, so no temporary grows
with the batch and no tile after a stream's first allocates.
"""

from __future__ import annotations

import functools
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
    _tile_levels,
    _Workspace,
    batch_order,
    code_orders,
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

    def evaluate(self, x):
        """Curve value at ``x`` in [0, 1], a number or an array; exactly 0 at
        x=0.  CHUNK points at a time, so the temporary is CHUNK x levels."""
        x = np.asarray(x, dtype=float)
        inside = (x >= -1e-12) & (x <= 1 + 1e-12)
        if not inside.all():
            raise ValueError(f"x={x[~inside].flat[0]} outside [0, 1]")
        X, Y, flat = self.xs[None, 1:], self.ys[None, 1:], np.clip(x, 0.0, 1.0).reshape(1, -1)
        upper = np.concatenate([batch_eval(X, Y, flat[:, lo:lo + CHUNK])
                                for lo in range(0, max(x.size, 1), CHUNK)], axis=1)
        y = np.where(x <= 0.0, 0.0, upper.reshape(x.shape))
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


@functools.cache
def _targets(d: int) -> np.ndarray:
    """The d! zero-based orderings of d levels in lexicographic order."""
    return _readonly(np.array(list(itertools.permutations(range(d)))))


def all_extreme_points(p: PopVector, ctx: GibbsContext):
    """``(targets, points)``: the d! zero-based target orderings in
    lexicographic order (read-only) and the tight-majorized state of each,
    equal to its ``extreme_point``.  p is ordered once; the targets go in
    tiles of CHUNK."""
    d = p.dim
    _check_dims(ctx, p)
    if d > MAX_ENUM_DIM:
        raise ValueError(f"dimension {d} too large for {d}! enumeration")
    gamma = ctx.checked_gamma()
    order = batch_order(p.probs[None, :], gamma)
    sorted_p = _take_levels(p.probs, order.T)
    targets = _targets(d)
    points = np.empty(targets.shape)
    for lo in range(0, len(targets), CHUNK):
        t = targets[lo:lo + CHUNK]
        q = _tight(_map_plan(_tight_maps(order, gamma, t)), np.repeat(sorted_p, len(t), axis=1))
        points[lo + np.arange(len(t))[:, None], t] = q.T
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

def _take_levels(A: np.ndarray, levels: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """``A[levels[k, r], r]`` at [k, r] of a contiguous (d, n) array: row k
    holds the k-th entry of every column's ordering, for a level-major (d, n)
    array ``A``, or ``A[levels[k, r]]`` for one (d,) vector shared by all
    columns; columns of ``A`` and ``levels`` broadcast.  The flat indices
    are laid out as the result, which ``np.take`` reads several times
    faster.  With a workspace the indices overwrite ``levels`` and the
    result is its array ``sorted``."""
    if A.ndim == 2 and ws is None:
        levels = levels * A.shape[1] + np.arange(A.shape[1])
    elif A.ndim == 2:
        np.add(np.multiply(levels, A.shape[1], out=levels), ws.columns(A.shape[1]), out=levels)
    out = None if ws is None else ws.array("sorted", levels.shape)
    return np.take(A, levels, out=out, mode="clip")


def batch_curves(P: np.ndarray, gammas: np.ndarray):
    """Per-row ordering and cumulative-sum elbows for a batch of states."""
    P, G = np.asarray(P, dtype=float), np.asarray(gammas, dtype=float)
    order = batch_order(P, G)
    X = np.cumsum(_take_levels(G if G.ndim == 1 else G.T, order.T), axis=0).T
    Y = np.cumsum(_take_levels(P.T, order.T), axis=0).T
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
    rises = np.array(Y, dtype=float)  # a copy: Y may be a read-only ThermoCurve.ys
    rises[:, 1:] -= Y[:, :-1]
    return np.einsum("nts,ns->nt", _covered(X, T), rises)


def _row_tiles(P: np.ndarray, ws: _Workspace):
    """The rows of P as level-major (d, n) tiles of CHUNK columns, each the
    array ``rows`` of ``ws``, refilled per tile."""
    return (ws.level_major("rows", P[lo:lo + CHUNK]) for lo in range(0, len(P), CHUNK))


def _grouped_tiles(tiles, gammas: np.ndarray, build, ws: _Workspace):
    """Walk a stream of level-major (d, n) tiles (``_row_tiles(P, ws)`` for
    an array), grouped by level ordering.

    Yields ``(lo, sorted_p, table, cls)`` per non-empty tile: the stream
    offset of its first column, a (d, n) array of ``ws`` whose row k holds
    every column's k-th population in its level ordering, ``build(orderings,
    gammas)`` of the orderings seen so far, and each column's index into
    them.  ``gammas`` is one (d,) Gibbs vector shared by the stream, or an
    (N, d) array of one per row of the stream; then every column is its own
    class, built with the (d, n) tile of its vectors, and ``cls`` is None.
    With a shared vector, up to MAX_DENSE_DIM levels a column's pair code
    names its ordering, and ``build`` runs again on every ordering seen when
    a tile brings codes that no earlier tile had; above, each tile groups
    its orderings with ``np.unique`` and builds its own table.
    """
    lo, n, table = 0, 0, None
    for P in tiles:
        lo, (d, n) = lo + n, P.shape
        if not n:
            continue
        G = gammas if gammas.ndim == 1 else ws.level_major("gammas", gammas[lo:lo + n])
        levels, code = _tile_levels(P, G, ws)
        if gammas.ndim == 2:
            table, cls = build(levels.T, G), None
        elif d > MAX_DENSE_DIM:
            classes, cls = np.unique(levels, axis=1, return_inverse=True)
            table, cls = build(classes.T, G), cls.ravel()
        else:
            orders = code_orders(d)
            if table is None:
                cls_of = np.full(len(orders), -1)  # each code's row of the table, -1 until seen
                seen = np.zeros(0, dtype=int)
            cls = np.take(cls_of, code, out=ws.array("classes", (n,), np.intp), mode="clip")
            if cls.min() < 0:
                fresh = np.flatnonzero(np.bincount(code[cls < 0], minlength=len(orders)))
                cls_of[fresh] = np.arange(len(seen), len(seen) + len(fresh))
                seen = np.concatenate([seen, fresh])
                table = build(orders[seen], G)
                np.take(cls_of, code, out=cls, mode="clip")
        sorted_p = _take_levels(P, levels, ws)
        del levels, code  # in a stream of one tile, freed before the tile's next steps
        yield lo, sorted_p, table, cls


def _tight_maps(orders: np.ndarray, gammas: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Linear maps from a state's sorted populations r = p[orders[c]] to its
    tight point for the target ordering t: q[t[j]] = sum_k maps[c, k, j] r[k],
    the covered fractions of ``batch_eval`` at the target elbows
    cumsum(gamma[t]), differenced.  Rows of ``orders`` and ``targets``
    broadcast with the columns of ``gammas``, a level-major (d, n) tile, or
    one shared (d,) vector.  Every entry is >= 0, a difference of
    non-decreasing covered fractions.
    """
    F = _covered(np.cumsum(_take_levels(gammas, orders.T), axis=0).T,
                 np.cumsum(_take_levels(gammas, targets.T), axis=0).T)
    F[:, 1:] -= F[:, :-1]  # np.diff(F, prepend=0.0, axis=1); a ufunc reads an overlap first
    return F.transpose(0, 2, 1)


def _map_plan(maps: np.ndarray, levels=None):
    """How ``_tight`` reads the maps ``maps[c, k, j]`` of the classes c, with
    output j at level ``levels[j]`` (at level j when ``levels`` is None).

    Returns ``(terms, varying, spans)``: terms[i] lists the terms ``(k,
    scale, row)`` of level i in ascending k.  An entry that is the same in
    every class is a ``scale`` (None for 1); any other is ``row`` of
    ``varying``, the (terms, classes) table of those entries (None if there
    are none), whose rows ``varying[a:b]`` multiply sorted population k for
    each ``(k, a, b)`` of ``spans``.  An entry 0 in every class is left out:
    its product with a finite population is +0 or -0, which changes no sum
    that starts at +0, since such a sum is never -0.
    """
    d = maps.shape[1]
    least, most = maps.min(axis=0).tolist(), maps.max(axis=0).tolist()
    at = range(d) if levels is None else levels.tolist()
    terms, K, J, spans = [[] for _ in range(d)], [], [], []
    for k in range(d):
        a = len(K)
        for j, i in enumerate(at):
            if most[k][j] == 0.0:
                continue
            if least[k][j] == most[k][j]:
                terms[i].append((k, None if most[k][j] == 1.0 else most[k][j], None))
            else:
                terms[i].append((k, None, len(K)))
                K.append(k)
                J.append(j)
        if len(K) > a:
            spans.append((k, a, len(K)))
    return terms, maps.transpose(1, 2, 0)[K, J] if K else None, spans


def _level_plan(orders: np.ndarray, gammas: np.ndarray, target: BetaOrdering):
    """``_map_plan`` of the ``_tight_maps`` for one shared target ordering,
    with the tight point in level order."""
    t0 = target.zero_based()
    return _map_plan(_tight_maps(orders, gammas, t0[None, :]), t0)


def _tight(plan, R: np.ndarray, cls: np.ndarray | None = None,
           ws: _Workspace | None = None) -> np.ndarray:
    """Tight points, a level-major (d, n) array (``tight`` of ``ws``), of the
    sorted populations R, a (d, n) array with one column per row: each
    column goes through the map of its class ``cls``, or column j through
    class j when ``cls`` is None.  Each output adds its terms to 0 in
    ascending k, as ``np.einsum("nki,nk->ni", maps, r)`` does, bit for bit,
    and is clipped at 0 (``np.maximum``, which ``np.clip`` calls)."""
    terms, varying, spans = plan
    d, n = R.shape
    ws = _Workspace(n) if ws is None else ws
    if varying is not None:
        # each row's varying entries, times their populations, one call per k
        V = ws.array("products", (len(varying), n))
        M = varying if cls is None else np.take(varying, cls, axis=1, out=V, mode="clip")
        for k, a, b in spans:
            np.multiply(M[a:b], R[k], out=V[a:b])
    Q, tmp = ws.array("tight", (d, n)), ws.array("scaled", (n,))
    Q.fill(0.0)
    for q, col in zip(Q, terms):
        for k, scale, row in col:
            if row is not None:
                q += V[row]
            elif scale is not None:
                q += np.multiply(R[k], scale, out=tmp)
            else:
                q += R[k]
    return np.maximum(Q, 0.0, out=Q)


def tight_point_tiles(tiles, gammas: np.ndarray, target: BetaOrdering, ws: _Workspace):
    """Extreme point of every row's cone for one shared target ordering, for
    a stream of level-major (d, n) tiles (``_row_tiles(P, ws)`` for an
    array): yields ``(lo, q)`` per tile, ``lo`` the offset of its first
    column in the stream and ``q`` a level-major (d, n) array of ``ws``.

    Each column's sorted populations go through the map of its ordering
    (``_tight_maps``, applied by ``_tight``): with one shared (d,) Gibbs
    vector, built once per stream for each ordering seen; with an (N, d)
    array of one Gibbs vector per row of the stream, one per column.
    Swapping the populations of two levels of equal weight swaps the tight
    point exactly.
    """
    plans = _grouped_tiles(tiles, np.asarray(gammas, dtype=float),
                           lambda orders, G: _level_plan(orders, G, target), ws)
    for lo, sorted_p, plan, cls in plans:
        yield lo, _tight(plan, sorted_p, cls, ws)


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering
    (``tight_point_tiles`` gathered into one (n, d) array)."""
    P = np.asarray(P, dtype=float)
    out, ws = np.empty_like(P), _Workspace(len(P))
    for lo, q in tight_point_tiles(_row_tiles(P, ws), gammas, target, ws):
        out[lo:lo + q.shape[1]] = q.T
    return out


def _majorizes_stream(origin: PopVector, tiles, ctx: GibbsContext, ws: _Workspace):
    """Dominance of a fixed origin's curve over each column of a stream of
    level-major (d, n) tiles, within TAU_CMP: yields ``(lo, ok)`` per
    non-empty tile, ``lo`` the offset of its first column and ``ok`` its
    verdicts, a bool array of ``ws``.

    By concavity it suffices to test at each row's own elbows, which depend
    only on the row's ordering: the origin's curve is read once per stream
    for each ordering seen, with ``batch_eval`` (at x=0, at the top of its
    jump).  The cumulative sums and the test run level by level, which adds
    in the same order as ``np.cumsum``.
    """
    _check_dims(ctx, origin)
    gamma = ctx.checked_gamma()
    _, X, Y = batch_curves(origin.probs[None, :], gamma)

    def heights_of(orders, _):
        return np.ascontiguousarray(batch_eval(X, Y, np.cumsum(gamma[orders], axis=1)).T)

    for lo, sorted_q, heights, cls in _grouped_tiles(tiles, gamma, heights_of, ws):
        n = (len(cls),)
        ok, above = ws.array("dominated", n, bool), ws.array("above", n, bool)
        y, least, top = ws.array("height", n), ws.array("least", n), ws.array("top", n)
        ok.fill(True)
        y.fill(0.0)
        for k, r in enumerate(sorted_q):  # heights level-major: each level one contiguous row
            y += r
            np.subtract(y, TAU_CMP, out=least)
            ok &= np.greater_equal(np.take(heights[k], cls, out=top, mode="clip"), least, out=above)
        yield lo, ok


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext) -> np.ndarray:
    """Dominance of a fixed origin's curve over each row of ``Q``
    (``_majorizes_stream`` over tiles of CHUNK rows, gathered)."""
    Q = np.asarray(Q, dtype=float)
    out, ws = np.empty(len(Q), dtype=bool), _Workspace(len(Q))
    for lo, ok in _majorizes_stream(origin, _row_tiles(Q, ws), ctx, ws):
        out[lo:lo + len(ok)] = ok
    return out

"""Thermomajorization curves, the induced preorder, and future thermal cones.

A curve is the concave piecewise-linear function through the cumulative
(Gibbs weight, population) sums taken in the state's level ordering
(Horodecki & Oppenheim, Nat. Commun. 4, 2059, 2013).  State ``p`` can reach
``q`` by a thermal process iff p's curve dominates q's everywhere; the
reachable set is a polytope whose extreme points are the tight-majorized
states, one per level ordering.  Dominance has one test, read from p's
hinge sums at p's kinks (``_hinge_plan``; ``_within_cone`` applies it to a
level-major tile).  It orders no tested state, and ``thermo_majorizes``,
``batch_majorizes`` and the ENT_CONE volume all use it.

``curve`` builds every curve from cumulative sums (``_cumulative_weights``),
and ``ThermoCurve.evaluate`` is the one evaluator.  Zero Gibbs weights
(infinite beta) give zero-width segments; ``_covered`` makes each a step at
its left edge, so the jump at x=0 stays exact and x=0 reads the jump's top.

For a Gibbs vector gamma, a curve's elbow positions depend on the state only
through its level ordering sigma, and its heights are linear in the
populations, so a tight point is a linear map of the sorted populations,
q = M_sigma p (``_tight_maps``): the beta-permutations of de Oliveira
Junior, Czartowski, Zyczkowski & Korzekwa, Phys. Rev. E 106, 064109 (2022).
Every tight point goes through these maps and one applier, ``_tight``: for
the d! targets of one state (``all_extreme_points``), or for one target over
a stream of level-major (d, n) tiles (``tight_point_tiles``: the rows of an
array, or the samples of a volume), each step of which writes into the
stream's one ``core._Workspace``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CHUNK,
    BetaOrdering,
    GibbsContext,
    PopVector,
    _check_gammas,
    _readonly,
    _tile_levels,
    _Workspace,
    batch_order,
    code_orders,
)

#: absolute tolerance of dominance (on hinge sums) and of extreme-point dedup
TAU_CMP = 1e-10

#: largest dimension for which all d! orderings are enumerated
MAX_ENUM_DIM = 8


@dataclass(frozen=True, eq=False)
class ThermoCurve:
    """Piecewise-linear majorization curve stored as elbow points.

    ``xs[0], ys[0] == 0, 0``; a duplicated ``x == 0`` entry encodes the
    vertical jump contributed by populated levels of zero Gibbs weight.
    """

    xs: np.ndarray
    ys: np.ndarray

    def evaluate(self, x):
        """Curve value at ``x`` in [0, 1], a number or an array; exactly 0 at
        x=0.  CHUNK points at a time, so the temporary is CHUNK x levels."""
        x = np.asarray(x, dtype=float)
        inside = (x >= -1e-12) & (x <= 1 + 1e-12)
        if not inside.all():
            raise ValueError(f"x={x[~inside].flat[0]} outside [0, 1]")
        X, flat, ws = self.xs[None, 1:], np.clip(x, 0.0, 1.0).reshape(1, -1), _Workspace(0)
        rises = np.diff(self.ys)[None, :]
        # the sum over segments of each rise times its covered fraction
        upper = np.concatenate([np.einsum("nts,ns->nt", _covered(X, flat[:, lo:lo + CHUNK], ws),
                                          rises) for lo in range(0, max(x.size, 1), CHUNK)], axis=1)
        y = np.where(x <= 0.0, 0.0, upper.reshape(x.shape))
        return float(y) if y.ndim == 0 else y


def _check_dims(ctx: GibbsContext, *objs) -> None:
    if any(o.dim != ctx.dim for o in objs):
        raise ValueError("dimension mismatch")


def curve(p: PopVector, ctx: GibbsContext) -> ThermoCurve:
    """Thermomajorization curve of ``p`` in the context ``ctx``."""
    gamma, ws = ctx.checked_gamma(), _Workspace(0)
    order = batch_order(p.probs[None, :], gamma)
    xs = np.concatenate([[0.0], _cumulative_weights(gamma, order, ws, "elbows")[:, 0]])
    ys = np.concatenate([[0.0], _cumulative_weights(p.probs[:, None], order, ws, "heights")[:, 0]])
    # a zero-width run keeps only its top point; the origin always stays
    keep = np.append(xs[:-1] != xs[1:], True)
    keep[0] = True
    return ThermoCurve(xs=_readonly(xs[keep]), ys=_readonly(ys[keep]))


def thermo_majorizes(p: PopVector, q: PopVector, ctx: GibbsContext) -> bool:
    """True iff p's curve dominates q's within TAU_CMP (``batch_majorizes`` on one row)."""
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
    gamma, ws = ctx.checked_gamma(), _Workspace(0)
    order = batch_order(p.probs[None, :], gamma)
    sorted_p = _take_levels(p.probs, order.T, ws)
    targets = _targets(d)
    points = np.empty(targets.shape)
    for lo in range(0, len(targets), CHUNK):
        t = targets[lo:lo + CHUNK]
        R = np.repeat(sorted_p, len(t), axis=1)
        q = _tight(_map_plan(_tight_maps(order, gamma, t, ws)), R, None, ws)
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

def _take_levels(A: np.ndarray, levels: np.ndarray, ws: _Workspace,
                 name: str = "sorted") -> np.ndarray:
    """``A[levels[k, r], r]`` at [k, r] of a contiguous (d, n) array ``name``
    of ``ws``: row k holds the k-th entry of every column's ordering, for a
    level-major (d, n) array ``A``, or ``A[levels[k, r]]`` for one (d,)
    vector shared by all columns; columns of ``A`` and ``levels`` broadcast.
    For a 2-D ``A`` the flat indices overwrite ``levels``, laid out as the
    result, which ``np.take`` reads several times faster."""
    if A.ndim == 2:
        np.add(np.multiply(levels, A.shape[1], out=levels), ws.columns(A.shape[1]), out=levels)
    return np.take(A, levels, out=ws.array(name, levels.shape), mode="clip")


def _covered(X: np.ndarray, T: np.ndarray, ws: _Workspace,
             F: np.ndarray | None = None) -> np.ndarray:
    """Covered fraction F[n, t, s] of segment s of row n's curve, whose
    elbows are X, at the row's target T[n, t]; rows of X and T broadcast.
    A zero-width segment is a step at its left edge: a target at or right of
    that edge covers all of it.  Written into ``F`` when it is given, in any
    layout, with the segments' edges and widths in arrays of ``ws``."""
    X0 = ws.array("left_edges", X.shape[::-1]).T
    X0[:, 0] = 0.0
    X0[:, 1:] = X[:, :-1]
    W = np.subtract(X, X0, out=ws.array("widths", X.shape[::-1]).T)
    step = np.equal(W, 0.0, out=ws.array("steps", X.shape[::-1], bool).T)
    np.copyto(W, 1.0, where=step)
    F = np.subtract(T[:, :, None], X0[:, None, :], out=F)
    F /= W[:, None, :]
    np.greater_equal(F, 0.0, out=F, where=step[:, None, :])
    return np.clip(F, 0.0, 1.0, out=F)


def _row_tiles(P: np.ndarray, ws: _Workspace):
    """The rows of P as level-major (d, n) tiles of CHUNK columns, each the
    array ``rows`` of ``ws``, refilled per tile."""
    return (ws.level_major("rows", P[lo:lo + CHUNK]) for lo in range(0, len(P), CHUNK))


def _cumulative_weights(gammas: np.ndarray, orders: np.ndarray, ws: _Workspace,
                        name: str) -> np.ndarray:
    """The elbow positions (heights, for populations) of each row's ordering,
    ``np.cumsum`` of its weights in that order: a level-major (d, rows) array
    ``name`` of ``ws``.  Rows of ``orders`` broadcast with the columns of
    ``gammas``, a (d, n) tile or one shared (d,) vector."""
    rows = max(len(orders), gammas.shape[1] if gammas.ndim == 2 else 1)
    levels = ws.array("index", (orders.shape[1], rows), np.intp)
    np.copyto(levels, orders.T)
    W = _take_levels(gammas, levels, ws, name)
    for k in range(1, len(W)):
        W[k] += W[k - 1]
    return W


def _tight_maps(orders: np.ndarray, gammas: np.ndarray, targets: np.ndarray,
                ws: _Workspace) -> np.ndarray:
    """Linear maps from a state's sorted populations r = p[orders[c]] to its
    tight point for the target ordering t: q[t[j]] = sum_k maps[c, k, j] r[k],
    the covered fractions (``_covered``) at the target elbows
    cumsum(gamma[t]), differenced.  Rows of ``orders`` and ``targets``
    broadcast with the columns of ``gammas``, a level-major (d, n) tile, or
    one shared (d,) vector.  Every entry is >= 0, a difference of
    non-decreasing covered fractions.  The maps are a view of the (d, d,
    classes) array ``maps`` of ``ws``, so that each entry is one contiguous
    row over the classes.
    """
    X = _cumulative_weights(gammas, orders, ws, "elbows")
    T = _cumulative_weights(gammas, targets, ws, "target_elbows")
    d, rows = len(X), max(X.shape[1], T.shape[1])
    F = _covered(X.T, T.T, ws, ws.array("maps", (d, d, rows)).transpose(2, 0, 1))
    for j in range(d - 1, 0, -1):  # np.diff(F, prepend=0.0, axis=1), in place
        F[:, j] -= F[:, j - 1]
    return F.transpose(0, 2, 1)


def _map_plan(maps: np.ndarray, levels=None) -> list:
    """How ``_tight`` reads the maps ``maps[c, k, j]`` of the classes c, with
    output j at level ``levels[j]`` (at level j when ``levels`` is None).

    Returns ``terms``: terms[i] lists the terms ``(k, scale, entries)`` of
    level i in ascending k.  An entry that is the same in every class is a
    ``scale`` (None for 1), with ``entries`` None; any other is ``entries``,
    its value in each class (a view of ``maps``).  An entry 0 in every class
    is left out: its product with a finite population is +0 or -0, which
    changes no sum that starts at +0, since such a sum is never -0.
    """
    d = maps.shape[1]
    least, most = maps.min(axis=0).tolist(), maps.max(axis=0).tolist()
    at = range(d) if levels is None else levels.tolist()
    terms = [[] for _ in range(d)]
    for k in range(d):
        for j, i in enumerate(at):
            if most[k][j] == 0.0:
                continue
            if least[k][j] == most[k][j]:
                terms[i].append((k, None if most[k][j] == 1.0 else most[k][j], None))
            else:
                terms[i].append((k, None, maps[:, k, j]))
    return terms


def _tight(plan: list, R: np.ndarray, cls: np.ndarray | None, ws: _Workspace) -> np.ndarray:
    """Tight points, a level-major (d, n) array (``tight`` of ``ws``), of the
    sorted populations R, a (d, n) array with one column per row: each
    column goes through the map of its class ``cls``, or column j through
    class j when ``cls`` is None.  Each output adds its terms to 0 in
    ascending k, as ``np.einsum("nki,nk->ni", maps, r)`` does, bit for bit,
    and is clipped at 0 (``np.maximum``, which ``np.clip`` calls).  A term
    whose entry varies between classes gathers each column's entry into one
    row, ``scaled`` of ``ws``, which then takes its product with the
    populations."""
    Q, tmp = ws.array("tight", R.shape), ws.array("scaled", R.shape[1:])
    Q.fill(0.0)
    for q, col in zip(Q, plan):
        for k, scale, entries in col:
            if entries is not None:
                if cls is not None:
                    entries = np.take(entries, cls, out=tmp, mode="clip")
                q += np.multiply(entries, R[k], out=tmp)
            elif scale is not None:
                q += np.multiply(R[k], scale, out=tmp)
            else:
                q += R[k]
    return np.maximum(Q, 0.0, out=Q)


def tight_point_tiles(tiles, gammas: np.ndarray, target: BetaOrdering, ws: _Workspace):
    """Extreme point of every row's cone for one shared target ordering, for
    a stream of level-major (d, n) tiles (``_row_tiles(P, ws)`` for an
    array): yields each tile's tight points, a level-major (d, n) array of
    ``ws``.

    Each column's sorted populations go through the map of its ordering
    (``_tight_maps``, applied by ``_tight``).  ``gammas`` is one (d,) Gibbs
    vector shared by the stream, or an (N, d) array of one per row of the
    stream, all weights positive.  With a shared vector and pair codes
    (``core._tile_levels``), a column's code names its ordering, and the
    maps are built once per stream for each ordering seen, again for all of
    them when a tile brings codes that no earlier tile had.  Otherwise each
    column gets its own map.  Swapping the populations of two levels of
    equal weight swaps the tight point exactly.
    """
    t, gammas = target.zero_based(), np.asarray(gammas, dtype=float)

    def plan_of(orders, G):
        return _map_plan(_tight_maps(orders, G, t[None], ws), t)

    lo, n, plan = 0, 0, None
    for P in tiles:
        lo, (d, n) = lo + n, P.shape
        G = gammas if gammas.ndim == 1 else ws.level_major("gammas", gammas[lo:lo + n])
        levels, code = _tile_levels(P, G, ws)
        if code is None or gammas.ndim == 2:
            plan, cls = plan_of(levels.T, G), None
        else:
            orders = code_orders(d)
            if plan is None:
                cls_of = np.full(len(orders), -1)  # each code's class, -1 until seen
                seen = np.zeros(0, dtype=int)
            cls = np.take(cls_of, code, out=ws.array("classes", (n,), np.intp), mode="clip")
            if cls.min() < 0:
                fresh = np.flatnonzero(np.bincount(code[cls < 0], minlength=len(orders)))
                cls_of[fresh] = np.arange(len(seen), len(seen) + len(fresh))
                seen = np.concatenate([seen, fresh])
                plan = plan_of(orders[seen], G)
                np.take(cls_of, code, out=cls, mode="clip")
        sorted_p = _take_levels(P, levels, ws)
        del levels, code  # in a stream of one tile, freed before the tile's next steps
        yield _tight(plan, sorted_p, cls, ws)


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering
    (``tight_point_tiles`` gathered into one (n, d) array); ``gammas`` as
    for ``batch_order``."""
    P, G = np.asarray(P, dtype=float), np.asarray(gammas, dtype=float)
    _check_gammas(P, G)
    out, ws = np.empty_like(P), _Workspace(len(P))
    for lo, q in zip(range(0, len(P), CHUNK), tight_point_tiles(_row_tiles(P, ws), G, target, ws)):
        out[lo:lo + q.shape[1]] = q.T
    return out


def _hinge_plan(origin: PopVector, ctx: GibbsContext) -> list:
    """Origin p's dominance test, built once per call: ``(terms, bound)``
    per kink, ``terms`` its (level j, constant c_j) pairs; a state q passes
    a kink iff sum_j max(q_j, c_j) <= bound.

    With the hinge sums h_r(lam) = sum_j max(0, r_j - lam gamma_j), dual to
    the curves (L_r(x) = min over lam >= 0 of lam x + h_r(lam)), p
    thermomajorizes q iff h_q <= h_p at p's kinks lam_i = p_i/gamma_i (p_i,
    gamma_i > 0): h_q - h_p is convex between kinks, both are 1 at lam = 0,
    and past the last kink h_p is constant (p's mass on zero weights) while
    h_q does not rise, so infinite beta needs no test of its own (Veinott's
    d-majorization, Management Sci. 17, 1971; Ruch, Schranner & Seligman,
    J. Chem. Phys. 69, 386, 1978).  A kink tests h_q(lam_i) <= h_p(lam_i) +
    TAU_CMP, with c_ij = lam_i gamma_j (p_j at the kink's own levels).  A
    term of c_ij >= 1 is 0 for a state, so it is left out, and so is a kink
    with no terms left: every kink of the top state.
    """
    _check_dims(ctx, origin)
    p, gamma = origin.probs, ctx.checked_gamma()
    live = (p > 0.0) & (gamma > 0.0)
    ratios = np.divide(p, gamma, out=np.full(len(p), -1.0), where=live)
    plan = []
    for lam in sorted(set(ratios[live].tolist())):
        c = np.where(ratios == lam, p, lam * gamma)
        levels = np.flatnonzero(c < 1.0)
        if levels.size:
            plan.append((list(zip(levels.tolist(), c[levels].tolist())),
                         np.maximum(p - c, 0.0).sum() + TAU_CMP + c[levels].sum()))
    return plan


def _within_cone(plan: list, Q: np.ndarray, ok: np.ndarray, ws: _Workspace) -> np.ndarray:
    """``ok``, a bool per column of the level-major (d, n) tile ``Q``, ANDed
    with each column's verdict under ``plan`` (``_hinge_plan``), in place:
    two passes per term, into arrays of ``ws`` (none for an empty plan)."""
    n = Q.shape[1:]
    for terms, bound in plan:
        acc, term = ws.array("hinges", n), ws.array("hinge", n)
        (j, c), *rest = terms
        np.maximum(Q[j], c, out=acc)
        for j, c in rest:
            acc += np.maximum(Q[j], c, out=term)
        ok &= np.less_equal(acc, bound, out=ws.array("held", n, bool))
    return ok


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext) -> np.ndarray:
    """Dominance of a fixed origin over each row of ``Q``, a state: the test
    of ``_hinge_plan``, on tiles of CHUNK rows."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape[1:] != (ctx.dim,):
        raise ValueError("dimension mismatch")
    plan, out, ws = _hinge_plan(origin, ctx), np.ones(len(Q), dtype=bool), _Workspace(len(Q))
    for lo, T in zip(range(0, len(Q), CHUNK), _row_tiles(Q, ws)):
        _within_cone(plan, T, out[lo:lo + T.shape[1]], ws)
    return out

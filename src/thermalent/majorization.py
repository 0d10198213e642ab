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

    Points within ``tol`` of each other (max norm) form one cluster, named by
    its lowest index, so rounding noise between duplicates cannot change the
    result.  Candidates are scanned in lexicographic order, in which any
    point within ``tol`` has a first coordinate within ``tol``.
    """
    pts = np.asarray(points)
    reps, names = [], []
    for i in np.lexsort(pts.T[::-1]):
        k = len(reps) - 1
        while k >= 0 and pts[reps[k], 0] >= pts[i, 0] - tol:
            if np.max(np.abs(pts[i] - pts[reps[k]])) <= tol:
                names[k] = min(names[k], i)
                break
            k -= 1
        else:
            reps.append(i)
            names.append(i)
    return sorted(names)


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


def batch_tight_points(P: np.ndarray, gammas: np.ndarray, target: BetaOrdering,
                       chunk: int = 200_000) -> np.ndarray:
    """Extreme point of every row's cone for one shared target ordering."""
    P = np.asarray(P, dtype=float)
    t0 = target.zero_based()
    out = np.empty_like(P)
    G_all = np.broadcast_to(np.asarray(gammas, dtype=float), P.shape)
    for lo in range(0, P.shape[0], chunk):
        Pb, Gb = P[lo:lo + chunk], G_all[lo:lo + chunk]
        _, X, Y = batch_curves(Pb, Gb)
        Yt = batch_eval(X, Y, np.cumsum(Gb[:, t0], axis=1))
        block = np.empty_like(Pb)
        block[:, t0] = np.diff(Yt, prepend=0.0, axis=1)
        out[lo:lo + chunk] = np.clip(block, 0.0, None)
    return out


def batch_majorizes(origin: PopVector, Q: np.ndarray, ctx: GibbsContext,
                    tol: float = TAU_CMP, chunk: int = 200_000) -> np.ndarray:
    """Dominance of a fixed origin's curve over each row of ``Q``.

    By concavity it suffices to test at each row's own elbows; at x=0 the
    origin reads the top of its jump.
    """
    c = curve(origin, ctx)
    gamma = ctx.checked_gamma()
    Q = np.asarray(Q, dtype=float)
    ok = np.empty(Q.shape[0], dtype=bool)
    for lo in range(0, Q.shape[0], chunk):
        _, X, Y = batch_curves(Q[lo:lo + chunk], gamma)
        ok[lo:lo + chunk] = np.all(c.evaluate_upper(X) >= Y - tol, axis=1)
    return ok

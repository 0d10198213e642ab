"""Entanglement witnesses and thermal entanglability for two-qubit populations.

The central quantity is the witness ``f(q) = 4 q1 q4 - (q2 - q3)^2`` on
population vectors ordered as (|00>, |01>, |10>, |11>).  A negative value
means a rotation inside the degenerate energy subspace entangles the state
without touching the bath.  Thermal entanglability reduces to the witness at
the (2, 1, 3, 4) extreme point of the future thermal cone, and the reachable
negativity, a convex function, peaks at an extreme point; both come from one
enumeration of the cone in ``is_thermally_entanglable``.  ``witness_batch``
and ``max_negativity`` on (n, 4) rows are the one witness and negativity
arithmetic; a single state is a one-row call, so a verdict and a volume read
the same bits for the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _SMALLEST_WEIGHT,
    PI_STAR,
    GibbsContext,
    PopVector,
    _gibbs_rows,
    is_two_qubit_context,
    orderings,
    two_qubit_context,
)
from .majorization import all_extreme_points, batch_tight_points

#: strictness band around f = 0; the boundary counts as non-entanglable
TAU_F = 1e-12

#: golden-ratio conjugate, the branch point of the hot-system extreme state
PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: largest scan of ``critical_temps_general``, and the most points one round
#: of its refinement evaluates: one (MAX_SCAN, 4) array of Gibbs rows and one
#: tight point per row
MAX_SCAN = 100_000


def _margin(w, out=None):
    """The verdict rule: ``w + TAU_F``, negative exactly where a witness w is
    below -TAU_F (entanglable), as a sum of two doubles rounds to a value with
    the sign of the exact sum.  Every entanglability verdict reads it."""
    return np.add(w, TAU_F, out=out)


def _as_probs(q) -> np.ndarray:
    a = q.probs if isinstance(q, PopVector) else np.asarray(q, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a length-4 population vector, got shape {a.shape}")
    return a


def witness_batch(Q: np.ndarray) -> np.ndarray:
    """Witness 4 q1 q4 - (q2 - q3)^2 of each row; negative iff subspace
    entanglable."""
    Q = np.asarray(Q, dtype=float)
    w = Q[:, 0] * 4.0
    w *= Q[:, 3]
    t = Q[:, 1] - Q[:, 2]
    return np.subtract(w, np.square(t, out=t), out=w)


def witness_f(q) -> float:
    """Witness of one state: a one-row ``witness_batch``."""
    return float(witness_batch(_as_probs(q)[None, :])[0])


def _negativity(Q: np.ndarray) -> np.ndarray:
    """(hypot(q1 - q4, q2 - q3) - (q1 + q4)) / 2 of each (n, 4) row: the
    negativity a subspace rotation reaches, before its clip at zero.  It is
    convex, and negative exactly where the witness is positive."""
    return 0.5 * (np.hypot(Q[:, 0] - Q[:, 3], Q[:, 1] - Q[:, 2]) - (Q[:, 0] + Q[:, 3]))


def max_negativity(q):
    """Largest negativity a subspace rotation reaches, zero where the witness
    is non-negative: a number for one state, an array for (n, 4) rows."""
    a = q.probs if isinstance(q, PopVector) else np.asarray(q, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != 4:
        raise ValueError(f"expected length-4 population vectors, got shape {a.shape}")
    Q = a.reshape(-1, 4)
    neg = _negativity(Q)
    neg[witness_batch(Q) >= 0.0] = 0.0
    return float(neg[0]) if a.ndim == 1 else neg


@dataclass(frozen=True)
class WitnessReport:
    """Entanglability verdicts for one state in one thermal context."""

    f_value: float
    f_star: float
    in_E: bool
    in_TE: bool
    max_negativity: float
    optimal_theta: float
    pi_star_point: PopVector


def is_thermally_entanglable(p: PopVector, ctx: GibbsContext) -> WitnessReport:
    """Decide thermal entanglability of a two-qubit population vector.

    Exact decision: the state can be entangled by some thermal process iff
    the witness is negative at the cone's (2,1,3,4) extreme point.  That
    point and the negativity maximum come from one ``all_extreme_points``.
    """
    if not is_two_qubit_context(ctx):
        raise ValueError("context is not a two-qubit (0, E, E, 2E) spectrum")
    targets, points = all_extreme_points(p, ctx)
    star = int((targets == PI_STAR.zero_based()).all(axis=1).argmax())
    w = witness_batch(np.stack([p.probs, points[star]]))
    (f_value, f_star), (in_E, in_TE) = w.tolist(), (_margin(w) < 0.0).tolist()
    return WitnessReport(f_value=f_value, f_star=f_star, in_E=in_E, in_TE=in_TE,
                         max_negativity=float(max_negativity(points).max()),
                         optimal_theta=math.pi / 4.0, pi_star_point=PopVector(points[star]))


def fstar_batch(P: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Witness at the (2,1,3,4) extreme point for every row: ``gammas`` is one
    shared Gibbs vector, at any beta, or one per row with positive weights."""
    return witness_batch(batch_tight_points(P, gammas, PI_STAR))


def tne_bruteforce(p: PopVector, ctx: GibbsContext) -> bool:
    """Independent oracle: non-entanglable iff the witness is non-negative at
    all 24 cone extreme points (all 24 permutations of ``p`` when beta is 0)."""
    if p.dim != 4:
        raise ValueError("brute-force check requires d = 4")
    if not is_two_qubit_context(ctx):
        raise ValueError("context is not a two-qubit (0, E, E, 2E) spectrum")
    if ctx.beta == 0.0:
        points = p.probs[orderings(4)]
    else:
        points = all_extreme_points(p, ctx)[1]
    return bool((_margin(witness_batch(points)) >= 0.0).all())


# ---------------------------------------------------------------------------
# Critical ambient temperatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalTemps:
    """Critical ambient inverse temperatures for an initially thermal state."""

    beta_c1: float | None
    beta_c2: float | None
    approx_c1: float
    approx_c2: float


def fstar_thermal_cooler(delta: float, delta_s: float) -> float:
    """Witness at the (2,1,3,4) extreme point for a system colder than the
    bath (ambient weight ``delta`` > system weight ``delta_s``)."""
    zs = (1.0 + delta_s) ** 2
    u = delta - delta_s
    return (4.0 * delta_s**2 * (1.0 - u) - u**2) / zs**2


def _hotter_quartic(x, delta_s: float):
    """Witness at the (2,1,3,4) extreme point for a system hotter than the
    bath, at ambient weight ``x * delta_s`` below the golden ratio, times
    (1 + delta_s)^4 / delta_s^2: a quartic in x with O(1) coefficients that
    is -(1 + delta_s)^2 at x = 0."""
    return (4.0 * x**2 * (1.0 + delta_s - ((1.0 - delta_s) * delta_s + delta_s**2 * x) * x)
            - ((1.0 - x) * (1.0 + delta_s))**2)


#: rounds and sub-brackets of ``_refine``: a bracket ends 64**-8 < 4e-15 as wide
REFINE_ROUNDS, REFINE_SPLIT = 8, 64


def _refine(fn, lo, hi) -> np.ndarray:
    """Midpoints of the brackets [lo[i], hi[i]] after REFINE_ROUNDS rounds.
    Each round evaluates every bracket at REFINE_SPLIT + 1 even steps, its
    last exactly ``hi``, in one call of ``fn`` on an (n, steps) array, and
    keeps the first step whose ends differ in sign bit; the ends of each
    given bracket must differ in sign bit."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    steps, rows = np.arange(REFINE_SPLIT + 1) / REFINE_SPLIT, np.arange(len(lo))
    for _ in range(REFINE_ROUNDS):
        grid = lo[:, None] + (hi - lo)[:, None] * steps
        grid[:, -1] = hi
        neg = np.signbit(fn(grid))
        k = (neg[:, :-1] != neg[:, 1:]).argmax(axis=1)
        lo, hi = grid[rows, k], grid[rows, k + 1]
    return 0.5 * (lo + hi)


def critical_temps_thermal(beta_s: float, gap: float) -> CriticalTemps:
    """Critical ambient temperatures for a thermal initial state.

    ``beta_c1`` (hot bath side) comes from the closed form.  ``beta_c2``
    (cold bath side) is beta_s - log(x)/gap at the root x of the hot-system
    branch in x = delta/delta_s (``_hotter_quartic``), refined on [0,
    min(1, PHI/delta_s)] by ``_refine``, and absent when the quartic is not
    positive at the top of that range.  The large-``beta_s`` approximations
    ``beta_s -/+ log(3)/gap`` are always reported.  Raises ValueError when
    a temperature it would report is not finite.
    """
    if not gap > 0:
        raise ValueError("gap must be positive")
    if not beta_s >= 0:
        raise ValueError("beta_s must be non-negative")
    delta_s = math.exp(-beta_s * gap)
    if not delta_s >= _SMALLEST_WEIGHT:  # the rule of GibbsContext.checked_gamma
        raise ValueError(f"exp(-beta_s * gap) = {delta_s:.3g} is not a normal double: "
                         f"beta_s * gap must be at most {-math.log(_SMALLEST_WEIGHT):.6g}")

    delta_c1 = delta_s * (1.0 + 2.0 * math.sqrt(1.0 + delta_s**2) - 2.0 * delta_s)
    beta_c1 = -math.log(delta_c1) / gap if delta_c1 < 1.0 else None

    beta_c2, top = None, min(1.0, PHI / delta_s)
    if _hotter_quartic(top, delta_s) > 0:
        x = _refine(lambda X: _hotter_quartic(X, delta_s), [0.0], [top])[0]
        beta_c2 = beta_s - math.log(x) / gap

    log3 = math.log(3.0) / gap
    temps = (beta_c1, beta_c2, beta_s - log3, beta_s + log3)
    if not all(math.isfinite(t) for t in temps if t is not None):
        raise ValueError(f"beta_s (--beta-s) = {beta_s:g} and gap (--gap) = {gap:g} give a "
                         f"critical temperature that is not a finite double")
    return CriticalTemps(*temps)


def critical_temps_general(p: PopVector, gap: float, beta_range, n_scan: int) -> list:
    """All ambient inverse temperatures in ``beta_range`` at which the
    (2,1,3,4) extreme-point witness of ``p`` changes sign: the exact zeros
    of a scan of ``n_scan`` even steps, and a root refined by ``_refine`` in
    every step across which the sign bit flips.  The scan only brackets the
    roots; one ``fstar_batch`` call of at most MAX_SCAN points per round
    refines the brackets."""
    if p.dim != 4:
        raise ValueError("requires a 4-level state")
    lo, hi = float(beta_range[0]), float(beta_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"scan range must be finite, got {lo:g}:{hi:g}")
    if not (hi > lo):
        raise ValueError("empty scan range")
    if not 2 <= n_scan <= MAX_SCAN:
        raise ValueError(f"scan size must lie in 2..{MAX_SCAN}, got {n_scan}")

    # the ends validate every row: lo rejects a negative beta, and hi's
    # check covers the underflow, since the smallest weight falls with beta
    two_qubit_context(lo, gap)
    top = two_qubit_context(hi, gap)
    top.checked_gamma()
    e = np.array(top.energies)

    def fstar_at(B):
        P = np.broadcast_to(p.probs, (B.size, 4))
        return fstar_batch(P, _gibbs_rows(e, B.ravel())).reshape(B.shape)

    betas = np.linspace(lo, hi, n_scan)
    vals = fstar_at(betas)
    zero, neg = vals == 0.0, np.signbit(vals)
    cross = np.flatnonzero((neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:])
    per_call = MAX_SCAN // (REFINE_SPLIT + 1)  # brackets refined together
    groups = (cross[i:i + per_call] for i in range(0, len(cross), per_call))
    refined = [_refine(fstar_at, betas[c], betas[c + 1]) for c in groups]
    return np.sort(np.concatenate([betas[zero], *refined])).tolist()

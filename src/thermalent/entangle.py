"""Entanglement witnesses and thermal entanglability for two-qubit populations.

The central quantity is the witness ``f(q) = 4 q1 q4 - (q2 - q3)^2`` on
population vectors ordered as (|00>, |01>, |10>, |11>).  A negative value
means a rotation inside the degenerate energy subspace entangles the state
without touching the bath.  Thermal entanglability reduces to the witness at
the (2, 1, 3, 4) extreme point of the future thermal cone.  ``witness_batch``
and ``max_negativity`` on (n, 4) rows are the one witness and negativity
arithmetic; a single state is a one-row call, so a verdict and a volume read
the same bits for the same state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _SMALLEST_WEIGHT,
    PI_STAR,
    GibbsContext,
    PopVector,
    is_two_qubit_context,
    two_qubit_context,
)
from .majorization import _row_tiles, all_extreme_points, tight_point_tiles

#: strictness band around f = 0; the boundary counts as non-entanglable
TAU_F = 1e-12

#: golden-ratio conjugate, the branch point of the hot-system extreme state
PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: largest scan of ``critical_temps_general``: one Gibbs context per point,
#: about 2 s at the cap
MAX_SCAN = 100_000


def _as_probs(q, d: int = 4) -> np.ndarray:
    a = q.probs if isinstance(q, PopVector) else np.asarray(q, dtype=float)
    if a.shape != (d,):
        raise ValueError(f"expected a length-{d} population vector, got shape {a.shape}")
    return a


def witness_batch(Q: np.ndarray) -> np.ndarray:
    """Witness 4 q1 q4 - (q2 - q3)^2 of each row; negative iff subspace entanglable."""
    Q = np.asarray(Q, dtype=float)
    return 4.0 * Q[:, 0] * Q[:, 3] - (Q[:, 1] - Q[:, 2]) ** 2


def witness_f(q) -> float:
    """Witness of one state: a one-row ``witness_batch``."""
    return float(witness_batch(_as_probs(q)[None, :])[0])


def min_ppt_eigenvalue(q, theta: float) -> float:
    """Smallest partial-transpose eigenvalue of the (|00>, |11>) block after
    rotating the degenerate subspace by ``theta``.

    This is the only part of the spectrum that can turn negative, and it
    equals the global minimum whenever it is negative; the global minimum
    over theta sits at sin^2 2theta = 1.
    """
    a = _as_probs(q)
    s2 = math.sin(2.0 * theta) ** 2
    return 0.5 * (a[0] + a[3] - math.sqrt((a[1] - a[2]) ** 2 * s2 + (a[0] - a[3]) ** 2))


def is_subspace_entanglable(q) -> bool:
    """Strictly negative witness beyond the tolerance band."""
    return witness_f(q) < -TAU_F


def max_negativity(q):
    """Largest negativity a subspace rotation reaches, zero where the witness
    is non-negative: a number for one state, an array for (n, 4) rows."""
    a = q.probs if isinstance(q, PopVector) else np.asarray(q, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != 4:
        raise ValueError(f"expected length-4 population vectors, got shape {a.shape}")
    Q = a.reshape(-1, 4)
    neg = 0.5 * (np.hypot(Q[:, 0] - Q[:, 3], Q[:, 1] - Q[:, 2]) - (Q[:, 0] + Q[:, 3]))
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
    f_value, f_star = witness_batch(np.stack([p.probs, points[star]])).tolist()
    return WitnessReport(f_value=f_value, f_star=f_star, in_E=f_value < -TAU_F,
                         in_TE=f_star < -TAU_F,
                         max_negativity=float(max_negativity(points).max()),
                         optimal_theta=math.pi / 4.0, pi_star_point=PopVector(points[star]))


def fstar_batch(P: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Witness at the (2,1,3,4) extreme point for every row, at any beta,
    one tile of tight points at a time."""
    P = np.asarray(P, dtype=float)
    out = np.empty(P.shape[0])
    for lo, q in tight_point_tiles(_row_tiles(P), gammas, PI_STAR):
        out[lo:lo + len(q)] = witness_batch(q)
    return out


def tne_bruteforce(p: PopVector, ctx: GibbsContext) -> bool:
    """Independent oracle: non-entanglable iff the witness is non-negative at
    all 24 cone extreme points (all 24 permutations of ``p`` when beta is 0)."""
    if p.dim != 4 or ctx.dim != 4:
        raise ValueError("brute-force check requires d = 4")
    if ctx.beta == 0.0:
        points = p.probs[list(itertools.permutations(range(4)))]
    else:
        points = all_extreme_points(p, ctx)[1]
    return bool((witness_batch(points) >= -TAU_F).all())


# ---------------------------------------------------------------------------
# Negativity maximization over the future thermal cone
# ---------------------------------------------------------------------------

def max_negativity_over_cone(p: PopVector, ctx: GibbsContext):
    """Maximize reachable negativity over the future thermal cone of ``p``.

    The negativity is convex (a norm less a linear term), so its maximum over
    the cone polytope sits at an extreme point.  Returns ``(value, state)``.
    """
    points = all_extreme_points(p, ctx)[1]
    values = max_negativity(points)
    best = int(values.argmax())
    return float(values[best]), PopVector(points[best])


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


def fstar_thermal_hotter(delta: float, delta_s: float) -> float:
    """Witness at the (2,1,3,4) extreme point for a system hotter than the
    bath, on the branch valid for ambient weight below the golden ratio."""
    zs = (1.0 + delta_s) ** 2
    u = delta_s - delta
    return (-(u**2) * (1.0 + delta_s) ** 2
            + 4.0 * delta**2 * (1.0 + delta_s - (1.0 - delta_s) * delta - delta**2)) / zs**2


def _bisect(fn, lo, hi, rtol=1e-12, max_iter=200):
    flo = fn(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(abs(lo), abs(hi), 1e-30):
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_temps_thermal(beta_s: float, gap: float) -> CriticalTemps:
    """Critical ambient temperatures for a thermal initial state.

    ``beta_c1`` (hot bath side) comes from the closed form; ``beta_c2``
    (cold bath side) from bracketed bisection of the hot-system branch,
    absent when no root exists.  The large-``beta_s`` approximations
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

    beta_c2 = None
    hi = min(delta_s, PHI)
    lo = hi * 1e-14
    if delta_s > 0 and fstar_thermal_hotter(lo, delta_s) < 0 < fstar_thermal_hotter(hi, delta_s):
        root = _bisect(lambda d: fstar_thermal_hotter(d, delta_s), lo, hi)
        beta_c2 = -math.log(root) / gap

    log3 = math.log(3.0) / gap
    temps = (beta_c1, beta_c2, beta_s - log3, beta_s + log3)
    if not all(math.isfinite(t) for t in temps if t is not None):
        raise ValueError(f"beta_s (--beta-s) = {beta_s:g} and gap (--gap) = {gap:g} give a "
                         f"critical temperature that is not a finite double")
    return CriticalTemps(*temps)


def critical_temps_general(p: PopVector, gap: float, beta_range, n_scan: int) -> list:
    """Locate all ambient inverse temperatures at which the (2,1,3,4)
    extreme-point witness of ``p`` changes sign, by scan plus bisection."""
    if p.dim != 4:
        raise ValueError("requires a 4-level state")
    if gap <= 0:
        raise ValueError("gap must be positive")
    lo, hi = float(beta_range[0]), float(beta_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"scan range must be finite, got {lo:g}:{hi:g}")
    if not (hi > lo):
        raise ValueError("empty scan range")
    if not 2 <= n_scan <= MAX_SCAN:
        raise ValueError(f"scan size must lie in 2..{MAX_SCAN}, got {n_scan}")

    def h(beta):
        return fstar_batch(p.probs[None, :], two_qubit_context(beta, gap).checked_gamma())[0]

    betas = np.linspace(lo, hi, n_scan)
    gammas = np.array([two_qubit_context(b, gap).checked_gamma() for b in betas])
    vals = fstar_batch(np.tile(p.probs, (n_scan, 1)), gammas)

    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0:
            roots.append(float(betas[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(_bisect(h, float(betas[i]), float(betas[i + 1]), rtol=1e-9))
    if vals[-1] == 0.0:
        roots.append(float(betas[-1]))
    return roots


def qubit_qutrit_witnesses(p) -> tuple:
    """Witness pair for a qubit-qutrit system with level layout
    (0, E, E, 2E, 2E, 3E); the state is entanglable if either is negative."""
    a = _as_probs(p, d=6)
    f1 = 4.0 * a[0] * min(a[3], a[4]) - (a[1] - a[2]) ** 2
    f2 = 4.0 * a[5] * min(a[1], a[2]) - (a[3] - a[4]) ** 2
    return float(f1), float(f2)

"""Independent computations that the benchmark checks the CLI's outputs against.

Nothing here calls thermalent.  The curve construction is the one of
Horodecki & Oppenheim (Nat. Commun. 4, 2059, 2013), written afresh with a
segment lookup instead of the package's clamped-segment sum, and only for
finite beta; zero-temperature outputs are checked by properties instead.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: verdict band of the package: a witness below -TAU_F is entanglable
TAU_F = 1e-12

#: rows whose f* lies within BAND of 0 may get either verdict from a correct
#: implementation, because the two sides round differently
BAND = 1e-9

#: the volume command draws 65,536 samples per Philox key (seed, block)
BLOCK = 65536

PERMS = tuple(itertools.permutations(range(4)))

#: zero-based levels of the (2, 1, 3, 4) ordering whose extreme point decides TE
PI_STAR = (1, 0, 2, 3)


def gibbs(beta: float, energies=(0.0, 1.0, 1.0, 2.0)) -> np.ndarray:
    """Equilibrium populations at a finite inverse temperature."""
    logw = -beta * np.asarray(energies, dtype=float)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def simplex_blocks(seed: int, n: int):
    """The volume command's uniform simplex samples, one block at a time."""
    for block, lo in enumerate(range(0, n, BLOCK)):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
        e = np.random.Generator(np.random.Philox(key=key)).standard_exponential(
            (min(lo + BLOCK, n) - lo, 4))
        yield e / e.sum(axis=1, keepdims=True)


def witness(Q: np.ndarray) -> np.ndarray:
    """f(q) = 4 q1 q4 - (q2 - q3)^2 for every row."""
    return 4.0 * Q[:, 0] * Q[:, 3] - (Q[:, 1] - Q[:, 2]) ** 2


def min_witness_over_perms(Q: np.ndarray) -> np.ndarray:
    """Smallest witness over all 24 relabellings of each row: at beta = 0 the
    future thermal cone is the permutohedron, so this is f* there."""
    return np.min([witness(Q[:, list(p)]) for p in PERMS], axis=0)


def curve_at(P: np.ndarray, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's thermomajorization curve evaluated at the shared points x.

    Levels go in order of non-increasing p/gamma; the curve joins the
    cumulative (gamma, p) sums.  Each x is placed in its segment by counting
    left edges, then interpolated on that segment.
    """
    order = np.argsort(-(P / gamma), axis=1, kind="stable")
    g = gamma[order]
    p = np.take_along_axis(P, order, axis=1)
    x0 = np.cumsum(g, axis=1) - g
    y0 = np.cumsum(p, axis=1) - p
    seg = (x0[:, None, :] <= x[None, :, None]).sum(axis=2) - 1
    pick = lambda a: np.take_along_axis(a, seg, axis=1)  # noqa: E731
    return pick(y0) + (x[None, :] - pick(x0)) * pick(p / g)


def fstar(P: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Witness at each row's (2, 1, 3, 4) tight-majorized extreme point."""
    xt = np.cumsum(gamma[list(PI_STAR)])
    yt = curve_at(P, gamma, xt)
    Q = np.empty_like(P)
    Q[:, list(PI_STAR)] = np.diff(yt, prepend=0.0, axis=1)
    return witness(Q)


def vertex_max_negativity(V: np.ndarray) -> float:
    """max(0, (|(q1 - q4, q2 - q3)| - (q1 + q4)) / 2) over the rows of V.

    The negativity is convex, so over a polytope its maximum sits at a vertex.
    """
    V = np.asarray(V, dtype=float)
    neg = 0.5 * (np.hypot(V[:, 0] - V[:, 3], V[:, 1] - V[:, 2]) - (V[:, 0] + V[:, 3]))
    return max(0.0, float(neg.max()))


def thermal_state(beta_s: float, gap: float = 1.0) -> np.ndarray:
    return gibbs(beta_s, (0.0, gap, gap, 2.0 * gap))


def sign_changes(p: np.ndarray, lo: float, hi: float, n: int) -> int:
    """How often f* of state p changes sign on n evenly spaced inverse
    temperatures from lo to hi; a scan point where f* is exactly 0 counts once."""
    vals = np.array([fstar(p[None, :], gibbs(b))[0] for b in np.linspace(lo, hi, n)])
    signs = np.sign(vals)
    return int((signs == 0).sum() + (signs[:-1] * signs[1:] < 0).sum())


def sign_flips_at(p: np.ndarray, root: float, rel: float = 1e-6) -> bool:
    """True when f* of state p changes sign across the inverse temperature root."""
    h = rel * max(abs(root), 1.0)
    below = fstar(p[None, :], gibbs(root - h))[0]
    above = fstar(p[None, :], gibbs(root + h))[0]
    return math.copysign(1.0, below) != math.copysign(1.0, above)

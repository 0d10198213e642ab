import dataclasses
import json
import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import assume, strategies as st

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_states(rng, n, d=4):
    """Uniform simplex samples for bulk property checks."""
    e = rng.standard_exponential((n, d))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Reference: the per-row construction of Horodecki & Oppenheim, one state at
# a time in plain Python, with the zero-temperature rules spelled out.  The
# package's batch kernel is checked against it.
# ---------------------------------------------------------------------------

def ref_order(p, gamma):
    """Zero-based ordering: populated zero-weight levels first by descending
    population, then finite ratios descending, unpopulated zero-weight
    levels last; ties by ascending index."""
    def key(i):
        if gamma[i] == 0:
            return (0, -p[i], i) if p[i] > 0 else (2, 0.0, i)
        return (1, -p[i] / gamma[i], i)
    return sorted(range(len(p)), key=key)


def tile_order(P, gammas):
    """The package's zero-based orderings of the (n, d) rows P, one row each:
    ``core._tile_levels`` on P as one level-major tile.  ``gammas`` is one
    (d,) Gibbs vector, or an (n, d) array of one per row."""
    from thermalent.core import _tile_levels
    G = np.asarray(gammas, dtype=float)
    return _tile_levels(np.asarray(P, dtype=float).T.copy(), G if G.ndim == 1 else G.T.copy())[0].T


def ref_curve(p, gamma):
    """Elbows of the curve; a zero-width run keeps its top point, and a jump
    at x=0 keeps a second x=0 entry above the origin."""
    order = ref_order(p, gamma)
    mx, my = [0.0], [0.0]
    for x, y in zip(np.cumsum(gamma[order]), np.cumsum(p[order])):
        if mx[-1] == x and len(mx) > 1:
            my[-1] = y
        else:
            mx.append(x)
            my.append(y)
    return np.array(mx), np.array(my)


def ref_upper(curve, x):
    """Curve value at x, reading the top of the jump at x=0."""
    xs, ys = curve
    start = 1 if xs[1] == 0.0 else 0
    return np.interp(x, xs[start:], ys[start:])


def ref_extreme_point(p, gamma, perm):
    t0 = np.array(perm) - 1
    yt = ref_upper(ref_curve(p, gamma), np.cumsum(gamma[t0]))
    out = np.empty(len(p))
    out[t0] = np.diff(yt, prepend=0.0)
    return np.clip(out, 0.0, None)


def ref_tight(maps, sorted_p):
    """Each row's map applied to its sorted populations by one einsum,
    q[n, i] = sum_k maps[n, k, i] sorted_p[n, k], clipped at 0."""
    q = np.einsum("nki,nk->ni", np.ascontiguousarray(maps), np.ascontiguousarray(sorted_p))
    return np.clip(q, 0.0, None, out=q)


def ref_margin(p, q, gamma):
    """Least value of p's curve less q's over the elbows of both curves; at
    x=0 the tops of the jumps are compared."""
    cp, cq = ref_curve(p, gamma), ref_curve(q, gamma)
    xs = np.union1d(cp[0], cq[0])
    return float(np.min(ref_upper(cp, xs) - ref_upper(cq, xs)))


# ---------------------------------------------------------------------------
# Reference: dominance and the curve from the hinge sums h_r(lam) = sum_j
# max(0, r_j - lam gamma_j), with no ordering of the levels and no package
# code.  The package's dominance test and its cone vertices are checked
# against it.
# ---------------------------------------------------------------------------

def ref_hinge(r, gamma, lam):
    """h_r(lam), in the arithmetic of its arguments."""
    return sum(max(0, rj - lam * gj) for rj, gj in zip(r, gamma))


def ref_hinge_excess(p, q, gamma):
    """Largest h_q - h_p over p's kinks p_i/gamma_i (p_i, gamma_i > 0) and,
    with zero weights, the limit lam -> oo (q's mass on those levels less
    p's), exactly: a ``Fraction`` of the input doubles.  p thermomajorizes q
    within tol iff it is at most tol."""
    p, q, g = ([Fraction(float(v)) for v in r] for r in (p, q, gamma))
    kinks = {pi / gi for pi, gi in zip(p, g) if pi > 0 and gi > 0}
    gaps = [ref_hinge(q, g, lam) - ref_hinge(p, g, lam) for lam in kinks]
    zero = [j for j, gj in enumerate(g) if gj == 0]
    if zero:
        gaps.append(sum(q[j] for j in zero) - sum(p[j] for j in zero))
    return max(gaps)


def ref_dual_curve(p, gamma, x):
    """p's curve at x > 0 at finite beta, from its hinge sums: min(1, min_i
    lam_i x + h_p(lam_i)) over p's kinks lam_i = p_i/gamma_i."""
    kinks = [float(pi) / float(gi) for pi, gi in zip(p, gamma) if pi > 0]
    return min([1.0] + [lam * x + ref_hinge(p, gamma, lam) for lam in kinks])


def face_or_tied(draw_probs, zeros, tie):
    """Put states on simplex faces and give levels 2 and 3 (equal Gibbs
    weights) equal populations."""
    p = np.array(draw_probs, dtype=float)
    p[list(zeros)] = 0.0
    if tie:
        p[2] = p[1]
    assume(p.sum() > 0)
    return p / p.sum()


state_strategy = st.builds(
    face_or_tied,
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    st.sets(st.integers(0, 3), max_size=2),
    st.booleans())

#: qutrit states, for contexts in which levels 2 and 3 may share a weight
qutrit_strategy = st.builds(
    face_or_tied,
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.sets(st.integers(0, 2), max_size=1),
    st.booleans())


# ---------------------------------------------------------------------------
# Reference: the schedule search one candidate at a time, with the step of
# one partial thermalization written out per level pair.  The package scores
# each beam state's candidates with one witness call.
# ---------------------------------------------------------------------------

def ref_step(p, energies, beta, pair, lam):
    i0, j0 = pair[0] - 1, pair[1] - 1
    de = energies[j0] - energies[i0]
    if math.isinf(beta):
        share = 0.5 if de == 0 else (1.0 if de > 0 else 0.0)
    else:
        share = 1.0 / (1.0 + math.exp(-beta * de))
    s = p[i0] + p[j0]
    out = p.copy()
    out[i0] = (1.0 - lam) * p[i0] + lam * share * s
    out[j0] = (1.0 - lam) * p[j0] + lam * (1.0 - share) * s
    return out


def ref_mtp_search(probs, energies, beta, witness, strategy, budget):
    """(best_f, schedule steps, best state, evaluations) of the search: every
    candidate in action order, the best moving only on a strict improvement
    by 1e-15, the budget cutting inside a beam, the next beam the ``width``
    best candidates of a stable sort."""
    actions = [((i, j), k / 10.0) for i in range(1, 5) for j in range(i + 1, 5)
               for k in range(1, 11)]
    width = 1 if strategy == "greedy" else 8
    best_f, best_sched, best_state = witness(probs), (), probs
    beams = [(best_f, probs, ())]
    evals = 0
    while evals < budget:
        candidates = []
        for _, state, sched in beams:
            for pair, lam in actions:
                nxt = ref_step(state, energies, beta, pair, lam)
                fval = witness(nxt)
                evals += 1
                candidates.append((fval, nxt, sched + ((pair, lam),)))
                if fval < best_f - 1e-15:
                    best_f, best_state, best_sched = fval, nxt, sched + ((pair, lam),)
                if evals >= budget:
                    break
            if evals >= budget:
                break
        candidates.sort(key=lambda c: c[0])
        frontier = candidates[:width]
        if not frontier or frontier[0][0] >= beams[0][0] - 1e-15:
            break
        beams = frontier
    return best_f, best_sched, best_state, evals


# ---------------------------------------------------------------------------
# Reference: one block of uniform simplex samples drawn whole and normalized
# by numpy's row sums.  The package draws it in reused tiles and adds the
# row sums column by column.
# ---------------------------------------------------------------------------

def ref_simplex_block(d, rows, seed, block):
    """One block of uniform simplex points, from the Philox key (seed, block)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)])
    e = np.random.Generator(np.random.Philox(key=key)).standard_exponential((rows, d))
    e /= e.sum(axis=1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# Reference: the facet grid as a set of float tuples, one facet at a time.
# The package builds it from integer index arrays.
# ---------------------------------------------------------------------------

def ref_facet_grid(m):
    """The points a/m on each facet of the 3-simplex, duplicates dropped by a
    set, sorted as tuples."""
    pts = set()
    for zero in range(4):
        slots = [i for i in range(4) if i != zero]
        for a in range(m + 1):
            for b in range(m + 1 - a):
                q = [0.0, 0.0, 0.0, 0.0]
                q[slots[0]], q[slots[1]], q[slots[2]] = a / m, b / m, (m - a - b) / m
                pts.add(tuple(q))
    return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# Reference: the TNE boundary by bisection, ``iters`` halvings of the bracket
# from each entanglable facet grid point o (outer) toward the Gibbs state
# (inner).  The package solves one quadratic per ray instead.
# ---------------------------------------------------------------------------

def ref_tne_boundary(grid_pts, gamma, iters):
    """(o, inner, outer) per ray: the entanglable grid points and the
    bisection bracket ends; each end keeps ``fstar_batch``'s verdict."""
    from thermalent.entangle import TAU_F, fstar_batch

    outer = grid_pts[fstar_batch(grid_pts, gamma) < -TAU_F]
    o, inner = outer.copy(), np.tile(gamma, (outer.shape[0], 1))
    for _ in range(iters):
        mid = 0.5 * (inner + outer)
        in_tne = fstar_batch(mid, gamma) >= -TAU_F
        inner[in_tne] = mid[in_tne]
        outer[~in_tne] = mid[~in_tne]
    return o, inner, outer


# ---------------------------------------------------------------------------
# Reference: paper formulas and oracles that no command reads.  The tests
# hold each against the package code it describes.
# ---------------------------------------------------------------------------

def ref_min_ppt_eigenvalue(q, theta):
    """Smallest partial-transpose eigenvalue of the (|00>, |11>) block after
    rotating the degenerate subspace by ``theta``.

    This is the only part of the spectrum that can turn negative, and it
    equals the global minimum whenever it is negative; the global minimum
    over theta sits at sin^2 2theta = 1.
    """
    a = np.asarray(q, dtype=float)
    s2 = math.sin(2.0 * theta) ** 2
    return 0.5 * (a[0] + a[3] - math.sqrt((a[1] - a[2]) ** 2 * s2 + (a[0] - a[3]) ** 2))


def ref_qubit_qutrit_witnesses(p):
    """Witness pair for a qubit-qutrit system with level layout
    (0, E, E, 2E, 2E, 3E); the state is entanglable if either is negative."""
    a = np.asarray(p, dtype=float)
    if a.shape != (6,):
        raise ValueError(f"expected a length-6 population vector, got shape {a.shape}")
    f1 = 4.0 * a[0] * min(a[3], a[4]) - (a[1] - a[2]) ** 2
    f2 = 4.0 * a[5] * min(a[1], a[2]) - (a[3] - a[4]) ** 2
    return float(f1), float(f2)


def ref_ne_boundary_p3(p1, p2):
    """Both roots in the third coordinate of the witness zero surface:
    p3 = -2 p1 + p2 -/+ 2 sqrt(p1 - 2 p1 p2).

    Roots are returned raw; callers select the one inside the simplex.
    """
    disc = p1 * (1.0 - 2.0 * p2)
    if disc < 0:
        raise ValueError(f"no real roots: p1 (1 - 2 p2) = {disc} < 0")
    r = 2.0 * math.sqrt(disc)
    base = -2.0 * p1 + p2
    return base - r, base + r


def ref_jc_joint_evolution(initial_qubit, beta_E, n_max, t):
    """Exact joint qubit+mode state after interacting for time ``t`` (in units
    of the inverse coupling), from the full unitary on the truncated space.

    Basis |q, n> with index q*(n_max+1) + n.  The package evolves only the
    excitation-conserving 2x2 blocks (``dynamics._transfer_prob``).
    """
    from thermalent.dynamics import DensityMatrix, thermal_mode_weights

    if initial_qubit not in (0, 1):
        raise ValueError("initial_qubit must be 0 or 1")
    weights = thermal_mode_weights(beta_E, n_max)
    nm = n_max + 1
    u = np.eye(2 * nm, dtype=complex)
    for n in range(n_max):
        th = math.sqrt(n + 1) * t
        i, j = nm + n, n + 1          # |1, n> and |0, n+1>
        u[i, i] = u[j, j] = math.cos(th)
        u[i, j] = u[j, i] = -1j * math.sin(th)
    rho0 = np.zeros((2 * nm, 2 * nm), dtype=complex)
    off = initial_qubit * nm
    rho0[off:off + nm, off:off + nm] = np.diag(weights)
    return DensityMatrix(u @ rho0 @ u.conj().T)


def ref_fstar_thermal_hotter(delta, delta_s):
    """Witness at the (2,1,3,4) extreme point for a thermal system of weight
    ``delta_s`` hotter than the bath, on the branch valid for ambient weight
    ``delta`` below the golden ratio.  The package refines the same branch in
    x = delta/delta_s (``entangle._hotter_quartic``)."""
    zs = (1.0 + delta_s) ** 2
    u = delta_s - delta
    return (-(u**2) * (1.0 + delta_s) ** 2
            + 4.0 * delta**2 * (1.0 + delta_s - (1.0 - delta_s) * delta - delta**2)) / zs**2


def ref_thermal_c2(beta_s, gap=1.0):
    """beta_c2 of a thermal state, or None: 64 exact-rational halvings of the
    hot-system branch's numerator, -(ds - d)^2 (1 + ds)^2 + 4 d^2 (1 + ds -
    (1 - ds) d - d^2) at d = x ds, over x in [0, min(1, PHI/ds)], where ds is
    the double exp(-beta_s gap).  There is a root iff the numerator is
    positive at the top, and beta_c2 = beta_s - log(x)/gap."""
    from thermalent.entangle import PHI

    ds = Fraction(math.exp(-beta_s * gap))

    def positive(x):
        d = x * ds
        return 4 * d**2 * (1 + ds - (1 - ds) * d - d**2) > (ds - d) ** 2 * (1 + ds) ** 2

    lo, hi = Fraction(0), min(Fraction(1), Fraction(PHI) / ds)
    if not positive(hi):
        return None
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if positive(mid) else (mid, hi)
    return beta_s - math.log((lo + hi) / 2) / gap


def ref_critical_roots(p, gap, beta_range, n_scan):
    """The critical-temperature roots as the package first found them: the
    exact zeros of an ``n_scan``-point scan of ``fstar_batch``, and a scalar
    bisection, to 1e-9 of the larger end, of each step whose ends have a
    negative product."""
    from thermalent.core import _gibbs_rows
    from thermalent.entangle import fstar_batch

    e = np.array([0.0, gap, gap, 2.0 * gap])

    def h(beta):
        return fstar_batch(p[None, :], _gibbs_rows(e, beta))[0]

    betas = np.linspace(beta_range[0], beta_range[1], n_scan)
    vals = fstar_batch(np.tile(p, (n_scan, 1)), _gibbs_rows(e, betas))
    roots = []
    for i in range(n_scan - 1):
        if vals[i] == 0.0:
            roots.append(float(betas[i]))
        elif vals[i] * vals[i + 1] < 0:
            lo, hi, flo = float(betas[i]), float(betas[i + 1]), vals[i]
            while hi - lo > 1e-9 * max(abs(lo), abs(hi), 1e-30):
                mid = 0.5 * (lo + hi)
                fm = h(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(float(betas[-1]))
    return roots


def ref_fstar(p, gamma):
    """Witness at the (2,1,3,4) extreme point, from the per-row reference."""
    q = ref_extreme_point(np.asarray(p, dtype=float), gamma, (2, 1, 3, 4))
    return 4.0 * q[0] * q[3] - (q[1] - q[2]) ** 2


def ref_fstar_exact(p, gamma):
    """Witness at the (2,1,3,4) extreme point, exactly: the input doubles
    taken as ``Fraction``s, the curve read at the target elbows in rational
    arithmetic, a zero-width segment a step at its left edge."""
    p = [Fraction(float(v)) for v in p]
    g = [Fraction(float(v)) for v in gamma]
    order = ref_order(p, g)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for i in order:
        xs.append(xs[-1] + g[i])
        ys.append(ys[-1] + p[i])

    def height(x):
        y = Fraction(0)
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if x1 == x0:
                y += (y1 - y0) if x >= x0 else 0
            else:
                y += (y1 - y0) * min(max((x - x0) / (x1 - x0), Fraction(0)), Fraction(1))
        return y

    target = (1, 0, 2, 3)
    q, x, prev = [Fraction(0)] * 4, Fraction(0), Fraction(0)
    for i in target:
        x += g[i]
        y = height(x)
        q[i], prev = max(y - prev, Fraction(0)), y
    return 4 * q[0] * q[3] - (q[1] - q[2]) ** 2


def ref_chamber_fstar(P):
    """f* of each (n, 4) row at beta = 0, in closed form: the populations in
    descending order p1 >= p2 >= p3 >= p4 fill the (2,1,3,4) extreme point
    as (p2, p1, p3, p4), so f* = 4 p2 p4 - (p1 - p3)^2, computed in the
    operation order of ``witness_batch``."""
    S = np.sort(np.asarray(P, dtype=float), axis=1)[:, ::-1]
    w = S[:, 1] * 4.0
    w *= S[:, 3]
    t = S[:, 0] - S[:, 2]
    return w - t * t


# ---------------------------------------------------------------------------
# Reference: the result text as the CLI first wrote it, a second walk that
# rounds every float through its own f-string followed by ``json.dumps``, and
# the per-value CSV and OBJ lines.  The one-walk writer must give the same
# bytes.
# ---------------------------------------------------------------------------

def ref_round12(obj):
    """JSON form of a result: floats at 12 significant digits, a ``PopVector``
    as its populations, a ``Fraction`` as its str, a dataclass as its fields."""
    from thermalent.core import PopVector

    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, PopVector):
        return ref_round12(obj.probs)
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return ref_round12({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return {k: ref_round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_round12(v) for v in obj]
    if isinstance(obj, np.ndarray):
        flat = [float(f"{v:.12g}") if isinstance(v, float) else v for v in obj.ravel().tolist()]
        return np.array(flat).reshape(obj.shape).tolist()
    if isinstance(obj, (np.floating,)):
        return ref_round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def ref_result_text(obj, indent=2):
    """JSON text of a result: indented, or with ``indent=None`` the compact
    layout of the CSV manifest line."""
    return json.dumps(ref_round12(obj), indent=indent)


def ref_csv_text(manifest, header, rows):
    """CSV output: the manifest comment line, the header, one line per row."""
    lines = [f"# manifest: {ref_result_text(manifest, None)}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_obj_text(points3d, faces):
    """OBJ text of a mesh, one f-string per vertex and per face."""
    lines = [f"v {x:.12g} {y:.12g} {z:.12g}" for x, y, z in points3d.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces.tolist()]
    return "\n".join(lines) + "\n"

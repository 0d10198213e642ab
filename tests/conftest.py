import math

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


def ref_margin(p, q, gamma):
    """Least value of p's curve less q's over the elbows of both curves; at
    x=0 the tops of the jumps are compared."""
    cp, cq = ref_curve(p, gamma), ref_curve(q, gamma)
    xs = np.union1d(cp[0], cq[0])
    return float(np.min(ref_upper(cp, xs) - ref_upper(cq, xs)))


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

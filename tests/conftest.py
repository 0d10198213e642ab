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

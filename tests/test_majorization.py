import hashlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from thermalent import core, entangle as en, majorization as mj
from tests.conftest import (
    qutrit_strategy, random_states, ref_curve, ref_dual_curve, ref_extreme_point,
    ref_hinge_excess, ref_margin, ref_order, ref_tight, ref_upper, state_strategy, tile_order)


def ctx2q(beta):
    return core.two_qubit_context(beta)


beta_strategy = st.one_of(st.floats(0.0, 50.0), st.just(math.inf))


class TestCurve:
    def test_gibbs_state_is_diagonal(self):
        ctx = ctx2q(1.3)
        c = mj.curve(core.PopVector(ctx.gamma), ctx)
        assert np.allclose(c.xs, c.ys, atol=1e-14)
        assert c.evaluate(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_sharp_state_saturates_at_gamma4(self):
        ctx = ctx2q(0.7)
        c = mj.curve(core.PopVector([0, 0, 0, 1]), ctx)
        g4 = ctx.gamma[3]
        assert c.evaluate(g4) == pytest.approx(1.0, abs=1e-12)
        assert c.evaluate(0.5 * (1 + g4)) == pytest.approx(1.0, abs=1e-12)

    def test_three_level_elbows(self):
        # Hamiltonian (0, 1, 2) assumed for the three-level example
        ctx = core.make_context((0, 1, 2), 0.5)
        assert np.allclose(ctx.gamma, [0.506, 0.307, 0.186], atol=5e-4)
        c = mj.curve(core.PopVector([0.7, 0.2, 0.1]), ctx)
        g = ctx.gamma
        assert np.allclose(c.xs, [0, g[0], g[0] + g[1], 1], atol=1e-12)

    def test_evaluate_endpoints(self, rng):
        for _ in range(20):
            p = core.PopVector(random_states(rng, 1)[0])
            c = mj.curve(p, ctx2q(rng.exponential()))
            assert c.evaluate(0.0) == 0.0
            assert c.evaluate(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_evaluate_range_errors(self):
        c = mj.curve(core.PopVector([0.5, 0.3, 0.1, 0.1]), ctx2q(1.0))
        with pytest.raises(ValueError):
            c.evaluate(-0.2)
        with pytest.raises(ValueError):
            c.evaluate(1.2)

    def test_invariants_bulk(self, rng):
        # concavity, monotonicity, above-diagonal over 1e5 random (p, ctx)
        n = 100_000
        P = random_states(rng, n)
        betas = rng.uniform(0, 5, size=n)
        E = np.array([0.0, 1.0, 1.0, 2.0])
        logw = -betas[:, None] * E[None, :]
        G = np.exp(logw - logw.max(axis=1, keepdims=True))
        G /= G.sum(axis=1, keepdims=True)
        order = tile_order(P, G)
        X = mj._cumulative_weights(G.T, order).T
        Y = mj._cumulative_weights(P.T, order).T
        widths = np.diff(np.concatenate([np.zeros((n, 1)), X], axis=1), axis=1)
        assert widths.min() > 0
        slopes = np.diff(np.concatenate([np.zeros((n, 1)), Y], axis=1), axis=1) / widths
        assert np.all(np.diff(slopes, axis=1) <= 1e-12)
        assert np.all(Y >= X - 1e-12)
        assert np.allclose(X[:, -1], 1.0, atol=1e-12)
        assert np.allclose(Y[:, -1], 1.0, atol=1e-12)

    def test_infinite_beta_jump_representation(self):
        ctx = ctx2q(math.inf)
        c = mj.curve(core.PopVector([0.2, 0.5, 0.3, 0.0]), ctx)
        assert c.evaluate(0.0) == 0.0
        assert c.xs[1] == 0.0 and c.ys[1] == pytest.approx(0.8)
        # the least positive x reads the top of the jump
        assert c.evaluate(5e-324) == c.ys[1]
        assert c.evaluate(0.5) == pytest.approx(0.9)
        # a ground level after an excited one: gamma = (0, 1, 0, 0)
        ctx = core.make_context((1, 0, 1, 2), math.inf)
        for probs in ([0.3, 0.2, 0.5, 0.0], [0.0, 0.6, 0.0, 0.4], [0.0, 1.0, 0.0, 0.0]):
            c, ref = mj.curve(core.PopVector(probs), ctx), ref_curve(np.array(probs), ctx.gamma)
            assert np.array_equal(c.xs, ref[0]) and np.array_equal(c.ys, ref[1])


class TestThermoMajorizes:
    def test_three_level_pair(self):
        ctx = core.make_context((0, 1, 2), 0.5)
        p = core.PopVector([0.7, 0.2, 0.1])
        q = core.PopVector([0.6, 0.2, 0.2])
        assert mj.thermo_majorizes(p, q, ctx)
        assert not mj.thermo_majorizes(q, p, ctx)

    def test_gibbs_reachable_from_anything(self, rng):
        ctx = ctx2q(0.8)
        g = core.PopVector(ctx.gamma)
        for row in random_states(rng, 50):
            assert mj.thermo_majorizes(core.PopVector(row), g, ctx)

    def test_top_state_majorizes_everything(self, rng):
        ctx = ctx2q(1.7)
        top = core.PopVector([0, 0, 0, 1])
        for row in random_states(rng, 50):
            assert mj.thermo_majorizes(top, core.PopVector(row), ctx)

    def test_transitivity_constructive(self, rng):
        # q from p's cone, r from q's cone => r in p's cone
        for _ in range(30):
            beta = rng.exponential()
            ctx = ctx2q(beta)
            p = core.PopVector(random_states(rng, 1)[0])
            Vp = mj.future_cone(p, ctx).points
            wq = rng.dirichlet(np.ones(Vp.shape[0]))
            q = core.PopVector(Vp.T @ wq)
            Vq = mj.future_cone(q, ctx).points
            wr = rng.dirichlet(np.ones(Vq.shape[0]))
            r = core.PopVector(Vq.T @ wr)
            assert mj.thermo_majorizes(p, q, ctx)
            assert mj.thermo_majorizes(q, r, ctx)
            assert mj.thermo_majorizes(p, r, ctx)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mj.thermo_majorizes(core.PopVector([0.5, 0.5]),
                                core.PopVector([0.4, 0.3, 0.3]), ctx2q(1.0))

    def test_infinite_beta_jump_comparison(self):
        ctx = ctx2q(math.inf)
        # bigger jump dominates
        p = core.PopVector([0.1, 0.9, 0.0, 0.0])
        q = core.PopVector([0.5, 0.5, 0.0, 0.0])
        assert mj.thermo_majorizes(p, q, ctx)
        assert not mj.thermo_majorizes(q, p, ctx)


class TestExtremePoint:
    def test_beta_swap_of_ground_state(self):
        # independent oracle: the maximal two-level population exchange
        # compatible with Gibbs preservation is T = [[1-D, 1], [D, 0]]
        ctx = ctx2q(1.0)
        delta = math.exp(-1.0)
        swap = np.array([[1 - delta, 1.0], [delta, 0.0]])
        expected12 = swap @ np.array([1.0, 0.0])
        p = core.PopVector([1, 0, 0, 0])
        out = mj.extreme_point(p, ctx, core.PI_STAR)
        assert np.allclose(out.probs[:2], expected12, atol=1e-15)
        assert np.allclose(out.probs[2:], 0.0, atol=1e-15)

    def test_own_ordering_returns_p(self, rng):
        ctx = ctx2q(0.9)
        for row in random_states(rng, 25):
            p = core.PopVector(row)
            own = core.BetaOrdering(tile_order(row[None, :], ctx.gamma)[0] + 1)
            assert np.allclose(mj.extreme_point(p, ctx, own).probs, p.probs, atol=1e-12)

    def test_thermal_state_population_exchange(self):
        # system colder than bath: closed-form exchange of the two lowest levels
        beta_s, beta = 2.0, 1.0
        ds, d = math.exp(-beta_s), math.exp(-beta)
        zs = (1 + ds) ** 2
        p = core.PopVector(np.array([1, ds, ds, ds**2]) / zs)
        out = mj.extreme_point(p, ctx2q(beta), core.PI_STAR)
        assert np.allclose(out.probs, np.array([1 - d + ds, d, ds, ds**2]) / zs, atol=1e-14)

    def test_tightness_and_membership_all_orderings(self, rng):
        ctx = ctx2q(1.2)
        for row in random_states(rng, 10):
            p = core.PopVector(row)
            cp = mj.curve(p, ctx)
            for perm in itertools.permutations(range(1, 5)):
                target = core.BetaOrdering(perm)
                q = mj.extreme_point(p, ctx, target)
                assert mj.thermo_majorizes(p, q, ctx)
                cq = mj.curve(q, ctx)
                for xk, yk in zip(cq.xs, cq.ys):
                    assert abs(cp.evaluate(xk) - yk) <= 1e-12

    def test_labeled_ordering_up_to_ties(self, rng):
        ctx = ctx2q(0.6)
        for row in random_states(rng, 10):
            p = core.PopVector(row)
            for perm in itertools.permutations(range(1, 5)):
                q = mj.extreme_point(p, ctx, core.BetaOrdering(perm))
                ratios = q.probs / ctx.gamma
                got = np.array(ratios)[np.array(perm) - 1]
                assert np.all(np.diff(got) <= 1e-10)

    def test_infinite_beta_ground_is_fixed(self):
        ctx = ctx2q(math.inf)
        p = core.PopVector([1, 0, 0, 0])
        out = mj.extreme_point(p, ctx, core.PI_STAR)
        assert np.array_equal(out.probs, [1, 0, 0, 0])

    def test_infinite_beta_concentrates_excited_mass(self):
        ctx = ctx2q(math.inf)
        p = core.PopVector([0.4, 0.2, 0.3, 0.1])
        out = mj.extreme_point(p, ctx, core.PI_STAR)
        assert np.allclose(out.probs, [0.4, 0.6, 0.0, 0.0], atol=1e-15)
        # a ground level after an excited one: gamma = (0, 1, 0, 0); all 24
        # extreme points against the reference curve
        ctx = core.make_context((1, 0, 1, 2), math.inf)
        for probs in ([0.4, 0.2, 0.3, 0.1], [0.0, 0.6, 0.0, 0.4], [0.5, 0.0, 0.5, 0.0]):
            targets, points = mj.all_extreme_points(core.PopVector(probs), ctx)
            for perm, q in zip(targets + 1, points):
                ref = ref_extreme_point(np.array(probs), ctx.gamma, perm)
                assert np.allclose(q, ref, rtol=0, atol=1e-12)
                assert np.array_equal(mj.extreme_point(core.PopVector(probs), ctx,
                                                       core.BetaOrdering(perm)).probs, q)


class TestFutureCone:
    def test_gibbs_cone_is_a_point(self):
        ctx = ctx2q(1.1)
        cone = mj.future_cone(core.PopVector(ctx.gamma), ctx)
        assert len(cone.points) == 1
        assert np.allclose(cone.points[0], ctx.gamma, atol=1e-12)

    def test_pure_state_beta_zero(self):
        cone = mj.future_cone(core.PopVector([0, 0, 0, 1]), ctx2q(0.0))
        assert len(cone.points) == 4
        eye = np.eye(4)
        for row in cone.points:
            assert min(np.abs(row - e).max() for e in eye) < 1e-12

    def test_beta_zero_reduces_to_permutations(self):
        p = core.PopVector([0.4, 0.25, 0.33, 0.02])
        cone = mj.future_cone(p, ctx2q(0.0))
        assert len(cone.points) == 24
        got = {tuple(np.round(row, 12)) for row in cone.points}
        expected = {tuple(np.round(np.array(perm), 12))
                    for perm in itertools.permutations([0.4, 0.25, 0.33, 0.02])}
        assert got == expected

    def test_duplicates_named_by_first_ordering(self):
        # levels 2 and 3 share a Gibbs weight; several orderings reach the
        # same vertices up to rounding, and each vertex is listed once
        cone = mj.future_cone(core.PopVector([0.4, 0.25, 0.33, 0.02]), ctx2q(1.0))
        assert len(cone.points) == 21
        assert cone.orders[:3].tolist() == [[1, 2, 3, 4], [1, 2, 4, 3], [1, 3, 4, 2]]

    def test_listed_vertices_are_apart(self):
        # near beta=0 the orderings (1,2,3,4), (2,1,3,4) and (2,3,1,4) reach
        # points 3.3e-11 and 6.7e-11 apart, in a chain whose ends are
        # 1.00000119e-10 apart: the middle one joins the first, and both ends
        # are listed
        p = np.array([0, 1e-10, 1e-10, 1e-10])
        cone = mj.future_cone(core.PopVector(p / p.sum()), ctx2q(1e-10))
        V = cone.points
        gaps = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2) + np.eye(len(V))
        assert (gaps > mj.TAU_CMP).all()
        perms = [tuple(o) for o in cone.orders.tolist()]
        assert (1, 2, 3, 4) in perms and (2, 3, 1, 4) in perms
        assert (2, 1, 3, 4) not in perms

    def test_labels_recorded(self):
        # one read-only 1-based ordering row per read-only vertex row, and
        # each vertex is the extreme point of its ordering
        p = core.PopVector([0.4, 0.25, 0.33, 0.02])
        ctx = ctx2q(0.5)
        cone = mj.future_cone(p, ctx)
        assert cone.orders.dtype.kind == "i" and cone.orders.shape == cone.points.shape
        for a in (cone.orders, cone.points):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1
        for order, v in zip(cone.orders, cone.points):
            assert np.array_equal(v, mj.extreme_point(p, ctx, core.BetaOrdering(order)).probs)

    def test_origin_majorizes_convex_combinations(self, rng):
        ctx = ctx2q(0.8)
        p = core.PopVector(random_states(rng, 1)[0])
        cone = mj.future_cone(p, ctx)
        V = cone.points
        for _ in range(200):
            w = rng.dirichlet(np.ones(V.shape[0]))
            q = core.PopVector(V.T @ w)
            assert mj.thermo_majorizes(cone.origin, q, cone.ctx)

    def test_contains_examples(self):
        ctx = core.make_context((0, 1, 2), 0.5)
        cone = mj.future_cone(core.PopVector([0.7, 0.2, 0.1]), ctx)
        for q in (ctx.gamma, [0.7, 0.2, 0.1], [0.6, 0.2, 0.2]):
            assert mj.thermo_majorizes(cone.origin, core.PopVector(q), cone.ctx)

    def test_dimension_guard(self):
        p = core.PopVector(np.ones(9) / 9)
        ctx = core.make_context(tuple(range(9)), 0.1)
        with pytest.raises(ValueError):
            mj.future_cone(p, ctx)


class TestBatchHelpers:
    def test_batch_tight_points_matches_scalar(self, rng):
        ctx = ctx2q(1.4)
        P = random_states(rng, 300)
        batch = mj.batch_tight_points(P, ctx.gamma, core.PI_STAR)
        for row, got in zip(P, batch):
            ref = ref_extreme_point(row, ctx.gamma, core.PI_STAR.perm)
            assert np.allclose(got, ref, atol=1e-12)

    def test_batch_majorizes_matches_scalar(self, rng):
        ctx = ctx2q(0.9)
        origin = core.PopVector([0.05, 0.15, 0.35, 0.45])
        Q = random_states(rng, 400)
        got = mj.batch_majorizes(origin, Q, ctx)
        for row, g in zip(Q, got):
            assert g == (ref_margin(origin.probs, row, ctx.gamma) >= -mj.TAU_CMP)
        assert got.any() and not got.all()

    def test_batch_per_row_gammas(self, rng):
        P = random_states(rng, 200)
        betas = rng.uniform(0, 4, size=200)
        E = np.array([0.0, 1.0, 1.0, 2.0])
        G = np.exp(-betas[:, None] * E[None, :])
        G /= G.sum(axis=1, keepdims=True)
        batch = mj.batch_tight_points(P, G, core.PI_STAR)
        for i in range(0, 200, 17):
            ref = ref_extreme_point(P[i], G[i], core.PI_STAR.perm)
            assert np.allclose(batch[i], ref, atol=1e-12)


class TestAgainstReference:
    """The batch kernel against the per-row reference, at every beta."""

    @given(state_strategy, beta_strategy)
    def test_order_curve_and_fstar(self, probs, beta):
        ctx = ctx2q(beta)
        p = core.PopVector(probs)
        order = tile_order(probs[None, :], ctx.gamma)[0]
        assert order.tolist() == ref_order(probs, ctx.gamma)
        c, ref = mj.curve(p, ctx), ref_curve(probs, ctx.gamma)
        assert np.array_equal(c.xs, ref[0]) and np.array_equal(c.ys, ref[1])
        got = en.fstar_batch(probs[None, :], ctx.gamma)[0]
        want = en.witness_f(ref_extreme_point(probs, ctx.gamma, core.PI_STAR.perm))
        assert got == pytest.approx(want, abs=1e-12)

    @given(state_strategy, beta_strategy)
    def test_cone_vertices(self, probs, beta):
        ctx = ctx2q(beta)
        V = mj.future_cone(core.PopVector(probs), ctx).points
        R = np.array([ref_extreme_point(probs, ctx.gamma, perm)
                      for perm in itertools.permutations(range(1, 5))])
        dist = np.abs(V[:, None, :] - R[None, :, :]).max(axis=2)
        # each vertex is an extreme point; each extreme point has a vertex
        # within the merging tolerance of a cluster's two ends
        assert dist.min(axis=1).max() <= 1e-12
        assert dist.min(axis=0).max() <= 2 * mj.TAU_CMP
        # duplicates are named by the first ordering that reaches them
        perms = list(itertools.permutations(range(1, 5)))
        for order, row in zip(mj.future_cone(core.PopVector(probs), ctx).orders.tolist(), dist):
            assert tuple(order) == perms[int(np.flatnonzero(row <= 1e-12)[0])]
        gaps = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2)
        assert (gaps + np.eye(len(V)) > mj.TAU_CMP).all()

    @given(state_strategy, st.lists(state_strategy, min_size=1, max_size=8), beta_strategy)
    def test_dominance(self, origin, rows, beta):
        ctx = ctx2q(beta)
        Q = np.array(rows)
        got = mj.batch_majorizes(core.PopVector(origin), Q, ctx)
        for q, g in zip(Q, got):
            margin = ref_margin(origin, q, ctx.gamma)
            if abs(margin + mj.TAU_CMP) > 1e-12:
                assert g == (margin >= -mj.TAU_CMP)
                assert mj.thermo_majorizes(core.PopVector(origin), core.PopVector(q), ctx) == g


class TestHingeDominance:
    """The dominance test from the origin's hinge sums against the curve walk
    (``ref_margin``) and the exact hinge sums (``ref_hinge_excess``)."""

    @given(state_strategy, st.lists(state_strategy, min_size=1, max_size=8),
           st.sampled_from([0.0, 1.0, 5.0, 30.0, math.inf]))
    def test_against_both_oracles(self, origin, rows, beta):
        ctx = ctx2q(beta)
        # the origin, and the origin with its two equal-weight levels swapped,
        # lie in its cone on its boundary
        Q = np.array(rows + [origin, origin[[0, 2, 1, 3]]])
        got = mj.batch_majorizes(core.PopVector(origin), Q, ctx)
        assert got[-2:].all()
        for q, g in zip(Q, got):
            excess = ref_hinge_excess(origin, q, ctx.gamma)
            if abs(excess - Fraction(mj.TAU_CMP)) > 1e-9:
                assert g == (ref_margin(origin, q, ctx.gamma) >= -mj.TAU_CMP)
                assert g == (excess <= mj.TAU_CMP)
                assert mj.thermo_majorizes(core.PopVector(origin), core.PopVector(q), ctx) == g

    @pytest.mark.parametrize("beta", [0.0, 1.0, 30.0, math.inf])
    def test_plan(self, beta):
        # the top state reaches every state: no kink keeps a term at finite
        # beta, and at infinite beta it has no kink
        assert mj._hinge_plan(core.PopVector([0, 0, 0, 1]), ctx2q(beta)) == []
        # levels 2 and 3 share a weight, so equal populations share a kink;
        # at infinite beta only the ground level has one
        kinks = mj._hinge_plan(core.PopVector([0.1, 0.2, 0.2, 0.5]), ctx2q(beta))
        assert len(kinks) == (3 if math.isfinite(beta) else 1)

    def test_rejects_rows_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mj.batch_majorizes(core.PopVector([0.1, 0.2, 0.3, 0.4]), np.ones((2, 3)) / 3, ctx2q(1.0))

    def test_one_state_calls_reject_another_dimension(self):
        # the batch calls under them check the dimensions
        three, four = core.PopVector([0.5, 0.3, 0.2]), core.PopVector([0.1, 0.2, 0.3, 0.4])
        for call in (lambda: mj.curve(three, ctx2q(1.0)),
                     lambda: mj.thermo_majorizes(three, four, ctx2q(1.0)),
                     lambda: mj.thermo_majorizes(four, three, ctx2q(1.0))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call()

    @given(st.data(), st.floats(0.0, 50.0))
    def test_vertices_meet_the_dual_curve(self, data, beta):
        # each vertex is tight: its cumulative sums at its own elbows lie on
        # p's curve, read here from p's hinge sums, with no ordering
        energies, probs = data.draw(spectrum_states())
        ctx = core.make_context(energies, beta)
        targets, points = mj.all_extreme_points(core.PopVector(probs), ctx)
        for t, v in every_nth(list(zip(targets, points))):
            for x, y in zip(np.cumsum(ctx.gamma[t]), np.cumsum(v[t])):
                assert abs(y - ref_dual_curve(probs, ctx.gamma, x)) <= 1e-12


class TestPerOrderingMaps:
    """The per-ordering maps of a shared Gibbs vector against the per-row
    reference, for every target ordering."""

    @staticmethod
    def assert_matches_reference(P, gamma):
        d = P.shape[1]
        for perm in itertools.permutations(range(1, d + 1)):
            got = mj.batch_tight_points(P, gamma, core.BetaOrdering(perm))
            for p, q in zip(P, got):
                assert np.allclose(q, ref_extreme_point(p, gamma, perm), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.7, math.inf])
    def test_every_ordering_in_one_batch(self, rng, beta):
        ctx = ctx2q(beta)
        P = random_states(rng, 300)
        P[:50, 3] = 0.0  # face states, whose zero-weight levels rank last at beta=inf
        P[50:100, 2] = P[50:100, 1]  # ties between the two levels of equal weight
        P /= P.sum(axis=1, keepdims=True)
        classes = np.unique(tile_order(P, ctx.gamma), axis=0)
        # at beta=inf the ground level ranks after every populated excited one
        assert len(classes) == (24 if math.isfinite(beta) else 8)
        self.assert_matches_reference(P, ctx.gamma)

    @given(st.lists(state_strategy, min_size=1, max_size=6), beta_strategy)
    def test_mixed_batches(self, rows, beta):
        # each row also appears with its levels reversed, so a batch holds
        # several orderings, each more than once
        P = np.array(rows + [r[::-1] for r in rows])
        self.assert_matches_reference(P, ctx2q(beta).gamma)

    @given(st.lists(qutrit_strategy, min_size=1, max_size=6), qutrit_strategy,
           beta_strategy, st.sampled_from([(0, 1, 2), (0, 1, 1), (0, 0.5, 3), (0, 0, 1)]))
    def test_qutrit(self, rows, origin, beta, energies):
        ctx = core.make_context(energies, beta)
        P = np.array(rows + [r[::-1] for r in rows])
        self.assert_matches_reference(P, ctx.gamma)
        got = mj.batch_majorizes(core.PopVector(origin), P, ctx)
        for q, g in zip(P, got):
            margin = ref_margin(origin, q, ctx.gamma)
            if abs(margin + mj.TAU_CMP) > 1e-12:
                assert g == (margin >= -mj.TAU_CMP)

    def test_many_levels(self, rng):
        # 17 levels: far above the dense code table, so rows group as rows
        gamma = core.make_context(np.arange(17) * 0.3, 0.5).gamma
        P = random_states(rng, 4, d=17)
        P = np.vstack([P, P[::-1]])
        for perm in (range(1, 18), range(17, 0, -1)):
            got = mj.batch_tight_points(P, gamma, core.BetaOrdering(perm))
            for p, q in zip(P, got):
                assert np.allclose(q, ref_extreme_point(p, gamma, list(perm)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.8, math.inf])
    def test_first_size_above_dense_limit(self, rng, beta):
        d = core.MAX_DENSE_DIM + 1
        ctx = core.make_context((0, 1, 1, 2, 2, 2, 3), beta)
        P = random_states(rng, 5, d=d)
        P[0, [0, 4]] = 0.0  # a face state, and a tie of equal weights
        P[1, 2] = P[1, 1]
        P /= P.sum(axis=1, keepdims=True)
        P = np.vstack([P, P[:, ::-1], P])
        for perm in (range(1, d + 1), (2, 1, 3, 5, 4, 7, 6), range(d, 0, -1)):
            got = mj.batch_tight_points(P, ctx.gamma, core.BetaOrdering(perm))
            for p, q in zip(P, got):
                assert np.allclose(q, ref_extreme_point(p, ctx.gamma, list(perm)),
                                   rtol=0, atol=1e-12)
        for origin in P[:3]:
            got = mj.batch_majorizes(core.PopVector(origin), P, ctx)
            for q, g in zip(P, got):
                margin = ref_margin(origin, q, ctx.gamma)
                if abs(margin + mj.TAU_CMP) > 1e-12:
                    assert g == (margin >= -mj.TAU_CMP)

    def test_follows_gamma_mutated_in_place(self, rng):
        P = random_states(rng, 40)
        gamma = np.array(ctx2q(0.5).gamma)
        before = mj.batch_tight_points(P, gamma, core.PI_STAR)
        gamma[:] = ctx2q(2.0).gamma
        after = mj.batch_tight_points(P, gamma, core.PI_STAR)
        for p, q in zip(P, after):
            assert np.allclose(q, ref_extreme_point(p, gamma, core.PI_STAR.perm),
                               rtol=0, atol=1e-12)
        assert not np.allclose(before, after)


@st.composite
def ordering_batches(draw):
    """States of d levels in a spectrum with degenerate levels: face states,
    tied populations, and one inverse temperature per row."""
    d = draw(st.sampled_from([2, 3, 4, core.MAX_DENSE_DIM, core.MAX_DENSE_DIM + 1, 17]))
    energies = sorted(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d).filter(lambda r: sum(r) > 0),
                         min_size=1, max_size=10))
    P = np.array(rows)
    P /= P.sum(axis=1, keepdims=True)
    betas = draw(st.lists(beta_strategy, min_size=len(rows), max_size=len(rows)))
    return energies, P, betas


class TestPairCodes:
    """Orderings from packed pairwise comparisons, and the per-call classes
    of the tiled kernel, against the per-row reference."""

    @given(ordering_batches())
    def test_orders_match_reference(self, batch):
        energies, P, betas = batch
        gamma = core.make_context(energies, betas[0]).gamma
        for p, o in zip(P, tile_order(P, gamma)):
            assert o.tolist() == ref_order(p, gamma)
        # one Gibbs vector per row only at finite beta
        G = np.array([core.make_context(energies, min(b, 50.0)).gamma for b in betas])
        for p, g, o in zip(P, G, tile_order(P, G)):
            assert o.tolist() == ref_order(p, g)

    @pytest.mark.parametrize("energies", [(0, 1, 1, 2), tuple(range(7))])
    def test_per_row_zero_weight_rejected(self, rng, energies):
        # a zero weight means beta = inf only in one shared Gibbs vector
        d = len(energies)
        P = random_states(rng, 3, d=d)
        G = np.array([core.make_context(energies, b).gamma for b in (1.0, math.inf, 0.0)])
        with pytest.raises(ValueError, match="must be positive"):
            tile_order(P, G)
        with pytest.raises(ValueError, match="must be positive"):
            mj.batch_tight_points(P, G, core.BetaOrdering(range(d, 0, -1)))
        if d == 4:
            with pytest.raises(ValueError, match="must be positive"):
                en.fstar_batch(P, G)

    @given(ordering_batches(), st.integers(1, 4))
    def test_classes_across_tiles(self, batch, chunk):
        energies, P, betas = batch
        gamma = core.make_context(energies, betas[0]).gamma
        # one Gibbs vector per row only at finite beta
        G = np.array([core.make_context(energies, min(b, 50.0)).gamma for b in betas])
        target = core.BetaOrdering(range(P.shape[1], 0, -1))
        dense = P.shape[1] <= core.MAX_DENSE_DIM
        built, applied = [], []
        tight_maps, tight = mj._tight_maps, mj._tight

        # each tile's arrays are views of the stream's reused buffers, so copy them
        def spy_maps(orders, *args):
            built.append(orders.copy())
            return tight_maps(orders, *args)

        def spy_tight(plan, R, cls):
            applied.append((R.copy(), built[-1], cls if cls is None else cls.copy()))
            return tight(plan, R, cls)

        los = range(0, len(P), chunk)
        for gammas in (gamma, G):
            built.clear()
            applied.clear()
            with mock.patch.object(mj, "CHUNK", chunk), \
                    mock.patch.object(mj, "_tight_maps", spy_maps), \
                    mock.patch.object(mj, "_tight", spy_tight):
                tiles = mj.tight_point_tiles(mj._row_tiles(P), gammas, target)
                widths = [q.shape[1] for q in tiles]
            assert widths == [min(chunk, len(P) - lo) for lo in los] and len(applied) == len(los)
            # classes need a shared vector and the dense table; otherwise
            # every column is its own class
            classes = dense and gammas.ndim == 1
            rows = np.broadcast_to(gammas, P.shape)
            for lo, (sorted_p, table, cls) in zip(los, applied):
                assert (cls is not None) == classes
                for p, g, s, o in zip(P[lo:lo + chunk], rows[lo:lo + chunk], sorted_p.T,
                                      table if cls is None else table[cls]):
                    assert o.tolist() == ref_order(p, g)
                    assert np.array_equal(s, p[o])
            # with classes, the maps of every ordering are built once per
            # stream, whatever classes later tiles bring; otherwise once per tile
            assert len(built) == (1 if classes else len(los))
            if classes:
                assert np.array_equal(built[0], core.orderings(P.shape[1]))

    @given(ordering_batches(), st.integers(1, 4))
    def test_outputs_do_not_depend_on_tile_size(self, batch, chunk):
        energies, P, betas = batch
        ctx = core.make_context(energies, betas[0])
        d = P.shape[1]
        targets = [core.BetaOrdering(range(1, d + 1)), core.BetaOrdering(range(d, 0, -1))]

        def outputs():
            out = [mj.batch_tight_points(P, ctx.gamma, t) for t in targets]
            out.append(mj.batch_majorizes(core.PopVector(P[0]), P, ctx))
            if d == 4:
                out.append(en.fstar_batch(P, ctx.gamma))
            return out

        whole = outputs()
        with mock.patch.object(mj, "CHUNK", chunk):
            tiled = outputs()
        for a, b in zip(whole, tiled):
            assert np.array_equal(a, b)


@st.composite
def spectrum_states(draw):
    """One state of d levels in a spectrum with degenerate levels: face
    states and tied populations."""
    d = draw(st.sampled_from([2, 3, 4, 6]))
    energies = sorted(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))
    p = np.array(draw(st.lists(value, min_size=d, max_size=d).filter(lambda r: sum(r) > 0)))
    return energies, p / p.sum()


def every_nth(rows, at_most=48):
    return rows[::max(1, len(rows) // at_most)]


class TestOneTightPointArithmetic:
    """The cone, classify, the per-row critical scan and the curve go through
    the same per-ordering maps and the same evaluator, bit for bit."""

    @given(spectrum_states(), beta_strategy)
    def test_cone_vertices_are_extreme_points(self, state, beta):
        energies, probs = state
        ctx, p = core.make_context(energies, beta), core.PopVector(probs)
        targets, points = mj.all_extreme_points(p, ctx)
        assert targets.tolist() == [list(t) for t in itertools.permutations(range(p.dim))]
        for t, q in every_nth(list(zip(targets, points))):
            assert np.array_equal(q, mj.extreme_point(p, ctx, core.BetaOrdering(t + 1)).probs)
        cone = mj.future_cone(p, ctx)
        for order, v in every_nth(list(zip(cone.orders, cone.points))):
            assert np.array_equal(v, mj.extreme_point(p, ctx, core.BetaOrdering(order)).probs)

    @given(state_strategy, beta_strategy)
    # the scalar witness of an earlier release gave -0.3125369981503078 here,
    # an ulp off the volume's f*
    @example(np.array([0.14082215705568876, 0.696365687904367,
                       0.11253619842700521, 0.05027595661293893]), 0.0)
    def test_classify_reads_the_cone(self, probs, beta):
        ctx, p = ctx2q(beta), core.PopVector(probs)
        rep = en.is_thermally_entanglable(p, ctx)
        targets, points = mj.all_extreme_points(p, ctx)
        star = points[(targets == core.PI_STAR.zero_based()).all(axis=1)][0]
        assert np.array_equal(rep.pi_star_point.probs, star)
        assert np.array_equal(star, mj.extreme_point(p, ctx, core.PI_STAR).probs)
        assert rep.f_star == en.witness_f(star)
        assert rep.f_star == en.fstar_batch(p.probs[None, :], ctx.gamma)[0]
        assert rep.f_value == en.witness_batch(p.probs[None, :])[0]
        assert rep.max_negativity == max(en.max_negativity(q) for q in points)
        cone = mj.future_cone(p, ctx)
        for order, v in zip(cone.orders, cone.points):
            if tuple(order) == core.PI_STAR.perm:
                assert np.array_equal(v, star)

    @given(ordering_batches(), st.integers(1, 4))
    def test_per_row_gammas_match_shared(self, batch, chunk):
        # the critical-temperature scan and every round of its refiner read
        # f* with one Gibbs vector per row; each row gives the bits of a
        # one-row call with its vector shared
        energies, P, betas = batch
        G = np.array([core.make_context(energies, min(b, 50.0)).gamma for b in betas])
        d = P.shape[1]
        with mock.patch.object(mj, "CHUNK", chunk):
            for t in (core.BetaOrdering(range(1, d + 1)), core.BetaOrdering(range(d, 0, -1))):
                got = mj.batch_tight_points(P, G, t)
                for p, g, q in zip(P, G, got):
                    assert np.array_equal(q, mj.batch_tight_points(p[None, :], g, t)[0])
            if d == 4:
                for p, g, f in zip(P, G, en.fstar_batch(P, G)):
                    assert f == en.fstar_batch(p[None, :], g)[0]

    @given(spectrum_states(), beta_strategy, st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_curve_evaluates_arrays_like_numbers(self, state, beta, xs):
        energies, probs = state
        ctx = core.make_context(energies, beta)
        c = mj.curve(core.PopVector(probs), ctx)
        x = np.array(xs + [0.0, 1.0] + c.xs.tolist())
        y = c.evaluate(x)
        assert y.shape == x.shape and c.evaluate(x[:, None]).shape == (len(x), 1)
        assert y.tolist() == [c.evaluate(float(v)) for v in x]
        with mock.patch.object(mj, "CHUNK", 3):
            assert np.array_equal(c.evaluate(x), y)
        assert (y[x == 0.0] == 0.0).all()
        upper = ref_upper(ref_curve(probs, ctx.gamma), x)
        assert np.allclose(y[x > 0], upper[x > 0], rtol=0, atol=1e-12)

    def test_evaluate_rejects_arrays_outside_the_unit_interval(self):
        c = mj.curve(core.PopVector([0.5, 0.3, 0.1, 0.1]), ctx2q(1.0))
        for bad in ([0.5, 1.2], [-0.2, 0.5], [0.5, math.nan]):
            with pytest.raises(ValueError, match="outside"):
                c.evaluate(np.array(bad))


def faces_and_ties(rng, n, d):
    """Uniform states of d levels, about a fifth of them with a zero
    population and a fifth with levels 1 and 2 (equal weights in
    ``degenerate_energies``) equally populated."""
    P = random_states(rng, n, d)
    face = np.flatnonzero(rng.random(n) < 0.2)
    P[face, rng.integers(0, d, face.size)] = 0.0
    tied = rng.random(n) < 0.2
    P[tied, 2] = P[tied, 1]
    return P / P.sum(axis=1, keepdims=True)


def degenerate_energies(d):
    """Energies 0, 1, 1, 2, ...: levels 1 and 2 share a weight."""
    return [0.0, 1.0, 1.0] + [float(e) for e in range(2, d - 1)]


class TestMapApplier:
    """The maps go through ``_tight`` by their nonzero entries only, and give
    the einsum over the whole map bit for bit (a signed zero included)."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0, 20.0, math.inf])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_matches_einsum_reference(self, rng, d, beta):
        gamma = core.make_context(degenerate_energies(d), beta).gamma
        P = faces_and_ties(rng, 6000, d)
        order = tile_order(P, gamma)
        sorted_p = mj._take_levels(P.T, order.T.copy())
        t0 = rng.permutation(d)
        expected = ref_tight(mj._tight_maps(order, gamma, t0[None, :]), sorted_p.T)

        # one map per row, and one per ordering with each row's class
        per_row = mj._tight(mj._map_plan(mj._tight_maps(order, gamma, t0[None, :])),
                            sorted_p, None)
        classes, cls = np.unique(order, axis=0, return_inverse=True)
        plan = mj._map_plan(mj._tight_maps(classes, gamma, t0[None, :]))
        per_class = mj._tight(plan, sorted_p, cls.ravel())
        for q in (per_row, per_class):
            assert np.array_equal(q.T.view(np.int64), expected.view(np.int64))

        # the stream, in level order
        in_levels = np.empty_like(expected)
        in_levels[:, t0] = expected
        q = mj.batch_tight_points(P, gamma, core.BetaOrdering(t0 + 1))
        assert np.array_equal(q.view(np.int64), in_levels.view(np.int64))

    def test_plan_skips_zero_entries(self):
        # at beta = 0 every ordering's map is one permutation, so the
        # (2,1,3,4) point reads each sorted population once, with no product
        gamma = ctx2q(0.0).gamma
        orders = core.orderings(4)
        # every term a population with no scale and no varying entries
        t = core.PI_STAR.zero_based()
        terms = mj._map_plan(mj._tight_maps(orders, gamma, t[None, :]), t)
        assert terms == [[(1, None, None)], [(0, None, None)], [(2, None, None)], [(3, None, None)]]


def pinned_rows(n=20_000):
    """Exponential spacings with a fifth of the rows on a face (level 1 or 4
    empty), a fifth with levels 2 and 3 tied, and the four vertices."""
    rng = np.random.default_rng(2024)
    P = rng.standard_exponential((n, 4))
    P[rng.random(n) < 0.2, 0] = 0.0
    P[rng.random(n) < 0.2, 3] = 0.0
    tied = rng.random(n) < 0.2
    P[tied, 2] = P[tied, 1]
    P[:100] = np.eye(4)[np.arange(100) % 4]
    return P / P.sum(axis=1, keepdims=True)


def bits_digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).view(np.int64).tobytes()).hexdigest()[:16]


class TestPinnedTightPointBits:
    """The bits of f* and of the tight points of 20,000 rows, for shared Gibbs
    vectors and for one vector per row as the critical scan builds them:
    sha256 prefixes of the (fstar_batch, (2,1,3,4) point, (4,3,2,1) point)
    arrays, recorded from the per-tile kernel before its tiles were laid out
    level by level."""

    PINS = {
        0.0: ("620902e51ec55cf9", "addf2d070976d667", "c5640c370036b8eb"),
        0.5: ("4268a688d24d8218", "412a1c4e668b5469", "8e63256346f1a502"),
        1.0: ("bc3d2d74e4423c90", "b579b6d033a6e3c4", "0e30d1866001f6f9"),
        3.0: ("4a220dab2562da34", "f2413210e87b5f67", "4098127fdf2ee2fa"),
        20.0: ("90c89ce7bde50079", "1d4f3e72383baa07", "29bdefbd66e023e7"),
        math.inf: ("2ff61f1dc04f3a45", "a543c3e807e00025", "173a584269961bfc"),
        "per-row": ("a54e0e38f270b823", "65e6ac84ea26bc6e", "b52116e7cb28a07a"),
    }

    @pytest.mark.parametrize("beta", list(PINS))
    def test_bits(self, beta):
        P = pinned_rows()
        if beta == "per-row":
            gammas = core._gibbs_rows(np.array([0.0, 1.0, 1.0, 2.0]),
                                      np.linspace(0.0, 20.0, len(P)))
        else:
            gammas = ctx2q(beta).gamma
        got = (en.fstar_batch(P, gammas), mj.batch_tight_points(P, gammas, core.PI_STAR),
               mj.batch_tight_points(P, gammas, core.BetaOrdering((4, 3, 2, 1))))
        assert tuple(map(bits_digest, got)) == self.PINS[beta]

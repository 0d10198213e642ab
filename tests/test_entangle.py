import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermalent import core, entangle as en, majorization as mj
from tests.conftest import random_states, ref_extreme_point, state_strategy


def ctx2q(beta):
    return core.two_qubit_context(beta)


class TestWitness:
    def test_symmetric_boundary_point(self):
        assert en.witness_f([0, 0.5, 0.5, 0]) == 0.0

    def test_bell_reachable_vertex(self):
        assert en.witness_f([0, 1, 0, 0]) == -1.0

    def test_catalysis_final_state_rational(self):
        # direct rational evaluation: 4 q1 q4 - (q2 - q3)^2
        q = (Fraction(949, 2000), Fraction(613, 5000), Fraction(771, 2500), Fraction(189, 2000))
        exact = 4 * q[0] * q[3] - (q[1] - q[2]) ** 2
        assert exact == Fraction(3620984, 25000000)
        got = en.witness_f([float(x) for x in q])
        assert got == pytest.approx(float(exact), abs=1e-15)
        assert round(got, 5) == 0.14484

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            en.witness_f([0.5, 0.5])


class TestMinPptEigenvalue:
    def test_theta_zero_collapses(self, rng):
        for row in random_states(rng, 50):
            assert en.min_ppt_eigenvalue(row, 0.0) == pytest.approx(min(row[0], row[3]), abs=1e-12)

    def test_bell_state(self):
        assert en.min_ppt_eigenvalue([0, 1, 0, 0], math.pi / 4) == pytest.approx(-0.5)

    def test_maximally_mixed(self):
        for theta in (0.0, 0.3, math.pi / 4, 1.1):
            assert en.min_ppt_eigenvalue([0.25] * 4, theta) == pytest.approx(0.25)

    @given(st.floats(0, 2 * math.pi))
    def test_quarter_pi_is_global_minimum(self, theta):
        q = [0.1, 0.55, 0.15, 0.2]
        assert en.min_ppt_eigenvalue(q, math.pi / 4) <= en.min_ppt_eigenvalue(q, theta) + 1e-15


class TestSubspaceEntanglable:
    def test_gibbs_never(self):
        for beta in (0.0, 0.5, 2.0, 10.0):
            assert not en.is_subspace_entanglable(ctx2q(beta).gamma)

    def test_bell_vertex(self):
        assert en.is_subspace_entanglable([0, 1, 0, 0])

    def test_catalysis_initial(self):
        # 4*0.4*0.02 = 0.032 > (0.25-0.33)^2 = 0.0064
        assert not en.is_subspace_entanglable([0.4, 0.25, 0.33, 0.02])


class TestThermallyEntanglable:
    def test_fstar_continuous_until_weights_underflow(self):
        # the beta = inf value differs (the zero-temperature lemma); a finite
        # beta whose weights underflow is rejected instead of taking it
        p = core.PopVector([0.1, 0.2, 0.3, 0.4])
        for beta in (30.0, 100.0, 200.0, 300.0, 350.0):
            rep = en.is_thermally_entanglable(p, ctx2q(beta))
            assert rep.f_star == pytest.approx(-0.49, abs=1e-12)
        assert en.is_thermally_entanglable(p, ctx2q(math.inf)).f_star == pytest.approx(-0.81)
        with pytest.raises(ValueError, match="inf"):
            en.is_thermally_entanglable(p, ctx2q(800.0))

    @given(state_strategy, st.floats(0.0, 1e4))
    def test_finite_beta_matches_reference_or_is_rejected(self, probs, beta):
        ctx = ctx2q(beta)
        p = core.PopVector(probs)
        if ctx.gamma.min() < np.finfo(float).tiny:
            with pytest.raises(ValueError, match="inf"):
                en.is_thermally_entanglable(p, ctx)
            return
        want = en.witness_f(ref_extreme_point(probs, ctx.gamma, core.PI_STAR.perm))
        assert en.is_thermally_entanglable(p, ctx).f_star == pytest.approx(want, abs=1e-12)

    def test_catalysis_initial_not_entanglable(self):
        rep = en.is_thermally_entanglable(core.PopVector([0.4, 0.25, 0.33, 0.02]), ctx2q(0.0))
        assert not rep.in_TE and not rep.in_E
        assert rep.max_negativity == 0.0

    def test_catalysis_final_entanglable(self):
        rep = en.is_thermally_entanglable(
            core.PopVector([949 / 2000, 613 / 5000, 771 / 2500, 189 / 2000]), ctx2q(0.0))
        assert rep.in_TE and not rep.in_E
        assert rep.max_negativity > 0.0

    def test_ground_state_fstar_closed_form(self):
        for beta in (0.5, 1.0, 2.0):
            rep = en.is_thermally_entanglable(core.PopVector([1, 0, 0, 0]), ctx2q(beta))
            assert rep.in_TE
            assert rep.f_star == pytest.approx(-math.exp(-2 * beta), abs=1e-12)

    def test_pi_star_point_recorded(self):
        rep = en.is_thermally_entanglable(core.PopVector([1, 0, 0, 0]), ctx2q(1.0))
        d = math.exp(-1.0)
        assert np.allclose(rep.pi_star_point.probs, [1 - d, d, 0, 0], atol=1e-14)
        assert rep.optimal_theta == pytest.approx(math.pi / 4)

    def test_requires_two_qubit_context(self):
        bad = core.make_context((0, 1, 2, 3), 1.0)
        with pytest.raises(ValueError):
            en.is_thermally_entanglable(core.PopVector([0.25] * 4), bad)

    def test_swap_symmetry_of_degenerate_levels(self, rng):
        # all verdicts and f_star are exactly invariant under q2 <-> q3
        P = random_states(rng, 200)
        for row in P[:60]:
            beta = float(rng.uniform(0, 3))
            ctx = ctx2q(beta)
            a = en.is_thermally_entanglable(core.PopVector(row), ctx)
            b = en.is_thermally_entanglable(core.PopVector(row[[0, 2, 1, 3]]), ctx)
            assert a.f_star == b.f_star
            assert a.in_TE == b.in_TE and a.in_E == b.in_E

    def test_counterexample_smaller_f_than_pstar(self):
        # ordering (2,1,4,3) state whose own witness undercuts the extreme point's
        eps = 0.01
        p = core.PopVector([eps, 1 - eps - eps**2, 0, eps**2])
        ctx = ctx2q(1.0)
        assert core.beta_order(p, ctx).perm == (2, 1, 4, 3)
        rep = en.is_thermally_entanglable(p, ctx)
        assert en.witness_f(p) < rep.f_star


class TestBruteforceOracle:
    def test_gibbs_is_tne(self):
        for beta in (0.0, 0.7, 3.0):
            ctx = ctx2q(beta)
            assert en.tne_bruteforce(core.PopVector(ctx.gamma), ctx)

    def test_top_vertex_beta_zero(self):
        assert not en.tne_bruteforce(core.PopVector([0, 0, 0, 1]), ctx2q(0.0))

    def test_catalysis_initial_agrees(self):
        assert en.tne_bruteforce(core.PopVector([0.4, 0.25, 0.33, 0.02]), ctx2q(0.0))

    @given(state_strategy)
    def test_verdict_against_bruteforce_at_beta_zero(self, probs):
        # at beta = 0 the oracle permutes p directly and never calls the kernel
        ctx = ctx2q(0.0)
        p = core.PopVector(probs)
        rep = en.is_thermally_entanglable(p, ctx)
        if abs(rep.f_star) >= 1e-9:
            assert rep.in_TE == (not en.tne_bruteforce(p, ctx))

    def test_theorem_vs_bruteforce_sample(self, rng):
        # the acceptance suite runs the full 1e5; a fast spot check here
        P = random_states(rng, 300)
        betas = rng.uniform(0, 5, size=300)
        for row, beta in zip(P, betas):
            ctx = ctx2q(float(beta))
            p = core.PopVector(row)
            f_star = en.witness_f(mj.extreme_point(p, ctx, core.PI_STAR))
            if abs(f_star) < 1e-9:
                continue
            assert (f_star < -en.TAU_F) == (not en.tne_bruteforce(p, ctx))


class TestNegativity:
    def test_bell_half(self):
        assert en.max_negativity([0, 1, 0, 0]) == 0.5
        assert en.max_negativity([0, 0, 1, 0]) == 0.5

    def test_maximally_mixed_zero(self):
        assert en.max_negativity([0.25] * 4) == 0.0

    def test_derived_value(self):
        # 0.5*(sqrt(0.0025 + 0.5625) - 0.15)
        got = en.max_negativity([0.1, 0.8, 0.05, 0.05])
        assert got == pytest.approx(0.3008324094593227, abs=1e-15)

    def test_witness_relation(self, rng):
        # N = (sqrt((q1+q4)^2 - f) - (q1+q4)) / 2 whenever f < 0
        for row in random_states(rng, 2000):
            f = en.witness_f(row)
            if f < 0:
                s = row[0] + row[3]
                expect = 0.5 * (math.sqrt(s * s - f) - s)
                assert en.max_negativity(row) == pytest.approx(expect, abs=1e-12)

    def test_monotone_in_f_at_fixed_top_bottom(self):
        # one-parameter family with q1 + q4 fixed: as f increases N does not
        q1, q4 = 0.1, 0.05
        rest = 1 - q1 - q4
        prev_f, prev_n = None, None
        for u in np.linspace(0, rest, 40):
            q = [q1, (rest + u) / 2, (rest - u) / 2, q4]
            f, n = en.witness_f(q), en.max_negativity(q)
            if prev_f is not None:
                assert (f - prev_f) * (n - prev_n) <= 1e-15
            prev_f, prev_n = f, n

    def test_range(self, rng):
        for row in random_states(rng, 1000):
            n = en.max_negativity(row)
            assert 0.0 <= n <= 0.5 + 1e-12

    def test_rows_and_wrong_shapes(self, rng):
        rows = random_states(rng, 200)
        assert np.array_equal(en.max_negativity(rows), [en.max_negativity(r) for r in rows])
        for bad in ([0.5, 0.5], np.zeros((3, 5)), np.zeros((2, 2, 4)), 0.5):
            with pytest.raises(ValueError, match="length-4"):
                en.max_negativity(bad)


class TestNegativityOverCone:
    def test_top_vertex_reaches_bell(self):
        for beta in (0.0, 1.0, 4.0):
            val, state = en.max_negativity_over_cone(core.PopVector([0, 0, 0, 1]), ctx2q(beta))
            assert val == pytest.approx(0.5, abs=1e-9)

    def test_gibbs_zero(self):
        ctx = ctx2q(1.0)
        val, _ = en.max_negativity_over_cone(core.PopVector(ctx.gamma), ctx)
        assert val == 0.0

    def test_ground_state_meets_candidate(self):
        # candidate: the two-level exchange state (1-D, D, 0, 0), D = e^{-1}
        d = math.exp(-1.0)
        candidate = 0.5 * (math.hypot(1 - d, d) - (1 - d))
        assert candidate == pytest.approx(0.0496280045552588, abs=1e-15)
        val, state = en.max_negativity_over_cone(core.PopVector([1, 0, 0, 0]), ctx2q(1.0))
        assert val >= candidate - 1e-9
        assert 0.0 < val < 0.5
        assert en.max_negativity(state) == pytest.approx(val, abs=1e-12)

    def test_never_below_vertex_maximum(self, rng):
        for _ in range(10):
            ctx = ctx2q(float(rng.uniform(0, 3)))
            p = core.PopVector(random_states(rng, 1)[0])
            cone = mj.future_cone(p, ctx)
            vertex_best = max(en.max_negativity(v) for v in cone.points)
            val, _ = en.max_negativity_over_cone(p, ctx)
            assert val >= vertex_best - 1e-10


class TestConeWitnessMinimum:
    def test_vertex_min_is_global_min(self, rng):
        # concavity: no convex combination of extremes undercuts the vertex min
        ctx = ctx2q(1.3)
        p = core.PopVector([0.05, 0.1, 0.25, 0.6])
        V = mj.future_cone(p, ctx).points
        vertex_min = en.witness_batch(V).min()
        W = rng.dirichlet(np.ones(V.shape[0]), size=10_000)
        combos = W @ V
        samples = np.concatenate([V, combos])
        assert en.witness_batch(samples).min() >= vertex_min - en.TAU_F
        assert en.witness_batch(samples).min() == pytest.approx(vertex_min, abs=en.TAU_F)


class TestCriticalTemps:
    def test_closed_form_value(self):
        ct = en.critical_temps_thermal(5.0, 1.0)
        ds = math.exp(-5.0)
        expect = 5.0 - math.log(1 + 2 * ds * (math.sqrt(math.exp(10.0) + 1) - 1))
        assert ct.beta_c1 == pytest.approx(expect, abs=1e-12)
        assert ct.beta_c1 == pytest.approx(3.9058746, abs=5e-8)

    def test_approximations_attached(self):
        ct = en.critical_temps_thermal(5.0, 1.0)
        assert ct.approx_c1 == pytest.approx(5.0 - math.log(3.0))
        assert ct.approx_c2 == pytest.approx(5.0 + math.log(3.0))

    def test_ordering_when_both_exist(self):
        for bs in (1.5, 3.0, 7.0):
            ct = en.critical_temps_thermal(bs, 1.0)
            assert ct.beta_c1 is not None and ct.beta_c2 is not None
            assert ct.beta_c1 < ct.beta_c2

    def test_gap_scaling(self):
        a = en.critical_temps_thermal(5.0, 1.0)
        b = en.critical_temps_thermal(2.5, 2.0)
        assert b.beta_c1 == pytest.approx(a.beta_c1 / 2.0, rel=1e-12)

    def test_hot_system_no_c1(self):
        ct = en.critical_temps_thermal(0.0, 1.0)
        assert ct.beta_c1 is None

    def test_errors(self):
        with pytest.raises(ValueError):
            en.critical_temps_thermal(1.0, 0.0)
        with pytest.raises(ValueError):
            en.critical_temps_thermal(-1.0, 1.0)

    def test_branch_functions_match_machinery(self):
        # cooler branch at (beta_s, beta) = (2, 1); hotter branch at (0.3, 1)
        for beta_s, beta, fn in ((2.0, 1.0, en.fstar_thermal_cooler),
                                 (0.3, 1.0, en.fstar_thermal_hotter)):
            ds, d = math.exp(-beta_s), math.exp(-beta)
            zs = (1 + ds) ** 2
            p = core.PopVector(np.array([1, ds, ds, ds**2]) / zs)
            ref = en.witness_f(mj.extreme_point(p, ctx2q(beta), core.PI_STAR))
            assert fn(d, ds) == pytest.approx(ref, abs=1e-14)


class TestCriticalTempsGeneral:
    def test_top_vertex_no_crossing(self):
        roots = en.critical_temps_general(core.PopVector([0, 0, 0, 1]), 1.0, (0.0, 5.0), 100)
        assert roots == []

    def test_product_state_crossing_near_021(self):
        p = core.PopVector([0.12, 0.38, 0.12, 0.38])
        roots = en.critical_temps_general(p, 1.0, (0.0, 2.0), 400)
        assert len(roots) == 1
        assert abs(roots[0] - 0.21) <= 0.02

    def test_thermal_state_roots_match_closed_forms(self):
        beta_s = 2.0
        ds = math.exp(-beta_s)
        p = core.PopVector(np.array([1, ds, ds, ds**2]) / (1 + ds) ** 2)
        roots = en.critical_temps_general(p, 1.0, (0.01, 8.0), 800)
        ct = en.critical_temps_thermal(beta_s, 1.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(ct.beta_c1, abs=1e-7)
        assert roots[1] == pytest.approx(ct.beta_c2, abs=1e-7)

    def test_empty_range_errors(self):
        with pytest.raises(ValueError):
            en.critical_temps_general(core.PopVector([0.25] * 4), 1.0, (2.0, 1.0), 50)

    @pytest.mark.parametrize("gap", [-1.0, 0.0])
    def test_gap_must_be_positive(self, gap):
        # a negative gap inverts the spectrum; a zero gap makes every weight equal
        with pytest.raises(ValueError, match="gap must be positive"):
            en.critical_temps_general(core.PopVector([0.12, 0.38, 0.12, 0.38]), gap,
                                      (0.0, 2.0), 400)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta_range", [(0.0, math.inf), (-math.inf, 2.0), (0.0, math.nan)])
    def test_range_must_be_finite(self, beta_range):
        # rejected before the scan, whose np.linspace warns on an infinite bound
        with pytest.raises(ValueError, match="finite"):
            en.critical_temps_general(core.PopVector([0.12, 0.38, 0.12, 0.38]), 1.0,
                                      beta_range, 400)


class TestQubitQutrit:
    def test_bell_like(self):
        f1, f2 = en.qubit_qutrit_witnesses([0, 0.5, 0, 0, 0.5, 0])
        assert f1 == pytest.approx(-0.25)

    def test_uniform(self):
        f1, f2 = en.qubit_qutrit_witnesses([1 / 6] * 6)
        assert f1 == pytest.approx(1 / 9)
        assert f2 == pytest.approx(1 / 9)

    def test_direct_evaluation(self):
        f1, f2 = en.qubit_qutrit_witnesses([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert f1 == pytest.approx(0.2)
        assert f2 == pytest.approx(0.04)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            en.qubit_qutrit_witnesses([0.5, 0.5])

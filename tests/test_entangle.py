import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermalent import core, entangle as en, geometry as geo, majorization as mj
from tests.conftest import (
    random_states, ref_critical_roots, ref_extreme_point, ref_fstar, ref_fstar_exact,
    ref_fstar_thermal_hotter, ref_min_ppt_eigenvalue, ref_qubit_qutrit_witnesses, ref_thermal_c2,
    state_strategy)


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
            assert ref_min_ppt_eigenvalue(row, 0.0) == pytest.approx(min(row[0], row[3]), abs=1e-12)

    def test_bell_state(self):
        assert ref_min_ppt_eigenvalue([0, 1, 0, 0], math.pi / 4) == pytest.approx(-0.5)

    def test_maximally_mixed(self):
        for theta in (0.0, 0.3, math.pi / 4, 1.1):
            assert ref_min_ppt_eigenvalue([0.25] * 4, theta) == pytest.approx(0.25)

    @given(st.floats(0, 2 * math.pi))
    def test_quarter_pi_is_global_minimum(self, theta):
        q = [0.1, 0.55, 0.15, 0.2]
        assert ref_min_ppt_eigenvalue(q, math.pi / 4) <= ref_min_ppt_eigenvalue(q, theta) + 1e-15

    def test_quarter_pi_is_the_negativity(self, rng):
        # max_negativity is the negated eigenvalue at the optimal rotation
        for row in random_states(rng, 500):
            lam = ref_min_ppt_eigenvalue(row, math.pi / 4)
            assert en.max_negativity(row) == pytest.approx(max(-lam, 0.0), abs=1e-15)


class TestSubspaceEntanglable:
    """The subspace verdict is ``in_E``: the witness below -TAU_F."""

    @staticmethod
    def in_E(q):
        rep = en.is_thermally_entanglable(core.PopVector(q), ctx2q(1.0))
        assert rep.in_E == (en.witness_f(q) < -en.TAU_F)
        return rep.in_E

    def test_gibbs_never(self):
        for beta in (0.0, 0.5, 2.0, 10.0):
            assert not self.in_E(ctx2q(beta).gamma)

    def test_bell_vertex(self):
        assert self.in_E([0, 1, 0, 0])

    def test_catalysis_initial(self):
        # 4*0.4*0.02 = 0.032 > (0.25-0.33)^2 = 0.0064
        assert not self.in_E([0.4, 0.25, 0.33, 0.02])

    def test_band_edge(self):
        # a witness inside the band (-TAU_F, 0) is not entanglable
        a = 0.25
        for d, want in ((math.sqrt(0.5 * en.TAU_F), False), (math.sqrt(2 * en.TAU_F), True)):
            q = [0.0, a + d / 2, a - d / 2, 1 - 2 * a]
            assert en.witness_f(q) == pytest.approx(-d * d, rel=1e-6)
            assert self.in_E(q) is want


def band_edge_doubles(steps: int = 64) -> np.ndarray:
    """-TAU_F and ``steps`` neighbouring doubles on each side of it, signed
    zeros, the smallest subnormals, the band's other edge and infinities."""
    below = np.full(steps + 1, -en.TAU_F)
    above = below.copy()
    for k in range(1, steps + 1):
        below[k], above[k] = np.nextafter(below[k - 1], -np.inf), np.nextafter(above[k - 1], 0.0)
    return np.concatenate([below, above, [0.0, -0.0, 5e-324, -5e-324, en.TAU_F, np.inf, -np.inf]])


class TestVerdictRule:
    """``entangle._margin`` is the one verdict rule: its sign is the
    comparison w < -TAU_F, bit for bit, for arrays, in place and for one
    number, and the volume sets it splits add up."""

    @staticmethod
    def check(w: np.ndarray):
        want = w < -en.TAU_F
        assert np.array_equal(en._margin(w) < 0.0, want)
        assert np.array_equal(en._margin(w) >= 0.0, ~want)
        out = w.copy()
        assert en._margin(out, out=out) is out and np.array_equal(out < 0.0, want)
        assert [bool(en._margin(x) < 0.0) for x in w.tolist()] == want.tolist()

    def test_band_edge_and_signed_zeros(self):
        w = band_edge_doubles()
        assert np.count_nonzero(w < -en.TAU_F) == 64 + 1  # 64 below the edge, and -inf
        self.check(w)

    def test_random_doubles(self):
        rng = np.random.default_rng(2026)
        scale = 10.0 ** rng.uniform(-320, 2, 20_000)
        near = -en.TAU_F * (1.0 + rng.normal(size=20_000) * 1e-15)
        self.check(np.concatenate([rng.normal(size=20_000) * scale, near]))

    @given(st.floats(allow_nan=False))
    def test_any_double(self, w):
        assert bool(en._margin(w) < 0.0) == (w < -en.TAU_F)

    def test_report_verdicts_are_python_bools(self):
        rep = en.is_thermally_entanglable(core.PopVector([0, 1, 0, 0]), ctx2q(1.0))
        assert rep.in_E is True and rep.in_TE is True

    @pytest.mark.parametrize("seed", range(3))
    def test_volume_e_and_ne_split_the_samples(self, seed):
        n = 3 * geo.BLOCK + 1234
        e, ne = (geo.volume_of(s, ctx2q(1.0), None, n, seed) for s in ("E", "NE"))
        assert round(e.fraction * n) + round(ne.fraction * n) == n


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
        assert (core.batch_order(p.probs[None, :], ctx.gamma)[0] + 1).tolist() == [2, 1, 4, 3]
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

    def test_domain_is_the_verdict_domain(self):
        # four levels, but not the (0, E, E, 2E) spectrum the witness reads
        p, ladder = core.PopVector([0.4, 0.25, 0.33, 0.02]), core.make_context((0, 1, 2, 3), 1.0)
        for decide in (en.tne_bruteforce, en.is_thermally_entanglable):
            with pytest.raises(ValueError, match="not a two-qubit"):
                decide(p, ladder)
        with pytest.raises(ValueError, match="d = 4"):
            en.tne_bruteforce(core.PopVector([0.5, 0.3, 0.2]), ctx2q(1.0))

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


class TestExactFstarOracle:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_matches_float_reference(self, rng, beta):
        # states on faces and with levels 2 and 3 tied test the step rule
        gamma = ctx2q(beta).gamma
        P = random_states(rng, 200)
        P[::5, 0] = 0.0
        P[1::5, 2] = P[1::5, 1]
        P /= P.sum(axis=1, keepdims=True)
        for p in P:
            assert abs(float(ref_fstar_exact(p, gamma)) - ref_fstar(p, gamma)) <= 1e-15

    def test_exact_at_gibbs(self):
        # gamma's curve is the diagonal, so its tight point is gamma itself
        gamma = ctx2q(2.0).gamma
        g = [Fraction(v) for v in gamma.tolist()]
        assert ref_fstar_exact(gamma, gamma) == 4 * g[0] * g[3] - (g[1] - g[2]) ** 2


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
    """The cone's negativity maximum is ``is_thermally_entanglable``'s
    ``max_negativity``: the best vertex of the future cone."""

    def test_top_vertex_reaches_bell(self):
        for beta in (0.0, 1.0, 4.0):
            rep = en.is_thermally_entanglable(core.PopVector([0, 0, 0, 1]), ctx2q(beta))
            assert rep.max_negativity == pytest.approx(0.5, abs=1e-9)

    def test_gibbs_zero(self):
        ctx = ctx2q(1.0)
        assert en.is_thermally_entanglable(core.PopVector(ctx.gamma), ctx).max_negativity == 0.0

    def test_ground_state_meets_candidate(self):
        # candidate: the two-level exchange state (1-D, D, 0, 0), D = e^{-1}
        d = math.exp(-1.0)
        candidate = 0.5 * (math.hypot(1 - d, d) - (1 - d))
        assert candidate == pytest.approx(0.0496280045552588, abs=1e-15)
        p, ctx = core.PopVector([1, 0, 0, 0]), ctx2q(1.0)
        val = en.is_thermally_entanglable(p, ctx).max_negativity
        assert val >= candidate - 1e-9
        assert 0.0 < val < 0.5
        points = mj.future_cone(p, ctx).points
        state = core.PopVector(points[en.max_negativity(points).argmax()])
        assert mj.thermo_majorizes(p, state, ctx)
        assert en.max_negativity(state) == pytest.approx(val, abs=1e-12)

    def test_never_below_vertex_maximum(self, rng):
        for _ in range(10):
            ctx = ctx2q(float(rng.uniform(0, 3)))
            p = core.PopVector(random_states(rng, 1)[0])
            cone = mj.future_cone(p, ctx)
            vertex_best = max(en.max_negativity(v) for v in cone.points)
            val = en.is_thermally_entanglable(p, ctx).max_negativity
            assert val == pytest.approx(vertex_best, abs=1e-10)


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

    @pytest.mark.parametrize("beta_s, gap", [(1.0, 1e-320), (1.7e308, 2.3e-308)])
    def test_non_finite_temperatures_rejected(self, beta_s, gap):
        # -log(root)/gap overflows, and so does log(3)/gap or beta_s + log(3)/gap
        with pytest.raises(ValueError, match="not a finite double"):
            en.critical_temps_thermal(beta_s, gap)

    def test_branch_functions_match_machinery(self):
        # cooler branch at (beta_s, beta) = (2, 1); hotter branch at (0.3, 1)
        for beta_s, beta, fn in ((2.0, 1.0, en.fstar_thermal_cooler),
                                 (0.3, 1.0, ref_fstar_thermal_hotter)):
            ds, d = math.exp(-beta_s), math.exp(-beta)
            zs = (1 + ds) ** 2
            p = core.PopVector(np.array([1, ds, ds, ds**2]) / zs)
            ref = en.witness_f(mj.extreme_point(p, ctx2q(beta), core.PI_STAR))
            assert fn(d, ds) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("gap", [1.0, 0.5, 3.0])
    def test_c2_matches_exact_root(self, gap):
        # a bisection with an absolute floor moved beta_c2 from beta_s * gap
        # = 77.5 and lost it from 373
        for bse in [*np.linspace(0.0, 708.39, 60), 0.2, 77.5, 90.0, 100.0, 373.0, 500.0, 708.39]:
            beta_s = bse / gap
            ct, ref = en.critical_temps_thermal(beta_s, gap), ref_thermal_c2(beta_s, gap)
            assert (ct.beta_c2 is None) == (ref is None)
            if ref is not None:
                assert abs(ct.beta_c2 - ref) <= 1e-12
            if bse >= 40.0:
                assert ct.beta_c2 == pytest.approx(beta_s + math.log(3.0) / gap, abs=1e-12)

    @pytest.mark.parametrize("beta_s", [0.0, 0.3, 2.0, 23.0, 100.0, 708.39])
    def test_hotter_quartic_is_the_scaled_branch(self, beta_s):
        ds = math.exp(-beta_s)
        for x in np.linspace(0.0, min(1.0, en.PHI / ds), 9):
            scaled = en._hotter_quartic(x, ds) * ds**2 / (1 + ds) ** 4
            assert scaled == pytest.approx(ref_fstar_thermal_hotter(x * ds, ds),
                                           rel=1e-12, abs=1e-15 * ds**2)


class TestRefine:
    def test_tiny_ends(self):
        # a product of the ends, 1e-400, underflows to 0; sign bits do not
        roots = en._refine(lambda X: 1e-200 * (X - 0.3) / 0.7, [0.0], [1.0])
        assert roots[0] == pytest.approx(0.3, abs=4e-15)
        for f_lo, f_hi in ((-1e-200, 1e-200), (1e-200, -1e-200)):
            root = en._refine(lambda X: np.where(X < 0.25, f_lo, f_hi), [0.0], [1.0])[0]
            assert abs(root - 0.25) <= 4e-15

    def test_brackets_in_one_call(self):
        want = np.array([0.1, 1.7, -3.25, 12.0])
        lo, hi = want - np.array([0.05, 1.0, 0.3, 7.0]), want + np.array([0.2, 0.01, 0.5, 1.0])
        calls = []

        def fn(X):
            calls.append(X.shape)
            return np.sign(np.arange(4) - 1.5)[:, None] * (X - want[:, None])

        got = en._refine(fn, lo, hi)
        assert calls == [(4, en.REFINE_SPLIT + 1)] * en.REFINE_ROUNDS
        assert np.all(np.abs(got - want) <= 4e-15 * (hi - lo) + 1e-15 * np.abs(want))

    def test_root_at_an_end(self):
        # -0.0 and +0.0 differ in sign bit, so a zero end is a root
        assert en._refine(lambda X: X - 1.0, [0.0], [1.0])[0] == pytest.approx(1.0, abs=4e-15)
        assert en._refine(lambda X: X, [0.0], [1.0])[0] == pytest.approx(0.0, abs=4e-15)
        # the top step ends at hi itself, which lo + (hi - lo) falls an ulp short of
        lo, hi = -1.5407072141620373, 2.976847140711767
        assert lo + (hi - lo) < hi
        root = en._refine(lambda X: np.where(X < hi, -1.0, 1.0), [lo], [hi])[0]
        assert abs(root - hi) <= 4e-15 * (hi - lo)


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

    @pytest.fixture
    def fstar_rows(self, monkeypatch):
        """The row count of every ``fstar_batch`` call that ``entangle`` makes."""
        rows, fstar_batch = [], en.fstar_batch

        def counting(P, gammas):
            rows.append(len(P))
            return fstar_batch(P, gammas)

        monkeypatch.setattr(en, "fstar_batch", counting)
        return rows

    @pytest.mark.parametrize("state, beta_range, n_scan", [
        ((0.12, 0.38, 0.12, 0.38), (0.0, 2.0), 400),
        ((0.12, 0.38, 0.12, 0.38), (0.0, 2.0), 50),
        ((0.7, 0.1, 0.15, 0.05), (0.0, 5.0), 100),
        ((0.0, 0.0, 0.0, 1.0), (0.0, 5.0), 100),
    ])
    def test_fstar_calls_bounded(self, fstar_rows, state, beta_range, n_scan):
        # a scalar bisection made 26 one-row calls for the first state
        roots = en.critical_temps_general(core.PopVector(state), 1.0, beta_range, n_scan)
        refine = [len(roots) * (en.REFINE_SPLIT + 1)] * (en.REFINE_ROUNDS if roots else 0)
        assert fstar_rows == [n_scan] + refine

    def test_refine_calls_hold_at_most_max_scan_rows(self, fstar_rows, monkeypatch):
        # near beta_s = 18, f* of a thermal state is rounding noise and its
        # scan flips sign at many steps
        ds = math.exp(-18.0)
        p = core.PopVector(np.array([1, ds, ds, ds**2]) / (1 + ds) ** 2)
        whole = en.critical_temps_general(p, 1.0, (18.1, 18.7), 150)
        fstar_rows.clear()
        monkeypatch.setattr(en, "MAX_SCAN", 3 * (en.REFINE_SPLIT + 1))
        split = en.critical_temps_general(p, 1.0, (18.1, 18.7), 150)
        # a bracket's root does not depend on the brackets refined with it
        assert split == whole and len(split) > 3
        assert max(fstar_rows[1:]) <= en.MAX_SCAN
        assert len(fstar_rows) == 1 + en.REFINE_ROUNDS * -(-len(split) // 3)

    def test_tiny_values_still_bracket(self, monkeypatch):
        # the product of two scan values of 1e-200 underflows to 0; sign bits
        # still bracket the crossing
        p = core.PopVector([0.12, 0.38, 0.12, 0.38])
        want = en.critical_temps_general(p, 1.0, (0.0, 2.0), 50)
        fstar_batch = en.fstar_batch
        monkeypatch.setattr(en, "fstar_batch", lambda P, gammas: 1e-200 * fstar_batch(P, gammas))
        assert en.critical_temps_general(p, 1.0, (0.0, 2.0), 50) == want

    def test_crossing_does_not_depend_on_scan(self):
        p = core.PopVector([0.12, 0.38, 0.12, 0.38])
        roots = [en.critical_temps_general(p, 1.0, (0.0, 2.0), n)[0] for n in (50, 400, 4001)]
        assert max(roots) - min(roots) <= 1e-15

    def test_roots_match_reference(self, rng):
        for probs in rng.dirichlet(np.ones(4), 40):
            roots = en.critical_temps_general(core.PopVector(probs), 1.0, (0.0, 20.0), 400)
            ref = ref_critical_roots(probs, 1.0, (0.0, 20.0), 400)
            assert len(roots) == len(ref)
            for a, b in zip(roots, ref):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

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
        f1, f2 = ref_qubit_qutrit_witnesses([0, 0.5, 0, 0, 0.5, 0])
        assert f1 == pytest.approx(-0.25)

    def test_uniform(self):
        f1, f2 = ref_qubit_qutrit_witnesses([1 / 6] * 6)
        assert f1 == pytest.approx(1 / 9)
        assert f2 == pytest.approx(1 / 9)

    def test_direct_evaluation(self):
        f1, f2 = ref_qubit_qutrit_witnesses([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert f1 == pytest.approx(0.2)
        assert f2 == pytest.approx(0.04)

    def test_qubit_block_is_the_two_qubit_witness(self, rng):
        # the first witness is the two-qubit witness of the levels (0, E, E)
        # with the emptier 2E level as the fourth
        for row in random_states(rng, 200, d=6):
            f1, _ = ref_qubit_qutrit_witnesses(row)
            lo = min(row[3], row[4])
            assert f1 == pytest.approx(en.witness_batch(np.array([[*row[:3], lo]]))[0],
                                       abs=1e-15)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            ref_qubit_qutrit_witnesses([0.5, 0.5])

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermalent import core, dynamics as dy, entangle as en, majorization as mj
from tests.conftest import (
    random_states, ref_jc_joint_evolution, ref_min_ppt_eigenvalue, ref_mtp_search,
    state_strategy)


def ctx2q(beta):
    return core.two_qubit_context(beta)


class TestDensityMatrix:
    def test_valid_diagonal(self):
        dm = dy.DensityMatrix(np.diag([0.5, 0.25, 0.125, 0.125]))
        assert dm.dim == 4
        assert np.allclose(dm.populations(), [0.5, 0.25, 0.125, 0.125])

    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0, 0, 0]).astype(complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            dy.DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            dy.DensityMatrix(np.diag([0.7, 0.7, 0.0, 0.0]))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            dy.DensityMatrix(m)


class TestSubspaceRotation:
    def test_theta_zero_is_diagonal(self, rng):
        row = random_states(rng, 1)[0]
        dm = dy.apply_subspace_rotation(row, 0.0)
        assert np.allclose(dm.entries, np.diag(row), atol=1e-15)

    def test_bell_projector_in_middle_block(self):
        dm = dy.apply_subspace_rotation(core.PopVector([0, 1, 0, 0]), math.pi / 4, 0.0)
        block = dm.entries[1:3, 1:3].real
        assert np.allclose(block, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_pt_minimum_matches_closed_form(self, rng):
        # the closed form governs the coherent block; middle-block diagonals
        # (always non-negative) complete the spectrum
        for row in random_states(rng, 200):
            theta = float(rng.uniform(0, 2 * math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            dm = dy.apply_subspace_rotation(row, theta, phi)
            eigs = np.linalg.eigvalsh(dy.partial_transpose(dm.entries))
            block_min = ref_min_ppt_eigenvalue(row, theta)
            m22, m33 = dm.entries[1, 1].real, dm.entries[2, 2].real
            assert eigs.min() == pytest.approx(min(block_min, m22, m33), abs=1e-12)
            assert (eigs.min() < -1e-12) == (block_min < -1e-12)
            if block_min < -1e-12:
                assert eigs.min() == pytest.approx(block_min, abs=1e-12)

    def test_phase_never_matters(self, rng):
        row = random_states(rng, 1)[0]
        a = dy.apply_subspace_rotation(row, 0.7, 0.0)
        b = dy.apply_subspace_rotation(row, 0.7, 2.1)
        assert np.allclose(np.linalg.eigvalsh(a.entries), np.linalg.eigvalsh(b.entries))


class TestThermalModeWeights:
    def test_geometric_shape(self):
        w = dy.thermal_mode_weights(1.0, 30)
        assert w[1] / w[0] == pytest.approx(math.exp(-1.0))
        assert w.sum() == pytest.approx(1.0)

    def test_tail_guard(self):
        with pytest.raises(ValueError, match="increase n_max"):
            dy.thermal_mode_weights(0.2, 10)
        # the suggested truncation is admissible
        dy.thermal_mode_weights(0.2, dy.suggest_n_max(0.2))


class TestJcProtocol:
    def test_cold_mode_cannot_excite_ground_pair(self):
        res = dy.jc_protocol(dy.JCConfig("00", 10.0, n_max=20))
        assert res.ground_pop > 0.999
        assert res.negativity < 1e-3

    def test_excited_pair_reaches_bell_when_cold(self):
        res = dy.jc_protocol(dy.JCConfig("11", 10.0, n_max=20))
        assert res.negativity >= 0.45

    def test_vacuum_rabi_time(self):
        # essentially a vacuum mode: full transfer at g t = pi/2 (mod revival)
        res = dy.jc_protocol(dy.JCConfig("11", 12.0, n_max=20))
        assert math.sin(res.optimal_time) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_monotone_trends_small_grid(self):
        grid = np.linspace(0.5, 4.0, 8)
        n00, n11 = [], []
        for be in grid:
            nmax = dy.suggest_n_max(float(be))
            n00.append(dy.jc_protocol(dy.JCConfig("00", float(be), n_max=nmax)).negativity)
            n11.append(dy.jc_protocol(dy.JCConfig("11", float(be), n_max=nmax)).negativity)
        assert np.all(np.diff(n00) <= 1e-9)
        assert np.all(np.diff(n11) >= -1e-9)

    def test_truncation_convergence(self):
        # doubling the truncation moves the answer by less than 1e-6
        be = 0.8
        base = dy.suggest_n_max(be)
        a = dy.jc_protocol(dy.JCConfig("11", be, n_max=base)).negativity
        b = dy.jc_protocol(dy.JCConfig("11", be, n_max=2 * base)).negativity
        assert abs(a - b) < 1e-6

    def test_rotated_final_state_consistency(self):
        res = dy.jc_protocol(dy.JCConfig("00", 1.0, n_max=30))
        pops = [res.ground_pop, 1.0 - res.ground_pop, 0.0, 0.0]
        dm = dy.apply_subspace_rotation(pops, math.pi / 4)
        assert dy.negativity(dm.entries) == pytest.approx(res.negativity, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dy.JCConfig("01", 1.0)
        with pytest.raises(ValueError):
            dy.JCConfig("00", -1.0)

    @pytest.mark.parametrize("beta_E", [math.nan, 0.0, -0.0, -1.0, -math.inf])
    def test_beta_e_must_be_positive(self, beta_E):
        with pytest.raises(ValueError, match="positive"):
            dy.JCConfig("00", beta_E)
        with pytest.raises(ValueError, match="positive"):
            dy.suggest_n_max(beta_E)

    def test_beta_e_must_be_finite(self):
        # an infinitely cold mode moves nothing, so no interaction time is optimal
        with pytest.raises(ValueError, match="finite"):
            dy.JCConfig("00", math.inf)
        with pytest.raises(ValueError, match="finite"):
            dy.JCConfig("11", math.inf, n_max=20)
        # the truncation of an infinite beta_E is rejected with the same
        # message, not read as one level
        with pytest.raises(ValueError, match="beta_E must be finite"):
            dy.suggest_n_max(math.inf)

    def test_unbounded_truncation_names_the_cap(self):
        # log(TAIL_TOL) / 1e-320 overflows to inf
        with pytest.raises(ValueError, match="8191"):
            dy.suggest_n_max(1e-320)
        assert dy.suggest_n_max(1e-300) > dy.MAX_N_MAX

    def test_fock_truncation_capped(self):
        # the transfer scan holds time_grid x (n_max + 1) doubles; 8191 keeps
        # that at 2**24.  suggest_n_max(1e-6) alone is 18,420,682
        for n_max in (0, dy.suggest_n_max(1e-6), 100_000_000):
            with pytest.raises(ValueError, match="8191"):
                dy.JCConfig("00", 1e-6, n_max=n_max)
        dy.JCConfig("00", 1e-6, n_max=8191)

    @pytest.mark.parametrize("n_max", [20.7, 20.0, "20"])
    def test_fractional_truncation_rejected(self, n_max):
        # 20.7 was once read as 21 levels (22 weights); a truncation must be
        # an integer, so none is silently rounded
        with pytest.raises(ValueError, match="n_max must be an integer"):
            dy.JCConfig("00", 2.0, n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be an integer"):
            dy.thermal_mode_weights(2.0, n_max)
        assert len(dy.thermal_mode_weights(2.0, np.int64(20))) == 21


class TestJointEvolution:
    def test_population_matches_block_formula(self):
        be, nmax, t = 1.5, dy.suggest_n_max(1.5), 0.9
        w = dy.thermal_mode_weights(be, nmax)
        joint = ref_jc_joint_evolution(0, be, nmax, t)
        excited = joint.populations()[nmax + 1:].sum()
        assert excited == pytest.approx(dy._transfer_prob(t, w, "00"), abs=1e-12)

    def test_excitation_blocks_preserved(self):
        be, nmax, t = 2.0, dy.suggest_n_max(2.0), 1.3
        joint = ref_jc_joint_evolution(1, be, nmax, t).entries
        nm = nmax + 1
        # total excitation of |q, n> is q + n; coherences may only connect
        # equal-excitation basis states
        exc = np.array([q * nm + 0 for q in range(2)])
        labels = np.array([[q + n for n in range(nm)] for q in range(2)]).ravel()
        mask = labels[:, None] != labels[None, :]
        assert np.abs(joint[mask]).max() < 1e-12

    def test_invariants_along_time(self):
        be, nmax = 1.0, dy.suggest_n_max(1.0)
        for t in (0.0, 0.3, 1.7, 6.0):
            ref_jc_joint_evolution(1, be, nmax, t)  # constructor validates


class TestSchedules:
    def test_full_thermalization_of_a_pair(self):
        ctx = ctx2q(1.0)
        p = core.PopVector([0.6, 0.3, 0.0, 0.1])
        g = ctx.gamma
        # the pair's first level lies lower, then higher
        for i, j in ((1, 2), (2, 1), (4, 1)):
            traj = dy.apply_schedule(p, ctx, dy.ThermalizationSchedule((((i, j), 1.0),)))
            s = p.probs[i - 1] + p.probs[j - 1]
            share = g[i - 1] / (g[i - 1] + g[j - 1])
            assert np.allclose(traj[-1].probs[[i - 1, j - 1]], [share * s, (1 - share) * s],
                               atol=1e-12)

    def test_zero_strength_is_identity(self, rng):
        ctx = ctx2q(0.7)
        p = core.PopVector(random_states(rng, 1)[0])
        traj = dy.apply_schedule(p, ctx, dy.ThermalizationSchedule((((2, 4), 0.0),)))
        assert np.array_equal(traj[-1].probs, p.probs)

    def test_trajectory_stays_in_cone(self, rng):
        ctx = ctx2q(1.2)
        for _ in range(20):
            p = core.PopVector(random_states(rng, 1)[0])
            steps = []
            for _ in range(6):
                i, j = rng.choice(4, size=2, replace=False) + 1
                steps.append(((int(i), int(j)), float(rng.uniform())))
            sched = dy.ThermalizationSchedule(tuple(steps))
            traj = dy.apply_schedule(p, ctx, sched)
            assert dy.trajectory_in_cone(p, ctx, traj)

    def test_gibbs_preserved_exactly(self):
        ctx = ctx2q(0.9)
        g = core.PopVector(ctx.gamma)
        for pair in ((1, 2), (2, 3), (3, 4), (1, 4)):
            traj = dy.apply_schedule(g, ctx, dy.ThermalizationSchedule(((pair, 0.73),)))
            assert np.allclose(traj[-1].probs, ctx.gamma, atol=1e-14)

    def test_zero_temperature_semantics(self):
        ctx = ctx2q(math.inf)
        p = core.PopVector([0.0, 0.5, 0.5, 0.0])
        # pair with the ground level drains into it
        t1 = dy.apply_schedule(p, ctx, dy.ThermalizationSchedule((((1, 2), 1.0),)))
        assert np.allclose(t1[-1].probs, [0.5, 0.0, 0.5, 0.0], atol=1e-15)
        # degenerate excited pair splits evenly
        t2 = dy.apply_schedule(p, ctx, dy.ThermalizationSchedule((((2, 3), 1.0),)))
        assert np.allclose(t2[-1].probs, [0.0, 0.5, 0.5, 0.0], atol=1e-15)

    def test_large_beta_upward_pair_does_not_overflow(self):
        # the pair's first level lies higher and beta * gap is past exp's range
        ctx = ctx2q(800)
        sched = dy.ThermalizationSchedule((((2, 1), 0.5),))
        assert dy._step_table(ctx, sched.steps)[3].tolist() == [0.0]
        traj = dy.apply_schedule(core.PopVector([0.25] * 4), ctx, sched)
        assert np.isfinite(traj[-1].probs).all()
        assert traj[-1].probs.tolist() == [0.375, 0.125, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError):
            dy.ThermalizationSchedule((((1, 1), 0.5),))
        with pytest.raises(ValueError):
            dy.ThermalizationSchedule((((1, 2), 1.5),))
        # (1.5, 2.5) was once run as the pair (1, 2)
        for pair in ((1.5, 2.5), (1.0, 2.0), (1, 2, 3)):
            with pytest.raises(ValueError):
                dy.ThermalizationSchedule(((pair, 0.5),))
        assert dy.ThermalizationSchedule(((np.array([1, 2]), 0.5),)).steps == (((1, 2), 0.5),)
        ctx = ctx2q(1.0)
        with pytest.raises(ValueError):
            dy.apply_schedule(core.PopVector([1, 0, 0, 0]), ctx,
                              dy.ThermalizationSchedule((((1, 7), 0.5),)))


class TestMtpSearch:
    def test_finds_entangling_schedule_from_top_vertex(self):
        res = dy.mtp_entangle_search(core.PopVector([0, 0, 0, 1]), ctx2q(2.0),
                                     "greedy", 10_000)
        assert res.best_f < 0
        assert len(res.schedule) >= 1

    def test_gibbs_is_a_fixed_point(self):
        ctx = ctx2q(2.0)
        res = dy.mtp_entangle_search(core.PopVector(ctx.gamma), ctx, "greedy", 1000)
        assert res.best_f == pytest.approx(en.witness_f(ctx.gamma))
        assert len(res.schedule) == 0

    def test_beam_no_worse_than_greedy(self):
        p = core.PopVector([0.1, 0.2, 0.1, 0.6])
        ctx = ctx2q(1.0)
        g = dy.mtp_entangle_search(p, ctx, "greedy", 4_000)
        b = dy.mtp_entangle_search(p, ctx, "beam", 4_000)
        assert b.best_f <= g.best_f + 1e-12

    def test_outputs_stay_reachable(self):
        p = core.PopVector([0, 0, 0, 1])
        ctx = ctx2q(2.0)
        res = dy.mtp_entangle_search(p, ctx, "beam", 3_000)
        traj = dy.apply_schedule(p, ctx, res.schedule)
        assert dy.trajectory_in_cone(p, ctx, traj)
        assert en.witness_f(traj[-1]) == pytest.approx(res.best_f, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("budget", [1, 59, 60, 61, 500, 4000])
    @settings(max_examples=30)
    @given(state_strategy, st.sampled_from([0.0, 1.0, 2.0, math.inf]))
    # the first candidate to improve on the start is within 1e-15 of a later,
    # lower one, so it stays the best: not the least witness of the beam
    @example(np.array([0.1, 0.05, 0.4, 0.45]), 0.0)
    def test_matches_the_per_candidate_reference(self, strategy, budget, probs, beta):
        # budgets that end inside the first beam state's 60 candidates, at
        # their end, just past them, and inside or after later beams
        ctx, p = ctx2q(beta), core.PopVector(probs)
        res = dy.mtp_entangle_search(p, ctx, strategy, budget)
        best_f, sched, state, evals = ref_mtp_search(
            p.probs, ctx.energies, beta, en.witness_f, strategy, budget)
        assert res.best_f == best_f
        assert res.schedule.steps == sched
        assert res.best_state.probs.tobytes() == core.PopVector(state).probs.tobytes()
        assert res.evaluations == evals

    def test_validation(self):
        with pytest.raises(ValueError):
            dy.mtp_entangle_search(core.PopVector([0, 0, 0, 1]), ctx2q(1.0), "greedy", 0)
        with pytest.raises(ValueError):
            dy.mtp_entangle_search(core.PopVector([0, 0, 0, 1]), ctx2q(1.0), "magic", 10)


class TestCatalysis:
    def test_report_all_green(self):
        rep = dy.verify_catalysis()
        assert rep.passed
        assert rep.unitary_commutes
        assert rep.catalyst_restored
        assert rep.system_matches
        assert rep.initial_in_tne
        assert rep.final_in_te

    def test_exact_final_populations(self):
        rep = dy.verify_catalysis()
        assert rep.system_final == (Fraction(949, 2000), Fraction(613, 5000),
                                    Fraction(771, 2500), Fraction(189, 2000))
        assert rep.catalyst_final == (Fraction(73, 100), Fraction(27, 100))

    def test_unitary_is_a_block_permutation(self):
        u = np.zeros((8, 8))
        u[list(dy.CATALYSIS_TARGET), range(8)] = 1.0
        assert np.array_equal(u @ u.T, np.eye(8))
        h = np.diag([bin(i).count("1") for i in range(8)]).astype(float)
        assert np.array_equal(u @ h, h @ u)

    def test_relabeling_equals_the_matrix_replay(self):
        # U (rho x omega) U^T with an 8x8 permutation matrix, in Fractions
        joint = np.diag([r * w for r in dy.CATALYSIS_SYSTEM for w in dy.CATALYSIS_CATALYST])
        u = np.zeros((8, 8), dtype=int)
        u[list(dy.CATALYSIS_TARGET), range(8)] = 1
        sigma = (u @ joint @ u.T).diagonal()
        rep = dy.verify_catalysis()
        assert rep.system_final == tuple(sigma[0::2] + sigma[1::2])
        assert rep.catalyst_final == (sum(sigma[0::2]), sum(sigma[1::2]))

    @pytest.mark.parametrize("target", [
        (1, 0, 2, 5, 4, 6, 3, 7),  # |000> <-> |001> changes the excitation number
        (0, 2, 2, 5, 4, 6, 3, 7),  # not a bijection
    ])
    def test_commutes_only_for_excitation_keeping_bijections(self, monkeypatch, target):
        monkeypatch.setattr(dy, "CATALYSIS_TARGET", target)
        rep = dy.verify_catalysis(strict=False)
        assert not rep.unitary_commutes and not rep.passed
        with pytest.raises(dy.CatalysisError):
            dy.verify_catalysis()

    def test_trace_preserved_exactly(self):
        rep = dy.verify_catalysis()
        assert sum(rep.system_final) == 1
        assert sum(rep.catalyst_final) == 1

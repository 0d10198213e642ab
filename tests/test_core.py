import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from thermalent import core, entangle as en, majorization as mj
from tests.conftest import random_states, ref_order


def one_row_order(p, ctx):
    """The 1-based level ordering of one state: a one-row ``batch_order``."""
    return tuple((core.batch_order(p.probs[None, :], ctx.checked_gamma())[0] + 1).tolist())


def probs_strategy(d=4):
    return (st.lists(st.floats(1e-6, 1.0), min_size=d, max_size=d)
            .map(lambda v: np.array(v) / np.sum(v)))


@st.composite
def degenerate_ground_rows(draw):
    """A spectrum of 3, 5 or 7 levels with at least two ground levels, and
    rows of it: faces, tied populations, and rows with all their mass above
    the ground levels (in the zero-weight levels at infinite beta)."""
    d = draw(st.sampled_from([3, 5, 7]))
    ground = draw(st.integers(2, d - 1))
    energies = [0.0] * ground + sorted(draw(st.lists(st.sampled_from([1.0, 2.0]),
                                                     min_size=d - ground, max_size=d - ground)))
    value = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))
    rows = draw(st.lists(st.tuples(st.lists(value, min_size=d, max_size=d), st.booleans()),
                         min_size=1, max_size=12))
    P = np.array([r for r, _ in rows])
    P[[excited for _, excited in rows], :ground] = 0.0
    P[P.sum(axis=1) == 0, -1] = 1.0
    return energies, P / P.sum(axis=1, keepdims=True)


class TestMakeContext:
    def test_uniform_at_beta_zero(self):
        ctx = core.make_context((0, 1, 1, 2), 0.0)
        assert np.allclose(ctx.gamma, 0.25)

    def test_ground_support_at_infinite_beta(self):
        ctx = core.make_context((0, 1, 1, 2), math.inf)
        assert np.array_equal(ctx.gamma, [1.0, 0.0, 0.0, 0.0])

    def test_degenerate_ground_at_infinite_beta(self):
        ctx = core.make_context((0, 0, 1), math.inf)
        assert np.array_equal(ctx.gamma, [0.5, 0.5, 0.0])

    def test_direct_gibbs_evaluation(self):
        # e^{-beta E_i} / Z with Z = (1 + e^{-1})^2
        z = (1 + math.exp(-1)) ** 2
        expected = np.array([1, math.exp(-1), math.exp(-1), math.exp(-2)]) / z
        ctx = core.make_context((0, 1, 1, 2), 1.0)
        assert np.allclose(ctx.gamma, expected, atol=1e-15)
        assert np.allclose(ctx.gamma, [0.534447, 0.196612, 0.196612, 0.072329], atol=5e-7)

    def test_normalization_tight(self, rng):
        for _ in range(200):
            d = rng.integers(2, 7)
            energies = rng.normal(size=d) * 3
            beta = rng.exponential()
            ctx = core.make_context(energies, beta)
            assert abs(ctx.gamma.sum() - 1.0) <= 1e-12

    def test_overflow_safe(self):
        ctx = core.make_context((0.0, 1000.0), 5.0)
        assert ctx.gamma[0] == pytest.approx(1.0)

    def test_underflowed_weights_rejected_by_the_kernel_check(self):
        # built, but a finite beta with a zero weight never reaches the curve
        # kernel, which reads a zero weight as beta = inf
        ctx = core.make_context((0.0, 1000.0), 5.0)
        with pytest.raises(ValueError, match="inf"):
            ctx.checked_gamma()
        with pytest.raises(ValueError, match="inf"):
            mj.curve(core.PopVector([0.5, 0.5]), ctx)
        assert np.array_equal(core.make_context((0.0, 1.0), math.inf).checked_gamma(), [1, 0])
        assert core.make_context((0.0, 1.0), 300.0).checked_gamma()[1] > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_beta_times_energy(self):
        # an exponent beyond the doubles is a zero weight, rejected at finite beta
        ctx = core.make_context((0.0, 1e300), 1e10)
        assert np.array_equal(ctx.gamma, [1, 0])
        with pytest.raises(ValueError, match="underflow"):
            ctx.checked_gamma()
        # shifted to the ground level first, so a huge common offset cancels
        ctx = core.make_context((-1e300, -1e300 + 1e285), 1e10)
        assert ctx.gamma[0] == 1.0 and ctx.gamma[1] == 0.0
        for beta in (0.0, 1.0, math.inf):
            with pytest.raises(ValueError, match="spread"):
                core.make_context((-1e308, 1e308), beta)

    def test_nan_weights_rejected(self):
        ctx = core.GibbsContext(energies=(0.0, 1.0), beta=1.0, gamma=np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="underflow"):
            ctx.checked_gamma()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gibbs_rows_in_place(self):
        # the exp and the division in place give the bits of the plain
        # formula, for a scalar beta, rows of betas and a beta whose exponent
        # overflows; a 100,000-row call holds one (n, 4) array, 3.2 MB, and
        # the column of betas and the row sums (4.13 MB traced, plus 5 %)
        e = np.array([0.0, 1.0, 1.0, 2.0])
        B = np.random.default_rng(3).uniform(0.0, 800.0, 100_000)
        for betas in (1.0, 1e308, B):
            with np.errstate(over="ignore"):
                w = np.exp(np.multiply.outer(-np.asarray(betas), e))
            assert core._gibbs_rows(e, betas).tobytes() == (w / w.sum(-1, keepdims=True)).tobytes()
        tracemalloc.start()
        try:
            core._gibbs_rows(e, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 4.13e6

    def test_errors(self):
        with pytest.raises(ValueError):
            core.make_context((), 1.0)
        with pytest.raises(ValueError):
            core.make_context((0, 1), -0.5)
        with pytest.raises(ValueError):
            core.make_context((0, math.inf), 1.0)


class TestPopVector:
    def test_clamps_tiny_negative(self):
        p = core.PopVector([1.0 + 5e-11, -5e-11, 0, 0])
        assert p.probs[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            core.PopVector([0.5, 0.4, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            core.PopVector([1.1, -0.1, 0, 0])

    def test_rejects_non_finite(self):
        for bad in ([math.nan, 0.5, 0.5, 0.0], [math.inf, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError):
                core.PopVector(bad)

    def test_renorm_helper(self):
        p = core.pop_vector([2, 1, 1], renorm=True)
        assert np.allclose(p.probs, [0.5, 0.25, 0.25])
        with pytest.raises(ValueError):
            core.pop_vector([0.5, 0.4], renorm=False)

    def test_renorm_of_an_overflowing_sum(self):
        # the sum is inf; the entries are scaled by their maximum first
        p = core.pop_vector([1e308, 1e308, 0, 0], renorm=True)
        assert p.probs.tolist() == [0.5, 0.5, 0.0, 0.0]
        p = core.pop_vector([1.7e308, 1.7e308, 1.7e308, 0], renorm=True)
        assert np.allclose(p.probs, [1 / 3, 1 / 3, 1 / 3, 0], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_renorm_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            core.pop_vector([bad, 0.0, 0.0, 0.0], renorm=True)
        with pytest.raises(ValueError, match="finite"):
            core.pop_vector([bad, 1.0, 1.0, 0.0], renorm=True)

    def test_overflowing_sum_rejected_without_renorm(self):
        with pytest.raises(ValueError, match="sum to inf"):
            core.PopVector([1e308, 1e308, 0, 0])

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
    def test_renorm_keeps_the_bits_of_a_finite_sum(self, values):
        p = np.clip(np.array(values), 0.0, None)
        assume(0 < p.sum() < math.inf)
        assert core.pop_vector(values, renorm=True).probs.tobytes() == (p / p.sum()).tobytes()


class TestBetaOrdering:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            core.BetaOrdering((1, 1, 2, 3))

    def test_descending_sort_at_beta_zero(self):
        ctx = core.make_context((0, 1, 1, 2), 0.0)
        p = core.PopVector([0.1, 0.5, 0.2, 0.2])
        assert one_row_order(p, ctx) == (2, 3, 4, 1)

    def test_gibbs_state_is_identity(self):
        ctx = core.make_context((0, 1, 1, 2), 1.0)
        assert one_row_order(core.PopVector(ctx.gamma), ctx) == (1, 2, 3, 4)

    def test_counterexample_ordering(self):
        # epsilon well below e^{-2 beta E} puts level 4 above level 3
        ctx = core.make_context((0, 1, 1, 2), 1.0)
        p = core.PopVector([0.01, 0.9899, 0, 0.0001])
        assert one_row_order(p, ctx) == (2, 1, 4, 3)

    def test_nonincreasing_ratio_property(self, rng):
        # bulk version of the defining property
        P = random_states(rng, 100_000)
        betas = rng.uniform(0, 5, size=100_000)
        E = np.array([0.0, 1.0, 1.0, 2.0])
        logw = -betas[:, None] * E[None, :]
        G = np.exp(logw - logw.max(axis=1, keepdims=True))
        G /= G.sum(axis=1, keepdims=True)
        order = np.argsort(-(P / G), axis=1, kind="stable")
        sorted_ratios = np.take_along_axis(P / G, order, axis=1)
        assert np.all(np.diff(sorted_ratios, axis=1) <= 1e-12)

    @given(probs_strategy(), st.floats(0.1, 5.0), st.floats(0.2, 4.0))
    def test_scale_invariance(self, probs, beta, scale):
        # only the product beta*E matters
        p = core.PopVector(probs)
        a = one_row_order(p, core.make_context((0, 1, 1, 2), beta))
        b = one_row_order(p, core.make_context((0, 1 / scale, 1 / scale, 2 / scale), beta * scale))
        assert a == b

    def test_stable_tie_break(self):
        ctx = core.make_context((0, 1, 1, 2), 1.0)
        p = core.PopVector([0.4, 0.25, 0.25, 0.1])
        assert one_row_order(p, ctx)[1:3] == (2, 3)

    def test_per_row_gammas_with_and_without_zero_weights(self, rng):
        # zero weights (beta = inf) only in a shared vector; one vector per
        # row is drawn at finite beta
        P = random_states(rng, 60)
        P[:10, 0] = 0.0
        P[10:20, 3] = 0.0
        P[20:30, 2] = P[20:30, 1]
        P /= P.sum(axis=1, keepdims=True)
        for beta in (0.0, 1.0, math.inf, 3.0):
            gamma = core.two_qubit_context(beta).gamma
            for p, o in zip(P, core.batch_order(P, gamma)):
                assert o.tolist() == ref_order(p, gamma)
        G = np.array([core.two_qubit_context(b).gamma
                      for b in np.resize([0.0, 1.0, 20.0, 3.0], 60)])
        order = core.batch_order(P, G)
        for p, g, o in zip(P, G, order):
            assert o.tolist() == ref_order(p, g)

    @given(degenerate_ground_rows())
    def test_shared_and_per_row_gammas_on_degenerate_spectra(self, case):
        # the same comparisons with a shared Gibbs vector, zero weights
        # included, and with one per row at finite beta, against the reference
        energies, P = case
        gammas = [core.make_context(energies, b).gamma for b in (0.0, 1.0, 3.0, math.inf)]
        for gamma in gammas:
            for p, o in zip(P, core.batch_order(P, gamma)):
                assert o.tolist() == ref_order(p, gamma)
        G = np.array([gammas[r % 3] for r in range(len(P))])
        for p, g, o in zip(P, G, core.batch_order(P, G)):
            assert o.tolist() == ref_order(p, g)

    @pytest.fixture
    def compared_rows(self, monkeypatch):
        """The row count of every ``_pair_bits`` call (its level-major tile's
        column count)."""
        rows = []
        pair_bits = core._pair_bits

        def counting(P, gammas, ws):
            rows.append(P.shape[1])
            return pair_bits(P, gammas, ws)

        monkeypatch.setattr(core, "_pair_bits", counting)
        return rows

    def test_batch_order_in_tiles(self, rng, compared_rows):
        # the (d(d-1)/2, rows) comparisons never span more than one tile
        n = 3 * core.CHUNK + 1
        P = random_states(rng, n)
        P[::7, 2] = P[::7, 1]
        P /= P.sum(axis=1, keepdims=True)
        G = np.array([core.two_qubit_context(b).gamma for b in np.resize([0.0, 1.0, 3.0], n)])
        for gammas in (G[1], G):
            compared_rows.clear()
            order = core.batch_order(P, gammas)
            assert compared_rows == [core.CHUNK] * 3 + [1]
            tiles = [core.batch_order(P[lo:lo + core.CHUNK],
                                      gammas if gammas.ndim == 1 else gammas[lo:lo + core.CHUNK])
                     for lo in range(0, n, core.CHUNK)]
            assert np.array_equal(order, np.concatenate(tiles))
            G_rows = np.broadcast_to(gammas, P.shape)
            assert all(order[r].tolist() == ref_order(P[r], G_rows[r]) for r in range(0, n, 97))

    def test_one_row_is_one_tile(self, compared_rows):
        one_row_order(core.PopVector([0.1, 0.2, 0.3, 0.4]), core.two_qubit_context(1.0))
        assert compared_rows == [1]

    def test_dimension_mismatch(self):
        ctx = core.make_context((0, 1), 1.0)
        # one state's ordering is read through its curve, which checks
        with pytest.raises(ValueError, match="dimension mismatch"):
            mj.curve(core.PopVector([0.5, 0.3, 0.2]), ctx)

    @pytest.mark.parametrize("gammas", [
        np.array([0.6, 0.4]),           # shared, positive weights
        np.array([1.0, 0.0]),           # shared, a zero weight
        np.full((5, 2), 0.5),           # per row, too few levels
        np.full((4, 3), 1 / 3),         # per row, too few rows
        np.full((1, 3), 1 / 3),         # one row for five
    ], ids=["shared", "shared-zero-weight", "rows-levels", "rows-count", "one-row"])
    @pytest.mark.parametrize("batch", [
        core.batch_order,
        lambda P, G: mj.batch_tight_points(P, G, core.BetaOrdering((2, 1, 3))),
        en.fstar_batch,
    ], ids=["batch_order", "batch_tight_points", "fstar_batch"])
    def test_batch_dimension_mismatch(self, batch, gammas):
        # the batch calls check their Gibbs weights against the rows before
        # the first tile, rather than fail inside the comparisons
        with pytest.raises(ValueError, match="dimension mismatch"):
            batch(np.full((5, 3), 1 / 3), gammas)

    def test_infinite_beta_conventions(self):
        ctx = core.make_context((0, 1, 1, 2), math.inf)
        # populated zero-weight levels first by descending population,
        # unpopulated zero-weight levels last
        p = core.PopVector([0.2, 0.3, 0.5, 0.0])
        assert one_row_order(p, ctx) == (3, 2, 1, 4)
        q = core.PopVector([1.0, 0.0, 0.0, 0.0])
        assert one_row_order(q, ctx) == (1, 2, 3, 4)


def test_array_dataclasses_compare_by_identity():
    """A result type that holds arrays compares and hashes by identity: its
    fields' ``==`` would skip the arrays, or raise on them."""
    from thermalent import dynamics, geometry as geo

    ctx, pts = core.two_qubit_context(1.0), np.eye(4)
    ground, top = core.PopVector([1, 0, 0, 0]), core.PopVector([0, 0, 0, 1])
    pairs = [
        (mj.curve(ground, ctx), mj.curve(top, ctx)),
        (mj.curve(ground, ctx), mj.curve(ground, ctx)),
        (dynamics.DensityMatrix(np.diag([1, 0])), dynamics.DensityMatrix(np.diag([0, 1]))),
        (geo.BoundaryCloud(pts, pts, pts), geo.BoundaryCloud(pts, pts, pts)),
        (geo.convex_hull_export(pts), geo.convex_hull_export(pts)),
    ]
    for a, b in pairs:
        assert a == a and a != b and len({a, b}) == 2

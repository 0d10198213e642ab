import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thermalent import core, entangle as en, geometry as geo, majorization as mj
from tests.conftest import (
    random_states, ref_facet_grid, ref_fstar, ref_fstar_exact, ref_ne_boundary_p3,
    ref_simplex_block, ref_tne_boundary, state_strategy)

#: V_TNE(0), the volume fraction of the states no thermal process entangles
#: with an infinitely hot bath, to the 20 digits on which two 40-digit mpmath
#: quadratures split at every kink agree (ROADMAP item 6); no closed form yet
V_TNE0 = 0.32723006198927174069


#: a non-entanglable origin at beta = 1 next to the boundary (f* = 8.6e-6):
#: its cone comes within about 1e-5 of the entangled states
BOUNDARY_ORIGIN = (0.3837, 0.1411, 0.1411, 0.3341)


def ctx2q(beta):
    return core.two_qubit_context(beta)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = geo.sample_simplex_array(4, 80_000, 99)
        b = geo.sample_simplex_array(4, 80_000, 99)
        assert np.array_equal(a, b)
        c = geo.sample_simplex_array(4, 80_000, 100)
        assert not np.array_equal(a, c)

    def test_prefix_stability(self):
        # a shorter run is a prefix of a longer one with the same seed
        long = geo.sample_simplex_array(4, 70_000, 5)
        short = geo.sample_simplex_array(4, 1_000, 5)
        assert np.array_equal(long[:1_000], short)

    def test_d2_mean_first_coordinate(self):
        n = 200_000
        s = geo.sample_simplex_array(2, n, 11)
        mean = s[:, 0].mean()
        sigma = s[:, 0].std() / math.sqrt(n)
        assert abs(mean - 0.5) <= 3 * sigma

    def test_nearest_vertex_symmetry(self):
        # each vertex is nearest for a quarter of uniform samples
        n = 1_000_000
        s = geo.sample_simplex_array(4, n, 13)
        frac = np.bincount(np.argmax(s, axis=1), minlength=4) / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(frac - 0.25) <= 3.5 * sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            geo.sample_simplex_array(1, 10, 0)
        with pytest.raises(ValueError, match="non-negative"):
            geo.sample_simplex_array(4, -1, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_tiles_match_block_reference(self, d):
        # column adds below 8 levels and numpy's pairwise row sums from 8 on
        # give the bits of the whole-block draw
        sizes = (1, core.CHUNK - 1, core.CHUNK + 1, geo.BLOCK, geo.BLOCK + 1, 3 * geo.BLOCK + 5)
        for n in sizes:
            for seed in (0, 7, 2**64 - 1):
                blocks = [ref_simplex_block(d, min(geo.BLOCK, n - lo), seed, b)
                          for b, lo in enumerate(range(0, n, geo.BLOCK))]
                assert np.array_equal(geo.sample_simplex_array(d, n, seed), np.concatenate(blocks))
                for b, want in enumerate(blocks):
                    # each tile is a level-major view of one reused buffer, so copy its rows
                    tiles = [t.T.copy() for t in geo._simplex_tiles(d, n, seed, [b])]
                    assert max(map(len, tiles)) <= core.CHUNK
                    assert np.array_equal(np.concatenate(tiles), want)


class TestVolumes:
    def test_subspace_entanglable_matches_exact_third(self):
        # exact value: 6 * int int (1-x-y-2 sqrt(xy))+ dx dy = 1/3
        est = geo.volume_of("E", ctx2q(0.0), None, 300_000, seed=21)
        assert abs(est.fraction - 1.0 / 3.0) <= 4 * est.std_error

    def test_std_error_formula(self):
        est = geo.volume_of("E", ctx2q(0.0), None, 10_000, seed=3)
        expect = math.sqrt(est.fraction * (1 - est.fraction) / est.n_samples)
        assert est.std_error == pytest.approx(expect, rel=1e-12)

    def test_ne_complements_e(self):
        ve = geo.volume_of("E", ctx2q(1.0), None, 50_000, seed=4)
        vne = geo.volume_of("NE", ctx2q(1.0), None, 50_000, seed=4)
        assert ve.fraction + vne.fraction == pytest.approx(1.0, abs=1e-12)

    def test_tne_beta_zero_about_a_third(self):
        est = geo.volume_of("TNE", ctx2q(0.0), None, 200_000, seed=5)
        assert 0.31 <= est.fraction <= 0.36

    def test_ent_cone_of_top_vertex_equals_e_exactly(self):
        # the top vertex reaches everything, so the predicates coincide
        for beta in (0.0, 1.0):
            a = geo.volume_of("E", ctx2q(beta), None, 60_000, seed=8)
            b = geo.volume_of("ENT_CONE", ctx2q(beta), core.PopVector([0, 0, 0, 1]),
                              60_000, seed=8)
            assert a.fraction == b.fraction

    def test_thread_count_invariance(self):
        a = geo.volume_of("TNE", ctx2q(0.5), None, 150_000, seed=6, threads=1)
        b = geo.volume_of("TNE", ctx2q(0.5), None, 150_000, seed=6, threads=4)
        assert a.fraction == b.fraction

    def test_volume_monotone_under_cone_order(self, rng):
        # reachable states have no larger entanglement cone volume
        ctx = ctx2q(1.0)
        p = core.PopVector([0.1, 0.1, 0.2, 0.6])
        V = mj.future_cone(p, ctx).points
        q = core.PopVector(V.T @ rng.dirichlet(np.ones(V.shape[0])))
        vp = geo.volume_of("ENT_CONE", ctx, p, 120_000, seed=9)
        vq = geo.volume_of("ENT_CONE", ctx, q, 120_000, seed=10)
        joint = math.hypot(vp.std_error, vq.std_error)
        assert vq.fraction <= vp.fraction + 2 * joint

    def test_tne_volume_nonincreasing_in_beta(self):
        # colder environments leave fewer non-entanglable states
        fractions = []
        for i, beta in enumerate((0.0, 0.5, 1.0, 2.0, 3.0, 5.0)):
            est = geo.volume_of("TNE", ctx2q(beta), None, 120_000, seed=40 + i)
            fractions.append((est.fraction, est.std_error))
        for (fa, sa), (fb, sb) in zip(fractions, fractions[1:]):
            assert fb <= fa + 2 * math.hypot(sa, sb)

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("set_id", geo.SET_IDS)
    def test_thread_count_invariance_with_partial_blocks(self, set_id, beta):
        # two whole blocks and a third ending one row into its second tile
        n = 2 * geo.BLOCK + 4097
        origin = core.PopVector([0.1, 0.1, 0.2, 0.6]) if set_id == "ENT_CONE" else None
        fractions = {geo.volume_of(set_id, ctx2q(beta), origin, n, seed=12, threads=t).fraction
                     for t in (1, 2, 3)}
        assert len(fractions) == 1

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_stream_dominance_verdicts(self, beta):
        # the hinge test that every tile ANDs into its witness mask counts the
        # entangled samples that batch_majorizes keeps, over two whole blocks
        # and a ragged third
        ctx, origin = ctx2q(beta), core.PopVector([0.1, 0.1, 0.2, 0.6])
        n = 2 * geo.BLOCK + 4097
        S = geo.sample_simplex_array(4, n, 5)
        ok = mj.batch_majorizes(origin, S[en.witness_batch(S) < -en.TAU_F], ctx)
        assert 0 < np.count_nonzero(ok) < len(ok)
        assert geo.volume_of("ENT_CONE", ctx, origin, n, 5).fraction == np.count_nonzero(ok) / n

    def test_validation(self):
        with pytest.raises(ValueError):
            geo.volume_of("BOGUS", ctx2q(0.0), None, 10, seed=0)
        with pytest.raises(ValueError):
            geo.volume_of("ENT_CONE", ctx2q(0.0), None, 10, seed=0)
        with pytest.raises(ValueError):
            geo.volume_of("E", ctx2q(0.0), None, 0, seed=0)
        # four levels, but not the (0, E, E, 2E) spectrum the witness reads
        ladder = core.make_context((0.0, 1.0, 2.0, 3.0), 1.0)
        for set_id, origin in (("E", None), ("NE", None), ("TNE", None),
                               ("ENT_CONE", core.PopVector([0.1, 0.1, 0.2, 0.6]))):
            with pytest.raises(ValueError, match="two-qubit"):
                geo.volume_of(set_id, ladder, origin, 10, seed=0)
        # three levels, and the two-qubit shape with a gap that is not positive
        for energies in ((0.0, 1.0, 2.0), (0.0, 0.0, 0.0, 0.0), (2.0, 1.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="two-qubit"):
                geo.volume_of("E", core.make_context(energies, 1.0), None, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        # masked to 64 bits, -1 drew the samples of 2^64 - 1 and 2^64 those of 0
        with pytest.raises(ValueError, match="seed"):
            geo.volume_of("E", ctx2q(0.0), None, 10, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            geo.sample_simplex_array(4, 10, seed)

    def test_seeds_at_the_ends_of_64_bits(self):
        for seed in (0, 2**64 - 1):
            assert geo.volume_of("E", ctx2q(0.0), None, 10, seed=seed).seed == seed
            assert geo.sample_simplex_array(4, 10, seed).shape == (10, 4)

    @pytest.mark.parametrize("n", [geo.MAX_SAMPLES + 1, 2**64])
    def test_sample_count_capped(self, n):
        with pytest.raises(ValueError, match=f"1..{geo.MAX_SAMPLES}, got {n}"):
            geo.volume_of("E", ctx2q(0.0), None, n, seed=0)

    @pytest.mark.parametrize("set_id", ["E", "NE", "TNE"])
    def test_origin_only_for_ent_cone(self, set_id):
        with pytest.raises(ValueError, match="no other set"):
            geo.volume_of(set_id, ctx2q(0.0), core.PopVector([0, 0, 0, 1]), 10, seed=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match="at least 1"):
            geo.volume_of("E", ctx2q(0.0), None, 10, seed=0, threads=threads)

    def test_thread_count_clamped(self, monkeypatch):
        # a fake pool records its worker count and the workers' shares, and
        # runs nothing, so no thread starts
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, shares):
                seen.append(len(list(shares)))
                return []

        monkeypatch.setattr(geo, "ThreadPoolExecutor", Pool)
        geo.volume_of("E", ctx2q(0.0), None, 10**10, seed=0, threads=10**6)
        assert seen == [geo.MAX_THREADS, geo.MAX_THREADS]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_setup_memory_does_not_grow_with_n(self, monkeypatch, threads):
        # the first block raises, so only the set-up before it is measured;
        # 10^10 samples are 152,588 blocks
        def fail(*args):
            raise RuntimeError("first block")

        monkeypatch.setattr(geo, "_simplex_tiles", fail)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="first block"):
                geo.volume_of("E", ctx2q(0.0), None, 10**10, seed=0, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("set_id, beta, origin, hits", [
        ("E", 0.0, None, 43985),
        ("TNE", 0.0, None, 42751),
        ("TNE", 1.0, None, 15791),
        ("TNE", math.inf, None, 0),
        ("ENT_CONE", 1.0, (0, 0, 0, 1), 43985),
        ("ENT_CONE", 0.0, (0.1, 0.1, 0.2, 0.6), 2038),
        ("ENT_CONE", 1.0, (0.1, 0.1, 0.2, 0.6), 12939),
        ("ENT_CONE", math.inf, (0.1, 0.1, 0.2, 0.6), 22611),
        # non-entanglable origins: zero hits from the verdict, without a draw
        ("ENT_CONE", 0.0, (0.4, 0.25, 0.33, 0.02), 0),
        ("ENT_CONE", 1.0, BOUNDARY_ORIGIN, 0),
    ])
    def test_pinned_hit_counts(self, set_id, beta, origin, hits):
        # hit counts of the per-row curve construction; a flipped verdict
        # changes them
        n = 2 * geo.BLOCK
        origin = core.PopVector(origin) if origin else None
        est = geo.volume_of(set_id, ctx2q(beta), origin, n, seed=11)
        assert est.fraction == hits / n

    def test_dominance_at_a_non_entanglable_origin(self):
        # the zero pins above return without a draw, so the dominance kernel
        # is checked at the first of them directly: it reaches none of the
        # entangled samples of that pin
        S = geo.sample_simplex_array(4, 2 * geo.BLOCK, 11)
        ent = S[en.witness_batch(S) < -en.TAU_F]
        ok = mj.batch_majorizes(core.PopVector([0.4, 0.25, 0.33, 0.02]), ent, ctx2q(0.0))
        assert len(ent) > 40_000 and not ok.any()

    @pytest.mark.parametrize("set_id, origin, beta, hits", [
        ("E", None, 0.0, (23349, 23499)),
        ("E", None, 1.0, (23349, 23499)),
        ("E", None, math.inf, (23349, 23499)),
        ("NE", None, 0.0, (46284, 46134)),
        ("NE", None, 1.0, (46284, 46134)),
        ("NE", None, math.inf, (46284, 46134)),
        ("TNE", None, 0.0, (22614, 22595)),
        ("TNE", None, 1.0, (8415, 8546)),
        ("TNE", None, math.inf, (0, 0)),
        ("ENT_CONE", (0, 0, 0, 1), 0.0, (23349, 23499)),
        ("ENT_CONE", (0, 0, 0, 1), 1.0, (23349, 23499)),
        ("ENT_CONE", (0, 0, 0, 1), math.inf, (23349, 23499)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), 0.0, (1145, 1088)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), 1.0, (6821, 6922)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), math.inf, (11967, 12144)),
    ])
    def test_pinned_hit_counts_on_ragged_tiles(self, set_id, origin, beta, hits):
        # a whole block and a second of 4,097 rows, at seeds 5 and 2^64 - 1:
        # one short tile at 8,192 rows a tile, a full one and one row at 4,096
        self.check_pinned_hits(set_id, origin, beta, hits, 69_633)

    @pytest.mark.parametrize("set_id, origin, beta, hits", [
        ("E", None, 0.0, (24715, 24790)),
        ("E", None, 1.0, (24715, 24790)),
        ("E", None, math.inf, (24715, 24790)),
        ("NE", None, 0.0, (49014, 48939)),
        ("NE", None, 1.0, (49014, 48939)),
        ("NE", None, math.inf, (49014, 48939)),
        ("TNE", None, 0.0, (23960, 24008)),
        ("TNE", None, 1.0, (8934, 9084)),
        ("TNE", None, math.inf, (0, 0)),
        ("ENT_CONE", (0, 0, 0, 1), 0.0, (24715, 24790)),
        ("ENT_CONE", (0, 0, 0, 1), 1.0, (24715, 24790)),
        ("ENT_CONE", (0, 0, 0, 1), math.inf, (24715, 24790)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), 0.0, (1206, 1146)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), 1.0, (7258, 7315)),
        ("ENT_CONE", (0.1, 0.1, 0.2, 0.6), math.inf, (12687, 12795)),
    ])
    def test_pinned_hit_counts_on_a_one_row_tile(self, set_id, origin, beta, hits):
        # a whole block and a second of 8,193 rows: at 8,192 rows a tile it
        # ends in a tile of one row
        self.check_pinned_hits(set_id, origin, beta, hits, 73_729)

    @staticmethod
    def check_pinned_hits(set_id, origin, beta, hits, n):
        origin = core.PopVector(origin) if origin else None
        got = tuple(geo.volume_of(set_id, ctx2q(beta), origin, n, seed=s).fraction
                    for s in (5, 2**64 - 1))
        assert got == tuple(h / n for h in hits)

    @pytest.mark.parametrize("set_id, beta, origin", [
        ("TNE", 0.0, None),
        ("TNE", 1.0, None),
        ("TNE", math.inf, None),
        ("ENT_CONE", 1.0, (0, 0, 0, 1)),
        ("ENT_CONE", 0.0, (0.1, 0.1, 0.2, 0.6)),
    ])
    def test_kernel_memory_is_a_few_tiles(self, set_id, beta, origin):
        origin = core.PopVector(origin) if origin else None
        # a small call first, so that one-time allocations are not counted
        geo.volume_of(set_id, ctx2q(beta), origin, 1000, seed=0)
        tracemalloc.start()
        try:
            geo.volume_of(set_id, ctx2q(beta), origin, 3 * geo.BLOCK, seed=0, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2 MB: a tile's steps hold a few (4, 8192) arrays of 256 KB each at
        # once (the draws and the tile, which the sampler reuses from tile to
        # tile, the ratios and then the orderings, the sorted populations and
        # the tight points) and a few rows of 64 KB, the sampler's sums among
        # them
        assert peak <= 4 * 8 * 4096 * 4 * 4

    def test_infinite_beta_tne_is_negligible(self):
        est = geo.volume_of("TNE", ctx2q(math.inf), None, 2_000, seed=2)
        assert est.fraction == 0.0


class TestEmptyConeCertificate:
    """The empty-cone certificate of ``volume_of`` is the verdict: the
    future thermal cone of an origin that ``is_thermally_entanglable`` (as
    ``classify`` reads it) calls non-entanglable holds no entangled state,
    so its ENT_CONE volume returns zero hits without drawing its samples.
    An origin with an empty hinge plan reaches the whole simplex, and is
    asked no verdict."""

    class Drew(Exception):
        """Raised by ``_simplex_tiles`` while ``no_draws`` patches it."""

    @classmethod
    def no_draws(cls, monkeypatch):
        def fail(*args):
            raise cls.Drew

        monkeypatch.setattr(geo, "_simplex_tiles", fail)

    @classmethod
    def without_draw(cls, ctx, p):
        """The ENT_CONE volume from p of 2 BLOCK samples at seed 3, or None
        where it draws them (under ``no_draws``)."""
        try:
            return geo.volume_of("ENT_CONE", ctx, p, 2 * geo.BLOCK, 3)
        except cls.Drew:
            return None

    @staticmethod
    def all_entanglable(monkeypatch):
        monkeypatch.setattr(geo, "is_thermally_entanglable",
                            lambda p, ctx: SimpleNamespace(in_TE=True))

    @staticmethod
    def origins(ctx):
        """Uniform states, states near gamma (non-entanglable at every
        finite beta), the inner points of the boundary cloud, the boundary
        origin, gamma, and a state on the beta = 0 boundary (f* = 0 in
        reals)."""
        rng = np.random.default_rng(7)
        near = ctx.gamma + 0.1 * (random_states(rng, 40) - ctx.gamma)
        return [core.PopVector(p) for p in np.concatenate([
            random_states(rng, 40), near, geo.tne_boundary(ctx, 6, 30).inner_points,
            [BOUNDARY_ORIGIN, ctx.gamma, (0.4625, 0.3, 0.1625, 0.075)]])]

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0, 8.0, math.inf])
    def test_certified_origins_have_empty_cones(self, monkeypatch, beta):
        # every non-entanglable origin returns zero hits without a draw and
        # every entanglable one draws; asked with the verdict patched to
        # "entanglable", the stream counts the same zero at either end of
        # the seeds, on one thread and on two (a worker per block)
        ctx, n = ctx2q(beta), 2 * geo.BLOCK
        zero = []
        with monkeypatch.context() as m:
            self.no_draws(m)
            for p in self.origins(ctx):
                est = self.without_draw(ctx, p)
                assert (est is None) == en.is_thermally_entanglable(p, ctx).in_TE
                if est is not None:
                    assert est == geo.VolumeEstimate.from_counts(0, n, 3)
                    zero.append(p)
        assert zero
        self.all_entanglable(monkeypatch)
        for p in zero:
            for seed, threads in ((3, 1), (2**64 - 1, 2)):
                est = geo.volume_of("ENT_CONE", ctx, p, n, seed, threads)
                assert est == geo.VolumeEstimate.from_counts(0, n, seed)

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_top_state_asks_no_verdict(self, monkeypatch, beta):
        # the top state's plan is empty: its cone is the whole simplex
        def fail(*args):
            raise AssertionError("asked for a verdict")

        monkeypatch.setattr(geo, "is_thermally_entanglable", fail)
        ctx, top = ctx2q(beta), core.PopVector([0, 0, 0, 1])
        assert (geo.volume_of("ENT_CONE", ctx, top, 70_000, 5)
                == geo.volume_of("E", ctx, None, 70_000, 5))

    #: origins of 400 uniform ones (``default_rng(2027)``) per beta whose
    #: volume returns zero hits without a draw
    CERTIFIED = {0.0: 124, 0.5: 90, 1.0: 51, 3.0: 1, 10.0: 0}

    @pytest.mark.parametrize("beta", list(CERTIFIED))
    def test_decisions_pinned(self, monkeypatch, beta):
        self.no_draws(monkeypatch)
        ctx, P = ctx2q(beta), np.random.default_rng(2027).dirichlet(np.ones(4), 400)
        certified = sum(self.without_draw(ctx, core.PopVector(p)) is not None for p in P)
        assert certified == self.CERTIFIED[beta]

    def test_volume_matches_the_stream(self, monkeypatch):
        # the estimate without a draw is the one the stream gives, at any
        # thread count
        ctx, p = ctx2q(0.0), core.PopVector([0.4, 0.25, 0.33, 0.02])
        assert not en.is_thermally_entanglable(p, ctx).in_TE
        fast = [geo.volume_of("ENT_CONE", ctx, p, 70_000, 5, threads=t) for t in (1, 2)]
        self.all_entanglable(monkeypatch)
        assert fast == [geo.volume_of("ENT_CONE", ctx, p, 70_000, 5)] * 2


class TestTneVolumeAtZero:
    """Criterion 02's companion: V_TNE(0) against a reference value, where the
    criterion checks only a window.

    At beta = 0, with p sorted in decreasing order, f* = 4 p(2) p(4) - (p(1) -
    p(3))^2.  Put p(2) = a^2 and p(4) = b^2: the state is TNE iff p(1) lies in
    [max(a^2, 1 - 2a^2 - b^2), min(1 - a^2 - 2b^2, (1 - (a - b)^2) / 2)], of
    length l(a, b).  With 24 orderings, the simplex's volume 1/6 in
    (p(1), p(2), p(4)), and dp(2) dp(4) = 4ab da db,
    V_TNE(0) = 144 * integral of l(a, b) 4ab over 0 <= b <= a <= 1.
    """

    @staticmethod
    def midpoint_rule(n, rows=250):
        """144 * the midpoint sum of l(a, b) 4ab on an n x n grid of the unit
        square, the cells on the diagonal b = a at half weight."""
        c = (np.arange(n) + 0.5) / n
        total = 0.0
        for lo in range(0, n, rows):
            a, b = c[lo:lo + rows, None], c[None, :]
            top = np.minimum(1 - a * a - 2 * b * b, (1 - (a - b) ** 2) / 2)
            bottom = np.maximum(a * a, 1 - 2 * a * a - b * b)
            weight = np.where(b < a, 1.0, np.where(b == a, 0.5, 0.0))
            total += float((np.clip(top - bottom, 0.0, None) * 4 * a * b * weight).sum())
        return 144 * total / n**2

    def test_midpoint_rule_converges_to_the_reference(self):
        # the rule converges as n^-2; at n = 4,000 it sits 5.6e-8 below
        assert abs(self.midpoint_rule(4000) - V_TNE0) <= 5e-7

    def test_volume_estimates_within_four_sigma(self):
        for seed in range(5):
            est = geo.volume_of("TNE", ctx2q(0.0), None, 1_000_000, seed=seed)
            assert abs(est.fraction - V_TNE0) <= 4 * est.std_error


def toward_gibbs(p, gamma, steps=60):
    """The state p when the reference f* calls it TNE; otherwise the TNE end
    of a bisection of the segment from the Gibbs state (TNE) to p."""
    if ref_fstar(p, gamma) >= 0:
        return p
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if ref_fstar(gamma + mid * (p - gamma), gamma) >= 0:
            lo = mid
        else:
            hi = mid
    return gamma + lo * (p - gamma)


class TestTneConvex:
    """``boundary --mesh-out`` exports the convex hull of boundary points,
    which stands for the TNE set only if the set is convex."""

    @given(state_strategy, state_strategy, st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def test_midpoints_of_tne_states_stay_tne(self, p, q, beta):
        # the pairs sit on the boundary unless they are TNE themselves;
        # verdicts come from the per-row reference, not the kernel
        gamma = ctx2q(beta).gamma
        a, b = toward_gibbs(p, gamma), toward_gibbs(q, gamma)
        assert ref_fstar(a, gamma) >= 0 and ref_fstar(b, gamma) >= 0
        assert ref_fstar(0.5 * (a + b), gamma) >= -en.TAU_F


class TestBoundary:
    def test_bracket_width_bound(self):
        ctx = ctx2q(0.7)
        cloud = geo.tne_boundary(ctx, grid=8, iters=30)
        gaps0 = np.linalg.norm(cloud.outer_points - cloud.inner_points, axis=1)
        assert np.all(gaps0 <= 2.0**-30 * 2.0 + 1e-12)

    def test_beta_zero_endpoints_straddle_bruteforce(self):
        # the independent permutation oracle must separate the brackets
        ctx = ctx2q(0.0)
        cloud = geo.tne_boundary(ctx, grid=6, iters=25)
        for inner, outer in zip(cloud.inner_points, cloud.outer_points):
            assert en.tne_bruteforce(core.PopVector(inner), ctx)
            assert not en.tne_bruteforce(core.PopVector(outer), ctx)

    def test_beta_zero_cloud_sits_on_permutation_zero_set(self):
        import itertools

        ctx = ctx2q(0.0)
        cloud = geo.tne_boundary(ctx, grid=8, iters=30)
        worst = np.full(cloud.points.shape[0], np.inf)
        for perm in itertools.permutations(range(4)):
            worst = np.minimum(worst, en.witness_batch(cloud.points[:, perm]))
        assert np.abs(worst).max() <= 1e-8

    def test_vertex_ray_matches_segment_scan(self):
        # 1-D oracle along the segment from the pure ground state to gamma
        ctx = ctx2q(0.0)
        gamma = ctx.gamma
        p_o = np.array([1.0, 0.0, 0.0, 0.0])

        def in_tne(t):
            # t = 0 at p_o (entanglable), t = 1 at gamma (non-entanglable)
            return en.tne_bruteforce(core.PopVector((1 - t) * p_o + t * gamma), ctx)

        ts = np.linspace(0, 1, 4001)
        flips = [t for a, b, t in zip(ts, ts[1:], ts[1:]) if in_tne(b) != in_tne(a)]
        assert len(flips) == 1
        cloud = geo.tne_boundary(ctx, grid=1, iters=30)
        idx = np.argmin(np.abs(cloud.outer_points - p_o).sum(axis=1))
        # recover t from the first coordinate: point = (1-t) e1 + t gamma
        t_cloud = (1.0 - cloud.points[idx][0]) / (1.0 - gamma[0])
        assert abs(t_cloud - flips[0]) <= 1e-3

    def test_grid_resolution_capped(self):
        # the facet grid holds 2 grid^2 + 2 points
        for grid in (0, 257, 10**6):
            with pytest.raises(ValueError, match="256"):
                geo.simplex_facet_grid(grid)
        assert geo.simplex_facet_grid(256).shape[0] == 2 * 256**2 + 2

    def test_grid_point_count(self):
        pts = geo.simplex_facet_grid(6)
        # 4 facets of C(8,2)=28 points; edge points shared by 2 facets,
        # vertices by 3: 4*28 - 6*(6-1) - 2*4 = 74 distinct points
        assert pts.shape == (74, 4)

    @pytest.mark.parametrize("m", list(range(1, 41)) + [256])
    def test_grid_matches_set_reference(self, m):
        got, want = geo.simplex_facet_grid(m), ref_facet_grid(m)
        assert got.shape == want.shape == (2 * m**2 + 2, 4)
        assert got.tobytes() == want.tobytes()

    def test_infinite_beta_single_point(self):
        cloud = geo.tne_boundary(ctx2q(math.inf), grid=10, iters=5)
        assert cloud.points.shape == (1, 4)
        assert np.array_equal(cloud.points[0], [1, 0, 0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            geo.tne_boundary(ctx2q(0.5), grid=4, iters=0)
        with pytest.raises(ValueError, match="two-qubit"):
            geo.tne_boundary(core.make_context((0.0, 1.0, 2.0, 3.0), 1.0), grid=4, iters=30)

    @pytest.mark.parametrize("beta", [0.5, math.inf])
    @pytest.mark.parametrize("grid", [0, 100_000])
    def test_grid_validated_at_every_beta(self, beta, grid):
        # the zero-temperature cloud is one point, but the grid is still checked
        with pytest.raises(ValueError, match="1..256"):
            geo.tne_boundary(ctx2q(beta), grid=grid, iters=30)


class TestBoundaryClosedForm:
    """The closed-form cloud against the bisection it replaced."""

    BETAS = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]

    @pytest.mark.parametrize("beta", BETAS)
    def test_cloud_matches_reference_bisection(self, beta):
        ctx = ctx2q(beta)
        o, inner, outer = ref_tne_boundary(geo.simplex_facet_grid(24), ctx.gamma, 30)
        cloud = geo.tne_boundary(ctx, grid=24, iters=30)
        reach = np.linalg.norm(o - ctx.gamma, axis=1)
        assert np.all(np.linalg.norm(cloud.points - 0.5 * (inner + outer), axis=1)
                      <= 2.0**-30 * reach)
        assert np.all(en.fstar_batch(cloud.inner_points, ctx.gamma) >= -en.TAU_F)
        assert np.all(en.fstar_batch(cloud.outer_points, ctx.gamma) < -en.TAU_F)
        # high beta puts the root near t = 0, where the inner end is clamped
        for ends in (cloud.points, cloud.inner_points, cloud.outer_points):
            assert ends.min() >= 0.0
        assert np.all(np.linalg.norm(cloud.outer_points - cloud.inner_points, axis=1)
                      <= 2.0**-30 * reach * (1 + 1e-5))

    def test_cloud_sits_on_the_band_edge(self):
        ctx = ctx2q(1.0)
        cloud = geo.tne_boundary(ctx, grid=24, iters=30)
        assert np.abs(en.fstar_batch(cloud.points, ctx.gamma) + en.TAU_F).max() <= 1e-15

    @staticmethod
    def ray_steps(O, gamma):
        """The rows q(o) - gamma that ``_ray_roots`` takes for the rows o of O."""
        return mj.batch_tight_points(O, gamma, core.PI_STAR) - gamma

    def test_one_root_per_ray_at_grid_96(self):
        for beta in self.BETAS:
            gamma = ctx2q(beta).gamma
            pts = geo.simplex_facet_grid(96)
            O = pts[en.fstar_batch(pts, gamma) < -en.TAU_F]
            t = geo._ray_roots(self.ray_steps(O, gamma), gamma)
            assert t.size > 18_000 and np.all((t > 0) & (t <= 1))

    def test_ray_without_a_root_is_an_error(self):
        # a non-entanglable o: f* stays above -TAU_F along the whole ray
        gamma = ctx2q(0.5).gamma
        with pytest.raises(RuntimeError, match="single root"):
            geo._ray_roots(self.ray_steps(np.array([[0.5, 0.2, 0.2, 0.1]]), gamma), gamma)

    @pytest.mark.parametrize("beta", [5.0, 10.0, 20.0])
    def test_cold_roots_on_the_exact_surface(self, beta):
        # at cold beta f* is tiny near the surface, so any rounding in the
        # quadratic's coefficients shows: in exact arithmetic each point's f*
        # is -TAU_F up to the rounding of the point itself
        ctx = ctx2q(beta)
        cloud = geo.tne_boundary(ctx, grid=12, iters=30)
        band = Fraction(en.TAU_F)
        assert float(max(abs(ref_fstar_exact(p, ctx.gamma) + band) for p in cloud.points)) <= 1e-18

    @pytest.fixture
    def witness_rows(self, monkeypatch):
        """The row count of every tight-point pass that ``geometry`` makes: its
        ``fstar_batch`` and ``batch_tight_points`` calls."""
        rows = []

        def counting(kernel):
            def call(P, *args):
                rows.append(len(P))
                return kernel(P, *args)
            return call

        for name in ("fstar_batch", "batch_tight_points"):
            monkeypatch.setattr(geo, name, counting(getattr(geo, name)))
        return rows

    def test_three_witness_calls_when_no_end_widens(self, witness_rows):
        cloud = geo.tne_boundary(ctx2q(1.0), grid=24, iters=30)
        assert witness_rows == [geo.simplex_facet_grid(24).shape[0]] + [len(cloud.points)] * 2

    def test_rounding_widens_an_end_until_its_verdict_holds(self, witness_rows):
        # at 2^-52 rounding decides some verdicts; those ends step further out
        ctx = ctx2q(1.0)
        cloud = geo.tne_boundary(ctx, grid=24, iters=geo.MAX_ITERS)
        assert len(witness_rows) > 3
        assert np.all(en.fstar_batch(cloud.inner_points, ctx.gamma) >= -en.TAU_F)
        assert np.all(en.fstar_batch(cloud.outer_points, ctx.gamma) < -en.TAU_F)

    @pytest.mark.parametrize("iters", [0, geo.MAX_ITERS + 1, 10**9])
    @pytest.mark.parametrize("beta", [0.5, math.inf])
    def test_iters_capped_at_the_mantissa(self, iters, beta):
        with pytest.raises(ValueError, match="1..52"):
            geo.tne_boundary(ctx2q(beta), grid=4, iters=iters)


class TestNeBoundary:
    def test_degenerate_line(self):
        lo, hi = ref_ne_boundary_p3(0.0, 0.3)
        assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)

    def test_quarter_example(self):
        lo, hi = ref_ne_boundary_p3(0.25, 0.0)
        assert (lo, hi) == (pytest.approx(-1.5), pytest.approx(0.5))
        assert en.witness_f([0.25, 0.0, 0.5, 0.25]) == pytest.approx(0.0, abs=1e-15)

    def test_roots_sit_on_witness_zero(self, rng):
        for _ in range(300):
            p1 = float(rng.uniform(0, 0.6))
            p2 = float(rng.uniform(0, 0.5))
            for r in ref_ne_boundary_p3(p1, p2):
                assert abs(en.witness_f([p1, p2, r, 1 - p1 - p2 - r])) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ref_ne_boundary_p3(0.2, 0.8)


class TestHull:
    def test_tetrahedron(self):
        pts = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float)
        mesh = geo.convex_hull_export(pts)
        assert mesh.faces.shape == (4, 3)
        assert mesh.volume_fraction == pytest.approx(1.0, rel=1e-12)

    def test_simplex_volume_is_exact(self):
        from scipy.spatial import ConvexHull

        assert ConvexHull(geo.embed_simplex(np.eye(4))).volume == geo.SIMPLEX_VOLUME == 1 / 3

    def test_vertices_subset_of_inputs(self, rng):
        pts = random_states(rng, 60)
        mesh = geo.convex_hull_export(pts)
        for v in mesh.vertices:
            assert min(np.abs(pts - v).max(axis=1)) < 1e-14

    def test_beta_zero_hull_matches_mc(self):
        ctx = ctx2q(0.0)
        cloud = geo.tne_boundary(ctx, grid=24, iters=30)
        mesh = geo.convex_hull_export(cloud)
        mc = geo.volume_of("TNE", ctx, None, 400_000, seed=31)
        assert abs(mesh.volume_fraction - mc.fraction) <= 0.01
        # the hull of points on the boundary of a convex set is inscribed in it
        assert mesh.volume_fraction < V_TNE0

    def test_faces_index_the_vertex_list(self, rng):
        from scipy.spatial import ConvexHull

        pts = random_states(rng, 200)
        hull = ConvexHull(geo.embed_simplex(pts))
        remap = {old: new for new, old in enumerate(hull.vertices)}
        want = np.array([[remap[i] for i in simplex] for simplex in hull.simplices])
        mesh = geo.convex_hull_export(pts)
        assert mesh.faces.dtype == want.dtype and np.array_equal(mesh.faces, want)
        assert np.array_equal(mesh.vertices, pts[hull.vertices])

    def test_embedding_is_isometric(self, rng):
        pts = random_states(rng, 20)
        emb = geo.embed_simplex(pts)
        d4 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d3 = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
        assert np.allclose(d4, d3, atol=1e-12)

    def test_obj_export(self):
        pts = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], float)
        obj = geo.convex_hull_export(pts).to_obj()
        lines = obj.strip().split("\n")
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 4

    def test_degenerate_cloud_errors(self):
        flat = np.tile([0.25, 0.25, 0.25, 0.25], (10, 1))
        with pytest.raises(ValueError):
            geo.convex_hull_export(flat)
        with pytest.raises(ValueError):
            geo.convex_hull_export(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float))


class TestWitnessGeometry:
    def test_witness_is_not_globally_concave(self):
        # the witness itself has a saddle in (q1, q4); only its superlevel
        # set is convex.  Pin the counterexample so nobody "fixes" this.
        x = np.array([0.35, 0.15, 0.15, 0.35])
        y = np.array([0.15, 0.35, 0.35, 0.15])
        mid = 0.5 * (x + y)
        assert en.witness_f(mid) < 0.5 * (en.witness_f(x) + en.witness_f(y)) - 1e-3

    def test_min_ppt_eigenvalue_is_concave(self, rng):
        # the underlying measure (smallest PT eigenvalue at the optimal
        # rotation) is linear minus a norm, hence concave
        X = random_states(rng, 50_000)
        Y = random_states(rng, 50_000)
        lam = rng.uniform(size=(50_000, 1))
        mix = lam * X + (1 - lam) * Y

        def lam_minus(Q):
            return 0.5 * (Q[:, 0] + Q[:, 3]
                          - np.hypot(Q[:, 1] - Q[:, 2], Q[:, 0] - Q[:, 3]))

        lhs = lam_minus(mix)
        rhs = lam[:, 0] * lam_minus(X) + (1 - lam[:, 0]) * lam_minus(Y)
        assert np.min(lhs - rhs) >= -1e-12

    def test_boundary_pair_mixtures_stay_nonnegative(self, rng):
        # mixtures of witness-zero states never turn the witness negative
        count = 0
        while count < 5_000:
            p1, p2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 0.5))
            try:
                roots = ref_ne_boundary_p3(p1, p2)
            except ValueError:
                continue
            pts = [np.array([p1, p2, r, 1 - p1 - p2 - r])
                   for r in roots if r >= 0 and 1 - p1 - p2 - r >= 0]
            if not pts:
                continue
            lam = rng.uniform()
            mix = lam * pts[0] + (1 - lam) * pts[-1]
            assert en.witness_f(mix) >= -1e-12
            count += 1

    def test_ne_set_convex(self, rng):
        # random mixtures of non-entanglable states stay non-entanglable
        P = random_states(rng, 40_000)
        ne = P[en.witness_batch(P) >= 0]
        half = len(ne) // 2
        lam = rng.uniform(size=(half, 1))
        mix = lam * ne[:half] + (1 - lam) * ne[half:2 * half]
        assert np.all(en.witness_batch(mix) >= -1e-12)

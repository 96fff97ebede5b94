from __future__ import annotations

import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from rahar import changepoint
from rahar.changepoint import (
    EnergyParams,
    PermutationConfig,
    best_split,
    e_divisive,
    energy_divergence,
    permutation_test,
)
from rahar.errors import SegmentTooSmall
from rahar.ingest import MAX_COUNT

from oracles import (
    energy_triple_sum,
    euclidean_distance_loop,
    exhaustive_best_split,
    full_width_pair_sums,
    ref_permutation_rng,
    single_order_best_split,
)


def distance_matrix(obs, alpha_exp):
    """The float64 alpha-distance matrix of ``obs``, stacked from copies of
    the ``_distance_rows`` blocks (their buffer is reused)."""
    return np.concatenate([rows.copy() for _, rows in changepoint._distance_rows(obs, alpha_exp)])


def two_regime_span(rng, low=0.0, high=100.0, n1=60, n2=60, scale=1.0, d=3):
    a = rng.normal(low, scale, (n1, d))
    b = rng.normal(high, scale, (n2, d))
    return np.concatenate([a, b])


def normal_regimes(seed):
    """Three unit-variance normal regimes of 60, centred at 0, 60 and 140."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(mean, 1, (60, 3)) for mean in (0, 60, 140)])


class TestEnergyDivergence:
    def test_hand_case(self):
        e, q = energy_divergence([[0.0], [0.0]], [[1.0], [1.0]], 1.0)
        assert e == pytest.approx(2.0, abs=1e-15)
        assert q == pytest.approx(2.0, abs=1e-15)

    def test_constant_identical_sets_are_zero(self):
        e, q = energy_divergence([[3.0, 1.0]] * 4, [[3.0, 1.0]] * 5, 1.3)
        assert e == 0.0 and q == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            X = rng.normal(0, 1, (rng.integers(2, 9), 3))
            Y = rng.normal(0.5, 2, (rng.integers(2, 9), 3))
            assert energy_divergence(X, Y, 0.7) == energy_divergence(Y, X, 0.7)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, m = rng.integers(2, 9, size=2)
            d = int(rng.integers(1, 4))
            X = rng.normal(0, 2, (int(n), d))
            Y = rng.normal(1, 1, (int(m), d))
            for alpha in (0.5, 1.0, 1.5):
                e, q = energy_divergence(X, Y, alpha)
                e_ref, q_ref = energy_triple_sum(X, Y, alpha)
                assert e == pytest.approx(e_ref, rel=1e-12, abs=1e-12)
                assert q == pytest.approx(q_ref, rel=1e-12, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(SegmentTooSmall):
            energy_divergence([[0.0]], [[1.0], [2.0]])

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            energy_divergence([[0.0], [0.0]], [[1.0], [1.0]], 2.0)


class TestBestSplit:
    def test_planted_boundary(self):
        rng = np.random.default_rng(1)
        span = np.concatenate([np.zeros((30, 3)), np.full((30, 3), 100.0)])
        t, q = best_split(span, EnergyParams(min_segment=30))
        assert t == 30 and q > 0

    def test_constant_span_tie_break(self):
        span = np.ones((80, 2)) * 7.0
        t, q = best_split(span, EnergyParams(min_segment=10))
        assert t == 10  # all splits give Q = 0; smallest admissible index wins
        assert q == 0.0

    def test_too_short(self):
        with pytest.raises(SegmentTooSmall):
            best_split(np.zeros((59, 3)), EnergyParams(min_segment=30))

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(99)
        params = EnergyParams(min_segment=2)
        for _ in range(150):
            length = int(rng.integers(4, 13))
            d = int(rng.integers(1, 4))
            span = rng.normal(0, 1, (length, d))
            t, q = best_split(span, params)
            t_ref, q_ref = exhaustive_best_split(span, 2, 1.0)
            assert t == t_ref
            assert q == pytest.approx(q_ref, rel=1e-10, abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        span = two_regime_span(rng, n1=40, n2=40)
        params = EnergyParams(min_segment=10)
        t1, q1 = best_split(span, params)
        t2, q2 = best_split(span + np.array([5.0, -3.0, 11.0]), params)
        assert t1 == t2
        assert q1 == pytest.approx(q2, rel=1e-9)


class TestPermutationTest:
    def test_observed_beats_all(self):
        rng = np.random.default_rng(8)
        segs = [rng.normal(0, 1, (70, 3))]
        p = permutation_test(segs, observed_stat=1e12, params=EnergyParams(min_segment=30))
        assert p == pytest.approx(1 / 100)

    def test_observed_below_all(self):
        rng = np.random.default_rng(8)
        segs = [rng.normal(0, 1, (70, 3))]
        p = permutation_test(segs, observed_stat=-1e12, params=EnergyParams(min_segment=30))
        assert p == 1.0

    def test_no_segment_to_permute(self):
        # every permuted statistic is -inf, as the max over no segments
        segs = [np.zeros((59, 3))]
        params = EnergyParams(min_segment=30)
        assert permutation_test(segs, 0.0, params) == pytest.approx(1 / 100)
        assert permutation_test(segs, -np.inf, params) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        segs = [rng.normal(0, 1, (70, 3)), rng.normal(2, 1, (64, 3))]
        _, q = best_split(segs[0], EnergyParams(min_segment=30))
        cfg = PermutationConfig(master_seed=123)
        p1 = permutation_test(segs, q, EnergyParams(min_segment=30), cfg, iteration_id=2)
        p2 = permutation_test(segs, q, EnergyParams(min_segment=30), cfg, iteration_id=2)
        assert p1 == p2
        # a different iteration draws its orders from different streams
        lengths = [len(seg) for seg in segs]
        for second, third in zip(
            changepoint._draw_orders(123, 2, 0, cfg.n_permutations, lengths),
            changepoint._draw_orders(123, 3, 0, cfg.n_permutations, lengths),
        ):
            assert not np.array_equal(second, third)


class TestEDivisive:
    def test_constant_span_no_change_points(self):
        span = np.full((200, 3), 4.0)
        assert e_divisive(span) == []

    def test_short_span_empty(self):
        assert e_divisive(np.zeros((59, 3))) == []

    def test_two_regimes(self):
        rng = np.random.default_rng(21)
        span = two_regime_span(rng)
        cps = e_divisive(span, EnergyParams(min_segment=30), PermutationConfig(master_seed=5))
        assert len(cps) == 1
        assert abs(cps[0].index - 60) <= 2
        assert cps[0].p_value <= 0.01

    def test_three_regimes(self):
        span = normal_regimes(22)
        cps = e_divisive(span, EnergyParams(min_segment=30), PermutationConfig(master_seed=5))
        assert len(cps) == 2
        assert abs(cps[0].index - 60) <= 2
        assert abs(cps[1].index - 120) <= 2

    def test_indices_sorted_and_min_segment_respected(self):
        rng = np.random.default_rng(31)
        span = np.concatenate(
            [rng.normal(k * 40, 1, (45, 3)) for k in range(4)]
        )
        params = EnergyParams(min_segment=30)
        cps = e_divisive(span, params, PermutationConfig(master_seed=9))
        indices = [cp.index for cp in cps]
        assert indices == sorted(indices)
        bounds = [0, *indices, len(span)]
        for a, b in zip(bounds, bounds[1:]):
            assert b - a >= params.min_segment

    def test_determinism(self):
        rng = np.random.default_rng(41)
        span = two_regime_span(rng, n1=50, n2=70, scale=5.0)
        cfg = PermutationConfig(master_seed=77)
        assert e_divisive(span, perm_cfg=cfg) == e_divisive(span, perm_cfg=cfg)

    def test_translation_invariance_full_pipeline(self):
        rng = np.random.default_rng(51)
        span = two_regime_span(rng, n1=45, n2=45, scale=2.0)
        cfg = PermutationConfig(master_seed=13)
        base = e_divisive(span, perm_cfg=cfg)
        shifted = e_divisive(span + np.array([100.0, -50.0, 7.0]), perm_cfg=cfg)
        assert [cp.index for cp in base] == [cp.index for cp in shifted]
        for a, b in zip(base, shifted):
            assert a.statistic == pytest.approx(b.statistic, rel=1e-9)
            assert a.p_value == b.p_value


def count_span(rng, length, extra=0, d=3):
    """Poisson counts with a few rate shifts, like a triaxial awake span."""
    cuts = np.sort(rng.choice(np.arange(1, length + extra), size=3, replace=False))
    parts = np.split(np.arange(length + extra), cuts)
    counts = [rng.poisson(rng.uniform(1, 40), (len(p), d)) for p in parts]
    return np.concatenate(counts).astype(float)


def three_regime_span():
    """Seeded 3-regime triaxial count span, L = 240, true changes at 80 and 150."""
    rng = np.random.default_rng(2016)
    return np.concatenate(
        [
            rng.poisson((4.0, 2.0, 3.0), (80, 3)),
            rng.poisson((30.0, 18.0, 24.0), (70, 3)),
            rng.poisson((12.0, 9.0, 10.0), (90, 3)),
        ]
    ).astype(float)


def permuted_stats(matrices, params, cfg, iteration):
    """Max best-split Q over the permutable segments' distance matrices under
    each permutation, one ordering at a time."""
    admissible = [m for m in matrices if m.shape[0] >= 2 * params.min_segment]
    stats = []
    for r in range(cfg.n_permutations):
        rng = ref_permutation_rng(cfg.master_seed, iteration, r)
        stats.append(
            max(
                single_order_best_split(m, rng.permutation(m.shape[0]), params.min_segment)[1]
                for m in admissible
            )
        )
    return stats


def oracle_e_divisive(span, params, cfg) -> list:
    """(index, Q, p-value) of each change point of the divisive loop, from
    the oracles alone on the float64 matrix: each segment's best split from
    ``single_order_best_split``, ties to the segment first in the span, and
    each test's p-value from ``permuted_stats``."""
    dist = distance_matrix(span, params.alpha_exp)
    edges, committed = [0, len(span)], []
    for iteration in range(len(span)):
        best = None
        for a, b in zip(edges, edges[1:]):
            if b - a >= 2 * params.min_segment:
                t, q, _ = single_order_best_split(dist[a:b, a:b], np.arange(b - a), params.min_segment)
                if best is None or q > best[1]:
                    best = a + t, q
        if best is None:
            break
        matrices = [dist[a:b, a:b] for a, b in zip(edges, edges[1:])]
        stats = permuted_stats(matrices, params, cfg, iteration)
        p_value = (1 + sum(q >= best[1] for q in stats)) / (cfg.n_permutations + 1)
        if p_value > cfg.significance:
            break
        committed.append((*best, p_value))
        edges = sorted([*edges, best[0]])
    return sorted(committed)


# edge seeds of one and two 32-bit words, and random 63-bit seeds as derive_seed makes
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, *(random.Random(2016).getrandbits(63) for _ in range(3))]
# a block straddling r = 2**32, where r takes a second word
STREAM_BLOCKS = [(0, 99), (8, 99), (2**32 - 3, 2**32 + 5)]


class TestSeededStates:
    """numpy is the oracle for the block seeding of the permutation streams."""

    @pytest.mark.parametrize("first, stop", STREAM_BLOCKS)
    @pytest.mark.parametrize("iteration", [0, 1, 959])
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    def test_states_equal_numpy(self, master_seed, iteration, first, stop):
        expected = [
            np.random.PCG64(np.random.SeedSequence([master_seed, iteration, r])).state["state"]
            for r in range(first, stop)
        ]
        states = changepoint._seeded_states(master_seed, iteration, first, stop)
        assert states == [(s["state"], s["inc"]) for s in expected]

    @pytest.mark.parametrize("first, stop", STREAM_BLOCKS)
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    def test_orders_equal_numpy(self, master_seed, first, stop):
        # a 60- and a 448-long order per stream, as a test over two segments
        # draws them; a stream must not inherit the previous one's leftover
        # half of a uint32 draw
        for iteration in (0, 1, 959):
            short, long = changepoint._draw_orders(master_seed, iteration, first, stop, [60, 448])
            for b, r in enumerate(range(first, stop)):
                ref = ref_permutation_rng(master_seed, iteration, r)
                assert np.array_equal(short[:, b], ref.permutation(60))
                assert np.array_equal(long[:, b], ref.permutation(448))


class TestBlockKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_distance_matrix_matches_loop(self, monkeypatch, d):
        # the build fills a block of BLOCK_ELEMENTS // L rows at a time: 25
        # rows fit in one block, a block of 600 elements holds 25 rows of a
        # 24-long span and 24 of a 25-long one, and one of 104 holds 4 of 26
        rng = np.random.default_rng(d)
        cases = [(25, changepoint.BLOCK_ELEMENTS), (24, 600), (25, 600), (26, 104)]
        for length, block_elements in cases:
            monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", block_elements)
            for obs in (
                rng.poisson(12.0, (length, d)).astype(float), rng.normal(0.0, 3.0, (length, d))
            ):
                loop = euclidean_distance_loop(obs)
                for alpha_exp in (1.0, 1.5):
                    for first, rows in changepoint._distance_rows(obs, alpha_exp):
                        assert np.array_equal(rows, loop[first : first + len(rows)] ** alpha_exp)
                    # the test helper's stacked blocks too
                    assert np.array_equal(distance_matrix(obs, alpha_exp), loop**alpha_exp)

    @pytest.mark.parametrize("block_elements", [None, 777])
    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("length", [1, 2, 60, 61, 62, 71, 95, 200, 1100])
    def test_pair_sums_equal_the_full_width_cumsum(self, monkeypatch, length, alpha_exp, block_elements):
        # each block takes a cumsum over its own staircase and one reduce
        # over the columns later blocks read.  A block holds 29 rows at
        # L = 1,100, and every row of a shorter span.  777 elements hold 12
        # rows of 60, 61 and 62: five whole blocks, then none, one row, or
        # two rows that read one column the block before them summed over
        # its 12 rows.  They hold 10 rows of 71 (a one-row last block), 8 of
        # 95 (a last block one row short), 3 of 200 and one of 1,100.
        if block_elements is not None:
            monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(length)
        for obs in (rng.poisson(12.0, (length, 3)).astype(float), rng.normal(0.0, 3.0, (length, 3))):
            dist = distance_matrix(obs, alpha_exp)
            row_totals, left_within = full_width_pair_sums(dist)
            matrix = np.empty((length, length), np.float32)
            for got in (changepoint._pair_sums(obs, alpha_exp), changepoint._pair_sums(obs, alpha_exp, matrix)):
                assert np.array_equal(got[0], row_totals)
                assert np.array_equal(got[1], left_within)
            assert got[2] and np.array_equal(matrix, dist.astype(np.float32))

    def test_a_one_column_reduce_adds_the_rows_in_order(self, monkeypatch):
        # 744 elements hold 12 rows of 62, so the fifth block (rows 48 to 59)
        # sums the one column, 61, that the last block reads.  Row 61 lies
        # 2**20 from the others, and rows 49 to 59 each 2**-29 further:
        # added in row order to a sum above 2**25 every 2**-29 vanishes,
        # while numpy's pairwise order for a single column would keep some
        monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 744)
        obs = np.random.default_rng(8).normal(0.0, 3.0, (62, 1))
        obs[61], obs[49:60] = 2.0**20, -(2.0**-29)
        row_totals, left_within = full_width_pair_sums(distance_matrix(obs, 1.0))
        got = changepoint._pair_sums(obs, 1.0)
        assert np.array_equal(got[0], row_totals)
        assert np.array_equal(got[1], left_within)

    @pytest.mark.parametrize("length", [60, 61, 200, 400])
    def test_matches_single_order_reference(self, length):
        rng = np.random.default_rng(length)
        span = count_span(rng, length, extra=23)
        full = distance_matrix(span, 1.0)
        view = full[11 : 11 + length, 11 : 11 + length]  # a strided slice, as a caller may pass
        assert not view.flags.c_contiguous
        params = EnergyParams(min_segment=30)
        segment = changepoint._segment(span[11 : 11 + length], params)
        orders = np.stack([rng.permutation(length) for _ in range(37)], axis=1)
        new_pair = changepoint._pair_increments(segment.dist, orders)
        eps = 2.0 * (changepoint.CHUNK + 1) * 2.0**-24
        for b, order in enumerate(orders.T):
            _, q_ref, new_pair_ref = single_order_best_split(view, order, 30)
            # the float32 kernel within its error bound; the exact routine
            # rebuilds the rows from the observations, bit for bit
            assert np.all(np.abs(new_pair[:, b] - new_pair_ref) <= eps * new_pair_ref)
            assert changepoint._exact_max(segment, order, params) == q_ref

    @pytest.mark.parametrize("length", [60, 61, 200, 400])
    def test_split_scan_of_slice_equals_contiguous_copy(self, length):
        rng = np.random.default_rng(length + 1)
        span = count_span(rng, length, extra=40)
        full = distance_matrix(span, 1.0)
        view = full[17 : 17 + length, 17 : 17 + length]
        params = EnergyParams(min_segment=30)
        totals, t, q, _ = changepoint._scan(span[17 : 17 + length], params)
        assert (t, q) == changepoint._scan(span[17 : 17 + length].copy(), params)[1:3]
        t_ref, q_ref, _ = single_order_best_split(view, np.arange(length), 30)
        assert (t, q) == (t_ref, q_ref)
        assert np.array_equal(totals, view.sum(axis=1))

    @pytest.mark.parametrize("block", [1, 7, 40, 99])
    def test_pvalue_equals_reference_for_any_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(5)
        span = count_span(rng, 330)
        full = distance_matrix(span, 1.0)
        bounds = [(0, 40), (40, 190), (190, 330)]  # first segment too short to permute
        matrices = [full[a:b, a:b] for a, b in bounds]
        params = EnergyParams(min_segment=30)
        cfg = PermutationConfig(n_permutations=99, master_seed=4)
        stats = permuted_stats(matrices, params, cfg, 2)
        observed = float(np.quantile(stats, 0.8))
        expected = (1 + sum(q >= observed for q in stats)) / (cfg.n_permutations + 1)
        # the largest segment sets the block: 2 * BLOCK_ELEMENTS // 150 orderings
        monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 75 * block)
        segments = [changepoint._segment(span[a:b], params) for a, b in bounds[1:]]
        assert changepoint._permutation_pvalue(segments, observed, params, cfg, 2) == expected
        level = expected - 1.5 / (cfg.n_permutations + 1)
        for first_block in (1, 4, 8, 16):
            monkeypatch.setattr(changepoint, "FIRST_BLOCK", first_block)
            # an early stop that never fires spends the first block, then the
            # usual ones, and reaches the same exact p-value
            stopped = changepoint._permutation_pvalue(
                segments, observed, params, cfg, 2, stop_above=expected
            )
            assert stopped == expected
            # one that fires returns a lower bound already above the level
            stopped = changepoint._permutation_pvalue(
                segments, observed, params, cfg, 2, stop_above=level
            )
            assert level < stopped <= expected


def brute_force_fits(obs, alpha_exp) -> bool:
    """Whether float32 holds every distance of the loop-built matrix: no
    positive one below 2**-126, and L times the largest at most 2**127."""
    dist = euclidean_distance_loop(obs) ** alpha_exp
    positive = dist[dist > 0.0]
    smallest = positive.min() if positive.size else np.inf
    return bool(len(obs) * dist.max() <= 2.0**127 and smallest >= 2.0**-126)


class TestRangeTest:
    """``fits`` decides its smallest-distance test from the sorted coordinate
    gaps where every positive one is at least 2**-62, and scans the rows
    where one is smaller."""

    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5, 1.99])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_fits_scans_the_rows_where_a_gap_is_below_the_bound(self, monkeypatch, alpha_exp, side):
        # two observations a gap apart in one coordinate, their distance^alpha
        # just below 2**-126, at it or just above it; the other distances are
        # counts, spread over several blocks.  At alpha 1.99 the gap is
        # 2**-63.3, just below the bound
        monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 500)
        gap = 2.0 ** (-126 / alpha_exp) * (1.0 + side * 2.0**-20)
        obs = count_span(np.random.default_rng(3), 90)
        obs[12, 1] = 0.0
        obs[57] = obs[12]
        obs[57, 1] = gap
        assert not changepoint._gaps_clear(obs)
        expected = brute_force_fits(obs, alpha_exp)
        assert expected is (side >= 0)
        matrix = np.empty((90, 90), np.float32)
        assert changepoint._pair_sums(obs, alpha_exp, matrix)[2] is expected
        assert changepoint._segment(obs, EnergyParams(alpha_exp=alpha_exp)).fits is expected

    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5, 1.99])
    def test_the_bound_holds_at_its_threshold(self, alpha_exp):
        # at a gap of exactly 2**-62 the rows are not scanned, and the
        # smallest positive distance^alpha is far above 2**-126
        obs = count_span(np.random.default_rng(4), 70) * 2.0**-62
        obs[40] = obs[5]
        obs[40, 2] += 2.0**-62
        assert obs[40, 2] - obs[5, 2] == 2.0**-62
        assert changepoint._gaps_clear(obs)
        dist = euclidean_distance_loop(obs) ** alpha_exp
        assert dist[dist > 0.0].min() >= 2.0**-124
        assert brute_force_fits(obs, alpha_exp)
        matrix = np.empty((70, 70), np.float32)
        assert changepoint._pair_sums(obs, alpha_exp, matrix)[2] is True

    def test_constant_coordinates_leave_no_gap(self):
        # a coordinate whose values are all equal has no positive gap; with
        # every coordinate so, there is no positive distance at all
        obs = np.ones((40, 3))
        matrix = np.empty((40, 40), np.float32)
        assert changepoint._gaps_clear(obs)
        assert changepoint._pair_sums(obs, 1.0, matrix)[2] is True
        obs[:, 0] = np.arange(40.0)
        assert changepoint._gaps_clear(obs)
        assert changepoint._pair_sums(obs, 1.5, matrix)[2] is brute_force_fits(obs, 1.5) is True


def bound_span(kind, rng, length, d):
    """A span of one of the kinds the float32 bound must hold on."""
    if kind == "poisson":
        return count_span(rng, length, d=d)
    if kind == "near_max_count":
        # rows near zero and rows near the ceiling: distances up to ~1.7e9
        high = rng.random(length) < 0.5
        counts = rng.poisson(rng.uniform(1, 40), (length, d))
        return np.where(high[:, None], MAX_COUNT - counts, counts).astype(float)
    return rng.normal(0.0, 3.0, (length, d))


def spy_paths(monkeypatch) -> dict:
    """From here on, the orderings each segment scores on the float32 bound,
    and the calls of the exact routine ``_pair_sums`` made inside a
    permutation test: one per segment and ordering rescored exactly."""
    scored = {"bounded": 0, "exact": 0}
    testing = []
    bounds, pair_sums, pvalue = (
        changepoint._bounds, changepoint._pair_sums, changepoint._permutation_pvalue
    )

    def spy_bounds(seg, orders, params):
        scored["bounded"] += orders.shape[1]
        return bounds(seg, orders, params)

    def spy_pair_sums(obs, alpha_exp, dist=None):
        scored["exact"] += bool(testing)
        return pair_sums(obs, alpha_exp, dist)

    def spy_pvalue(*args, **kwargs):
        testing.append(True)
        try:
            return pvalue(*args, **kwargs)
        finally:
            testing.pop()

    monkeypatch.setattr(changepoint, "_bounds", spy_bounds)
    monkeypatch.setattr(changepoint, "_pair_sums", spy_pair_sums)
    monkeypatch.setattr(changepoint, "_permutation_pvalue", spy_pvalue)
    return scored


class TestFloat32Bound:
    """A test scores its orderings on the float32 matrix with a proven error
    bound and rescores exactly only those whose bounds straddle the observed
    Q; the p-value is the float64 one-ordering formula's."""

    @pytest.mark.parametrize("kind", ["poisson", "near_max_count", "normal"])
    @pytest.mark.parametrize("alpha_exp", [1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("length", [60, 61, 200, 400])
    def test_bounds_hold_the_float64_maximum(self, length, d, alpha_exp, kind):
        rng = np.random.default_rng([length, d, int(alpha_exp * 2), len(kind)])
        obs = bound_span(kind, rng, length, d)
        params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
        segment = changepoint._segment(obs, params)
        assert segment.fits
        dist = distance_matrix(obs, alpha_exp)
        orders = np.stack([rng.permutation(length) for _ in range(24)], axis=1)
        lo, hi = changepoint._bounds(segment, orders, params)
        for b, order in enumerate(orders.T):
            _, q_ref, _ = single_order_best_split(dist, order, 30)
            assert lo[b] <= q_ref <= hi[b]

    def test_float32_sums_restart_every_chunk(self):
        # 1999 float32 copies of 1/3 summed in one running float32 sum are
        # off by about 200 u; restarted every CHUNK steps they stay within
        # the bound's eps = 2 (CHUNK + 1) u of the exact sum
        length = 2000
        dist = np.full((length, length), 1 / 3, dtype=np.float32)
        orders = np.stack([np.random.default_rng(r).permutation(length) for r in range(3)], axis=1)
        new_pair = changepoint._pair_increments(dist, orders)
        exact = np.arange(length) * float(dist[0, 0])
        eps = 2.0 * (changepoint.CHUNK + 1) * 2.0**-24
        assert np.all(np.abs(new_pair - exact[:, None]) <= eps * exact[:, None])

    @pytest.mark.parametrize("alpha_exp", [1.0, 1.5])
    @pytest.mark.parametrize("block", [1, 7, 99])
    def test_a_tie_with_the_observed_q_is_rescored_exactly(self, monkeypatch, block, alpha_exp):
        rng = np.random.default_rng(6)
        span = count_span(rng, 330)
        bounds = [(0, 40), (40, 190), (190, 330)]
        params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
        cfg = PermutationConfig(n_permutations=99, master_seed=4)
        full = distance_matrix(span, alpha_exp)
        stats = permuted_stats([full[a:b, a:b] for a, b in bounds], params, cfg, 2)
        observed = sorted(stats)[70]  # exactly one permuted statistic
        expected = (1 + sum(q >= observed for q in stats)) / (cfg.n_permutations + 1)
        monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 75 * block)
        segments = [changepoint._segment(span[a:b], params) for a, b in bounds[1:]]
        scored = spy_paths(monkeypatch)
        assert changepoint._permutation_pvalue(segments, observed, params, cfg, 2) == expected
        assert 1 <= scored["exact"] < scored["bounded"]

    @pytest.mark.parametrize("scale", [1e-30, 1e25])
    def test_distances_float32_cannot_hold_take_the_exact_path(self, monkeypatch, scale):
        # at alpha 1.5 the scaled distances fall below 2**-126 or L times the
        # largest passes 2**127; at alpha 1 float32 still holds them
        span = count_span(np.random.default_rng(7), 200) * scale
        cfg = PermutationConfig(n_permutations=99, master_seed=2)
        for alpha_exp, fits in ((1.5, False), (1.0, True)):
            params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
            stats = permuted_stats(
                [distance_matrix(span, alpha_exp)], params, cfg, 0
            )
            observed = float(np.quantile(stats, 0.8))
            expected = (1 + sum(q >= observed for q in stats)) / (cfg.n_permutations + 1)
            assert changepoint._segment(span, params).fits is fits
            scored = spy_paths(monkeypatch)
            assert permutation_test([span], observed, params, cfg, 0) == expected
            if not fits:
                assert scored == {"bounded": 0, "exact": cfg.n_permutations}

    @pytest.mark.parametrize("scale", [1e-30, 1e25])
    def test_children_of_such_a_span_take_the_exact_path(self, monkeypatch, scale):
        # each child rounds its own rows and finds, as its parent did, that
        # float32 cannot hold them
        params = EnergyParams(alpha_exp=1.5, min_segment=30)
        cfg = PermutationConfig(master_seed=7)
        expected = e_divisive(three_regime_span(), params, cfg)
        scored = spy_paths(monkeypatch)
        cps = e_divisive(three_regime_span() * scale, params, cfg)
        assert [cp.index for cp in cps] == [cp.index for cp in expected] == [80, 150]
        assert scored["bounded"] == 0 and scored["exact"] >= 2 * cfg.n_permutations

    def test_a_segment_float32_cannot_hold_leaves_the_others_to_the_kernel(self, monkeypatch):
        # its bounds are (-inf, +inf): the kernel still scores the other
        # segment, whose lower bound alone decides an exceedance, and only
        # the orderings it leaves undecided are rescored exactly
        rng = np.random.default_rng(8)
        params = EnergyParams(alpha_exp=1.5, min_segment=30)
        cfg = PermutationConfig(n_permutations=99, master_seed=3)
        spans = [count_span(rng, 150) * 1e-30, count_span(rng, 140)]
        stats = permuted_stats([distance_matrix(s, 1.5) for s in spans], params, cfg, 1)
        observed = float(np.quantile(stats, 0.8))
        expected = (1 + sum(q >= observed for q in stats)) / (cfg.n_permutations + 1)
        segments = [changepoint._segment(s, params) for s in spans]
        assert [s.fits for s in segments] == [False, True]
        scored = spy_paths(monkeypatch)
        assert changepoint._permutation_pvalue(segments, observed, params, cfg, 1) == expected
        assert scored["bounded"] == cfg.n_permutations
        assert 1 <= scored["exact"] < cfg.n_permutations

    def test_a_child_float32_holds_takes_the_kernel(self, monkeypatch):
        # tiny counts after the three regimes put the root's smallest
        # distance below 2**-126; the root's left child, [0, 80), and the
        # later children inside the first 240 observations fit float32
        tiny = np.random.default_rng(9).poisson((9.0, 6.0, 7.0), (100, 3)) * 1e-30
        span = np.concatenate([three_regime_span(), tiny])
        params = EnergyParams(alpha_exp=1.5, min_segment=30)
        cfg = PermutationConfig(master_seed=7)
        assert not changepoint._segment(span, params).fits
        assert changepoint._segment(span[:80], params).fits
        scored, bounds = [], changepoint._bounds

        def spy(seg, orders, params):
            scored.append(seg.obs)
            return bounds(seg, orders, params)

        monkeypatch.setattr(changepoint, "_bounds", spy)
        cps = e_divisive(span, params, cfg)
        assert [(cp.index, cp.statistic, cp.p_value) for cp in cps] == oracle_e_divisive(span, params, cfg)
        assert [cp.index for cp in cps] == [80, 150, 240]
        assert any(len(obs) == 80 and np.shares_memory(obs, span[:80]) for obs in scored)
        assert all(np.shares_memory(obs, span[:240]) and not np.shares_memory(obs, span[240:])
                   for obs in scored)

    def test_constant_span(self, monkeypatch):
        # every distance is 0: the bound is 0 and Q is exactly 0 on both paths
        span = np.full((120, 3), 4.0)
        params = EnergyParams(min_segment=30)
        assert best_split(span, params) == (30, 0.0)
        scored = spy_paths(monkeypatch)
        assert permutation_test([span], 0.0, params) == 1.0
        assert permutation_test([span], 5e-324, params) == 0.01
        assert scored["exact"] == 0
        assert e_divisive(span, params) == []


class TestExactRescore:
    """An ordering rescored exactly reads ``_pair_sums`` of the reordered
    observations and the segment's own row totals: bit for bit the float64
    one-ordering formula, on spans float32 holds and on spans it cannot."""

    @pytest.mark.parametrize("kind", ["poisson", "normal", "tiny"])
    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("length", [60, 61, 200])
    def test_rescore_equals_single_order_reference(self, length, d, alpha_exp, kind):
        rng = np.random.default_rng([length, d, int(alpha_exp * 10), len(kind)])
        if kind == "tiny":  # alpha distances below 2**-126 at every alpha here
            obs = count_span(rng, length, d=d) * 1e-60
        else:
            obs = bound_span(kind, rng, length, d)
        params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
        segment = changepoint._segment(obs, params)
        assert segment.fits is (kind != "tiny")
        dist = distance_matrix(obs, alpha_exp)
        for order in (rng.permutation(length) for _ in range(6)):
            _, q_ref, _ = single_order_best_split(dist, order, 30)
            assert changepoint._exact_max(segment, order, params) == q_ref


def screen_span(kind, rng, length, d):
    """A span of the bound grid's kinds, or its Poisson counts shifted by
    1e6, far from the origin the distances are measured without."""
    if kind == "shifted":
        return count_span(rng, length, d=d) + 1e6
    return bound_span(kind, rng, length, d)


def two_value_span(n_low, n_high):
    """``n_low`` observations at the origin, then ``n_high`` at 0.7 along the
    second axis: K is rank one, and float32 rounds 0.7**alpha down at alpha
    0.7, 1 and 1.5."""
    span = np.zeros((n_low + n_high, 3))
    span[n_low:, 1] = 0.7
    return span


def two_level_span(rng, length):
    """Two levels along one direction with a little noise: K is nearly rank
    one, so the bound comes close to each ordering's Q."""
    high = rng.random((length, 1)) < 0.5
    return high * np.array([10.0, -7.5, 5.0]) + rng.normal(0.0, 0.05, (length, 3))


def spy_screen(monkeypatch) -> dict:
    """From here on, the (ordering, segment) pairs the screen scores, those
    it decides below the observed Q, and the blocks it decides in part
    that leave the kernel a copy of the orderings it keeps (at most 4/5)."""
    seen = {"screened": 0, "decided": 0, "copied": 0}
    screen = changepoint._screen

    def spy(seg, orders, params, observed):
        hi = screen(seg, orders, params, observed)
        seen["screened"] += orders.shape[1]
        if hi is not None:
            decided = int(np.count_nonzero(hi < observed))
            seen["decided"] += decided
            kept = len(hi) - decided
            seen["copied"] += 0 < kept and 5 * kept <= 4 * len(hi)
        return hi

    monkeypatch.setattr(changepoint, "_screen", spy)
    return seen


class TestScreen:
    """On each segment that ``fits``, each ordering's Q is first bounded
    from above by the segment's spectrum (one power step of the
    double-centred float32 matrix); an ordering below the observed Q there
    skips the float32 kernel on that segment.  The bound must hold
    above the float64 maximum, so p-values do not move."""

    @pytest.mark.parametrize("kind", ["poisson", "near_max_count", "normal", "shifted"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("length", [60, 61, 200, 400])
    def test_screen_bound_holds_the_float64_maximum(self, length, d, kind):
        # the span's own order and its reverse keep its changes, where the
        # bound comes closest; an observed Q of +inf scores every ordering
        for alpha_exp in (0.7, 1.0, 1.5):
            rng = np.random.default_rng([length, d, int(alpha_exp * 10), len(kind)])
            obs = screen_span(kind, rng, length, d)
            params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
            segment = changepoint._segment(obs, params)
            assert segment.fits
            dist = distance_matrix(obs, alpha_exp)
            identity = np.arange(length)
            orders = np.stack(
                [identity, identity[::-1], *(rng.permutation(length) for _ in range(24))], axis=1
            )
            hi = changepoint._screen(segment, orders, params, np.inf)
            for b, order in enumerate(orders.T):
                _, q_ref, _ = single_order_best_split(dist, order, 30)
                assert q_ref <= hi[b]

    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("sizes", [(60, 75, 87), (60, 45, 31), (72, 75, 72, 65)])
    def test_bound_holds_on_orderings_of_whole_groups(self, sizes, alpha_exp):
        # a few distinct points, so K has rank below their number and v is
        # not its eigenvector: an ordering that keeps each group whole, in
        # any order of the groups, splits near where the rho term is needed
        rng = np.random.default_rng(len(sizes))
        span = np.repeat(rng.normal(0.0, 3.0, (len(sizes), 2)), sizes, axis=0)
        params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
        segment = changepoint._segment(span, params)
        dist = distance_matrix(span, alpha_exp)
        groups = np.split(np.arange(len(span)), np.cumsum(sizes)[:-1])
        orders = np.stack(
            [np.concatenate([groups[k] for k in p]) for p in itertools.permutations(range(len(sizes)))],
            axis=1,
        )
        hi = changepoint._screen(segment, orders, params, np.inf)
        for b, order in enumerate(orders.T):
            _, q_ref, _ = single_order_best_split(dist, order, 30)
            assert q_ref <= hi[b]

    @pytest.mark.parametrize("alpha_exp", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("n_low, n_high", [(30, 30), (45, 75), (200, 100)])
    def test_rank_one_bound_is_the_float32_perturbation_tight(self, n_low, n_high, alpha_exp):
        # at the split between the two values the exact Q is 2 theta (no
        # within-side distance) and v is K's eigenvector: the bound is the
        # float32 theta, below Q here, plus 2**-24 B and float64 margins
        span = two_value_span(n_low, n_high)
        params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
        segment = changepoint._segment(span, params)
        gap = float(distance_matrix(span, alpha_exp)[0, -1])
        assert float(np.float32(gap)) < gap
        order = np.arange(len(span))
        hi = changepoint._screen(segment, order[:, None], params, np.inf)[0]
        q = changepoint._exact_max(segment, order, params)
        assert q <= hi <= q + 2.0**-23 * segment.row_totals.max()

    @pytest.mark.parametrize("rank", [-1, -2, 80])
    @pytest.mark.parametrize("block", [1, 7, 40, 99])
    @pytest.mark.parametrize("levels", [False, True])
    def test_pvalue_equals_reference(self, monkeypatch, levels, block, rank):
        # the near-tie setup: the observed Q is one permuted statistic, so
        # that ordering must pass the screen to the exact rescoring.  On
        # counts the bound stays above such a Q; on two levels it decides
        # most of the other orderings
        monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 75 * block)
        bounds = [(0, 40), (40, 190), (190, 330)]
        cfg = PermutationConfig(n_permutations=99, master_seed=4)
        seen = spy_screen(monkeypatch)
        for alpha_exp in (1.0, 1.5):
            rng = np.random.default_rng(5)
            span = two_level_span(rng, 330) if levels else count_span(rng, 330)
            params = EnergyParams(alpha_exp=alpha_exp, min_segment=30)
            full = distance_matrix(span, alpha_exp)
            stats = permuted_stats([full[a:b, a:b] for a, b in bounds], params, cfg, 2)
            observed = sorted(stats)[rank]
            expected = (1 + sum(q >= observed for q in stats)) / (cfg.n_permutations + 1)
            segments = [changepoint._segment(span[a:b], params) for a, b in bounds[1:]]
            decided = seen["decided"]
            assert changepoint._permutation_pvalue(segments, observed, params, cfg, 2) == expected
            assert seen["decided"] > decided or not levels
            stopped = changepoint._permutation_pvalue(
                segments, observed, params, cfg, 2, stop_above=expected
            )
            assert stopped == expected

    @pytest.mark.parametrize("span_of", [three_regime_span, lambda: normal_regimes(22)],
                             ids=["counts", "normal"])
    def test_e_divisive_unchanged(self, monkeypatch, span_of):
        span = span_of()
        params, cfg = EnergyParams(min_segment=30), PermutationConfig(master_seed=5)
        seen, scored = spy_screen(monkeypatch), spy_paths(monkeypatch)
        screened = e_divisive(span, params, cfg)
        exact = scored["exact"]
        monkeypatch.setattr(changepoint, "_screen", lambda *args: None)
        assert e_divisive(span, params, cfg) == screened
        assert len(screened) == 2 and seen["decided"] > 0
        # an ordering the screen decides on a segment is not rescored there
        assert exact <= scored["exact"] - exact

    def test_golden_three_regimes_with_the_screen(self, monkeypatch):
        seen = spy_screen(monkeypatch)
        cps = e_divisive(
            three_regime_span(), EnergyParams(min_segment=30), PermutationConfig(master_seed=7)
        )
        assert [(cp.index, repr(cp.statistic), repr(cp.p_value)) for cp in cps] == [
            (80, "1434.4242605082864", "0.01"),
            (150, "1328.8882982928942", "0.01"),
        ]
        assert seen["decided"] > 0

    @pytest.mark.parametrize(
        "alpha_exp, scale", [(1.5, 1e-30), (1.5, 1e25), (1.0, 1e-40), (1.0, 1e36)]
    )
    def test_not_run_where_float32_cannot_hold(self, monkeypatch, alpha_exp, scale):
        # at alpha 1, 1e-40 puts every positive distance below 2**-126 and
        # 1e36 puts L times the largest above 2**127
        params, cfg = EnergyParams(alpha_exp=alpha_exp, min_segment=30), PermutationConfig(master_seed=7)
        expected = e_divisive(three_regime_span(), params, cfg)
        span = three_regime_span() * scale
        segment = changepoint._segment(span, params)
        assert not segment.fits and segment.spectrum is None
        seen = spy_screen(monkeypatch)
        cps = e_divisive(span, params, cfg)
        assert [(cp.index, cp.p_value) for cp in cps] == [(cp.index, cp.p_value) for cp in expected]
        assert permutation_test([span], cps[0].statistic, params, cfg, 0) == cps[0].p_value
        assert seen["screened"] == 0

    @pytest.mark.parametrize("span", [np.full((120, 3), 4.0), two_value_span(60, 60)],
                             ids=["constant", "two_values"])
    def test_degenerate_spans_raise_no_warning(self, span):
        # every distance 0 leaves K x = 0 and no screen; two values leave
        # mu^2 at rounding level, clamped before its root
        params = EnergyParams(min_segment=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cps = e_divisive(span, params)
            _, q = best_split(span, params)
            p_value = permutation_test([span], q, params)
        constant = np.all(span == span[0])
        assert [cp.index for cp in cps] == ([] if constant else [60])
        assert p_value == (1.0 if constant else 0.01)
        assert (changepoint._segment(span, params).spectrum is None) is bool(constant)


def spy_segments(monkeypatch) -> list:
    """From here on, every segment record ``_segment`` builds, each checked
    as it is built: its float32 matrix is its own distances, rounded."""
    built = []
    segment = changepoint._segment

    def spy(obs, params, dist=None):
        seg = segment(obs, params, dist)
        assert np.array_equal(seg.dist, distance_matrix(obs, params.alpha_exp).astype(np.float32))
        built.append(seg)
        return seg

    monkeypatch.setattr(changepoint, "_segment", spy)
    return built


def extent(array):
    """The byte range ``[first, stop)`` of a C-contiguous array."""
    first = array.__array_interface__["data"][0]
    return first, first + array.nbytes


def inside(a, b) -> bool:
    return b[0] <= a[0] and a[1] <= b[1]


class TestChildMatrices:
    """A commit builds each child's float32 matrix on a view of the split
    segment's own buffer, the left child at offset 0 and the right one at
    t**2, into which the child rounds its own rows."""

    @pytest.mark.parametrize(
        "span_of",
        [three_regime_span, lambda: three_regime_span()[::-1].copy(),
         lambda: planted_span(2016, MEMORY_SHAPE_SPAN)],
        ids=["right_child_split", "left_child_split", "l600"],
    )
    def test_children_are_views_of_the_span_buffer(self, monkeypatch, span_of):
        span = span_of()
        built = spy_segments(monkeypatch)
        cps = e_divisive(span, EnergyParams(min_segment=30), PermutationConfig(master_seed=7))
        assert len(cps) == 2 and len(built) == 5  # the root, then two children at each commit
        root = extent(built[0].dist)
        for seg in built:
            assert seg.dist.flags.c_contiguous
            assert np.shares_memory(seg.dist, built[0].dist) and inside(extent(seg.dist), root)
        for a, b in itertools.combinations(built, 2):
            if inside(extent(b.obs), extent(a.obs)):  # b descends from a
                assert inside(extent(b.dist), extent(a.dist))
            else:  # siblings, or in different parents: apart from each other
                assert not np.shares_memory(a.obs, b.obs)
                assert not np.shares_memory(a.dist, b.dist)


def replayed_tests(span, params, cps):
    """(segments, observed Q, split index) of each test e_divisive ran,
    rebuilt from its committed points: the committed splits in the order
    they were found, then the rejected split that ended the loop (if any
    segment was left splittable)."""
    remaining = {cp.index for cp in cps}
    bounds = [0, len(span)]
    tests = []
    while True:
        candidates = []
        for a, b in zip(bounds, bounds[1:]):
            if b - a >= 2 * params.min_segment:
                t, q = best_split(span[a:b], params)
                candidates.append((q, a + t))
        if not candidates:
            return tests
        q, t = max(candidates, key=lambda c: c[0])  # max keeps the first of equal Qs
        tests.append(([span[a:b] for a, b in zip(bounds, bounds[1:])], q, t))
        if t not in remaining:
            return tests
        remaining.remove(t)
        bounds = sorted([*bounds, t])


def distance_matrices(segments, params):
    return [
        distance_matrix(np.asarray(seg, dtype=float), params.alpha_exp)
        for seg in segments
    ]


def kernel_block(segments, params):
    """Orderings per kernel pass: 2 * BLOCK_ELEMENTS // the longest permutable
    segment, as a float32 row takes half the bytes of a float64 one."""
    longest = max(len(seg) for seg in segments if len(seg) >= 2 * params.min_segment)
    return max(1, 2 * changepoint.BLOCK_ELEMENTS // longest)


def spent_by_stopped_test(exceeds, block, significance):
    """Permutations an early-stopped test draws: a first block of FIRST_BLOCK
    (at most ``block``), then blocks of ``block``, up to the first at whose
    end (1 + exceedances) / (R + 1) exceeds the significance level, or all R."""
    n_perm = len(exceeds)
    end = min(changepoint.FIRST_BLOCK, block)
    while end < n_perm and (1 + sum(exceeds[:end])) / (n_perm + 1) <= significance:
        end += block
    return min(end, n_perm)


def spy_streams(monkeypatch) -> list:
    """The (master_seed, iteration, r) key of every permutation stream seeded
    from here on, in the order the blocks seed them."""
    streams = []
    seeded = changepoint._seeded_states

    def spy(master_seed, iteration, first, stop):
        streams.extend((master_seed, iteration, r) for r in range(first, stop))
        return seeded(master_seed, iteration, first, stop)

    monkeypatch.setattr(changepoint, "_seeded_states", spy)
    return streams


class TestEarlyStop:
    def test_golden_three_regimes(self):
        # values of the one-permutation-at-a-time formula; every kernel
        # must reproduce them bit for bit
        cps = e_divisive(
            three_regime_span(), EnergyParams(min_segment=30), PermutationConfig(master_seed=7)
        )
        assert [(cp.index, repr(cp.statistic), repr(cp.p_value)) for cp in cps] == [
            (80, "1434.4242605082864", "0.01"),
            (150, "1328.8882982928942", "0.01"),
        ]

    @pytest.mark.parametrize("significance", [0.01, 0.05, 0.2])
    @pytest.mark.parametrize("block", [None, 5])
    def test_early_stop_never_changes_result(self, monkeypatch, significance, block):
        span = three_regime_span()
        params = EnergyParams(min_segment=30)
        cfg = PermutationConfig(significance=significance, master_seed=7)
        unpatched = e_divisive(span, params, cfg)
        if block is not None:
            monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 240 * block)
        streams = spy_streams(monkeypatch)
        cps = e_divisive(span, params, cfg)
        spent_by_e_divisive = len(streams)
        assert cps == unpatched

        tests = replayed_tests(span, params, cps)
        assert len(tests) == len(cps) + 1
        committed = {cp.index: cp for cp in cps}
        for iteration, (segments, q, t) in enumerate(tests[:-1]):
            assert committed[t].statistic == q
            assert permutation_test(segments, q, params, cfg, iteration) == committed[t].p_value
        segments, q, _ = tests[-1]
        assert permutation_test(segments, q, params, cfg, len(cps)) > significance
        # committed tests spend every permutation; the rejected one stops at
        # the end of the block where its p-value is sure to exceed the level
        stats = permuted_stats(distance_matrices(segments, params), params, cfg, len(cps))
        exceeds = [q_r >= q for q_r in stats]
        assert spent_by_e_divisive == len(cps) * cfg.n_permutations + spent_by_stopped_test(
            exceeds, kernel_block(segments, params), significance
        )
        full_budget = len(tests) * cfg.n_permutations
        if block is not None:
            assert len(cps) * cfg.n_permutations <= spent_by_e_divisive < full_budget

    @pytest.mark.parametrize("block", [None, 3])
    def test_rejected_test_at_l300_stops_after_the_first_block(self, monkeypatch, block):
        # one regime: the first split is rejected.  At L = 300 the usual block
        # holds all 99 permutations; a first block never outgrows a smaller one
        span = np.random.default_rng(300).poisson((9.0, 6.0, 7.0), (300, 3)).astype(float)
        params, cfg = EnergyParams(min_segment=30), PermutationConfig(master_seed=3)
        if block is None:
            assert kernel_block([span], params) >= cfg.n_permutations
        else:
            monkeypatch.setattr(changepoint, "BLOCK_ELEMENTS", 300 * block)
        first_block = min(changepoint.FIRST_BLOCK, kernel_block([span], params))
        streams = spy_streams(monkeypatch)
        assert e_divisive(span, params, cfg) == []
        assert streams == [(3, 0, r) for r in range(first_block)]
        _, q = best_split(span, params)
        stats = permuted_stats(distance_matrices([span], params), params, cfg, 0)
        exceeds = [q_r >= q for q_r in stats]
        assert any(exceeds[:first_block])
        assert permutation_test([span], q, params, cfg, 0) > cfg.significance


def traced_e_divisive(span, alpha_exp):
    """Committed indices of ``e_divisive`` on the span and its traced peak
    in bytes.  numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        cps = e_divisive(
            span, EnergyParams(alpha_exp=alpha_exp, min_segment=30),
            PermutationConfig(master_seed=7),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [cp.index for cp in cps], peak


def planted_span(seed, regimes):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.poisson(lam, (n, 3)) for lam, n in regimes]).astype(float)


# L = 600 with commits at 200 and 380
MEMORY_SHAPE_SPAN = ((4.0, 200), (30.0, 180), (12.0, 220))


def two_level_halves(seed, length):
    """Two noisy levels in each half, the second half shifted along the first
    axis: one commit at the middle, then tests whose observed Q falls among
    the screen's bounds, so it decides some blocks in part."""
    low = two_level_span(np.random.default_rng(seed), length // 2)
    high = two_level_span(np.random.default_rng(seed + 10), length - length // 2)
    return np.concatenate([low, high + np.array([3.0, 0.0, 0.0])])


class TestMemoryShape:
    @pytest.mark.parametrize("alpha_exp", [1.0, 1.5])
    def test_traced_peak_is_one_distance_matrix_and_kernel_blocks(self, alpha_exp):
        # one float32 L x L matrix (0.5 * 8 L^2), which each commit splits in
        # place, and the kernel's buffers of about 256 to 512 KiB each, 0.09
        # to 0.18 * 8 L^2 at L = 600; the screen's, which it frees before the
        # kernel runs, are smaller.  The screen leaves the kernel no ordering
        # of a committed test here and decides no block in part (0.84 * 8 L^2
        # traced with numpy 2.4.6)
        span = planted_span(2016, MEMORY_SHAPE_SPAN)
        indices, peak = traced_e_divisive(span, alpha_exp)
        assert indices == [200, 380]  # both commits moved children
        assert peak <= 1.45 * 8 * len(span) ** 2

    def test_traced_peak_at_the_fortnight_span_length(self):
        # L = 960, as each awake span of the criterion-10 fortnight: the
        # kernel buffers are 0.035 to 0.07 * 8 L^2 each (0.67 * 8 L^2 traced
        # with numpy 2.4.6, where the screen leaves the kernel no ordering of
        # a committed test); a float64 L x L matrix alone would break the bound
        span = planted_span(960, ((5.0, 300), (25.0, 330), (10.0, 330)))
        indices, peak = traced_e_divisive(span, 1.0)
        assert indices == [300, 630]
        assert peak <= 0.97 * 8 * len(span) ** 2

    @pytest.mark.parametrize("alpha_exp", [1.0, 1.5])
    @pytest.mark.parametrize("length, seed, bound", [(600, 2, 1.45), (960, 3, 0.97)])
    def test_traced_peak_with_blocks_decided_in_part(self, monkeypatch, length, seed, bound, alpha_exp):
        # the planted spans above leave no block decided in part; here the
        # kernel takes a copy of the orderings the screen keeps, under the
        # same bounds (1.36 and 0.90 * 8 L^2 traced with numpy 2.4.6)
        seen = spy_screen(monkeypatch)
        indices, peak = traced_e_divisive(two_level_halves(seed, length), alpha_exp)
        assert len(indices) == 1 and seen["copied"] > 0
        assert peak <= bound * 8 * length**2

    def test_energy_divergence_peak_is_a_few_row_blocks(self):
        # the pair sums are built a block of rows at a time: no (n, m, d)
        # difference array and no n x n matrix (64 MB at n = m = 1,000, d = 3)
        rng = np.random.default_rng(1000)
        X, Y = rng.normal(0.0, 1.0, (1000, 3)), rng.normal(0.5, 2.0, (1000, 3))
        tracemalloc.start()
        try:
            e, q = energy_divergence(X, Y, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

        def pair_mean(A, B, within):
            dist = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2) ** 1.3
            return dist[np.triu_indices(len(A), 1)].mean() if within else dist.mean()

        e_ref = 2.0 * pair_mean(X, Y, False) - pair_mean(X, X, True) - pair_mean(Y, Y, True)
        assert e == pytest.approx(e_ref, rel=1e-12)
        assert q == pytest.approx(500.0 * e_ref, rel=1e-12)

"""Tests for repro.geo.proximity: the zone-proximity index.

Every query class is checked against the brute-force scan it replaces,
including the cutoff contract (bit-identical at/below the cutoff, only
the ``> cutoff`` predicate above it) and the ring-0 corner cases where
signed distances go negative.
"""

import math
import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.geo.circle import Circle
from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex


def brute_nearest(circles, point):
    best_i, best_d = -1, math.inf
    for i, c in enumerate(circles):
        d = c.distance_to_boundary(point)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def brute_pair_min(circles, a, b):
    return min(c.distance_to_boundary(a) + c.distance_to_boundary(b)
               for c in circles)


def random_circles(seed, n=60, spread=500.0, r_max=60.0):
    rng = random.Random(seed)
    return [Circle(rng.uniform(-spread, spread), rng.uniform(-spread, spread),
                   rng.uniform(1.0, r_max)) for _ in range(n)]


@pytest.fixture()
def field():
    return random_circles(seed=7)


@pytest.fixture()
def index(field):
    return ZoneProximityIndex.from_circles(field)


class TestConstruction:
    def test_from_zones_projects_once_via_cache(self, frame):
        center = frame.to_geo(120.0, -40.0)
        zone = NoFlyZone(center.lat, center.lon, 25.0)
        index = ZoneProximityIndex([zone], frame)
        assert len(index) == 1
        # Satellite: to_circle is cached per frame, so the index holds the
        # very same Circle object a later projection returns.
        assert index.circles[0] is zone.to_circle(frame)

    def test_from_circles_exposes_shared_list(self, field, index):
        assert index.circles == field
        assert len(index) == len(field)

    def test_explicit_cell_size(self, field):
        index = ZoneProximityIndex.from_circles(field, cell_size=42.0)
        assert index.cell_size == 42.0

    def test_auto_cell_size_positive_even_for_point_layouts(self):
        index = ZoneProximityIndex.from_circles([Circle(0.0, 0.0, 0.5)])
        assert index.cell_size > 0.0

    def test_shared_stats_accumulator(self, field):
        stats = ZoneIndexStats()
        a = ZoneProximityIndex.from_circles(field, stats=stats)
        b = ZoneProximityIndex.from_circles(field, stats=stats)
        a.nearest_boundary((0.0, 0.0))
        b.nearest_boundary((0.0, 0.0))
        assert stats.queries == 2


class TestEmptyIndex:
    @pytest.fixture()
    def empty(self):
        return ZoneProximityIndex.from_circles([])

    def test_all_queries_degrade_gracefully(self, empty):
        assert empty.nearest_boundary((0.0, 0.0)) is None
        assert empty.min_pair_distance((0.0, 0.0), (1.0, 0.0)) is None
        assert empty.k_nearest((0.0, 0.0), 3) == []
        assert empty.candidates_within((0.0, 0.0), 100.0) == []
        assert empty.pair_candidates((0.0, 0.0), (1.0, 0.0), 100.0) == []
        assert empty.stats.queries == 0


class TestNearestBoundary:
    def test_matches_brute_force(self, field, index):
        rng = random.Random(1)
        for _ in range(60):
            p = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            assert index.nearest_boundary(p) == brute_nearest(field, p)

    def test_tie_breaks_toward_smallest_index(self):
        # Two identical-distance boundaries either side of the query.
        circles = [Circle(-10.0, 0.0, 5.0), Circle(10.0, 0.0, 5.0)]
        index = ZoneProximityIndex.from_circles(circles)
        assert index.nearest_boundary((0.0, 0.0)) == (0, 5.0)

    def test_containment_is_negative_and_wins(self):
        circles = [Circle(0.0, 0.0, 50.0), Circle(10.0, 0.0, 2.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=5.0)
        i, d = index.nearest_boundary((0.0, 0.0))
        assert i == 0
        assert d == pytest.approx(-50.0)

    def test_cutoff_still_finds_containing_circle(self):
        """Ring-0 guard: a tiny cutoff must not hide a zone we are inside."""
        circles = [Circle(0.0, 0.0, 50.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=5.0)
        i, d = index.nearest_boundary((1.0, 1.0), cutoff_m=0.0)
        assert i == 0
        assert d < 0.0

    def test_cutoff_at_or_above_min_is_exact(self, field, index):
        p = (40.0, 40.0)
        exact = brute_nearest(field, p)
        assert index.nearest_boundary(p, cutoff_m=exact[1] + 1.0) == exact

    def test_cutoff_below_min_only_certifies_predicate(self, field):
        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(field, stats=stats)
        # Far outside the populated extent with a tiny cutoff: whatever
        # comes back must exceed the cutoff (sentinel included).
        result = index.nearest_boundary((50_000.0, 50_000.0), cutoff_m=10.0)
        assert result is not None
        _, dist = result
        assert dist > 10.0
        assert stats.cutoff_exits >= 0  # counter exists; exit is layout-dependent

    def test_cutoff_prune_before_any_candidate_returns_sentinel(self):
        circles = [Circle(1_000.0, 0.0, 1.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=10.0)
        result = index.nearest_boundary((0.0, 0.0), cutoff_m=5.0)
        assert result == (-1, math.inf)
        assert index.stats.cutoff_exits == 1


class TestKNearest:
    def test_matches_sorted_brute_force(self, field, index):
        rng = random.Random(2)
        for _ in range(20):
            p = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            brute = sorted((c.distance_to_boundary(p), i)
                           for i, c in enumerate(field))[:5]
            assert index.k_nearest(p, 5) == [(i, d) for d, i in brute]

    def test_k_exceeding_size_returns_all(self, field, index):
        result = index.k_nearest((0.0, 0.0), len(field) + 10)
        assert len(result) == len(field)

    def test_nonpositive_k(self, index):
        assert index.k_nearest((0.0, 0.0), 0) == []
        assert index.k_nearest((0.0, 0.0), -2) == []


class TestCandidatesWithin:
    def test_matches_brute_filter(self, field, index):
        rng = random.Random(3)
        for _ in range(20):
            p = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            radius = rng.uniform(0.0, 200.0)
            brute = [i for i, c in enumerate(field)
                     if c.distance_to_boundary(p) <= radius]
            assert index.candidates_within(p, radius) == brute

    def test_zero_radius_keeps_containing_zones(self):
        circles = [Circle(0.0, 0.0, 30.0), Circle(500.0, 0.0, 5.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=20.0)
        assert index.candidates_within((0.0, 0.0), 0.0) == [0]


class TestMinPairDistance:
    def test_matches_brute_force(self, field, index):
        rng = random.Random(4)
        for _ in range(40):
            a = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            b = (a[0] + rng.uniform(-20, 20), a[1] + rng.uniform(-20, 20))
            assert index.min_pair_distance(a, b) == brute_pair_min(field, a, b)

    def test_cutoff_decision_equivalence(self, field, index):
        rng = random.Random(5)
        cutoff = 25.0
        for _ in range(40):
            a = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            b = (a[0] + rng.uniform(-10, 10), a[1] + rng.uniform(-10, 10))
            exact = brute_pair_min(field, a, b)
            pruned = index.min_pair_distance(a, b, cutoff_m=cutoff)
            assert (exact > cutoff) == (pruned > cutoff)
            if exact <= cutoff:
                assert pruned == exact

    def test_cutoff_zero_still_finds_negative_pair_sum(self):
        """Ring-0 guard: both fixes inside a zone -> negative sum survives."""
        circles = [Circle(0.0, 0.0, 40.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=5.0)
        result = index.min_pair_distance((-2.0, 0.0), (2.0, 0.0), cutoff_m=0.0)
        assert result == pytest.approx(-76.0)

    def test_far_pair_prunes_with_cutoff(self, field):
        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(field, stats=stats)
        full = ZoneIndexStats()
        full_index = ZoneProximityIndex.from_circles(field, stats=full)
        a, b = (40_000.0, 40_000.0), (40_010.0, 40_000.0)
        index.min_pair_distance(a, b, cutoff_m=10.0)
        full_index.min_pair_distance(a, b)
        assert stats.candidates <= full.candidates
        assert stats.cutoff_exits == 1


class TestPairCandidates:
    def test_matches_brute_filter(self, field, index):
        rng = random.Random(6)
        for _ in range(20):
            a = (rng.uniform(-600, 600), rng.uniform(-600, 600))
            b = (a[0] + rng.uniform(-30, 30), a[1] + rng.uniform(-30, 30))
            max_sum = rng.uniform(0.0, 300.0)
            brute = [i for i, c in enumerate(field)
                     if c.distance_to_boundary(a)
                     + c.distance_to_boundary(b) <= max_sum]
            assert index.pair_candidates(a, b, max_sum) == brute

    def test_negative_budget_keeps_straddled_zone(self):
        circles = [Circle(0.0, 0.0, 40.0)]
        index = ZoneProximityIndex.from_circles(circles, cell_size=5.0)
        assert index.pair_candidates((-2.0, 0.0), (2.0, 0.0), -1.0) == [0]


class TestStats:
    def test_counters_accumulate(self, field):
        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(field, stats=stats)
        index.nearest_boundary((0.0, 0.0))
        index.min_pair_distance((0.0, 0.0), (5.0, 0.0))
        index.candidates_within((0.0, 0.0), 50.0)
        assert stats.queries == 3
        assert stats.rings >= 3
        assert 0 < stats.candidates <= 3 * len(field)
        assert stats.mean_candidates_per_query == stats.candidates / 3
        assert stats.mean_rings_per_query == stats.rings / 3

    def test_means_are_zero_when_unused(self):
        stats = ZoneIndexStats()
        assert stats.mean_candidates_per_query == 0.0
        assert stats.mean_rings_per_query == 0.0

    def test_pruning_beats_brute_force_candidate_count(self):
        """The point of the index: far fewer candidates than Z per query."""
        field = random_circles(seed=11, n=400, spread=4_000.0, r_max=40.0)
        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(field, stats=stats)
        rng = random.Random(12)
        n_queries = 50
        for _ in range(n_queries):
            index.nearest_boundary((rng.uniform(-4_000, 4_000),
                                    rng.uniform(-4_000, 4_000)))
        assert stats.mean_candidates_per_query < len(field) / 4


def interleaved_queries(seed, n=400):
    """Five-method query mix alternating near cells, revisited cells and
    far-outside cells (which take the grid's direct-sweep fallback)."""
    rng = random.Random(seed)
    revisits = [(rng.uniform(-500, 500), rng.uniform(-500, 500))
                for _ in range(6)]
    queries = []
    for q in range(n):
        if q % 7 == 0:
            a = (rng.uniform(-40_000, 40_000), rng.uniform(-40_000, 40_000))
        elif q % 3 == 0:
            x, y = rng.choice(revisits)
            a = (x + rng.uniform(-5, 5), y + rng.uniform(-5, 5))
        else:
            a = (rng.uniform(-600, 600), rng.uniform(-600, 600))
        b = (a[0] + rng.uniform(-40, 40), a[1] + rng.uniform(-40, 40))
        method = q % 5
        if method == 0:
            queries.append(("nearest_boundary", (a,), {"cutoff_m": rng.choice(
                [None, 0.0, 20.0, 150.0])}))
        elif method == 1:
            queries.append(("k_nearest", (a, rng.randint(1, 8)), {}))
        elif method == 2:
            queries.append(("candidates_within",
                            (a, rng.uniform(-10.0, 300.0)), {}))
        elif method == 3:
            queries.append(("min_pair_distance", (a, b), {
                "cutoff_m": rng.choice([None, 0.0, 40.0, 400.0])}))
        else:
            queries.append(("pair_candidates",
                            (a, b, rng.uniform(-20.0, 600.0)), {}))
    return queries


def stats_tuple(stats):
    return (stats.queries, stats.candidates, stats.rings, stats.cutoff_exits)


class TestRingMemo:
    """Queries read rings through a per-cell memo; a warm memo must answer
    and count exactly as a cold one."""

    def assert_matches_fresh(self, field, index, queries):
        for name, args, kwargs in queries:
            fresh = ZoneProximityIndex.from_circles(field)
            expected = getattr(fresh, name)(*args, **kwargs)
            mark = stats_tuple(index.stats)
            assert getattr(index, name)(*args, **kwargs) == expected, name
            delta = tuple(after - prior for after, prior
                          in zip(stats_tuple(index.stats), mark))
            assert delta == stats_tuple(fresh.stats), name

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interleaved_queries_match_a_fresh_index(self, seed):
        field = random_circles(seed=seed, n=120, spread=600.0)
        index = ZoneProximityIndex.from_circles(field)
        self.assert_matches_fresh(field, index,
                                  interleaved_queries(seed + 10))
        assert index._ring_memo_size > 0

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        import repro.geo.proximity as proximity
        bound = 40
        monkeypatch.setattr(proximity, "RING_MEMO_MAX_ENTRIES", bound)
        field = random_circles(seed=5, n=120, spread=600.0)
        index = ZoneProximityIndex.from_circles(field)
        for query in interleaved_queries(15):
            # One query at a time, so the bound is checked after each.
            self.assert_matches_fresh(field, index, [query])
            assert index._ring_memo_size <= bound
            assert index._ring_memo_size == sum(
                entry.size for entry in index._ring_memo.values())

    def test_repeat_queries_in_a_cell_skip_the_grid(self, field, index,
                                                    monkeypatch):
        index.min_pair_distance((10.0, 10.0), (12.0, 11.0))
        calls = []
        enumerate_rings = index._grid.ring_candidates
        monkeypatch.setattr(index._grid, "ring_candidates",
                            lambda point: calls.append(point)
                            or enumerate_rings(point))
        index.min_pair_distance((10.5, 10.2), (12.5, 11.0))
        assert calls == []
        # A deeper query in the same cell extends the memo once.
        index.k_nearest((10.0, 10.0), len(field))
        assert len(calls) == 1
        index.k_nearest((10.0, 10.0), len(field))
        assert len(calls) == 1

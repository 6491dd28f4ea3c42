"""NFZ-scale A/B: spatial-index pruning vs. brute-force zone scans.

For each zone count Z this benchmark builds the national packed-corridor
field (:mod:`repro.workloads.national`), then times the three hot queries
both ways over the same deterministic query set:

* **nearest** — nearest-boundary lookup (``FindNearestZone``);
* **pair** — the sampler's per-update decision ``min (D1 + D2)`` against
  the cutoff ``v_max * (dt + margin)``;
* **sufficiency** — the verifier's conservative insufficient-pair scan
  over a corridor track.

Every row asserts equivalence (identical nearest zones/distances,
identical sampler decisions, identical insufficient-pair lists) before
reporting speedups, and rows at Z >= 5000 must clear a 10x speedup on the
nearest query.  Each timed repeat of an indexed arm queries a freshly
built index (built outside the timer), so a best-of-N never times an
index whose per-cell ring memo an earlier repeat already warmed.  Emits
``BENCH_nfz_scale.json`` via ``_emit``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_nfz_scale.py \
        --zones 10,100,1000,10000

or under pytest (tiny configuration, equivalence only).
"""

from __future__ import annotations

import argparse
import math
import random
import time

from _emit import write_bench_json
from repro.core.sufficiency import (
    insufficient_pairs_indexed,
    insufficient_pairs_projected,
)
from repro.geo.geodesy import LocalFrame
from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex
from repro.units import FAA_MAX_SPEED_MPS
from repro.workloads.national import DEFAULT_ORIGIN, build_national_zone_field

CORRIDOR_LENGTH_M = 20_000.0
CORRIDOR_CLEARANCE_M = 60.0
#: Sampler-style decision parameters: 5 Hz receiver, 2-update margin.
PAIR_DT_S = 0.2
PAIR_MARGIN_S = 0.4
SPEEDUP_FLOOR = 10.0
SPEEDUP_FLOOR_ZONES = 5_000
REPEATS = 3


def build_queries(n_queries: int, seed: int):
    """Deterministic corridor-hugging query points and sample pairs."""
    rng = random.Random(seed)
    points = []
    for i in range(n_queries):
        x = (i + 0.5) * CORRIDOR_LENGTH_M / n_queries
        points.append((x, rng.uniform(-30.0, 30.0)))
    pairs = list(zip(points, points[1:]))
    track = points
    times = [i * PAIR_DT_S for i in range(len(track))]
    return points, pairs, track, times


def brute_nearest(circles, point):
    """The O(Z) scan the index replaces, smallest-index tie-break."""
    best_i, best_d = -1, math.inf
    for i, circle in enumerate(circles):
        d = circle.distance_to_boundary(point)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def brute_pair_min(circles, a, b):
    return min(circle.distance_to_boundary(a) + circle.distance_to_boundary(b)
               for circle in circles)


def _best_time(fn, repeats: int = REPEATS,
               setup=None) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last result.

    With ``setup``, every repeat first calls it outside the timer and
    hands its result to ``fn``.
    """
    best = math.inf
    result = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def run_scale(zone_counts, n_queries: int, seed: int,
              repeats: int = REPEATS) -> dict:
    """The A/B sweep; returns the ``BENCH_nfz_scale.json`` payload."""
    frame = LocalFrame(DEFAULT_ORIGIN)
    points, pairs, track, times = build_queries(n_queries, seed)
    cutoff = FAA_MAX_SPEED_MPS * (PAIR_DT_S + PAIR_MARGIN_S)
    results = []
    for n_zones in zone_counts:
        zones = build_national_zone_field(
            n_zones, frame, seed=seed,
            corridor_length_m=CORRIDOR_LENGTH_M,
            corridor_clearance_m=CORRIDOR_CLEARANCE_M)
        build_start = time.perf_counter()
        stats = ZoneIndexStats()
        index = ZoneProximityIndex(zones, frame, stats=stats)
        build_s = time.perf_counter() - build_start
        circles = index.circles

        def fresh_index():
            return ZoneProximityIndex(zones, frame, stats=stats)

        # -- nearest-boundary queries ------------------------------------
        brute_s, brute_res = _best_time(
            lambda: [brute_nearest(circles, p) for p in points], repeats)
        indexed_s, indexed_res = _best_time(
            lambda fresh: [fresh.nearest_boundary(p) for p in points],
            repeats, fresh_index)
        assert indexed_res == brute_res, "nearest-boundary results diverged"

        # -- sampler pair decisions (with cutoff early-exit) -------------
        pair_brute_s, pair_brute = _best_time(
            lambda: [brute_pair_min(circles, a, b) for a, b in pairs],
            repeats)
        pair_indexed_s, pair_indexed = _best_time(
            lambda fresh: [fresh.min_pair_distance(a, b, cutoff_m=cutoff)
                           for a, b in pairs], repeats, fresh_index)
        for exact, pruned in zip(pair_brute, pair_indexed):
            # Identical decision everywhere; identical float at/below it.
            assert (exact > cutoff) == (pruned > cutoff), \
                "sampler decision diverged"
            assert exact > cutoff or exact == pruned, \
                "in-cutoff pair distance not bit-identical"

        # -- verifier sufficiency scan (conservative method) -------------
        suff_brute_s, suff_brute = _best_time(
            lambda: insufficient_pairs_projected(track, times, circles),
            repeats)
        suff_indexed_s, suff_indexed = _best_time(
            lambda fresh: insufficient_pairs_indexed(track, times, fresh),
            repeats, fresh_index)
        assert suff_brute == suff_indexed, "insufficient-pair lists diverged"

        speedup = brute_s / indexed_s if indexed_s > 0 else math.inf
        row = {
            "zones": n_zones,
            "build_s": build_s,
            "nearest": {"brute_s": brute_s, "indexed_s": indexed_s,
                        "speedup": speedup},
            "pair": {"brute_s": pair_brute_s, "indexed_s": pair_indexed_s,
                     "speedup": (pair_brute_s / pair_indexed_s
                                 if pair_indexed_s > 0 else math.inf)},
            "sufficiency": {"brute_s": suff_brute_s,
                            "indexed_s": suff_indexed_s,
                            "speedup": (suff_brute_s / suff_indexed_s
                                        if suff_indexed_s > 0 else math.inf)},
            "index": {
                "cell_size_m": index.cell_size,
                "queries": stats.queries,
                "mean_candidates_per_query": stats.mean_candidates_per_query,
                "mean_rings_per_query": stats.mean_rings_per_query,
                "cutoff_exits": stats.cutoff_exits,
            },
            "equivalent": True,
        }
        results.append(row)
        if n_zones >= SPEEDUP_FLOOR_ZONES:
            assert speedup >= SPEEDUP_FLOOR, (
                f"nearest speedup {speedup:.1f}x below the "
                f"{SPEEDUP_FLOOR:.0f}x floor at Z={n_zones}")
    return {
        "config": {"zone_counts": list(zone_counts), "queries": n_queries,
                   "seed": seed, "repeats": repeats,
                   "corridor_length_m": CORRIDOR_LENGTH_M,
                   "pair_cutoff_m": cutoff},
        "results": results,
        "speedup_at_max_zone_count": results[-1]["nearest"]["speedup"]
        if results else None,
    }


def render(payload: dict) -> str:
    lines = ["NFZ-scale geometry A/B (indexed vs brute-force)",
             f"{'Z':>7}  {'build':>8}  {'nearest':>9}  {'pair':>9}  "
             f"{'suffic.':>9}  {'cand/query':>10}"]
    for row in payload["results"]:
        lines.append(
            f"{row['zones']:>7}  {row['build_s'] * 1e3:7.1f}ms  "
            f"{row['nearest']['speedup']:8.1f}x  "
            f"{row['pair']['speedup']:8.1f}x  "
            f"{row['sufficiency']['speedup']:8.1f}x  "
            f"{row['index']['mean_candidates_per_query']:>10.1f}")
    return "\n".join(lines)


def test_nfz_scale_smoke(emit):
    """Tiny-configuration equivalence run (speedups not asserted)."""
    payload = run_scale([16, 64], n_queries=40, seed=3, repeats=1)
    assert all(row["equivalent"] for row in payload["results"])
    path = write_bench_json("nfz_scale", payload)
    emit(render(payload) + f"\n[artifact] {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zones", default="10,100,1000,10000",
                        help="comma-separated zone counts")
    parser.add_argument("--queries", type=int, default=200,
                        help="query points per row (default 200)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out-dir", default=None,
                        help="artifact directory (default benchmarks/out)")
    args = parser.parse_args()
    zone_counts = [int(z) for z in args.zones.split(",") if z]
    payload = run_scale(zone_counts, args.queries, args.seed, args.repeats)
    print(render(payload))
    path = write_bench_json("nfz_scale", payload, out_dir=args.out_dir)
    print(f"[artifact] {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

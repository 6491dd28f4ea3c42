"""A uniform-grid spatial index over circular regions.

The Auditor's NFZ database and the drone's Adapter both need two queries:
"which zones fall inside this rectangle?" (zone query/response, paper §IV-B)
and "which zone is nearest to this point?" (``FindNearestZone`` in
Algorithm 1).  A uniform grid keyed on circle bounding boxes answers both in
expected O(1) per cell for the dense-but-local NFZ layouts of the field
studies.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Generic, Hashable, Iterator, TypeVar

from repro.errors import ConfigurationError
from repro.geo.circle import Circle

K = TypeVar("K", bound=Hashable)

Point = tuple[float, float]


class GridIndex(Generic[K]):
    """Uniform grid over ``(key, Circle)`` entries.

    Args:
        cell_size: grid cell edge in metres.  Should be on the order of the
            typical query radius; the residential workload uses ~100 m cells.
    """

    def __init__(self, cell_size: float = 100.0):
        if cell_size <= 0:
            raise ConfigurationError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int], set[K]] = defaultdict(set)
        self._entries: dict[K, Circle] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def get(self, key: K) -> Circle | None:
        """The circle stored under ``key``, or None."""
        return self._entries.get(key)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def cell_of(self, point: Point) -> tuple[int, int]:
        """The grid cell holding ``point``; :meth:`ring_candidates` output
        depends on the query point only through this cell."""
        return self._cell_of(*point)

    def _cells_for(self, circle: Circle) -> Iterator[tuple[int, int]]:
        x0, y0 = self._cell_of(circle.x - circle.r, circle.y - circle.r)
        x1, y1 = self._cell_of(circle.x + circle.r, circle.y + circle.r)
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                yield (cx, cy)

    def insert(self, key: K, circle: Circle) -> None:
        """Insert or replace the circle stored under ``key``."""
        if key in self._entries:
            self.remove(key)
        self._entries[key] = circle
        for cell in self._cells_for(circle):
            self._cells[cell].add(key)

    def remove(self, key: K) -> None:
        """Remove ``key``; raises KeyError if absent."""
        circle = self._entries.pop(key)
        for cell in self._cells_for(circle):
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._cells[cell]

    def items(self) -> Iterator[tuple[K, Circle]]:
        """All ``(key, circle)`` entries."""
        return iter(self._entries.items())

    def query_rect(self, x_min: float, y_min: float,
                   x_max: float, y_max: float) -> list[K]:
        """Keys of circles intersecting the axis-aligned rectangle."""
        if x_min > x_max:
            x_min, x_max = x_max, x_min
        if y_min > y_max:
            y_min, y_max = y_max, y_min
        c0 = self._cell_of(x_min, y_min)
        c1 = self._cell_of(x_max, y_max)
        candidates: set[K] = set()
        for cx in range(c0[0], c1[0] + 1):
            for cy in range(c0[1], c1[1] + 1):
                candidates |= self._cells.get((cx, cy), set())
        hits = []
        for key in candidates:
            circle = self._entries[key]
            # Closest point of the rectangle to the circle centre.
            nx = min(max(circle.x, x_min), x_max)
            ny = min(max(circle.y, y_min), y_max)
            if math.hypot(circle.x - nx, circle.y - ny) <= circle.r:
                hits.append(key)
        return sorted(hits, key=repr)

    def query_point(self, point: Point) -> list[K]:
        """Keys of circles containing ``point``."""
        candidates = self._cells.get(self._cell_of(*point), set())
        return sorted((k for k in candidates if self._entries[k].contains(point)), key=repr)

    def ring_lower_bound(self, ring: int) -> float:
        """Minimum possible distance from a query point to a ring-``ring`` cell.

        The query point sits somewhere inside its own (ring-0) cell, so a
        cell at Chebyshev ring ``r`` is at least ``(r - 1)`` whole cells
        away.  Because a circle is registered in every cell its bounding
        box overlaps, any circle first produced at ring ``r`` has unsigned
        boundary distance at least this bound — the invariant behind every
        pruned search built on :meth:`ring_candidates`.
        """
        return max(0, ring - 1) * self.cell_size

    def ring_candidates(self, point: Point) -> Iterator[tuple[int, list[K]]]:
        """Expanding-ring candidate enumeration around ``point``.

        Yields ``(ring, keys)`` in ascending ring order; every stored key
        is produced exactly once, at the smallest ring containing one of
        its cells.  Keys not yet yielded after ring ``r`` lie in rings
        ``> r`` and are therefore at least ``r * cell_size`` from the
        query point (see :meth:`ring_lower_bound`).

        Once the ring perimeter outgrows the remaining populated cells the
        enumeration falls back to one direct sweep of those cells, so a
        query far outside the populated extent costs O(cells), not
        O(spread^2) empty lookups.
        """
        if not self._cells:
            return
        cx, cy = self._cell_of(*point)
        seen: set[K] = set()
        visited_cells = 0
        ring = 0
        while visited_cells < len(self._cells):
            if ring and 8 * ring > len(self._cells) - visited_cells:
                # Sweep the remaining populated cells directly, attributing
                # each unseen key to the *smallest* of its remaining rings
                # so callers' pruning bounds stay valid.
                first_ring: dict[K, int] = {}
                for (gx, gy), keys in self._cells.items():
                    cell_ring = max(abs(gx - cx), abs(gy - cy))
                    if cell_ring < ring:
                        continue
                    for key in keys:
                        if key in seen:
                            continue
                        held = first_ring.get(key)
                        if held is None or cell_ring < held:
                            first_ring[key] = cell_ring
                grouped: dict[int, list[K]] = {}
                for key, key_ring in first_ring.items():
                    grouped.setdefault(key_ring, []).append(key)
                for key_ring in sorted(grouped):
                    yield key_ring, grouped[key_ring]
                return
            fresh: list[K] = []
            for cell in self._ring_cells(cx, cy, ring):
                keys = self._cells.get(cell)
                if keys is None:
                    continue
                visited_cells += 1
                fresh.extend(k for k in keys if k not in seen)
                seen.update(keys)
            if fresh:
                yield ring, fresh
            ring += 1

    def nearest(self, point: Point) -> tuple[K, float] | None:
        """The circle whose *boundary* is nearest to ``point``.

        Returns ``(key, signed_boundary_distance)`` or None when empty.
        Implements ``FindNearestZone`` from Algorithm 1 with an expanding
        ring search over grid cells, stopping as soon as no unvisited ring
        can hold a closer boundary.  Exact ties are broken by ``repr`` of
        the key (the same deterministic order the rectangle query uses).
        """
        if not self._entries:
            return None
        best_key: K | None = None
        best_dist = math.inf
        for ring, keys in self.ring_candidates(point):
            # Everything in this ring (and beyond) is at least this far
            # away; a strictly better current best cannot be displaced.
            if best_dist < self.ring_lower_bound(ring):
                break
            for key in keys:
                dist = self._entries[key].distance_to_boundary(point)
                if dist < best_dist or (dist == best_dist
                                        and repr(key) < repr(best_key)):
                    best_key, best_dist = key, dist
        if best_key is None:  # pragma: no cover - guarded by emptiness check
            raise AssertionError("non-empty index produced no candidates")
        return best_key, best_dist

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int) -> Iterator[tuple[int, int]]:
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)

"""Batched many-to-many distance tables for transition scoring.

The Viterbi transition loops of every matcher — and the splice scoring of
reference assembly — ask for network distances between the candidate
frontier of step *i* and the frontier of step *i+1*.  Building one *full*
bounded Dijkstra table per source (``dijkstra_all``) would settle every
node within ``max_distance`` even though only a handful of frontier
targets are ever read.

:class:`DistanceTableOracle` instead runs PHAST-style row sweeps: one
multi-target Dijkstra per source frontier node that *pauses* as soon as all
requested targets are settled.  Rows are resumable — a later lookup for an
uncovered target continues the same heap instead of restarting — so every
distance served is the exact ``dijkstra_all`` value (identical relaxation
discipline, identical float sums) at a fraction of the settled nodes.  A
single-pair lookup for a source with no row opens that row and sweeps it
the same way, so every distance comes from one Dijkstra discipline.

Rows live in an LRU bounded by ``max_rows``; ``prepare_for_fork`` compacts
each row's pending heap into a tuple so batch workers share the warmed rows
copy-on-write without dirtying pages.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.roadnet.cache import LRUCache
from repro.roadnet.network import RoadNetwork

__all__ = ["DistanceTableOracle"]


class _Row:
    """One resumable single-source sweep: settled distances + frontier."""

    __slots__ = ("settled", "dist", "heap", "complete")

    def __init__(self, source: int) -> None:
        self.settled: Dict[int, float] = {}
        self.dist: Dict[int, float] = {source: 0.0}
        self.heap: Union[List[Tuple[float, int]], Tuple[Tuple[float, int], ...]] = [
            (0.0, source)
        ]
        self.complete = False


class _RowView:
    """Read view of one row with lazy coverage.

    Behaves like a plain distance dict: ``get`` with a default,
    membership, item access.  A lookup for a target the
    sweep has not reached yet resumes the row first, so reads are always
    exact — absent means *unreachable within the bound*, never *not swept
    yet*.
    """

    __slots__ = ("_oracle", "_row")

    def __init__(self, oracle: "DistanceTableOracle", row: _Row) -> None:
        self._oracle = oracle
        self._row = row

    def get(self, target: int, default=None):
        d = self._oracle._read(self._row, target)
        return default if d is None else d

    def __contains__(self, target: int) -> bool:
        return self.get(target) is not None

    def __getitem__(self, target: int) -> float:
        d = self.get(target)
        if d is None:
            raise KeyError(target)
        return d


class DistanceTableOracle:
    """Many-to-many distance tables over candidate frontiers.

    Every distance equals the ``dijkstra_all`` table value for the same
    bound; ``stats`` counts row-cache hits, misses and evictions, and
    ``settled_nodes`` / ``sweeps`` total the Dijkstra work actually done.

    Args:
        network: The road network.
        max_distance: Search bound; pairs farther apart read as ``inf``.
        max_rows: Source rows held (None: unbounded; 0: none — every
            lookup sweeps a fresh row).
    """

    def __init__(
        self,
        network: RoadNetwork,
        max_distance: float = math.inf,
        max_rows: Optional[int] = 2048,
    ) -> None:
        self._network = network
        self._max_distance = max_distance
        self._rows: "LRUCache[int, _Row]" = LRUCache(max_rows)
        self.settled_nodes = 0
        self.sweeps = 0

    @property
    def stats(self):
        """Hit/miss/eviction counters of the row cache."""
        return self._rows.stats

    # ------------------------------------------------------------- batching

    def prepare(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Dict[int, float]]:
        """Cover the ``sources x targets`` frontier product.

        Runs (or resumes) one multi-target sweep per source, stopping each
        as soon as all requested targets are settled, and returns each
        source's raw settled-distance dict so the caller's inner pair loop
        reads at plain-dict speed.  The returned mappings are authoritative
        *for the announced targets only* — an absent announced target is
        unreachable within the bound, but targets never announced may be
        absent merely because the sweep paused before reaching them (use
        :meth:`table` or :meth:`distance` for those).  Subsequent ``table``
        and ``distance`` reads for prepared pairs are dictionary lookups.
        """
        wanted = tuple(dict.fromkeys(targets))
        tables: Dict[int, Dict[int, float]] = {}
        for source in dict.fromkeys(sources):
            row = self._row(source)
            if wanted:
                self._sweep(row, wanted)
            tables[source] = row.settled
        return tables

    def table(self, source: int) -> _RowView:
        """The (lazily covered) distance table from ``source``."""
        return _RowView(self, self._row(source))

    def distance(self, source: int, target: int) -> float:
        """Network distance from ``source`` to ``target``.

        Served from the source's row, which is opened (and swept until
        ``target`` settles) when the source has none yet.

        Returns ``inf`` when the target is unreachable within the bound.
        """
        d = self._read(self._row(source), target)
        return math.inf if d is None else d

    def route_distance_between_projections(
        self,
        from_segment: int,
        from_offset: float,
        to_segment: int,
        to_offset: float,
    ) -> float:
        """Travel distance between two on-segment positions.

        Positions are (segment id, arc-length offset) pairs, as produced by
        projecting GPS points onto candidate edges.  Handles the same-segment
        forward case exactly and routes through the graph otherwise.
        """
        net = self._network
        if from_segment == to_segment and to_offset >= from_offset:
            return to_offset - from_offset
        seg_a = net.segment(from_segment)
        seg_b = net.segment(to_segment)
        tail = seg_a.length - from_offset
        via = self.distance(seg_a.end, seg_b.start)
        if math.isinf(via):
            return math.inf
        return tail + via + to_offset

    # ------------------------------------------------------------ internals

    def _row(self, source: int) -> _Row:
        row = self._rows.get(source)
        if row is None:
            row = _Row(source)
            self._rows.put(source, row)
        return row

    def _read(self, row: _Row, target: int) -> Optional[float]:
        """``target``'s distance in ``row``, resuming the sweep if needed;
        None when it is unreachable within the bound."""
        d = row.settled.get(target)
        if d is None and not row.complete:
            self._sweep(row, (target,))
            d = row.settled.get(target)
        return d

    def _sweep(self, row: _Row, targets: Sequence[int]) -> None:
        """Run or resume the row's Dijkstra until ``targets`` are settled.

        The pop/relax discipline replicates ``dijkstra_all`` step for step
        (same heap keys, same bound check, same relaxation), so the settled
        distances are float-identical to its tables — pausing between
        calls only changes *when* the work happens.
        """
        if row.complete:
            return
        settled = row.settled
        remaining = {t for t in targets if t not in settled}
        if not remaining:
            return
        self.sweeps += 1
        heap = row.heap
        if isinstance(heap, tuple):  # sealed by prepare_for_fork
            heap = list(heap)
            row.heap = heap
        dist = row.dist
        network = self._network
        max_distance = self._max_distance
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            if d > max_distance:
                row.complete = True
                return
            settled[u] = d
            self.settled_nodes += 1
            remaining.discard(u)
            for sid in network.out_segments(u):
                seg = network.segment(sid)
                v = seg.end
                nd = d + seg.length
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            if not remaining:
                return
        row.complete = True

    # ------------------------------------------------------------ lifecycle

    def prepare_for_fork(self) -> None:
        """Compact pending frontiers before a worker pool forks.

        Heaps become tuples (smaller, allocation-free COW footprint); the
        first post-fork resume converts back to a list in the worker's own
        address space.
        """
        for row in self._rows.values():
            if isinstance(row.heap, list):
                row.heap = tuple(row.heap)

    def clear(self) -> None:
        self._rows.clear()

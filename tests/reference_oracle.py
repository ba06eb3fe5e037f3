"""The per-pair distance oracle, kept as the reference for the table oracle.

It answers every source with one *full* bounded Dijkstra table
(``dijkstra_all``) and memoises it.  Nothing in ``src/`` uses it: the
tests diff :class:`~repro.roadnet.table_oracle.DistanceTableOracle`, whose
paused and resumed sweeps must serve exactly these table values, against
it.
"""

import math
from typing import Dict

from repro.roadnet.shortest_path import dijkstra_all


class PerPairOracle:
    """One memoised ``dijkstra_all`` table per source node."""

    def __init__(self, network, max_distance: float = math.inf) -> None:
        self._network = network
        self._max_distance = max_distance
        self._tables: Dict[int, Dict[int, float]] = {}
        self.settled_nodes = 0

    def table(self, source: int) -> Dict[int, float]:
        table = self._tables.get(source)
        if table is None:
            table = dijkstra_all(self._network, source, self._max_distance)
            self.settled_nodes += len(table)
            self._tables[source] = table
        return table

    def prepare(self, sources, targets) -> Dict[int, Dict[int, float]]:
        """Full tables for ``sources`` (``targets`` carries no information
        for a per-pair oracle)."""
        return {s: self.table(s) for s in dict.fromkeys(sources)}

    def distance(self, source: int, target: int) -> float:
        return self.table(source).get(target, math.inf)

    def route_distance_between_projections(
        self,
        from_segment: int,
        from_offset: float,
        to_segment: int,
        to_offset: float,
    ) -> float:
        net = self._network
        if from_segment == to_segment and to_offset >= from_offset:
            return to_offset - from_offset
        seg_a = net.segment(from_segment)
        seg_b = net.segment(to_segment)
        via = self.distance(seg_a.end, seg_b.start)
        if math.isinf(via):
            return math.inf
        return seg_a.length - from_offset + via + to_offset

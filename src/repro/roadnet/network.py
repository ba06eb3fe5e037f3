"""Road network model (Definitions 2–5 of the paper).

A road network is a directed graph ``G(V, E)``: vertices are intersections,
edges are *road segments* carrying a polyline geometry, a length and a speed
constraint.  The network also answers the geometric query the whole paper is
built on — the *candidate edges* of a GPS point (Definition 5): all segments
whose distance to the point is below a threshold ε.  Inference reads them
through :class:`~repro.roadnet.engine.RoutingEngine`, which caches them and
builds the nearest-segment search on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.geo.polyline import (
    Projection,
    point_to_polyline_distance,
    polyline_bbox,
    polyline_length,
    project_point_to_polyline,
)
from repro.spatial.rtree import RTree

__all__ = ["RoadNode", "RoadSegment", "RoadNetwork", "CandidateEdge"]


@dataclass(frozen=True, slots=True)
class RoadNode:
    """A vertex of the road graph: an intersection or segment endpoint."""

    node_id: int
    point: Point


@dataclass(frozen=True, slots=True)
class RoadSegment:
    """A directed road segment (Definition 2).

    Attributes:
        segment_id: Unique id within the network.
        start: Id of the start vertex (``r.s``).
        end: Id of the end vertex (``r.e``).
        polyline: Shape points from start to end (at least two points).
        speed_limit: Maximum allowed speed in m/s (``r.speed``).
        length: Arc length in metres (``r.length``); derived from the
            polyline at construction time.
    """

    segment_id: int
    start: int
    end: int
    polyline: Tuple[Point, ...]
    speed_limit: float
    length: float

    @staticmethod
    def build(
        segment_id: int,
        start: int,
        end: int,
        polyline: Sequence[Point],
        speed_limit: float,
    ) -> "RoadSegment":
        """Construct a segment, deriving its length from the polyline."""
        if len(polyline) < 2:
            raise ValueError("a road segment polyline needs at least two points")
        if speed_limit <= 0:
            raise ValueError("speed limit must be positive")
        return RoadSegment(
            segment_id=segment_id,
            start=start,
            end=end,
            polyline=tuple(polyline),
            speed_limit=speed_limit,
            length=polyline_length(polyline),
        )

    def distance_to_point(self, p: Point) -> float:
        """``dist(p, r)`` of Definition 5: min distance from p to the shape."""
        return point_to_polyline_distance(p, self.polyline)

    def project(self, p: Point) -> Projection:
        """Project ``p`` onto the segment shape."""
        return project_point_to_polyline(p, self.polyline)

    def point_at(self, offset: float) -> Point:
        """Point at arc-length ``offset`` from the segment start."""
        from repro.geo.polyline import interpolate_along

        return interpolate_along(self.polyline, offset)

    @property
    def travel_time(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / self.speed_limit

    def bbox(self) -> BBox:
        return polyline_bbox(self.polyline)


@dataclass(frozen=True, slots=True)
class CandidateEdge:
    """A candidate edge of a GPS point, with its projection details."""

    segment: RoadSegment
    distance: float
    projection: Projection


class RoadNetwork:
    """Directed road graph with geometric candidate-edge queries.

    Build it incrementally with :meth:`add_node` / :meth:`add_segment`, or in
    one shot with :meth:`from_elements`.  The segment R-tree used by
    :meth:`candidate_edges` is built lazily on first query and invalidated by
    mutation; so is the node box of :meth:`bbox`, which only
    :meth:`add_node` moves.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, RoadNode] = {}
        self._segments: Dict[int, RoadSegment] = {}
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        self._cheapest: Dict[Tuple[int, int], int] = {}
        self._segment_index: Optional[RTree[int]] = None
        self._bbox: Optional[BBox] = None
        self._max_speed: float = 0.0

    # ---------------------------------------------------------------- builder

    @classmethod
    def from_elements(
        cls, nodes: Iterable[RoadNode], segments: Iterable[RoadSegment]
    ) -> "RoadNetwork":
        net = cls()
        for node in nodes:
            net.add_node(node)
        for seg in segments:
            net.add_segment(seg)
        return net

    def add_node(self, node: RoadNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._bbox = None  # invalidate the cached node box
        self._out.setdefault(node.node_id, [])
        self._in.setdefault(node.node_id, [])

    def add_segment(self, segment: RoadSegment) -> None:
        if segment.segment_id in self._segments:
            raise ValueError(f"duplicate segment id {segment.segment_id}")
        if segment.start not in self._nodes or segment.end not in self._nodes:
            raise ValueError(
                f"segment {segment.segment_id} references unknown node(s) "
                f"{segment.start} -> {segment.end}"
            )
        self._segments[segment.segment_id] = segment
        self._out[segment.start].append(segment.segment_id)
        self._in[segment.end].append(segment.segment_id)
        key = (segment.start, segment.end)
        incumbent = self._cheapest.get(key)
        if incumbent is None or segment.length < self._segments[incumbent].length:
            self._cheapest[key] = segment.segment_id
        if segment.speed_limit > self._max_speed:
            self._max_speed = segment.speed_limit
        self._segment_index = None  # invalidate lazy index

    # --------------------------------------------------------------- topology

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def max_speed(self) -> float:
        """``V_max``: the highest speed limit in the network (m/s)."""
        return self._max_speed

    def node(self, node_id: int) -> RoadNode:
        return self._nodes[node_id]

    def segment(self, segment_id: int) -> RoadSegment:
        return self._segments[segment_id]

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterable[RoadNode]:
        return self._nodes.values()

    def segments(self) -> Iterable[RoadSegment]:
        return self._segments.values()

    def out_segments(self, node_id: int) -> List[int]:
        """Segments departing from ``node_id``."""
        return self._out.get(node_id, [])

    def in_segments(self, node_id: int) -> List[int]:
        """Segments arriving at ``node_id``."""
        return self._in.get(node_id, [])

    def successors(self, segment_id: int) -> List[int]:
        """Segments that can directly follow ``segment_id`` on a route.

        These are the segments starting at this segment's end vertex
        (Definition 4's connectivity requirement ``r_{k+1}.s = r_k.e``).
        """
        return self._out.get(self._segments[segment_id].end, [])

    def predecessors(self, segment_id: int) -> List[int]:
        """Segments that can directly precede ``segment_id`` on a route."""
        return self._in.get(self._segments[segment_id].start, [])

    def cheapest_segment_between(self, start: int, end: int) -> Optional[int]:
        """Id of the shortest segment ``start -> end``; None if not adjacent.

        A precomputed adjacency map maintained by :meth:`add_segment`, so
        node-path-to-route conversion never scans ``out_segments``.  Among
        equal-length parallel segments the first added wins, matching the
        historical linear-scan behaviour.
        """
        return self._cheapest.get((start, end))

    def are_connected(self, first_id: int, second_id: int) -> bool:
        """True if ``second`` may directly follow ``first`` on a route."""
        return self._segments[first_id].end == self._segments[second_id].start

    def reverse_of(self, segment_id: int) -> Optional[int]:
        """The opposite-direction twin of a segment, if one exists."""
        seg = self._segments[segment_id]
        for sid in self._out.get(seg.end, []):
            if self._segments[sid].end == seg.start:
                return sid
        return None

    def bbox(self) -> BBox:
        """Bounding box of all node coordinates (cached until a node is added).

        Raises:
            ValueError: If the network has no nodes.
        """
        if self._bbox is None:
            self._bbox = BBox.from_points([n.point for n in self._nodes.values()])
        return self._bbox

    # -------------------------------------------------------------- geometric

    def _ensure_index(self) -> RTree[int]:
        if self._segment_index is None:
            self._segment_index = RTree.bulk_load(
                ((seg.bbox(), sid) for sid, seg in self._segments.items()),
                max_entries=16,
            )
        return self._segment_index

    def candidate_edges(self, p: Point, epsilon: float) -> List[CandidateEdge]:
        """Candidate edges of ``p`` (Definition 5), nearest first.

        All segments whose polyline comes within ``epsilon`` metres of ``p``.
        """
        index = self._ensure_index()
        out: List[CandidateEdge] = []
        for sid in index.search_bbox(BBox.around(p, epsilon)):
            seg = self._segments[sid]
            proj = seg.project(p)
            if proj.distance <= epsilon:
                out.append(CandidateEdge(seg, proj.distance, proj))
        out.sort(key=lambda c: c.distance)
        return out

    def nearest_node(self, p: Point) -> RoadNode:
        """The node nearest to ``p`` (linear in candidates via segment index)."""
        best = min(self._nodes.values(), key=lambda n: n.point.squared_distance_to(p))
        return best

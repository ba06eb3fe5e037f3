"""GPS trajectory model (Definition 1).

A trajectory is a time-ordered sequence of GPS points.  The paper
manipulates trajectories through a handful of primitives which all live
here: nearest-point lookup ``nn(q, T)``, sub-trajectory extraction, sampling
statistics and the low-sampling-rate predicate (ΔT > 2 min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geo.bbox import BBox
from repro.geo.point import Point

__all__ = [
    "GPSPoint",
    "Trajectory",
    "LOW_SAMPLING_THRESHOLD_S",
    "require_finite",
]

#: The paper considers ΔT > 2 minutes to be low-sampling-rate (Sec. II-A).
LOW_SAMPLING_THRESHOLD_S = 120.0


@dataclass(frozen=True, slots=True)
class GPSPoint:
    """A time-stamped GPS observation.

    Attributes:
        point: Planar position in metres.
        t: Timestamp in seconds (any consistent epoch).
    """

    point: Point
    t: float

    @property
    def x(self) -> float:
        return self.point.x

    @property
    def y(self) -> float:
        return self.point.y

    def distance_to(self, other: "GPSPoint") -> float:
        return self.point.distance_to(other.point)

    def speed_to(self, other: "GPSPoint") -> float:
        """Average straight-line speed to another observation (m/s).

        Raises:
            ValueError: If the two observations share a timestamp.
        """
        dt = abs(other.t - self.t)
        if dt == 0.0:
            raise ValueError("cannot compute speed between simultaneous points")
        return self.distance_to(other) / dt


def require_finite(points: Iterable[GPSPoint]) -> None:
    """Refuse observations with a NaN or infinite x, y or t.

    NaN passes every ordering check unnoticed (each comparison is false),
    and neither value has a place in the archive's point grid, so both
    are stopped where observations enter the system.

    Raises:
        ValueError: Naming the first non-finite observation.
    """
    isfinite = math.isfinite
    for p in points:
        if not (isfinite(p.point.x) and isfinite(p.point.y) and isfinite(p.t)):
            raise ValueError(
                f"observation ({p.point.x}, {p.point.y}, t={p.t}) is not finite"
            )


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A time-ordered sequence of GPS points (Definition 1).

    Attributes:
        traj_id: Stable identifier; reference-trajectory bookkeeping (the
            ``C_i(r)`` sets of the scoring functions) hinges on it.
        points: The observations, strictly increasing in time.
    """

    traj_id: int
    points: Tuple[GPSPoint, ...]

    @staticmethod
    def build(traj_id: int, points: Sequence[GPSPoint]) -> "Trajectory":
        """Construct a trajectory, validating values and temporal order.

        Raises:
            ValueError: If empty, if an x, y or t is NaN or infinite, or
                if timestamps are not strictly increasing.
        """
        if not points:
            raise ValueError("a trajectory needs at least one point")
        require_finite(points)
        for a, b in zip(points, points[1:]):
            if b.t <= a.t:
                raise ValueError(
                    f"timestamps must strictly increase ({a.t} -> {b.t})"
                )
        return Trajectory(traj_id, tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[GPSPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> GPSPoint:
        return self.points[index]

    @property
    def start_time(self) -> float:
        return self.points[0].t

    @property
    def end_time(self) -> float:
        return self.points[-1].t

    @property
    def duration(self) -> float:
        """Elapsed seconds between the first and last observation."""
        return self.end_time - self.start_time

    @property
    def mean_sampling_interval(self) -> float:
        """Average ΔT between consecutive points (0 for singletons)."""
        if len(self.points) < 2:
            return 0.0
        return self.duration / (len(self.points) - 1)

    @property
    def max_sampling_interval(self) -> float:
        """Largest gap between consecutive points (0 for singletons)."""
        if len(self.points) < 2:
            return 0.0
        return max(b.t - a.t for a, b in zip(self.points, self.points[1:]))

    def is_low_sampling_rate(
        self, threshold: float = LOW_SAMPLING_THRESHOLD_S
    ) -> bool:
        """True when the mean sampling interval exceeds the threshold."""
        return self.mean_sampling_interval > threshold

    def path_length(self) -> float:
        """Sum of straight-line hops between consecutive observations."""
        return sum(a.distance_to(b) for a, b in zip(self.points, self.points[1:]))

    def bbox(self) -> BBox:
        return BBox.from_points([p.point for p in self.points])

    def nearest_index(self, q: Point, indices: Optional[Iterable[int]] = None) -> int:
        """Index of ``nn(q, T)``: the observation nearest to ``q``.

        The scan compares squared distances (``Point.squared_distance_to``'s
        ``dx * dx + dy * dy``, computed inline) under strict ``<`` (lowest
        index wins ties).  Squared distances underflow to 0.0 for offsets
        below ~1e-162, which can tie points whose true distances differ;
        exact ties are therefore refined with ``math.hypot`` (the
        ``distance_to`` value, no underflow) so the winner really is the
        nearest observation.

        Args:
            indices: Scan only these observations, in ascending order
                (default: all of them).  The reference search passes a
                candidate's range-query hits.
        """
        points = self.points
        qx, qy = q.x, q.y
        best_i = 0
        best_d = math.inf
        best_exact = None
        for i in range(len(points)) if indices is None else indices:
            p = points[i].point
            dx = p.x - qx
            dy = p.y - qy
            d = dx * dx + dy * dy
            if d < best_d:
                best_d = d
                best_i = i
                best_exact = None
            elif d == best_d:
                if best_exact is None:
                    best = points[best_i].point
                    best_exact = math.hypot(best.x - qx, best.y - qy)
                exact = math.hypot(dx, dy)
                if exact < best_exact:
                    best_exact = exact
                    best_i = i
        return best_i

    def nearest_point(self, q: Point) -> GPSPoint:
        """``nn(q, T)`` itself."""
        return self.points[self.nearest_index(q)]

    def slice(self, start_index: int, end_index: int) -> "Trajectory":
        """The sub-trajectory ``points[start_index .. end_index]`` inclusive.

        Raises:
            ValueError: On an empty or reversed index range.
        """
        if start_index > end_index:
            raise ValueError(
                f"reversed slice [{start_index}, {end_index}]"
            )
        sub = self.points[start_index : end_index + 1]
        if not sub:
            raise ValueError(f"slice [{start_index}, {end_index}] is empty")
        return Trajectory(self.traj_id, sub)

    def time_window(self, t0: float, t1: float) -> Optional["Trajectory"]:
        """The sub-trajectory of observations with ``t0 <= t <= t1``.

        Returns None when no observation falls in the window.
        """
        sub = tuple(p for p in self.points if t0 <= p.t <= t1)
        if not sub:
            return None
        return Trajectory(self.traj_id, sub)

    def positions(self) -> List[Point]:
        """The bare coordinates, in order."""
        return [p.point for p in self.points]

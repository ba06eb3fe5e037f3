"""Axis-aligned bounding boxes.

Boxes describe range queries (the archive's ``points_in_bbox``, the
candidate-edge search window of a GPS point), road-segment extents and the
network's extent.  They are immutable; :meth:`BBox.union` returns a new box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geo.point import Point

__all__ = ["BBox"]


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate bbox: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    @staticmethod
    def from_points(points: Sequence[Point] | Iterable[Point]) -> "BBox":
        """The tight bounding box of a non-empty point collection.

        Raises:
            ValueError: If ``points`` is empty.
        """
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("bbox of an empty point collection is undefined")
        min_x = max_x = first.x
        min_y = max_y = first.y
        for p in it:
            if p.x < min_x:
                min_x = p.x
            elif p.x > max_x:
                max_x = p.x
            if p.y < min_y:
                min_y = p.y
            elif p.y > max_y:
                max_y = p.y
        return BBox(min_x, min_y, max_x, max_y)

    @staticmethod
    def around(p: Point, radius: float) -> "BBox":
        """A square box of half-width ``radius`` centred on ``p``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return BBox(p.x - radius, p.y - radius, p.x + radius, p.y + radius)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def intersects(self, other: "BBox") -> bool:
        """True if the two boxes share at least one point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BBox") -> "BBox":
        """The smallest box covering both boxes."""
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def min_distance_to_point(self, p: Point) -> float:
        """Smallest distance from ``p`` to any point of this box.

        Zero when ``p`` is inside the box.  The nearest-segment search
        bounds its radius with it.
        """
        dx = 0.0
        if p.x < self.min_x:
            dx = self.min_x - p.x
        elif p.x > self.max_x:
            dx = p.x - self.max_x
        dy = 0.0
        if p.y < self.min_y:
            dy = self.min_y - p.y
        elif p.y > self.max_y:
            dy = p.y - self.max_y
        return math.hypot(dx, dy)

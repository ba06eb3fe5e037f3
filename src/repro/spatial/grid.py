"""Uniform point grid: the archive's spatial index and the splice join's.

A hash of square cells, each holding flat ``(x, y, item)`` tuples in
insertion order.  It has two users:

* :class:`~repro.core.archive.InMemoryArchive` indexes every archive
  observation in it (the paper's "Indexing", Sec. II-B), so the reference
  search's φ range queries visit a handful of cells;
* the Definition-7 splice join indexes head observations in ε-sized cells
  and probes them with every tail observation.

Queries keep a point when ``math.hypot(x − cx, y − cy) <= r`` for a
circle and by closed containment for a box, so points exactly on a circle
or a box edge are hits.  The archive shard servers
(:class:`~repro.core.remote.ArchiveShardServer`) filter their tiles with
the same predicates and pick tiles with the same :func:`circle_pad` and
:func:`occupied_cells`, so every archive backend returns the same points;
the sharded client routes a box to shards with :func:`cell_range`.  Hits
come back cell by cell, ``ix``-major then ``iy``, and in insertion order
within a cell.
"""

from __future__ import annotations

import math
import sys
from typing import (
    Dict,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.geo.bbox import BBox
from repro.geo.point import Point

__all__ = [
    "GridIndex",
    "cell_range",
    "check_circle",
    "circle_pad",
    "occupied_cells",
]

T = TypeVar("T")
V = TypeVar("V")


def circle_pad(radius: float) -> float:
    """Half-width of the square that holds every hit of a circle query.

    Slightly more than ``radius``: ``hypot()`` rounding can pull a point
    that lies an ulp outside the exact box back onto the circle.
    """
    return radius * (1.0 + 1e-12) + 1e-9


def check_circle(center: Point, radius: float) -> None:
    """Refuse a circle query no grid can answer.

    Raises:
        ValueError: On a negative or NaN radius, or a non-finite centre.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative")
    cx, cy = center.x, center.y
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"query centre ({cx}, {cy}) is not finite")


def cell_range(
    min_x: float, min_y: float, max_x: float, max_y: float, cell: float, cap: int
) -> Optional[Tuple[range, range]]:
    """The ``ix`` and ``iy`` ranges of the ``cell``-sized cells a box meets.

    None when a side is infinite or NaN, or when the box meets more than
    ``cap`` cells: no finite range covers the first, and enumerating the
    second would cost more than the caller's alternative.
    """
    x0, x1, y0, y1 = min_x / cell, max_x / cell, min_y / cell, max_y / cell
    if not math.isfinite(x0 + x1 + y0 + y1):
        return None
    ix0, ix1 = math.floor(x0), math.floor(x1) + 1
    iy0, iy1 = math.floor(y0), math.floor(y1) + 1
    if (ix1 - ix0) * (iy1 - iy0) > cap:
        return None
    return range(ix0, ix1), range(iy0, iy1)


def occupied_cells(
    cells: Mapping[Tuple[int, int], V],
    min_x: float,
    min_y: float,
    max_x: float,
    max_y: float,
    cell: float,
) -> List[V]:
    """The contents of the occupied ``cells`` a box meets, ``ix``-major
    then ``iy``.

    The box's cells are looked up when there are no more of them than
    occupied cells; otherwise (or with a non-finite side) the sorted
    occupied keys are filtered, so a query costs ``O(min(area, cells))``.
    """
    span = cell_range(min_x, min_y, max_x, max_y, cell, len(cells))
    if span is not None:
        ixs, iys = span
        get = cells.get
        out: List[V] = []
        for ix in ixs:
            for iy in iys:
                found = get((ix, iy))
                if found is not None:
                    out.append(found)
        return out
    x0, x1, y0, y1 = min_x / cell, max_x / cell, min_y / cell, max_y / cell
    # ix >= floor(x0) holds exactly when x0 < ix + 1.
    return [
        cells[key]
        for key in sorted(cells)
        if x0 < key[0] + 1 and key[0] <= x1 and y0 < key[1] + 1 and key[1] <= y1
    ]


class GridIndex(Generic[T]):
    """Point index over uniform square cells.

    Args:
        cell_size: Side length of a grid cell in metres.
    """

    def __init__(self, cell_size: float) -> None:
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self._cell = cell_size
        self._cells: Dict[Tuple[int, int], List[Tuple[float, float, T]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def cell_size(self) -> float:
        return self._cell

    def _key(self, p: Point) -> Tuple[int, int]:
        try:
            return (math.floor(p.x / self._cell), math.floor(p.y / self._cell))
        except (OverflowError, ValueError):  # floor() of an infinity or a NaN
            raise ValueError(f"point ({p.x}, {p.y}) is not finite") from None

    def insert(self, p: Point, item: T) -> None:
        """Insert a point item.

        Raises:
            ValueError: If ``p`` has a non-finite coordinate.
        """
        key = self._key(p)
        bucket = self._cells.get(key)
        if bucket is None:
            bucket = self._cells[key] = []
        bucket.append((p.x, p.y, item))
        self._size += 1

    def extend(self, items: Iterable[Tuple[Point, T]]) -> None:
        """Insert many ``(point, item)`` pairs."""
        for p, item in items:
            self.insert(p, item)

    def remove(self, p: Point, item: T) -> bool:
        """Remove one ``item`` indexed at ``p``; True if it was present.

        Raises:
            ValueError: If ``p`` has a non-finite coordinate.
        """
        key = self._key(p)
        bucket = self._cells.get(key)
        if bucket is None:
            return False
        try:
            bucket.remove((p.x, p.y, item))
        except ValueError:
            return False
        if not bucket:
            del self._cells[key]
        self._size -= 1
        return True

    def search_bbox(self, query: BBox) -> List[T]:
        """All items whose point lies inside ``query`` (boundary included)."""
        x0, y0, x1, y1 = query.min_x, query.min_y, query.max_x, query.max_y
        out: List[T] = []
        for bucket in occupied_cells(self._cells, x0, y0, x1, y1, self._cell):
            out.extend(
                [item for x, y, item in bucket if x0 <= x <= x1 and y0 <= y <= y1]
            )
        return out

    def search_radius(self, center: Point, radius: float) -> List[T]:
        """All items within ``radius`` of ``center`` (``hypot <= radius``).

        Raises:
            ValueError: On a negative or NaN radius, or a non-finite centre.
        """
        check_circle(center, radius)
        cx, cy = center.x, center.y
        pad = circle_pad(radius)
        hypot = math.hypot
        out: List[T] = []
        cells = occupied_cells(
            self._cells, cx - pad, cy - pad, cx + pad, cy + pad, self._cell
        )
        for bucket in cells:
            out.extend(
                [item for x, y, item in bucket if hypot(x - cx, y - cy) <= radius]
            )
        return out

    def approx_nbytes(self) -> int:
        """Approximate bytes held by the cell table and its tuples.

        The items themselves are not counted (they are typically shared).
        """
        total = sys.getsizeof(self._cells)
        for key, bucket in self._cells.items():
            total += sys.getsizeof(key) + sys.getsizeof(bucket)
            total += len(bucket) * sys.getsizeof((0.0, 0.0, None))
        return total

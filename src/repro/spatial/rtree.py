"""An in-memory R-tree, implemented from scratch.

The paper's preprocessing component ("Indexing", Sec. II-B) organises all
archive GPS points in an R-tree so the reference-trajectory search can issue
range queries at the query points.  This module provides that substrate:

* quadratic-split insertion (Guttman's classic algorithm),
* Sort-Tile-Recursive (STR) bulk loading for building the archive index in
  one pass,
* rectangle range queries, circular range queries, and
* best-first k-nearest-neighbour search using the mindist bound.

Items are opaque; the tree stores ``(BBox, item)`` pairs.  Point data is
indexed via zero-area boxes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.geo.bbox import BBox
from repro.geo.point import Point

__all__ = ["RTree", "RTreeEntry"]

T = TypeVar("T")


@dataclass(slots=True)
class RTreeEntry(Generic[T]):
    """A leaf entry: a bounding box plus the user's item."""

    bbox: BBox
    item: T


class _Node(Generic[T]):
    """Internal tree node.  Leaves hold entries; inner nodes hold children."""

    __slots__ = ("leaf", "entries", "children", "bbox")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: List[RTreeEntry[T]] = []
        self.children: List["_Node[T]"] = []
        self.bbox: Optional[BBox] = None

    def recompute_bbox(self) -> None:
        boxes: List[BBox]
        if self.leaf:
            boxes = [e.bbox for e in self.entries]
        else:
            boxes = [c.bbox for c in self.children if c.bbox is not None]
        if not boxes:
            self.bbox = None
            return
        box = boxes[0]
        for b in boxes[1:]:
            box = box.union(b)
        self.bbox = box

    def extend_bbox(self, box: BBox) -> None:
        self.bbox = box if self.bbox is None else self.bbox.union(box)


class RTree(Generic[T]):
    """R-tree over ``(BBox, item)`` pairs.

    Args:
        max_entries: Maximum fanout of a node before it splits.
        min_entries: Minimum fill after a split; defaults to ``max_entries//2``.
    """

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._max = max_entries
        self._min = min_entries if min_entries is not None else max_entries // 2
        if not (1 <= self._min <= self._max // 2):
            raise ValueError("min_entries must be in [1, max_entries // 2]")
        self._root: _Node[T] = _Node(leaf=True)
        self._size = 0

    # ------------------------------------------------------------------ build

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels in the tree (1 for a single leaf root)."""
        h = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            h += 1
        return h

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Tuple[BBox, T]],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree[T]":
        """Build a packed tree with Sort-Tile-Recursive (STR) loading.

        STR sorts entries by centre x, slices them into vertical tiles, sorts
        each tile by centre y and packs runs of ``max_entries`` into leaves;
        the procedure recurses on the resulting level until one root remains.
        """
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        entries = [RTreeEntry(bbox, item) for bbox, item in items]
        tree._size = len(entries)
        if not entries:
            return tree

        leaves = tree._str_pack_leaves(entries)
        level: List[_Node[T]] = leaves
        while len(level) > 1:
            level = tree._str_pack_inner(level)
        tree._root = level[0]
        return tree

    def _str_pack_leaves(self, entries: List[RTreeEntry[T]]) -> List["_Node[T]"]:
        cap = self._max
        n_leaves = math.ceil(len(entries) / cap)
        n_slices = max(1, math.ceil(math.sqrt(n_leaves)))
        per_slice = n_slices * cap

        entries.sort(key=lambda e: e.bbox.center.x)
        leaves: List[_Node[T]] = []
        for s in range(0, len(entries), per_slice):
            tile = sorted(entries[s : s + per_slice], key=lambda e: e.bbox.center.y)
            for i in range(0, len(tile), cap):
                node: _Node[T] = _Node(leaf=True)
                node.entries = tile[i : i + cap]
                node.recompute_bbox()
                leaves.append(node)
        return leaves

    def _str_pack_inner(self, nodes: List["_Node[T]"]) -> List["_Node[T]"]:
        cap = self._max
        n_parents = math.ceil(len(nodes) / cap)
        n_slices = max(1, math.ceil(math.sqrt(n_parents)))
        per_slice = n_slices * cap

        nodes.sort(key=lambda nd: nd.bbox.center.x if nd.bbox else 0.0)
        parents: List[_Node[T]] = []
        for s in range(0, len(nodes), per_slice):
            tile = sorted(
                nodes[s : s + per_slice],
                key=lambda nd: nd.bbox.center.y if nd.bbox else 0.0,
            )
            for i in range(0, len(tile), cap):
                parent: _Node[T] = _Node(leaf=False)
                parent.children = tile[i : i + cap]
                parent.recompute_bbox()
                parents.append(parent)
        return parents

    # ----------------------------------------------------------------- insert

    def insert(self, bbox: BBox, item: T) -> None:
        """Insert one entry (Guttman insertion with quadratic split)."""
        entry = RTreeEntry(bbox, item)
        split = self._insert_into(self._root, entry)
        if split is not None:
            old_root = self._root
            new_root: _Node[T] = _Node(leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_bbox()
            self._root = new_root
        self._size += 1

    def insert_point(self, p: Point, item: T) -> None:
        """Insert a point item with a zero-area box."""
        self.insert(BBox.from_point(p), item)

    def _insert_into(self, node: _Node[T], entry: RTreeEntry[T]) -> Optional[_Node[T]]:
        node.extend_bbox(entry.bbox)
        if node.leaf:
            node.entries.append(entry)
            if len(node.entries) > self._max:
                return self._split_leaf(node)
            return None

        child = self._choose_subtree(node, entry.bbox)
        split = self._insert_into(child, entry)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self._max:
                return self._split_inner(node)
            node.recompute_bbox()
        return None

    def _choose_subtree(self, node: _Node[T], box: BBox) -> _Node[T]:
        best = None
        best_enlargement = math.inf
        best_area = math.inf
        for child in node.children:
            assert child.bbox is not None
            enlargement = child.bbox.enlargement(box)
            area = child.bbox.area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best = child
                best_enlargement = enlargement
                best_area = area
        assert best is not None
        return best

    # Quadratic split: pick the pair of items wasting the most area as seeds,
    # then greedily assign the rest by maximal preference difference.
    def _split_leaf(self, node: _Node[T]) -> _Node[T]:
        groups = self._quadratic_split([e.bbox for e in node.entries])
        left_idx, right_idx = groups
        all_entries = node.entries
        node.entries = [all_entries[i] for i in left_idx]
        node.recompute_bbox()
        sibling: _Node[T] = _Node(leaf=True)
        sibling.entries = [all_entries[i] for i in right_idx]
        sibling.recompute_bbox()
        return sibling

    def _split_inner(self, node: _Node[T]) -> _Node[T]:
        boxes = [c.bbox for c in node.children]
        assert all(b is not None for b in boxes)
        groups = self._quadratic_split(boxes)  # type: ignore[arg-type]
        left_idx, right_idx = groups
        all_children = node.children
        node.children = [all_children[i] for i in left_idx]
        node.recompute_bbox()
        sibling: _Node[T] = _Node(leaf=False)
        sibling.children = [all_children[i] for i in right_idx]
        sibling.recompute_bbox()
        return sibling

    def _quadratic_split(self, boxes: Sequence[BBox]) -> Tuple[List[int], List[int]]:
        n = len(boxes)
        # Seed selection: the pair whose covering box wastes the most area.
        worst = -math.inf
        seed_a, seed_b = 0, 1
        for i, j in itertools.combinations(range(n), 2):
            waste = boxes[i].union(boxes[j]).area - boxes[i].area - boxes[j].area
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j

        left = [seed_a]
        right = [seed_b]
        left_box = boxes[seed_a]
        right_box = boxes[seed_b]
        remaining = [i for i in range(n) if i not in (seed_a, seed_b)]

        while remaining:
            # Force-assign when one group must absorb everything left to
            # satisfy the minimum fill requirement.
            if len(left) + len(remaining) <= self._min:
                for i in remaining:
                    left.append(i)
                    left_box = left_box.union(boxes[i])
                break
            if len(right) + len(remaining) <= self._min:
                for i in remaining:
                    right.append(i)
                    right_box = right_box.union(boxes[i])
                break

            # Pick the entry with the strongest preference for either group.
            best_i = remaining[0]
            best_diff = -math.inf
            best_d_left = 0.0
            best_d_right = 0.0
            for i in remaining:
                d_left = left_box.enlargement(boxes[i])
                d_right = right_box.enlargement(boxes[i])
                diff = abs(d_left - d_right)
                if diff > best_diff:
                    best_diff = diff
                    best_i = i
                    best_d_left = d_left
                    best_d_right = d_right
            remaining.remove(best_i)
            if best_d_left < best_d_right or (
                best_d_left == best_d_right and left_box.area <= right_box.area
            ):
                left.append(best_i)
                left_box = left_box.union(boxes[best_i])
            else:
                right.append(best_i)
                right_box = right_box.union(boxes[best_i])

        return left, right

    # ----------------------------------------------------------------- delete

    def remove(self, bbox: BBox, item: T) -> bool:
        """Remove one entry whose box equals ``bbox`` and item equals
        ``item`` (by ``==``).

        Classic R-tree deletion: locate the hosting leaf, drop the entry,
        then *condense* — underfull nodes along the path are dissolved and
        their surviving entries reinserted, and bounding boxes shrink back.

        Returns:
            True if an entry was removed, False if none matched.
        """
        path = self._find_leaf(self._root, bbox, item, [])
        if path is None:
            return False
        leaf = path[-1]
        for i, entry in enumerate(leaf.entries):
            if entry.bbox == bbox and entry.item == item:
                del leaf.entries[i]
                break
        self._size -= 1
        self._condense(path)
        # Shrink the tree when the root is a lone-child inner node.
        while not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        if self._root.leaf and not self._root.entries:
            self._root.bbox = None
        return True

    def remove_point(self, p: Point, item: T) -> bool:
        """Remove a point entry inserted via :meth:`insert_point`."""
        return self.remove(BBox.from_point(p), item)

    def _find_leaf(
        self,
        node: "_Node[T]",
        bbox: BBox,
        item: T,
        path: List["_Node[T]"],
    ) -> Optional[List["_Node[T]"]]:
        if node.bbox is None or not node.bbox.contains_bbox(bbox):
            return None
        path.append(node)
        if node.leaf:
            for entry in node.entries:
                if entry.bbox == bbox and entry.item == item:
                    return path
            path.pop()
            return None
        for child in node.children:
            found = self._find_leaf(child, bbox, item, path)
            if found is not None:
                return found
        path.pop()
        return None

    def _condense(self, path: List["_Node[T]"]) -> None:
        """Dissolve underfull nodes bottom-up, reinserting survivors."""
        orphans: List[RTreeEntry[T]] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            fill = len(node.entries) if node.leaf else len(node.children)
            if fill < self._min:
                parent.children.remove(node)
                for __, entry_item in self._collect_entries(node):
                    orphans.append(entry_item)
            else:
                node.recompute_bbox()
        path[0].recompute_bbox()
        for entry in orphans:
            # Reinsert without touching the size counter: the entries were
            # already counted.
            split = self._insert_into(self._root, entry)
            if split is not None:
                old_root = self._root
                new_root: _Node[T] = _Node(leaf=False)
                new_root.children = [old_root, split]
                new_root.recompute_bbox()
                self._root = new_root

    def _collect_entries(
        self, node: "_Node[T]"
    ) -> List[Tuple[BBox, RTreeEntry[T]]]:
        out: List[Tuple[BBox, RTreeEntry[T]]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.leaf:
                out.extend((e.bbox, e) for e in current.entries)
            else:
                stack.extend(current.children)
        return out

    # ---------------------------------------------------------------- queries

    def search_bbox(self, query: BBox) -> List[T]:
        """All items whose boxes intersect ``query``."""
        out: List[T] = []
        self._search(self._root, query, out)
        return out

    def _search(self, node: _Node[T], query: BBox, out: List[T]) -> None:
        if node.bbox is None or not node.bbox.intersects(query):
            return
        if node.leaf:
            for e in node.entries:
                if e.bbox.intersects(query):
                    out.append(e.item)
            return
        for child in node.children:
            self._search(child, query, out)

    def search_radius(
        self,
        center: Point,
        radius: float,
        position: Optional[Callable[[T], Point]] = None,
    ) -> List[T]:
        """All items within ``radius`` of ``center``.

        For point items pass ``position`` to extract the item's coordinate;
        without it the filter falls back to the bbox mindist, which is exact
        for zero-area (point) boxes and conservative otherwise.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        box = BBox.around(center, radius)
        out: List[T] = []
        self._search_radius(self._root, box, center, radius, position, out)
        return out

    def _search_radius(
        self,
        node: _Node[T],
        box: BBox,
        center: Point,
        radius: float,
        position: Optional[Callable[[T], Point]],
        out: List[T],
    ) -> None:
        if node.bbox is None or not node.bbox.intersects(box):
            return
        if node.leaf:
            for e in node.entries:
                if position is not None:
                    if position(e.item).distance_to(center) <= radius:
                        out.append(e.item)
                elif e.bbox.min_distance_to_point(center) <= radius:
                    out.append(e.item)
            return
        for child in node.children:
            self._search_radius(child, box, center, radius, position, out)

    def search_radius_many(
        self,
        queries: Sequence[Tuple[Point, float]],
        position: Optional[Callable[[T], Point]] = None,
    ) -> List[List[T]]:
        """Range queries for several ``(center, radius)`` circles at once.

        One tree walk serves every circle: a node is descended if *any*
        query circle intersects its box, and each leaf entry is tested
        against the circles whose boxes it intersects.  Equivalent to
        calling :meth:`search_radius` per circle, but without repeating the
        shared upper levels of the traversal — an archive shard server
        answers a batch of circles over one tile this way.

        Returns:
            One result list per query, in query order.
        """
        for __, radius in queries:
            if radius < 0:
                raise ValueError("radius must be non-negative")
        boxes = [BBox.around(center, radius) for center, radius in queries]
        out: List[List[T]] = [[] for __ in queries]
        if not queries:
            return out
        self._search_radius_many(self._root, queries, boxes, position, out)
        return out

    def _search_radius_many(
        self,
        node: _Node[T],
        queries: Sequence[Tuple[Point, float]],
        boxes: Sequence[BBox],
        position: Optional[Callable[[T], Point]],
        out: List[List[T]],
    ) -> None:
        if node.bbox is None:
            return
        live = [i for i, box in enumerate(boxes) if node.bbox.intersects(box)]
        if not live:
            return
        if node.leaf:
            for e in node.entries:
                for i in live:
                    center, radius = queries[i]
                    if position is not None:
                        if position(e.item).distance_to(center) <= radius:
                            out[i].append(e.item)
                    elif e.bbox.min_distance_to_point(center) <= radius:
                        out[i].append(e.item)
            return
        for child in node.children:
            self._search_radius_many(child, queries, boxes, position, out)

    def nearest(
        self,
        query: Point,
        k: int = 1,
        position: Optional[Callable[[T], Point]] = None,
    ) -> List[Tuple[float, T]]:
        """The ``k`` nearest items to ``query`` as ``(distance, item)`` pairs.

        Best-first search: a priority queue of nodes/entries ordered by
        mindist guarantees items pop in exact distance order.
        """
        if k <= 0:
            return []
        counter = itertools.count()
        heap: List[Tuple[float, int, object]] = []
        if self._root.bbox is not None:
            heapq.heappush(
                heap, (self._root.bbox.min_distance_to_point(query), next(counter), self._root)
            )
        results: List[Tuple[float, T]] = []
        while heap and len(results) < k:
            dist, _, obj = heapq.heappop(heap)
            if isinstance(obj, _Node):
                if obj.leaf:
                    for e in obj.entries:
                        if position is not None:
                            d = position(e.item).distance_to(query)
                        else:
                            d = e.bbox.min_distance_to_point(query)
                        heapq.heappush(heap, (d, next(counter), e))
                else:
                    for child in obj.children:
                        if child.bbox is not None:
                            heapq.heappush(
                                heap,
                                (
                                    child.bbox.min_distance_to_point(query),
                                    next(counter),
                                    child,
                                ),
                            )
            else:
                entry = obj
                assert isinstance(entry, RTreeEntry)
                results.append((dist, entry.item))
        return results

    def approx_nbytes(self) -> int:
        """Approximate resident size of the index structure, in bytes.

        Walks nodes, child lists, entries and their boxes with
        ``sys.getsizeof``; the indexed *items* themselves are not counted
        (they are owned by the caller and typically shared).  Used by the
        archive layer to report per-worker resident index size.
        """
        import sys as _sys

        total = _sys.getsizeof(self)
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += _sys.getsizeof(node)
            if node.bbox is not None:
                total += _sys.getsizeof(node.bbox)
            if node.leaf:
                total += _sys.getsizeof(node.entries)
                for e in node.entries:
                    total += _sys.getsizeof(e) + _sys.getsizeof(e.bbox)
            else:
                total += _sys.getsizeof(node.children)
                stack.extend(node.children)
        return total

    def items(self) -> Iterator[Tuple[BBox, T]]:
        """Iterate over all ``(bbox, item)`` pairs in the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for e in node.entries:
                    yield (e.bbox, e.item)
            else:
                stack.extend(node.children)

    def check_invariants(self) -> None:
        """Validate structural invariants; raises ``AssertionError`` on damage.

        Used by the property-based tests: every parent box must cover its
        children, leaf depth must be uniform, and node fill must respect the
        configured bounds (the root is exempt).
        """
        depths: List[int] = []

        def visit(node: _Node[T], depth: int, is_root: bool) -> None:
            if node.leaf:
                depths.append(depth)
                # STR packing may legitimately underfill the trailing leaf of
                # a tile, so only the upper fill bound is a hard invariant.
                assert len(node.entries) <= self._max, (
                    f"leaf fill {len(node.entries)} exceeds {self._max}"
                )
                for e in node.entries:
                    assert node.bbox is not None and node.bbox.contains_bbox(e.bbox)
                return
            assert len(node.children) <= self._max
            assert node.children, "inner node with no children"
            for child in node.children:
                assert child.bbox is not None
                assert node.bbox is not None and node.bbox.contains_bbox(child.bbox)
                visit(child, depth + 1, False)

        visit(self._root, 0, True)
        assert len(set(depths)) <= 1, "leaves at different depths"

        total = sum(1 for __ in self.items())
        assert total == self._size, f"size mismatch: {total} != {self._size}"

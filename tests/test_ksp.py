"""Unit, property and differential tests for Yen's K-shortest paths.

``yen_k_shortest_paths_many`` serves every source/target pair of a graph
in one call — one int-indexed copy, one Dijkstra per source, spur searches
cut by reverse-distance bounds — and ``yen_k_shortest_paths`` is its
one-pair case.  The plain label-keyed Yen lives on here as the reference
(:func:`reference_yen_k_shortest_paths` over :func:`dijkstra_generic`):
for every pair the production search must return exactly its paths and
float costs, ties included.
"""

import heapq
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.traverse_graph as traverse_graph
from repro.core.reference import ReferenceSearch, ReferenceSearchConfig
from repro.core.traverse_graph import TGIConfig, TraverseGraphInference
from repro.roadnet.ksp import yen_k_shortest_paths, yen_k_shortest_paths_many
from repro.trajectory.resample import downsample


def dijkstra_generic(adj, source, target, removed_edges=None, removed_nodes=None):
    """Reference Dijkstra over node labels; ``(inf, [])`` when unreachable.

    ``removed_edges`` / ``removed_nodes`` are treated as absent (the source
    is exempt from ``removed_nodes``).
    """
    if source == target:
        return 0.0, [source]
    dist = {source: 0.0}
    prev = {}
    counter = 0
    heap = [(0.0, counter, source)]
    settled = set()
    adj_get = None if callable(adj) else adj.get
    while heap:
        d, __, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        for v, w in adj(u) if adj_get is None else adj_get(u, ()):
            if v in settled:
                continue
            if removed_nodes is not None and v in removed_nodes:
                continue
            if removed_edges is not None and (u, v) in removed_edges:
                continue
            if w < 0:
                raise ValueError("negative edge weights are not supported")
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    return math.inf, []


def reference_yen_k_shortest_paths(adj, source, target, k):
    """Reference Yen (Lawler's deviation index, prefix costs per iteration)
    over :func:`dijkstra_generic`, on the graph's own node labels."""
    if k <= 0:
        return []
    if callable(adj):
        neighbors_of = adj
    else:
        neighbors_of = lambda u: adj.get(u, ())  # noqa: E731
    best_cost, best_path = dijkstra_generic(adj, source, target)
    if not best_path:
        return []
    paths = [(best_cost, best_path)]
    candidates = []
    seen_paths = {tuple(best_path)}
    counter = 0
    deviation_of = [0]
    while len(paths) < k:
        __, prev_path = paths[-1]
        prefix_costs = [0.0]
        for u, v in zip(prev_path, prev_path[1:]):
            w = min((wt for n, wt in neighbors_of(u) if n == v), default=math.inf)
            prefix_costs.append(prefix_costs[-1] + w)
        for i in range(deviation_of[-1], len(prev_path) - 1):
            spur_node = prev_path[i]
            root_path = prev_path[: i + 1]
            removed_edges = set()
            for __, p in paths:
                if len(p) > i and p[: i + 1] == root_path:
                    removed_edges.add((p[i], p[i + 1]))
            removed_nodes = set(root_path[:-1])
            spur_cost, spur_path = dijkstra_generic(
                adj, spur_node, target, removed_edges, removed_nodes
            )
            if not spur_path:
                continue
            total_path = root_path[:-1] + spur_path
            key = tuple(total_path)
            if key in seen_paths:
                continue
            seen_paths.add(key)
            counter += 1
            heapq.heappush(
                candidates, (prefix_costs[i] + spur_cost, counter, i, total_path)
            )
        if not candidates:
            break
        cost, __, dev, path = heapq.heappop(candidates)
        paths.append((cost, path))
        deviation_of.append(dev)
    return paths


def adj_from_dict(graph):
    return lambda n: iter(graph.get(n, []))


DIAMOND = {
    "s": [("a", 1.0), ("b", 2.0)],
    "a": [("t", 1.0), ("b", 0.5)],
    "b": [("t", 1.0)],
    "t": [],
}


class TestDijkstraGeneric:
    def test_trivial(self):
        assert dijkstra_generic(adj_from_dict(DIAMOND), "s", "s") == (0.0, ["s"])

    def test_shortest(self):
        cost, path = dijkstra_generic(adj_from_dict(DIAMOND), "s", "t")
        assert cost == 2.0
        assert path == ["s", "a", "t"]

    def test_unreachable(self):
        cost, path = dijkstra_generic(adj_from_dict({"s": []}), "s", "t")
        assert math.isinf(cost)
        assert path == []

    def test_removed_edge(self):
        cost, path = dijkstra_generic(
            adj_from_dict(DIAMOND), "s", "t", removed_edges={("s", "a")}
        )
        assert path == ["s", "b", "t"]

    def test_removed_node(self):
        cost, path = dijkstra_generic(
            adj_from_dict(DIAMOND), "s", "t", removed_nodes={"a"}
        )
        assert path == ["s", "b", "t"]

    def test_negative_weight_raises(self):
        bad = {"s": [("t", -1.0)], "t": []}
        with pytest.raises(ValueError):
            dijkstra_generic(adj_from_dict(bad), "s", "t")


class TestYen:
    def test_k_zero(self):
        assert yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 0) == []

    def test_no_path(self):
        assert yen_k_shortest_paths(adj_from_dict({"s": []}), "s", "t", 3) == []

    def test_source_is_target(self):
        assert yen_k_shortest_paths(DIAMOND, "s", "s", 3) == [(0.0, ["s"])]

    def test_diamond_all_paths(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        assert [cost for cost, __ in got] == [2.0, 2.5, 3.0]
        assert got[0][1] == ["s", "a", "t"]
        assert got[1][1] == ["s", "a", "b", "t"]
        assert got[2][1] == ["s", "b", "t"]

    def test_costs_nondecreasing(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        costs = [c for c, __ in got]
        assert costs == sorted(costs)

    def test_paths_distinct_and_loopless(self):
        got = yen_k_shortest_paths(adj_from_dict(DIAMOND), "s", "t", 5)
        keys = {tuple(p) for __, p in got}
        assert len(keys) == len(got)
        for __, p in got:
            assert len(set(p)) == len(p)

    def test_grid_graph(self):
        # 3x3 lattice: number of monotone shortest paths from corner to
        # corner is C(4,2)=6, all of cost 4.
        graph = {}
        for x in range(3):
            for y in range(3):
                out = []
                if x < 2:
                    out.append(((x + 1, y), 1.0))
                if y < 2:
                    out.append(((x, y + 1), 1.0))
                graph[(x, y)] = out
        got = yen_k_shortest_paths(adj_from_dict(graph), (0, 0), (2, 2), 6)
        assert len(got) == 6
        assert all(cost == 4.0 for cost, __ in got)

    @pytest.mark.parametrize("as_mapping", [False, True])
    def test_negative_weight_raises(self, as_mapping):
        bad = {"s": [("a", 1.0)], "a": [("t", -1.0)], "t": []}
        adj = bad if as_mapping else adj_from_dict(bad)
        with pytest.raises(ValueError):
            yen_k_shortest_paths(adj, "s", "t", 3)


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(4, 8))
    edges = {}
    for u in range(n):
        out = []
        for v in range(n):
            if u == v:
                continue
            if draw(st.booleans()):
                w = draw(st.floats(0.1, 10.0))
                out.append((v, w))
        edges[u] = out
    return n, edges


@st.composite
def tie_heavy_digraphs(draw):
    """Small digraphs with integer weights in 0..3: many equal-cost paths,
    zero-weight edges, parallel edges and self-loops, so every tie-break
    shows."""
    n = draw(st.integers(2, 8))
    edges = {
        u: draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)), max_size=5)
        )
        for u in range(n)
    }
    return n, edges


def brute_force_k_paths(graph, s, t, k, max_len=8):
    """All simple paths up to max_len, scored and sorted."""

    def cost_of(path):
        total = 0.0
        for u, v in zip(path, path[1:]):
            w = min((w for n, w in graph[u] if n == v), default=math.inf)
            total += w
        return total

    results = []

    def dfs(node, path):
        if len(path) > max_len:
            return
        if node == t:
            results.append((cost_of(path), list(path)))
            return
        for v, __ in graph[node]:
            if v not in path:
                path.append(v)
                dfs(v, path)
                path.pop()

    dfs(s, [s])
    results.sort(key=lambda pair: (pair[0], pair[1]))
    return results[:k]


class TestYenDifferential:
    @settings(max_examples=30, deadline=None)
    @given(random_digraphs(), st.integers(1, 4))
    def test_costs_match_brute_force(self, graph_spec, k):
        n, graph = graph_spec
        got = yen_k_shortest_paths(adj_from_dict(graph), 0, n - 1, k)
        expected = brute_force_k_paths(graph, 0, n - 1, k)
        got_costs = [round(c, 9) for c, __ in got]
        expected_costs = [round(c, 9) for c, __ in expected]
        assert got_costs == expected_costs


class TestYenMatchesReference:
    """The indexed search returns the reference's exact paths and costs."""

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_digraphs(), st.data(), st.integers(1, 8), st.booleans())
    def test_tie_heavy_integer_weights(self, graph_spec, data, k, as_mapping):
        n, graph = graph_spec
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        adj = graph if as_mapping else adj_from_dict(graph)
        assert yen_k_shortest_paths(adj, s, t, k) == reference_yen_k_shortest_paths(
            adj, s, t, k
        )

    @settings(max_examples=60, deadline=None)
    @given(random_digraphs(), st.integers(1, 6), st.booleans())
    def test_float_weights(self, graph_spec, k, as_mapping):
        n, graph = graph_spec
        adj = graph if as_mapping else adj_from_dict(graph)
        assert yen_k_shortest_paths(
            adj, 0, n - 1, k
        ) == reference_yen_k_shortest_paths(adj, 0, n - 1, k)

    def test_label_types_survive(self):
        graph = {("a", 1): [("b", 1.0), (("c",), 1.0)], "b": [(("c",), 0.0)]}
        got = yen_k_shortest_paths(graph, ("a", 1), ("c",), 3)
        assert got == reference_yen_k_shortest_paths(graph, ("a", 1), ("c",), 3)
        assert [path for __, path in got] == [
            [("a", 1), ("c",)],
            [("a", 1), "b", ("c",)],
        ]


#: Weights whose sums tie one ulp apart: 0.1 + 0.2 is 0.30000000000000004,
#: not 0.3, so forward and backward sums of one path can differ.
ULP_WEIGHTS = (0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 1.0)

#: The forward cost of the second path, 0.1 + 0.3 + 0.30000000000000004 +
#: 0.3, is 1.0, while its spur bound, summed backwards from the target,
#: reads 1.0000000000000002: without the cut's slack the spur search is
#: skipped and (1.0, [2, 1, 4]) comes second instead.
ULP_GRAPH = {
    0: [(1, 0.3)],
    1: [(4, 0.7), (3, 0.30000000000000004)],
    2: [(0, 0.1), (1, 0.30000000000000004)],
    3: [(4, 0.3)],
}


#: Edges that can never be used (inf) and path costs that overflow to inf,
#: which plain Yen still ranks (as inf) once the finite ones run out.
EXTREME_WEIGHTS = (0.0, 1.0, 5e307, 1e308, math.inf)

#: Its third path costs inf: 1e308 + 1e308 overflows in the root prefix,
#: and the spur search from there must still find 5e307 onwards.
OVERFLOW_GRAPH = {
    1: [(4, 1e308), (5, 1.0)],
    3: [(1, 1e308)],
    4: [(5, 0.0), (2, 5e307)],
    5: [(2, 0.0)],
}


@st.composite
def sampled_weight_digraphs(draw, weights):
    """Small digraphs over the given weights, with parallel edges and
    self-loops."""
    n = draw(st.integers(2, 8))
    edges = {
        u: draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.sampled_from(weights)),
                max_size=5,
            )
        )
        for u in range(n)
    }
    return n, edges


@st.composite
def multi_target_instances(draw):
    """A graph with 1–4 sources and 1–4 targets, which may overlap; targets
    ``n`` and ``n + 1`` appear in no edge and are never reached."""
    n, graph = draw(
        st.one_of(
            tie_heavy_digraphs(),
            sampled_weight_digraphs(ULP_WEIGHTS),
            sampled_weight_digraphs(EXTREME_WEIGHTS),
        )
    )
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    targets = draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=4))
    return graph, sources, targets


def per_pair_reference(adj, sources, targets, k):
    return [
        reference_yen_k_shortest_paths(adj, s, t, k) for s in sources for t in targets
    ]


def grid_graph(nx, ny, weight_of):
    """A two-way ``nx`` x ``ny`` lattice; ``weight_of(u, v)`` weighs an edge."""
    graph = {}
    for x in range(nx):
        for y in range(ny):
            graph[(x, y)] = [
                ((x + dx, y + dy), weight_of((x, y), (x + dx, y + dy)))
                for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
                if 0 <= x + dx < nx and 0 <= y + dy < ny
            ]
    return graph


class TestYenManyMatchesReference:
    """Every pair's answer is the per-pair reference's, by ``==``."""

    @settings(max_examples=300, deadline=None)
    @given(multi_target_instances(), st.integers(1, 8), st.booleans())
    @example(instance=(ULP_GRAPH, [2], [4]), k=2, as_mapping=True)
    @example(instance=(ULP_GRAPH, [2], [4]), k=2, as_mapping=False)
    @example(instance=(OVERFLOW_GRAPH, [3], [2]), k=3, as_mapping=True)
    def test_random_digraphs(self, instance, k, as_mapping):
        graph, sources, targets = instance
        adj = graph if as_mapping else adj_from_dict(graph)
        assert yen_k_shortest_paths_many(
            adj, sources, targets, k
        ) == per_pair_reference(adj, sources, targets, k)

    def test_ulp_tie_case(self):
        expected = [(0.9000000000000001, [2, 1, 3, 4]), (1.0, [2, 0, 1, 3, 4])]
        assert reference_yen_k_shortest_paths(ULP_GRAPH, 2, 4, 2) == expected
        assert yen_k_shortest_paths(ULP_GRAPH, 2, 4, 2) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(3, 5),
        st.integers(3, 6),
        st.sampled_from(["unit", "ulp"]),
        st.data(),
        st.integers(10, 60),
    )
    def test_grid_graphs_large_k(self, nx, ny, weights, data, k):
        # The regime of count_plausible_routes (k = 200 on a road grid):
        # many equal-cost paths, long candidate queues, deep iterations.
        if weights == "unit":
            graph = grid_graph(nx, ny, lambda u, v: 1.0)
        else:
            graph = grid_graph(
                nx, ny, lambda u, v: ULP_WEIGHTS[(3 * u[0] + 5 * u[1] + v[0]) % 6]
            )
        cells = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
        sources = data.draw(st.lists(cells, min_size=1, max_size=2))
        targets = data.draw(st.lists(cells, min_size=1, max_size=2))
        assert yen_k_shortest_paths_many(
            graph, sources, targets, k
        ) == per_pair_reference(graph, sources, targets, k)

    def test_empty_and_degenerate(self):
        graph = {"s": [("t", 1.0)], "t": []}
        assert yen_k_shortest_paths_many(graph, ["s", "t"], ["t", "s"], 0) == [
            [],
            [],
            [],
            [],
        ]
        assert yen_k_shortest_paths_many(graph, ["s", "t"], ["t", "s"], 3) == [
            [(1.0, ["s", "t"])],
            [(0.0, ["s"])],
            [(0.0, ["t"])],
            [],
        ]

    def test_negative_weight_raises_only_for_indexed_sources(self):
        graph = {"s": [("a", 1.0)], "a": [("t", -1.0)], "t": []}
        with pytest.raises(ValueError):
            yen_k_shortest_paths_many(graph, ["t", "s"], ["t"], 3)
        # A source paired only with itself is never searched.
        assert yen_k_shortest_paths_many(graph, ["s"], ["s"], 3) == [
            [(0.0, ["s"])]
        ]


class TestTraverseGraphCallsMatchReference:
    def test_every_tgi_call_equals_per_pair_reference(
        self, corridor_world, monkeypatch
    ):
        calls = []

        def checked(adj, sources, targets, k):
            got = yen_k_shortest_paths_many(adj, sources, targets, k)
            assert got == per_pair_reference(adj, sources, targets, k)
            calls.append(len(got))
            return got

        monkeypatch.setattr(traverse_graph, "yen_k_shortest_paths_many", checked)
        world = corridor_world
        search = ReferenceSearch(
            world.archive, world.network, ReferenceSearchConfig(phi=500.0)
        )
        query = downsample(world.query, 180.0)
        for k in (5, 8):
            tgi = TraverseGraphInference(world.network, TGIConfig(k_shortest=k))
            for qi, qi1 in zip(query, query[1:]):
                routes, stats = tgi.infer(qi.point, qi1.point, search.search(qi, qi1))
                assert routes
                assert stats.n_ksp_calls == calls[-1]
        assert len(calls) == 2 * (len(query) - 1)

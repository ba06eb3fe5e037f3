"""TGI's traverse-graph building against the per-pair kernels it replaced.

``TraverseGraphInference`` links every origin by one relaxation pass over
its hop table (:func:`repro.roadnet.neighborhood.hop_layers`, built once
per segment), scans the augmentation's closest pairs over memoised
midpoints, and finds components with the int-list Tarjan of
:mod:`repro.roadnet.connectivity`.  ``tests/reference_tgi.py`` keeps the
dict-based hop-bounded relaxation, the ``Point`` midpoint scan and the
label-keyed Tarjan.  Links, bridges and reductions must equal the
reference's with ``==`` — links in order, each by ``float.hex(weight)``,
``hops`` and ``via`` — on inputs built to break them: grid cities with
equal block lengths (cost ties), twin carriageways (midpoint ties),
one-way streets, dropped segments (dead ends, several components), λ
from 1 to 8 and random supports; and on a replay of the benchmark's
``sparse`` and ``dense`` queries.
"""

import importlib.util
import itertools
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import InMemoryArchive
from repro.core.system import HRIS, HRISConfig
from repro.core.traverse_graph import (
    TGIConfig,
    TraverseGraphInference,
    _cheapest_links,
)
from repro.roadnet.connectivity import strongly_connected_components
from repro.roadnet.generators import GridCityConfig, grid_city, manhattan_line
from repro.roadnet.neighborhood import hop_distances, hop_layers
from repro.roadnet.network import RoadNetwork
from tests.reference_tgi import ReferenceTGI, reference_strongly_connected_components

REPO_ROOT = Path(__file__).resolve().parent.parent


def _dropped(network: RoadNetwork, fraction: float, seed: int) -> RoadNetwork:
    """``network`` without a random ``fraction`` of its segments."""
    rng = np.random.default_rng(seed)
    kept = [s for s in network.segments() if rng.random() >= fraction]
    return RoadNetwork.from_elements(network.nodes(), kept)


@lru_cache(maxsize=None)
def _cities():
    tied = GridCityConfig(nx=6, ny=6, spacing=200.0, jitter=0.0, one_way_fraction=0.3)
    return (
        # Equal block lengths: ties everywhere, in costs and midpoints.
        grid_city(tied, np.random.default_rng(1)),
        grid_city(
            GridCityConfig(
                nx=6, ny=6, spacing=200.0, jitter=25.0, one_way_fraction=0.2
            ),
            np.random.default_rng(2),
        ),
        # Dead ends and unreachable pockets.
        _dropped(grid_city(tied, np.random.default_rng(3)), 0.2, 4),
        manhattan_line(n_nodes=8, spacing=150.0),
    )


def links_key(links):
    return [
        (r, [(s, float.hex(ln.weight), ln.hops, ln.via) for s, ln in out.items()])
        for r, out in links.items()
    ]


def copy_links(links):
    return {r: dict(out) for r, out in links.items()}


@st.composite
def pair_graphs(draw):
    """``(network, lam, nodes, traverse_edges, sources, support)``."""
    network = draw(st.sampled_from(_cities()))
    ids = sorted(s.segment_id for s in network.segments())
    lam = draw(st.integers(1, 8))

    def pick(most):
        ints = st.sampled_from(ids)
        return draw(st.lists(ints, min_size=1, max_size=most, unique=True))

    traverse = pick(14)
    support = {sid: draw(st.integers(1, 4)) for sid in traverse}
    sources = pick(4)
    destinations = pick(4)
    nodes = set(traverse) | set(sources) | set(destinations)
    return network, lam, nodes, set(traverse), sources, support


def assert_kernels_match(tgi, ref, nodes, traverse, sources, support):
    """Build, augment and reduce with both, comparing every step."""
    links = tgi._build_links(nodes, traverse, sources, support)
    ref_links = ref._build_links(nodes, traverse, sources, support)
    assert links_key(links) == links_key(ref_links)
    assert tgi._augment(nodes, links) == ref._augment(nodes, ref_links)
    assert links_key(links) == links_key(ref_links)
    assert tgi._reduce(links) == ref._reduce(ref_links)
    assert links_key(links) == links_key(ref_links)


class TestHopLayers:
    def test_line_layers(self):
        # Eastbound 0, 2, ..., 12; westbound 1, 3, ..., 13.  From segment 2
        # (node 1 -> 2), layer 1 is {3, 4}; layer 2 is {1, 2, 5, 6}, where
        # 2 is the origin again after the U-turn onto 3.
        line = manhattan_line(n_nodes=8, spacing=100.0)
        table = hop_layers(line, 2, 3)
        assert table.origin == 2
        assert [(s, p, others) for s, __, p, others in table.entries] == [
            (3, 0, ()),
            (4, 0, ()),
            (1, 1, ()),
            (2, 1, ()),
            (5, 2, ()),
            (6, 2, ()),
        ]
        # Layer 3 stays unnumbered: 3 and 4 are reached from the origin
        # entry (4) first, then from 5.
        reach = [(s, hop, numbered, last) for s, __, hop, numbered, last in table.reach]
        assert reach == [
            (3, 1, (1,), (4, (5,))),
            (4, 1, (2,), (4, (5,))),
            (1, 2, (3,), None),
            (5, 2, (5,), None),
            (6, 2, (6,), None),
            (0, 3, (), (3, ())),
            (7, 3, (), (6, ())),
            (8, 3, (), (6, ())),
        ]
        # Under plain lengths: each link's walk between origin and target.
        links = _cheapest_links(table, lambda s, length: length, {0, 1, 3, 5, 7})
        assert [(s, link.hops, link.via) for s, link in links.items()] == [
            (3, 1, ()),
            (1, 2, (3,)),
            (5, 2, (4,)),
            (0, 3, (3, 1)),
            (7, 3, (4, 6)),
        ]

    def test_zero_hops_and_negative(self):
        line = manhattan_line(n_nodes=4, spacing=100.0)
        table = hop_layers(line, 0, 0)
        assert table.entries == () and table.reach == ()
        with pytest.raises(ValueError):
            hop_layers(line, 0, -1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(4)), st.integers(0, 6), st.data())
    def test_first_layer_is_the_hop_distance(self, city, max_hops, data):
        network = _cities()[city]
        origin = data.draw(
            st.sampled_from(sorted(s.segment_id for s in network.segments()))
        )
        table = hop_layers(network, origin, max_hops)
        expected = hop_distances(network, origin, max_hops)
        expected.pop(origin)
        assert {s: hop for s, __, hop, __, __ in table.reach} == expected

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(4)), st.integers(1, 6), st.data())
    def test_layers_replay_a_layer_by_layer_expansion(self, city, max_hops, data):
        network = _cities()[city]
        origin = data.draw(
            st.sampled_from(sorted(s.segment_id for s in network.segments()))
        )
        table = hop_layers(network, origin, max_hops)
        # Expand layer by layer with plain dicts: segment -> predecessor
        # positions in the previous layer, in first-seen order.
        layers = [[origin]]
        preds = [[()]]
        for __ in range(max_hops):
            seen = {}
            for pos, sid in enumerate(layers[-1]):
                for succ in network.successors(sid):
                    seen.setdefault(succ, []).append(pos)
            if not seen:
                break
            layers.append(list(seen))
            preds.append([tuple(p) for p in seen.values()])
        numbered = [s for layer in layers[1:max_hops] for s in layer]
        assert [s for s, __, __, __ in table.entries] == numbered
        offsets = list(itertools.accumulate([0] + [len(layer) for layer in layers]))
        flat = [
            (s, (offsets[h - 1] + p[0], tuple(offsets[h - 1] + q for q in p[1:])))
            for h in range(1, len(layers))
            for s, p in zip(layers[h], preds[h])
        ]
        inner = [(s, (p, others)) for s, __, p, others in table.entries]
        assert inner == flat[: len(inner)]
        last = {s: pp for s, pp in flat[len(inner) :]}
        assert {s: pp for s, __, __, __, pp in table.reach if pp is not None} == {
            s: pp for s, pp in last.items() if s != origin
        }


def seeded_pairs(network, n_cases, seed):
    """``n_cases`` random pair graphs on ``network``, as :func:`pair_graphs`."""
    rng = np.random.default_rng(seed)
    ids = sorted(s.segment_id for s in network.segments())

    def pick(most):
        return [int(x) for x in rng.choice(ids, rng.integers(1, most), replace=False)]

    for __ in range(n_cases):
        traverse = pick(15)
        support = {sid: int(rng.integers(1, 5)) for sid in traverse}
        sources = pick(5)
        nodes = set(traverse) | set(sources) | set(pick(5))
        yield nodes, set(traverse), sources, support


class TestLinksMatchReference:
    @pytest.mark.parametrize("lam", range(1, 9))
    @pytest.mark.parametrize("city", range(4))
    def test_seeded_pairs(self, city, lam):
        # One instance per city and λ answers every pair from its tables.
        network = _cities()[city]
        config = TGIConfig(lam=lam)
        tgi = TraverseGraphInference(network, config)
        ref = ReferenceTGI(network, config)
        for case in seeded_pairs(network, 25, seed=100 * city + lam):
            assert_kernels_match(tgi, ref, *case)

    @settings(max_examples=150, deadline=None)
    @given(pair_graphs())
    def test_links_bridges_and_reductions(self, case):
        network, lam, nodes, traverse, sources, support = case
        config = TGIConfig(lam=lam)
        assert_kernels_match(
            TraverseGraphInference(network, config),
            ReferenceTGI(network, config),
            nodes,
            traverse,
            sources,
            support,
        )


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 14))
    labels = draw(
        st.sampled_from(
            [
                list(range(n)),
                # Large and negative ints hash into colliding set slots.
                [(-1) ** i * (i << 40) + 7 for i in range(n)],
                [f"n{i}" for i in range(n)],
            ]
        )
    )
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adj = {label: [] for label in labels}
    for a, b in edges:
        adj[labels[a]].append(labels[b])
    order = draw(st.permutations(labels))
    return order, adj


class TestTarjanMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_components_and_fill_order(self, graph):
        order, adj = graph
        got = strongly_connected_components(order, lambda u: adj[u])
        ref = reference_strongly_connected_components(order, lambda u: adj[u])
        # Same sets, each filled in the same pop order: equal iteration.
        assert [list(c) for c in got] == [list(c) for c in ref]


def _perfbench():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", REPO_ROOT / "perfbench" / "run.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class TestBenchmarkReplay:
    """The benchmark's own queries, every TGI call checked step by step."""

    @pytest.mark.parametrize("workload", ["sparse", "dense"])
    def test_every_tgi_call_matches_reference(self, workload):
        bench = _perfbench()
        params = bench.WORKLOADS[workload]
        scenario = bench.build_world(params)
        archive = InMemoryArchive.from_trips(list(scenario.archive.trajectories()))
        worker = HRIS(scenario.network, archive, HRISConfig())
        tgi = worker._tgi
        ref = ReferenceTGI(scenario.network, HRISConfig().tgi_config())
        build, augment, reduce = tgi._build_links, tgi._augment, tgi._reduce
        checked = []

        def checked_build(nodes, traverse, sources, support):
            links = build(nodes, traverse, sources, support)
            ref_links = ref._build_links(nodes, traverse, sources, support)
            assert links_key(links) == links_key(ref_links)
            checked.append(nodes)
            return links

        def checked_augment(nodes, links):
            twin = copy_links(links)
            added = augment(nodes, links)
            assert added == ref._augment(nodes, twin)
            assert links_key(links) == links_key(twin)
            return added

        def checked_reduce(links):
            twin = copy_links(links)
            removed = reduce(links)
            assert removed == ref._reduce(twin)
            assert links_key(links) == links_key(twin)
            return removed

        tgi._build_links = checked_build
        tgi._augment = checked_augment
        tgi._reduce = checked_reduce
        cases = itertools.islice(
            bench.iter_query_cases(scenario, 1, params["query_interval"]),
            bench.WARMUP_OPS + 48,
        )
        for query, __ in cases:
            worker.infer_routes(query)
        assert len(checked) >= 24

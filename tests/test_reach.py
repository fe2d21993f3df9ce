"""Differential tests of the CSR metapath operator against the per-node walks.

Every table must be byte-equal to the loop implementations in ``oracles``:
the vectorised code only re-lays-out the computation.
"""

import numpy as np
import pytest

import graphscm.hetgraph as hetgraph
from graphscm.hetgraph import enumerate_metapaths, metapath_reach, pooled_neighbor_features
from graphscm.splits import degree_features, homophily_features, roundtrip_metapaths
from graphscm.synth import SynthSpec, generate

from oracles import adjacency_lists, degree_table, homophily_table, path_counts, pooled_table


@pytest.fixture(scope="module")
def synth_graph():
    graph, _ = generate(SynthSpec(authors=120, seed=4))
    return graph


@pytest.fixture(params=["default", "tiny"])
def reach_block(request, monkeypatch):
    # a tiny block splits every hop into many row groups and takes the
    # sort-based merge where the default block takes the dense one
    if request.param == "tiny":
        monkeypatch.setattr(hetgraph, "REACH_BLOCK", 7)
    return request.param


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_pooled_tables_byte_equal_to_oracle(which, toy_graph, synth_graph, reach_block):
    graph = toy_graph if which == "toy" else synth_graph
    target = graph.schema.target_type
    adj = adjacency_lists(graph)
    nodes = list(range(graph.num_nodes(target)))
    for mp in enumerate_metapaths(graph.schema, target, 3):
        for multiset in (False, True):
            for exclude_self in (False, True):
                got = pooled_neighbor_features(graph, nodes, mp, multiset, exclude_self)
                want = pooled_table(graph, adj, nodes, mp, multiset, exclude_self)
                assert _same_bytes(got, want), (mp.name, multiset, exclude_self)


def test_reach_counts_match_path_counts(synth_graph, reach_block):
    adj = adjacency_lists(synth_graph)
    nodes = np.arange(0, 120, 3)
    for mp in enumerate_metapaths(synth_graph.schema, "author", 3):
        got = [dict() for _ in nodes]
        next_lo = 0
        for lo, hi, rows, indices, counts in metapath_reach(synth_graph, nodes, mp):
            assert lo == next_lo and hi > lo  # blocks tile the query rows in order
            next_lo = hi
            assert np.all(np.diff(rows * 10**6 + indices) > 0)  # sorted, no repeats
            for r, v, c in zip(rows, indices, counts):
                got[lo + int(r)][int(v)] = int(c)
        assert next_lo == len(nodes)
        for i, node in enumerate(nodes):
            assert got[i] == path_counts(adj, int(node), mp), (mp.name, int(node))


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_split_tables_byte_equal_to_oracle(which, toy_graph, synth_graph, reach_block):
    graph = toy_graph if which == "toy" else synth_graph
    adj = adjacency_lists(graph)
    for max_len in (2, 3):
        got = homophily_features(graph, max_len=max_len).values
        want = homophily_table(graph, adj, roundtrip_metapaths(graph, max_len))
        assert _same_bytes(got, want)
    relations = [mp.relations[0] for mp in enumerate_metapaths(graph.schema, graph.schema.target_type, 1)]
    for log_transform in (True, False):
        got = degree_features(graph, log_transform=log_transform).values
        assert _same_bytes(got, degree_table(graph, adj, relations, log_transform))


def test_empty_query_and_empty_reach(toy_graph):
    ap = enumerate_metapaths(toy_graph.schema, "author", 1)[0]
    assert list(metapath_reach(toy_graph, [], ap)) == []
    assert pooled_neighbor_features(toy_graph, [], ap).shape == (0, 2)

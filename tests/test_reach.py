"""Differential tests of the CSR metapath operator against the per-node walks.

Every table from the sparse route must be byte-equal to the loop
implementations in ``oracles``: the vectorised code only re-lays-out the
computation. Sparse multiset means are byte-equal to the ascending-order
weighted oracle and held to 1e-12 * max(1, max|F|) of the previous
implementation's BLAS ``w @ F``. The dense pooling route sums features in
BLAS order, so its tables are held to that tolerance of the oracle instead.
"""

import numpy as np
import pytest

import graphscm.hetgraph as hetgraph
from graphscm.hetgraph import (
    UNLABELED,
    HeteroGraph,
    enumerate_metapaths,
    metapath_reach,
    pooled_neighbor_features,
)
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


def _within_tolerance(got: np.ndarray, want: np.ndarray, feats: np.ndarray) -> bool:
    """The dense route's contract: |dense - oracle| <= 1e-12 * max(1, max|F|)."""
    bound = 1e-12 * max(1.0, float(np.abs(feats).max(initial=0.0)))
    return got.shape == want.shape and got.dtype == want.dtype and bool(np.all(np.abs(got - want) <= bound))


def _dense_route(graph, nodes, mp) -> bool:
    frontier = hetgraph._frontier(graph, np.asarray(nodes, dtype=np.int64), mp)
    return frontier is not None and 2 * np.count_nonzero(frontier) >= frontier.size


@pytest.fixture()
def dense_calls(monkeypatch):
    """The names of the metapaths that the dense route pools, call by call."""
    calls = []
    dense_pool = hetgraph._dense_pool

    def spy(graph, metapath, *args):
        calls.append(metapath.name)
        return dense_pool(graph, metapath, *args)

    monkeypatch.setattr(hetgraph, "_dense_pool", spy)
    return calls


# which metapaths of length <= 3 the dense route takes; any move between
# routes must show up here
DENSE_PATHS = {
    ("toy", "default"): {"APA", "APV", "APAP", "APVP"},
    ("toy", "tiny"): {"APVP"},
    ("synth", "default"): {"APTP"},
    ("synth", "tiny"): set(),
}


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_pooled_tables_byte_equal_to_oracle(which, toy_graph, synth_graph, reach_block, dense_calls):
    graph = toy_graph if which == "toy" else synth_graph
    target = graph.schema.target_type
    adj = adjacency_lists(graph)
    nodes = list(range(graph.num_nodes(target)))
    for mp in enumerate_metapaths(graph.schema, target, 3):
        feats = graph.features[mp.terminal_type]
        for multiset in (False, True):
            dense_calls.clear()
            got = pooled_neighbor_features(graph, nodes, mp, multiset)
            want = pooled_table(graph, adj, nodes, mp, multiset)
            case = (mp.name, multiset)
            assert (mp.name in DENSE_PATHS[which, reach_block]) == bool(dense_calls), case
            if dense_calls:
                assert _within_tolerance(got, want, feats), case
            elif multiset:
                ordered = pooled_table(graph, adj, nodes, mp, multiset, ordered=True)
                assert _same_bytes(got, ordered), case
                assert _within_tolerance(got, want, feats), case
            else:
                assert _same_bytes(got, want), case


def test_dense_route_takes_aptp_and_no_short_path(synth_graph):
    nodes = list(range(synth_graph.num_nodes("author")))
    paths = enumerate_metapaths(synth_graph.schema, "author", 3)
    dense = {mp.name for mp in paths if _dense_route(synth_graph, nodes, mp)}
    assert "APTP" in dense
    assert not dense & {mp.name for mp in paths if len(mp) <= 2}


def test_dense_route_in_row_blocks_and_column_tiles_matches_oracle(synth_graph, monkeypatch, dense_calls):
    # APTPA over every other author: the frontier (60 authors x 1320 papers)
    # fills the block exactly, the earlier hops' walk splits into row
    # blocks, and the (1320 papers x 120 authors) incidence into column tiles
    mp = next(m for m in enumerate_metapaths(synth_graph.schema, "author", 4) if m.name == "APTPA")
    nodes = np.arange(0, synth_graph.num_nodes("author"), 2)
    papers = synth_graph.num_nodes("paper")
    monkeypatch.setattr(hetgraph, "REACH_BLOCK", nodes.size * papers)
    assert len(list(hetgraph._reach_blocks(synth_graph, nodes, mp.relations[:-1]))) > 1
    assert hetgraph.REACH_BLOCK < papers * synth_graph.num_nodes("author")
    adj = adjacency_lists(synth_graph)
    for multiset in (False, True):
        dense_calls.clear()
        got = pooled_neighbor_features(synth_graph, nodes, mp, multiset)
        want = pooled_table(synth_graph, adj, nodes, mp, multiset)
        assert dense_calls == ["APTPA"]
        assert _within_tolerance(got, want, synth_graph.features["author"]), multiset


def test_dense_route_empty_pools_subsets_and_exclude_self(toy_graph, dense_calls):
    # a fourth author with no papers reaches nothing
    features = dict(toy_graph.features, author=np.vstack([toy_graph.features["author"], [[0.5, 0.5]]]))
    graph = HeteroGraph(toy_graph.schema, features, toy_graph.edges, np.append(toy_graph.labels, UNLABELED))
    adj = adjacency_lists(graph)
    paths = {mp.name: mp for mp in enumerate_metapaths(graph.schema, "author", 3)}
    for name, nodes in (("APVP", [3, 0, 2]), ("APA", [2, 0])):
        mp = paths[name]
        feats = graph.features[mp.terminal_type]
        for multiset in (False, True):
            dense_calls.clear()
            got = pooled_neighbor_features(graph, nodes, mp, multiset)
            assert dense_calls == [name]
            assert _within_tolerance(got, pooled_table(graph, adj, nodes, mp, multiset), feats)
            if 3 in nodes:
                assert not got[nodes.index(3)].any()


@pytest.mark.parametrize("block", [None, 128])
def test_sparse_multiset_empty_pools_subsets_and_exclude_self(synth_graph, block, monkeypatch, dense_calls):
    # an extra author with no papers reaches nothing; the query rows are an
    # unordered, non-contiguous subset of the authors; a 128-cell block cuts
    # the walk into row groups and each group's gather into several row tiles
    if block is not None:
        monkeypatch.setattr(hetgraph, "REACH_BLOCK", block)
    extra = np.full((1, synth_graph.feature_dim("author")), 0.5)
    features = dict(synth_graph.features, author=np.vstack([synth_graph.features["author"], extra]))
    graph = HeteroGraph(synth_graph.schema, features, synth_graph.edges, np.append(synth_graph.labels, UNLABELED))
    adj = adjacency_lists(graph)
    nodes = [120, *range(118, 0, -3), 120, 7]
    empty = [i for i, node in enumerate(nodes) if node == 120]
    for mp in enumerate_metapaths(graph.schema, "author", 2):
        got = pooled_neighbor_features(graph, nodes, mp, True)
        assert _same_bytes(got, pooled_table(graph, adj, nodes, mp, True, ordered=True))
        assert not got[empty].any()
    assert dense_calls == []


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


@pytest.fixture()
def pooled_rows(monkeypatch):
    """The number of rows that ``_pool_means`` averages, call by call."""
    calls = []
    pool_means = hetgraph._pool_means

    def spy(padded, indptr, *args):
        calls.append(indptr.shape[0] - 1)
        return pool_means(padded, indptr, *args)

    monkeypatch.setattr(hetgraph, "_pool_means", spy)
    return calls


def test_equal_venue_support_shares_a_set_pool_not_a_multiset_pool(dblp_schema, pooled_rows, dense_calls):
    # authors 0 and 3 reach venues (0, 1) along 2 and 1 papers, author 1
    # along 1 and 1, author 2 reaches venue 0 alone; venues 2-5 keep the
    # (author x venue) frontier under half nonzero, so APVP is pooled sparse
    rng = np.random.default_rng(0)
    sizes = {"author": 4, "paper": 6, "venue": 6, "term": 1}
    features = {t: rng.normal(size=(n, 3)) for t, n in sizes.items()}
    forward = {
        "write": [(0, 0), (0, 1), (0, 3), (1, 2), (1, 4), (2, 0), (3, 1), (3, 2), (3, 4)],
        "publish": [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (2, 5)],
        "use": [],
    }
    edges = {}
    for name, pairs in forward.items():
        edges[name] = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        edges["rev_" + name] = edges[name][:, ::-1].copy()
    graph = HeteroGraph(dblp_schema, features, edges, np.full(4, UNLABELED))
    apvp = next(mp for mp in enumerate_metapaths(dblp_schema, "author", 3) if mp.name == "APVP")
    adj = adjacency_lists(graph)
    nodes = [0, 1, 2, 3]
    pooled_rows.clear()
    sets = pooled_neighbor_features(graph, nodes, apvp)
    assert pooled_rows == [2]
    assert _same_bytes(sets, pooled_table(graph, adj, nodes, apvp))
    assert _same_bytes(sets[0], sets[1]) and _same_bytes(sets[0], sets[3])
    pooled_rows.clear()
    multisets = pooled_neighbor_features(graph, nodes, apvp, multiset=True)
    assert pooled_rows == [3]
    assert _same_bytes(multisets, pooled_table(graph, adj, nodes, apvp, multiset=True, ordered=True))
    assert np.any(multisets[0] != multisets[1]) and _same_bytes(multisets[0], multisets[3])
    assert dense_calls == []


@pytest.mark.parametrize("multiset", [False, True])
def test_apvp_pools_each_distinct_frontier_row_once(synth_graph, multiset, pooled_rows, dense_calls):
    paths = {mp.name: mp for mp in enumerate_metapaths(synth_graph.schema, "author", 3)}
    apvp, apv = paths["APVP"], paths["APV"]
    assert apv.relations == apvp.relations[:-1]
    adj = adjacency_lists(synth_graph)
    nodes = list(range(synth_graph.num_nodes("author")))
    frontiers = [path_counts(adj, node, apv) for node in nodes]
    distinct = {frozenset(f.items() if multiset else f) for f in frontiers}
    assert len(distinct) < len(nodes) // 10
    got = pooled_neighbor_features(synth_graph, nodes, apvp, multiset)
    assert sum(pooled_rows) == len(distinct)
    assert dense_calls == []
    assert _same_bytes(got, pooled_table(synth_graph, adj, nodes, apvp, multiset, ordered=multiset))

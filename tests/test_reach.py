"""Differential tests of the CSR metapath operator against the per-node walks.

Every set table from the walk must be byte-equal to the loop
implementations in ``oracles``: the vectorised code only re-lays-out the
computation. The dense set route sums features in BLAS order, so its tables
are held to 1e-12 * max(1, max|F|) of the oracle instead, and of
``dense_pool_columns``, the dense route with one incidence column per
terminal node that the grouped columns replaced. Multiset means are per-hop
sums over each relation's edges, never walked and never dense; they are
held to the same tolerance of the per-node weighted oracle
(``pooled_table``), of the walk they replaced (``pooled_walk_tiles``) and,
where a frontier fits, of ``dense_pool_columns``.
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

from oracles import (
    adjacency_lists,
    degree_table,
    dense_pool_columns,
    frontier_counts,
    homophily_table,
    path_counts,
    pooled_table,
    pooled_walk_tiles,
    reach_counts,
)


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
    """The route rule from the adjacency lists: the frontier fits and its
    cells times the distinct non-empty in-neighbour multisets of the last
    hop's destinations are at most DENSE_COST times the last hop's walked
    (row, node) pairs."""
    frontier = hetgraph._frontier(graph, np.asarray(nodes, dtype=np.int64), mp)
    if frontier is None:
        return False
    adj = adjacency_lists(graph)
    last = mp.relations[-1]
    groups = {x for x in _in_multisets(adj, last, graph.num_nodes(mp.terminal_type)) if x}
    pairs = sum(len(adj[last][col]) for _, col in zip(*np.nonzero(frontier)))
    return frontier.size * len(groups) <= hetgraph.DENSE_COST * pairs


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


@pytest.fixture()
def reach_calls(monkeypatch):
    """The relation sequence of each ``metapath_reach`` call."""
    calls = []
    reach = hetgraph.metapath_reach

    def spy(graph, nodes, relations):
        calls.append(tuple(relations))
        return reach(graph, nodes, relations)

    monkeypatch.setattr(hetgraph, "metapath_reach", spy)
    return calls


@pytest.fixture()
def column_groups(monkeypatch):
    """The group count of each ``_column_groups`` call."""
    calls = []
    column_groups = hetgraph._column_groups

    def spy(*args):
        out = column_groups(*args)
        calls.append(out[2].shape[0] - 1)
        return out

    monkeypatch.setattr(hetgraph, "_column_groups", spy)
    return calls


# which metapaths of length <= 3 the dense route takes at the default
# DENSE_COST; any move between routes must show up here
DENSE_PATHS = {
    ("toy", "default"): {"APA", "APV", "APAP", "APVP"},
    ("toy", "tiny"): {"APVP"},
    ("synth", "default"): {"APTP", "APVP"},
    ("synth", "tiny"): set(),
}


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_pooled_tables_byte_equal_to_oracle(which, toy_graph, synth_graph, reach_block, dense_calls, monkeypatch):
    graph = toy_graph if which == "toy" else synth_graph
    target = graph.schema.target_type
    adj = adjacency_lists(graph)
    nodes = list(range(graph.num_nodes(target)))
    paths = enumerate_metapaths(graph.schema, 3)
    fits = {mp.name for mp in paths if hetgraph._frontier(graph, np.asarray(nodes), mp) is not None}
    # DENSE_COST 0 walks every metapath, and 10**9 pools every one whose
    # frontier fits densely, so both routes meet the oracle on each of those
    for cost, dense in ((0, set()), (hetgraph.DENSE_COST, DENSE_PATHS[which, reach_block]), (10**9, fits)):
        monkeypatch.setattr(hetgraph, "DENSE_COST", cost)
        for mp in paths:
            _assert_pooled_like_oracle(graph, adj, nodes, mp, mp.name in dense, dense_calls, cost)


def _assert_pooled_like_oracle(graph, adj, nodes, mp, dense, dense_calls, cost):
    feats = graph.features[mp.terminal_type]
    for multiset in (False, True):
        dense_calls.clear()
        got = pooled_neighbor_features(graph, nodes, mp, multiset)
        want = pooled_table(graph, adj, nodes, mp, multiset)
        case = (cost, mp.name, multiset)
        if multiset:  # per-hop sums whatever the cost bound: never the dense route
            assert dense_calls == [], case
            assert _within_tolerance(got, want, feats), case
            assert _within_tolerance(got, pooled_walk_tiles(graph, nodes, mp, True), feats), case
            continue
        assert dense == bool(dense_calls), case
        if dense_calls:
            assert _within_tolerance(got, want, feats), case
        else:
            assert _same_bytes(got, want), case


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_one_hop_paths_walk_without_a_frontier_or_groups(which, toy_graph, synth_graph, dense_calls, column_groups, monkeypatch):
    """A path of one hop builds no (rows x rows) identity frontier and groups
    no columns, whatever the cost bound; a set pool walks, and set and
    multiset pools are bit-identical to the per-node oracle."""
    graph = toy_graph if which == "toy" else synth_graph
    nodes = list(range(graph.num_nodes(graph.schema.target_type)))
    adj = adjacency_lists(graph)
    monkeypatch.setattr(hetgraph, "DENSE_COST", 10**9)
    for mp in enumerate_metapaths(graph.schema, 1):
        assert hetgraph._frontier(graph, np.asarray(nodes, dtype=np.int64), mp) is None
        for multiset in (False, True):
            got = pooled_neighbor_features(graph, nodes, mp, multiset)
            want = pooled_table(graph, adj, nodes, mp, multiset, ordered=multiset)
            assert _same_bytes(got, want), (mp.name, multiset)
    assert dense_calls == [] and column_groups == []


def test_dense_route_takes_aptp_and_no_short_path(synth_graph):
    nodes = list(range(synth_graph.num_nodes("author")))
    paths = enumerate_metapaths(synth_graph.schema, 3)
    dense = {mp.name for mp in paths if _dense_route(synth_graph, nodes, mp)}
    assert dense == {"APTP", "APVP"}
    assert not dense & {mp.name for mp in paths if len(mp) <= 2}


def test_dense_cost_sends_apap_dense_at_30_authors_and_walks_it_at_60(dense_calls):
    # APAP's dense multiply-adds per walked pair are 26 at 30 authors and 101
    # at 60 (seed 1), the two sides of DENSE_COST's measured boundary
    for authors, dense in ((30, ["APAP"]), (60, [])):
        graph, _ = generate(SynthSpec(authors=authors, seed=1))
        mp = next(m for m in enumerate_metapaths(graph.schema, 3) if m.name == "APAP")
        nodes = np.arange(authors)
        dense_calls.clear()
        got = pooled_neighbor_features(graph, nodes, mp)
        assert dense_calls == dense and _dense_route(graph, nodes, mp) == bool(dense), authors
        want = pooled_table(graph, adjacency_lists(graph), list(nodes), mp, False)
        assert _within_tolerance(got, want, graph.features["paper"]), authors


def test_dense_route_in_row_blocks_and_column_tiles_matches_oracle(synth_graph, monkeypatch, dense_calls):
    # APTPA over every other author: the frontier (60 authors x 1320 papers)
    # fills the block exactly, the earlier hops' walk splits into row
    # blocks, and the (1320 papers x 120 authors) incidence into column tiles;
    # this frontier costs more than DENSE_COST times the walk, so the cost
    # bound is lifted to take the dense route
    mp = next(m for m in enumerate_metapaths(synth_graph.schema, 4) if m.name == "APTPA")
    nodes = np.arange(0, synth_graph.num_nodes("author"), 2)
    papers = synth_graph.num_nodes("paper")
    monkeypatch.setattr(hetgraph, "REACH_BLOCK", nodes.size * papers)
    monkeypatch.setattr(hetgraph, "DENSE_COST", 10**9)
    assert len(list(metapath_reach(synth_graph, nodes, mp.relations[:-1]))) > 1
    assert hetgraph.REACH_BLOCK < papers * synth_graph.num_nodes("author")
    adj = adjacency_lists(synth_graph)
    for multiset in (False, True):
        dense_calls.clear()
        got = pooled_neighbor_features(synth_graph, nodes, mp, multiset)
        want = pooled_table(synth_graph, adj, nodes, mp, multiset)
        assert dense_calls == ([] if multiset else ["APTPA"])
        assert _within_tolerance(got, want, synth_graph.features["author"]), multiset


def test_dense_route_empty_pools_subsets_and_exclude_self(toy_graph, dense_calls):
    # a fourth author with no papers reaches nothing
    features = dict(toy_graph.features, author=np.vstack([toy_graph.features["author"], [[0.5, 0.5]]]))
    graph = HeteroGraph(toy_graph.schema, features, toy_graph.edges, np.append(toy_graph.labels, UNLABELED))
    adj = adjacency_lists(graph)
    paths = {mp.name: mp for mp in enumerate_metapaths(graph.schema, 3)}
    for name, nodes in (("APVP", [3, 0, 2]), ("APA", [2, 0])):
        mp = paths[name]
        feats = graph.features[mp.terminal_type]
        for multiset in (False, True):
            dense_calls.clear()
            got = pooled_neighbor_features(graph, nodes, mp, multiset)
            assert dense_calls == ([] if multiset else [name])
            assert _within_tolerance(got, pooled_table(graph, adj, nodes, mp, multiset), feats)
            if 3 in nodes:
                assert not got[nodes.index(3)].any()


@pytest.mark.parametrize("block", [None, 128])
def test_sparse_multiset_empty_pools_subsets_and_exclude_self(synth_graph, block, monkeypatch, dense_calls):
    # an extra author with no papers reaches nothing; the query rows are an
    # unordered, non-contiguous subset of the authors; a 128-cell block cuts
    # the walk into many row groups
    if block is not None:
        monkeypatch.setattr(hetgraph, "REACH_BLOCK", block)
    extra = np.full((1, synth_graph.feature_dim("author")), 0.5)
    features = dict(synth_graph.features, author=np.vstack([synth_graph.features["author"], extra]))
    graph = HeteroGraph(synth_graph.schema, features, synth_graph.edges, np.append(synth_graph.labels, UNLABELED))
    adj = adjacency_lists(graph)
    nodes = [120, *range(118, 0, -3), 120, 7]
    empty = [i for i, node in enumerate(nodes) if node == 120]
    for mp in enumerate_metapaths(graph.schema, 2):
        got = pooled_neighbor_features(graph, nodes, mp, True)
        feats = graph.features[mp.terminal_type]
        assert _within_tolerance(got, pooled_table(graph, adj, nodes, mp, True), feats)
        assert _within_tolerance(got, pooled_walk_tiles(graph, nodes, mp, True), feats)
        assert not got[empty].any()
    assert dense_calls == []


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_walk_bincounts_byte_equal_to_padded_tiles(which, toy_graph, synth_graph, reach_block, monkeypatch):
    """The walk's per-column bincounts keep every bit of the padded
    (steps, rows, D) set tiles they replaced, and the per-hop multiset sums
    are within the tolerance of the multiset tiles, on every metapath up to
    length 3: over all target nodes, and over an unordered subset with
    repeats that puts a node without edges (an empty pool) first, last and
    between."""
    graph = toy_graph if which == "toy" else synth_graph
    n = graph.num_nodes(graph.schema.target_type)
    extra = np.full((1, graph.feature_dim("author")), 0.5)
    features = dict(graph.features, author=np.vstack([graph.features["author"], extra]))
    graph = HeteroGraph(graph.schema, features, graph.edges, np.append(graph.labels, UNLABELED))
    subset = [n, *range(n - 1, 0, -3), n, 1, 0, 1, n]
    monkeypatch.setattr(hetgraph, "DENSE_COST", 0)  # every metapath walks
    for nodes in (list(range(n + 1)), subset):
        for mp in enumerate_metapaths(graph.schema, 3):
            for multiset in (False, True):
                got = pooled_neighbor_features(graph, nodes, mp, multiset)
                want = pooled_walk_tiles(graph, nodes, mp, multiset)
                if multiset:
                    assert _within_tolerance(got, want, graph.features[mp.terminal_type]), mp.name
                else:
                    assert _same_bytes(got, want), mp.name
                if mp.relations[0] == "write":
                    assert not got[[i for i, x in enumerate(nodes) if x == n]].any()


def test_walk_set_sums_start_at_positive_zero(toy_graph):
    """A pool whose terms are all -0.0 sums to +0.0, as bincount starts
    from +0.0 (numpy's own reductions keep -0.0 or not by version); every
    other set mean keeps the bits of feats[sorted pool].mean(axis=0)."""
    features = dict(toy_graph.features, paper=toy_graph.features["paper"].copy())
    features["paper"][:, 0] = -0.0
    graph = HeteroGraph(toy_graph.schema, features, toy_graph.edges, toy_graph.labels)
    ap = enumerate_metapaths(graph.schema, 1)[0]
    nodes = list(range(graph.num_nodes("author")))
    got = pooled_neighbor_features(graph, nodes, ap)
    want = pooled_table(graph, adjacency_lists(graph), nodes, ap)
    assert not np.signbit(got[:, 0]).any() and not want[:, 0].any()
    assert _same_bytes(got[:, 1:], want[:, 1:])


def test_reach_counts_match_path_counts(synth_graph, reach_block):
    adj = adjacency_lists(synth_graph)
    nodes = np.arange(0, 120, 3)
    for mp in enumerate_metapaths(synth_graph.schema, 3):
        got = [dict() for _ in nodes]
        next_lo = 0
        for lo, hi, rows, indices, counts in reach_counts(synth_graph, nodes, mp.relations):
            assert lo == next_lo and hi > lo  # blocks tile the query rows in order
            next_lo = hi
            assert np.all(np.diff(rows * 10**6 + indices) > 0)  # sorted, no repeats
            for r, v, c in zip(rows, indices, counts):
                got[lo + int(r)][int(v)] = int(c)
        assert next_lo == len(nodes)
        for i, node in enumerate(nodes):
            assert got[i] == path_counts(adj, int(node), mp), (mp.name, int(node))


def test_reach_blocks_byte_equal_to_counting_walk(synth_graph, reach_block):
    """The set walk yields the row groups and sorted (row, index) pairs of
    the counting walk it replaced, byte for byte, on every metapath up to
    length 4: over all authors, and over an unordered subset with repeats."""
    n = synth_graph.num_nodes("author")
    for nodes in (np.arange(n), np.array([n - 1, *range(0, n, 7), 3, n - 1])):
        for mp in enumerate_metapaths(synth_graph.schema, 4):
            got = list(metapath_reach(synth_graph, nodes, mp.relations))
            want = list(reach_counts(synth_graph, nodes, mp.relations))
            assert len(got) == len(want), mp.name
            for block, old in zip(got, want):
                assert block[:2] == old[:2], mp.name
                assert _same_bytes(block[2], old[2]) and _same_bytes(block[3], old[3]), mp.name


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_split_tables_byte_equal_to_oracle(which, toy_graph, synth_graph, reach_block):
    graph = toy_graph if which == "toy" else synth_graph
    adj = adjacency_lists(graph)
    for max_len in (2, 3):
        got = homophily_features(graph, max_len=max_len).values
        want = homophily_table(graph, adj, roundtrip_metapaths(graph, max_len))
        assert _same_bytes(got, want)
    relations = [mp.relations[0] for mp in enumerate_metapaths(graph.schema, 1)]
    assert _same_bytes(degree_features(graph).values, degree_table(graph, adj, relations))


def test_empty_query_and_empty_reach(toy_graph):
    ap = enumerate_metapaths(toy_graph.schema, 1)[0]
    assert list(metapath_reach(toy_graph, [], ap.relations)) == []
    assert pooled_neighbor_features(toy_graph, [], ap).shape == (0, 2)


def test_equal_venue_support_shares_a_set_pool_not_a_multiset_pool(dblp_schema, dense_calls):
    # authors 0 and 3 reach venues (0, 1) along 2 and 1 papers, author 1
    # along 1 and 1, author 2 reaches venue 0 alone
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
    apvp = next(mp for mp in enumerate_metapaths(dblp_schema, 3) if mp.name == "APVP")
    adj = adjacency_lists(graph)
    nodes = [0, 1, 2, 3]
    feats = features["paper"]
    sets = pooled_neighbor_features(graph, nodes, apvp)
    assert _within_tolerance(sets, pooled_table(graph, adj, nodes, apvp), feats)
    assert _within_tolerance(sets[1], sets[0], feats) and _within_tolerance(sets[3], sets[0], feats)
    multisets = pooled_neighbor_features(graph, nodes, apvp, multiset=True)
    assert _within_tolerance(multisets, pooled_table(graph, adj, nodes, apvp, multiset=True), feats)
    assert not _within_tolerance(multisets[1], multisets[0], feats)
    assert _within_tolerance(multisets[3], multisets[0], feats)
    assert dense_calls == ["APVP"]  # the set pool; the multiset pool sums per hop


def _in_multisets(adj, relation: str, n_dst: int) -> list[tuple[int, ...]]:
    """Each destination's sorted in-neighbours, repeated by multiplicity."""
    sources = [[] for _ in range(n_dst)]
    for s, dests in enumerate(adj[relation]):
        for d in dests:
            sources[d].append(s)
    return [tuple(sorted(x)) for x in sources]


def _assert_grouped_route_matches_both_oracles(graph, nodes, mp, dense_calls, column_groups):
    """The grouped dense route's set pool, and the per-hop multiset pool,
    within 1e-12 * max(1, max|F|) of the column oracle and of the per-node
    oracle; returns the group count the set pool used."""
    adj = adjacency_lists(graph)
    feats = graph.features[mp.terminal_type]
    frontier = frontier_counts(graph, nodes, mp)
    groups = set()
    for multiset in (False, True):
        dense_calls.clear()
        column_groups.clear()
        got = pooled_neighbor_features(graph, nodes, mp, multiset)
        if multiset:
            assert dense_calls == [] and column_groups == []
        else:
            assert dense_calls == [mp.name] and len(column_groups) == 1
            groups.add(column_groups[0])
        assert _within_tolerance(got, dense_pool_columns(graph, mp, frontier, multiset), feats), multiset
        assert _within_tolerance(got, pooled_table(graph, adj, nodes, mp, multiset), feats), multiset
    in_sets = _in_multisets(adj, mp.relations[-1], feats.shape[0])
    assert groups == {len({x for x in in_sets if x})}
    return groups.pop()


def test_grouped_dense_route_on_synth_aptp(synth_graph, dense_calls, column_groups):
    mp = next(m for m in enumerate_metapaths(synth_graph.schema, 3) if m.name == "APTP")
    nodes = list(range(synth_graph.num_nodes("author")))
    groups = _assert_grouped_route_matches_both_oracles(synth_graph, nodes, mp, dense_calls, column_groups)
    assert groups < synth_graph.num_nodes("paper")


def _parallel_edges_graph(dblp_schema):
    """Papers 0 and 4 use term 1 twice, paper 2 once: three papers, two
    multisets; papers 5 and 6 use no term and join no group."""
    rng = np.random.default_rng(5)
    sizes = {"author": 4, "paper": 7, "venue": 1, "term": 3}
    features = {t: rng.normal(size=(n, 3)) * 4.0 for t, n in sizes.items()}
    forward = {
        "write": [(0, 0), (0, 5), (1, 1), (1, 2), (2, 3), (2, 4), (3, 0), (3, 0), (3, 6)],
        "publish": [(0, p) for p in range(7)],
        "use": [(0, 1), (0, 1), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2), (3, 2), (4, 1), (4, 1)],
    }
    edges = {}
    for name, pairs in forward.items():
        edges[name] = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        edges["rev_" + name] = edges[name][:, ::-1].copy()
    return HeteroGraph(dblp_schema, features, edges, np.full(4, UNLABELED))


def test_grouped_dense_route_parallel_edges_and_papers_without_terms(dblp_schema, dense_calls, column_groups):
    graph = _parallel_edges_graph(dblp_schema)
    aptp = next(mp for mp in enumerate_metapaths(dblp_schema, 3) if mp.name == "APTP")
    nodes = [3, 0, 1, 2, 1]
    groups = _assert_grouped_route_matches_both_oracles(graph, nodes, aptp, dense_calls, column_groups)
    assert groups == 4  # {1, 1} twice, {0, 2}, {0, 2, 2}, {1}


# whether some cell of the path-count frontier exceeds 1; no author of the
# 120-author synth graph reaches a venue along two papers
@pytest.mark.parametrize(
    "which, name, repeats",
    [("synth", "APTP", True), ("synth", "APVP", False), ("parallel", "APTP", True), ("parallel", "APVP", True)],
)
def test_dense_pool_of_reach_frontier_byte_equal_to_counting_frontier(which, name, repeats, synth_graph, dblp_schema):
    """The 0/1 frontier of the set walk pools, through the grouped dense
    route, to the bytes of the path-count frontier it replaced: both have
    the same nonzero cells, and the products are clipped to 1."""
    graph = synth_graph if which == "synth" else _parallel_edges_graph(dblp_schema)
    mp = next(m for m in enumerate_metapaths(graph.schema, 3) if m.name == name)
    nodes = list(range(graph.num_nodes("author"))) if which == "synth" else [3, 0, 1, 2, 1]
    frontier = hetgraph._frontier(graph, np.asarray(nodes, dtype=np.int64), mp)
    counts = frontier_counts(graph, nodes, mp)
    assert (counts.max() > 1) == repeats
    assert _same_bytes(frontier, (counts > 0).astype(np.float64))
    rel = graph.schema.relation(mp.relations[-1])
    grouping = hetgraph._column_groups(graph.csr[rel.name], graph.num_nodes(rel.dst))
    got = hetgraph._dense_pool(graph, mp, frontier, grouping)
    assert _same_bytes(got, hetgraph._dense_pool(graph, mp, counts, grouping))


def test_grouped_dense_route_with_every_column_distinct(toy_graph, dense_calls, column_groups):
    # APA's last hop ends at the authors, whose paper sets all differ
    mp = next(m for m in enumerate_metapaths(toy_graph.schema, 2) if m.name == "APA")
    nodes = list(range(toy_graph.num_nodes("author")))
    groups = _assert_grouped_route_matches_both_oracles(toy_graph, nodes, mp, dense_calls, column_groups)
    assert groups == toy_graph.num_nodes("author")


def test_grouped_dense_route_in_several_incidence_tiles(synth_graph, monkeypatch, dense_calls, column_groups):
    # 120 authors x 40 terms fit in the block, and the grouped incidence
    # splits into tiles of 100 groups
    mp = next(m for m in enumerate_metapaths(synth_graph.schema, 3) if m.name == "APTP")
    nodes = list(range(synth_graph.num_nodes("author")))
    monkeypatch.setattr(hetgraph, "REACH_BLOCK", 100 * len(nodes))
    groups = _assert_grouped_route_matches_both_oracles(synth_graph, nodes, mp, dense_calls, column_groups)
    assert groups > 3 * 100


def test_aptp_groups_papers_by_their_terms():
    # at the pool-l3 benchmark's 800 authors, the 8800 papers carry 2 of 40
    # terms each: at most 780 term pairs, so one column per paper would fail
    graph, _ = generate(SynthSpec(authors=800, seed=1))
    mp = next(m for m in enumerate_metapaths(graph.schema, 3) if m.name == "APTP")
    nodes = np.arange(graph.num_nodes("author"))
    assert _dense_route(graph, nodes, mp)
    group, sources, indptr = hetgraph._column_groups(graph.csr["rev_use"], graph.num_nodes("paper"))
    assert indptr.shape[0] - 1 <= graph.num_nodes("paper") // 10
    in_sets = _in_multisets(adjacency_lists(graph), "rev_use", graph.num_nodes("paper"))
    assert len({x for x in in_sets if x}) == indptr.shape[0] - 1
    for d in range(0, graph.num_nodes("paper"), 97):  # every group lists a member's in-neighbours
        g = group[d]
        assert tuple(sources[indptr[g]:indptr[g + 1]]) == in_sets[d]


def _random_multigraph(schema, sizes, edges, seed):
    """Normal features scaled by 4, and ``edges[name]`` edges per forward
    relation drawn with replacement, so that parallel edges occur; the last
    node of the target type is on no edge, so every pool of it is empty."""
    rng = np.random.default_rng(seed)
    features = {t: rng.normal(size=(n, 3)) * 4.0 for t, n in sizes.items()}
    target = schema.target_type
    graph_edges = {}
    for rel in schema.relations:
        if rel.name in graph_edges:  # the inverse of a relation drawn before it
            continue
        hi = [sizes[t] - (t == target) for t in (rel.src, rel.dst)]
        pairs = np.stack([rng.integers(0, n, size=edges.get(rel.name, 0)) for n in hi], axis=1)
        graph_edges[rel.name] = pairs.astype(np.int64).reshape(-1, 2)
        graph_edges[rel.inverse] = graph_edges[rel.name][:, ::-1].copy()
    return HeteroGraph(schema, features, graph_edges, np.full(sizes[target], UNLABELED))


@pytest.mark.parametrize(
    "which",
    [
        "dblp",
        "dblp-no-terms",  # use and rev_use have no edges: every pool through them is empty
        "acm",  # cite and ref link papers to papers
    ],
)
def test_multiset_pools_on_multigraphs_match_oracles_up_to_length_4(which, dblp_schema, acm_schema, dense_calls, reach_calls):
    if which == "acm":
        sizes = {"paper": 30, "author": 12, "subject": 4}
        graph = _random_multigraph(acm_schema, sizes, {"cite": 45, "write": 50, "belong": 40}, seed=7)
    else:
        sizes = {"author": 16, "paper": 30, "venue": 4, "term": 6}
        edges = {"write": 50, "publish": 30, "use": 0 if which == "dblp-no-terms" else 55}
        graph = _random_multigraph(dblp_schema, sizes, edges, seed=3)
    n = graph.num_nodes(graph.schema.target_type)
    assert any(np.unique(e, axis=0).shape[0] < e.shape[0] for e in graph.edges.values())  # parallel edges
    adj = adjacency_lists(graph)
    subset = [n - 1, 4, 2, 9, 4, 0, n - 2, 2, n - 1]  # unordered, repeats, the empty pool first and last
    for nodes in (list(range(n)), subset, []):  # no query nodes: (0, D) tables
        for mp in enumerate_metapaths(graph.schema, 4):
            feats = graph.features[mp.terminal_type]
            dense_calls.clear()
            reach_calls.clear()
            got = pooled_neighbor_features(graph, nodes, mp, multiset=True)
            assert dense_calls == [] and reach_calls == [], mp.name  # neither the dense route nor a walk
            assert _within_tolerance(got, pooled_table(graph, adj, nodes, mp, True), feats), mp.name
            assert _within_tolerance(got, pooled_walk_tiles(graph, nodes, mp, True), feats), mp.name
    for mp in enumerate_metapaths(graph.schema, 4):
        got = pooled_neighbor_features(graph, subset, mp, multiset=True)
        assert not got[[0, -1]].any(), mp.name
        if "use" in mp.relations and which == "dblp-no-terms":
            assert not got.any(), mp.name


def test_multiset_parallel_edges_count_twice(dblp_schema, reach_calls):
    # author 0 writes paper 0 twice and paper 1 once; author 1 writes paper 1
    # twice; author 2 writes nothing
    features = {
        "author": np.array([[1.0], [10.0], [0.0]]),
        "paper": np.array([[1.0], [4.0]]),
        "venue": np.zeros((1, 1)),
        "term": np.zeros((1, 1)),
    }
    forward = {"write": [(0, 0), (0, 1), (0, 0), (1, 1), (1, 1)], "publish": [], "use": []}
    edges = {}
    for name, pairs in forward.items():
        edges[name] = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        edges["rev_" + name] = edges[name][:, ::-1].copy()
    graph = HeteroGraph(dblp_schema, features, edges, np.full(3, UNLABELED))
    paths = {mp.name: mp for mp in enumerate_metapaths(dblp_schema, 2)}
    ap = pooled_neighbor_features(graph, [0, 1, 2], paths["AP"], multiset=True)
    assert ap.tolist() == [[2.0], [4.0], [0.0]]  # (1 + 1 + 4) / 3; a set pool of author 0 is 2.5
    # APA: author 0 reaches itself along 2 * 2 + 1 paths and author 1 along
    # 1 * 2; author 1 reaches author 0 along 2 * 1 and itself along 2 * 2
    apa = pooled_neighbor_features(graph, [1, 0], paths["APA"], multiset=True)
    assert _within_tolerance(apa, np.array([[(2 * 1.0 + 4 * 10.0) / 6], [(5 * 1.0 + 2 * 10.0) / 7]]), features["author"])
    assert reach_calls == []
    assert pooled_neighbor_features(graph, [0], paths["AP"]).tolist() == [[2.5]]


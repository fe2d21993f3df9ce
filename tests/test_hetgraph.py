import os
import shutil

import numpy as np
import pytest

from graphscm.errors import LoadError
from graphscm.hetgraph import (
    UNLABELED,
    HeteroGraph,
    _fast_features,
    _fast_pairs,
    _read_edges_lines,
    _read_features_lines,
    _stable_order,
    Relation,
    Schema,
    enumerate_metapaths,
    load_graph,
    metapath_reach,
    pooled_neighbor_features,
    write_dataset,
)

from oracles import metapath_neighbors_dfs, write_dataset_lines


def _reach_sets(graph, nodes, mp):
    sets = [set() for _ in nodes]
    for lo, _, rows, indices in metapath_reach(graph, nodes, mp.relations):
        for r, v in zip(rows, indices):
            sets[lo + int(r)].add(int(v))
    return sets


def _metapath(schema, max_len, name):
    for mp in enumerate_metapaths(schema, max_len):
        if mp.name == name:
            return mp
    raise AssertionError(f"metapath {name} not found")


# ---------------------------------------------------------------------------
# loading

def test_toy_fixture_counts(toy_graph):
    assert toy_graph.num_nodes("author") == 3
    assert toy_graph.num_nodes("paper") == 4
    assert toy_graph.num_nodes("venue") == 1
    assert toy_graph.total_nodes == 8
    # inverse edge lists synthesized from the forward files
    assert toy_graph.edges["rev_write"].shape == (6, 2)
    assert toy_graph.total_edges == 20
    assert list(toy_graph.labeled_nodes()) == [0, 1, 2]


def test_roundtrip_write_then_load(toy_graph, tmp_path):
    out = str(tmp_path / "copy")
    write_dataset(toy_graph, out)
    again = load_graph(out)
    assert again.total_nodes == toy_graph.total_nodes
    assert again.total_edges == toy_graph.total_edges
    for t in toy_graph.schema.node_types:
        assert np.array_equal(again.features[t], toy_graph.features[t])
    assert np.array_equal(again.labels, toy_graph.labels)


def _synth_with_unlabeled_nodes():
    from graphscm.synth import SynthSpec, generate

    graph, _ = generate(SynthSpec(authors=120, seed=4))
    labels = graph.labels.copy()
    labels[::7] = UNLABELED
    return HeteroGraph(graph.schema, graph.features, graph.edges, labels)


@pytest.mark.parametrize("which", ["toy", "synth"])
def test_write_dataset_bytes_equal_line_writer(which, toy_graph, tmp_path):
    graph = toy_graph if which == "toy" else _synth_with_unlabeled_nodes()
    assert which == "toy" or (graph.labels == UNLABELED).any()
    write_dataset(graph, str(tmp_path / "fast"))
    write_dataset_lines(graph, str(tmp_path / "lines"))
    names = sorted(os.listdir(tmp_path / "lines"))
    assert sorted(os.listdir(tmp_path / "fast")) == names
    for name in names:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "lines" / name).read_bytes(), name


def test_write_dataset_zero_width_features(toy_graph, tmp_path):
    features = dict(toy_graph.features, venue=np.zeros((1, 0)))
    graph = HeteroGraph(toy_graph.schema, features, toy_graph.edges, toy_graph.labels)
    write_dataset(graph, str(tmp_path / "fast"))
    write_dataset_lines(graph, str(tmp_path / "lines"))
    assert (tmp_path / "fast" / "nodes-venue.tsv").read_bytes() == b"0\n"
    assert (tmp_path / "lines" / "nodes-venue.tsv").read_bytes() == b"0\n"


def test_write_dataset_empty_relation_and_digit_boundaries(dblp_schema, tmp_path):
    # paper ids cross every digit count up to 100000; nothing uses a term
    sizes = {"author": 11, "paper": 100001, "venue": 2, "term": 1}
    features = {t: np.zeros((n, 0)) for t, n in sizes.items()}
    ids = np.array([0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000])
    forward = {
        "write": np.column_stack([np.arange(11), ids]),
        "publish": np.column_stack([ids % 2, ids[::-1]]),
        "use": np.zeros((0, 2), dtype=np.int64),
    }
    edges = dict(forward, **{"rev_" + name: e[:, ::-1].copy() for name, e in forward.items()})
    labels = np.array([UNLABELED, 1, 2, 3, 0, UNLABELED, 1, 2, 3, 0, 1])
    graph = HeteroGraph(dblp_schema, features, edges, labels)
    write_dataset(graph, str(tmp_path / "fast"))
    write_dataset_lines(graph, str(tmp_path / "lines"))
    names = sorted(os.listdir(tmp_path / "lines"))
    assert sorted(os.listdir(tmp_path / "fast")) == names
    for name in names:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "lines" / name).read_bytes(), name
    assert (tmp_path / "fast" / "edges-use.tsv").read_bytes() == b""
    assert (tmp_path / "fast" / "edges-write.tsv").read_bytes().endswith(b"\n8\t10000\n9\t99999\n10\t100000\n")


def test_write_dataset_bytes_equal_line_writer_at_id_and_float_edges(dblp_schema, tmp_path):
    # ids cross every digit count up to 100000; one venue feature column
    # holds the float forms repr spells apart (NaNs with other bits
    # included), every paper feature is distinct, and there are no terms
    sizes = {"author": 11, "paper": 100001, "venue": 11, "term": 0}
    ids = np.array([0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000])
    forms = [0.0, -0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, np.nan, np.inf, -np.inf]
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    venue = np.column_stack([np.concatenate([forms, nans]), np.ones(11)])
    papers = np.random.default_rng(5).standard_normal((sizes["paper"], 2))
    assert np.unique(papers).size == papers.size
    features = {"author": np.resize(venue[:, 0], (11, 3)), "paper": papers, "venue": venue, "term": np.zeros((0, 2))}
    forward = {
        "write": np.column_stack([np.arange(11), ids]),
        "publish": np.column_stack([np.arange(11), ids[::-1]]),
        "use": np.zeros((0, 2), dtype=np.int64),
    }
    edges = dict(forward, **{"rev_" + name: e[:, ::-1].copy() for name, e in forward.items()})
    labels = np.array([UNLABELED, 1, 2, 3, 0, UNLABELED, 1, 2, 3, 0, 1])
    graph = HeteroGraph(dblp_schema, features, edges, labels)
    write_dataset(graph, str(tmp_path / "fast"))
    write_dataset_lines(graph, str(tmp_path / "lines"))
    names = sorted(os.listdir(tmp_path / "lines"))
    assert sorted(os.listdir(tmp_path / "fast")) == names
    for name in names:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "lines" / name).read_bytes(), name
    assert (tmp_path / "fast" / "nodes-term.tsv").read_bytes() == b""
    venue_lines = (tmp_path / "fast" / "nodes-venue.tsv").read_text().splitlines()
    assert [line.split("\t")[1] for line in venue_lines] == (
        "0.0 -0.0 5e-324 1e+16 1e-05 0.30000000000000004 nan inf -inf nan nan".split()
    )


@pytest.mark.parametrize("n", [1, 255, 256, 257, 65535, 65536, 65537])
def test_stable_order_equals_int64_stable_argsort(n):
    rng = np.random.default_rng(n)
    # shuffled keys with many duplicates, every key of the range among them
    keys = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, size=3 * n + 7)]))
    assert np.array_equal(_stable_order(keys, n), np.argsort(keys.astype(np.int64), kind="stable"))
    assert _stable_order(keys[:0], n).shape == (0,)


def test_csr_equals_int64_argsort_build():
    from graphscm.synth import SynthSpec, generate

    graph, _ = generate(SynthSpec(authors=120, seed=0))
    for name, (indptr, indices) in graph.csr.items():
        e = graph.edges[name]
        order = np.argsort(e[:, 0].astype(np.int64), kind="stable")
        assert np.array_equal(indices, e[order, 1]), name
        assert np.array_equal(indptr, np.searchsorted(e[order, 0], np.arange(indptr.shape[0]))), name


def test_dangling_edge_index_rejected(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    path = os.path.join(bad, "edges-write.tsv")
    with open(path, encoding="utf-8") as fh:
        line = len(fh.read().splitlines()) + 1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0\t99\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert f"edges-write.tsv:{line}: destination id 99 out of range: 'paper' has" in str(exc.value)


def test_dangling_edge_index_in_inverse_only_file_names_that_file(toy_dir, tmp_path):
    # the inverse relation's file stands in for the absent forward file; a
    # blank line before the bad one keeps row and line numbers apart
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    forward = os.path.join(bad, "edges-write.tsv")
    with open(forward, encoding="utf-8") as fh:
        pairs = [line.split("\t") for line in fh.read().splitlines()]
    os.remove(forward)
    with open(os.path.join(bad, "edges-rev_write.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{d}\t{s}\n" for s, d in pairs) + "\n99\t0\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert f"edges-rev_write.tsv:{len(pairs) + 2}: source id 99 out of range: 'paper' has" in str(exc.value)


def test_duplicate_node_id_rejected(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "nodes-venue.tsv"), "a", encoding="utf-8") as fh:
        fh.write("0\t0.0\t0.0\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "duplicate" in str(exc.value)


@pytest.mark.parametrize("repeat", ["0\t0\n", "0\t1\n"], ids=["same-class", "other-class"])
def test_label_listed_twice_names_line_and_id(toy_dir, tmp_path, repeat):
    # a second label for node 0, equal to its first or not, used to load
    # silently with the last one kept
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "labels.tsv"), "a", encoding="utf-8") as fh:
        fh.write(repeat)
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "labels.tsv:4: duplicate node id 0" in str(exc.value)


def test_feature_width_mismatch_names_file_and_line(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "nodes-author.tsv"), "a", encoding="utf-8") as fh:
        fh.write("3\t1.0\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "nodes-author.tsv:4" in str(exc.value)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(LoadError):
        load_graph(str(tmp_path / "nowhere"))


# ---------------------------------------------------------------------------
# schema validation

def test_schema_requires_mutual_inverses():
    with pytest.raises(LoadError):
        Schema(
            node_types=["a", "b"],
            relations=[Relation("r", "a", "b", "missing")],
            target_type="a",
            num_classes=2,
        )


# ---------------------------------------------------------------------------
# metapath enumeration

def test_dblp_author_len2(dblp_schema):
    names = [mp.name for mp in enumerate_metapaths(dblp_schema, 2)]
    assert names == ["AP", "APA", "APV", "APT"]


def test_dblp_author_len1(dblp_schema):
    names = [mp.name for mp in enumerate_metapaths(dblp_schema, 1)]
    assert names == ["AP"]


def test_acm_paper_len1(acm_schema):
    names = [mp.name for mp in enumerate_metapaths(acm_schema, 1)]
    assert names == ["PcP", "PrP", "PA", "PS"]


def test_enumeration_deterministic_and_composable(dblp_schema):
    first = enumerate_metapaths(dblp_schema, 3)
    second = enumerate_metapaths(dblp_schema, 3)
    assert [mp.name for mp in first] == [mp.name for mp in second]
    by_name = {r.name: r for r in dblp_schema.relations}
    for mp in first:
        assert by_name[mp.relations[0]].src == "author"
        for a, b in zip(mp.relations, mp.relations[1:]):
            assert by_name[a].dst == by_name[b].src
        assert by_name[mp.relations[-1]].dst == mp.terminal_type


# ---------------------------------------------------------------------------
# neighbor sets

def test_apa_neighbors_include_self_and_coauthors(toy_graph):
    apa = _metapath(toy_graph.schema, 2, "APA")
    assert _reach_sets(toy_graph, [0], apa) == [{0, 1, 2}]


def test_single_edge_chain(toy_graph):
    ap = _metapath(toy_graph.schema, 1, "AP")
    assert _reach_sets(toy_graph, [2], ap) == [{1, 3}]


def test_isolated_node_empty_set():
    schema = Schema(
        node_types=["a", "b"],
        relations=[
            Relation("r", "a", "b", "rev_r"),
            Relation("rev_r", "b", "a", "r"),
        ],
        target_type="a",
        num_classes=2,
    )
    graph = HeteroGraph(
        schema=schema,
        features={"a": np.zeros((2, 1)), "b": np.zeros((1, 1))},
        edges={"r": np.array([[0, 0]]), "rev_r": np.array([[0, 0]])},
        labels=np.array([0, 1]),
    )
    mp = enumerate_metapaths(schema, 1)[0]
    assert _reach_sets(graph, [1], mp) == [set()]
    pooled = pooled_neighbor_features(graph, [1], mp)
    assert np.array_equal(pooled, np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# pooling

def test_two_point_mean(toy_graph):
    ap = _metapath(toy_graph.schema, 1, "AP")
    # author 0 writes papers 0 and 1 with features (0.5,0.5) and (0.3,0.7)
    pooled = pooled_neighbor_features(toy_graph, [0], ap)
    assert np.allclose(pooled, [[0.4, 0.6]])


def test_single_neighbor_verbatim(toy_graph):
    apv = _metapath(toy_graph.schema, 2, "APV")
    pooled = pooled_neighbor_features(toy_graph, [0], apv)
    assert np.array_equal(pooled[0], toy_graph.features["venue"][0])


def _random_bipartite_graph(rng, n_a=10, n_b=10, n_edges=30):
    schema = Schema(
        node_types=["a", "b"],
        relations=[
            Relation("fwd", "a", "b", "bwd"),
            Relation("bwd", "b", "a", "fwd"),
        ],
        target_type="a",
        num_classes=2,
    )
    e = np.stack(
        [rng.integers(0, n_a, size=n_edges), rng.integers(0, n_b, size=n_edges)], axis=1
    )
    return HeteroGraph(
        schema=schema,
        features={"a": rng.normal(size=(n_a, 3)), "b": rng.normal(size=(n_b, 4))},
        edges={"fwd": e, "bwd": e[:, ::-1].copy()},
        labels=rng.integers(0, 2, size=n_a),
    )


def test_pooling_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(123)
    for _ in range(5):
        graph = _random_bipartite_graph(rng)
        for mp in enumerate_metapaths(graph.schema, 2):
            edges_by_rel = {
                name: [tuple(p) for p in pairs] for name, pairs in graph.edges.items()
            }
            pooled = pooled_neighbor_features(graph, list(range(10)), mp)
            reached = _reach_sets(graph, list(range(10)), mp)
            for node in range(10):
                expected_set = metapath_neighbors_dfs(edges_by_rel, list(mp.relations), node)
                assert reached[node] == expected_set
                feats = graph.features[mp.terminal_type]
                expected = (
                    feats[sorted(expected_set)].mean(axis=0)
                    if expected_set
                    else np.zeros(feats.shape[1])
                )
                assert np.max(np.abs(pooled[node] - expected)) < 1e-12


def test_pooling_invariant_to_edge_permutation(toy_dir, tmp_path):
    scrambled = str(tmp_path / "scrambled")
    shutil.copytree(toy_dir, scrambled)
    path = os.path.join(scrambled, "edges-write.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if l]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(reversed(lines)) + "\n")
    base = load_graph(toy_dir)
    perm = load_graph(scrambled)
    for mp in enumerate_metapaths(base.schema, 2):
        a = pooled_neighbor_features(base, [0, 1, 2], mp)
        b = pooled_neighbor_features(perm, [0, 1, 2], mp)
        assert np.array_equal(a, b)


def test_isolated_node_does_not_change_others(toy_graph, tmp_path):
    out = str(tmp_path / "plus_one")
    write_dataset(toy_graph, out)
    with open(os.path.join(out, "nodes-author.tsv"), "a", encoding="utf-8") as fh:
        fh.write("3\t0.0\t0.0\n")
    bigger = load_graph(out)
    for mp in enumerate_metapaths(toy_graph.schema, 2):
        a = pooled_neighbor_features(toy_graph, [0, 1, 2], mp)
        b = pooled_neighbor_features(bigger, [0, 1, 2], mp)
        assert np.array_equal(a, b)


def test_multiset_pooling_weights_by_path_count(toy_graph):
    apa = _metapath(toy_graph.schema, 2, "APA")
    # author 0 reaches itself twice (via papers 0 and 1), authors 1 and 2 once
    feats = toy_graph.features["author"]
    expected = (2 * feats[0] + feats[1] + feats[2]) / 4.0
    pooled = pooled_neighbor_features(toy_graph, [0], apa, multiset=True)
    assert np.allclose(pooled[0], expected)


# ---------------------------------------------------------------------------
# fast parse parity: the numpy reader either returns exactly what the
# line-by-line reader returns, or declines and leaves the file to it

EDGE_CASES = {
    "blank_lines": ("0\t1\n\n2\t3\n\n", True),
    "crlf": ("0\t1\r\n2\t3\r\n", True),
    "leading_hash": ("#src\tdst\n0\t1\n", False),
    "trailing_tab": ("0\t1\t\n", False),
    "underscore_digits": ("1_0\t1\n", False),
    "leading_space": (" 3\t1\n", True),
    "float_id": ("3.0\t1\n", False),
    "single_line": ("0\t1", True),
    "empty": ("", True),
}

NODE_CASES = {
    "blank_lines": ("0\t0.5\n\n1\t1.5\n", True),
    "crlf": ("0\t0.5\r\n1\t1.5\r\n", True),
    "leading_hash": ("# id\tx\n0\t0.5\n", False),
    "trailing_tab": ("0\t0.5\t\n", False),
    "underscore_digits": ("0\t1_0\n1\t2\n", False),
    "leading_space": (" 1\t0.5\n0\t-0.0\n", True),
    "float_id": ("0.0\t0.5\n", False),
    "single_line": ("0\t0.25\t1e-3", True),
    "nan": ("0\t0.5\n1\tnan\n", False),
    "inf": ("0\tinf\n", False),
    "overflow_to_inf": ("0\t1e400\n", False),
}


def _lines_result(reader, path):
    try:
        return reader(path)
    except LoadError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_fast_edge_parse_matches_line_parser(case, tmp_path):
    text, fast_expected = EDGE_CASES[case]
    path = tmp_path / "edges-r.tsv"
    path.write_bytes(text.encode("utf-8"))
    fast = _fast_pairs(str(path))
    slow = _lines_result(_read_edges_lines, str(path))
    assert (fast is not None) == fast_expected
    if fast is not None:
        assert isinstance(slow, np.ndarray)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert np.array_equal(fast, slow)
    if case == "empty":
        assert fast.shape == (0, 2)


@pytest.mark.parametrize("case", sorted(NODE_CASES))
def test_fast_node_parse_matches_line_parser(case, tmp_path):
    text, fast_expected = NODE_CASES[case]
    path = tmp_path / "nodes-t.tsv"
    path.write_bytes(text.encode("utf-8"))
    fast = _fast_features(str(path))
    slow = _lines_result(_read_features_lines, str(path))
    assert (fast is not None) == fast_expected
    if fast is not None:
        assert isinstance(slow, np.ndarray)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()
    if case in ("nan", "inf", "overflow_to_inf"):
        assert "non-finite" in slow and slow.startswith(f"{path}:")


def test_loader_takes_the_fast_path_on_synth_output(tmp_path):
    from graphscm.synth import SynthSpec, generate

    graph, _ = generate(SynthSpec(authors=60, seed=2))
    write_dataset(graph, str(tmp_path))
    for t in graph.schema.node_types:
        fast = _fast_features(str(tmp_path / f"nodes-{t}.tsv"))
        assert fast is not None and fast.tobytes() == graph.features[t].tobytes()
    for r in graph.schema.relations:
        assert np.array_equal(_fast_pairs(str(tmp_path / f"edges-{r.name}.tsv")), graph.edges[r.name])


def test_non_finite_feature_rejected_with_file_and_line(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "nodes-author.tsv"), "a", encoding="utf-8") as fh:
        fh.write("3\tnan\t0.0\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "nodes-author.tsv:4" in str(exc.value) and "non-finite" in str(exc.value)


def test_label_out_of_range_names_file_and_line(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "labels.tsv"), "a", encoding="utf-8") as fh:
        fh.write("1\t7\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "labels.tsv:4: class 7 out of range" in str(exc.value)


def test_inverse_edge_files_must_agree(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "edges-rev_write.tsv"), "w", encoding="utf-8") as fh:
        fh.write("0\t2\n")
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "edges-rev_write.tsv and edges-write.tsv" in str(exc.value)


def test_inverse_edge_files_that_agree_load(toy_graph, tmp_path):
    out = str(tmp_path / "both")
    write_dataset(toy_graph, out)  # writes every relation, inverses included
    with open(os.path.join(out, "edges-rev_write.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(out, "edges-rev_write.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(reversed(lines)) + "\n")  # same multiset, other order
    again = load_graph(out)
    assert again.total_edges == toy_graph.total_edges


def test_malformed_schema_json_names_line_and_column(toy_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "schema.json"), "w", encoding="utf-8") as fh:
        fh.write('{\n  "node_types": ["author",\n')
    with pytest.raises(LoadError) as exc:
        load_graph(bad)
    assert "schema.json:3:1: malformed JSON" in str(exc.value)


def test_csr_rows_keep_file_order(toy_graph):
    for name, e in toy_graph.edges.items():
        indptr, indices = toy_graph.csr[name]
        for s in range(indptr.shape[0] - 1):
            assert list(indices[indptr[s]:indptr[s + 1]]) == [int(d) for a, d in e if a == s]

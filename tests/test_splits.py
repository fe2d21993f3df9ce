import json

import numpy as np
import pytest

from graphscm.errors import ConfigError, LoadError
from graphscm.hetgraph import HeteroGraph, Relation, Schema
from graphscm.splits import (
    BiasFeatureTable,
    SplitSpec,
    degree_features,
    homophily_features,
    iid_split,
    kmeans2,
    ood_split,
    pca_components,
    split_report,
)


# ---------------------------------------------------------------------------
# i.i.d split

def test_iid_100_gives_24_6_70():
    spec = iid_split(list(range(100)), seed=0)
    assert (len(spec.train), len(spec.val), len(spec.test)) == (24, 6, 70)


def test_iid_10_forces_nonempty_val():
    spec = iid_split(list(range(10)), seed=1)
    assert (len(spec.train), len(spec.val), len(spec.test)) == (2, 1, 7)


def test_iid_partition_properties_over_seeds():
    nodes = list(range(73))
    for seed in range(50):
        spec = iid_split(nodes, seed=seed)
        parts = spec.train + spec.val + spec.test
        assert sorted(parts) == nodes
        assert len(set(parts)) == len(parts)


def test_iid_requires_ten_nodes():
    with pytest.raises(ConfigError):
        iid_split(list(range(9)), seed=0)


# ---------------------------------------------------------------------------
# bias features on the toy fixture

def test_homophily_toy_author_half(toy_graph):
    table = homophily_features(toy_graph)
    assert table.columns == ["APA"]
    row = table.nodes.index(0)
    # author 0's co-authors are 1 (same label) and 2 (other label)
    assert table.values[row, 0] == pytest.approx(0.5)


def test_homophily_all_agree_is_one(toy_graph):
    toy_graph.labels[:] = 0
    table = homophily_features(toy_graph)
    assert np.allclose(table.values, 1.0)


def test_homophily_fraction_forced_by_definition():
    # three neighbors with labels [0, 0, 1] and node label 0 -> 2/3
    schema = Schema(
        node_types=["a", "p"],
        relations=[
            Relation("w", "a", "p", "rev_w"),
            Relation("rev_w", "p", "a", "w"),
        ],
        target_type="a",
        num_classes=2,
    )
    # node 0 shares one paper with each of 1, 2, 3
    edges = np.array([[0, 0], [1, 0], [0, 1], [2, 1], [0, 2], [3, 2]])
    graph = HeteroGraph(
        schema=schema,
        features={"a": np.zeros((4, 1)), "p": np.zeros((3, 1))},
        edges={"w": edges, "rev_w": edges[:, ::-1].copy()},
        labels=np.array([0, 0, 0, 1]),
    )
    table = homophily_features(graph)
    row = table.nodes.index(0)
    assert table.values[row, 0] == pytest.approx(2.0 / 3.0)


def test_degree_features_toy(toy_graph):
    table = degree_features(toy_graph)
    assert table.columns == ["AP"]
    row = table.nodes.index(0)
    assert table.values[row, 0] == pytest.approx(np.log(3.0))


def test_degree_isolated_and_single():
    schema = Schema(
        node_types=["a", "p"],
        relations=[
            Relation("w", "a", "p", "rev_w"),
            Relation("rev_w", "p", "a", "w"),
        ],
        target_type="a",
        num_classes=2,
    )
    edges = np.array([[0, 0]])
    graph = HeteroGraph(
        schema=schema,
        features={"a": np.zeros((2, 1)), "p": np.zeros((1, 1))},
        edges={"w": edges, "rev_w": edges[:, ::-1].copy()},
        labels=np.array([0, 1]),
    )
    table = degree_features(graph)
    assert table.values[table.nodes.index(1), 0] == 0.0
    assert table.values[table.nodes.index(0), 0] == pytest.approx(np.log(2.0))


# ---------------------------------------------------------------------------
# PCA

def test_pca_axis_aligned_point_set():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    proj, components, eigvals = pca_components(pts, 2)
    assert proj.shape[1] == 1  # the y column has zero variance and is dropped
    assert np.allclose(sorted(proj[:, 0]), [-1.0, 0.0, 1.0])
    assert np.allclose(np.abs(components[:, 0]), [1.0])


def test_pca_components_orthonormal():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6)) @ rng.normal(size=(6, 6))
    _, components, _ = pca_components(x, 6)
    gram = components.T @ components
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_pca_reconstruction_error_matches_discarded_eigenvalues():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
    n = x.shape[0]
    centered = x - x.mean(axis=0)
    for k in range(1, 5):
        proj, components, eigvals_full = pca_components(x, 5)
        v_k = components[:, :k]
        recon = centered @ v_k @ v_k.T
        err = ((centered - recon) ** 2).sum()
        expected = eigvals_full[k:].sum() * (n - 1)
        assert err == pytest.approx(expected, abs=1e-8)


def test_pca_preserves_distances_at_full_rank():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 4))
    proj, _, _ = pca_components(x, 4)
    for i in range(12):
        for j in range(i + 1, 12):
            orig = np.linalg.norm(x[i] - x[j])
            mapped = np.linalg.norm(proj[i] - proj[j])
            assert mapped == pytest.approx(orig, abs=1e-8)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    _, c1, _ = pca_components(x, 3)
    _, c2, _ = pca_components(x.copy(), 3)
    assert np.array_equal(c1, c2)
    for j in range(c1.shape[1]):
        assert c1[np.argmax(np.abs(c1[:, j])), j] > 0


# ---------------------------------------------------------------------------
# k-means

def _blob_table(rng, n_per=20, sep=10.0):
    a = rng.normal(size=(n_per, 2)) + np.array([0.0, 0.0])
    b = rng.normal(size=(n_per, 2)) + np.array([sep, sep])
    values = np.vstack([a, b])
    return BiasFeatureTable(
        nodes=list(range(2 * n_per)), columns=["f0", "f1"], values=values
    ), np.array([0] * n_per + [1] * n_per)


def test_kmeans_recovers_separated_blobs_over_seeds():
    rng = np.random.default_rng(5)
    table, truth = _blob_table(rng)
    for seed in range(20):
        assign, _ = kmeans2(table, seed=seed)
        agreement = max(np.mean(assign == truth), np.mean(assign != truth))
        assert agreement == 1.0


def test_kmeans_final_assignment_is_fixed_point():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(50, 3))
    table = BiasFeatureTable(nodes=list(range(50)), columns=["a", "b", "c"], values=values)
    assign, inertia = kmeans2(table, seed=0)
    x = (values - values.mean(axis=0)) / values.std(axis=0)
    centers = np.stack([x[assign == c].mean(axis=0) for c in (0, 1)])
    dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), assign)
    assert inertia == pytest.approx(float(dists[np.arange(50), assign].sum()))


def test_kmeans_duplicates_get_same_cluster():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(15, 2))
    values = np.vstack([base, base])  # every point duplicated
    table = BiasFeatureTable(nodes=list(range(30)), columns=["a", "b"], values=values)
    assign, _ = kmeans2(table, seed=3)
    assert np.array_equal(assign[:15], assign[15:])


def test_kmeans_degenerate_identical_rows():
    values = np.ones((12, 2))
    table = BiasFeatureTable(nodes=list(range(12)), columns=["a", "b"], values=values)
    with pytest.raises(ConfigError):
        kmeans2(table, seed=0)


# ---------------------------------------------------------------------------
# o.o.d split

def _degree_blob_graph(n_high=10, n_low=8, papers_per_high=5):
    schema = Schema(
        node_types=["a", "p"],
        relations=[
            Relation("w", "a", "p", "rev_w"),
            Relation("rev_w", "p", "a", "w"),
        ],
        target_type="a",
        num_classes=2,
    )
    edges = []
    paper = 0
    for author in range(n_high):
        for _ in range(papers_per_high):
            edges.append((author, paper))
            paper += 1
    n_authors = n_high + n_low
    e = np.array(edges)
    rng = np.random.default_rng(0)
    return HeteroGraph(
        schema=schema,
        features={"a": rng.normal(size=(n_authors, 3)), "p": rng.normal(size=(paper, 2))},
        edges={"w": e, "rev_w": e[:, ::-1].copy()},
        labels=np.array([i % 2 for i in range(n_authors)]),
    )


def test_ood_split_degree_blobs_sizes_and_test_cluster():
    graph = _degree_blob_graph()
    spec = ood_split(graph, "degree", seed=0)
    # the 10 high-degree authors form the larger cluster -> 6 train / 4 val
    assert (len(spec.train), len(spec.val)) == (6, 4)
    assert sorted(spec.test) == list(range(10, 18))
    assert set(spec.train) | set(spec.val) == set(range(10))
    assert spec.provenance == "degree"


def test_ood_split_deterministic_per_seed():
    graph = _degree_blob_graph()
    a = ood_split(graph, "degree", seed=4)
    b = ood_split(graph, "degree", seed=4)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)


def test_ood_split_unknown_bias():
    graph = _degree_blob_graph()
    with pytest.raises(ConfigError):
        ood_split(graph, "velocity", seed=0)


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(train=[1, 2], val=[2], test=[3])
    with pytest.raises(ConfigError):
        SplitSpec(train=[1], val=[], test=[3])


@pytest.mark.parametrize("train, val, test, repeated", [
    ([4, 1, 4], [2], [3], 4),     # twice in one partition
    ([1, 2], [5, 2], [3], 2),     # in two partitions
    ([1, 7], [2], [3, 7, 3], 7),  # the first repeat in list order is named
])
def test_split_file_listing_a_node_twice_exits_2_naming_it(tmp_path, train, val, test, repeated):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps({"train": train, "val": val, "test": test}), encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        SplitSpec.from_json(str(path))
    assert str(exc.value).startswith(f"{path}: node {repeated} is listed twice")


def test_split_spec_json_roundtrip(tmp_path):
    spec = SplitSpec(train=[0, 1], val=[2], test=[3, 4], provenance="degree", seed=9)
    path = str(tmp_path / "splits.json")
    spec.to_json(path)
    again = SplitSpec.from_json(path)
    assert (again.train, again.val, again.test) == (spec.train, spec.val, spec.test)
    assert again.provenance == "degree" and again.seed == 9


def test_split_spec_malformed_json_names_line_and_column(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text('{"train": [0, 1],\n "val": [2,, 3]}\n', encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        SplitSpec.from_json(str(path))
    assert f"{path}:2:12: malformed JSON" in str(exc.value)


# ---------------------------------------------------------------------------
# report

def test_split_report_rows_and_uniform_column():
    graph = _degree_blob_graph()
    spec = ood_split(graph, "degree", seed=0)
    rows = split_report(graph, spec)
    homophily_cols = 1  # APA-style roundtrip
    degree_cols = 1
    pca_cols = 3  # target features have 3 dims
    assert len(rows) == homophily_cols + degree_cols + pca_cols
    # the high-degree authors all share degree 5: within train/val the
    # degree column is constant, so those two means are equal
    degree_row = next(r for r in rows if r["bias"] == "degree")
    assert degree_row["mean_train"] == pytest.approx(degree_row["mean_val"])
    assert degree_row["mean_test"] == pytest.approx(0.0)


def test_split_report_planted_degree_gap_visible():
    graph = _degree_blob_graph()
    spec = ood_split(graph, "degree", seed=1)
    rows = split_report(graph, spec)
    degree_row = next(r for r in rows if r["bias"] == "degree")
    assert degree_row["mean_train"] - degree_row["mean_test"] > 1.0

import filecmp
import os

import numpy as np
import pytest

from graphscm.errors import ConfigError
from graphscm.hetgraph import load_graph, write_dataset
from graphscm.splits import homophily_features
from graphscm.synth import (
    GroundTruth,
    SynthSpec,
    coauthor_agreement,
    coauthor_pairs,
    generate,
    regime_split,
    rule_accuracy,
)

from oracles import adjacency_lists, neighbor_set
from oracles import coauthor_pairs as coauthor_pairs_loop


def _small_spec(**overrides):
    # two classes keep the hand arithmetic in these tests simple
    base = dict(authors=120, terms=20, num_classes=2, term_dim=2, seed=0)
    base.update(overrides)
    return SynthSpec(**base)


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigError):
        SynthSpec(spurious_strength=1.5).validate()
    with pytest.raises(ConfigError):
        SynthSpec(venues_per_class=1).validate()


def test_full_spurious_strength_gives_full_agreement():
    # noise 0 so stored labels equal the wired classes exactly
    graph, truth = generate(_small_spec(spurious_strength=1.0, authors=200, noise=0.0))
    train_regime = set(truth.regime_indices("train"))
    rng = np.random.default_rng(0)
    rate = coauthor_agreement(graph, train_regime, rng=rng, sample=1000)
    assert rate == pytest.approx(1.0, abs=0.02)


def test_test_regime_agreement_near_chance():
    graph, truth = generate(_small_spec(authors=300, spurious_strength=0.95))
    test_regime = set(truth.regime_indices("test"))
    rate = coauthor_agreement(graph, test_regime)
    assert abs(rate - 0.5) < 0.1


def test_noise_zero_rule_is_perfect():
    graph, _ = generate(_small_spec(noise=0.0))
    assert rule_accuracy(graph) == 1.0


def test_rule_accuracy_degrades_continuously_with_noise():
    values = []
    for noise in (0.0, 0.2, 0.4):
        graph, _ = generate(_small_spec(noise=noise, authors=400, seed=3))
        values.append(rule_accuracy(graph))
    assert values[0] == 1.0
    assert values[0] > values[1] > values[2]
    # flips hit a uniform class, so expected accuracy is 1 - noise/2 here
    assert values[1] == pytest.approx(1.0 - 0.2 / 2, abs=0.05)


def test_labels_reproducible_from_records():
    graph, truth = generate(_small_spec(seed=5))
    for rec in truth.records:
        assert graph.labels[rec.author] == rec.label
        if not rec.flipped:
            assert rec.label == rec.majority_class
        assert rec.majority_class == int(np.argmax(
            np.bincount(
                graph.features["venue"].argmax(axis=1)[
                    sorted(
                        {int(v) for v in _apv_pool(graph, rec.author)}
                    )
                ],
                minlength=graph.schema.num_classes,
            )
        ))


def _apv_pool(graph, author):
    from graphscm.hetgraph import enumerate_metapaths

    apv = next(
        mp for mp in enumerate_metapaths(graph.schema, "author", 2) if mp.name == "APV"
    )
    return neighbor_set(adjacency_lists(graph), author, apv)


def test_same_seed_byte_identical_datasets(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        graph, truth = generate(_small_spec(seed=11))
        write_dataset(graph, out)
        truth.to_json(os.path.join(out, "ground-truth.json"))
    for name in sorted(os.listdir(out1)):
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name), shallow=False)


def test_generated_dataset_roundtrips_through_loader(tmp_path):
    graph, _ = generate(_small_spec(seed=2))
    out = str(tmp_path / "ds")
    write_dataset(graph, out)
    again = load_graph(out)
    assert again.total_nodes == graph.total_nodes
    assert again.total_edges == graph.total_edges
    assert np.array_equal(again.labels, graph.labels)


def test_ground_truth_json_roundtrip(tmp_path):
    _, truth = generate(_small_spec(seed=7))
    path = str(tmp_path / "gt.json")
    truth.to_json(path)
    again = GroundTruth.from_json(path)
    assert again.spec == truth.spec
    assert again.planted_cause == truth.planted_cause
    assert [r.label for r in again.records] == [r.label for r in truth.records]


def test_regime_split_ratio_and_disjointness():
    graph, truth = generate(_small_spec(authors=150, test_regime_fraction=1.0 / 3.0))
    spec = regime_split(truth)
    n_train_regime = len(truth.regime_indices("train"))
    assert len(spec.train) == int(0.6 * n_train_regime)
    assert len(spec.train) + len(spec.val) == n_train_regime
    assert sorted(spec.test) == truth.regime_indices("test")
    all_idx = spec.train + spec.val + spec.test
    assert len(set(all_idx)) == len(all_idx)


def test_regime_split_example_sizes():
    graph, truth = generate(
        _small_spec(authors=150, test_regime_fraction=50.0 / 150.0, seed=1)
    )
    spec = regime_split(truth)
    assert (len(spec.train), len(spec.val), len(spec.test)) == (60, 40, 50)


def test_spurious_feature_uninformative_on_test_regime():
    graph, truth = generate(_small_spec(authors=400, seed=9))
    labels = graph.labels
    for regime, expected in (("train", truth.spec.spurious_strength), ("test", 0.5)):
        members = truth.regime_indices(regime)
        correct = 0
        total = 0
        for rec in truth.records:
            if rec.regime != regime or not rec.partners:
                continue
            votes = np.bincount(
                [labels[b] for b in rec.partners], minlength=truth.spec.num_classes
            )
            correct += int(np.argmax(votes) == rec.label)
            total += 1
        acc = correct / total
        if regime == "train":
            assert acc >= truth.spec.spurious_strength - 0.05
        else:
            assert acc <= 1.0 / truth.spec.num_classes + 0.1


def test_planted_homophily_gap_measured_on_graph():
    graph, truth = generate(SynthSpec(authors=600, num_classes=2, term_dim=2, seed=0))
    table = homophily_features(graph)
    idx = {n: i for i, n in enumerate(table.nodes)}
    col = table.columns.index("APA")
    train_mean = np.mean([table.values[idx[a], col] for a in truth.regime_indices("train")])
    test_mean = np.mean([table.values[idx[a], col] for a in truth.regime_indices("test")])
    planted = truth.planted_homophily_gap()
    assert train_mean - test_mean >= 0.8 * planted


def test_coauthor_pairs_match_per_paper_loop(toy_graph):
    from graphscm.hetgraph import HeteroGraph

    synth_graph, _ = generate(_small_spec())
    # the toy graph with one edge repeated and every edge again in reverse order
    write = toy_graph.edges["write"]
    doubled = dict(toy_graph.edges, write=np.concatenate([write, write[:1], write[::-1]]))
    repeated = HeteroGraph(toy_graph.schema, toy_graph.features, doubled, toy_graph.labels)
    for graph in (toy_graph, synth_graph, repeated):
        expected = coauthor_pairs_loop(graph)
        got = coauthor_pairs(graph)
        assert got == expected
        assert all(type(x) is int and type(y) is int for x, y in got)
    assert len(coauthor_pairs_loop(synth_graph)) > 100

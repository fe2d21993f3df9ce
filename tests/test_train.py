import numpy as np
import pytest

from graphscm.errors import ConfigError
from graphscm.hetgraph import pooled_neighbor_features
from graphscm.synth import SynthSpec, generate, regime_split
from graphscm.train import (
    TrainConfig,
    ablation_presets,
    compute_metrics,
    evaluate,
    train,
    write_history_csv,
)

from oracles import confusion_matrix_loops


def _tiny_task(seed=0, authors=60):
    """A small linearly-separable synthetic task: no label noise, strong
    class signal on the venue metapath."""
    graph, truth = generate(
        SynthSpec(
            authors=authors,
            terms=12,
            num_classes=2,
            noise=0.0,
            spurious_strength=0.6,
            partners_per_author=3,
            seed=seed,
        )
    )
    return graph, truth


def _fast_config(**overrides):
    base = dict(
        hidden_dim=12,
        batch_size=32,
        max_epochs=100,
        patience=25,
        beta=0.01,
        gamma=1.0,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# metrics

def test_metrics_all_correct():
    m = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert m.accuracy == 1.0 and m.macro_f1 == 1.0 and m.micro_f1 == 1.0


def test_metrics_hand_computed_confusion():
    # confusion [[1,1],[0,2]]: accuracy 3/4, macro F1 = (2/3 + 4/5) / 2
    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    m = compute_metrics(truth, pred, 2)
    assert m.confusion == [[1, 1], [0, 2]]
    assert m.accuracy == pytest.approx(0.75)
    assert m.macro_f1 == pytest.approx((2.0 / 3.0 + 4.0 / 5.0) / 2.0)
    assert m.micro_f1 == m.accuracy


def test_metrics_absent_class_scores_zero_f1():
    m = compute_metrics([0, 0, 1], [0, 0, 0], 3)
    assert m.per_class[2]["f1"] == 0.0
    assert m.macro_f1 == pytest.approx((1.0 if False else m.per_class[0]["f1"] + 0.0 + 0.0) / 3)


def test_metrics_agree_with_bruteforce_oracle():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=1000)
    pred = rng.integers(0, 4, size=1000)
    m = compute_metrics(truth, pred, 4)
    oracle = confusion_matrix_loops(truth, pred, 4)
    assert np.array_equal(np.array(m.confusion), oracle)
    assert m.accuracy == pytest.approx(np.trace(oracle) / 1000)


@pytest.mark.parametrize(
    "truth, pred, classes",
    [
        ([], [], 3),
        ([0, 0, 2, 2], [2, 2, 0, 0], 3),  # class 1 absent from both
        ([0, 1, 1, 3], [0, 0, 0, 0], 4),  # classes 1-3 never predicted
        ([1, 1, 1], [0, 2, 1], 3),  # classes 0 and 2 absent from truth
    ],
)
def test_confusion_matrix_matches_loop_oracle(truth, pred, classes):
    m = compute_metrics(truth, pred, classes)
    assert np.array_equal(np.array(m.confusion).reshape(classes, classes), confusion_matrix_loops(truth, pred, classes))
    assert all(type(v) is int for row in m.confusion for v in row)


def test_confusion_matrix_random_inputs_match_loop_oracle():
    rng = np.random.default_rng(1)
    for classes in (2, 3, 7):
        for size in (1, 5, 257):
            truth = rng.integers(0, classes, size=size)
            pred = rng.integers(0, classes, size=size)
            got = compute_metrics(truth, pred, classes).confusion
            assert np.array_equal(got, confusion_matrix_loops(truth, pred, classes))


@pytest.mark.parametrize("truth, pred", [([0, 3], [0, 1]), ([0, 1], [0, 3]), ([0, -1], [0, 1]), ([0, 1], [-1, 1])])
def test_metrics_reject_class_outside_range(truth, pred):
    with pytest.raises(ConfigError):
        compute_metrics(truth, pred, 3)


def test_ablation_presets():
    assert ablation_presets("no_both", 0.3, 5.0) == (0.0, 0.0)
    assert ablation_presets("no_rec", 0.3, 5.0) == (0.0, 5.0)
    assert ablation_presets("no_dag", 0.3, 5.0) == (0.3, 0.0)
    assert ablation_presets("full", 0.3, 5.0) == (0.3, 5.0)
    with pytest.raises(ConfigError):
        ablation_presets("sideways", 0.1, 0.1)


# ---------------------------------------------------------------------------
# the loop

def test_patience_zero_runs_exactly_one_epoch():
    graph, truth = _tiny_task()
    splits = regime_split(truth)
    result = train(graph, splits, _fast_config(patience=0, max_epochs=50))
    assert result.epochs_run == 1


def test_training_reaches_perfect_validation_on_separable_task():
    graph, truth = _tiny_task(authors=80)
    splits = regime_split(truth)
    result = train(graph, splits, _fast_config(max_epochs=100, patience=100))
    assert result.best_val_macro_f1 == pytest.approx(1.0)
    assert result.epochs_run <= 100


def test_same_seed_bit_identical_history():
    graph, truth = _tiny_task()
    splits = regime_split(truth)
    r1 = train(graph, splits, _fast_config(max_epochs=6, patience=6))
    r2 = train(graph, splits, _fast_config(max_epochs=6, patience=6))
    rows1 = [s.as_row() for s in r1.history]
    rows2 = [s.as_row() for s in r2.history]
    assert rows1 == rows2
    for name, p in r1.model.named_parameters().items():
        assert np.array_equal(p.data, r2.model.named_parameters()[name].data)
    # the causal-matrix diagonal stays at exactly zero through training
    assert np.array_equal(np.diag(r1.model.scm.dag.data), np.zeros(r1.model.scm.n_vars))


def test_early_stopping_restores_best_epoch_parameters():
    graph, truth = _tiny_task(authors=70)
    splits = regime_split(truth)
    config = _fast_config(max_epochs=40, patience=5)

    result = train(graph, splits, config)
    best = result.best_epoch
    assert best <= result.epochs_run
    # rerun capped exactly at the best epoch: parameters must coincide
    rerun = train(graph, splits, _fast_config(max_epochs=best, patience=best))
    assert rerun.epochs_run == best
    for name, p in result.model.named_parameters().items():
        assert np.array_equal(p.data, rerun.model.named_parameters()[name].data)


def test_early_stopping_stops_patience_epochs_after_the_best():
    """A larger step overfits the validation cross-entropy early, so the run
    stops ``patience`` epochs after its best epoch, well before
    ``max_epochs``, and restores that epoch's parameters."""
    graph, truth = _tiny_task(authors=70)
    splits = regime_split(truth)
    config = _fast_config(learning_rate=0.01, max_epochs=60, patience=5)

    result = train(graph, splits, config)
    assert result.epochs_run == result.best_epoch + config.patience < config.max_epochs
    best = result.best_epoch
    rerun = train(graph, splits, _fast_config(learning_rate=0.01, max_epochs=best, patience=best))
    assert rerun.epochs_run == best
    for name, p in result.model.named_parameters().items():
        assert np.array_equal(p.data, rerun.model.named_parameters()[name].data)


@pytest.mark.parametrize("objective", ["full", "no_both"])
@pytest.mark.parametrize("multiset", [False, True])
def test_dag_diagonal_stays_zero_after_every_step(monkeypatch, objective, multiset):
    """Nothing re-zeroes the diagonal of A during training: after every AdamW
    step it is +0.0 bit for bit, and the gradient the step read is zero there."""
    from graphscm.numcore import AdamW

    graph, truth = _tiny_task()
    splits = regime_split(truth)
    beta, gamma = ablation_presets(objective, 0.01, 1.0)
    config = _fast_config(max_epochs=3, patience=3, beta=beta, gamma=gamma, multiset_neighbors=multiset)
    steps = 0
    step = AdamW.step

    def checked_step(self):
        nonlocal steps
        step(self)
        dag = next(p for p in self.params if p.name == "dag.A")
        diagonal = np.diagonal(dag.data)
        assert not diagonal.any() and not np.signbit(diagonal).any(), steps
        assert not np.diagonal(dag.grad).any(), steps
        steps += 1

    monkeypatch.setattr(AdamW, "step", checked_step)
    result = train(graph, splits, config)
    batches = -(-len(splits.train) // config.batch_size)
    assert steps == result.epochs_run * batches


def test_joint_loss_mostly_non_increasing_early():
    graph, truth = _tiny_task(authors=80)
    splits = regime_split(truth)
    config = _fast_config(max_epochs=20, patience=20)
    result = train(graph, splits, config)
    weights = config.loss_weights()
    joint = [
        s.l_inv + weights.beta * s.l_rec + weights.gamma * s.l_dag for s in result.history
    ]
    drops = sum(1 for a, b in zip(joint, joint[1:]) if b <= a + 1e-12)
    assert drops / (len(joint) - 1) >= 0.8


def test_held_out_nodes_do_not_leak_gradients():
    # test-regime nodes are absent from train batches AND from every train
    # node's neighbor pool (co-author wiring is regime-local), so zeroing
    # their features must leave the parameter updates bit-identical. The
    # val split shares the train regime, hence legitimately feeds pooled
    # neighborhoods, and is left untouched here.
    graph, truth = _tiny_task(authors=60)
    splits = regime_split(truth)
    config = _fast_config(max_epochs=1, patience=1)
    base = train(graph, splits, config)

    graph2, _ = _tiny_task(authors=60)
    held_out = np.array(sorted(splits.test))
    graph2.features["author"][held_out] = 0.0
    modified = train(graph2, splits, config)
    for name, p in base.model.named_parameters().items():
        q = modified.model.named_parameters()[name]
        assert np.array_equal(p.data, q.data), f"parameter {name} changed"


def test_empty_or_unlabeled_split_rejected():
    graph, truth = _tiny_task()
    splits = regime_split(truth)
    graph.labels[splits.train[0]] = -1
    with pytest.raises(ConfigError):
        train(graph, splits, _fast_config())


def test_evaluate_flipped_labels_leave_predictions_unchanged():
    graph, truth = _tiny_task(authors=60)
    splits = regime_split(truth)
    result = train(graph, splits, _fast_config(max_epochs=3, patience=3))
    before = evaluate(graph, result.model, splits.test)
    flipped, _ = _tiny_task(authors=60)
    flipped.labels[np.array(splits.test)] = (
        1 - flipped.labels[np.array(splits.test)]
    )
    after = evaluate(flipped, result.model, splits.test)
    # metrics change (labels moved) but the prediction stream is identical:
    # the confusion matrices are transposes of one another under a 2-class flip
    assert np.array(before.confusion).sum() == np.array(after.confusion).sum()
    b = np.array(before.confusion)
    a = np.array(after.confusion)
    assert np.array_equal(a, b[::-1, :])


def test_pooling_flags_flow_through_training():
    # the default label noise leaks into author features, so co-author
    # pools weighted by path counts differ from plain sets
    graph, truth = generate(SynthSpec(authors=60, terms=12, num_classes=2, partners_per_author=3))
    result = train(graph, regime_split(truth), _fast_config(max_epochs=2, patience=2, multiset_neighbors=True))
    assert result.model.meta.multiset_neighbors
    apa = next(mp for mp in result.builder.metapaths if mp.name == "APA")
    nodes = range(graph.num_nodes("author"))
    table = result.builder.tables["APA"]
    assert np.array_equal(table, pooled_neighbor_features(graph, nodes, apa, multiset=True))
    assert not np.array_equal(table, pooled_neighbor_features(graph, nodes, apa))


def test_history_csv_roundtrip(tmp_path):
    graph, truth = _tiny_task()
    splits = regime_split(truth)
    result = train(graph, splits, _fast_config(max_epochs=3, patience=3))
    path = str(tmp_path / "history.csv")
    write_history_csv(result.history, path)
    import csv

    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == result.epochs_run
    assert float(rows[0]["l_inv"]) == pytest.approx(result.history[0].l_inv)


def test_prediction_does_not_depend_on_chunk_sizes(monkeypatch):
    import graphscm.train as train_mod
    from graphscm.scm import ScmModel

    graph, _ = _tiny_task(authors=60)
    builder, meta = train_mod.build_pipeline(graph, _fast_config())
    model = ScmModel(meta, seed=3)
    # 41 rows at EVAL_BATCH 8 would leave a lone last row
    for count in (44, 41):
        nodes = graph.labeled_nodes()[:count]
        assert nodes.size == count
        whole = train_mod._predict_probabilities(model, builder, nodes)
        with monkeypatch.context() as m:
            m.setattr(train_mod, "EVAL_BATCH", 8)
            model.scm.decoder_calls = 0
            chunked = train_mod._predict_probabilities(model, builder, nodes)
            assert model.scm.decoder_calls == 6  # ceil(count / EVAL_BATCH)
        assert np.array_equal(whole, chunked), count


def test_chunks_hold_no_lone_row(monkeypatch):
    import graphscm.train as train_mod

    monkeypatch.setattr(train_mod, "EVAL_BATCH", 8)
    assert train_mod._chunk_bounds(41) == [0, 8, 16, 24, 32, 36, 41]
    assert train_mod._chunk_bounds(40) == [0, 8, 16, 24, 32, 40]
    assert train_mod._chunk_bounds(9) == [0, 4, 9]
    assert train_mod._chunk_bounds(1) == [0, 1]
    assert train_mod._chunk_bounds(0) == [0]


def test_training_step_tape_and_tensors_do_not_grow_with_variables(monkeypatch):
    """One training step records the same tape entries over the same
    parameter tensors at 3, 6 and 9 variables (metapaths up to length 1, 2
    and 3)."""
    import graphscm.train as train_mod

    graph, truth = _tiny_task(authors=40)
    splits = regime_split(truth)
    counts = {}
    for max_len in (1, 2, 3):
        records = []

        class CountingTape(train_mod.Tape):
            def backward(self, loss):
                records.append(len(self))
                super().backward(loss)

        monkeypatch.setattr(train_mod, "Tape", CountingTape)
        config = _fast_config(max_epochs=1, patience=1, max_metapath_len=max_len)
        result = train(graph, splits, config)
        n = len(result.model.meta.variable_names)
        counts[n] = (sorted(set(records)), len(result.model.parameters()))
    assert counts == {3: ([27], 17), 6: ([27], 17), 9: ([27], 17)}, counts

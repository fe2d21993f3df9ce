import numpy as np
import pytest

from graphscm.encoders import Encoders, VariableBuilder, one_hot
from graphscm.errors import ContractError, DimensionError
from graphscm.hetgraph import UNLABELED, enumerate_metapaths
from graphscm.rng import substream


def _fresh_encoders(hidden=5, seed=0, dims=(2, 2, 2), target_dim=2, classes=2):
    rng = substream(seed, "init")
    return Encoders(target_dim, classes, list(dims), hidden, rng)


def _slot(params, j):
    """Slot j's encoder weights, a view into ``enc.W``."""
    return params.weight.data[params.rows(j % len(params.in_dims))]


def _encode(params, ego, pooled=None, labels=None):
    """The stacked variables of ``ego`` rows; metapath pools default to zeros."""
    if pooled is None:
        dims = params.in_dims[1:-1]
        pooled = [np.zeros((ego.shape[0], d)) for d in dims]
    return params(ego, pooled, labels)


def test_encode_ego_zero_weights_gives_bias():
    params = _fresh_encoders()
    _slot(params, 0)[:] = 0.0
    params.bias.data[0] = np.arange(5.0)
    out = _encode(params, np.random.default_rng(0).normal(size=(3, 2)))
    assert np.array_equal(out.data[0], np.tile(np.arange(5.0), (3, 1)))


def test_encode_ego_identity_passthrough():
    params = _fresh_encoders(hidden=2)
    _slot(params, 0)[:] = np.eye(2)
    params.bias.data[0] = 0.0
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.array_equal(_encode(params, x).data[0], x)


def test_encode_ego_matches_affine_oracle():
    params = _fresh_encoders(hidden=7)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    expected = x @ _slot(params, 0) + params.bias.data[0]
    assert np.max(np.abs(_encode(params, x).data[0] - expected)) < 1e-12


def test_encode_label_one_hot_selects_column():
    params = _fresh_encoders()
    out = _encode(params, np.zeros((1, 2)), labels=np.array([0]))
    expected = _slot(params, -1)[0] + params.bias.data[-1]
    assert np.allclose(out.data[-1, 0], expected)


def test_encode_label_equal_labels_equal_rows():
    params = _fresh_encoders()
    out = _encode(params, np.zeros((2, 2)), labels=np.array([1, 1]))
    assert np.array_equal(out.data[-1, 0], out.data[-1, 1])


def test_encode_label_matches_affine_oracle():
    params = _fresh_encoders(classes=3)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=6)
    expected = one_hot(labels, 3) @ _slot(params, -1) + params.bias.data[-1]
    out = _encode(params, np.zeros((6, 2)), labels=labels)
    assert np.max(np.abs(out.data[-1] - expected)) < 1e-12


def test_encode_label_rejects_unknown_labels():
    params = _fresh_encoders()
    with pytest.raises(ContractError):
        _encode(params, np.zeros((2, 2)), labels=np.array([0, UNLABELED]))


def test_neighbor_zero_pool_gives_bias():
    params = _fresh_encoders()
    out = _encode(params, np.zeros((2, 2)))
    for j in range(3):
        assert np.allclose(out.data[1 + j], np.tile(params.bias.data[1 + j], (2, 1)))


def test_neighbor_identity_projection_passthrough():
    params = _fresh_encoders(hidden=2, dims=(2,))
    _slot(params, 1)[:] = np.eye(2)
    params.bias.data[1] = 0.0
    pooled = np.array([[0.25, -1.0]])
    out = _encode(params, np.zeros((1, 2)), [pooled])
    assert np.array_equal(out.data[1], pooled)


def test_neighbor_permutation_consistency():
    params = _fresh_encoders(dims=(2, 2, 2))
    rng = np.random.default_rng(3)
    pooled = [rng.normal(size=(3, 2)) for _ in range(3)]
    ego = rng.normal(size=(3, 2))
    base = _encode(params, ego, pooled)
    order = [2, 0, 1]
    slots = [0] + [1 + j for j in order] + [4]
    permuted_params = _fresh_encoders(dims=(2, 2, 2))
    permuted_params.weight.data = np.concatenate([_slot(params, j) for j in slots])
    permuted_params.bias.data = params.bias.data[slots]
    permuted = _encode(permuted_params, ego, [pooled[j] for j in order])
    for slot, j in enumerate(order):
        assert np.array_equal(permuted.data[1 + slot], base.data[1 + j])


def test_pooled_input_of_wrong_width_rejected():
    params = _fresh_encoders(dims=(2, 2, 2))
    pooled = [np.zeros((3, 2)), np.zeros((3, 4)), np.zeros((3, 2))]
    with pytest.raises(DimensionError, match=r"widths \[2, 2, 4, 2\], encoders expect \[2, 2, 2, 2\]$"):
        _encode(params, np.zeros((3, 2)), pooled)
    with pytest.raises(DimensionError, match=r"widths \[2, 2, 4, 2, 2\], encoders expect \[2, 2, 2, 2, 2\]$"):
        _encode(params, np.zeros((3, 2)), pooled, labels=np.zeros(3, dtype=np.int64))


# ---------------------------------------------------------------------------
# batch assembly on the toy graph

def _toy_builder(toy_graph, **kwargs):
    metapaths = enumerate_metapaths(toy_graph.schema, 2)
    return VariableBuilder(toy_graph, metapaths, **kwargs), metapaths


def test_build_variables_shape_and_names(toy_graph):
    builder, metapaths = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    batch = builder.build([0], params, with_labels=True)
    assert builder.variable_names == ["EGO", "AP", "APA", "APV", "Y"]
    assert batch.shape == (len(builder.variable_names), 1, 5) == (len(metapaths) + 2, 1, 5)


def test_build_variables_without_labels_is_the_slots_before_the_label(toy_graph):
    builder, metapaths = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    params.bias.data = np.random.default_rng(4).normal(size=params.bias.shape)
    batch = builder.build([0, 2], params, with_labels=False)
    full = builder.build([0, 2], params, with_labels=True)
    assert builder.variable_names[: batch.shape[0]] == ["EGO", "AP", "APA", "APV"]
    assert batch.shape == (len(metapaths) + 1, 2, 5)
    assert np.array_equal(batch.data, full.data[:-1])


def test_build_variables_duplicate_node_rows_identical(toy_graph):
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    batch = builder.build([1, 1], params, with_labels=True)
    for v in batch.data:
        assert np.array_equal(v[0], v[1])


def test_encoder_independence(toy_graph):
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    base = builder.build([0, 1], params, with_labels=True)
    _slot(params, 0)[0, 0] += 0.5
    bumped = builder.build([0, 1], params, with_labels=True)
    assert not np.array_equal(bumped.data[0], base.data[0])
    for j in range(1, 5):
        assert np.array_equal(bumped.data[j], base.data[j])
    # and a metapath encoder only touches its own slice
    params2 = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    base2 = builder.build([0, 1], params2, with_labels=True)
    _slot(params2, 2)[0, 0] -= 0.25
    bumped2 = builder.build([0, 1], params2, with_labels=True)
    for j in range(5):
        same = np.array_equal(bumped2.data[j], base2.data[j])
        assert same == (j != 2)


def test_eval_output_independent_of_stored_labels(toy_graph):
    builder, metapaths = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    before = builder.build([0, 1, 2], params, with_labels=False)
    flipped = toy_graph
    flipped.labels = 1 - flipped.labels
    builder2 = VariableBuilder(flipped, metapaths)
    after = builder2.build([0, 1, 2], params, with_labels=False)
    assert np.array_equal(before.data, after.data)


def test_with_labels_requires_labeled_nodes(toy_graph):
    toy_graph.labels[1] = -1
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    with pytest.raises(ContractError):
        builder.build([0, 1], params, with_labels=True)


def test_initial_weights_drawn_ego_label_then_metapaths():
    # the draw order of the per-variable encoders this layout replaced, so
    # that a seed gives the same model
    from graphscm.numcore import kaiming_uniform

    params = _fresh_encoders(hidden=4, dims=(3, 1, 2), target_dim=2, classes=5)
    rng = substream(0, "init")
    assert params.weight.shape == (2 + 3 + 1 + 2 + 5, 4)
    for slot, d in ((0, 2), (4, 5), (1, 3), (2, 1), (3, 2)):
        assert np.array_equal(_slot(params, slot), kaiming_uniform(rng, d, 4))
    assert not params.bias.data.any()

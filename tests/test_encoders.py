import numpy as np
import pytest

from graphscm.encoders import (
    EncoderParameters,
    VariableBuilder,
    encode_ego,
    encode_label,
    encode_neighbor_variables,
    init_encoders,
    one_hot,
)
from graphscm.errors import ContractError
from graphscm.hetgraph import enumerate_metapaths
from graphscm.rng import substream


def _fresh_encoders(hidden=5, seed=0, dims=(2, 2, 2), target_dim=2, classes=2, native=False):
    rng = substream(seed, "init")
    return init_encoders(target_dim, classes, list(dims), hidden, rng, native_dims=native)


def test_encode_ego_zero_weights_gives_bias():
    params = _fresh_encoders()
    params.ego.weight.data[:] = 0.0
    params.ego.bias.data[:] = np.arange(5.0)
    out = encode_ego(np.random.default_rng(0).normal(size=(3, 2)), params)
    assert np.array_equal(out.data, np.tile(np.arange(5.0), (3, 1)))


def test_encode_ego_identity_passthrough():
    params = _fresh_encoders(hidden=2)
    params.ego.weight.data = np.eye(2)
    params.ego.bias.data[:] = 0.0
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.array_equal(encode_ego(x, params).data, x)


def test_encode_ego_matches_affine_oracle():
    params = _fresh_encoders(hidden=7)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    expected = x @ params.ego.weight.data + params.ego.bias.data
    assert np.max(np.abs(encode_ego(x, params).data - expected)) < 1e-12


def test_encode_label_one_hot_selects_column():
    params = _fresh_encoders()
    y = one_hot(np.array([0]), 2)
    out = encode_label(y, params)
    expected = params.label.weight.data[0] + params.label.bias.data
    assert np.allclose(out.data[0], expected)


def test_encode_label_equal_labels_equal_rows():
    params = _fresh_encoders()
    out = encode_label(one_hot(np.array([1, 1]), 2), params)
    assert np.array_equal(out.data[0], out.data[1])


def test_encode_label_matches_affine_oracle():
    params = _fresh_encoders(classes=3)
    rng = np.random.default_rng(9)
    y = one_hot(rng.integers(0, 3, size=6), 3)
    expected = y @ params.label.weight.data + params.label.bias.data
    assert np.max(np.abs(encode_label(y, params).data - expected)) < 1e-12


def test_encode_label_rejects_unknown_labels():
    params = _fresh_encoders()
    with pytest.raises(ContractError):
        encode_label(one_hot(np.array([0, 1]), 2), params, label_known=np.array([True, False]))


def test_encode_label_rejects_non_one_hot():
    params = _fresh_encoders()
    with pytest.raises(ContractError):
        encode_label(np.array([[0.5, 0.5]]), params)


def test_neighbor_zero_pool_gives_bias():
    params = _fresh_encoders()
    out = encode_neighbor_variables([np.zeros((2, 2))] * 3, params)
    for j in range(3):
        assert np.allclose(out[j].data, np.tile(params.neighbor[j].bias.data, (2, 1)))


def test_neighbor_identity_projection_passthrough():
    params = _fresh_encoders(hidden=2, dims=(2,))
    params.neighbor[0].weight.data = np.eye(2)
    params.neighbor[0].bias.data[:] = 0.0
    pooled = np.array([[0.25, -1.0]])
    out = encode_neighbor_variables([pooled], params)
    assert np.array_equal(out[0].data, pooled)


def test_neighbor_permutation_consistency():
    params = _fresh_encoders(dims=(2, 2, 2))
    rng = np.random.default_rng(3)
    pooled = [rng.normal(size=(3, 2)) for _ in range(3)]
    base = encode_neighbor_variables(pooled, params)
    order = [2, 0, 1]
    permuted_params = EncoderParameters(
        ego=params.ego, label=params.label, neighbor=[params.neighbor[j] for j in order]
    )
    permuted = encode_neighbor_variables([pooled[j] for j in order], permuted_params)
    for slot, j in enumerate(order):
        assert np.array_equal(permuted[slot].data, base[j].data)


def test_native_dims_passthrough():
    params = _fresh_encoders(native=True)
    pooled = [np.random.default_rng(1).normal(size=(2, 3))]
    out = encode_neighbor_variables(pooled, params)
    assert np.array_equal(out[0].data, pooled[0])


# ---------------------------------------------------------------------------
# batch assembly on the toy graph

def _toy_builder(toy_graph, **kwargs):
    metapaths = enumerate_metapaths(toy_graph.schema, "author", 2)
    return VariableBuilder(toy_graph, metapaths, **kwargs), metapaths


def test_build_variables_shape_and_names(toy_graph):
    builder, metapaths = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    batch = builder.build([0], params, with_labels=True)
    assert batch.num_variables == len(metapaths) + 2
    assert batch.names == ["EGO", "AP", "APA", "APV", "Y"]
    assert batch.dims == [5] * 5 and batch.batch_size == 1


def test_build_variables_masked_label_slice_is_zero(toy_graph):
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    batch = builder.build([0, 2], params, with_labels=False)
    assert not batch.label_known.any()
    assert np.array_equal(batch.variables[-1].data, np.zeros((2, 5)))


def test_build_variables_duplicate_node_rows_identical(toy_graph):
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    batch = builder.build([1, 1], params, with_labels=True)
    for v in batch.variables:
        assert np.array_equal(v.data[0], v.data[1])


def test_encoder_independence(toy_graph):
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    base = builder.build([0, 1], params, with_labels=True)
    params.ego.weight.data[0, 0] += 0.5
    bumped = builder.build([0, 1], params, with_labels=True)
    assert not np.array_equal(bumped.variables[0].data, base.variables[0].data)
    for j in range(1, base.num_variables):
        assert np.array_equal(bumped.variables[j].data, base.variables[j].data)
    # and a metapath encoder only touches its own slice
    params2 = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    base2 = builder.build([0, 1], params2, with_labels=True)
    params2.neighbor[1].weight.data[0, 0] -= 0.25
    bumped2 = builder.build([0, 1], params2, with_labels=True)
    for j in range(base2.num_variables):
        same = np.array_equal(bumped2.variables[j].data, base2.variables[j].data)
        assert same == (j != 2)


def test_eval_output_independent_of_stored_labels(toy_graph):
    builder, metapaths = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    before = builder.build([0, 1, 2], params, with_labels=False)
    flipped = toy_graph
    flipped.labels = 1 - flipped.labels
    builder2 = VariableBuilder(flipped, metapaths)
    after = builder2.build([0, 1, 2], params, with_labels=False)
    for a, b in zip(before.variables, after.variables):
        assert np.array_equal(a.data, b.data)


def test_with_labels_requires_labeled_nodes(toy_graph):
    toy_graph.labels[1] = -1
    builder, _ = _toy_builder(toy_graph)
    params = _fresh_encoders(hidden=5, dims=tuple(builder.terminal_dims()))
    with pytest.raises(ContractError):
        builder.build([0, 1], params, with_labels=True)

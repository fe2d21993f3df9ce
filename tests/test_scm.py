import base64
import json

import numpy as np
import pytest

from graphscm.encoders import VariableBatch, VariableBuilder
from graphscm.errors import ContractError, DimensionError, LoadError
from graphscm.hetgraph import enumerate_metapaths
from graphscm.numcore import Tensor
from graphscm.rng import substream
from graphscm.scm import (
    ModelMeta,
    ScmModel,
    ScmParameters,
    load_checkpoint,
    predict_labels,
    reconstruct,
    reconstruct_all,
    save_checkpoint,
    zero_diagonal,
)


def _relu(x):
    return np.maximum(x, 0.0)


def _mlp_oracle(stacked, j, x):
    out = x @ stacked.weights[0].data[j] + stacked.biases[0].data[j]
    for w, b in zip(stacked.weights[1:], stacked.biases[1:]):
        out = _relu(out) @ w.data[j] + b.data[j]
    return out


def structural_assignment(k, batch, params):
    return Tensor(reconstruct(batch, params, [k]).data[0])


def sa_oracle(params: ScmParameters, vars_data, k):
    """Straight-line per-sample evaluation of the structural assignment."""
    n = len(vars_data)
    batch = vars_data[0].shape[0]
    rows = []
    for b in range(batch):
        total = np.zeros(params.width)
        for i in range(n):
            if i == k:
                continue
            e = _mlp_oracle(params.effect, i, vars_data[i][b])
            s = k - (k > i)
            p = e @ params.pair_weight.data[i, s] + params.pair_bias.data[i, s]
            total = total + params.dag.data[i, k] * p
        rows.append(_mlp_oracle(params.decoder, k, total))
    return np.stack(rows)


def _batch(n_vars, batch, dims, seed=0, label_known=True):
    rng = np.random.default_rng(seed)
    return VariableBatch(
        values=Tensor(np.stack([rng.normal(size=(batch, d)) for d in dims])),
        names=[f"v{i}" for i in range(n_vars)],
        label_known=np.full(batch, label_known),
    )


def _params(dims, classes=2, seed=0, activation="relu"):
    """An SCM over len(dims) variables of the one width in ``dims``."""
    (width,) = set(dims)
    return ScmParameters(len(dims), width, classes, activation, substream(seed, "init"))


def test_no_causes_gives_constant_reconstruction():
    params = _params([3, 3, 3])
    params.dag.data[:, 1] = 0.0
    batch = _batch(3, 4, [3, 3, 3])
    out = structural_assignment(1, batch, params)
    for b in range(1, 4):
        assert np.array_equal(out.data[b], out.data[0])


def test_doubling_a_weight_doubles_contribution():
    # 1-d variables with all-ones weights and zero biases turn every network
    # into a positive passthrough, so the assignment is literally
    # sum_i A[i,k] * h_i and doubling A[0,2] must double that cause's share.
    params = _params([1, 1, 1])
    for p in params.parameters():
        if p.name == "dag.A":
            continue
        p.data = np.ones_like(p.data) if p.name.endswith(".W") else np.zeros_like(p.data)
    params.dag.data[:] = [[0.0, 0.0, 0.3], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]
    h = [np.array([[2.0]]), np.array([[3.0]]), np.array([[0.0]])]
    batch = VariableBatch(Tensor(np.stack(h)), ["a", "b", "c"], np.array([True]))
    base = structural_assignment(2, batch, params).item()
    assert base == pytest.approx(0.3 * 2.0 + 0.5 * 3.0)
    params.dag.data[0, 2] *= 2.0
    doubled = structural_assignment(2, batch, params).item()
    assert doubled - base == pytest.approx(0.3 * 2.0)


def test_assignment_matches_scalar_loop_oracle():
    dims = [4, 4, 4, 4]  # q = 2 plus ego and label
    params = _params(dims, seed=7)
    batch = _batch(4, 2, dims, seed=3)
    vars_data = list(batch.values.data)
    for k in range(4):
        got = structural_assignment(k, batch, params)
        assert np.max(np.abs(got.data - sa_oracle(params, vars_data, k))) < 1e-10


def test_assignment_index_range_checked():
    params = _params([2, 2])
    batch = _batch(2, 1, [2, 2])
    with pytest.raises(ContractError):
        structural_assignment(2, batch, params)


def test_reconstruct_takes_every_variable_or_one():
    params = _params([3, 3, 3, 3])
    batch = _batch(4, 2, [3, 3, 3, 3])
    assert reconstruct(batch, params, [2]).shape == (1, 2, 3)
    assert reconstruct(batch, params, range(4)).shape == (4, 2, 3)
    for targets in ([0, 2], [1, 0], []):
        with pytest.raises(ContractError):
            reconstruct(batch, params, targets)


@pytest.mark.parametrize("n_vars, width", [(4, 3), (3, 4)])
def test_reconstruct_rejects_batch_of_wrong_layout(n_vars, width):
    params = _params([3, 3, 3])
    batch = _batch(n_vars, 2, [width] * n_vars)
    with pytest.raises(DimensionError, match=f"batch has {n_vars} variables of width {width}"):
        reconstruct(batch, params, [0])


def test_reconstruct_all_consistent_with_single_assignments():
    dims = [3, 3, 3]
    params = _params(dims, seed=1)
    batch = _batch(3, 2, dims, seed=2)
    stack = reconstruct_all(batch, params)
    assert stack.shape[0] == 3
    for k in range(3):
        solo = structural_assignment(k, batch, params)
        assert np.array_equal(stack.data[k], solo.data)


def test_reconstruct_all_zero_dag_constant_per_variable():
    dims = [3, 3, 3]
    params = _params(dims)
    params.dag.data[:] = 0.0
    batch = _batch(3, 5, dims, seed=4)
    for rec in reconstruct_all(batch, params).data:
        assert rec.shape == (5, 3)
        for b in range(1, 5):
            assert np.array_equal(rec[b], rec[0])


def test_cause_locality_zero_weight_means_no_influence():
    dims = [3, 3, 3]
    params = _params(dims, seed=5)
    params.dag.data[0, 2] = 0.0
    batch = _batch(3, 2, dims, seed=6)
    base = structural_assignment(2, batch, params).data.copy()
    batch.values.data[0, 0, 1] += 10.0  # perturb a non-cause input
    again = structural_assignment(2, batch, params).data
    assert np.array_equal(base, again)
    batch.values.data[1, 0, 0] += 1.0  # a real cause must matter
    assert not np.array_equal(structural_assignment(2, batch, params).data, base)


def test_predict_rows_sum_to_one():
    dims = [3, 3, 3]
    params = _params(dims, classes=4, seed=8)
    batch = _batch(3, 6, dims, seed=9, label_known=False)
    probs = predict_labels(batch, params)
    assert probs.shape == (6, 4)
    assert np.max(np.abs(probs.data.sum(axis=1) - 1.0)) < 1e-12


def test_predict_ignores_label_slice():
    dims = [3, 3, 3]
    params = _params(dims, seed=10)
    batch = _batch(3, 4, dims, seed=11, label_known=False)
    before = predict_labels(batch, params).data.copy()
    batch.values.data[-1] = 123.0  # garbage in the label slice
    after = predict_labels(batch, params).data
    assert np.array_equal(before, after)


def test_decoder_invocation_counts():
    dims = [3, 3, 3, 3]
    params = _params(dims, seed=12)
    batch = _batch(4, 2, dims, seed=13)
    params.decoder_calls = 0
    predict_labels(batch, params)
    assert params.decoder_calls == 1
    params.decoder_calls = 0
    reconstruct_all(batch, params)
    assert params.decoder_calls == 4


def test_zero_diagonal():
    a = Tensor(np.eye(3), requires_grad=True)
    zero_diagonal(a)
    assert np.array_equal(a.data, np.zeros((3, 3)))
    b = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
    b.grad = np.ones((3, 3))
    zero_diagonal(b)
    off = ~np.eye(3, dtype=bool)
    assert np.array_equal(b.data[off], np.arange(9.0).reshape(3, 3)[off])
    assert np.array_equal(np.diag(b.data), np.zeros(3))
    assert np.array_equal(np.diag(b.grad), np.zeros(3))
    assert np.array_equal(b.grad[off], np.ones((3, 3))[off])


def test_sigmoid_activation_supported():
    params = _params([2, 2], activation="sigmoid")
    batch = _batch(2, 2, [2, 2])
    out = structural_assignment(0, batch, params)
    assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# model container and checkpoints

def _toy_model(toy_graph, hidden=4, seed=0):
    metapaths = enumerate_metapaths(toy_graph.schema, "author", 2)
    builder = VariableBuilder(toy_graph, metapaths)
    meta = ModelMeta(
        variable_names=builder.variable_names,
        num_classes=toy_graph.schema.num_classes,
        hidden_dim=hidden,
        activation="relu",
        max_metapath_len=2,
        multiset_neighbors=False,
        target_type="author",
        target_dim=toy_graph.feature_dim("author"),
        terminal_dims=builder.terminal_dims(),
    )
    return ScmModel(meta, seed=seed), builder


def test_model_init_deterministic(toy_graph):
    m1, _ = _toy_model(toy_graph, seed=3)
    m2, _ = _toy_model(toy_graph, seed=3)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_roundtrip(toy_graph, tmp_path):
    model, builder = _toy_model(toy_graph, seed=1)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.meta == model.meta
    for name, p in model.named_parameters().items():
        assert np.array_equal(again.named_parameters()[name].data, p.data)
    batch = builder.build([0, 1, 2], model.encoders, with_labels=False)
    batch2 = builder.build([0, 1, 2], again.encoders, with_labels=False)
    a = predict_labels(batch, model.scm)
    b = predict_labels(batch2, again.scm)
    assert np.array_equal(a.data, b.data)


def _encode(values) -> dict:
    """A checkpoint tensor entry encoded as ``save_checkpoint`` writes it:
    base64 of the row-major little-endian float64 bytes."""
    array = np.asarray(values, dtype=np.float64)
    return {
        "shape": list(array.shape),
        "dtype": "<f8",
        "data": base64.b64encode(array.astype("<f8").tobytes()).decode("ascii"),
    }


def _rewrite_tensor(path, name, **fields):
    """Replace fields of tensor ``name`` in the checkpoint at ``path``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["tensors"][name].update(fields)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def test_checkpoint_shape_mismatch_fails_loudly(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    _rewrite_tensor(path, "dag.A", **_encode(np.zeros((2, 2))))
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["tensors"]["scm.inv2.W"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_malformed_json_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert f"{path}:1:" in str(exc.value)


def test_checkpoint_non_finite_tensor_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    values = model.scm.dag.data.copy()
    values.flat[1] = float("nan")
    _rewrite_tensor(path, "dag.A", **_encode(values))
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "dag.A" in str(exc.value) and "non-finite" in str(exc.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_payload_names_tensor(toy_graph, tmp_path, bad):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    values = model.scm.inv2.weight.data.copy()
    values.flat[-1] = bad
    _rewrite_tensor(path, "scm.inv2.W", **_encode(values))
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'scm.inv2.W'" in str(exc.value) and "non-finite" in str(exc.value)


def test_checkpoint_roundtrip_keeps_extreme_values_bit_for_bit(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    extremes = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    w = model.scm.inv2.weight.data
    w.flat[: len(extremes)] = extremes
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    again = load_checkpoint(path).scm.inv2.weight.data
    assert again.tobytes() == w.tobytes()
    assert np.signbit(again.flat[0]) and again.flat[0] == 0.0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["tensors"]["scm.inv2.W"] == _encode(w)


def test_checkpoint_rerun_writes_identical_bytes(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph, seed=4)
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_load_checkpoint_draws_no_initial_weights(toy_graph, tmp_path, monkeypatch):
    import graphscm.encoders
    import graphscm.numcore.layers
    import graphscm.scm

    model, _ = _toy_model(toy_graph, seed=2)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)

    def draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an initial weight")

    for module in (graphscm.encoders, graphscm.numcore.layers, graphscm.scm):
        monkeypatch.setattr(module, "kaiming_uniform", draw)
    monkeypatch.setattr(graphscm.scm, "init_dag", draw)
    again = load_checkpoint(path).named_parameters()
    assert list(again) == list(model.named_parameters())
    for name, p in model.named_parameters().items():
        loaded = again[name].data
        assert loaded.dtype == p.data.dtype and loaded.tobytes() == p.data.tobytes(), name
        assert loaded.flags.writeable and loaded.flags.c_contiguous and loaded.flags.owndata


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"data": "not base64!"}, "not valid base64"),
        ({"data": base64.b64encode(bytes(16)).decode("ascii")}, "holds 16 bytes, expected"),
        ({"data": [0.0] * 9}, "not a base64 string"),
        ({"data": None}, "not a base64 string"),
        ({"dtype": "<f4"}, "has dtype '<f4'"),
        ({"dtype": ">f8"}, "has dtype '>f8'"),
    ],
)
def test_checkpoint_bad_encoding_names_tensor(toy_graph, tmp_path, fields, message):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    _rewrite_tensor(path, "dag.A", **fields)
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'dag.A'" in str(exc.value) and message in str(exc.value), str(exc.value)


def test_checkpoint_entry_without_data_names_tensor(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["tensors"]["enc.b"]["data"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'enc.b'" in str(exc.value)


def test_loaded_tensors_are_owned_writable_float64(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.json")
    save_checkpoint(model, path)
    for name, p in load_checkpoint(path).named_parameters().items():
        assert p.data.dtype == np.float64, name
        assert p.data.flags.owndata and p.data.flags.writeable and p.data.flags.c_contiguous, name

import base64
import json

import numpy as np
import pytest

import oracles
from graphscm.encoders import VariableBuilder
from graphscm.errors import ContractError, DimensionError, LoadError
from graphscm.hetgraph import enumerate_metapaths
from graphscm.numcore import Tensor
from graphscm.rng import substream
from graphscm.scm import (
    ModelMeta,
    ScmModel,
    ScmParameters,
    label_probabilities_from,
    load_checkpoint,
    predict_labels,
    reconstruct,
    reconstruct_all,
    save_checkpoint,
)


def _relu(x):
    return np.maximum(x, 0.0)


def _mlp_oracle(stacked, j, x):
    out = x @ stacked.weights[0].data[j] + stacked.biases[0].data[j]
    for w, b in zip(stacked.weights[1:], stacked.biases[1:]):
        out = _relu(out) @ w.data[j] + b.data[j]
    return out


def _label_batch(batch):
    """The prediction batch of ``batch``: its slots before the label."""
    return Tensor(batch.data[:-1])


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
            total = total + params.dag.data[i, k] * e
        rows.append(_mlp_oracle(params.decoder, k, total))
    return np.stack(rows)


def _batch(batch, dims, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(np.stack([rng.normal(size=(batch, d)) for d in dims]))


def _params(dims, classes=2, seed=0):
    """An SCM over len(dims) variables of the one width in ``dims``."""
    (width,) = set(dims)
    return ScmParameters(len(dims), width, classes, substream(seed, "init"))


def test_no_causes_gives_constant_reconstruction():
    params = _params([3, 3, 3])
    params.dag.data[:, 1] = 0.0
    batch = _batch(4, [3, 3, 3])
    out = reconstruct_all(batch, params).data[1]
    for b in range(1, 4):
        assert np.array_equal(out[b], out[0])


def test_doubling_a_weight_doubles_contribution():
    # 1-d variables with all-ones weights and zero biases turn every network
    # into a positive passthrough, so the label's assignment is literally
    # sum_i A[i,2] * h_i and doubling A[0,2] must double that cause's share.
    params = _params([1, 1, 1])
    for p in params.parameters():
        if p.name == "dag.A":
            continue
        p.data = np.ones_like(p.data) if p.name.endswith(".W") else np.zeros_like(p.data)
    params.dag.data[:] = [[0.0, 0.0, 0.3], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]
    h = [np.array([[2.0]]), np.array([[3.0]])]
    batch = Tensor(np.stack(h))
    base = reconstruct(batch, params).item()
    assert base == pytest.approx(0.3 * 2.0 + 0.5 * 3.0)
    params.dag.data[0, 2] *= 2.0
    doubled = reconstruct(batch, params).item()
    assert doubled - base == pytest.approx(0.3 * 2.0)


def test_assignment_matches_scalar_loop_oracle():
    dims = [4, 4, 4, 4]  # q = 2 plus ego and label
    params = _params(dims, seed=7)
    batch = _batch(2, dims, seed=3)
    vars_data = list(batch.data)
    every = reconstruct_all(batch, params).data
    for k in range(4):
        assert np.max(np.abs(every[k] - sa_oracle(params, vars_data, k))) < 1e-10
    label = reconstruct(_label_batch(batch), params).data[0]
    assert np.max(np.abs(label - sa_oracle(params, vars_data, 3))) < 1e-10


def test_assignment_index_range_checked():
    # a batch of n slots reconstructs every variable and one of n - 1 the
    # label; no other count of slots names a set of assignments
    params = _params([2, 2, 2])
    for count in (1, 4):
        with pytest.raises(DimensionError, match=rf"batch has {count} variables .* expects 3 \(or 2 without"):
            reconstruct(_batch(1, [2] * count), params)


def test_reconstruct_takes_every_variable_or_one():
    params = _params([3, 3, 3, 3])
    batch = _batch(2, [3, 3, 3, 3])
    assert reconstruct(batch, params).shape == (4, 2, 3)
    assert reconstruct(_label_batch(batch), params).shape == (1, 2, 3)


@pytest.mark.parametrize("n_vars, width", [(4, 3), (3, 4)])
def test_reconstruct_rejects_batch_of_wrong_layout(n_vars, width):
    params = _params([3, 3, 3])
    batch = _batch(2, [width] * n_vars)
    with pytest.raises(DimensionError, match=f"batch has {n_vars} variables of width {width}"):
        reconstruct(batch, params)


def test_reconstruct_all_rejects_a_batch_without_the_label():
    params = _params([3, 3, 3])
    with pytest.raises(ContractError, match="reconstruct_all needs a batch built with labels"):
        reconstruct_all(_label_batch(_batch(2, [3, 3, 3])), params)


def test_predict_labels_rejects_a_batch_with_the_label():
    params = _params([3, 3, 3])
    with pytest.raises(ContractError, match="predict_labels needs a batch built without labels"):
        predict_labels(_batch(2, [3, 3, 3]), params)


def test_reconstruct_all_consistent_with_single_assignments():
    # the label alone, from the slots before it, agrees with the label row of
    # the every-variable call; the two sum over causes with different matrix
    # products, so within rounding
    dims = [3, 3, 3]
    params = _params(dims, seed=1)
    batch = _batch(2, dims, seed=2)
    stack = reconstruct_all(batch, params)
    assert stack.shape[0] == 3
    solo = reconstruct(_label_batch(batch), params)
    assert oracles.close(solo.data[0], stack.data[-1])


def test_reconstruct_all_zero_dag_constant_per_variable():
    dims = [3, 3, 3]
    params = _params(dims)
    params.dag.data[:] = 0.0
    batch = _batch(5, dims, seed=4)
    for rec in reconstruct_all(batch, params).data:
        assert rec.shape == (5, 3)
        for b in range(1, 5):
            assert np.array_equal(rec[b], rec[0])


def test_cause_locality_zero_weight_means_no_influence():
    dims = [3, 3, 3]
    params = _params(dims, seed=5)
    params.dag.data[0, 2] = 0.0
    batch = _label_batch(_batch(2, dims, seed=6))
    base = reconstruct(batch, params).data.copy()
    batch.data[0, 0, 1] += 10.0  # perturb a non-cause input
    again = reconstruct(batch, params).data
    assert np.array_equal(base, again)
    batch.data[1, 0, 0] += 1.0  # a real cause must matter
    assert not np.array_equal(reconstruct(batch, params).data, base)


def test_predict_rows_sum_to_one():
    dims = [3, 3, 3]
    params = _params(dims, classes=4, seed=8)
    batch = _label_batch(_batch(6, dims, seed=9))
    probs = predict_labels(batch, params)
    assert probs.shape == (6, 4)
    assert np.max(np.abs(probs.data.sum(axis=1) - 1.0)) < 1e-12


def test_predict_ignores_label_slice():
    # a prediction batch has no label slice; the label's assignment in the
    # every-variable call does not read its slice either
    dims = [3, 3, 3]
    params = _params(dims, seed=10)
    batch = _batch(4, dims, seed=11)
    before = label_probabilities_from(reconstruct_all(batch, params), params).data.copy()
    batch.data[-1] = 123.0  # garbage in the label slice
    after = label_probabilities_from(reconstruct_all(batch, params), params).data
    assert np.array_equal(before, after)
    assert oracles.close(predict_labels(_label_batch(batch), params).data, before)


def test_decoder_invocation_counts():
    dims = [3, 3, 3, 3]
    params = _params(dims, seed=12)
    batch = _batch(2, dims, seed=13)
    params.decoder_calls = 0
    predict_labels(_label_batch(batch), params)
    assert params.decoder_calls == 1
    params.decoder_calls = 0
    reconstruct_all(batch, params)
    assert params.decoder_calls == 4


# ---------------------------------------------------------------------------
# model container and checkpoints

def _toy_model(toy_graph, hidden=4, seed=0):
    metapaths = enumerate_metapaths(toy_graph.schema, 2)
    builder = VariableBuilder(toy_graph, metapaths)
    meta = ModelMeta(
        variable_names=builder.variable_names,
        num_classes=toy_graph.schema.num_classes,
        hidden_dim=hidden,
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


@pytest.mark.parametrize("n, width, seed", [(3, 4, 1), (6, 8, 3), (9, 5, 0)])
def test_initial_tensors_are_those_drawn_with_pair_maps(n, width, seed):
    """The per-pair maps are gone, but their draws are still taken from the
    stream, so every tensor the model keeps starts bit for bit where it did
    when the model drew them."""
    meta = ModelMeta([f"v{i}" for i in range(n)], 3, width, 2, False, "author", 4, [2 + i for i in range(n - 2)])
    want = oracles.initial_tensors_with_pair_maps(meta, seed)
    got = ScmModel(meta, seed=seed).state_snapshot()
    assert sorted(set(want) - set(got)) == ["scm.pair.W", "scm.pair.b"] and set(got) <= set(want)
    for name, array in got.items():
        assert array.shape == want[name].shape and array.tobytes() == want[name].tobytes(), name


def test_checkpoint_roundtrip(toy_graph, tmp_path):
    model, builder = _toy_model(toy_graph, seed=1)
    path = str(tmp_path / "model.bin")
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


def _bytes(values) -> bytes:
    """A tensor's bytes as ``save_checkpoint`` writes them: row-major
    little-endian float64."""
    return np.asarray(values, dtype="<f8").tobytes()


def _rewrite_tensor(path, name, data=None, **fields):
    """Replace fields of the header entry of tensor ``name`` in the
    checkpoint at ``path`` and, given ``data``, that tensor's bytes."""
    header, parts = oracles.read_checkpoint_v9(path)
    header["tensors"][name].update(fields)
    if data is not None:
        parts[name] = data
    oracles.write_checkpoint_v9(path, header, parts)


def test_checkpoint_shape_mismatch_fails_loudly(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    _rewrite_tensor(path, "dag.A", _bytes(np.zeros((2, 2))), shape=[2, 2])
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    header, parts = oracles.read_checkpoint_v9(path)
    del header["tensors"]["scm.inv2.W"], parts["scm.inv2.W"]
    oracles.write_checkpoint_v9(path, header, parts)
    with pytest.raises(LoadError):
        load_checkpoint(path)


def test_checkpoint_malformed_json_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        line, data = fh.read().split(b"\n", 1)
    with open(path, "wb") as fh:
        fh.write(line[: len(line) // 2] + b"\n" + data)
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert f"{path}:1:" in str(exc.value)


def test_checkpoint_non_finite_tensor_fails(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    values = model.scm.dag.data.copy()
    values.flat[1] = float("nan")
    _rewrite_tensor(path, "dag.A", _bytes(values))
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "dag.A" in str(exc.value) and "non-finite" in str(exc.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_payload_names_tensor(toy_graph, tmp_path, bad):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    values = model.scm.inv2.weight.data.copy()
    values.flat[-1] = bad
    _rewrite_tensor(path, "scm.inv2.W", _bytes(values))
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'scm.inv2.W'" in str(exc.value) and "non-finite" in str(exc.value)


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def test_checkpoint_roundtrip_keeps_extreme_values_bit_for_bit(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    w = model.scm.inv2.weight.data
    w.flat[: len(EXTREMES)] = EXTREMES
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    again = load_checkpoint(path).scm.inv2.weight.data
    assert again.tobytes() == w.tobytes()
    assert np.signbit(again.flat[0]) and again.flat[0] == 0.0
    header, parts = oracles.read_checkpoint_v9(path)
    assert header["tensors"]["scm.inv2.W"] == {"shape": list(w.shape), "dtype": "<f8"}
    assert parts["scm.inv2.W"] == _bytes(w)


def test_version_8_and_version_9_files_hold_the_same_tensors(toy_graph, tmp_path):
    """A model written by the version-8 writer (base64 inside JSON) and by
    ``save_checkpoint`` decodes to the same tensors, bit for bit, extreme
    values included."""
    model, _ = _toy_model(toy_graph, seed=5)
    model.scm.inv2.weight.data.flat[: len(EXTREMES)] = EXTREMES
    old, new = str(tmp_path / "v8.json"), str(tmp_path / "v9.bin")
    oracles.save_checkpoint_v8(model, old)
    save_checkpoint(model, new)
    with open(old, encoding="utf-8") as fh:
        v8 = json.load(fh)
    header, parts = oracles.read_checkpoint_v9(new)
    assert v8["meta"] == header["meta"] and list(v8["tensors"]) == list(parts)
    loaded = load_checkpoint(new).named_parameters()
    for name, entry in v8["tensors"].items():
        assert header["tensors"][name] == {"shape": entry["shape"], "dtype": entry["dtype"]}, name
        assert base64.b64decode(entry["data"]) == parts[name] == loaded[name].data.tobytes(), name


def test_checkpoint_rerun_writes_identical_bytes(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph, seed=4)
    first, second = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_load_checkpoint_draws_no_initial_weights(toy_graph, tmp_path, monkeypatch):
    import graphscm.encoders
    import graphscm.numcore.layers
    import graphscm.scm

    model, _ = _toy_model(toy_graph, seed=2)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)

    def draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an initial weight")

    for module in (graphscm.encoders, graphscm.numcore.layers):
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
        ({"shape": [2, 2]}, "has shape (2, 2), expected"),
        ({"data": bytes(16)}, "holds 16 bytes, expected"),
        ({"data": b""}, "holds 0 bytes, expected"),
        ({"shape": None}, "malformed tensor"),
        ({"dtype": "<f4"}, "has dtype '<f4'"),
        ({"dtype": ">f8"}, "has dtype '>f8'"),
    ],
)
def test_checkpoint_bad_encoding_names_tensor(toy_graph, tmp_path, fields, message):
    """A header entry of ``dag.A`` with a wrong shape or dtype, or a data
    section (``data``) that ends inside ``dag.A``, the first tensor, names
    the tensor."""
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    header, parts = oracles.read_checkpoint_v9(path)
    entry = dict(fields)
    data = entry.pop("data", parts)
    header["tensors"]["dag.A"].update(entry)
    oracles.write_checkpoint_v9(path, header, data)
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'dag.A'" in str(exc.value) and message in str(exc.value), str(exc.value)


def test_checkpoint_entry_without_data_names_tensor(toy_graph, tmp_path):
    """A data section that ends where the bytes of ``enc.b`` should start
    names that tensor."""
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    header, parts = oracles.read_checkpoint_v9(path)
    oracles.write_checkpoint_v9(path, header, {name: parts[name] for name in parts if name < "enc.b"})
    with pytest.raises(LoadError) as exc:
        load_checkpoint(path)
    assert "'enc.b'" in str(exc.value)


def test_loaded_tensors_are_owned_writable_float64(toy_graph, tmp_path):
    model, _ = _toy_model(toy_graph)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    for name, p in load_checkpoint(path).named_parameters().items():
        assert p.data.dtype == np.float64, name
        assert p.data.flags.owndata and p.data.flags.writeable and p.data.flags.c_contiguous, name

"""The stacked SCM layer against the per-pair oracle it replaced.

Outputs and every parameter and input gradient must be bit-identical at
common widths; with native (ragged, zero-padded) widths they agree to
rounding.
"""

import numpy as np
import pytest

import oracles
from graphscm.encoders import VariableBatch
from graphscm.losses import LossWeights, loss_dag
from graphscm.numcore import Tape, Tensor, add, frobenius_sq, sub
from graphscm.rng import substream
from graphscm.scm import ScmParameters, reconstruct, reconstruct_all


def _params(dims, activation="relu", mlp_hidden=None, seed=0):
    params = ScmParameters(list(dims), 3, activation, substream(seed, "init"), mlp_hidden=mlp_hidden)
    # nonzero biases, so that a misplaced bias would show
    rng = np.random.default_rng(seed + 1)
    for p in params.parameters():
        if p.name.endswith(".b"):
            p.data = rng.normal(scale=0.1, size=p.shape)
    return params


def _unpadded(params):
    """Zero every bias entry that lies in a slice's padding."""
    dims = params.var_dims
    for stacked in (params.effect, params.decoder):
        last = stacked.biases[-1]
        for j, d in enumerate(dims):
            last.data[j, d:] = 0.0
    for i in range(len(dims)):
        for s in range(len(dims) - 1):
            k = s + (s >= i)
            params.pair_bias.data[i, s, dims[k]:] = 0.0
    return params


def _inputs(dims, batch, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(batch, d)) for d in dims]


def _loss(outputs, goals, dag):
    total = loss_dag(dag, LossWeights())
    for out, goal in zip(outputs, goals):
        total = add(total, frobenius_sq(sub(out, Tensor(goal))))
    return total


def _stacked(arrays, width):
    """2-D arrays of one height, zero-padded to ``width`` and stacked."""
    out = np.zeros((len(arrays), arrays[0].shape[0], width))
    for i, a in enumerate(arrays):
        out[i, :, : a.shape[1]] = a
    return out


def _run_fused(params, data, targets):
    values = Tensor(_stacked(data, params.width), requires_grad=True)
    batch = VariableBatch(values, [f"v{i}" for i in range(len(data))], np.ones(data[0].shape[0], bool))
    for p in params.parameters():
        p.grad = None
    goals = [np.full((data[0].shape[0], params.var_dims[k]), 0.5) for k in targets]
    with Tape() as tape:
        if targets == list(range(params.n_vars)):
            outputs = reconstruct_all(batch, params)
        else:
            outputs = reconstruct(batch, params, targets)
        # the per-target terms of _loss, as one stacked squared sum
        misfit = frobenius_sq(sub(outputs, Tensor(_stacked(goals, params.width))))
        loss = add(loss_dag(params.dag, LossWeights()), misfit)
    tape.backward(loss)
    grad = _grad(values)
    unpadded = [Tensor(outputs.data[q, :, : params.var_dims[k]]) for q, k in enumerate(targets)]
    return unpadded, [grad[i, :, : x.shape[1]] for i, x in enumerate(data)]


def _run_oracle(params, data, targets):
    oracle = oracles.PairwiseScm(params)
    variables = [Tensor(x.copy(), requires_grad=True) for x in data]
    goals = [np.full((data[0].shape[0], params.var_dims[k]), 0.5) for k in targets]
    with Tape() as tape:
        if targets == list(range(params.n_vars)):
            outputs = oracles.reconstruct_all(variables, oracle)
        else:
            outputs = [oracles.structural_assignment(k, variables, oracle) for k in targets]
        loss = _loss(outputs, goals, oracle.dag)
    tape.backward(loss)
    return outputs, variables, oracle.stacked_grads(params)


def _grad(t):
    return np.zeros(t.shape) if t.grad is None else t.grad


def _compare(params, data, targets, same):
    got, got_vars = _run_fused(params, data, targets)
    want, want_vars, want_grads = _run_oracle(params, data, targets)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same(a.data, b.data)
    for p in params.parameters():
        if p.name in want_grads:
            assert same(_grad(p), want_grads[p.name]), p.name
    for a, b in zip(got_vars, want_vars):
        assert same(a, _grad(b))


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
@pytest.mark.parametrize("which", ["all", "label", "inner"])
def test_fused_matches_pairwise_oracle_bit_for_bit(n, batch, activation, which):
    dims = [6] * n
    params = _params(dims, activation=activation, seed=n)
    targets = {"all": list(range(n)), "label": [n - 1], "inner": [1]}[which]
    _compare(params, _inputs(dims, batch, seed=batch), targets, np.array_equal)


@pytest.mark.parametrize("which", ["all", "label", "inner"])
def test_fused_native_dims_matches_oracle_to_rounding(which):
    dims = [5, 2, 7, 3, 5]
    params = _unpadded(_params(dims, mlp_hidden=4, seed=3))
    targets = {"all": list(range(5)), "label": [4], "inner": [2]}[which]

    def close(a, b):
        return a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=1e-10)

    _compare(params, _inputs(dims, 9, seed=4), targets, close)


def test_native_dims_padding_stays_zero_in_gradients():
    dims = [5, 2, 7, 3, 5]
    params = _unpadded(_params(dims, mlp_hidden=4, seed=5))
    _run_fused(params, _inputs(dims, 6, seed=6), list(range(5)))
    for i, d in enumerate(dims):
        assert not params.effect.weights[0].grad[i, d:].any()
        assert not params.decoder.weights[-1].grad[i, :, d:].any()
        for s in range(len(dims) - 1):
            k = s + (s >= i)
            assert not params.pair_weight.grad[i, s, d:].any()
            assert not params.pair_weight.grad[i, s, :, dims[k]:].any()


def test_tape_records_and_tensor_count_do_not_grow_with_variables():
    records, tensors = set(), set()
    for n in (3, 6, 9):
        dims = [4] * n
        params = _params(dims)
        values = Tensor(np.stack(_inputs(dims, 5, seed=n)))
        batch = VariableBatch(values, [f"v{i}" for i in range(n)], np.ones(5, bool))
        with Tape() as tape:
            reconstruct_all(batch, params)
        records.add(len(tape))
        tensors.add(len(params.parameters()))
    assert len(records) == 1 and len(tensors) == 1, (records, tensors)

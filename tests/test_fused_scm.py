"""The stacked SCM layer against the per-pair oracle it replaced.

Outputs and every parameter and input gradient must agree within
1e-12 * max(1, max|oracle|): ``pair_mix`` sums over causes as matrix
products, which round differently from the oracle's chain of scaled adds.
"""

import numpy as np
import pytest

import oracles
from graphscm.encoders import VariableBatch
from graphscm.losses import LossWeights, loss_dag
from graphscm.numcore import Tape, Tensor, add, frobenius_sq, sub
from graphscm.rng import substream
from graphscm.scm import ScmParameters, reconstruct, reconstruct_all


def _params(n, width, seed=0):
    params = ScmParameters(n, width, 3, substream(seed, "init"))
    # nonzero biases, so that a misplaced bias would show
    rng = np.random.default_rng(seed + 1)
    for p in params.parameters():
        if p.name.endswith(".b"):
            p.data = rng.normal(scale=0.1, size=p.shape)
    return params


def _inputs(n, width, batch, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(batch, width)) for _ in range(n)]


def _loss(outputs, goals, dag):
    total = loss_dag(dag, LossWeights())
    for out, goal in zip(outputs, goals):
        total = add(total, frobenius_sq(sub(out, Tensor(goal))))
    return total


def _run_fused(params, data, targets):
    values = Tensor(np.stack(data), requires_grad=True)
    batch = VariableBatch(values, [f"v{i}" for i in range(len(data))], np.ones(data[0].shape[0], bool))
    for p in params.parameters():
        p.grad = None
    goals = [np.full((data[0].shape[0], params.width), 0.5) for _ in targets]
    with Tape() as tape:
        if targets == list(range(params.n_vars)):
            outputs = reconstruct_all(batch, params)
        else:
            outputs = reconstruct(batch, params, targets)
        # the per-target terms of _loss, as one stacked squared sum
        misfit = frobenius_sq(sub(outputs, Tensor(np.stack(goals))))
        loss = add(loss_dag(params.dag, LossWeights()), misfit)
    tape.backward(loss)
    return [Tensor(out) for out in outputs.data], list(_grad(values))


def _run_oracle(params, data, targets):
    oracle = oracles.PairwiseScm(params)
    variables = [Tensor(x.copy(), requires_grad=True) for x in data]
    goals = [np.full((data[0].shape[0], params.width), 0.5) for _ in targets]
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
@pytest.mark.parametrize("activation", ["relu"])  # the only activation; kept in the test ids
@pytest.mark.parametrize("which", ["all", "label", "inner"])
def test_fused_matches_pairwise_oracle(n, batch, activation, which):
    params = _params(n, 6, seed=n)
    targets = {"all": list(range(n)), "label": [n - 1], "inner": [1]}[which]
    _compare(params, _inputs(n, 6, batch, seed=batch), targets, oracles.close)


def test_tape_records_and_tensor_count_do_not_grow_with_variables():
    records, tensors = set(), set()
    for n in (3, 6, 9):
        params = _params(n, 4)
        values = Tensor(np.stack(_inputs(n, 4, 5, seed=n)))
        batch = VariableBatch(values, [f"v{i}" for i in range(n)], np.ones(5, bool))
        with Tape() as tape:
            reconstruct_all(batch, params)
        records.add(len(tape))
        tensors.add(len(params.parameters()))
    assert len(records) == 1 and len(tensors) == 1, (records, tensors)
    # one each for the effect networks, pair_mix and the decoders
    assert records == {3}, records

"""The stacked SCM layer against the per-network oracle it replaced.

Outputs and every parameter and input gradient must agree within
1e-12 * max(1, max|oracle|): ``dag_mix`` sums over causes as one matrix
product, which rounds differently from the oracle's chain of scaled adds.
"""

import numpy as np
import pytest

import oracles
from graphscm.losses import LossWeights, loss_dag
from graphscm.numcore import Tape, Tensor, add, sub, take
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
        total = add(total, oracles.frobenius_sq(sub(out, Tensor(goal))))
    return total


def _targets(n, which):
    """The variables a case reconstructs: every one, the label from an
    (n - 1)-slot batch, or variable 1 alone out of the every-variable call."""
    return {"all": list(range(n)), "label": [n - 1], "inner": [1]}[which]


def _run_fused(params, data, which):
    slots = data[:-1] if which == "label" else data
    values = Tensor(np.stack(slots))
    for p in params.parameters():
        p.grad = None
    goals = [np.full((data[0].shape[0], params.width), 0.5) for _ in _targets(params.n_vars, which)]
    with Tape() as tape:
        outputs = reconstruct(values, params) if which == "label" else reconstruct_all(values, params)
        if which == "inner":
            outputs = take(outputs, slice(1, 2))
        # the per-target terms of _loss, as one stacked squared sum
        misfit = oracles.frobenius_sq(sub(outputs, Tensor(np.stack(goals))))
        loss = add(loss_dag(params.dag, LossWeights()), misfit)
    tape.backward(loss)
    return [Tensor(out) for out in outputs.data], list(_grad(values))


def _run_oracle(params, data, which):
    oracle = oracles.PairwiseScm(params)
    variables = [Tensor(x.copy()) for x in data]
    targets = _targets(params.n_vars, which)
    goals = [np.full((data[0].shape[0], params.width), 0.5) for _ in targets]
    with Tape() as tape:
        if which == "all":
            outputs = oracles.reconstruct_all(variables, oracle)
        else:
            outputs = [oracles.structural_assignment(k, variables, oracle) for k in targets]
        loss = _loss(outputs, goals, oracle.dag)
    tape.backward(loss)
    return outputs, variables, oracle.stacked_grads(params)


def _grad(t):
    return np.zeros(t.shape) if t.grad is None else t.grad


def _compare(params, data, which, same):
    got, got_vars = _run_fused(params, data, which)
    want, want_vars, want_grads = _run_oracle(params, data, which)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same(a.data, b.data)
    for p in params.parameters():
        if p.name in want_grads:
            assert same(_grad(p), want_grads[p.name]), p.name
    # a label batch has no label slot; the oracle's label takes no gradient
    got_vars += [np.zeros(data[0].shape)] * (len(want_vars) - len(got_vars))
    for a, b in zip(got_vars, want_vars):
        assert same(a, _grad(b))


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("activation", ["relu"])  # the only activation; kept in the test ids
@pytest.mark.parametrize("which", ["all", "label", "inner"])
def test_fused_matches_pairwise_oracle(n, batch, activation, which):
    params = _params(n, 6, seed=n)
    _compare(params, _inputs(n, 6, batch, seed=batch), which, oracles.close)


def test_tape_records_and_tensor_count_do_not_grow_with_variables():
    records, tensors = set(), set()
    for n in (3, 6, 9):
        params = _params(n, 4)
        values = Tensor(np.stack(_inputs(n, 4, 5, seed=n)))
        with Tape() as tape:
            reconstruct_all(values, params)
        records.add(len(tape))
        tensors.add(len(params.parameters()))
    assert len(records) == 1 and len(tensors) == 1, (records, tensors)
    # one each for the effect networks, dag_mix and the decoders
    assert records == {3}, records

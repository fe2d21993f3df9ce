"""Stacked variables from the encoders to the loss against the per-variable
oracle they replaced.

One training forward pass (encode, reconstruct every variable, the
reconstruction loss and the label cross-entropy) runs twice: through the
stacked ``Encoders``, ``reconstruct_all`` and ``loss_rec``, and through
per-variable affine encoders, the per-network SCM and a per-variable loss loop
cut from the same weights. The loss, the reconstructions and every
parameter gradient must agree within 1e-12 * max(1, max|oracle|), one-row
batches included: the stacked SCM's ``dag_mix`` sums over causes as one
matrix product, which rounds differently from a cause-by-cause chain.
"""

import numpy as np
import pytest

import oracles
from graphscm.encoders import Encoders
from graphscm.losses import loss_inv, loss_rec
from graphscm.numcore import Tape, Tensor, add, relu, softmax
from graphscm.rng import substream
from graphscm.scm import ScmParameters, label_probabilities_from, reconstruct_all

TARGET_DIM, CLASSES, HIDDEN = 4, 3, 6
TERMINAL_DIMS = [3, 5, 2, 4, 3, 6, 2]  # the first n - 2 feed the metapath slots


def _model(n, seed):
    rng = substream(seed, "init")
    enc = Encoders(TARGET_DIM, CLASSES, TERMINAL_DIMS[: n - 2], HIDDEN, rng)
    scm = ScmParameters(n, HIDDEN, CLASSES, rng)
    # nonzero biases, so that a misplaced bias would show
    noise = np.random.default_rng(seed + 1)
    for p in enc.parameters() + scm.parameters():
        if p.name.endswith(".b"):
            p.data = noise.normal(scale=0.1, size=p.shape)
    return enc, scm


def _inputs(n, batch, seed):
    rng = np.random.default_rng(seed)
    ego = rng.normal(size=(batch, TARGET_DIM))
    pooled = [rng.normal(size=(batch, d)) for d in TERMINAL_DIMS[: n - 2]]
    labels = rng.integers(0, CLASSES, size=batch)
    return ego, pooled, labels


def _oracle_label_probabilities(h_y_hat, scm):
    shortcut = relu(scm.inv1(h_y_hat))
    return softmax(scm.inv2(add(h_y_hat, shortcut)))


def _grads(params):
    return {p.name: np.zeros(p.shape) if p.grad is None else p.grad for p in params}


def _run_stacked(enc, scm, ego, pooled, labels):
    for p in enc.parameters() + scm.parameters():
        p.grad = None
    targets = Tensor(np.eye(CLASSES)[labels])
    with Tape() as tape:
        values = enc(ego, pooled, labels)
        recon = reconstruct_all(values, scm)
        loss = add(loss_rec(values, recon), loss_inv(targets, label_probabilities_from(recon, scm)))
    tape.backward(loss)
    outputs = [slot for t in (recon, values) for slot in t.data]
    return loss.item(), outputs, _grads(enc.parameters() + scm.parameters())


def _run_oracle(enc, scm, ego, pooled, labels):
    per_variable = oracles.PerVariableEncoders(enc)
    pairwise = oracles.PairwiseScm(scm)
    for p in scm.inv1.parameters() + scm.inv2.parameters():
        p.grad = None
    targets = Tensor(np.eye(CLASSES)[labels])
    with Tape() as tape:
        variables = oracles.encode_variables(ego, pooled, labels, per_variable)
        recon = oracles.reconstruct_all(variables, pairwise)
        loss = add(
            oracles.loss_rec(variables, recon),
            loss_inv(targets, _oracle_label_probabilities(recon[-1], scm)),
        )
    tape.backward(loss)
    grads = _grads(scm.inv1.parameters() + scm.inv2.parameters())
    grads.update(pairwise.stacked_grads(scm))
    grads.update(per_variable.stacked_grads(enc))
    return loss.item(), [t.data for t in recon + variables], grads


def _compare(n, batch, same):
    enc, scm = _model(n, seed=n)
    inputs = _inputs(n, batch, seed=batch)
    got_loss, got, got_grads = _run_stacked(enc, scm, *inputs)
    want_loss, want, want_grads = _run_oracle(enc, scm, *inputs)
    assert same(np.array(got_loss), np.array(want_loss))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same(a, b)
    assert sorted(got_grads) == sorted(want_grads)
    for name, g in got_grads.items():
        assert same(g, want_grads[name]), name


@pytest.mark.parametrize("n", [3, 6, 9])
@pytest.mark.parametrize("batch", [1, 2, 7, 128])
@pytest.mark.parametrize("activation", ["relu"])  # the only activation; kept in the test ids
def test_stacked_encode_and_loss_match_per_variable_oracle(n, batch, activation):
    _compare(n, batch, oracles.close)


def test_unknown_labels_are_not_encoded_and_take_no_gradient():
    enc, _ = _model(5, seed=1)
    ego, pooled, labels = _inputs(5, 4, seed=2)
    with Tape() as tape:
        values = enc(ego, pooled, None)
        loss = loss_rec(values, Tensor(np.ones(values.shape)))
    tape.backward(loss)
    assert values.shape == (4, 4, HIDDEN)
    assert np.array_equal(values.data, enc(ego, pooled, labels).data[:-1])
    assert not enc.weight.grad[enc.rows(4)].any() and not enc.bias.grad[-1].any()
    assert enc.bias.grad[:-1].all()

import itertools

import numpy as np
import pytest

from graphscm.losses import LossWeights, loss_acy, loss_dag, loss_inv, loss_joint, loss_rec
from graphscm.numcore import Tensor, finite_diff_check

import oracles
from oracles import has_cycle, taylor_trace_expm

# frozen from the 30-term Taylor oracle on the 3x3 two-cycle
TWO_CYCLE_ACY = (
    taylor_trace_expm(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])) - 3.0
) ** 2
TWO_CYCLE_DAG = TWO_CYCLE_ACY ** 2 / 2.0 + TWO_CYCLE_ACY


def _two_cycle():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    return Tensor(a)


def test_rec_perfect_reconstruction_is_zero():
    h = Tensor(np.stack([np.ones((2, 3)), np.zeros((2, 3))]))
    assert loss_rec(h, Tensor(h.data.copy())).item() == 0.0


def test_rec_hand_computed_example():
    # one sample, two variables of width one: residuals 1 and 0 -> 0.5
    h = Tensor([[[1.0]], [[0.0]]])
    h_hat = Tensor([[[0.0]], [[0.0]]])
    assert loss_rec(h, h_hat).item() == pytest.approx(0.5)


def test_rec_quadratic_homogeneity():
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(3, 3, 4)))
    h_hat = Tensor(rng.normal(size=(3, 3, 4)))
    base = loss_rec(h, h_hat).item()
    doubled = loss_rec(Tensor(2 * h.data), Tensor(2 * h_hat.data)).item()
    assert doubled == pytest.approx(4.0 * base)


def test_rec_invariant_under_variable_permutation():
    rng = np.random.default_rng(1)
    h = Tensor(rng.normal(size=(4, 2, 3)))
    h_hat = Tensor(rng.normal(size=(4, 2, 3)))
    base = loss_rec(h, h_hat).item()
    perm = [2, 0, 3, 1]
    shuffled = loss_rec(Tensor(h.data[perm]), Tensor(h_hat.data[perm])).item()
    assert shuffled == pytest.approx(base, abs=1e-15)


def test_rec_matches_per_variable_oracle_bit_for_bit():
    rng = np.random.default_rng(2)
    h, h_hat = rng.normal(size=(2, 5, 7, 6))
    got = loss_rec(Tensor(h), Tensor(h_hat)).item()
    want = oracles.loss_rec([Tensor(x) for x in h], [Tensor(x) for x in h_hat]).item()
    assert got == want


def test_acy_zero_matrix():
    assert loss_acy(Tensor(np.zeros((4, 4)))).item() == 0.0


def test_acy_strictly_upper_triangular():
    a = np.triu(np.random.default_rng(2).normal(size=(5, 5)), k=1)
    assert loss_acy(Tensor(a)).item() == pytest.approx(0.0, abs=1e-18)


def test_acy_two_cycle_frozen_value():
    assert loss_acy(_two_cycle()).item() == pytest.approx(TWO_CYCLE_ACY, abs=1e-9)
    assert TWO_CYCLE_ACY == pytest.approx(1.179746, abs=1e-6)


def test_dag_acyclic_is_zero():
    w = LossWeights()
    assert loss_dag(Tensor(np.zeros((3, 3))), w).item() == 0.0


def test_dag_two_cycle_frozen_value():
    w = LossWeights(rho=1.0, alpha=1.0)
    got = loss_dag(_two_cycle(), w).item()
    assert got == pytest.approx(TWO_CYCLE_DAG, abs=1e-9)
    # the closed-form arithmetic: x^2/2 + x at x = (e + 1/e - 2)^2
    assert got == pytest.approx(1.8756469741277013, abs=1e-9)


def test_dag_monotone_in_acy():
    w = LossWeights(rho=0.7, alpha=1.3)
    scales = [0.2, 0.5, 1.0, 1.5]
    values = []
    base = _two_cycle().data
    for s in scales:
        values.append(loss_dag(Tensor(base * s), w).item())
    assert all(a < b for a, b in zip(values, values[1:]))


def test_inv_exact_prediction_zero():
    y = Tensor([[0.0, 1.0], [1.0, 0.0]])
    assert loss_inv(y, Tensor(y.data.copy())).item() == pytest.approx(0.0, abs=1e-10)


def test_inv_hand_computed():
    y = Tensor([[0.0, 1.0]])
    y_hat = Tensor([[0.25, 0.75]])
    assert loss_inv(y, y_hat).item() == pytest.approx(-np.log(0.75), abs=1e-12)


def test_inv_uniform_gives_log_c():
    for c in (2, 3, 5):
        y = Tensor(np.eye(c)[:1])
        y_hat = Tensor(np.full((1, c), 1.0 / c))
        assert loss_inv(y, y_hat).item() == pytest.approx(np.log(c), abs=1e-12)


def test_joint_ablation_cases():
    inv, rec, dag = Tensor(0.3), Tensor(0.2), Tensor(0.1)
    assert loss_joint(inv, rec, dag, LossWeights(beta=0.0, gamma=0.0)).item() == pytest.approx(0.3)
    assert loss_joint(Tensor(0.0), Tensor(0.0), Tensor(0.0), LossWeights()).item() == 0.0
    got = loss_joint(inv, rec, dag, LossWeights(beta=0.5, gamma=2.0)).item()
    assert got == pytest.approx(0.3 + 0.1 + 0.2)


def test_acy_zero_iff_acyclic_exhaustive_4x4():
    for bits in itertools.product([0, 1], repeat=16):
        support = np.array(bits).reshape(4, 4).astype(bool)
        np.fill_diagonal(support, False)
        a = support.astype(float) * 0.8
        value = loss_acy(Tensor(a)).item()
        if has_cycle(support):
            assert value > 1e-8
        else:
            assert abs(value) <= 1e-8


def test_acy_zero_iff_acyclic_random_6x6():
    # nonzero weights are kept away from zero so that any cycle's trace
    # contribution clears the 1e-8 tolerance
    rng = np.random.default_rng(3)
    for _ in range(200):
        signs = np.where(rng.random((6, 6)) < 0.5, -1.0, 1.0)
        magnitude = rng.uniform(0.4, 1.5, size=(6, 6))
        a = signs * magnitude * (rng.random((6, 6)) < 0.3)
        np.fill_diagonal(a, 0.0)
        value = loss_acy(Tensor(a)).item()
        if has_cycle(a != 0.0):
            assert value > 1e-8
        else:
            assert abs(value) <= 1e-8


def test_losses_nonnegative_and_differentiable():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(4, 4)) * 0.6)
    w = LossWeights(rho=1.0, alpha=1.0)
    assert loss_acy(a).item() >= 0.0
    assert loss_dag(a, w).item() >= 0.0

    err = finite_diff_check(lambda t: loss_dag(t, w), a, eps=1e-5)
    assert err <= 1e-4

    # reconstruction loss gradient, with respect to either stacked operand
    from graphscm.numcore import softmax

    h_const = Tensor(rng.normal(size=(3, 3, 2)))
    assert finite_diff_check(lambda x: loss_rec(h_const, x), Tensor(rng.normal(size=(3, 3, 2))), eps=1e-5) <= 1e-4
    assert finite_diff_check(lambda x: loss_rec(x, h_const), Tensor(rng.normal(size=(3, 3, 2))), eps=1e-5) <= 1e-4

    y = Tensor(np.eye(3))

    def inv_loss(x):
        return loss_inv(y, softmax(x))

    logits = Tensor(rng.normal(size=(3, 3)))
    assert finite_diff_check(inv_loss, logits, eps=1e-5) <= 1e-4

import numpy as np
import pytest

from graphscm.errors import DimensionError
from graphscm.numcore import AdamW, Tape, Tensor, frobenius_sq


def test_zero_gradient_zero_decay_leaves_parameter():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW([p])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_single_step_hand_computed():
    # g=1, lr=0.001, betas (0.9, 0.999), eps 1e-8, no decay:
    # m_hat = 1, v_hat = 1, p <- 1 - 0.001 * 1/(1 + 1e-8)
    p = Tensor(1.0, requires_grad=True)
    p.grad = np.asarray(1.0)
    AdamW([p]).step()
    expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
    assert float(p.data) == pytest.approx(expected, abs=1e-15)
    assert float(p.data) == pytest.approx(0.999, abs=1e-9)


def test_two_steps_decrease_convex_quadratic():
    p = Tensor(np.array([[3.0, -2.0]]), requires_grad=True)
    opt = AdamW([p], lr=0.05)

    def loss_value():
        return float((p.data ** 2).sum())

    before = loss_value()
    for _ in range(2):
        opt.zero_grad()
        with Tape() as tape:
            loss = frobenius_sq(p)
        tape.backward(loss)
        opt.step()
    assert loss_value() < before


def test_decoupled_weight_decay_shrinks_even_without_gradient():
    p = Tensor(2.0, requires_grad=True)
    AdamW([p], weight_decay=0.1).step()  # no gradient at all
    assert float(p.data) == pytest.approx(2.0 - 0.001 * 0.1 * 2.0)


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(DimensionError):
        AdamW([p]).step()


def test_step_counter_strictly_increases():
    p = Tensor(0.0, requires_grad=True)
    opt = AdamW([p])
    for expected in (1, 2, 3):
        p.grad = np.asarray(1.0)
        opt.step()
        assert opt.step_count == expected

import numpy as np
import pytest

from graphscm.errors import DimensionError
from graphscm.numcore import (
    Tape,
    Tensor,
    add,
    frobenius_sq,
    index_scalar,
    matmul,
    mul,
    pair_mix,
    relu,
    softmax,
    stacked_mlp,
    sub,
    sum_all,
)

from oracles import close, matmul_loops, pair_mix_cells, stacked_mlp_chain


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = Tensor([[5.0], [7.0]])
    assert np.array_equal(matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - matmul_loops(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_relu_sign_cases():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    out = softmax(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = softmax(Tensor(rng.normal(size=(8, 5)) * 10.0))
    assert np.all(out.data >= 0.0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


def test_frobenius_sq_identical_inputs():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    y = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_sq(sub(x, y)).item() == 0.0


def test_broadcast_restricted_to_row_vector():
    m = Tensor(np.zeros((3, 4)))
    assert add(m, Tensor(np.ones(4))).shape == (3, 4)
    with pytest.raises(DimensionError):
        add(m, Tensor(np.ones(3)))
    with pytest.raises(DimensionError):
        add(m, Tensor(np.zeros((3, 1))))


def test_bias_gradient_sums_over_rows():
    x = Tensor(np.ones((3, 2)))
    b = Tensor(np.zeros(2), requires_grad=True)
    with Tape() as tape:
        y = frobenius_sq(add(x, b))
    tape.backward(y)
    # d/db sum (1+b)^2 = 2*3*(1+b) = 6 per column
    assert np.allclose(b.grad, [6.0, 6.0])


def test_backward_visits_reverse_order_and_accumulates():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        y = add(mul(x, x), x)  # x^2 + x
    tape.backward(y)
    assert float(x.grad) == pytest.approx(5.0)


def test_passed_on_gradients_are_private_arrays():
    # add and sub hand their incoming gradient on and sum_all broadcasts it:
    # every input still gets an array of its own, which it may change in place
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        s = add(a, b)
        y = sum_all(sub(s, c))
    tape.backward(y)
    grads = [a.grad, b.grad, c.grad, s.grad]
    assert len({id(g) for g in grads}) == 4
    for g in grads:
        assert g.flags.writeable and not np.shares_memory(g, y.grad)
    a.grad[0, 0] = 7.0
    assert np.array_equal(b.grad, np.ones((2, 3))) and np.array_equal(s.grad, np.ones((2, 3)))


def test_index_scalar_scatters_gradient():
    a = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
    with Tape() as tape:
        y = mul(index_scalar(a, 1, 2), index_scalar(a, 1, 2))
    tape.backward(y)
    expected = np.zeros((3, 3))
    expected[1, 2] = 2.0 * 5.0
    assert np.array_equal(a.grad, expected)


def test_no_tape_means_no_recording():
    x = Tensor(1.0, requires_grad=True)
    y = mul(x, x)
    assert y.requires_grad is False and y.grad is None


def test_fixed_seed_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)))
        with Tape() as tape:
            y = frobenius_sq(matmul(relu(a), b))
        tape.backward(y)
        return y.item(), a.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def _pair_mix_run(op, inputs, targets, upstream):
    leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    with Tape() as tape:
        out = op(*leaves, targets)
        loss = sum_all(mul(out, Tensor(upstream)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("which", ["all", "label", "inner", "zeros"])
def test_pair_mix_matches_cell_by_cell_oracle(n, batch, which):
    """Output and all four gradients within 1e-12 * max(1, max|oracle|) of the
    per-cell op; the weight gradient keeps its bits. "zeros" is every target
    on a DAG with exact zeros below the diagonal, as ``trim_to_dag`` leaves."""
    targets = {"label": [n - 1], "inner": [1 if n > 2 else 0]}.get(which, list(range(n)))
    causes = n - 1 if which == "label" else n
    d = 5
    rng = np.random.default_rng(100 * n + batch)
    inputs = [
        rng.normal(size=(causes, batch, d)),
        rng.normal(size=(n, n - 1, d, d)),
        rng.normal(size=(n, n - 1, d)),
        rng.normal(size=(n, n)),  # a nonzero diagonal, which neither op reads
    ]
    if which == "zeros":
        inputs[3][np.tril_indices(n, -1)] = 0.0
    upstream = rng.normal(size=(len(targets), batch, d))
    got = _pair_mix_run(pair_mix, inputs, targets, upstream)
    want = _pair_mix_run(pair_mix_cells, inputs, targets, upstream)
    for part, a, b in zip(("out", "effects", "weight", "bias", "dag"), got, want):
        assert close(a, b), part
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 31, 128])
@pytest.mark.parametrize("rows", ["all", "slice"])
@pytest.mark.parametrize("x_grad", [True, False])
def test_stacked_mlp_matches_bmm_chain_bit_for_bit(n, batch, rows, x_grad):
    """Output and every gradient equal to the per-layer ``take``/``bmm``/
    ``relu`` chain bit for bit, for two and three layers of width 64. The
    first network's first unit reads exactly 0 before its ReLU."""
    width = 64
    part = None if rows == "all" else slice(1, n)
    m = n if part is None else n - 1
    rng = np.random.default_rng(1000 * n + batch)
    for layers in (2, 3):
        inputs = [rng.normal(size=(m, batch, width))]
        weights = [rng.normal(scale=0.2, size=(n, width, width)) for _ in range(layers)]
        biases = [rng.normal(scale=0.1, size=(n, width)) for _ in range(layers)]
        first = 0 if part is None else 1
        weights[0][first, :, 0] = biases[0][first, 0] = 0.0
        upstream = rng.normal(size=(m, batch, width))

        def run(op):
            x = Tensor(inputs[0].copy(), requires_grad=x_grad)
            ws = [Tensor(w.copy(), requires_grad=True) for w in weights]
            bs = [Tensor(b.copy(), requires_grad=True) for b in biases]
            with Tape() as tape:
                out = op(x, ws, bs, part)
                loss = sum_all(mul(out, Tensor(upstream)))
            tape.backward(loss)
            return len(tape), [out.data, x.grad] + [t.grad for t in ws + bs]

        fused, got = run(stacked_mlp)
        chain, want = run(stacked_mlp_chain)
        # the chain: a bmm per layer, a relu between layers and two takes per layer of a slice
        assert (fused, chain) == (3, 2 + 2 * layers - 1 + (2 * layers if part else 0))
        assert (got[1] is None) == (not x_grad)
        for i, (a, b) in enumerate(zip(got, want)):
            assert (a is None and b is None) or np.array_equal(a, b), (layers, i)

import numpy as np
import pytest

from graphscm.errors import DimensionError
from graphscm.numcore import (
    Tape,
    Tensor,
    add,
    affine,
    dag_mix,
    mul,
    relu,
    scale,
    softmax,
    sq_error,
    stacked_mlp,
    sub,
    sum_all,
)

from oracles import (
    close,
    frobenius_sq,
    index_scalar,
    matmul_loops,
    pair_mix,
    pair_mix_cells,
    sq_error_chain,
    stacked_mlp_chain,
)


def test_affine_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(affine(a, b, Tensor(np.zeros(2))).data, [[1.0, 2.0], [3.0, 4.0]])


def test_affine_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = Tensor([[5.0], [7.0]])
    assert np.array_equal(affine(p, v, Tensor([0.5])).data, [[5.5], [0.5]])


def test_affine_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    bias = rng.normal(size=2)
    got = affine(Tensor(a), Tensor(b), Tensor(bias)).data
    assert np.max(np.abs(got - (matmul_loops(a, b) + bias))) < 1e-12


def test_affine_shape_error_names_every_shape():
    def zeros(*shape):
        return Tensor(np.zeros(shape))

    with pytest.raises(DimensionError, match=r"affine: input \(2, 3\), weight \(2, 3\) and bias \(3,\)"):
        affine(zeros(2, 3), zeros(2, 3), zeros(3))
    for bias in (zeros(3), zeros(1, 4), zeros()):  # the bias is one row as wide as the output
        with pytest.raises(DimensionError, match="affine"):
            affine(zeros(2, 3), zeros(3, 4), bias)
    with pytest.raises(DimensionError, match="affine"):
        affine(zeros(2, 2, 3), zeros(3, 4), zeros(4))


def test_affine_matches_matmul_then_bias_add_bit_for_bit():
    """The label head's pattern: ``h`` feeds an affine map and, past its
    ReLU, a second record (the residual add) before another affine map.
    The output and the gradients of ``h``, both weights and both biases
    equal, bit for bit, plain numpy ``x @ W`` followed by ``+ b`` with the
    backward of a matmul record and a bias-add record in reverse order."""
    rng = np.random.default_rng(53)
    x, w1, b1, w2, b2 = (rng.normal(size=s) for s in ((7, 5), (5, 5), (5,), (5, 3), (3,)))
    upstream = rng.normal(size=(7, 3))
    leaves = [Tensor(a.copy()) for a in (x, w1, b1, w2, b2)]
    h, l1w, l1b, l2w, l2b = leaves
    with Tape() as tape:
        shortcut = relu(affine(h, l1w, l1b))
        out = affine(add(h, shortcut), l2w, l2b)
        loss = sum_all(mul(out, Tensor(upstream)))
    assert len(tape) == 6
    tape.backward(loss)

    pre = x @ w1 + b1
    u = x + np.maximum(pre, 0.0)
    want_out = u @ w2 + b2
    g = upstream
    gb2, gw2, gu = g.sum(axis=0), u.T @ g, g @ w2.T
    gpre = gu * (pre > 0.0)
    gb1, gw1 = gpre.sum(axis=0), x.T @ gpre
    gx = gu + gpre @ w1.T  # the residual add's gradient arrives first
    for got, want in zip([out.data] + [t.grad for t in leaves], [want_out, gx, gw1, gb1, gw2, gb2]):
        assert np.array_equal(got, want)


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


def test_binary_ops_need_equal_shapes():
    m = Tensor(np.zeros((3, 4)))
    for op in (add, sub, mul):
        assert op(m, Tensor(np.ones((3, 4)))).shape == (3, 4)
        for shape in ((4,), (3,), (3, 1), (), (4, 3)):
            for a, b in ((m, Tensor(np.ones(shape))), (Tensor(np.ones(shape)), m)):
                with pytest.raises(DimensionError) as exc:
                    op(a, b)
                assert str(exc.value) == f"{op.__name__}: shapes {a.shape} and {b.shape} differ"


def test_bias_gradient_sums_over_rows():
    x = Tensor(np.ones((3, 2)))
    b = Tensor(np.zeros(2))
    with Tape() as tape:
        y = frobenius_sq(affine(x, Tensor(np.eye(2)), b))
    tape.backward(y)
    # d/db sum (1+b)^2 = 2*3*(1+b) = 6 per column
    assert np.array_equal(b.grad, [6.0, 6.0])


def test_backward_visits_reverse_order_and_accumulates():
    x = Tensor(2.0)
    with Tape() as tape:
        y = add(mul(x, x), x)  # x^2 + x
    tape.backward(y)
    assert float(x.grad) == pytest.approx(5.0)


def test_passed_on_gradients_are_private_arrays():
    # add and sub hand their incoming gradient on and sum_all broadcasts it:
    # every input still gets an array of its own, which it may change in place
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    c = Tensor(np.ones((2, 3)))
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
    a = Tensor(np.arange(9.0).reshape(3, 3))
    with Tape() as tape:
        y = mul(index_scalar(a, 1, 2), index_scalar(a, 1, 2))
    tape.backward(y)
    expected = np.zeros((3, 3))
    expected[1, 2] = 2.0 * 5.0
    assert np.array_equal(a.grad, expected)


def test_no_tape_means_no_recording():
    """An op outside a tape is recorded nowhere: a later tape holds no
    record of it, and its backward sends no gradient to its input."""
    x = Tensor(1.0)
    y = mul(x, x)
    with Tape() as tape:
        pass
    assert len(tape) == 0 and y.grad is None
    tape.backward(y)
    assert x.grad is None


def test_constant_inputs_are_recorded_and_get_gradients():
    """Within a tape an op on tensors that no parameter produced is still
    recorded, and each of those constants gets its gradient."""
    c = Tensor(np.array([2.0, -3.0]))
    d = Tensor(np.array([0.5, 4.0]))
    with Tape() as tape:
        y = sum_all(mul(c, d))
    assert len(tape) == 2
    tape.backward(y)
    assert np.array_equal(c.grad, d.data) and np.array_equal(d.grad, c.data)


def test_fixed_seed_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=(4, 4)))
        with Tape() as tape:
            y = frobenius_sq(affine(relu(a), b, Tensor(np.zeros(4))))
        tape.backward(y)
        return y.item(), a.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def _pair_mix_run(op, inputs, upstream):
    leaves = [Tensor(x.copy()) for x in inputs]
    with Tape() as tape:
        out = op(*leaves)
        loss = sum_all(mul(out, Tensor(upstream)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("which", ["all", "label", "inner", "zeros"])
def test_pair_mix_matches_cell_by_cell_oracle(n, batch, which):
    """Output and all four gradients within 1e-12 * max(1, max|oracle|) of the
    per-cell op; the weight gradient keeps its bits. "label" is the label from
    the n - 1 causes before it. "inner" is every target with an upstream
    gradient on variable 1 alone (0 at n = 2), against the oracle's cells of
    that one target, whose pair slots do not form a block. "zeros" is every
    target on a DAG with exact zeros below the diagonal, as ``trim_to_dag``
    leaves."""
    k = 1 if n > 2 else 0
    targets = {"label": [n - 1], "inner": [k]}.get(which, list(range(n)))
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
    want = _pair_mix_run(lambda *t: pair_mix_cells(*t, targets), inputs, upstream)
    if which == "inner":
        every = np.zeros((n, batch, d))
        every[k] = upstream[0]
        got = _pair_mix_run(pair_mix, inputs, every)
        got[0] = got[0][k : k + 1]
    else:
        got = _pair_mix_run(pair_mix, inputs, upstream)
    for part, a, b in zip(("out", "effects", "weight", "bias", "dag"), got, want):
        assert close(a, b), part
    assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 128])
@pytest.mark.parametrize("which", ["all", "label"])
def test_dag_mix_is_the_cell_by_cell_pair_mix_at_identity_maps(n, batch, which):
    """Output and the effects and DAG gradients within 1e-12 * max(1,
    max|oracle|) of the per-cell pair-map op with every map the identity
    and every bias zero, in one tape record. "label" is the label from the
    n - 1 causes before it. The DAG's diagonal is nonzero here; it is read
    as zero and takes no gradient."""
    targets = [n - 1] if which == "label" else list(range(n))
    causes = n - 1 if which == "label" else n
    d = 5
    rng = np.random.default_rng(100 * n + batch + 7)
    effects, dag = rng.normal(size=(causes, batch, d)), rng.normal(size=(n, n))
    upstream = rng.normal(size=(len(targets), batch, d))
    identity = np.broadcast_to(np.eye(d), (n, n - 1, d, d)).copy()
    want = _pair_mix_run(
        lambda e, w, b, a: pair_mix_cells(e, w, b, a, targets),
        [effects, identity, np.zeros((n, n - 1, d)), dag],
        upstream,
    )
    got = _pair_mix_run(dag_mix, [effects, dag], upstream)
    for part, a, b in zip(("out", "effects", "dag"), got, [want[0], want[1], want[4]]):
        assert close(a, b), part
    assert not np.diagonal(got[2]).any()
    with Tape() as tape:
        dag_mix(Tensor(effects), Tensor(dag))
    assert len(tape) == 1


def test_dag_mix_rejects_shapes_that_do_not_fit():
    with pytest.raises(DimensionError, match="square"):
        dag_mix(Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros((3, 4))))
    for causes in (1, 4):
        with pytest.raises(DimensionError, match="do not fit 3 variables"):
            dag_mix(Tensor(np.zeros((causes, 2, 4))), Tensor(np.zeros((3, 3))))


@pytest.mark.parametrize("n", [2, 3, 6, 9])
@pytest.mark.parametrize("batch", [1, 7, 31, 128])
@pytest.mark.parametrize("rows", ["all", "slice"])
@pytest.mark.parametrize("x_leaf", [True, False])
def test_stacked_mlp_matches_bmm_chain_bit_for_bit(n, batch, rows, x_leaf):
    """Output and every gradient equal to the per-layer ``take``/``bmm``/
    ``relu`` chain bit for bit, for two and three layers of width 64. The
    first network's first unit reads exactly 0 before its ReLU. The input is
    a leaf, or the output of a recorded ``relu`` whose own input then gets
    the gradient passed on."""
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
            x0 = Tensor(inputs[0].copy())
            ws = [Tensor(w.copy()) for w in weights]
            bs = [Tensor(b.copy()) for b in biases]
            with Tape() as tape:
                x = x0 if x_leaf else relu(x0)
                out = op(x, ws, bs, part)
                loss = sum_all(mul(out, Tensor(upstream)))
            tape.backward(loss)
            return len(tape), [out.data, x.grad, x0.grad] + [t.grad for t in ws + bs]

        fused, got = run(stacked_mlp)
        chain, want = run(stacked_mlp_chain)
        # the chain: a bmm per layer, a relu between layers and two takes per layer of a slice
        extra = 0 if x_leaf else 1
        assert (fused, chain) == (3 + extra, 2 + 2 * layers - 1 + (2 * layers if part else 0) + extra)
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a, b), (layers, i)


@pytest.mark.parametrize("shape", [(3, 7, 5), (1, 1, 4), (4, 1, 5)])
@pytest.mark.parametrize("leaves", ["both", "a", "b"])
def test_sq_error_matches_sub_square_scale_chain_bit_for_bit(shape, leaves):
    """Value and both gradients equal to the ``sub``/``frobenius_sq``/``scale``
    chain bit for bit, under a non-unit upstream gradient, in one tape record
    where the chain takes three; the two gradients are separate arrays.
    ``leaves`` names the inputs that are leaves; the other one is the output
    of a recorded ``relu`` whose own input then gets the gradient passed on."""
    rng = np.random.default_rng(sum(shape))
    inputs = [rng.normal(size=shape), rng.normal(size=shape)]
    c = 1.0 / (shape[0] * shape[1])

    def run(op):
        a0 = Tensor(inputs[0].copy())
        b0 = Tensor(inputs[1].copy())
        with Tape() as tape:
            a = a0 if leaves in ("both", "a") else relu(a0)
            b = b0 if leaves in ("both", "b") else relu(b0)
            loss = scale(op(a, b, c), 0.01)
        tape.backward(loss)
        return len(tape), [loss.data, a.grad, b.grad, a0.grad, b0.grad]

    fused, got = run(sq_error)
    chain, want = run(sq_error_chain)
    extra = 0 if leaves == "both" else 1
    assert (fused, chain) == (2 + extra, 4 + extra)
    for i, (x, y) in enumerate(zip(got, want)):
        assert np.array_equal(x, y), i
    assert got[1] is not got[2] and not np.shares_memory(got[1], got[2])
    assert got[3] is not got[4] and not np.shares_memory(got[3], got[4])


def test_sq_error_shape_mismatch_raises():
    with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(2, 4, 3\)"):
        sq_error(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 3))), 1.0)
    with pytest.raises(DimensionError, match=r"3-D.*\(4, 5\) and \(4, 5\)"):
        sq_error(Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 5))), 1.0)


def test_numcore_exports_resolve():
    """Every name in ``numcore.__all__`` is bound in the package."""
    import graphscm.numcore as numcore

    missing = [name for name in numcore.__all__ if not hasattr(numcore, name)]
    assert not missing, missing

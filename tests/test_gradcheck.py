import numpy as np
import pytest

from graphscm.errors import NumericError
from graphscm.numcore import (
    Tensor,
    add,
    affine,
    block_affine,
    clamp_min,
    dag_mix,
    expm_trace,
    finite_diff_check,
    log,
    mul,
    relu,
    scale,
    softmax,
    sq_error,
    square,
    stacked_mlp,
    sub,
    sum_all,
    take,
    finite_diff_check as fdc,
)

from oracles import frobenius_sq, pair_mix


def test_sum_of_squares_near_exact():
    err = finite_diff_check(frobenius_sq, Tensor([1.0, 2.0]), eps=1e-5)
    assert err < 1e-6


def test_expm_trace_random():
    rng = np.random.default_rng(2)
    err = finite_diff_check(expm_trace, Tensor(rng.normal(size=(5, 5))), eps=1e-5)
    assert err < 1e-4


def test_non_finite_probe_raises():
    def f(x):
        return log(x)

    with pytest.raises(NumericError):
        finite_diff_check(f, Tensor(1e-6), eps=1e-5)  # probes below zero -> nan


def test_all_ops_pass_at_100_random_points():
    """Every differentiable op stays within 1e-4 of central differences.
    Every case draws its points from one stream, so the cases keep their
    count and order: a case removed or added moves the inputs of every later
    one."""
    rng = np.random.default_rng(17)
    const_b = Tensor(rng.normal(size=(4, 3)))
    const_m = Tensor(rng.normal(size=(5, 4)))
    row = Tensor(rng.normal(size=4))

    cases = [
        ("affine", (5, 4), lambda x: frobenius_sq(affine(x, const_b, Tensor(row.data[:3])))),
        ("add", (5, 4), lambda x: frobenius_sq(add(x, Tensor(np.tile(row.data, (5, 1)))))),
        ("sub", (5, 4), lambda x: frobenius_sq(sub(x, const_m))),
        ("mul", (5, 4), lambda x: frobenius_sq(mul(x, const_m))),
        ("scale", (5, 4), lambda x: frobenius_sq(scale(x, -2.5))),
        ("relu", (5, 4), lambda x: frobenius_sq(relu(x))),
        ("softmax", (5, 4), lambda x: frobenius_sq(softmax(x))),
        ("square", (5, 4), lambda x: sum_all(square(x))),
        ("clamp", (5, 4), lambda x: sum_all(square(clamp_min(x, 0.3)))),
        ("log", (5, 4), lambda x: sum_all(log(add(square(x), Tensor(np.full((5, 4), 0.5)))))),
        ("expm_trace", (5, 5), lambda x: expm_trace(x)),
    ]
    points_per_case = max(1, 100 // len(cases) + 1)
    checked = 0
    for name, shape, f in cases:
        for _ in range(points_per_case):
            x = Tensor(rng.normal(size=shape))
            err = fdc(f, x, eps=1e-5)
            assert err <= 1e-4, f"{name} gradient error {err}"
            checked += 1
    assert checked >= 100


def test_stacked_ops_match_finite_differences():
    """stacked_mlp (one layer, with a zero and a drawn bias; two layers, and
    three on a slice of the networks), block_affine, take (a column run, a
    leading run, and a basic index of ints and slices), frobenius_sq of a
    stacked tensor, the pair-map mix of the oracles, sq_error and affine,
    each with respect to every differentiable input; pair_mix also at n = 2
    and with a nonzero DAG diagonal."""
    rng = np.random.default_rng(29)

    def const(*shape):
        return Tensor(rng.normal(size=shape))

    w, x, b = const(3, 2, 5), const(3, 4, 2), const(3, 5)
    zero = Tensor(np.zeros((3, 5)))  # not drawn, so every later draw keeps its value
    narrow, rows, corner = const(4, 3), const(2, 3, 2), const(2, 2)
    n, d = 4, 3
    effects, weight, bias = const(n, 2, d), const(n, n - 1, d, d), const(n, n - 1, d)
    dag = const(n, n)
    blocks, block_w, block_b = [rng.normal(size=(4, d)) for d in (2, 3, 1)], const(6, 5), const(3, 5)

    def mix(slot, **fixed):
        args = {"effects": effects, "weight": weight, "bias": bias, "dag": dag, **fixed}

        def f(t):
            args[slot] = t
            return frobenius_sq(pair_mix(**args))

        return f

    cases = [
        ("stacked_mlp x", (3, 4, 2), lambda t: frobenius_sq(stacked_mlp(t, [w], [zero]))),
        ("stacked_mlp w", (3, 2, 5), lambda t: frobenius_sq(stacked_mlp(x, [t], [zero]))),
        ("stacked_mlp bias x", (3, 4, 2), lambda t: frobenius_sq(stacked_mlp(t, [w], [b]))),
        ("stacked_mlp bias w", (3, 2, 5), lambda t: frobenius_sq(stacked_mlp(x, [t], [b]))),
        ("stacked_mlp bias b", (3, 5), lambda t: frobenius_sq(stacked_mlp(x, [w], [t]))),
        ("block_affine w", (6, 5), lambda t: frobenius_sq(block_affine(blocks, t, block_b))),
        ("block_affine b", (3, 5), lambda t: frobenius_sq(block_affine(blocks, block_w, t))),
        ("take columns", (4, 5), lambda t: frobenius_sq(mul(take(t, (slice(None), slice(1, 4))), narrow))),
        ("take", (4, 3, 2), lambda t: frobenius_sq(mul(take(t, slice(1, 3)), rows))),
        ("take index", (3, 4, 5), lambda t: frobenius_sq(mul(take(t, (-1, slice(1, 3), slice(0, 2))), corner))),
        ("frobenius_sq stacked", (3, 4, 5), lambda t: frobenius_sq(scale(t, 0.5))),
        ("pair_mix effects", (n, 2, d), mix("effects")),
        ("pair_mix weight", (n, n - 1, d, d), mix("weight")),
        ("pair_mix bias", (n, n - 1, d), mix("bias")),
        ("pair_mix dag", (n, n), mix("dag")),
        ("pair_mix effects upper dag", (n, 2, d), mix("effects", dag=Tensor(np.triu(dag.data)))),
        ("pair_mix label", (n - 1, 2, d), mix("effects")),
        ("pair_mix label weight", (n, n - 1, d, d), lambda t: frobenius_sq(
            pair_mix(take(effects, slice(0, n - 1)), t, bias, dag))),
    ]
    for name, shape, f in cases:
        err = fdc(f, Tensor(rng.normal(size=shape)), eps=1e-5)
        assert err <= 1e-6, f"{name} gradient error {err}"

    # pair_mix at n = 2 (every target) and n = 5 (the label from the four
    # causes before it), on a DAG whose diagonal is nonzero but must not be
    # read, drawn from a generator of their own so that the cases above keep
    # their inputs. The squared sum is quadratic in each input, so central
    # differences carry no truncation error and the wider step only shrinks
    # their rounding (at 1e-5 a weight element whose gradient is 1e-4 can
    # read about 1e-6).
    own = np.random.default_rng(31)
    for n, causes in ((2, 2), (5, 4)):
        args = [own.normal(size=s) for s in ((causes, 2, d), (n, n - 1, d, d), (n, n - 1, d), (n, n))]
        np.fill_diagonal(args[3], 1.5)
        hollow = args[:3] + [args[3] * (1.0 - np.eye(n))]
        assert np.array_equal(pair_mix(*map(Tensor, args)).data, pair_mix(*map(Tensor, hollow)).data)
        for slot, name in enumerate(("effects", "weight", "bias", "dag")):
            def f(t, slot=slot, args=args):
                parts = [Tensor(a) for a in args]
                parts[slot] = t
                return frobenius_sq(pair_mix(*parts))

            err = fdc(f, Tensor(own.normal(size=args[slot].shape)), eps=1e-3)
            assert err <= 1e-6, f"pair_mix n={n} {name} gradient error {err}"

    # stacked_mlp with two layers, and with three on a slice of the networks,
    # with respect to the input and every weight and bias, from a generator
    # of their own so that the cases above keep their inputs
    own = np.random.default_rng(37)
    for depth, rows, widths in ((2, None, (2, 5, 3)), (3, slice(1, 3), (2, 4, 4, 3))):
        nets = 3
        m = nets if rows is None else rows.stop - rows.start
        args = [own.normal(size=(m, 4, widths[0]))]
        args += [own.normal(size=(nets, p, q)) for p, q in zip(widths, widths[1:])]
        args += [own.normal(size=(nets, q)) for q in widths[1:]]
        for slot in range(len(args)):
            def f(t, slot=slot, args=args, depth=depth, rows=rows):
                parts = [Tensor(a) for a in args]
                parts[slot] = t
                return frobenius_sq(stacked_mlp(parts[0], parts[1:1 + depth], parts[1 + depth:], rows))

            err = fdc(f, Tensor(own.normal(size=args[slot].shape)), eps=1e-5)
            assert err <= 1e-6, f"stacked_mlp {depth} layers input {slot} gradient error {err}"

    # sq_error with respect to either operand, from a generator of its own
    # so that the cases above keep their inputs. The function is quadratic,
    # so the wider step only shrinks the rounding of the central differences.
    own = np.random.default_rng(41)
    shape, c = (3, 4, 5), 1.0 / 12.0
    other = Tensor(own.normal(size=shape))
    cases = [
        ("a", lambda t: sq_error(t, other, c)),
        ("b", lambda t: sq_error(other, t, c)),
    ]
    for name, f in cases:
        err = fdc(f, Tensor(own.normal(size=shape)), eps=1e-3)
        assert err <= 1e-6, f"sq_error {name} gradient error {err}"

    # affine with respect to the input, the weight and the bias row, from a
    # generator of its own so that the cases above keep their inputs; the
    # input also feeds the residual add after the ReLU, as the label head's
    # does, so its gradient sums two records
    own = np.random.default_rng(47)
    args = [own.normal(size=s) for s in ((6, 4), (4, 4), (4,))]
    for slot, name in enumerate(("x", "W", "b")):
        def f(t, slot=slot):
            x, w, b = [t if i == slot else Tensor(a) for i, a in enumerate(args)]
            return frobenius_sq(add(x, relu(affine(x, w, b))))

        err = fdc(f, Tensor(own.normal(size=args[slot].shape)), eps=1e-5)
        assert err <= 1e-6, f"affine {name} gradient error {err}"


def test_dag_mix_matches_finite_differences():
    """dag_mix with respect to the effects and to A, every target (n = 2 and
    4) and the label alone (from the n - 1 causes before it, n = 2 and 5),
    on a DAG whose diagonal is nonzero: the diagonal is not read and takes
    no gradient. Inputs come from a generator of their own. The squared sum
    is quadratic in each input, so central differences carry no truncation
    error and the wider step only shrinks their rounding."""
    own = np.random.default_rng(43)
    d = 3
    for n, causes in ((2, 2), (4, 4), (2, 1), (5, 4)):
        effects, dag = own.normal(size=(causes, 2, d)), own.normal(size=(n, n))
        np.fill_diagonal(dag, 1.5)
        hollow = dag * (1.0 - np.eye(n))
        assert np.array_equal(dag_mix(Tensor(effects), Tensor(dag)).data, dag_mix(Tensor(effects), Tensor(hollow)).data)
        cases = [
            ("effects", effects.shape, lambda t, dag=dag: frobenius_sq(dag_mix(t, Tensor(dag)))),
            ("dag", dag.shape, lambda t, effects=effects: frobenius_sq(dag_mix(Tensor(effects), t))),
        ]
        for name, shape, f in cases:
            err = fdc(f, Tensor(own.normal(size=shape)), eps=1e-3)
            assert err <= 1e-6, f"dag_mix n={n} causes={causes} {name} gradient error {err}"

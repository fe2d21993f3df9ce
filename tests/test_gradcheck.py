import numpy as np
import pytest

from graphscm.errors import NumericError
from graphscm.numcore import (
    Tensor,
    add,
    block_affine,
    clamp_min,
    expm_trace,
    finite_diff_check,
    frobenius_sq,
    log,
    matmul,
    mul,
    pair_mix,
    relu,
    scale,
    softmax,
    square,
    stacked_mlp,
    sub,
    sum_all,
    take,
    finite_diff_check as fdc,
)


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
    """Every differentiable op stays within 1e-4 of central differences."""
    rng = np.random.default_rng(17)
    const_b = Tensor(rng.normal(size=(4, 3)))
    const_m = Tensor(rng.normal(size=(5, 4)))
    row = Tensor(rng.normal(size=4))

    cases = [
        ("matmul", (5, 4), lambda x: frobenius_sq(matmul(x, const_b))),
        ("add_row", (5, 4), lambda x: frobenius_sq(add(x, row))),
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
    stacked tensor and pair_mix, each with respect to every differentiable
    input; pair_mix also at n = 2 and with a nonzero DAG diagonal."""
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

    def mix(targets, **override):
        args = dict(effects=effects, weight=weight, bias=bias, dag=dag)

        def f(t):
            args.update({k: t for k in override})
            return frobenius_sq(pair_mix(args["effects"], args["weight"], args["bias"], args["dag"], targets))

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
        ("pair_mix effects", (n, 2, d), mix(range(n), effects=1)),
        ("pair_mix weight", (n, n - 1, d, d), mix(range(n), weight=1)),
        ("pair_mix bias", (n, n - 1, d), mix(range(n), bias=1)),
        ("pair_mix dag", (n, n), mix(range(n), dag=1)),
        ("pair_mix one target", (n, 2, d), mix([1], effects=1)),
        ("pair_mix label", (n - 1, 2, d), mix([n - 1], effects=1)),
        ("pair_mix label weight", (n, n - 1, d, d), lambda t: frobenius_sq(
            pair_mix(take(effects, slice(0, n - 1)), t, bias, dag, [n - 1]))),
    ]
    for name, shape, f in cases:
        err = fdc(f, Tensor(rng.normal(size=shape)), eps=1e-5)
        assert err <= 1e-6, f"{name} gradient error {err}"

    # pair_mix at n = 2 (every target) and n = 5 (an inner target), on a DAG
    # whose diagonal is nonzero but must not be read, drawn from a generator
    # of their own so that the cases above keep their inputs. The squared sum
    # is quadratic in each input, so central differences carry no truncation
    # error and the wider step only shrinks their rounding (at 1e-5 the n = 5
    # weight case reads about 1e-6 on an element whose gradient is 1e-4).
    own = np.random.default_rng(31)
    for n, targets in ((2, [0, 1]), (5, [2])):
        args = [own.normal(size=s) for s in ((n, 2, d), (n, n - 1, d, d), (n, n - 1, d), (n, n))]
        np.fill_diagonal(args[3], 1.5)
        hollow = args[:3] + [args[3] * (1.0 - np.eye(n))]
        assert np.array_equal(pair_mix(*map(Tensor, args), targets).data,
                              pair_mix(*map(Tensor, hollow), targets).data)
        for slot, name in enumerate(("effects", "weight", "bias", "dag")):
            def f(t, slot=slot, args=args, targets=targets):
                parts = [Tensor(a) for a in args]
                parts[slot] = t
                return frobenius_sq(pair_mix(*parts, targets))

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

import numpy as np
import pytest

import oracles
from graphscm.errors import ConfigError, DimensionError
from graphscm.numcore import AdamW, Tape, Tensor
from graphscm.scm import ScmModel
from graphscm.train import TrainConfig, build_pipeline


def test_zero_gradient_zero_decay_leaves_parameter():
    p = Tensor(np.array([1.0, -2.0]))
    opt = AdamW([p])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_single_step_hand_computed():
    # g=1, lr=0.001, betas (0.9, 0.999), eps 1e-8, no decay:
    # m_hat = 1, v_hat = 1, p <- 1 - 0.001 * 1/(1 + 1e-8)
    p = Tensor(1.0)
    p.grad = np.asarray(1.0)
    opt = AdamW([p])
    opt.step()
    expected = 1.0 - 0.001 * (1.0 / (1.0 + 1e-8))
    assert float(p.data) == pytest.approx(expected, abs=1e-15)
    assert float(p.data) == pytest.approx(0.999, abs=1e-9)
    # a second g=1: m = 0.19 = bc1 and v = 0.001999 = bc2, so again
    # m_hat = v_hat = 1 and the step repeats
    opt.step()
    expected = 1.0 - 2 * 0.001 * (1.0 / (1.0 + 1e-8))
    assert float(p.data) == pytest.approx(expected, abs=1e-15)


def test_two_steps_decrease_convex_quadratic():
    p = Tensor(np.array([[3.0, -2.0]]))
    opt = AdamW([p], lr=0.05)

    def loss_value():
        return float((p.data ** 2).sum())

    before = loss_value()
    for _ in range(2):
        p.grad = None
        with Tape() as tape:
            loss = oracles.frobenius_sq(p)
        tape.backward(loss)
        opt.step()
    assert loss_value() < before


def test_decoupled_weight_decay_shrinks_even_without_gradient():
    p = Tensor(2.0)
    AdamW([p], weight_decay=0.1).step()  # no gradient at all
    assert float(p.data) == pytest.approx(2.0 - 0.001 * 0.1 * 2.0)


@pytest.mark.parametrize(
    "name, value",
    [("lr", v) for v in (0.0, -0.001, float("nan"), float("inf"))]
    + [(b, v) for b in ("beta1", "beta2") for v in (-0.1, 1.0, 1.5, float("nan"))]
    + [("eps", v) for v in (0.0, -1e-8, float("nan"), float("inf"))]
    + [("weight_decay", v) for v in (-0.1, float("nan"), float("inf"))],
)
def test_bad_hyperparameter_rejected(name, value):
    """lr and weight_decay are checked on entry; beta1, beta2 and eps are the
    fixed ``optim.BETA1``, ``BETA2`` and ``EPS``, so the constructor takes
    none of them."""
    fixed = name in ("beta1", "beta2", "eps")
    with pytest.raises(TypeError if fixed else ConfigError, match=name):
        AdamW([Tensor(1.0)], **{name: value})


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)))
    p.grad = np.zeros(3)
    with pytest.raises(DimensionError):
        AdamW([p]).step()


def test_step_counter_strictly_increases():
    p = Tensor(0.0)
    opt = AdamW([p])
    for expected in (1, 2, 3):
        p.grad = np.asarray(1.0)
        opt.step()
        assert opt.step_count == expected


def _oracle_params():
    rng = np.random.default_rng(11)
    # the old step's 32768-element chunk edges on both sides, a 0-d
    # parameter, a missing gradient (p5) and a parameter without decay (p6)
    shapes = [(32767,), (32768,), (32769,), (65541,), (), (3, 4), (7,)]
    return [Tensor(rng.normal(size=s), name=f"p{j}") for j, s in enumerate(shapes)]


def _run_against_oracle(got, want, steps):
    """``steps`` updates of ``got`` by ``AdamW.step`` and of ``want`` by the
    whole-array oracle, on equal gradients: the moments keep the oracle's
    bits and the parameters stay within 1e-12 * max(1, max|oracle|)."""
    opts = [AdamW(ps, lr=0.01, weight_decay=0.1, no_decay=["p6"]) for ps in (got, want)]
    rng = np.random.default_rng(12)
    for _ in range(steps):
        for a, b in zip(got, want):
            a.grad = b.grad = None if a.name == "p5" else rng.normal(size=a.shape)
        opts[0].step()
        oracles.adamw_step_whole(opts[1])
        for j in range(len(got)):
            assert oracles.close(got[j].data, want[j].data), got[j].name
            assert opts[0].m[j].tobytes() == opts[1].m[j].tobytes(), got[j].name
            assert opts[0].v[j].tobytes() == opts[1].v[j].tobytes(), got[j].name
    assert opts[0].step_count == opts[1].step_count == steps


def test_step_matches_bias_corrected_oracle():
    _run_against_oracle(_oracle_params(), _oracle_params(), 3)


def test_folded_step_matches_oracle_as_bias_corrections_fade():
    # bc1 and bc2 go from 0.1 and 0.001 to 1 and 0.865, so a wrong folded
    # step size or eps drifts out of the bound over the run
    _run_against_oracle(_oracle_params()[4:], _oracle_params()[4:], 2000)


def test_step_is_bit_identical_to_chunked_oracle():
    """The whole-array passes keep every bit of the cache-chunked step they
    replaced: parameters and both moments, fresh 0-d arrays included."""
    got, want = _oracle_params(), _oracle_params()
    opts = [AdamW(ps, lr=0.01, weight_decay=0.1, no_decay=["p6"]) for ps in (got, want)]
    rng = np.random.default_rng(14)
    for _ in range(5):
        for a, b in zip(got, want):
            a.grad = b.grad = None if a.name == "p5" else rng.normal(size=a.shape)
        opts[0].step()
        oracles.adamw_step_chunked(opts[1])
        for j, p in enumerate(got):
            for a, b in ((p.data, want[j].data), (opts[0].m[j], opts[1].m[j]), (opts[0].v[j], opts[1].v[j])):
                assert isinstance(a, np.ndarray) and a.shape == b.shape, p.name
                assert a.tobytes() == b.tobytes(), p.name


def test_step_writes_no_array_it_does_not_own(toy_graph):
    model = ScmModel(build_pipeline(toy_graph, TrainConfig(hidden_dim=4))[1], seed=0)
    given = np.arange(6.0).reshape(2, 3)
    extra = Tensor(given, name="extra")
    assert extra.data is given
    params = model.parameters() + [extra]
    snapshot = model.state_snapshot()
    before = {name: a.tobytes() for name, a in snapshot.items()}
    rng = np.random.default_rng(13)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    grads = [p.grad.tobytes() for p in params]
    opt = AdamW(params, lr=0.1, weight_decay=0.01)
    opt.step()
    held = opt.m + opt.v
    moments = [a.tobytes() for a in held]
    opt.step()
    assert given.tobytes() == np.arange(6.0).reshape(2, 3).tobytes()
    assert not np.array_equal(extra.data, given)
    assert {name: a.tobytes() for name, a in snapshot.items()} == before
    assert [p.grad.tobytes() for p in params] == grads
    assert [a.tobytes() for a in held] == moments

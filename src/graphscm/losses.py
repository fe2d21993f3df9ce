"""Training objectives: reconstruction, acyclicity, cross-entropy, joint."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .numcore import (
    Tensor,
    add,
    clamp_min,
    expm_trace,
    log,
    mul,
    scale,
    sq_error,
    square,
    sub,
    sum_all,
)

PROB_FLOOR = 1e-12  # cross-entropy clamp, far below float64 softmax resolution


@dataclass
class LossWeights:
    beta: float = 0.01   # reconstruction weight
    gamma: float = 10.0  # acyclicity weight
    rho: float = 1.0
    alpha: float = 1.0


def loss_rec(h: Tensor, h_hat: Tensor) -> Tensor:
    """Mean squared reconstruction error of stacked (variables, B, width)
    variables, averaged over samples and variables."""
    if h.ndim != 3 or h.shape != h_hat.shape:
        raise DimensionError(f"variables {h.shape} against reconstructions {h_hat.shape}")
    n_vars, batch = h.shape[:2]
    return sq_error(h, h_hat, 1.0 / (batch * n_vars))


def loss_acy(a: Tensor) -> Tensor:
    """(Tr(e^{A*A}) - d)^2: zero exactly when the support of A is acyclic."""
    d = a.shape[0]
    return square(sub(expm_trace(a), Tensor(float(d))))


def loss_dag(a: Tensor, w: LossWeights) -> Tensor:
    acy = loss_acy(a)
    return add(scale(square(acy), w.rho / 2.0), scale(acy, w.alpha))


def loss_inv(y: Tensor, y_hat: Tensor) -> Tensor:
    """Cross-entropy of predicted probabilities against one-hot targets."""
    if y.shape != y_hat.shape:
        raise DimensionError(f"targets {y.shape} against predictions {y_hat.shape}")
    batch = y.shape[0]
    picked = mul(y, log(clamp_min(y_hat, PROB_FLOOR)))
    return scale(sum_all(picked), -1.0 / batch)


def loss_joint(inv: Tensor, rec: Tensor, dag: Tensor, w: LossWeights) -> Tensor:
    return add(add(inv, scale(rec, w.beta)), scale(dag, w.gamma))

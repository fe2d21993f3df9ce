"""AdamW: Adam with decoupled weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionError
from .tensor import Tensor


class AdamW:
    """Per-parameter moment estimates and a shared step counter, reading
    gradients straight off the parameters. A missing gradient counts as zero."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        no_decay: Sequence[str] = (),
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        no_decay = set(no_decay)
        self.decay = [0.0 if p.name in no_decay else weight_decay for p in self.params]

    def step(self) -> None:
        """One in-place update of every parameter."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.decay[i] * p.data
            )

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

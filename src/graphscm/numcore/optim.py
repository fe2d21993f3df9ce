"""AdamW: Adam with decoupled weight decay (Loshchilov & Hutter 2019), its
bias corrections folded into the step size."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DimensionError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays and denominator floor


class AdamW:
    """Per-parameter moment estimates and a shared step counter, reading
    gradients straight off the parameters. A missing gradient counts as zero.
    The moment decays and eps are the fixed ``BETA1``, ``BETA2`` and ``EPS``.
    An ``lr`` or ``weight_decay`` outside its range raises ConfigError here,
    before any step can turn the parameters into NaN."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 0.001,
        weight_decay: float = 0.0,
        no_decay: Sequence[str] = (),
    ):
        for name, value, ok, rule in (
            ("lr", lr, 0 < lr < math.inf, "finite and positive"),
            ("weight_decay", weight_decay, 0 <= weight_decay < math.inf, "finite and nonnegative"),
        ):
            if not ok:  # NaN fails every comparison, so it lands here too
                raise ConfigError(f"AdamW {name} must be {rule}, got {value!r}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        no_decay = set(no_decay)
        self.decay = [0.0 if p.name in no_decay else weight_decay for p in self.params]

    def step(self) -> None:
        """One update of every parameter, the decoupled-decay form of Adam
        with its bias corrections bc1 = 1 - beta1^t and bc2 = 1 - beta2^t
        folded into the step size (Kingma & Ba 2015, section 2):

            m <- beta1 m + (1 - beta1) g,   v <- beta2 v + (1 - beta2) g g,
            p <- p (1 - lr decay) - lr_t m / (sqrt(v) + eps_t),
            lr_t = lr sqrt(bc2) / bc1,   eps_t = eps sqrt(bc2).

        In exact arithmetic this is p - lr (m / bc1 / (sqrt(v / bc2) + eps)
        + decay p). In float64 the moments keep that expression's bits, and
        the parameters agree with it to within 1e-12 relative to their
        largest entry, with one division per element instead of three.

        Each new moment and value is a fresh array, formed by whole-array
        passes. No array that a caller may hold (a parameter's data or
        gradient, or an earlier moment) is written."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETA1, BETA2
        root_bc2 = math.sqrt(1.0 - b2 ** t)
        lr_t = self.lr * root_bc2 / (1.0 - b1 ** t)
        eps_t = EPS * root_bc2
        for i, p in enumerate(self.params):
            g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            keep = 1.0 - self.lr * self.decay[i]
            # out= keeps a 0-d result an array, where an operator would return a scalar
            m = np.multiply(self.m[i], b1, out=np.empty(p.shape))
            m += g * (1.0 - b1)
            v = np.multiply(self.v[i], b2, out=np.empty(p.shape))
            v += g * g * (1.0 - b2)
            step = m / (np.sqrt(v) + eps_t)
            step *= lr_t
            new = np.multiply(p.data, keep, out=np.empty(p.shape))
            new -= step
            self.m[i], self.v[i] = m, v
            p.data = new

"""AdamW: Adam with decoupled weight decay (Loshchilov & Hutter 2019), its
bias corrections folded into the step size."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DimensionError
from .tensor import Tensor

_CHUNK = 32768  # elements per elementwise pass: 256 KB per float64 operand


class AdamW:
    """Per-parameter moment estimates and a shared step counter, reading
    gradients straight off the parameters. A missing gradient counts as zero.
    A hyperparameter outside its range raises ConfigError here, before any
    step can turn the parameters into NaN."""

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
        for name, value, ok, rule in (
            ("lr", lr, 0 < lr < math.inf, "finite and positive"),
            ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
            ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
            ("eps", eps, 0 < eps < math.inf, "finite and positive"),
            ("weight_decay", weight_decay, 0 <= weight_decay < math.inf, "finite and nonnegative"),
        ):
            if not ok:  # NaN fails every comparison, so it lands here too
                raise ConfigError(f"AdamW {name} must be {rule}, got {value!r}")
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
        self._x, self._y = np.empty(_CHUNK), np.empty(_CHUNK)  # per-chunk scratch

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

        Each new moment and value is a fresh array, written in chunks of
        ``_CHUNK`` elements so that every elementwise pass reads operands
        that are still in cache. No array that a caller may hold (a
        parameter's data or gradient, or an earlier moment) is written."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        root_bc2 = math.sqrt(1.0 - b2 ** t)
        lr_t = self.lr * root_bc2 / (1.0 - b1 ** t)
        eps_t = self.eps * root_bc2
        for i, p in enumerate(self.params):
            g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            keep = 1.0 - self.lr * self.decay[i]
            m, v, new = np.empty(p.shape), np.empty(p.shape), np.empty(p.shape)
            flat = [a.reshape(-1) for a in (g, self.m[i], self.v[i], p.data, m, v, new)]
            for lo in range(0, g.size, _CHUNK):
                gc, mc, vc, pc, mo, vo, po = (a[lo : lo + _CHUNK] for a in flat)
                x, y = self._x[: gc.size], self._y[: gc.size]
                np.multiply(mc, b1, out=mo)
                np.multiply(gc, 1.0 - b1, out=x)
                mo += x
                np.multiply(vc, b2, out=vo)
                np.multiply(gc, gc, out=x)
                x *= 1.0 - b2
                vo += x
                np.sqrt(vo, out=y)
                y += eps_t
                np.divide(mo, y, out=x)
                x *= lr_t
                np.multiply(pc, keep, out=po)
                po -= x
            self.m[i], self.v[i] = m, v
            p.data = new

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

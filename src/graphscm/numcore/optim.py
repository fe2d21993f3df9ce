"""AdamW: Adam with decoupled weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DimensionError
from .tensor import Tensor

_CHUNK = 32768  # elements per elementwise pass: 256 KB per float64 operand


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
        self._x, self._y = np.empty(_CHUNK), np.empty(_CHUNK)  # per-chunk scratch

    def step(self) -> None:
        """One update of every parameter. Each new moment and value is a fresh
        array, written in chunks of ``_CHUNK`` elements so that every
        elementwise pass reads operands that are still in cache; the
        per-element arithmetic is that of the whole-array expressions

            m <- beta1 m + (1 - beta1) g,   v <- beta2 v + (1 - beta2) g g,
            p <- p - lr (m / bc1 / (sqrt(v / bc2) + eps) + decay p).

        No array that a caller may hold (a parameter's data or gradient, or
        an earlier moment) is written."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i, p in enumerate(self.params):
            g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
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
                np.divide(mo, bc1, out=x)
                np.divide(vo, bc2, out=y)
                np.sqrt(y, out=y)
                y += self.eps
                x /= y
                np.multiply(pc, self.decay[i], out=y)
                x += y
                x *= self.lr
                np.subtract(pc, x, out=po)
            self.m[i], self.v[i] = m, v
            p.data = new

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

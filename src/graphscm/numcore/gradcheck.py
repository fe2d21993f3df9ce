"""Central-difference validation of tape gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import NumericError
from .tensor import Tape, Tensor


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the tape gradient of f at x and central differences.

    ``f`` must be a pure function of ``x`` (plus constants) returning a
    scalar tensor. The relative error denominator is
    max(|analytic|, |numeric|, 1e-8) per element.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x.grad = None
    try:
        with Tape() as tape:
            y = f(x)
        if not np.isfinite(y.data):
            raise NumericError("function value is not finite at the check point")
        tape.backward(y)
        analytic = x.grad if x.grad is not None else np.zeros(x.shape)

        numeric = np.zeros(x.data.shape)
        flat = x.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(x).data)
            flat[i] = orig - eps
            f_minus = float(f(x).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite function value while probing element {i}")
            num_flat[i] = (f_plus - f_minus) / (2.0 * eps)

        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        return float(rel.max()) if rel.size else 0.0
    finally:
        x.grad = None

"""Trace of the matrix exponential of A*A, with its analytic gradient.

``expm_trace(A)`` evaluates Tr(exp(A*A)) where ``*`` is the elementwise
product. The exponential is computed by scaling-and-squaring: B = A*A is
scaled by 2^-s until its 1-norm is at most 0.5, the exponential of the
scaled matrix is summed as a truncated Taylor series (18 terms, truncation
error below 1e-22 at that norm), and the result is squared s times.

The gradient is registered as an analytic rule rather than propagated
through the series:  d Tr(exp(A*A)) / dA = exp(A*A)^T * 2A.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError, NumericError
from .tensor import Tensor, _accumulate, _record

_TAYLOR_TERMS = 18
_NORM_BOUND = 0.5


def expm(b: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square numpy array (no gradient tracking)."""
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionError(f"expm needs a square matrix, got shape {b.shape}")
    norm = np.linalg.norm(b, 1)
    if not np.isfinite(norm):
        raise NumericError("expm called on a matrix with non-finite entries")
    s = 0
    if norm > _NORM_BOUND:
        s = int(np.ceil(np.log2(norm / _NORM_BOUND)))
    c = b / (2.0 ** s)
    n = b.shape[0]
    term = np.eye(n)
    acc = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _TAYLOR_TERMS + 1):
            term = term @ c / k
            acc = acc + term
        for _ in range(s):
            acc = acc @ acc
    return acc


def expm_trace(a: Tensor) -> Tensor:
    """Tr(exp(A*A)) as a 0-d tensor, differentiable w.r.t. A."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expm_trace needs a square matrix, got shape {a.shape}")
    e = expm(a.data * a.data)
    out = Tensor(np.trace(e))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * (e.T * (2.0 * a.data)))

    return _record(out, backward)

"""Affine layers and small perceptrons built on the tensor ops."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import tensor as T
from .tensor import Tensor


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear:
    """y = x @ W + b with weight shape (in_dim, out_dim); with no ``rng`` the
    weight starts at zero instead of a Kaiming draw."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None, name: str):
        weight = np.zeros((in_dim, out_dim)) if rng is None else kaiming_uniform(rng, in_dim, out_dim)
        self.weight = Tensor(weight, requires_grad=True, name=f"{name}.W")
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True, name=f"{name}.b")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.weight), self.bias)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class StackedMlp:
    """Independent perceptrons of one layout, one per slice of a leading axis.

    Each of the ``count`` networks maps ``width`` columns to ``width``
    through ``n_layers`` weight layers, every one ``width`` wide, with a
    ReLU between consecutive layers. Layer l of every network lives in
    one stacked weight ``{name}.{l}.W`` of shape (count, width, width) and
    bias ``{name}.{l}.b``. Initial weights are drawn network by network,
    layer by layer; with no ``rng`` every weight stays zero. A call is one
    ``numcore.stacked_mlp`` tape record for all its layers.
    """

    def __init__(
        self,
        count: int,
        width: int,
        n_layers: int,
        rng: np.random.Generator | None,
        name: str,
    ):
        if n_layers < 1:
            raise ConfigError("StackedMlp needs at least one layer")
        self.weights = [
            Tensor(np.zeros((count, width, width)), requires_grad=True, name=f"{name}.{l}.W")
            for l in range(n_layers)
        ]
        self.biases = [
            Tensor(np.zeros((count, width)), requires_grad=True, name=f"{name}.{l}.b")
            for l in range(n_layers)
        ]
        for j in range(count) if rng is not None else []:
            for w in self.weights:
                w.data[j] = kaiming_uniform(rng, width, width)

    def __call__(self, x: Tensor, rows: slice | None = None) -> Tensor:
        """Run stacked inputs (networks, B, width) through the networks
        ``rows`` (a slice; None for all), as one tape record."""
        return T.stacked_mlp(x, self.weights, self.biases, rows)

    def parameters(self) -> list[Tensor]:
        return [p for wb in zip(self.weights, self.biases) for p in wb]

"""Variable construction: ego, label, and metapath neighbor variables.

For a batch of target nodes this produces q+2 variable representations,
stacked along a leading axis: slot 0 the ego node, slots 1..q the metapath
neighbor pools, slot q+1 the label. Each variable has its own affine
encoder with no parameter sharing, so that no encoder can absorb
cross-variable correlations. The encoders share one weight tensor, their
weights one under another, and run as one ``block_affine`` on the raw
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .hetgraph import UNLABELED, HeteroGraph, MetaPath, pooled_neighbor_features
from .numcore import Tensor, block_affine, kaiming_uniform, mul

EGO_NAME = "EGO"
LABEL_NAME = "Y"


class Encoders:
    """Independent affine encoders, stacked: ``enc.W`` (sum of in_dims, H)
    and ``enc.b`` (slots, H), where slot j maps its ``in_dims[j]`` input
    columns to H through the rows ``rows(j)`` of ``enc.W``.

    The slots are the ego, every metapath pool and the label. Initial
    weights are drawn ego, label, then the metapaths; with no ``rng`` they
    stay zero.
    """

    def __init__(
        self,
        target_dim: int,
        num_classes: int,
        terminal_dims: Sequence[int],
        hidden_dim: int,
        rng: np.random.Generator | None,
    ):
        self.in_dims = [target_dim, *terminal_dims, num_classes]
        self.hidden_dim = hidden_dim
        n = len(self.in_dims)
        weight = np.zeros((sum(self.in_dims), hidden_dim))
        draw_order = [0, n - 1] + list(range(1, n - 1)) if rng is not None else []
        for j in draw_order:
            weight[self.rows(j)] = kaiming_uniform(rng, self.in_dims[j], hidden_dim)
        self.weight = Tensor(weight, requires_grad=True, name="enc.W")
        self.bias = Tensor(np.zeros((n, hidden_dim)), requires_grad=True, name="enc.b")
        # zeroes the label slot's bias, so that an unknown label encodes to zero
        self._unknown_label = np.ones((n, hidden_dim))
        self._unknown_label[-1] = 0.0

    def rows(self, j: int) -> slice:
        """The rows of ``enc.W`` that hold slot j's weights."""
        start = sum(self.in_dims[:j])
        return slice(start, start + self.in_dims[j])

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def __call__(self, ego: np.ndarray, pooled: Sequence[np.ndarray], labels: Optional[np.ndarray]) -> Tensor:
        """The (q + 2, B, H) variables of a batch from its raw inputs: ego
        features, one pooled matrix per metapath, and class indices (None
        when the labels are unknown; the label slot is then zero)."""
        num_classes = self.in_dims[-1]
        label = np.zeros((ego.shape[0], num_classes)) if labels is None else one_hot(labels, num_classes)
        inputs = [ego, *pooled, label]
        widths = [x.shape[1] for x in inputs]
        if widths != self.in_dims:
            raise DimensionError(f"encoder inputs have widths {widths}, encoders expect {self.in_dims}")
        bias = self.bias if labels is not None else mul(self.bias, Tensor(self._unknown_label))
        return block_affine(inputs, self.weight, bias)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError("label value out of range for one-hot encoding")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class VariableBatch:
    """The q+2 per-sample variable representations, stacked in fixed order."""

    values: Tensor              # (q + 2, B, H)
    names: list[str]            # ["EGO", metapath names..., "Y"]
    label_known: np.ndarray     # bool per sample

    def rows(self, index: slice) -> "VariableBatch":
        """The samples ``index`` of every variable, as a constant view."""
        return VariableBatch(Tensor(self.values.data[:, index]), self.names, self.label_known[index])


class VariableBuilder:
    """Caches pooled neighbor features and assembles variable batches.

    Pooling has no trainable parameters, so each (graph, metapath) table is
    computed once over all target nodes, and batches are plain row reads.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        metapaths: Sequence[MetaPath],
        multiset_neighbors: bool = False,
    ):
        self.graph = graph
        self.metapaths = list(metapaths)
        target = graph.schema.target_type
        for mp in self.metapaths:
            if mp.source_type != target:
                raise ContractError(f"metapath {mp.name} does not start at {target!r}")
        all_nodes = list(range(graph.num_nodes(target)))
        self.tables = {
            mp.name: pooled_neighbor_features(graph, all_nodes, mp, multiset=multiset_neighbors)
            for mp in self.metapaths
        }

    @property
    def variable_names(self) -> list[str]:
        return [EGO_NAME] + [mp.name for mp in self.metapaths] + [LABEL_NAME]

    def terminal_dims(self) -> list[int]:
        return [self.graph.feature_dim(mp.terminal_type) for mp in self.metapaths]

    def build(self, node_batch, params: Encoders, with_labels: bool) -> VariableBatch:
        nodes = np.asarray(node_batch, dtype=np.int64)
        target = self.graph.schema.target_type
        n_target = self.graph.num_nodes(target)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_target):
            raise ContractError("node batch contains an index outside the target type")

        labels = None
        if with_labels:
            labels = self.graph.labels[nodes]
            if np.any(labels == UNLABELED):
                raise ContractError("with_labels batch contains an unlabeled node")
        values = params(
            self.graph.features[target][nodes],
            [self.tables[mp.name][nodes] for mp in self.metapaths],
            labels,
        )
        return VariableBatch(values, self.variable_names, np.full(nodes.shape[0], with_labels))

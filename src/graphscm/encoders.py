"""Variable construction: ego, label, and metapath neighbor variables.

For a batch of target nodes this produces q+2 variable representations,
index 0 the ego node, indices 1..q the metapath neighbor pools, index q+1
the label. Each variable has its own affine encoder with no parameter
sharing, so that no encoder can absorb cross-variable correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError
from .hetgraph import UNLABELED, HeteroGraph, MetaPath, pooled_neighbor_features
from .numcore import Linear, Tensor

EGO_NAME = "EGO"
LABEL_NAME = "Y"


@dataclass
class EncoderParameters:
    """Independent encoders: one for the ego, one for the label, one per metapath.

    ``neighbor`` is None when pooled features are used at their native
    widths (no projection into the common space).
    """

    ego: Linear
    label: Linear
    neighbor: Optional[list[Linear]]

    def parameters(self) -> list[Tensor]:
        out = self.ego.parameters() + self.label.parameters()
        if self.neighbor is not None:
            for lin in self.neighbor:
                out += lin.parameters()
        return out


def init_encoders(
    target_dim: int,
    num_classes: int,
    terminal_dims: Sequence[int],
    hidden_dim: int,
    rng: np.random.Generator,
    native_dims: bool = False,
) -> EncoderParameters:
    ego = Linear(target_dim, hidden_dim, rng, "enc.ego")
    label = Linear(num_classes, hidden_dim, rng, "enc.label")
    neighbor = None
    if not native_dims:
        neighbor = [
            Linear(d, hidden_dim, rng, f"enc.neighbor.{j}") for j, d in enumerate(terminal_dims)
        ]
    return EncoderParameters(ego=ego, label=label, neighbor=neighbor)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError("label value out of range for one-hot encoding")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def encode_ego(features, params: EncoderParameters) -> Tensor:
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.shape[1] != params.ego.in_dim:
        raise DimensionError(
            f"ego features have width {x.shape[1]}, encoder expects {params.ego.in_dim}"
        )
    return params.ego(x)


def encode_label(onehot, params: EncoderParameters, label_known=None) -> Tensor:
    y = onehot if isinstance(onehot, Tensor) else Tensor(onehot)
    if label_known is not None and not np.all(label_known):
        raise ContractError("encode_label called on a sample whose label is not known")
    data = y.data
    is_binary = np.all((data == 0.0) | (data == 1.0))
    if not is_binary or not np.allclose(data.sum(axis=1), 1.0):
        raise ContractError("label rows must be one-hot")
    if y.shape[1] != params.label.in_dim:
        raise DimensionError(
            f"label width {y.shape[1]} does not match encoder input {params.label.in_dim}"
        )
    return params.label(y)


def encode_neighbor_variables(pooled: Sequence, params: EncoderParameters) -> list[Tensor]:
    """Project each metapath's pooled matrix through its own encoder.

    In native-dims mode the pooled features pass through unchanged.
    """
    tensors = [p if isinstance(p, Tensor) else Tensor(p) for p in pooled]
    if params.neighbor is None:
        return tensors
    if len(tensors) != len(params.neighbor):
        raise DimensionError(
            f"{len(tensors)} pooled matrices for {len(params.neighbor)} neighbor encoders"
        )
    return [params.neighbor[j](t) for j, t in enumerate(tensors)]


@dataclass
class VariableBatch:
    """The q+2 per-sample variable representations, in fixed order."""

    variables: list[Tensor]     # each (B, D_var)
    names: list[str]            # ["EGO", metapath names..., "Y"]
    label_known: np.ndarray     # bool per sample

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def batch_size(self) -> int:
        return self.variables[0].shape[0]

    @property
    def dims(self) -> list[int]:
        return [v.shape[1] for v in self.variables]

    def rows(self, index: slice) -> "VariableBatch":
        """The samples ``index`` of every variable, as constant views."""
        return VariableBatch(
            [Tensor(v.data[index]) for v in self.variables], self.names, self.label_known[index]
        )


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
        exclude_self: bool = False,
    ):
        self.graph = graph
        self.metapaths = list(metapaths)
        target = graph.schema.target_type
        for mp in self.metapaths:
            if mp.source_type != target:
                raise ContractError(f"metapath {mp.name} does not start at {target!r}")
        all_nodes = list(range(graph.num_nodes(target)))
        self.tables = {
            mp.name: pooled_neighbor_features(
                graph, all_nodes, mp, multiset=multiset_neighbors, exclude_self=exclude_self
            )
            for mp in self.metapaths
        }

    @property
    def variable_names(self) -> list[str]:
        return [EGO_NAME] + [mp.name for mp in self.metapaths] + [LABEL_NAME]

    def terminal_dims(self) -> list[int]:
        return [self.graph.feature_dim(mp.terminal_type) for mp in self.metapaths]

    def build(self, node_batch, params: EncoderParameters, with_labels: bool) -> VariableBatch:
        nodes = np.asarray(node_batch, dtype=np.int64)
        target = self.graph.schema.target_type
        n_target = self.graph.num_nodes(target)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_target):
            raise ContractError("node batch contains an index outside the target type")

        ego = encode_ego(self.graph.features[target][nodes], params)
        pooled = [self.tables[mp.name][nodes] for mp in self.metapaths]
        neigh = encode_neighbor_variables(pooled, params)

        if with_labels:
            labels = self.graph.labels[nodes]
            if np.any(labels == UNLABELED):
                raise ContractError("with_labels batch contains an unlabeled node")
            label_known = np.ones(nodes.shape[0], dtype=bool)
            label_var = encode_label(
                one_hot(labels, self.graph.schema.num_classes), params, label_known
            )
        else:
            label_known = np.zeros(nodes.shape[0], dtype=bool)
            label_var = Tensor(np.zeros((nodes.shape[0], params.label.out_dim)))

        return VariableBatch(
            variables=[ego] + neigh + [label_var],
            names=self.variable_names,
            label_known=label_known,
        )

"""Training and evaluation: joint-loss optimization with early stopping.

Each epoch shuffles the train indices (seeded), runs batched forward and
backward passes over the joint objective, applies one AdamW update per
batch, re-zeroes the DAG diagonal, and scores the validation split. The
parameters of the best validation epoch are restored at the end: best
means lowest validation cross-entropy, with higher Macro F1 breaking exact
ties. Cross-entropy keeps improving long after the F1 saturates on small
tasks, so it gives the snapshot selection a usable signal for the whole
run instead of freezing on the first F1 plateau.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .encoders import VariableBuilder, one_hot
from .errors import ConfigError, NumericError
from .hetgraph import UNLABELED, HeteroGraph, enumerate_metapaths
from .losses import LossWeights, loss_dag, loss_inv, loss_joint, loss_rec
from .numcore import ACTIVATIONS, AdamW, Tape, Tensor
from .rng import substream
from .scm import (
    ModelMeta,
    ScmModel,
    label_probabilities_from,
    predict_labels,
    reconstruct_all,
    zero_diagonal,
)
from .splits import SplitSpec

# Prediction encodes variables BUILD_BATCH rows at a time, then runs the SCM
# on EVAL_BATCH rows of them at a time: the stacked SCM holds (variables,
# rows, width) arrays, which stay in cache at 128 rows and do not at 4096.
# An encoded block is one such array; at 4096 rows (12.6 MB at 6 variables
# of width 64) freeing it raised glibc's dynamic mmap threshold, after which
# the heap kept freed memory, and the peak RSS of a train-and-predict run on
# 8000 authors rose by about 11 MB; at 2048 rows it stays at the training peak.
# A row's probabilities do not depend on the chunking while every chunk but
# the last holds a multiple of 4 rows (BLAS edge kernels round narrow outputs
# differently) and no chunk is a single row (a matrix-vector product), so
# EVAL_BATCH is a multiple of 4 and at least 8.
BUILD_BATCH = 2048
EVAL_BATCH = 128

ABLATIONS = ("full", "no_rec", "no_dag", "no_both")


@dataclass
class TrainConfig:
    hidden_dim: int = 64
    batch_size: int = 256
    learning_rate: float = 0.001
    weight_decay: float = 0.01
    patience: int = 50
    max_epochs: int = 500
    beta: float = 0.01
    gamma: float = 10.0
    rho: float = 1.0
    alpha: float = 1.0
    activation: str = "relu"
    max_metapath_len: int = 2
    seed: int = 0
    multiset_neighbors: bool = False

    def validate(self) -> None:
        for name in ("learning_rate", "weight_decay", "beta", "gamma", "rho", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("hidden_dim", "batch_size", "learning_rate", "max_epochs", "max_metapath_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be nonnegative")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if min(self.beta, self.gamma, self.rho, self.alpha) < 0:
            raise ConfigError("loss weights beta, gamma, rho and alpha must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    def loss_weights(self) -> LossWeights:
        return LossWeights(beta=self.beta, gamma=self.gamma, rho=self.rho, alpha=self.alpha)


def ablation_presets(name: str, beta: float, gamma: float) -> tuple[float, float]:
    """(beta, gamma) overrides for the named objective ablation."""
    if name == "full":
        return beta, gamma
    if name == "no_rec":
        return 0.0, gamma
    if name == "no_dag":
        return beta, 0.0
    if name == "no_both":
        return 0.0, 0.0
    raise ConfigError(f"unknown ablation {name!r}; expected one of {ABLATIONS}")


# ---------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    micro_f1: float
    per_class: list[dict]
    confusion: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "per_class": self.per_class,
            "confusion": self.confusion,
        }


def compute_metrics(truth, pred, num_classes: int) -> Metrics:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape:
        raise ConfigError("truth and prediction lengths differ")
    if truth.size and (min(truth.min(), pred.min()) < 0 or max(truth.max(), pred.max()) >= num_classes):
        raise ConfigError(f"class indices must lie in [0, {num_classes})")
    cells = np.bincount(truth * num_classes + pred, minlength=num_classes * num_classes)
    confusion = cells.reshape(num_classes, num_classes)
    per_class = []
    f1s = []
    for c in range(num_classes):
        tp = confusion[c, c]
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        precision = float(tp / col) if col else 0.0
        recall = float(tp / row) if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            {"class": c, "precision": precision, "recall": recall, "f1": f1, "support": int(row)}
        )
        f1s.append(f1)
    accuracy = float(np.trace(confusion) / confusion.sum()) if confusion.sum() else 0.0
    return Metrics(
        accuracy=accuracy,
        macro_f1=float(np.mean(f1s)),
        micro_f1=accuracy,  # identical for single-label multi-class
        per_class=per_class,
        confusion=confusion.tolist(),
    )


# ---------------------------------------------------------------------------
# model construction and evaluation

def _variable_builder(graph: HeteroGraph, settings: TrainConfig | ModelMeta) -> VariableBuilder:
    """The pooled-feature pipeline of a training config or a checkpoint's
    meta, which name their metapath and pooling settings alike."""
    metapaths = enumerate_metapaths(graph.schema, graph.schema.target_type, settings.max_metapath_len)
    return VariableBuilder(graph, metapaths, multiset_neighbors=settings.multiset_neighbors)


def build_pipeline(graph: HeteroGraph, config: TrainConfig) -> tuple[VariableBuilder, ModelMeta]:
    builder = _variable_builder(graph, config)
    meta = ModelMeta(
        variable_names=builder.variable_names,
        num_classes=graph.schema.num_classes,
        hidden_dim=config.hidden_dim,
        activation=config.activation,
        max_metapath_len=config.max_metapath_len,
        multiset_neighbors=config.multiset_neighbors,
        target_type=graph.schema.target_type,
        target_dim=graph.feature_dim(graph.schema.target_type),
        terminal_dims=builder.terminal_dims(),
    )
    return builder, meta


def builder_for_model(graph: HeteroGraph, model: ScmModel) -> VariableBuilder:
    """Rebuild the pooled-feature pipeline a checkpoint was trained with."""
    meta = model.meta
    if graph.schema.target_type != meta.target_type:
        raise ConfigError(
            f"checkpoint was trained for target {meta.target_type!r}, "
            f"dataset targets {graph.schema.target_type!r}"
        )
    builder = _variable_builder(graph, meta)
    if builder.variable_names != meta.variable_names:
        raise ConfigError(
            f"dataset variables {builder.variable_names} do not match "
            f"checkpoint variables {meta.variable_names}"
        )
    if builder.terminal_dims() != meta.terminal_dims:
        raise ConfigError("dataset feature widths do not match the checkpoint")
    if graph.feature_dim(meta.target_type) != meta.target_dim:
        raise ConfigError("target feature width does not match the checkpoint")
    if graph.schema.num_classes != meta.num_classes:
        raise ConfigError("class count does not match the checkpoint")
    return builder


def _chunk_bounds(rows: int) -> list[int]:
    """Boundaries of the SCM chunks of ``rows`` prediction rows: EVAL_BATCH
    rows each but the last; a lone last row takes 4 rows from the chunk
    before it."""
    bounds = list(range(0, rows, EVAL_BATCH)) + [rows]
    if len(bounds) > 2 and rows % EVAL_BATCH == 1:
        bounds[-2] -= 4
    return bounds


def _predict_probabilities(model: ScmModel, builder: VariableBuilder, indices) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    bounds = _chunk_bounds(indices.size)
    per_build = max(1, BUILD_BATCH // EVAL_BATCH)
    chunks = []
    for first in range(0, len(bounds) - 1, per_build):
        block = bounds[first : first + per_build + 1]
        vars = builder.build(indices[block[0] : block[-1]], model.encoders, with_labels=False)
        for lo, hi in zip(block, block[1:]):
            part = vars.rows(slice(lo - block[0], hi - block[0]))
            chunks.append(predict_labels(part, model.scm).data)
    return np.vstack(chunks) if chunks else np.zeros((0, model.meta.num_classes))


def evaluate(
    graph: HeteroGraph, model: ScmModel, node_indices, builder: VariableBuilder | None = None
) -> Metrics:
    """Score predictions on labeled nodes; labels are read only for scoring."""
    indices = np.asarray(node_indices, dtype=np.int64)
    labels = graph.labels[indices]
    if np.any(labels == UNLABELED):
        raise ConfigError("evaluate needs labeled nodes")
    if builder is None:
        builder = builder_for_model(graph, model)
    probs = _predict_probabilities(model, builder, indices)
    pred = probs.argmax(axis=1)
    return compute_metrics(labels, pred, graph.schema.num_classes)


def _mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.clip(probs[np.arange(labels.size), labels], 1e-12, None)
    return float(-np.mean(np.log(picked)))


# ---------------------------------------------------------------------------
# the training loop

@dataclass
class EpochStats:
    epoch: int
    l_inv: float
    l_rec: float
    l_dag: float
    val_macro_f1: float
    val_acc: float

    def as_row(self) -> dict:
        return {
            "epoch": self.epoch,
            "l_inv": self.l_inv,
            "l_rec": self.l_rec,
            "l_dag": self.l_dag,
            "val_macro_f1": self.val_macro_f1,
            "val_acc": self.val_acc,
        }


@dataclass
class TrainResult:
    model: ScmModel
    builder: VariableBuilder    # the pooled tables training used, for scoring without re-pooling
    history: list[EpochStats]
    best_epoch: int
    best_val_macro_f1: float
    epochs_run: int = field(init=False)

    def __post_init__(self):
        self.epochs_run = len(self.history)


def train(graph: HeteroGraph, splits: SplitSpec, config: TrainConfig) -> TrainResult:
    config.validate()
    splits.validate_against(graph)
    builder, meta = build_pipeline(graph, config)
    model = ScmModel(meta, seed=config.seed)
    zero_diagonal(model.scm.dag)
    # decoupled decay regularizes every network weight but not the DAG
    # matrix itself, so pathway scale settles into A where trimming reads it
    optimizer = AdamW(
        model.parameters(),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
        no_decay=("dag.A",),
    )
    shuffle_rng = substream(config.seed, "shuffle")
    weights = config.loss_weights()

    train_idx = np.asarray(splits.train, dtype=np.int64)
    val_idx = np.asarray(splits.val, dtype=np.int64)
    val_labels = graph.labels[val_idx]

    best_snapshot = model.state_snapshot()
    best_macro = -1.0
    best_val_inv = float("inf")
    best_epoch = 0
    since_best = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        sums = {"inv": 0.0, "rec": 0.0, "dag": 0.0}
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grad()
            with Tape() as tape:
                vars = builder.build(batch, model.encoders, with_labels=True)
                recon = reconstruct_all(vars, model.scm)
                l_rec = loss_rec(vars.values, recon)
                l_dag = loss_dag(model.scm.dag, weights)
                probs = label_probabilities_from(recon, model.scm)
                targets = Tensor(one_hot(graph.labels[batch], meta.num_classes))
                l_inv = loss_inv(targets, probs)
                joint = loss_joint(l_inv, l_rec, l_dag, weights)
            if not np.isfinite(joint.data):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            tape.backward(joint)
            optimizer.step()
            zero_diagonal(model.scm.dag)
            sums["inv"] += l_inv.item() * batch.size
            sums["rec"] += l_rec.item() * batch.size
            sums["dag"] += l_dag.item() * batch.size

        val_probs = _predict_probabilities(model, builder, val_idx)
        val_metrics = compute_metrics(val_labels, val_probs.argmax(axis=1), meta.num_classes)
        val_inv = _mean_cross_entropy(val_probs, val_labels)
        history.append(
            EpochStats(
                epoch=epoch,
                l_inv=sums["inv"] / order.size,
                l_rec=sums["rec"] / order.size,
                l_dag=sums["dag"] / order.size,
                val_macro_f1=val_metrics.macro_f1,
                val_acc=val_metrics.accuracy,
            )
        )

        improved = val_inv < best_val_inv or (
            val_inv == best_val_inv and val_metrics.macro_f1 > best_macro
        )
        if improved:
            best_macro = val_metrics.macro_f1
            best_val_inv = val_inv
            best_epoch = epoch
            best_snapshot = model.state_snapshot()
            since_best = 0
        else:
            since_best += 1
        if since_best >= config.patience:
            break

    model.load_snapshot(best_snapshot)
    return TrainResult(
        model=model, builder=builder, history=history, best_epoch=best_epoch,
        best_val_macro_f1=best_macro,
    )


HISTORY_FIELDS = ["epoch", "l_inv", "l_rec", "l_dag", "val_macro_f1", "val_acc"]


def write_history_csv(history: list[EpochStats], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for stats in history:
            row = stats.as_row()
            writer.writerow(
                {k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            )

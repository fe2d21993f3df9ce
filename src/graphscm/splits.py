"""Data splits: shuffled i.i.d ratios and bias-clustered o.o.d constructions.

The o.o.d recipe: compute a per-node bias feature table (label homophily
over round-trip metapaths, log-degree per relation, or principal-component
scores of the raw features), standardize the columns, 2-means the labeled
nodes, split the larger cluster 60/40 into train/validation, and take the
smaller cluster wholesale as the test set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, LoadError, NumericError, is_json_int, read_json
from .hetgraph import UNLABELED, HeteroGraph, MetaPath, enumerate_metapaths, metapath_reach
from .rng import substream

IID_TRAIN_FRACTION = 0.24
IID_VAL_FRACTION = 0.06
OOD_TRAIN_FRACTION = 0.6

BIAS_KINDS = ("homophily", "degree", "feature")
OOD_PCA_COMPONENTS = 128  # the feature bias clusters on at most this many principal components
REPORT_PCA_COMPONENTS = 5  # distribution summaries show only the top components
KMEANS_MAX_ITER = 300  # Lloyd iterations before k-means stops, converged or not


@dataclass
class SplitSpec:
    """Disjoint train/val/test indices over labeled target nodes."""

    train: list[int]
    val: list[int]
    test: list[int]
    provenance: str = "iid"
    seed: int = 0

    def __post_init__(self):
        if not all(len(p) for p in (self.train, self.val, self.test)):
            raise ConfigError("every split partition must be nonempty")
        seen = set()
        for i in [*self.train, *self.val, *self.test]:
            if i in seen:
                raise ConfigError(f"node {i} is listed twice: split partitions must be disjoint, each node once")
            seen.add(i)

    def validate_against(self, graph: HeteroGraph) -> None:
        labeled = set(int(i) for i in graph.labeled_nodes())
        for name, part in (("train", self.train), ("val", self.val), ("test", self.test)):
            bad = [i for i in part if i not in labeled]
            if bad:
                raise ConfigError(f"{name} split contains unlabeled or unknown nodes: {bad[:5]}")

    def to_json(self, path: str) -> None:
        payload = {
            "train": [int(i) for i in self.train],
            "val": [int(i) for i in self.val],
            "test": [int(i) for i in self.test],
            "provenance": self.provenance,
            "seed": self.seed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "SplitSpec":
        """Read a split file; any malformed content raises LoadError naming ``path``."""
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise LoadError(f"{path}: expected a JSON object, got {type(raw).__name__}")
        parts = {}
        for name in ("train", "val", "test"):
            if name not in raw:
                raise LoadError(f"{path}: missing split key {name!r}")
            ids = raw[name]
            if not isinstance(ids, list) or not all(is_json_int(i) for i in ids):
                raise LoadError(f"{path}: split {name!r} must be a list of integer node ids")
            parts[name] = ids
        seed = raw.get("seed", 0)
        if not is_json_int(seed):
            raise LoadError(f"{path}: split seed must be an integer")
        try:
            return cls(**parts, provenance=raw.get("provenance", "iid"), seed=seed)
        except ConfigError as exc:
            raise LoadError(f"{path}: {exc}") from exc


@dataclass
class BiasFeatureTable:
    """Per-labeled-node clustering features with column names."""

    nodes: list[int]
    columns: list[str]
    values: np.ndarray  # (len(nodes), len(columns))

    def __post_init__(self):
        if self.values.shape != (len(self.nodes), len(self.columns)):
            raise ContractError("bias table shape does not match node/column lists")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("bias features must be finite")


def _steal_one_for(part: list[int], parts: list[list[int]]) -> None:
    donor = max(parts, key=len)
    part.append(donor.pop())


def iid_split(labeled, seed: int) -> SplitSpec:
    """Seeded shuffle, then a 24/6/70 partition (floor, remainder to test)."""
    labeled = [int(i) for i in labeled]
    if len(labeled) < 10:
        raise ConfigError(f"need at least 10 labeled nodes, got {len(labeled)}")
    rng = substream(seed, "iid-split")
    order = [labeled[i] for i in rng.permutation(len(labeled))]
    n = len(order)
    n_train = math.floor(IID_TRAIN_FRACTION * n)
    n_val = math.floor(IID_VAL_FRACTION * n)
    train = order[:n_train]
    val = order[n_train : n_train + n_val]
    test = order[n_train + n_val :]
    for part in (train, val, test):
        if not part:
            _steal_one_for(part, [p for p in (train, val, test) if len(p) > 1])
    return SplitSpec(train=train, val=val, test=test, provenance="iid", seed=seed)


# ---------------------------------------------------------------------------
# bias feature tables

def roundtrip_metapaths(graph: HeteroGraph, max_len: int = 2) -> list[MetaPath]:
    target = graph.schema.target_type
    return [
        mp
        for mp in enumerate_metapaths(graph.schema, target, max_len)
        if mp.terminal_type == target
    ]


def homophily_features(graph: HeteroGraph, max_len: int = 2) -> BiasFeatureTable:
    """Fraction of labeled round-trip neighbors sharing the node's label.

    The node itself is excluded from its neighbor pool; nodes with no
    labeled neighbors on a metapath are imputed with that column's mean.
    """
    metapaths = roundtrip_metapaths(graph, max_len)
    if not metapaths:
        raise ContractError("schema admits no round-trip metapath for homophily")
    nodes = graph.labeled_nodes()
    labels = graph.labels
    values = np.zeros((len(nodes), len(metapaths)))
    for j, mp in enumerate(metapaths):
        known = np.zeros(len(nodes), dtype=np.int64)
        agree = np.zeros(len(nodes), dtype=np.int64)
        for lo, hi, rows, indices, _ in metapath_reach(graph, nodes, mp, exclude_self=True):
            lab = labels[indices]
            has = lab != UNLABELED
            known[lo:hi] = np.bincount(rows[has], minlength=hi - lo)
            same = has & (lab == labels[nodes[lo + rows]])
            agree[lo:hi] = np.bincount(rows[same], minlength=hi - lo)
        present = known > 0
        values[present, j] = agree[present] / known[present]
        values[~present, j] = float(values[present, j].mean()) if present.any() else 0.0
    return BiasFeatureTable(
        nodes=[int(i) for i in nodes], columns=[mp.name for mp in metapaths], values=values
    )


def degree_features(graph: HeteroGraph, log_transform: bool = True) -> BiasFeatureTable:
    """log(1 + degree) of each labeled target node under each outgoing relation.

    Every relation has an inverse, so relations whose source is the target
    type cover in-edges as well. Columns are named like length-1 metapaths.
    """
    metapaths = enumerate_metapaths(graph.schema, graph.schema.target_type, 1)
    nodes = [int(i) for i in graph.labeled_nodes()]
    values = np.zeros((len(nodes), len(metapaths)))
    for j, mp in enumerate(metapaths):
        degrees = np.diff(graph.csr[mp.relations[0]].indptr)[nodes]
        values[:, j] = [math.log1p(d) for d in degrees] if log_transform else degrees
    return BiasFeatureTable(nodes=nodes, columns=[mp.name for mp in metapaths], values=values)


def pca_components(x: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(projections, components, eigenvalues) of the centered data.

    Components are eigenvectors of the sample covariance, ordered by
    descending eigenvalue, sign-fixed so the largest-magnitude loading is
    positive. Zero-variance input columns are dropped before the
    decomposition. At most min(n_components, rank) components are kept.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ContractError("PCA needs at least two rows")
    centered = x - x.mean(axis=0)
    keep = centered.std(axis=0) > 0.0
    centered = centered[:, keep]
    if centered.shape[1] == 0:
        raise ContractError("all features have zero variance")
    cov = (centered.T @ centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    tol = max(eigvals[0], 0.0) * 1e-12
    rank = int(np.sum(eigvals > tol))
    k = min(n_components, rank) if rank else 1
    eigvals = eigvals[:k]
    eigvecs = eigvecs[:, :k]
    for j in range(k):
        pivot = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[pivot, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    return centered @ eigvecs, eigvecs, eigvals


def feature_pca_features(graph: HeteroGraph, n_components: int) -> BiasFeatureTable:
    """Principal-component scores of the labeled target nodes' raw features."""
    nodes = [int(i) for i in graph.labeled_nodes()]
    feats = graph.features[graph.schema.target_type][nodes]
    projections, _, _ = pca_components(feats, n_components)
    columns = [f"PC{j + 1}" for j in range(projections.shape[1])]
    return BiasFeatureTable(nodes=nodes, columns=columns, values=projections)


def bias_features(graph: HeteroGraph, kind: str, max_len: int = 2) -> BiasFeatureTable:
    if kind == "homophily":
        return homophily_features(graph, max_len=max_len)
    if kind == "degree":
        return degree_features(graph)
    if kind == "feature":
        return feature_pca_features(graph, n_components=OOD_PCA_COMPONENTS)
    raise ConfigError(f"unknown bias kind {kind!r}; expected one of {BIAS_KINDS}")


# ---------------------------------------------------------------------------
# 2-means clustering

def _standardize(values: np.ndarray) -> np.ndarray:
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    keep = std > 0.0
    if not keep.any():
        raise ConfigError("all clustering features are constant")
    return (values[:, keep] - mean[keep]) / std[keep]


def kmeans2(table: BiasFeatureTable, seed: int) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm with k-means++ seeding on standardized columns.

    Returns (assignment in {0,1} aligned to table.nodes, final inertia).
    """
    x = _standardize(table.values)
    n = x.shape[0]
    if np.unique(x, axis=0).shape[0] < 2:
        raise ConfigError("k-means needs at least two distinct rows")
    rng = substream(seed, "kmeans")

    # k-means++: first center uniform, second proportional to squared distance
    first = int(rng.integers(n))
    d2 = ((x - x[first]) ** 2).sum(axis=1)
    probs = d2 / d2.sum()
    second = int(rng.choice(n, p=probs))
    centers = np.stack([x[first], x[second]])

    assign: np.ndarray | None = None
    inertia = math.inf
    reseeded = False
    for _iteration in range(KMEANS_MAX_ITER):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dists, axis=1)
        new_inertia = float(dists[np.arange(n), new_assign].sum())
        if not reseeded and new_inertia > inertia + 1e-9:
            # Lloyd's iterations never raise the inertia; rounding did
            raise NumericError(f"k-means inertia increased from {inertia!r} to {new_inertia!r}")
        if assign is not None and np.array_equal(new_assign, assign):
            inertia = new_inertia
            break
        assign, inertia = new_assign, new_inertia
        reseeded = False
        for c in (0, 1):
            members = x[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
            else:
                # re-seed an empty cluster with the point farthest from its center
                far = int(np.argmax(dists[np.arange(n), assign]))
                centers[c] = x[far]
                reseeded = True
    return assign, inertia


# ---------------------------------------------------------------------------
# o.o.d split

def ood_split(graph: HeteroGraph, bias: str, seed: int, max_len: int = 2) -> SplitSpec:
    """Cluster labeled nodes by the bias features; the larger cluster is
    split 60/40 into train/val, the smaller becomes the test set."""
    labeled = graph.labeled_nodes()
    if labeled.size < 10:
        raise ConfigError(f"need at least 10 labeled nodes, got {labeled.size}")
    table = bias_features(graph, bias, max_len=max_len)
    assign, _ = kmeans2(table, seed)
    nodes = np.asarray(table.nodes)
    cluster0 = nodes[assign == 0]
    cluster1 = nodes[assign == 1]
    if len(cluster0) == len(cluster1):
        big, small = (cluster0, cluster1) if cluster0.min() < cluster1.min() else (cluster1, cluster0)
    elif len(cluster0) > len(cluster1):
        big, small = cluster0, cluster1
    else:
        big, small = cluster1, cluster0
    rng = substream(seed, "ood-split")
    order = big[rng.permutation(len(big))]
    n_train = math.floor(OOD_TRAIN_FRACTION * len(order))
    train = [int(i) for i in order[:n_train]]
    val = [int(i) for i in order[n_train:]]
    test = [int(i) for i in sorted(small)]
    for part in (train, val):
        if not part:
            _steal_one_for(part, [p for p in (train, val) if len(p) > 1])
    return SplitSpec(train=train, val=val, test=test, provenance=bias, seed=seed)


# ---------------------------------------------------------------------------
# distribution report

def split_report(graph: HeteroGraph, spec: SplitSpec, max_len: int = 2) -> list[dict]:
    """Per bias feature: mean over all labeled nodes and over each partition."""
    spec.validate_against(graph)
    tables = [
        ("homophily", homophily_features(graph, max_len=max_len)),
        ("degree", degree_features(graph)),
        ("feature", feature_pca_features(graph, n_components=REPORT_PCA_COMPONENTS)),
    ]
    rows = []
    for kind, table in tables:
        pos = {node: i for i, node in enumerate(table.nodes)}
        for j, column in enumerate(table.columns):
            row = {"bias": kind, "feature": column}
            row["mean_all"] = float(table.values[:, j].mean())
            for name, part in (("train", spec.train), ("val", spec.val), ("test", spec.test)):
                idx = [pos[n] for n in part]
                row[f"mean_{name}"] = float(table.values[idx, j].mean())
            rows.append(row)
    return rows


def write_report_csv(rows: list[dict], path: str) -> None:
    fields = ["bias", "feature", "mean_all", "mean_train", "mean_val", "mean_test"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})

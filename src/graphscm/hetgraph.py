"""Typed graph storage, meta-path enumeration, and neighbor-set pooling.

A dataset lives in a directory of UTF-8 text files:

    schema.json          node types, relations (with inverses), target type,
                         class count
    nodes-<type>.tsv     one node per line: dense 0-based id, then features
    edges-<relation>.tsv "src_id<TAB>dst_id" per line
    labels.tsv           "node_id<TAB>class_index"; absent ids are unlabeled
    splits.json          optional {"train": [...], "val": [...], "test": [...]}

If an inverse relation has no edge file on disk, its edges are synthesized
by reversing the forward relation's; when both files exist, each must be
the other's reversal. Feature values must be finite. In memory each
relation is also held as CSR (``HeteroGraph.csr``), which the metapath
operator ``metapath_reach`` walks.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, LoadError, is_json_int, not_utf8, read_json

UNLABELED = -1
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Relation:
    name: str
    src: str
    dst: str
    inverse: str


@dataclass
class Schema:
    """Type-level graph: node types plus directed relations with inverses."""

    node_types: list[str]
    relations: list[Relation]
    target_type: str
    num_classes: int

    def __post_init__(self):
        if len(set(self.node_types)) != len(self.node_types):
            raise LoadError("duplicate node type names in schema")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise LoadError("duplicate relation names in schema")
        by_name = {r.name: r for r in self.relations}
        for r in self.relations:
            if r.src not in self.node_types or r.dst not in self.node_types:
                raise LoadError(f"relation {r.name!r} references unknown node type")
            inv = by_name.get(r.inverse)
            if inv is None:
                raise LoadError(f"relation {r.name!r} names missing inverse {r.inverse!r}")
            if inv.inverse != r.name or inv.src != r.dst or inv.dst != r.src:
                raise LoadError(f"relations {r.name!r} and {r.inverse!r} are not mutual inverses")
        if self.target_type not in self.node_types:
            raise LoadError(f"target type {self.target_type!r} not among node types")
        if self.num_classes < 2:
            raise LoadError("num_classes must be at least 2")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    def relations_from(self, node_type: str) -> list[Relation]:
        return [r for r in self.relations if r.src == node_type]


@dataclass(frozen=True)
class MetaPath:
    """A composable relation sequence starting at the target node type."""

    relations: tuple[str, ...]
    source_type: str
    terminal_type: str
    name: str

    def __len__(self) -> int:
        return len(self.relations)


def _type_initial(node_type: str) -> str:
    return node_type[0].upper()


def metapath_name(schema: Schema, relations: list[Relation]) -> str:
    """Node-type-initial naming, with a lowercase relation initial inserted
    for relations whose endpoints share a type (the PcP / PrP convention)."""
    parts = [_type_initial(relations[0].src)]
    for r in relations:
        if r.src == r.dst:
            parts.append(r.name[0].lower())
        parts.append(_type_initial(r.dst))
    return "".join(parts)


def enumerate_metapaths(schema: Schema, target_type: str, max_len: int) -> list[MetaPath]:
    """All composable relation sequences of length 1..max_len from target_type.

    Breadth-first over length; within a frontier, paths are extended by
    relations in schema declaration order, which makes the output
    deterministic.
    """
    if target_type not in schema.node_types:
        raise ContractError(f"unknown target type {target_type!r}")
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    out: list[MetaPath] = []
    frontier: list[list[Relation]] = [[]]
    for _ in range(max_len):
        next_frontier: list[list[Relation]] = []
        for path in frontier:
            tip = path[-1].dst if path else target_type
            for r in schema.relations_from(tip):
                extended = path + [r]
                out.append(
                    MetaPath(
                        relations=tuple(x.name for x in extended),
                        source_type=target_type,
                        terminal_type=r.dst,
                        name=metapath_name(schema, extended),
                    )
                )
                next_frontier.append(extended)
        frontier = next_frontier
    return out


class Csr(NamedTuple):
    """One relation in compressed sparse rows: source ``s`` links to
    ``indices[indptr[s]:indptr[s + 1]]``, in edge-file order."""

    indptr: np.ndarray
    indices: np.ndarray


@dataclass
class HeteroGraph:
    """Immutable-after-load typed graph with per-type dense features."""

    schema: Schema
    features: dict[str, np.ndarray]            # type -> (n_type, D_type) float64
    edges: dict[str, np.ndarray]               # relation -> (m, 2) int64
    labels: np.ndarray                         # over target type; UNLABELED sentinel
    csr: dict[str, Csr] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for t in self.schema.node_types:
            if t not in self.features:
                raise LoadError(f"missing feature matrix for node type {t!r}")
        for r in self.schema.relations:
            e = self.edges.get(r.name)
            if e is None:
                raise LoadError(f"missing edge list for relation {r.name!r}")
            n_src = self.num_nodes(r.src)
            n_dst = self.num_nodes(r.dst)
            if e.size and (e[:, 0].min() < 0 or e[:, 0].max() >= n_src):
                raise LoadError(f"relation {r.name!r} has a source index out of range")
            if e.size and (e[:, 1].min() < 0 or e[:, 1].max() >= n_dst):
                raise LoadError(f"relation {r.name!r} has a destination index out of range")
        n_target = self.num_nodes(self.schema.target_type)
        if self.labels.shape != (n_target,):
            raise LoadError("label vector length does not match target node count")
        valid = (self.labels == UNLABELED) | (
            (self.labels >= 0) & (self.labels < self.schema.num_classes)
        )
        if not valid.all():
            raise LoadError("label values must lie in [0, num_classes) or be unlabeled")
        self.csr = {}
        for r in self.schema.relations:
            e = np.asarray(self.edges[r.name], dtype=np.int64).reshape(-1, 2)
            indptr = np.zeros(self.num_nodes(r.src) + 1, dtype=np.int64)
            np.cumsum(np.bincount(e[:, 0], minlength=self.num_nodes(r.src)), out=indptr[1:])
            self.csr[r.name] = Csr(indptr, e[np.argsort(e[:, 0], kind="stable"), 1])

    def num_nodes(self, node_type: str) -> int:
        return self.features[node_type].shape[0]

    @property
    def total_nodes(self) -> int:
        return sum(self.num_nodes(t) for t in self.schema.node_types)

    @property
    def total_edges(self) -> int:
        return sum(e.shape[0] for e in self.edges.values())

    def feature_dim(self, node_type: str) -> int:
        return self.features[node_type].shape[1]

    def labeled_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)

    def degree(self, relation: str, node: int) -> int:
        indptr = self.csr[relation].indptr
        return int(indptr[node + 1] - indptr[node])


# Work bound of one metapath hop: (row, node) pairs expanded or dense cells
# held at once. Query rows are split into groups that stay under it. It also
# bounds the dense pooling route's frontier and each of its product tiles.
REACH_BLOCK = 1 << 19


def metapath_reach(graph: HeteroGraph, nodes, metapath: MetaPath, exclude_self: bool = False):
    """Path counts from each query node to the terminal nodes of a metapath.

    Yields blocks ``(lo, hi, rows, indices, counts)`` that cover the query
    rows ``lo:hi`` of ``nodes`` in order. Query row ``lo + rows[k]`` reaches
    terminal node ``indices[k]`` along ``counts[k]`` distinct paths; pairs are
    sorted by row, then by index. Set semantics reads ``indices`` alone.
    ``exclude_self`` drops the query node itself from the terminals of a
    metapath that ends at its own type (APA, say); a terminal of another type
    is never the query node, whatever its id.

    Each hop expands the frontier through the relation's CSR and merges
    repeated (row, node) pairs: into a dense count block when the rows at
    hand times the destination type's size fit in REACH_BLOCK cells (the
    40 terms of APT, say), by sorting otherwise. Counts travel as float64
    through the dense merge, so they are exact below 2**53.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    for lo, hi, rows, indices, counts in _reach_blocks(graph, nodes, metapath.relations):
        if exclude_self and metapath.terminal_type == metapath.source_type:
            keep = indices != nodes[lo + rows]
            rows, indices, counts = rows[keep], indices[keep], counts[keep]
        yield lo, hi, rows, indices, counts


def _reach_blocks(graph: HeteroGraph, nodes: np.ndarray, relations):
    """``metapath_reach``'s blocks over the relation sequence ``relations``."""
    hops = [(graph.csr[rel], graph.num_nodes(graph.schema.relation(rel).dst)) for rel in relations]
    n = nodes.shape[0]
    return _walk(hops, 0, n, np.arange(n, dtype=np.int64), nodes, np.ones(n, dtype=np.int64))


def _walk(hops, lo, hi, rows, cols, counts):
    if not hops:
        yield lo, hi, rows, cols, counts
        return
    (indptr, indices), n_dst = hops[0]
    starts = indptr[cols]
    deg = indptr[cols + 1] - starts
    cum = np.cumsum(np.bincount(rows, weights=deg, minlength=hi - lo))
    bounds = [0]
    while bounds[-1] < hi - lo:
        done = cum[bounds[-1] - 1] if bounds[-1] else 0.0
        nxt = int(np.searchsorted(cum, done + REACH_BLOCK, side="right"))
        bounds.append(max(nxt, bounds[-1] + 1))
    for a, b in zip(bounds[:-1], bounds[1:]):
        i, j = np.searchsorted(rows, [a, b])
        d = deg[i:j]
        first = np.cumsum(d) - d
        pos = np.arange(int(d.sum()), dtype=np.int64) - np.repeat(first - starts[i:j], d)
        key = np.repeat(rows[i:j] - a, d) * n_dst + indices[pos]
        paths = np.repeat(counts[i:j], d)
        if (b - a) * n_dst <= REACH_BLOCK:
            acc = np.bincount(key, weights=paths, minlength=(b - a) * n_dst)
            key = np.flatnonzero(acc)
            paths = acc[key].astype(np.int64)
        elif key.size:
            order = np.argsort(key)
            key, paths = key[order], paths[order]
            head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            key, paths = key[head], np.add.reduceat(paths, head)
        yield from _walk(hops[1:], lo + a, lo + b, key // n_dst, key % n_dst, paths)


def _pool_means(padded: np.ndarray, indptr: np.ndarray, indices: np.ndarray, counts=None) -> np.ndarray:
    """Mean of ``padded[idx]`` over each row's index set (weighted by ``counts``), zero if empty.

    ``padded`` is the feature matrix plus one trailing zero row. Each set is
    laid out along axis 0 of a (steps, rows, D) gather in ascending index
    order, padded at the end with the zero row, and numpy sums along that
    axis one row after another, so set means are bit-identical to
    ``feats[idx].mean(axis=0)``. Counts (0 on padding) scale the gather in
    place, and the weighted sums are divided by ``sum(w)``, exact below 2**53.
    Rows go longest set first, in tiles whose sets are longer than half the
    tile's longest, so padding at most doubles the work; a tile gathers at
    most REACH_BLOCK values unless one set alone is larger. A row's mean
    does not depend on the rows that share its tile: they only add zero
    padding after its last term. Gathers use ``np.take``, which copies the
    same bytes as fancy indexing several times faster.
    """
    zero = padded.shape[0] - 1
    lens = np.diff(indptr)
    out = np.zeros((lens.shape[0], padded.shape[1]))
    order = np.argsort(-lens, kind="stable")
    neg_sorted = -lens[order]
    i, nonempty = 0, int(np.count_nonzero(lens))
    while i < nonempty:
        top = int(-neg_sorted[i])
        j = int(np.searchsorted(neg_sorted, -(top // 2), side="left"))
        j = min(j, i + max(1, REACH_BLOCK // (top * padded.shape[1])))
        rows = order[i:j]
        steps = np.arange(top)[:, None]
        pos = np.minimum(indptr[rows] + steps, indices.shape[0] - 1)
        valid = steps < lens[rows]
        gathered = np.take(padded, np.where(valid, np.take(indices, pos), zero), axis=0)
        sizes = lens[rows]
        if counts is not None:
            w = np.where(valid, np.take(counts, pos), 0.0)
            gathered *= w[:, :, None]
            sizes = w.sum(axis=0)
        out[rows] = gathered.sum(axis=0) / sizes[:, None]
        del gathered  # one tile's gather alive at a time
        i = j
    return out


def _frontier(graph: HeteroGraph, nodes: np.ndarray, metapath: MetaPath) -> np.ndarray | None:
    """The (rows, |src|) path counts from the query nodes over every hop of
    ``metapath`` but the last, src being the last hop's source type, or None
    when it is empty or does not fit in REACH_BLOCK cells."""
    src = graph.schema.relation(metapath.relations[-1]).src
    cells = nodes.shape[0] * graph.num_nodes(src)
    if not 0 < cells <= REACH_BLOCK:
        return None
    frontier = np.zeros((nodes.shape[0], graph.num_nodes(src)))
    for lo, _, rows, cols, counts in _reach_blocks(graph, nodes, metapath.relations[:-1]):
        frontier[lo + rows, cols] = counts
    return frontier


def _last_hop(graph: HeteroGraph, frontier: np.ndarray, metapath: MetaPath):
    """``metapath_reach``'s blocks for the rows of ``frontier``, walked from
    its nonzeros through the last hop of ``metapath``."""
    rel = graph.schema.relation(metapath.relations[-1])
    rows, cols = np.nonzero(frontier)
    hop = (graph.csr[rel.name], graph.num_nodes(rel.dst))
    return _walk([hop], 0, frontier.shape[0], rows, cols, frontier[rows, cols].astype(np.int64))


def _dense_pool(graph: HeteroGraph, metapath: MetaPath, frontier: np.ndarray, multiset: bool) -> np.ndarray:
    """Pooled features from the frontier of ``_frontier``: the path
    counts to the terminal nodes are ``frontier @ incidence`` of the last
    relation, formed in column tiles of at most REACH_BLOCK cells (and an
    incidence tile as large), then weighted by their counts (multiset) or by
    one per reached node (set) in a product with the terminal features."""
    rel = graph.schema.relation(metapath.relations[-1])
    feats = graph.features[rel.dst]
    n, n_src = frontier.shape
    indptr, dst = graph.csr[rel.name]
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    src = np.repeat(np.arange(n_src), np.diff(indptr))[order]
    # a trailing column of ones sums each row's weights beside its features
    weighted = np.hstack([feats, np.ones((feats.shape[0], 1))])
    sums = np.zeros((n, weighted.shape[1]))
    width = REACH_BLOCK // max(n, n_src)
    for c0 in range(0, feats.shape[0], width):
        c1 = min(c0 + width, feats.shape[0])
        a, b = np.searchsorted(dst, [c0, c1])
        incidence = np.bincount(src[a:b] * (c1 - c0) + dst[a:b] - c0, minlength=n_src * (c1 - c0))
        counts = frontier @ incidence.reshape(n_src, c1 - c0).astype(np.float64)
        if not multiset:
            np.minimum(counts, 1.0, out=counts)  # whole counts: 1 per reached node
        sums += counts @ weighted[c0:c1]
    sizes = sums[:, -1:]
    return np.divide(sums[:, :-1], sizes, out=np.zeros((n, feats.shape[1])), where=sizes > 0)


def pooled_neighbor_features(graph: HeteroGraph, nodes, metapath: MetaPath, multiset: bool = False) -> np.ndarray:
    """Mean terminal-node features per query node; zero row for empty sets.

    With ``multiset`` the mean is weighted by the number of distinct paths
    reaching each terminal node instead of treating the pool as a set. A
    metapath back to the source type (APA, say) keeps the query node in its
    own pool, as HAN's metapath neighbours do.

    Two routes compute it, chosen once per call from the input alone. Take
    the path counts over every hop but the last as a (rows, |src|) frontier,
    src being the last hop's source type. When that frontier fits in
    REACH_BLOCK cells and at least half of its cells are nonzero (APTP,
    whose authors reach most of the 40 terms, say), the dense route
    multiplies it by the last relation's incidence in float64, as metapath
    neighbours are formed from adjacency products in HAN (Wang et al.
    2019): set means are ``(counts > 0) @ F / |set|``, multiset means
    ``counts @ F / counts.sum()``. Path counts are exact integers there
    (below 2**53), but BLAS sums the features in its own order, so dense
    means agree with the per-node mean to within 1e-12 * max(1, max|F|),
    not bit for bit. Every other metapath takes the sparse route (``_pool_means`` per
    ``metapath_reach`` block): set means bit-identical to ``feats[sorted pool].mean(axis=0)``,
    multiset means ``fl(sum_k fl(w_k * F_k)) / sum(w)`` added in ascending terminal id order.

    Query rows with equal frontier rows (equal counts for a multiset, equal
    support for a set) have equal pools, so when the frontier fits, the
    sparse route pools each distinct frontier row once, walking the last
    hop from its nonzeros, and copies the means to the rows that share it
    (APVP, whose authors reach one of a few venue subsets, say). A mean
    depends only on its own pool, so the bits are the same as pooling
    every row.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    frontier = _frontier(graph, nodes, metapath)
    if frontier is not None and 2 * np.count_nonzero(frontier) >= frontier.size:
        return _dense_pool(graph, metapath, frontier, multiset)
    feats = graph.features[metapath.terminal_type]
    padded = np.vstack([feats, np.zeros((1, feats.shape[1]))])
    inverse = None
    if frontier is None:
        blocks, n = _reach_blocks(graph, nodes, metapath.relations), nodes.shape[0]
    else:
        key = frontier if multiset else frontier > 0
        # each row as one opaque value: unique rows sort by memcmp, not field by field
        as_bytes = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        _, first, inverse = np.unique(as_bytes, return_index=True, return_inverse=True)
        blocks, n = _last_hop(graph, key[first], metapath), first.shape[0]
    out = np.zeros((n, feats.shape[1]))
    for lo, hi, rows, indices, counts in blocks:
        indptr = np.searchsorted(rows, np.arange(hi - lo + 1))
        out[lo:hi] = _pool_means(padded, indptr, indices, counts if multiset else None)
    return out if inverse is None else out[inverse]


# ---------------------------------------------------------------------------
# disk format

def _read_tsv_rows(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line:
                    continue
                yield lineno, line.split("\t")
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc


# Fast readers parse a whole file with numpy and return None on anything
# they cannot vouch for; the line-by-line readers then run and name the
# offending ``file:line``. numpy's integer parser accepts a subset of what
# ``int()`` accepts, and its float parser rounds decimal strings as
# ``float()`` does, so the fast path accepts no input that the line-by-line
# path rejects and yields the same values (the parser parity tests pin this).

def _loadtxt(path: str, dtype, ndmin: int) -> np.ndarray | None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(
                path, dtype=dtype, delimiter="\t", comments=None, ndmin=ndmin, encoding="utf-8"
            )
    except ValueError:
        return None


def _fast_pairs(path: str) -> np.ndarray | None:
    """(m, 2) int64 rows of a two-column integer file, or None."""
    arr = _loadtxt(path, np.int64, ndmin=2)
    if arr is None:
        return None
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return arr if arr.shape[1] == 2 else None


def _fast_features(path: str) -> np.ndarray | None:
    """Feature matrix of a node file with dense ids and finite values, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = next((line.rstrip("\n") for line in fh if line.rstrip("\n")), "")
    except ValueError:
        return None
    width = first.count("\t")
    if width == 0:
        return None
    arr = _loadtxt(path, np.dtype([("id", np.int64), ("x", np.float64, (width,))]), ndmin=1)
    if arr is None or arr.size == 0:
        return None
    order = np.argsort(arr["id"], kind="stable")
    if not np.array_equal(arr["id"][order], np.arange(arr.shape[0])):
        return None
    mat = arr["x"][order]
    return mat if np.isfinite(mat).all() else None


def _read_features_lines(path: str) -> np.ndarray:
    rows: list[tuple[int, list[float]]] = []
    seen = set()
    width = None
    for lineno, cells in _read_tsv_rows(path):
        try:
            node_id = int(cells[0])
            values = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise LoadError(f"{path}:{lineno}: non-finite feature value")
        if node_id in seen:
            raise LoadError(f"{path}:{lineno}: duplicate node id {node_id}")
        seen.add(node_id)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise LoadError(
                f"{path}:{lineno}: feature width {len(values)} differs from {width}"
            )
        rows.append((node_id, values))
    if not rows:
        raise LoadError(f"{path}: node file is empty")
    n = len(rows)
    if seen != set(range(n)):
        raise LoadError(f"{path}: node ids must be dense 0..{n - 1}")
    mat = np.zeros((n, width if width else 0))
    for node_id, values in rows:
        mat[node_id] = values
    return mat


def _read_edges_lines(path: str) -> np.ndarray:
    pairs = []
    for lineno, cells in _read_tsv_rows(path):
        if len(cells) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'src<TAB>dst'")
        try:
            pair = (int(cells[0]), int(cells[1]))
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from exc
        if not all(INT64_MIN <= v <= INT64_MAX for v in pair):
            raise LoadError(f"{path}:{lineno}: node id out of the 64-bit integer range")
        pairs.append(pair)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_labels(path: str, n: int, num_classes: int) -> np.ndarray:
    labels = np.full(n, UNLABELED, dtype=np.int64)
    pairs = _fast_pairs(path)
    if pairs is not None:
        ids, cls = pairs[:, 0], pairs[:, 1]
        in_range = ids.size == 0 or (
            ids.min() >= 0 and ids.max() < n and cls.min() >= 0 and cls.max() < num_classes
        )
        # which of several labels for one id fancy assignment keeps is unspecified;
        # the line loop below keeps the last
        if in_range and np.unique(ids).size == ids.size:
            labels[ids] = cls
            return labels
    for lineno, cells in _read_tsv_rows(path):
        if len(cells) != 2:
            raise LoadError(f"{path}:{lineno}: expected 'node_id<TAB>class'")
        try:
            node_id, c = int(cells[0]), int(cells[1])
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= node_id < n:
            raise LoadError(f"{path}:{lineno}: node id {node_id} out of range")
        if not 0 <= c < num_classes:
            raise LoadError(f"{path}:{lineno}: class {c} out of range")
        labels[node_id] = c
    return labels


def load_graph(dataset_dir: str) -> HeteroGraph:
    """Load and validate a dataset directory."""
    schema_path = os.path.join(dataset_dir, "schema.json")
    if not os.path.isfile(schema_path):
        raise LoadError(f"missing schema file: {schema_path}")
    raw = read_json(schema_path)
    try:
        node_types, rels = raw["node_types"], raw["relations"]
        target_type, num_classes = raw["target_type"], raw["num_classes"]
        if not isinstance(node_types, list) or not isinstance(rels, list):
            raise LoadError(f"{schema_path}: node_types and relations must be JSON lists")
        relations = [Relation(r["name"], r["src"], r["dst"], r["inverse"]) for r in rels]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{schema_path}: malformed schema: {exc}") from exc
    if not is_json_int(num_classes):
        raise LoadError(f"{schema_path}: num_classes must be an integer, got {num_classes!r}")
    for value in node_types + [v for r in relations for v in (r.name, r.src, r.dst, r.inverse)]:
        if not isinstance(value, str):
            raise LoadError(f"{schema_path}: node types and relation fields must be strings, got {value!r}")
    try:
        schema = Schema(node_types, relations, target_type, num_classes)
    except LoadError as exc:
        raise LoadError(f"{schema_path}: {exc}") from exc

    features: dict[str, np.ndarray] = {}
    for t in schema.node_types:
        path = os.path.join(dataset_dir, f"nodes-{t}.tsv")
        if not os.path.isfile(path):
            raise LoadError(f"missing node file: {path}")
        mat = _fast_features(path)
        features[t] = mat if mat is not None else _read_features_lines(path)

    edges: dict[str, np.ndarray] = {}
    for r in schema.relations:
        path = os.path.join(dataset_dir, f"edges-{r.name}.tsv")
        if not os.path.isfile(path):
            continue
        pairs = _fast_pairs(path)
        edges[r.name] = pairs if pairs is not None else _read_edges_lines(path)
    on_disk = set(edges)
    for r in schema.relations:
        if r.name not in edges:
            if r.inverse not in edges:
                raise LoadError(
                    f"no edge file for relation {r.name!r} or its inverse {r.inverse!r}"
                )
            edges[r.name] = edges[r.inverse][:, ::-1].copy()

    labels_path = os.path.join(dataset_dir, "labels.tsv")
    if not os.path.isfile(labels_path):
        raise LoadError(f"missing labels file: {labels_path}")
    labels = _read_labels(
        labels_path, features[schema.target_type].shape[0], schema.num_classes
    )

    graph = HeteroGraph(schema=schema, features=features, edges=edges, labels=labels)
    for r in schema.relations:
        # each pair once; a self-inverse relation has no second file to compare
        if r.name < r.inverse and r.name in on_disk and r.inverse in on_disk:
            n_dst = graph.num_nodes(r.dst)
            pairs = (edges[r.name], edges[r.inverse][:, ::-1])
            if not np.array_equal(*(np.sort(e[:, 0] * n_dst + e[:, 1]) for e in pairs)):
                raise LoadError(
                    f"edges-{r.name}.tsv and edges-{r.inverse}.tsv on disk are not "
                    "reversals of each other"
                )
    return graph


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _put_digits(buf: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
    """Write the decimal digits of the non-negative ``values`` into ``buf``,
    each value's last digit just before its entry of ``ends``."""
    while values.size:
        buf[ends - 1] = values % 10 + ord("0")
        more = values >= 10
        values, ends = values[more] // 10, ends[more] - 1


def _pair_lines(first: np.ndarray, second: np.ndarray) -> str:
    """One ``first<TAB>second`` line per pair of non-negative int64s, the
    bytes ``str.format`` gives, with the digits laid out by numpy in one buffer."""
    w1, w2 = (1 + np.searchsorted(_POWERS_OF_TEN, v, side="right") for v in (first, second))
    ends = np.cumsum(w1 + w2 + 2)
    buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    tabs = ends - w2 - 2
    buf[tabs], buf[ends - 1] = ord("\t"), ord("\n")
    _put_digits(buf, tabs, first)
    _put_digits(buf, ends - 1, second)
    return buf.tobytes().decode("ascii")


def write_dataset(graph: HeteroGraph, out_dir: str) -> None:
    """Write a graph back to the on-disk dataset format (byte-stable).

    Feature values are written as ``repr`` of the float, the shortest
    decimal that parses back to the same value; each file is formatted as
    one string and written at once.
    """
    os.makedirs(out_dir, exist_ok=True)
    schema = graph.schema
    payload = {
        "node_types": schema.node_types,
        "relations": [
            {"name": r.name, "src": r.src, "dst": r.dst, "inverse": r.inverse}
            for r in schema.relations
        ],
        "target_type": schema.target_type,
        "num_classes": schema.num_classes,
    }
    with open(os.path.join(out_dir, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for t in schema.node_types:
        feats = np.asarray(graph.features[t], dtype=np.float64)
        sep = "\t" if feats.shape[1] else ""
        lines = [str(i) + sep + "\t".join(map(repr, row)) + "\n" for i, row in enumerate(feats.tolist())]
        _write_text(os.path.join(out_dir, f"nodes-{t}.tsv"), "".join(lines))
    for r in schema.relations:
        edges = np.asarray(graph.edges[r.name], dtype=np.int64).reshape(-1, 2)
        _write_text(os.path.join(out_dir, f"edges-{r.name}.tsv"), _pair_lines(edges[:, 0], edges[:, 1]))
    labeled = graph.labeled_nodes()
    _write_text(os.path.join(out_dir, "labels.tsv"), _pair_lines(labeled, graph.labels[labeled].astype(np.int64)))

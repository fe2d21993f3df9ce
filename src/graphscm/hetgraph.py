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
relation is also held as CSR (``HeteroGraph.csr``), which the set walk
``metapath_reach`` and the multiset pool's per-hop sums both read.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, LoadError, is_json_int, not_utf8, read_json, write_json

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
        # variable names start from type initials, so an empty name has none to give
        if "" in self.node_types or any(r.name == "" for r in self.relations):
            raise LoadError("node type and relation names must not be empty")
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


def enumerate_metapaths(schema: Schema, max_len: int) -> list[MetaPath]:
    """All composable relation sequences of length 1..max_len from the
    schema's target type.

    Breadth-first over length; within a frontier, paths are extended by
    relations in schema declaration order, which makes the output
    deterministic.
    """
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    target_type = schema.target_type
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


def _stable_order(keys: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys in ``[0, n)``, sorted as
    8- or 16-bit keys when ``n`` allows: numpy radix-sorts those widths, and
    a stable order is unique, so the permutation is the same."""
    if n <= 1 << 16:
        keys = keys.astype(np.uint8 if n <= 1 << 8 else np.uint16)
    return np.argsort(keys, kind="stable")


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
            n_src = self.num_nodes(r.src)
            indptr = np.zeros(n_src + 1, dtype=np.int64)
            np.cumsum(np.bincount(e[:, 0], minlength=n_src), out=indptr[1:])
            self.csr[r.name] = Csr(indptr, e[_stable_order(e[:, 0], n_src), 1])

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


# Work bound of one metapath hop: (row, node) pairs expanded or dense cells
# held at once. Query rows are split into groups that stay under it. It also
# bounds the dense pooling route's frontier and each of its product tiles.
REACH_BLOCK = 1 << 19


def metapath_reach(graph: HeteroGraph, nodes, relations):
    """The nodes reached from each query node along the relation sequence
    ``relations`` (a metapath's ``.relations``, or a prefix of one).

    Yields blocks ``(lo, hi, rows, indices)`` that cover the query rows
    ``lo:hi`` of ``nodes`` in order. Query row ``lo + rows[k]`` reaches node
    ``indices[k]`` of the last relation's destination type along at least
    one path; pairs are sorted by row, then by index, each once. The walk
    tracks reachability alone: set pools, the dense set route's frontier
    (``_frontier``) and the homophily split read nothing else. Path counts
    exist only as the multiset pool's per-hop sums (``_multiset_pool``),
    which do not walk. A query node that reaches itself (APA, say) is among
    its own terminals.

    Each hop expands the frontier through the relation's CSR and merges
    repeated (row, node) pairs: by marking a dense boolean block when the
    rows at hand times the destination type's size fit in REACH_BLOCK cells
    (the 40 terms of APT, say), by sorting otherwise.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    hops = [(graph.csr[rel], graph.num_nodes(graph.schema.relation(rel).dst)) for rel in relations]
    n = nodes.shape[0]
    return _walk(hops, 0, n, np.arange(n, dtype=np.int64), nodes)


def _walk(hops, lo, hi, rows, cols):
    if not hops:
        yield lo, hi, rows, cols
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
        if (b - a) * n_dst <= REACH_BLOCK:
            seen = np.zeros((b - a) * n_dst, dtype=bool)
            seen[key] = True
            key = np.flatnonzero(seen)
        elif key.size:
            key = np.sort(key)
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        yield from _walk(hops[1:], lo + a, lo + b, key // n_dst, key % n_dst)


def _frontier(graph: HeteroGraph, nodes: np.ndarray, metapath: MetaPath) -> np.ndarray | None:
    """The (rows, |src|) 0/1 table of the nodes reached over every hop of
    ``metapath`` but the last, src being the last hop's source type, or None
    when it is empty or does not fit in REACH_BLOCK cells, and for a path of
    one hop, whose frontier would be the rows of an identity matrix: the
    walk expands each row's own edges there, which the product never beats."""
    src = graph.schema.relation(metapath.relations[-1]).src
    cells = nodes.shape[0] * graph.num_nodes(src)
    if len(metapath) < 2 or not 0 < cells <= REACH_BLOCK:
        return None
    frontier = np.zeros((nodes.shape[0], graph.num_nodes(src)))
    for lo, _, rows, cols in metapath_reach(graph, nodes, metapath.relations[:-1]):
        frontier[lo + rows, cols] = 1.0
    return frontier


def _column_groups(csr: Csr, n_dst: int):
    """The destinations of a relation grouped by their in-neighbour multisets.

    Returns ``(group, sources, indptr)``: ``group[d]`` is destination d's
    group, -1 when d has no in-edges, and group g's in-neighbours, ascending
    and repeated by multiplicity, are ``sources[indptr[g]:indptr[g + 1]]``.
    The destinations of one in-degree are compared as rows of their sorted
    sources, with one ``np.unique`` per distinct in-degree, so the grouping
    is exact, costs O(m log m) in the relation's m edges and holds no more
    than m sources at once.
    """
    src_ptr, dst = csr
    order = _stable_order(dst, n_dst)
    # CSR lists edges by source, so a stable sort by destination keeps each one's sources ascending
    src = np.repeat(np.arange(src_ptr.shape[0] - 1), np.diff(src_ptr))[order]
    deg = np.bincount(dst, minlength=n_dst)
    starts = np.cumsum(deg) - deg
    by_deg = np.argsort(deg, kind="stable")
    degrees, cuts = np.unique(deg[by_deg], return_index=True)
    cuts = np.append(cuts, n_dst)
    group = np.full(n_dst, -1, dtype=np.int64)
    sources, sizes = [], []
    for d, a, b in zip(degrees.tolist(), cuts[:-1], cuts[1:]):
        if d == 0:
            continue
        cols = by_deg[a:b]
        rows = src[starts[cols, None] + np.arange(d)]
        keys = rows.view(np.dtype((np.void, rows.itemsize * d))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        group[cols] = len(sizes) + inverse.ravel()  # the inverse's shape varies across numpy versions
        sources.append(rows[first].ravel())
        sizes += [d] * first.shape[0]
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return group, np.concatenate(sources) if sources else src, indptr


def _dense_pool(graph: HeteroGraph, metapath: MetaPath, frontier: np.ndarray, grouping) -> np.ndarray:
    """Pooled set features from the frontier of ``_frontier``.

    Destinations of the last relation with the same in-neighbour multiset
    are reached from the same frontier rows, so they are merged into one
    column (``grouping``, from ``_column_groups``) weighted by their summed
    ``[features | 1]``. The products ``frontier @ incidence`` over these
    columns, whole numbers that are at least 1 exactly where a row reaches
    the column, are formed in column tiles of at most REACH_BLOCK cells (and
    an incidence tile as large), clipped to 1, and multiplied by the group
    weights: rows x |src| x groups multiply-adds, not rows x |src| x |dst|.
    A destination with no in-edges is in no group and adds nothing.
    """
    rel = graph.schema.relation(metapath.relations[-1])
    feats = graph.features[rel.dst]
    n, n_src = frontier.shape
    group, sources, indptr = grouping
    groups = indptr.shape[0] - 1
    # a trailing column of ones counts each group's members beside its summed features
    weighted = np.hstack([feats, np.ones((feats.shape[0], 1))])
    members = np.argsort(group, kind="stable")[np.count_nonzero(group < 0):]
    heads = np.searchsorted(group[members], np.arange(groups))
    weights = np.add.reduceat(weighted[members], heads, axis=0) if groups else weighted[:0]
    sums = np.zeros((n, weighted.shape[1]))
    width = REACH_BLOCK // max(n, n_src)
    for g0 in range(0, groups, width):
        g1 = min(g0 + width, groups)
        a, b = indptr[g0], indptr[g1]
        cols = np.repeat(np.arange(g1 - g0), np.diff(indptr[g0:g1 + 1]))
        incidence = np.bincount(sources[a:b] * (g1 - g0) + cols, minlength=n_src * (g1 - g0))
        counts = frontier @ incidence.reshape(n_src, g1 - g0).astype(np.float64)
        np.minimum(counts, 1.0, out=counts)  # whole numbers: 1 per reached node
        sums += counts @ weights[g0:g1]
    sizes = sums[:, -1:]
    return np.divide(sums[:, :-1], sizes, out=np.zeros((n, feats.shape[1])), where=sizes > 0)


# Set pools only. The dense route runs frontier.size x groups multiply-adds
# where the walk expands one (row, node) pair per frontier nonzero and
# out-edge of its last hop; pooling goes dense while the first is at most
# DENSE_COST times the second. On the seed-1 synthetic graphs of 30-8000
# authors that ratio is 0.01-2.7 for APVP and 0.29-26 for APTP, whose walks
# take 25-60 times as long as the dense route at 700-2000 authors; it is 101
# for APAP at 60 authors and 399 or more from 120 on, and 284 or more for
# every path of length 2 whose frontier fits (a path of length 1 has none).
# 64 lies between the two groups; at 30 authors APAP's ratio is 26, so it
# goes dense there. A mostly-zero frontier walks far faster (APAP at 700
# authors: 40 ms walked, 156 ms dense). At 60 and 120 authors APAP pools
# faster dense, but in a few ms either way, and the walk's set means are
# exact where dense ones are within 1e-12 * max(1, max|F|).
DENSE_COST = 64


def _multiset_pool(graph: HeteroGraph, nodes: np.ndarray, metapath: MetaPath) -> np.ndarray:
    """Path-count-weighted means, as ``A_1 (A_2 (... (A_k [F | 1])))``: one
    sparse sum per hop, from the last relation back to the first."""
    feats = graph.features[metapath.terminal_type]
    sums = np.vstack([feats.T, np.ones(feats.shape[0])])  # one row per column of [F | 1]
    for rel in reversed(metapath.relations):
        indptr, indices = graph.csr[rel]
        n = indptr.shape[0] - 1
        seg = np.repeat(np.arange(n), np.diff(indptr))  # the source each edge sums into
        sums = np.stack([np.bincount(seg, weights=np.take(col, indices), minlength=n) for col in sums])
    sizes = sums[-1, nodes][:, None]
    return np.divide(sums[:-1, nodes].T, sizes, out=np.zeros((nodes.shape[0], feats.shape[1])), where=sizes > 0)


def pooled_neighbor_features(graph: HeteroGraph, nodes, metapath: MetaPath, multiset: bool = False) -> np.ndarray:
    """Mean terminal-node features per query node; zero row for empty sets.

    With ``multiset`` the mean is weighted by the number of distinct paths
    reaching each terminal node instead of treating the pool as a set. A
    metapath back to the source type (APA, say) keeps the query node in its
    own pool, as HAN's metapath neighbours do. Only multiset pools count
    paths; set pools read which nodes are reached and nothing else.

    Those path counts are the entries of the adjacency product
    ``A_1 A_2 ... A_k``, from which HAN (Wang et al. 2019) forms metapath
    neighbours, so a multiset pool is computed right to left without
    enumerating a single (query, terminal) pair: starting from ``[F | 1]``
    of the terminal type, each hop from the last to the first sets a source
    node's row to the sum of its out-neighbours' rows, over the edges in
    CSR order with one ``np.bincount`` per column. Every hop runs over all
    source nodes of its type, and the query rows are taken from the first
    hop's sums, so a subset pools as the same rows of the whole table. The
    mean is the feature sums over the count sum. Multiset counts are exact
    integers below 2**53; the features are summed in edge order, so
    multiset means are within 1e-12 * max(1, max|F|) of the per-node
    weighted mean, not bit for bit.

    Set pools take one of two routes, chosen once per call from the input
    alone by counting their work. Take the nodes reached over every hop but
    the last as a (rows, |src|) 0/1 frontier, src being the last hop's
    source type. When it fits in REACH_BLOCK cells, the last relation's
    destinations are grouped by their in-neighbour multisets
    (``_column_groups``): destinations of one group are reached from the
    same frontier rows. The dense route then multiplies the frontier by the
    grouped incidence in float64 and forms ``(product > 0) @ F / |set|``, at
    rows x |src| x groups multiply-adds (780 term pairs among APTP's 8800
    papers at 800 authors, say). The walk expands one (row, node) pair per
    frontier nonzero and out-edge of the last hop. The dense route is taken
    when its multiply-adds are at most DENSE_COST times those pairs (APTP
    and APVP on the synthetic graphs). BLAS sums the features in its own
    order, so dense means agree with the per-node mean to within
    1e-12 * max(1, max|F|), not bit for bit.

    Otherwise, and whenever the frontier does not fit or the path has one
    hop, the walk pools every hop from the query nodes and reduces each
    ``metapath_reach`` block of reached pairs over its sorted rows with
    ``np.bincount``: one for the pool sizes, then one per feature column, of
    that column taken at the block's terminals, so that no more than one
    column of the block's pairs is held at once. bincount adds each row's
    terms from +0.0 in ascending terminal id order, so set means are
    bit-identical to ``feats[sorted pool].mean(axis=0)`` up to the sign of a
    sum whose terms are all -0.0, which is +0.0 here. Empty pools give zero
    rows.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if multiset:
        return _multiset_pool(graph, nodes, metapath)
    frontier = _frontier(graph, nodes, metapath)
    if frontier is not None:
        rel = graph.schema.relation(metapath.relations[-1])
        grouping = _column_groups(graph.csr[rel.name], graph.num_nodes(rel.dst))
        madds = frontier.size * (grouping[2].shape[0] - 1)
        pairs = np.count_nonzero(frontier, axis=0) @ np.diff(graph.csr[rel.name].indptr)
        if madds <= DENSE_COST * pairs:
            return _dense_pool(graph, metapath, frontier, grouping)
    feats = graph.features[metapath.terminal_type]
    columns = np.ascontiguousarray(feats.T)
    out = np.zeros((nodes.shape[0], feats.shape[1]))
    for lo, hi, rows, indices in metapath_reach(graph, nodes, metapath.relations):
        sizes = np.bincount(rows, minlength=hi - lo)[:, None]
        sums = np.empty((feats.shape[1], hi - lo))
        for c, column in enumerate(columns):  # one column of the block's pairs at a time
            sums[c] = np.bincount(rows, weights=np.take(column, indices), minlength=hi - lo)
        np.divide(sums.T, sizes, out=out[lo:hi], where=sizes > 0)
    return out


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


def _check_edge_ids(path: str, pairs: np.ndarray, types: tuple[str, str], features: dict) -> None:
    """Raise LoadError naming the line of ``path`` and the first id on it
    that is not a node of its column's type."""
    sizes = [features[t].shape[0] for t in types]
    # column maxima are several times faster than a per-row mask over (m, 2)
    if not pairs.size or (pairs.min() >= 0 and all(pairs[:, c].max() < sizes[c] for c in (0, 1))):
        return
    k = int(np.flatnonzero(((pairs < 0) | (pairs >= sizes)).any(axis=1))[0])
    lineno = next(itertools.islice(_read_tsv_rows(path), k, None))[0]
    col = 1 if 0 <= pairs[k, 0] < sizes[0] else 0
    raise LoadError(
        f"{path}:{lineno}: {('source', 'destination')[col]} id {pairs[k, col]} out of range: "
        f"{types[col]!r} has {sizes[col]} nodes"
    )


def _read_labels(path: str, n: int, num_classes: int) -> np.ndarray:
    labels = np.full(n, UNLABELED, dtype=np.int64)
    pairs = _fast_pairs(path)
    if pairs is not None:
        ids, cls = pairs[:, 0], pairs[:, 1]
        in_range = ids.size == 0 or (
            ids.min() >= 0 and ids.max() < n and cls.min() >= 0 and cls.max() < num_classes
        )
        # a repeated id falls through to the line loop below, which names its line
        if in_range and _sorted_distinct(ids).size == ids.size:
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
        if labels[node_id] != UNLABELED:
            raise LoadError(f"{path}:{lineno}: duplicate node id {node_id}")
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
        _check_edge_ids(path, edges[r.name], (r.src, r.dst), features)
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


def _byte_table(strings) -> np.ndarray:
    """The ASCII ``strings`` as the rows of a NUL-padded uint8 table."""
    table = np.array(strings, dtype=np.bytes_)
    return table.view(np.uint8).reshape(table.shape + (table.itemsize,))


def _id_table(n: int) -> np.ndarray:
    """The decimal ids 0..n-1 as the rows of a uint8 table, right-aligned,
    their leading zeros NUL. The digit of place 10**k, ``i // 10**k % 10``,
    runs through the ten digits in turn, each repeated 10**k times."""
    width = len(str(max(n - 1, 0)))
    digits = np.empty((n, width), dtype=np.uint8)
    for col in range(width):
        place = 10 ** (width - 1 - col)
        digits[:, col] = np.resize(np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), place), n)
        if col < width - 1:
            digits[:place, col] = 0  # ids below 10**k have no digit there
    return digits


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of ``keys``, ascending (``np.unique`` without its
    hashing of integer keys in numpy 2)."""
    keys = np.sort(keys, axis=None)
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return keys[head]


def _write_lines(path: str, *columns: np.ndarray) -> None:
    """Write the uint8 tables ``columns`` side by side as tab-separated lines, NULs dropped."""
    tab, newline = (np.full((columns[0].shape[0], 1), ord(c), dtype=np.uint8) for c in "\t\n")
    mat = np.hstack([b for column in columns for b in (tab, column)][1:] + [newline])
    with open(path, "wb") as fh:
        fh.write(mat[mat != 0].tobytes())


def write_dataset(graph: HeteroGraph, out_dir: str) -> None:
    """Write a graph in the on-disk dataset format: ids and classes in
    decimal, features as ``repr`` of the float (the shortest decimal that
    parses back to it), so ``write_dataset(load_graph(d), out)`` reproduces
    every file of a dataset ``d`` this function wrote. Each field is a row
    of a byte table: the decimal digits per id of a type, ``repr`` once per
    distinct float64 bit pattern (``-0.0`` keeps its sign)."""
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
    write_json(payload, os.path.join(out_dir, "schema.json"))
    # the target type's table also spells the classes
    sizes = {t: max(graph.num_nodes(t), schema.num_classes) for t in schema.node_types}
    ids = {t: _id_table(n) for t, n in sizes.items()}
    for t in schema.node_types:
        feats = np.ascontiguousarray(graph.features[t], dtype=np.float64)
        bits = feats.view(np.uint64)
        table = _sorted_distinct(bits)  # sorted, so searchsorted finds each value's row
        values = _byte_table(list(map(repr, table.view(np.float64).tolist())))[np.searchsorted(table, bits)]
        _write_lines(os.path.join(out_dir, f"nodes-{t}.tsv"), ids[t][: feats.shape[0]], *values.transpose(1, 0, 2))
    for r in schema.relations:
        edges = np.asarray(graph.edges[r.name], dtype=np.int64).reshape(-1, 2)
        _write_lines(os.path.join(out_dir, f"edges-{r.name}.tsv"), ids[r.src][edges[:, 0]], ids[r.dst][edges[:, 1]])
    labeled, table = graph.labeled_nodes(), ids[schema.target_type]
    _write_lines(os.path.join(out_dir, "labels.tsv"), table[labeled], table[graph.labels[labeled]])

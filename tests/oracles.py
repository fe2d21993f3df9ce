"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (loops, enumeration, truncated
series) and shares no code with the implementations under test, except
that the per-network structural assignment is built from numcore's 2-D
tape ops (affine, relu, add, and ``index_scalar`` and ``scalar_mul``
here) rather than the stacked ones it checks, and the two pair-map mixes,
the ``bmm`` chain of ``stacked_mlp`` and the ``frobenius_sq`` chain of
``sq_error`` record on numcore's tape. ``frobenius_sq`` is also the
scalar reducer of the gradient checks. ``dense_pool_columns`` reads the
graph's CSR and tiles by ``hetgraph.REACH_BLOCK``; ``reach_counts`` walks
the CSR in row groups of it, and ``pooled_walk_tiles`` reduces those
blocks and tiles by it too.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict

import numpy as np


def close(got, want, rel: float = 1e-12) -> bool:
    """Same shape, and every entry within rel * max(1, max|want|) of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if not want.size:
        return True
    return float(np.abs(got - want).max()) <= rel * max(1.0, float(np.abs(want).max()))


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def taylor_trace_expm(b: np.ndarray, terms: int = 30) -> float:
    """Tr(e^B) by direct Taylor summation (no scaling), for small matrices."""
    n = b.shape[0]
    power = np.eye(n)
    total = float(np.trace(power))
    fact = 1.0
    for k in range(1, terms + 1):
        power = power @ b
        fact *= k
        total += float(np.trace(power)) / fact
    return total


def has_cycle(support: np.ndarray) -> bool:
    """DFS cycle detection on the boolean adjacency matrix ``support``."""
    n = support.shape[0]
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def visit(u: int) -> bool:
        color[u] = 1
        for v in range(n):
            if support[u, v]:
                if color[v] == 1:
                    return True
                if color[v] == 0 and visit(v):
                    return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


def topological_order(support: np.ndarray) -> list[int] | None:
    """Kahn's algorithm; returns None when the graph has a cycle."""
    n = support.shape[0]
    indeg = [int(support[:, j].sum()) for j in range(n)]
    queue = [j for j in range(n) if indeg[j] == 0]
    order = []
    while queue:
        u = queue.pop(0)
        order.append(u)
        for v in range(n):
            if support[u, v]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    return order if len(order) == n else None


def metapath_neighbors_dfs(edges_by_relation: dict, relation_seq: list, node: int) -> set:
    """Terminal nodes of all paths from ``node`` along ``relation_seq``.

    ``edges_by_relation`` maps relation name -> list of (src, dst) pairs.
    Enumerates every concrete path depth-first, then dedups terminals.
    """
    terminals: set[int] = set()

    def walk(current: int, depth: int) -> None:
        if depth == len(relation_seq):
            terminals.add(current)
            return
        for src, dst in edges_by_relation[relation_seq[depth]]:
            if src == current:
                walk(dst, depth + 1)

    walk(node, 0)
    return terminals


def confusion_matrix_loops(truth: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(truth, pred):
        out[int(t), int(p)] += 1
    return out


# ---------------------------------------------------------------------------
# per-node metapath walks: the loop implementations that the CSR operator
# ``hetgraph.metapath_reach`` replaced, kept verbatim over adjacency lists

def adjacency_lists(graph) -> dict[str, list[list[int]]]:
    """Relation -> per-source-node destination lists, in edge-file order."""
    out = {}
    for r in graph.schema.relations:
        rows: list[list[int]] = [[] for _ in range(graph.num_nodes(r.src))]
        for s, d in graph.edges[r.name]:
            rows[int(s)].append(int(d))
        out[r.name] = rows
    return out


def neighbor_set(adj, node: int, metapath, exclude_self: bool = False) -> set[int]:
    """Terminal nodes reachable from ``node``; with ``exclude_self`` the origin
    is dropped when the metapath ends at its own type."""
    frontier = {int(node)}
    for rel in metapath.relations:
        rows = adj[rel]
        frontier = {d for s in frontier for d in rows[s]}
        if not frontier:
            break
    if exclude_self and metapath.terminal_type == metapath.source_type:
        frontier.discard(int(node))
    return frontier


def path_counts(adj, node: int, metapath) -> dict[int, int]:
    """Terminal node -> number of distinct paths from ``node``."""
    counts = {int(node): 1}
    for rel in metapath.relations:
        rows = adj[rel]
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for d in rows[s]:
                nxt[d] = nxt.get(d, 0) + c
        counts = nxt
        if not counts:
            break
    return counts


def pooled_table(graph, adj, nodes, metapath, multiset=False, ordered=False) -> np.ndarray:
    """Per-node pooled means. Multiset means are ``(w @ feats[idx]) / w.sum()``
    over the path counts ``w``, summed in BLAS order, or with ``ordered``
    ``fl(w_k * F_k)`` added one terminal after another in ascending id order,
    over ``sum(w)``."""
    feats = graph.features[metapath.terminal_type]
    out = np.zeros((len(nodes), feats.shape[1]))
    for i, node in enumerate(nodes):
        if multiset:
            counts = path_counts(adj, int(node), metapath)
            if counts:
                idx = sorted(counts)
                w = np.array([counts[j] for j in idx], dtype=np.float64)
                if ordered:
                    acc = w[0] * feats[idx[0]]
                    for k in range(1, len(idx)):
                        acc = acc + w[k] * feats[idx[k]]
                    out[i] = acc / w.sum()
                else:
                    out[i] = (w @ feats[idx]) / w.sum()
        else:
            pool = neighbor_set(adj, int(node), metapath)
            if pool:
                idx = sorted(pool)
                out[i] = feats[idx].mean(axis=0)
    return out


def dense_pool_columns(graph, metapath, frontier: np.ndarray, multiset: bool) -> np.ndarray:
    """``hetgraph._dense_pool`` as it was: one incidence column per terminal
    node, ``frontier @ incidence`` in column tiles of at most REACH_BLOCK
    cells, then weighted by the counts (multiset) or by one per reached node
    (set) in a product with the terminal features."""
    from graphscm import hetgraph

    rel = graph.schema.relation(metapath.relations[-1])
    feats = graph.features[rel.dst]
    n, n_src = frontier.shape
    indptr, dst = graph.csr[rel.name]
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    src = np.repeat(np.arange(n_src), np.diff(indptr))[order]
    weighted = np.hstack([feats, np.ones((feats.shape[0], 1))])
    sums = np.zeros((n, weighted.shape[1]))
    width = hetgraph.REACH_BLOCK // max(n, n_src)
    for c0 in range(0, feats.shape[0], width):
        c1 = min(c0 + width, feats.shape[0])
        a, b = np.searchsorted(dst, [c0, c1])
        incidence = np.bincount(src[a:b] * (c1 - c0) + dst[a:b] - c0, minlength=n_src * (c1 - c0))
        counts = frontier @ incidence.reshape(n_src, c1 - c0).astype(np.float64)
        if not multiset:
            np.minimum(counts, 1.0, out=counts)
        sums += counts @ weighted[c0:c1]
    sizes = sums[:, -1:]
    return np.divide(sums[:, :-1], sizes, out=np.zeros((n, feats.shape[1])), where=sizes > 0)


def reach_counts(graph, nodes, relations):
    """``hetgraph.metapath_reach`` as it was, carrying path counts: blocks
    ``(lo, hi, rows, indices, counts)`` in which query row ``lo + rows[k]``
    reaches node ``indices[k]`` along ``counts[k]`` distinct paths, with the
    same row groups and pair order as the set walk."""
    from graphscm import hetgraph

    nodes = np.asarray(nodes, dtype=np.int64)
    hops = [(graph.csr[rel], graph.num_nodes(graph.schema.relation(rel).dst)) for rel in relations]
    n = nodes.shape[0]
    return _walk_counts(hops, 0, n, np.arange(n, dtype=np.int64), nodes, np.ones(n, dtype=np.int64), hetgraph.REACH_BLOCK)


def _walk_counts(hops, lo, hi, rows, cols, counts, block):
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
        nxt = int(np.searchsorted(cum, done + block, side="right"))
        bounds.append(max(nxt, bounds[-1] + 1))
    for a, b in zip(bounds[:-1], bounds[1:]):
        i, j = np.searchsorted(rows, [a, b])
        d = deg[i:j]
        first = np.cumsum(d) - d
        pos = np.arange(int(d.sum()), dtype=np.int64) - np.repeat(first - starts[i:j], d)
        key = np.repeat(rows[i:j] - a, d) * n_dst + indices[pos]
        paths = np.repeat(counts[i:j], d)
        if (b - a) * n_dst <= block:
            acc = np.bincount(key, weights=paths, minlength=(b - a) * n_dst)
            key = np.flatnonzero(acc)
            paths = acc[key].astype(np.int64)
        elif key.size:
            order = np.argsort(key)
            key, paths = key[order], paths[order]
            head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            key, paths = key[head], np.add.reduceat(paths, head)
        yield from _walk_counts(hops[1:], lo + a, lo + b, key // n_dst, key % n_dst, paths, block)


def frontier_counts(graph, nodes, metapath) -> np.ndarray:
    """``hetgraph._frontier`` as it was, for a frontier that fits: the
    (rows, |src|) path counts over every hop of ``metapath`` but the last."""
    src = graph.schema.relation(metapath.relations[-1]).src
    frontier = np.zeros((len(nodes), graph.num_nodes(src)))
    for lo, _, rows, cols, counts in reach_counts(graph, nodes, metapath.relations[:-1]):
        frontier[lo + rows, cols] = counts
    return frontier


def pooled_walk_tiles(graph, nodes, metapath, multiset=False) -> np.ndarray:
    """The walk route of ``hetgraph.pooled_neighbor_features`` as it was:
    each ``reach_counts`` block reduced by ``pool_means_padded``."""
    feats = graph.features[metapath.terminal_type]
    padded = np.vstack([feats, np.zeros((1, feats.shape[1]))])
    nodes = np.asarray(nodes, dtype=np.int64)
    out = np.zeros((nodes.shape[0], feats.shape[1]))
    for lo, hi, rows, indices, counts in reach_counts(graph, nodes, metapath.relations):
        indptr = np.searchsorted(rows, np.arange(hi - lo + 1))
        out[lo:hi] = pool_means_padded(padded, indptr, indices, counts if multiset else None)
    return out


def pool_means_padded(padded: np.ndarray, indptr: np.ndarray, indices: np.ndarray, counts=None) -> np.ndarray:
    """Mean of ``padded[idx]`` over each row's index set (weighted by ``counts``), zero if empty.

    ``padded`` is the feature matrix plus one trailing zero row. Each set is
    laid out along axis 0 of a (steps, rows, D) gather in ascending index
    order, padded at the end with the zero row, and numpy sums along that
    axis one row after another. Counts (0 on padding) scale the gather in
    place, and the weighted sums are divided by ``sum(w)``. Rows go longest
    set first, in tiles whose sets are longer than half the tile's longest;
    a tile gathers at most REACH_BLOCK values unless one set alone is larger.
    """
    from graphscm import hetgraph

    zero = padded.shape[0] - 1
    lens = np.diff(indptr)
    out = np.zeros((lens.shape[0], padded.shape[1]))
    order = np.argsort(-lens, kind="stable")
    neg_sorted = -lens[order]
    i, nonempty = 0, int(np.count_nonzero(lens))
    while i < nonempty:
        top = int(-neg_sorted[i])
        j = int(np.searchsorted(neg_sorted, -(top // 2), side="left"))
        j = min(j, i + max(1, hetgraph.REACH_BLOCK // (top * padded.shape[1])))
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
        i = j
    return out


def write_dataset_lines(graph, out_dir: str) -> None:
    """``hetgraph.write_dataset`` as it was: one formatted value and one
    written line at a time."""
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
        with open(os.path.join(out_dir, f"nodes-{t}.tsv"), "w", encoding="utf-8") as fh:
            for i, row in enumerate(graph.features[t]):
                fh.write("\t".join([str(i)] + [repr(float(v)) for v in row]) + "\n")
    for r in schema.relations:
        with open(os.path.join(out_dir, f"edges-{r.name}.tsv"), "w", encoding="utf-8") as fh:
            for s, d in graph.edges[r.name]:
                fh.write(f"{int(s)}\t{int(d)}\n")
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i, y in enumerate(graph.labels):
            if y != -1:
                fh.write(f"{i}\t{int(y)}\n")


def homophily_table(graph, adj, metapaths) -> np.ndarray:
    nodes = [int(i) for i in graph.labeled_nodes()]
    labels = graph.labels
    values = np.zeros((len(nodes), len(metapaths)))
    for j, mp in enumerate(metapaths):
        missing = []
        for row, node in enumerate(nodes):
            pool = [v for v in neighbor_set(adj, node, mp, exclude_self=True) if labels[v] != -1]
            if pool:
                agree = sum(1 for v in pool if labels[v] == labels[node])
                values[row, j] = agree / len(pool)
            else:
                missing.append(row)
        present = np.setdiff1d(np.arange(len(nodes)), missing)
        fill = float(values[present, j].mean()) if present.size else 0.0
        for row in missing:
            values[row, j] = fill
    return values


def degree_table(graph, adj, relations) -> np.ndarray:
    nodes = [int(i) for i in graph.labeled_nodes()]
    values = np.zeros((len(nodes), len(relations)))
    for j, rel in enumerate(relations):
        for row, node in enumerate(nodes):
            d = len(adj[rel][node])
            values[row, j] = math.log1p(d)
    return values


# ---------------------------------------------------------------------------
# per-network structural assignment: the layout the stacked SCM replaced,
# one tensor per network layer, run through 2-D tape ops, with one scalar
# product per ordered pair

class PairwiseScm:
    """Per-network copies of a stacked ``ScmParameters``' weights.

    Every layer is its own tensor, cut from a slice of the stacked weights;
    the DAG matrix is copied and the label shortcut is shared.
    """

    def __init__(self, params):
        from graphscm.numcore import Tensor

        def leaf(a, name):
            return Tensor(np.array(a, copy=True), name=name)

        def cut(stacked, j, name):
            return [
                (leaf(w.data[j], f"{name}.{j}.{l}.W"), leaf(b.data[j], f"{name}.{j}.{l}.b"))
                for l, (w, b) in enumerate(zip(stacked.weights, stacked.biases))
            ]

        n = self.n_vars = params.n_vars
        self.dag = leaf(params.dag.data, "dag.A")
        self.effect = [cut(params.effect, i, "effect") for i in range(n)]
        self.decoder = [cut(params.decoder, k, "decoder") for k in range(n)]
        self.decoder_calls = 0

    def stacked_grads(self, params) -> dict[str, np.ndarray]:
        """The gradients of the per-network tensors laid out like the stacked
        parameters of ``params`` (a missing gradient reads as zero)."""

        def grad(t):
            return np.zeros(t.shape) if t.grad is None else t.grad

        out = {"dag.A": grad(self.dag)}
        for stacked, nets in ((params.effect, self.effect), (params.decoder, self.decoder)):
            for l, (w, b) in enumerate(zip(stacked.weights, stacked.biases)):
                gw, gb = np.zeros(w.shape), np.zeros(b.shape)
                for j, layers in enumerate(nets):
                    lw, lb = layers[l]
                    gw[j], gb[j] = grad(lw), grad(lb)
                out[w.name], out[b.name] = gw, gb
        return out


def _mlp_forward(layers, x):
    from graphscm.numcore import affine, relu

    w, b = layers[0]
    out = affine(x, w, b)
    for w, b in layers[1:]:
        out = affine(relu(out), w, b)
    return out


def index_scalar(x, i: int, j: int):
    """Entry (i, j) of a 2-D tensor as a 0-d tape tensor."""
    from graphscm.numcore.tensor import Tensor, _accumulate, _record

    assert x.ndim == 2
    out = Tensor(x.data[i, j])

    def backward(g):
        contrib = np.zeros(x.shape)
        contrib[i, j] = g
        _accumulate(x, contrib)

    return _record(out, backward)


def scalar_mul(x, s):
    """``x`` times a 0-d tape tensor ``s``, with the arithmetic ``mul`` had
    when it broadcast a scalar: g * s to ``x`` and the sum of g * x to ``s``."""
    from graphscm.numcore.tensor import Tensor, _accumulate, _record

    assert s.ndim == 0
    out = Tensor(x.data * s.data)

    def backward(g):
        _accumulate(x, g * s.data)
        _accumulate(s, np.asarray((g * x.data).sum()))

    return _record(out, backward)


def structural_assignment(k: int, variables, params: PairwiseScm, _effects=None):
    """Reconstruct variable k from every other variable, weighted by A[:, k],
    one scalar product per cause."""
    from graphscm.numcore import add

    n = params.n_vars
    if _effects is None:
        _effects = {
            i: _mlp_forward(params.effect[i], variables[i])
            for i in range(n)
            if i != k
        }
    acc = None
    for i in range(n):
        if i == k:
            continue
        weighted = scalar_mul(_effects[i], index_scalar(params.dag, i, k))
        acc = weighted if acc is None else add(acc, weighted)
    params.decoder_calls += 1
    return _mlp_forward(params.decoder[k], acc)


def reconstruct_all(variables, params: PairwiseScm):
    """Every structural assignment, sharing one effect pass per variable."""
    effects = {
        i: _mlp_forward(params.effect[i], variables[i])
        for i in range(params.n_vars)
    }
    return [
        structural_assignment(k, variables, params, _effects=effects)
        for k in range(params.n_vars)
    ]


def initial_tensors_with_pair_maps(meta, seed: int) -> dict[str, np.ndarray]:
    """The initial tensors of ``ScmModel(meta, seed)`` while the model had a
    D x D affine map per ordered variable pair, ``scm.pair.W`` (n, n - 1, D,
    D) with ``scm.pair.b``. Replayed from the "init" substream in that
    model's draw order: the encoders (ego, label, then each metapath), the
    DAG's signs, each effect network layer by layer, each pair map cause by
    cause with its targets ascending, each decoder layer by layer, then the
    label shortcut. Every weight is a Kaiming-uniform draw and every bias
    zero."""
    from graphscm.rng import substream

    rng = substream(seed, "init")

    def kaiming(fan_in, fan_out):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    n, width = len(meta.variable_names), meta.hidden_dim
    in_dims = [meta.target_dim, *meta.terminal_dims, meta.num_classes]
    offsets = np.concatenate([[0], np.cumsum(in_dims)])
    enc = np.zeros((offsets[-1], width))
    for j in [0, n - 1, *range(1, n - 1)]:
        enc[offsets[j]:offsets[j + 1]] = kaiming(in_dims[j], width)
    out = {"enc.W": enc, "enc.b": np.zeros((n, width))}
    out["dag.A"] = 0.4 * np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    np.fill_diagonal(out["dag.A"], 0.0)

    def stacked(name, count, layers):
        weights = np.array([[kaiming(width, width) for _ in range(layers)] for _ in range(count)])
        for l in range(layers):
            out[f"{name}.{l}.W"], out[f"{name}.{l}.b"] = weights[:, l], np.zeros((count, width))

    stacked("scm.effect", n, 2)
    out["scm.pair.W"] = np.array([[kaiming(width, width) for _ in range(n - 1)] for _ in range(n)])
    out["scm.pair.b"] = np.zeros((n, n - 1, width))
    stacked("scm.decoder", n, 3)
    out["scm.inv1.W"], out["scm.inv1.b"] = kaiming(width, width), np.zeros(width)
    out["scm.inv2.W"], out["scm.inv2.b"] = kaiming(width, meta.num_classes), np.zeros(meta.num_classes)
    return out


# ---------------------------------------------------------------------------
# the structural assignment's mix with a D x D affine map per ordered pair
# (i -> k), as the model had it before ``numcore.dag_mix`` mixed the causes
# through A alone. ``pair_mix`` formed its sums over causes as products with
# a mixing matrix; ``pair_mix_cells`` is the op before that, with the same
# tape contract plus a ``targets`` argument (every variable, or any one of
# them) where ``pair_mix`` reads every variable or the label from the
# number of causes: every output row is a Python-ordered sum of its cells,
# bit-identical to a chain of per-pair ``affine``, ``scalar_mul`` and ``add``
# records.
# At identity maps and zero biases both are ``dag_mix``.

def _cell_grid(n: int, causes: int, targets: tuple):
    """(rows, causes, targets, cells, feeds) of a ``pair_mix`` call: row r is
    cause ``rows[r]`` with its cells into ``targets[r]``; ``feeds[q]`` lists
    output row q's cells in ascending cause order."""
    if targets == tuple(range(n)) and causes == n:
        rows = np.arange(n)
        slots = np.tile(np.arange(n - 1), (n, 1))
        tgt = slots + (slots >= rows[:, None])
        out = tgt
    else:
        (k,) = targets
        rows = np.array([i for i in range(causes) if i != k])
        tgt = np.full((rows.size, 1), k)
        slots = tgt - (tgt > rows[:, None])
        out = np.zeros_like(tgt)
    feeds = tuple(tuple(zip(*np.nonzero(out == q))) for q in range(len(targets)))
    return rows, tgt, (rows[:, None], slots), feeds


def pair_mix_cells(effects, weight, bias, dag, targets):
    """``numcore.pair_mix`` as per-cell scaled adds, recorded as one tape entry."""
    from graphscm.numcore.tensor import Tensor, _accumulate, _record

    n, c = dag.shape[0], effects.shape[0]
    targets = tuple(int(k) for k in targets)
    rows, tgt, cells, feeds = _cell_grid(n, c, targets)
    E = effects.data[rows]
    W, b = weight.data[cells], bias.data[cells]
    a = dag.data[rows[:, None], tgt]
    pre = np.matmul(E[:, None], W)
    pre += b[:, :, None, :]
    out = np.empty((len(targets),) + pre.shape[2:])
    for q, feed in enumerate(feeds):
        out[q] = pre[feed[0]] * a[feed[0]]
        for cell in feed[1:]:
            out[q] += pre[cell] * a[cell]

    def backward(g):
        dp, da = np.empty(pre.shape), np.empty(a.shape)
        for q, feed in enumerate(feeds):
            for cell in feed:
                np.multiply(g[q], a[cell], out=dp[cell])
                da[cell] = (g[q] * pre[cell]).sum()
        back = np.matmul(dp, W.transpose(0, 1, 3, 2))
        dE = back[:, -1].copy()
        for j in range(back.shape[1] - 2, -1, -1):
            dE += back[:, j]
        grads = (
            (effects, rows, dE),
            (weight, cells, np.matmul(E.transpose(0, 2, 1)[:, None], dp)),
            (bias, cells, dp.sum(axis=2)),
            (dag, (rows[:, None], tgt), da),
        )
        for t, index, d in grads:
            full = np.zeros(t.shape)
            full[index] = d
            _accumulate(t, full)

    return _record(Tensor(out), backward)


def pair_mix(effects, weight, bias, dag):
    """Weighted sums of pairwise affine maps, one per target variable k:

        out[k] = sum_{i != k} (E_i W[i, s(i, k)] + b[i, s(i, k)]) * A[i, k]

    over the causes i = 0 .. c - 1, where s(i, k) = k - (k > i) is the slot
    of the pair map (i -> k). ``effects`` is (c, B, D), ``weight``
    (n, n - 1, D, D), ``bias`` (n, n - 1, D) and ``dag`` (n, n). With c = n
    every variable is a target; with c = n - 1 the one target is the label,
    the last variable, fed from slot n - 2 of each cause. Either way the
    weights and biases read are a block, read in place.

    The products E_i W run as one stacked matmul. The sums over causes are
    small matrix products with ``mix`` (cells x outputs), which holds
    A[i, k] in the output column of cell (i, k) and zero elsewhere; the
    biases are summed apart from the products. So the output and the
    gradients of ``effects``, ``bias`` and ``dag`` round differently from a
    chain of per-pair affine maps, within 1e-12 of it relative to the
    largest entry; the weight gradient keeps that chain's bits, because it
    is E_i^T (A[i, k] g_k) with the same product A[i, k] g_k.

    The products E_i W are dropped once the output is formed, not kept for
    the backward: it runs cause by cause, and reads the gradient of A[i, k]
    as the sum of E_i * (g_k W^T), from the product g_k W^T that the
    gradient of E_i needs anyway.
    """
    from graphscm.errors import DimensionError
    from graphscm.numcore.tensor import Tensor, _accumulate, _record, _scatter

    n = dag.shape[0]
    c = effects.shape[0]
    if weight.shape[:2] != (n, n - 1) or bias.shape != weight.shape[:3]:
        raise DimensionError(f"pair_mix: weight {weight.shape} and bias {bias.shape} do not fit {n} variables")
    if effects.ndim != 3 or c not in (n, n - 1) or effects.shape[2] != weight.shape[2]:
        raise DimensionError(f"pair_mix: effects {effects.shape} do not fit weight {weight.shape}")
    # cell (i, j) is cause i's pair map cells[1][j] into variable targets[i, j],
    # which it feeds through output row feeds[i, j]
    if c == n:
        cells = (slice(0, n), slice(0, n - 1))
        slots = np.arange(n - 1)
        targets = feeds = slots + (slots >= np.arange(n)[:, None])
    else:
        cells = (slice(0, n - 1), slice(n - 2, n - 1))
        targets, feeds = np.full((c, 1), n - 1), np.zeros((c, 1), dtype=np.int64)
    E = effects.data
    W, b = weight.data[cells], bias.data[cells]
    dag_cells = (np.arange(c)[:, None], targets)
    a = dag.data[dag_cells]
    out_index = (np.arange(a.size), feeds.reshape(-1))
    mix = np.zeros((a.size, n if c == n else 1))
    mix[out_index] = a.reshape(-1)
    pre = np.matmul(E[:, None], W).reshape(a.size, -1)
    out = (mix.T @ pre).reshape((mix.shape[1],) + E.shape[1:])
    del pre
    flat_b = b.reshape(a.size, -1)
    out += (mix.T @ flat_b)[:, None, :]

    def backward(g: np.ndarray) -> None:
        gsum = g.sum(axis=1)
        dE, dW, dA = np.empty(E.shape), np.empty(W.shape), np.empty(a.shape)
        gr, q = np.empty((2, W.shape[1]) + g.shape[1:])  # one cause's (cells, B, D) scratch
        for r in range(len(E)):  # cause by cause, so that one cause's cells stay in cache
            np.take(g, feeds[r], axis=0, out=gr, mode="clip")  # in range by construction
            np.matmul(gr, W[r].transpose(0, 2, 1), out=q)
            flat_q = q.reshape(len(q), -1)
            np.matmul(a[r], flat_q, out=dE[r].reshape(-1))
            np.matmul(flat_q, E[r].reshape(-1), out=dA[r])
            gr *= a[r][:, None, None]
            np.matmul(E[r].T, gr, out=dW[r])
        dA += (flat_b @ gsum.T)[out_index].reshape(a.shape)
        grads = (
            (effects, None, dE),
            (weight, cells, dW),
            (bias, cells, (mix @ gsum).reshape(b.shape)),
            (dag, dag_cells, dA),
        )
        for t, index, d in grads:  # the cells may cover part of t
            _accumulate(t, d if d.shape == t.shape else _scatter(t, index, d))

    return _record(Tensor(out), backward)


# ---------------------------------------------------------------------------
# ``stacked_mlp`` as the chain of tape records it replaced: one ``bmm`` per
# layer (slice-wise matmul plus a per-slice bias row), a ``relu`` between
# layers and a ``take`` of each weight and bias when a slice of the networks
# runs

def bmm(x, w, b=None):
    """Slice-wise matmul, (m, B, p) @ (m, p, q) -> (m, B, q), plus one bias
    row per slice (m, q) when ``b`` is given, added in place to the fresh
    product."""
    from graphscm.numcore.tensor import Tensor, _accumulate, _record

    out = np.matmul(x.data, w.data)
    if b is not None:
        out += b.data[:, None, :]

    def backward(g):
        _accumulate(x, np.matmul(g, w.data.transpose(0, 2, 1)))
        _accumulate(w, np.matmul(x.data.transpose(0, 2, 1), g))
        if b is not None:
            _accumulate(b, g.sum(axis=1))

    return _record(Tensor(out), backward)


def stacked_mlp_chain(x, weights, biases, rows=None):
    """``numcore.stacked_mlp`` as per-layer ``take``/``bmm``/``relu`` records."""
    from graphscm.numcore import relu, take

    out = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        if l:
            out = relu(out)
        if rows is not None:
            w, b = take(w, rows), take(b, rows)
        out = bmm(out, w, b)
    return out


# ---------------------------------------------------------------------------
# AdamW over whole arrays, with the bias corrections applied to the moments:
# the update before they were folded into the step size; and the folded
# update in cache-sized chunks, as ``AdamW.step`` ran before whole-array passes

def adamw_step_whole(opt) -> None:
    """One step of ``opt`` (a ``numcore.AdamW``), each parameter updated by
    whole-array expressions. ``AdamW.step`` keeps the bits of the moments
    and lands within 1e-12 of the parameters."""
    from graphscm.numcore.optim import BETA1, BETA2, EPS

    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for i, p in enumerate(opt.params):
        g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
        assert g.shape == p.data.shape
        opt.m[i] = BETA1 * opt.m[i] + (1.0 - BETA1) * g
        opt.v[i] = BETA2 * opt.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = opt.m[i] / bc1
        v_hat = opt.v[i] / bc2
        p.data = p.data - opt.lr * (m_hat / (np.sqrt(v_hat) + EPS) + opt.decay[i] * p.data)


def adamw_step_chunked(opt, chunk: int = 32768) -> None:
    """``AdamW.step`` as it was: the same folded update, each parameter
    walked in pieces of ``chunk`` elements through two scratch buffers."""
    from graphscm.numcore.optim import BETA1, BETA2, EPS

    opt.step_count += 1
    t = opt.step_count
    b1, b2 = BETA1, BETA2
    root_bc2 = math.sqrt(1.0 - b2 ** t)
    lr_t = opt.lr * root_bc2 / (1.0 - b1 ** t)
    eps_t = EPS * root_bc2
    scratch_x, scratch_y = np.empty(chunk), np.empty(chunk)
    for i, p in enumerate(opt.params):
        g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
        assert g.shape == p.data.shape
        keep = 1.0 - opt.lr * opt.decay[i]
        m, v, new = np.empty(p.shape), np.empty(p.shape), np.empty(p.shape)
        flat = [a.reshape(-1) for a in (g, opt.m[i], opt.v[i], p.data, m, v, new)]
        for lo in range(0, g.size, chunk):
            gc, mc, vc, pc, mo, vo, po = (a[lo : lo + chunk] for a in flat)
            x, y = scratch_x[: gc.size], scratch_y[: gc.size]
            np.multiply(mc, b1, out=mo)
            np.multiply(gc, 1.0 - b1, out=x)
            mo += x
            np.multiply(vc, b2, out=vo)
            np.multiply(gc, gc, out=x)
            x *= 1.0 - b2
            vo += x
            np.sqrt(vo, out=y)
            y += eps_t
            np.divide(mo, y, out=x)
            x *= lr_t
            np.multiply(pc, keep, out=po)
            po -= x
        opt.m[i], opt.v[i] = m, v
        p.data = new


# ---------------------------------------------------------------------------
# sum of squares as a tape record: the reducer ``sq_error`` replaced in the
# reconstruction loss, and the scalar the gradient checks differentiate

def frobenius_sq(x):
    """Sum of squared entries as a 0-d tensor. A stacked (3-D) tensor is
    summed slice by slice and the slice sums are added in order."""
    from graphscm.numcore.tensor import Tensor, _accumulate, _record

    squares = x.data * x.data
    if x.ndim == 3:
        total = squares[0].sum()
        for part in squares[1:]:
            total = total + part.sum()
    else:
        total = squares.sum()

    def backward(g):
        _accumulate(x, g * 2.0 * x.data)

    return _record(Tensor(total), backward)


def sq_error_chain(a, b, c):
    """``numcore.sq_error`` as the ``sub``/``frobenius_sq``/``scale`` records
    it replaced."""
    from graphscm.numcore import scale, sub

    return scale(frobenius_sq(sub(a, b)), c)


# ---------------------------------------------------------------------------
# per-variable encoders and reconstruction loss: the layout the stacked
# ``Encoders`` and stacked ``loss_rec`` replaced

class PerVariableEncoders:
    """Per-slot copies of a stacked ``Encoders``' weights: one affine map per
    encoded variable, cut from its rows of ``enc.W``."""

    def __init__(self, enc):
        from graphscm.numcore import Tensor

        def leaf(a, name):
            return Tensor(np.array(a, copy=True), name=name)

        self.hidden_dim = enc.hidden_dim
        self.in_dims = list(enc.in_dims)
        self.maps = [
            (leaf(enc.weight.data[enc.rows(j)], f"enc.{j}.W"), leaf(enc.bias.data[j], f"enc.{j}.b"))
            for j in range(len(self.in_dims))
        ]

    def stacked_grads(self, enc) -> dict[str, np.ndarray]:
        gw, gb = np.zeros(enc.weight.shape), np.zeros(enc.bias.shape)
        for j, (w, b) in enumerate(self.maps):
            if w.grad is not None:
                gw[enc.rows(j)] = w.grad
            if b.grad is not None:
                gb[j] = b.grad
        return {"enc.W": gw, "enc.b": gb}


def encode_variables(ego, pooled, labels, enc: PerVariableEncoders):
    """The variables [ego, metapaths..., label] of a batch, one 2-D tensor
    each: ego, then the metapath pools, then the label (zero when ``labels``
    is None)."""
    from graphscm.encoders import one_hot
    from graphscm.numcore import Tensor, affine

    def encode(j, x):
        return affine(Tensor(x), *enc.maps[j])

    out = [encode(0, ego)] + [encode(1 + j, p) for j, p in enumerate(pooled)]
    if labels is None:
        out.append(Tensor(np.zeros((ego.shape[0], enc.hidden_dim))))
    else:
        out.append(encode(len(enc.maps) - 1, one_hot(labels, enc.in_dims[-1])))
    return out


def loss_rec(h, h_hat):
    """Mean squared reconstruction error over lists of per-variable tensors."""
    from graphscm.numcore import add, scale, sub

    acc = None
    for a, b in zip(h, h_hat):
        term = frobenius_sq(sub(a, b))
        acc = term if acc is None else add(acc, term)
    return scale(acc, 1.0 / (h[0].shape[0] * len(h)))


def coauthor_pairs(graph) -> list[tuple[int, int]]:
    """All unordered author pairs sharing a paper, by a per-paper pair loop
    over the ``write`` edge list."""
    writers: dict[int, list[int]] = {}
    for a, p in graph.edges["write"]:
        writers.setdefault(int(p), []).append(int(a))
    pairs = set()
    for authors in writers.values():
        for i in range(len(authors)):
            for j in range(i + 1, len(authors)):
                x, y = sorted((authors[i], authors[j]))
                if x != y:
                    pairs.add((x, y))
    return sorted(pairs)


def draw_partners_lists(rng, author, pool_by_label, label, strength, count):
    """``synth._draw_partners`` as it was: the same-class and other-class
    pools rebuilt as Python lists over every author, for every author (the
    pools arrive as arrays and are turned back into the lists it took)."""
    pool_by_label = {c: pool.tolist() for c, pool in pool_by_label.items()}
    same = [a for a in pool_by_label[label] if a != author]
    other = [a for a in sum((pool_by_label[c] for c in pool_by_label if c != label), [])]
    n_same = int(np.sum(rng.random(count) < strength))
    n_same = min(n_same, len(same))
    n_other = min(count - n_same, len(other))
    picked = []
    if n_same:
        picked += [int(i) for i in rng.choice(same, size=n_same, replace=False)]
    if n_other:
        picked += [int(i) for i in rng.choice(other, size=n_other, replace=False)]
    return picked


def draw_terms_choice(rng, paper_venue_class, term_class):
    """``synth._draw_terms`` as it was: each term drawn with
    ``rng.choice(pool)``, the pool rebuilt for every draw."""
    from graphscm.synth import TERM_CLASS_AFFINITY, TERMS_PER_PAPER

    use_edges = []
    for p, vclass in enumerate(paper_venue_class):
        picked: set[int] = set()
        while len(picked) < TERMS_PER_PAPER:
            if vclass is not None and rng.random() < TERM_CLASS_AFFINITY:
                pool = np.flatnonzero(term_class == vclass)
            else:
                pool = np.arange(term_class.shape[0])
            picked.add(int(rng.choice(pool)))
        for t in sorted(picked):
            use_edges.append((p, t))
    return use_edges


# ---------------------------------------------------------------------------
# checkpoint files: the version-8 writer, and the two parts of a version-9
# file (the JSON header line and the data section)

def _encode_tensor_v8(array: np.ndarray) -> dict:
    """The checkpoint entry of one tensor: its shape, dtype and base64 bytes."""
    raw = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {
        "shape": list(array.shape),
        "dtype": "<f8",
        "data": base64.b64encode(raw).decode("ascii"),
    }


def save_checkpoint_v8(model, path: str) -> None:
    """``scm.save_checkpoint`` as it was at version 8: one JSON object whose
    tensors are base64 strings of their row-major little-endian float64
    bytes."""
    payload = {
        "format": "graphscm-checkpoint",
        "version": 8,
        "meta": asdict(model.meta),
        "tensors": {
            name: _encode_tensor_v8(p.data) for name, p in sorted(model.named_parameters().items())
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # one dumps call runs the C encoder; json.dump to a file handle does not
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_checkpoint_v9(path: str) -> tuple[dict, dict[str, bytes]]:
    """The parsed header of the version-9 checkpoint at ``path`` and each
    tensor's bytes, cut from the data section in name order by the header's
    shapes."""
    with open(path, "rb") as fh:
        line, data = fh.read().split(b"\n", 1)
    header = json.loads(line)
    parts, offset = {}, 0
    for name, entry in sorted(header["tensors"].items()):
        size = 8 * math.prod(entry["shape"])
        parts[name] = data[offset : offset + size]
        offset += size
    assert offset == len(data), (offset, len(data))
    return header, parts


def checkpoint_v9_bytes(header: dict, data) -> bytes:
    """``header`` as a version-9 header line, then ``data``: the data
    section's bytes, or a dict of each tensor's bytes, laid out in name
    order."""
    if isinstance(data, dict):
        data = b"".join(data[name] for name in sorted(data))
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + data


def write_checkpoint_v9(path: str, header: dict, data) -> None:
    """Write the file of ``checkpoint_v9_bytes(header, data)`` at ``path``."""
    with open(path, "wb") as fh:
        fh.write(checkpoint_v9_bytes(header, data))

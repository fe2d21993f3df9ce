"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (loops, enumeration, truncated
series) and shares no code with the implementations under test, except
that the per-pair structural assignment is built from numcore's 2-D tape
ops (matmul, add, mul, index_scalar) rather than the stacked ones it checks,
and the cell-by-cell ``pair_mix`` and the ``bmm`` chain of ``stacked_mlp``
record on numcore's tape.
"""

from __future__ import annotations

import json
import math
import os

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
    """Per-node pooled means. Multiset means are the previous implementation's
    ``(w @ feats[idx]) / w.sum()``, summed in BLAS order, or with ``ordered``
    the sparse route's contract: ``fl(w_k * F_k)`` added one terminal after
    another in ascending id order, over ``sum(w)``."""
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


def degree_table(graph, adj, relations, log_transform=True) -> np.ndarray:
    nodes = [int(i) for i in graph.labeled_nodes()]
    values = np.zeros((len(nodes), len(relations)))
    for j, rel in enumerate(relations):
        for row, node in enumerate(nodes):
            d = len(adj[rel][node])
            values[row, j] = math.log1p(d) if log_transform else float(d)
    return values


# ---------------------------------------------------------------------------
# per-pair structural assignment: the layout the stacked SCM replaced, one
# tensor per network layer and per ordered pair, run through 2-D tape ops

class PairwiseScm:
    """Per-network copies of a stacked ``ScmParameters``' weights.

    Every layer and pair map is its own tensor, cut from a slice of the
    stacked weights; the DAG matrix is copied and the label shortcut is
    shared.
    """

    def __init__(self, params):
        from graphscm.numcore import Tensor

        def leaf(a, name):
            return Tensor(np.array(a, copy=True), requires_grad=True, name=name)

        def cut(stacked, j, name):
            return [
                (leaf(w.data[j], f"{name}.{j}.{l}.W"), leaf(b.data[j], f"{name}.{j}.{l}.b"))
                for l, (w, b) in enumerate(zip(stacked.weights, stacked.biases))
            ]

        n = self.n_vars = params.n_vars
        self.dag = leaf(params.dag.data, "dag.A")
        self.effect = [cut(params.effect, i, "effect") for i in range(n)]
        self.pair = {}
        for i in range(n):
            for k in range(n):
                if i != k:
                    s = k - (k > i)
                    self.pair[(i, k)] = (
                        leaf(params.pair_weight.data[i, s], f"pair.{i}.{k}.W"),
                        leaf(params.pair_bias.data[i, s], f"pair.{i}.{k}.b"),
                    )
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
        gw, gb = np.zeros(params.pair_weight.shape), np.zeros(params.pair_bias.shape)
        for (i, k), (w, b) in self.pair.items():
            s = k - (k > i)
            gw[i, s], gb[i, s] = grad(w), grad(b)
        out["scm.pair.W"], out["scm.pair.b"] = gw, gb
        return out


def _mlp_forward(layers, x):
    from graphscm.numcore import add, matmul, relu

    w, b = layers[0]
    out = add(matmul(x, w), b)
    for w, b in layers[1:]:
        out = add(matmul(relu(out), w), b)
    return out


def structural_assignment(k: int, variables, params: PairwiseScm, _effects=None):
    """Reconstruct variable k from every other variable, weighted by A[:, k],
    one affine map and one scalar product per cause."""
    from graphscm.numcore import add, index_scalar, matmul, mul

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
        w, b = params.pair[(i, k)]
        weighted = mul(add(matmul(_effects[i], w), b), index_scalar(params.dag, i, k))
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


# ---------------------------------------------------------------------------
# ``pair_mix`` cell by cell: the op before its sums over causes became
# products with a mixing matrix. Same signature and tape contract; every
# output row is a Python-ordered sum of its cells, bit-identical to a chain
# of per-pair ``matmul``/``add``/``mul`` records.

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
            if t.requires_grad:
                full = np.zeros(t.shape)
                full[index] = d
                _accumulate(t, full)

    return _record(Tensor(out), (effects, weight, bias, dag), backward)


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
        if x.requires_grad:
            _accumulate(x, np.matmul(g, w.data.transpose(0, 2, 1)))
        if w.requires_grad:
            _accumulate(w, np.matmul(x.data.transpose(0, 2, 1), g))
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=1))

    return _record(Tensor(out), (x, w) if b is None else (x, w, b), backward)


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
# the update before it ran in cache-sized chunks with the corrections folded
# into the step size

def adamw_step_whole(opt) -> None:
    """One step of ``opt`` (a ``numcore.AdamW``), each parameter updated by
    whole-array expressions. ``AdamW.step`` keeps the bits of the moments
    and lands within 1e-12 of the parameters."""
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for i, p in enumerate(opt.params):
        g = np.zeros(p.shape) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
        assert g.shape == p.data.shape
        opt.m[i] = opt.beta1 * opt.m[i] + (1.0 - opt.beta1) * g
        opt.v[i] = opt.beta2 * opt.v[i] + (1.0 - opt.beta2) * (g * g)
        m_hat = opt.m[i] / bc1
        v_hat = opt.v[i] / bc2
        p.data = p.data - opt.lr * (m_hat / (np.sqrt(v_hat) + opt.eps) + opt.decay[i] * p.data)


# ---------------------------------------------------------------------------
# per-variable encoders and reconstruction loss: the layout the stacked
# ``Encoders`` and stacked ``loss_rec`` replaced

class PerVariableEncoders:
    """Per-slot copies of a stacked ``Encoders``' weights: one affine map per
    encoded variable, cut from its rows of ``enc.W``."""

    def __init__(self, enc):
        from graphscm.numcore import Tensor

        def leaf(a, name):
            return Tensor(np.array(a, copy=True), requires_grad=True, name=name)

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
    from graphscm.numcore import Tensor, add, matmul

    def affine(j, x):
        w, b = enc.maps[j]
        return add(matmul(Tensor(x), w), b)

    out = [affine(0, ego)] + [affine(1 + j, p) for j, p in enumerate(pooled)]
    if labels is None:
        out.append(Tensor(np.zeros((ego.shape[0], enc.hidden_dim))))
    else:
        out.append(affine(len(enc.maps) - 1, one_hot(labels, enc.in_dims[-1])))
    return out


def loss_rec(h, h_hat):
    """Mean squared reconstruction error over lists of per-variable tensors."""
    from graphscm.numcore import add, frobenius_sq, scale, sub

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

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (loops, enumeration, truncated
series) and shares no code with the implementations under test.
"""

from __future__ import annotations

import math

import numpy as np


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
    """Terminal nodes reachable from ``node``; the origin id is dropped with ``exclude_self``."""
    frontier = {int(node)}
    for rel in metapath.relations:
        rows = adj[rel]
        frontier = {d for s in frontier for d in rows[s]}
        if not frontier:
            break
    if exclude_self:
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


def pooled_table(graph, adj, nodes, metapath, multiset=False, exclude_self=False) -> np.ndarray:
    feats = graph.features[metapath.terminal_type]
    out = np.zeros((len(nodes), feats.shape[1]))
    for i, node in enumerate(nodes):
        if multiset:
            counts = path_counts(adj, int(node), metapath)
            if exclude_self:
                counts.pop(int(node), None)
            if counts:
                idx = sorted(counts)
                w = np.array([counts[j] for j in idx], dtype=np.float64)
                out[i] = (w @ feats[idx]) / w.sum()
        else:
            pool = neighbor_set(adj, int(node), metapath, exclude_self=exclude_self)
            if pool:
                idx = sorted(pool)
                out[i] = feats[idx].mean(axis=0)
    return out


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

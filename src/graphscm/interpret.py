"""Causal-diagram extraction from a learned DAG matrix.

Trimming removes nonzero edges in order of increasing |weight| (ties by
source then destination index), checking acyclicity after every removal and
stopping at the first point where the remaining graph is acyclic. The
survivors form the exported diagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, LoadError, read_json
from .numcore import Tensor


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    weight: float


@dataclass
class CausalDiagram:
    names: list[str]
    edges: list[Edge]
    removal_log: list[dict] = field(default_factory=list)  # {src, dst, abs_weight, step}

    def edge_set(self) -> set[tuple[str, str]]:
        return {(e.src, e.dst) for e in self.edges}

    def support(self) -> np.ndarray:
        pos = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        out = np.zeros((n, n), dtype=bool)
        for e in self.edges:
            out[pos[e.src], pos[e.dst]] = True
        return out


def _is_acyclic(support: np.ndarray) -> bool:
    n = support.shape[0]
    indegree = support.sum(axis=0).astype(int)
    queue = [i for i in range(n) if indegree[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in np.flatnonzero(support[u]):
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(int(v))
    return seen == n


def trim_to_dag(a, names: list[str]) -> CausalDiagram:
    """Greedy smallest-|weight|-first edge removal until the graph is acyclic."""
    matrix = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"trim_to_dag needs a square matrix, got {matrix.shape}")
    n = matrix.shape[0]
    if len(names) != n:
        raise ContractError(f"{len(names)} names for a {n}x{n} matrix")
    if np.any(np.diag(matrix) != 0.0):
        raise ContractError("the DAG matrix must have a zero diagonal")

    candidates = [
        (abs(matrix[i, j]), i, j)
        for i in range(n)
        for j in range(n)
        if i != j and matrix[i, j] != 0.0
    ]
    candidates.sort()  # ascending |weight|, ties by (src, dst)

    support = matrix != 0.0
    removal_log: list[dict] = []
    for step, (magnitude, i, j) in enumerate(candidates, start=1):
        if _is_acyclic(support):
            break
        support[i, j] = False
        removal_log.append(
            {"src": names[i], "dst": names[j], "abs_weight": float(magnitude), "step": step}
        )
    if not _is_acyclic(support):
        raise AssertionError("edge removal exhausted without reaching acyclicity")

    edges = [
        Edge(src=names[i], dst=names[j], weight=float(matrix[i, j]))
        for i in range(n)
        for j in range(n)
        if support[i, j]
    ]
    return CausalDiagram(names=list(names), edges=edges, removal_log=removal_log)


def edge_rank_into(diagram: CausalDiagram, target: str) -> list[Edge]:
    """Incoming edges of ``target`` by descending |weight| (ties by source)."""
    if target not in diagram.names:
        raise ContractError(f"unknown variable {target!r}")
    incoming = [e for e in diagram.edges if e.dst == target]
    return sorted(incoming, key=lambda e: (-abs(e.weight), e.src))


def export_dot(diagram: CausalDiagram) -> str:
    """Deterministic .dot text: one node per variable, weights to 3 decimals."""
    lines = ["digraph causal {"]
    for name in diagram.names:
        lines.append(f"  {name};")
    for e in diagram.edges:
        lines.append(f"  {e.src} -> {e.dst} [label={e.weight:.3f}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str, float]]]:
    """Line-oriented re-reader for round-trip checks of export_dot output."""
    names: list[str] = []
    edges: list[tuple[str, str, float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("digraph") or line == "}":
            continue
        if "->" in line:
            left, rest = line.split("->", 1)
            dst, label = rest.split("[label=", 1)
            edges.append((left.strip(), dst.strip(), float(label.rstrip("];"))))
        else:
            names.append(line.rstrip(";"))
    return names, edges


def diagram_to_json(diagram: CausalDiagram, path: str) -> None:
    payload = {
        "variables": diagram.names,
        "edges": [{"src": e.src, "dst": e.dst, "weight": e.weight} for e in diagram.edges],
        "removals": diagram.removal_log,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def diagram_from_json(path: str) -> CausalDiagram:
    raw = read_json(path)
    try:
        diagram = CausalDiagram(
            names=list(raw["variables"]),
            edges=[Edge(e["src"], e["dst"], float(e["weight"])) for e in raw["edges"]],
            removal_log=list(raw.get("removals", [])),
        )
    except KeyError as exc:
        raise LoadError(f"{path}: malformed diagram file: {exc}") from exc
    if not _is_acyclic(diagram.support()):
        raise LoadError(f"{path}: stored diagram contains a cycle")
    return diagram

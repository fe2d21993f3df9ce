import json

import numpy as np
import pytest

from graphscm.errors import ContractError
from graphscm.interpret import (
    CausalDiagram,
    Edge,
    diagram_to_json,
    edge_rank_into,
    export_dot,
    parse_dot,
    trim_to_dag,
)

from oracles import has_cycle, topological_order


def _edges(diagram):
    return {(e.src, e.dst) for e in diagram.edges}


def _matrix(n, entries):
    a = np.zeros((n, n))
    for (i, j), w in entries.items():
        a[i, j] = w
    return a


def test_already_acyclic_removes_nothing():
    a = _matrix(3, {(0, 1): 0.5, (1, 2): -0.25})
    diagram = trim_to_dag(a, ["x", "y", "z"])
    assert diagram.removal_log == []
    assert _edges(diagram) == {("x", "y"), ("y", "z")}


def test_two_cycle_drops_weaker_edge():
    a = _matrix(2, {(0, 1): 0.9, (1, 0): 0.1})
    diagram = trim_to_dag(a, ["a", "b"])
    assert _edges(diagram) == {("a", "b")}
    assert len(diagram.removal_log) == 1
    assert diagram.removal_log[0]["src"] == "b"


def test_three_cycle_single_removal():
    a = _matrix(3, {(0, 1): 0.5, (1, 2): 0.3, (2, 0): 0.8})
    diagram = trim_to_dag(a, ["u", "v", "w"])
    assert len(diagram.removal_log) == 1
    assert diagram.removal_log[0] == {"src": "v", "dst": "w", "abs_weight": 0.3, "step": 1}
    assert not has_cycle(diagram.support())


def test_ties_break_by_source_then_destination():
    a = _matrix(2, {(0, 1): 0.5, (1, 0): -0.5})
    diagram = trim_to_dag(a, ["a", "b"])
    # equal magnitude: (0, 1) sorts first and is removed first
    assert diagram.removal_log[0]["src"] == "a"
    assert _edges(diagram) == {("b", "a")}


def test_zero_weight_edges_never_emitted():
    a = _matrix(3, {(0, 1): 0.0, (1, 2): 0.4})
    diagram = trim_to_dag(a, ["x", "y", "z"])
    assert _edges(diagram) == {("y", "z")}


def test_nonzero_diagonal_rejected():
    with pytest.raises(ContractError):
        trim_to_dag(np.eye(2), ["a", "b"])


def test_random_digraphs_trim_properties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.45)
        np.fill_diagonal(a, 0.0)
        names = [f"v{i}" for i in range(6)]
        diagram = trim_to_dag(a, names)
        # independent oracle: Kahn topological sort must succeed on the survivors
        assert topological_order(diagram.support()) is not None
        log = diagram.removal_log
        magnitudes = [entry["abs_weight"] for entry in log]
        assert magnitudes == sorted(magnitudes)
        if log:
            # greedy-order invariant: no surviving edge is weaker than the
            # strongest removed edge only if removal stopped early...
            # every removed edge is no heavier than any removed after it
            steps = [entry["step"] for entry in log]
            assert steps == list(range(1, len(log) + 1))
        # removing zero edges happens iff the input was already acyclic
        assert (len(log) == 0) == (not has_cycle(a != 0.0))
        # greedy order: removals form an ascending prefix, so no surviving
        # edge is lighter than a removed one
        if log and diagram.edges:
            assert max(magnitudes) <= min(abs(e.weight) for e in diagram.edges)


def test_no_removal_after_acyclicity_reached():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.5)
        np.fill_diagonal(a, 0.0)
        diagram = trim_to_dag(a, [f"v{i}" for i in range(5)])
        support = (a != 0.0).copy()
        for entry in diagram.removal_log[:-1]:
            # before the last removal the graph must still be cyclic
            i = diagram.names.index(entry["src"])
            j = diagram.names.index(entry["dst"])
            assert has_cycle(support)
            support[i, j] = False
        if diagram.removal_log:
            assert has_cycle(support)  # right up to the final removal


def test_edge_rank_into():
    diagram = CausalDiagram(
        names=["a", "b", "y"],
        edges=[Edge("a", "y", 0.2), Edge("b", "y", -0.8), Edge("a", "b", 0.5)],
    )
    ranked = edge_rank_into(diagram, "y")
    assert [(e.src, e.weight) for e in ranked] == [("b", -0.8), ("a", 0.2)]
    assert edge_rank_into(diagram, "a") == []
    with pytest.raises(ContractError):
        edge_rank_into(diagram, "nope")


def test_export_dot_single_edge_format():
    diagram = CausalDiagram(names=["EGO", "Y"], edges=[Edge("EGO", "Y", 0.25)])
    text = export_dot(diagram)
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(edge_lines) == 1
    assert "EGO -> Y [label=0.250]" in edge_lines[0]


def test_export_dot_empty_edges_nodes_only():
    diagram = CausalDiagram(names=["A", "B"], edges=[])
    names, edges = parse_dot(export_dot(diagram))
    assert names == ["A", "B"] and edges == []


def test_export_dot_roundtrip_counts():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.4)
    np.fill_diagonal(a, 0.0)
    diagram = trim_to_dag(a, [f"n{i}" for i in range(5)])
    names, edges = parse_dot(export_dot(diagram))
    assert names == diagram.names
    assert len(edges) == len(diagram.edges)
    assert export_dot(diagram) == export_dot(diagram)  # byte-stable


def test_json_roundtrip_preserves_ranking(tmp_path):
    a = _matrix(3, {(0, 2): 0.9, (1, 2): -0.1, (0, 1): 0.4})
    diagram = trim_to_dag(a, ["p", "q", "y"])
    path = str(tmp_path / "diagram.json")
    diagram_to_json(diagram, path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    again = CausalDiagram(raw["variables"], [Edge(e["src"], e["dst"], e["weight"]) for e in raw["edges"]])
    assert again.edges == diagram.edges
    assert raw["removals"] == diagram.removal_log
    assert [(e.src, e.dst) for e in edge_rank_into(again, "y")] == [
        (e.src, e.dst) for e in edge_rank_into(diagram, "y")
    ]

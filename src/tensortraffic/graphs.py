"""Linear graphs: directed multigraphs with a total order on the edges.

A graph of order K has K edges; the position of an edge in the `edges`
tuple is its number. Edges are (source, target) pairs of 0-based vertex
ids. Loops, parallel edges and isolated vertices are all allowed, and
isolated vertices are never dropped by any operation here (they carry a
dimension factor in graph traces).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidArgumentError, ResourceLimitError
from .partitions import SetPartition, find_root, union_roots

GRAPH_SIZE_CAP = 100_000  # on the vertices and on the edges of graph input


@dataclass(frozen=True)
class LinearGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise InvalidArgumentError("vertex_count must be >= 0")
        object.__setattr__(self, "edges",
                           tuple((int(s), int(t)) for s, t in self.edges))
        for s, t in self.edges:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise InvalidArgumentError(
                    f"edge ({s},{t}) outside vertex range [0,{self.vertex_count})")

    @property
    def order(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def touched_vertices(self) -> set[int]:
        out = set()
        for s, t in self.edges:
            out.add(s)
            out.add(t)
        return out


def minimal_graph(k: int) -> LinearGraph:
    """The order-K graph of K disjoint edges, 0-based edge i running K+i -> i."""
    if k < 1:
        raise InvalidArgumentError("order must be >= 1")
    return LinearGraph(2 * k, tuple((k + i, i) for i in range(k)))


def quotient(graph: LinearGraph, pi: SetPartition) -> LinearGraph:
    """Merge vertices according to pi; vertex i corresponds to position i+1."""
    if pi.n != graph.vertex_count:
        raise InvalidArgumentError(
            f"partition of {pi.n} elements does not fit a graph "
            f"on {graph.vertex_count} vertices")
    return LinearGraph(pi.num_blocks,
                       tuple((pi.rgs[s], pi.rgs[t]) for s, t in graph.edges))


def kernel(entries) -> SetPartition:
    """Partition of positions 1..n grouping equal entries of a multi-index."""
    return SetPartition.from_values(entries)


def canonical_form(graph: LinearGraph) -> LinearGraph:
    """Deterministic relabeling: first appearance in edge order, source first.

    Isolated vertices are appended last. Two graphs are equal up to an
    order-preserving directed isomorphism iff their canonical forms are
    identical (the edge order is total, so the relabeling is forced).
    """
    relabel: dict[int, int] = {}
    for s, t in graph.edges:
        if s not in relabel:
            relabel[s] = len(relabel)
        if t not in relabel:
            relabel[t] = len(relabel)
    for v in range(graph.vertex_count):
        if v not in relabel:
            relabel[v] = len(relabel)
    return LinearGraph(graph.vertex_count,
                       tuple((relabel[s], relabel[t]) for s, t in graph.edges))


def adjoint_graph(graph: LinearGraph) -> LinearGraph:
    """Reverse the orientation of every edge, keeping the edge order."""
    return LinearGraph(graph.vertex_count,
                       tuple((t, s) for s, t in graph.edges))


def disjoint_union(a: LinearGraph, b: LinearGraph) -> LinearGraph:
    """Disjoint union; a's edges first, b's vertices shifted by |V(a)|."""
    shift = a.vertex_count
    return LinearGraph(a.vertex_count + b.vertex_count,
                       a.edges + tuple((s + shift, t + shift) for s, t in b.edges))


def connected_components(graph: LinearGraph) -> list[frozenset[int]]:
    """Vertex sets of undirected connected components, isolated vertices included."""
    parent = list(range(graph.vertex_count))
    for s, t in graph.edges:
        union_roots(parent, s, t)
    groups: dict[int, set[int]] = {}
    for v in range(graph.vertex_count):
        groups.setdefault(find_root(parent, v), set()).add(v)
    return [frozenset(groups[r]) for r in sorted(groups)]


def component_count(graph: LinearGraph) -> int:
    """c(T): number of connected components, isolated vertices included."""
    return len(connected_components(graph))


# --- JSON wire format -------------------------------------------------------
#
# {"vertices": <int>, "edges": [[src, tgt], ...]} with 0-based ids and the
# array order giving the edge order. Optional labels:
# "labels": {"delta": [<int>, ...], "eps": ["u"|"s", ...]} ("s" marks a star).

def graph_to_json(graph: LinearGraph, labels=None) -> dict:
    doc = {"vertices": graph.vertex_count,
           "edges": [[s, t] for s, t in graph.edges]}
    if labels is not None:
        delta, eps = labels
        doc["labels"] = {"delta": list(delta),
                         "eps": ["s" if star else "u" for star in eps]}
    return doc


def graph_from_json(doc: dict):
    """Returns (graph, labels) with labels = (delta, eps) or None."""
    try:
        vertices, edges = int(doc["vertices"]), doc["edges"]
        if vertices > GRAPH_SIZE_CAP or len(edges) > GRAPH_SIZE_CAP:
            raise ResourceLimitError(
                f"graph input capped at {GRAPH_SIZE_CAP} vertices and edges")
        graph = LinearGraph(vertices,
                            tuple((int(s), int(t)) for s, t in edges))
        if "labels" not in doc:
            return graph, None
        delta = tuple(int(d) for d in doc["labels"]["delta"])
        eps = tuple(e == "s" for e in doc["labels"]["eps"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed graph document: {exc}") from exc
    if len(delta) != graph.order or len(eps) != graph.order:
        raise InvalidArgumentError("label arity does not match edge count")
    return graph, (delta, eps)


def load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return graph_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read graph {path!r}: {exc}") from exc

"""Structural graph invariants: bridges, two-edge-connected components, the
leaf count that governs trace growth, cactus predicates and the validity of
a labeling, the split of a two-colored graph into its colored subgraphs,
and the splitting exponent of such a split from three leaf counts.

All predicates treat the graph as an undirected multigraph except where a
directed notion is explicitly involved (well-orientedness, cycle words).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .graphs import LinearGraph
from .partitions import find_root, union_roots


# --- blocks (biconnected components), bridges and the leaf count --------------

def _blocks(n: int, edges) -> list[list[int]]:
    """Edge ids grouped into biconnected blocks; each loop is its own block.

    Iterative depth-first search with low-links and an edge stack (Tarjan,
    SIAM J. Comput. 1972); re-entering a vertex through a parallel copy of
    the entry edge closes a two-edge block.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    blocks: list[list[int]] = []
    for eid, (s, t) in enumerate(edges):
        if s == t:
            blocks.append([eid])
        else:
            adj[s].append((eid, t))
            adj[t].append((eid, s))
    order = [-1] * n
    low = [0] * n
    counter = 0
    estack: list[int] = []
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for eid, w in it:
                if eid == in_edge:
                    continue
                if order[w] == -1:
                    estack.append(eid)
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if order[w] < order[v]:
                    estack.append(eid)
                    if order[w] < low[v]:
                        low[v] = order[w]
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= order[pv]:
                        blk = []
                        while True:
                            eid2 = estack.pop()
                            blk.append(eid2)
                            if eid2 == in_edge:
                                break
                        blocks.append(blk)
    return blocks


def _is_cycle(edges, block: list[int]) -> bool:
    """A block is a cycle iff it has as many edges as vertices; a loop is a
    length-one cycle, a single non-loop edge (a bridge) is not."""
    verts = {v for eid in block for v in edges[eid]}
    return len(block) == len(verts)


def cutting_edges(graph: LinearGraph) -> frozenset[int]:
    """Edge ids of the bridges of the underlying undirected multigraph: the
    one-edge blocks that are not loops. Parallel copies share a block, so
    neither loops nor parallel edges are ever bridges.
    """
    edges = graph.edges
    return frozenset(b[0] for b in _blocks(graph.vertex_count, edges)
                     if len(b) == 1 and edges[b[0]][0] != edges[b[0]][1])


@dataclass(frozen=True)
class ForestOfTEC:
    """Two-edge-connected components of a graph and the bridges linking them."""

    components: tuple[frozenset[int], ...]
    forest_edges: tuple[tuple[int, int, int], ...]  # (comp_i, comp_j, edge_id)
    degrees: tuple[int, ...]  # bridge endpoints in each component


def forest_of_tec(graph: LinearGraph) -> ForestOfTEC:
    bridges = cutting_edges(graph)
    parent = list(range(graph.vertex_count))
    for eid, (s, t) in enumerate(graph.edges):
        if eid not in bridges:
            union_roots(parent, s, t)
    roots = sorted({find_root(parent, v) for v in range(graph.vertex_count)})
    index = {r: i for i, r in enumerate(roots)}
    comps: list[set[int]] = [set() for _ in roots]
    for v in range(graph.vertex_count):
        comps[index[find_root(parent, v)]].add(v)
    fedges = tuple((index[find_root(parent, graph.edges[eid][0])],
                    index[find_root(parent, graph.edges[eid][1])], eid)
                   for eid in sorted(bridges))
    degrees = [0] * len(roots)
    for a, b, _ in fedges:
        degrees[a] += 1
        degrees[b] += 1
    return ForestOfTEC(tuple(frozenset(c) for c in comps), fedges,
                       tuple(degrees))


def forest_leaves(degrees) -> int:
    """Leaves of a forest given its vertex degrees; an isolated forest
    vertex counts as two."""
    return 2 * degrees.count(0) + degrees.count(1)


def _leaves(n: int, edges, blocks: list[list[int]]) -> int:
    """Leaf count from a block decomposition: the one-edge non-loop blocks
    are the bridges; the others join two-edge-connected components."""
    parent, bridge_ends = list(range(n)), []
    for block in blocks:
        s, t = edges[block[0]]
        if len(block) == 1 and s != t:
            bridge_ends += (s, t)
        else:
            for eid in block:
                union_roots(parent, *edges[eid])
    degree = [0] * n  # bridge endpoints per component root
    for v in bridge_ends:
        degree[find_root(parent, v)] += 1
    return forest_leaves([degree[v] for v in range(n) if parent[v] == v])


def leaf_count(graph: LinearGraph) -> int:
    """Number of leaves of the forest of two-edge-connected components."""
    n, edges = graph.vertex_count, graph.edges
    return _leaves(n, edges, _blocks(n, edges))


# --- cactus predicates -------------------------------------------------------

def _is_directed(edges, block: list[int]) -> bool:
    """For a cycle block: every vertex has in- and out-degree one, that is,
    no two edges leave the same vertex."""
    return len({edges[eid][0] for eid in block}) == len(block)


def _walk(edges, block: list[int]) -> list[int]:
    """Edge ids of a directed cycle block in cyclic order, from the least."""
    out_of = {edges[eid][0]: eid for eid in block}
    walk = [min(block)]
    first, cur = edges[walk[0]]
    while cur != first:
        walk.append(out_of[cur])
        cur = edges[walk[-1]][1]
    return walk


def is_forest_of_cacti(graph: LinearGraph) -> bool:
    """True iff every edge lies on exactly one simple cycle, that is, every
    biconnected block is a cycle. Isolated vertices are permitted.
    """
    return all(_is_cycle(graph.edges, block)
               for block in _blocks(graph.vertex_count, graph.edges))


def is_well_oriented(graph: LinearGraph) -> bool:
    """True iff the graph is a forest of cacti whose cycles are all directed."""
    return all(_is_cycle(graph.edges, b) and _is_directed(graph.edges, b)
               for b in _blocks(graph.vertex_count, graph.edges))


VALID = "valid"
NOT_CACTUS = "not_cactus"
NOT_WELL_ORIENTED = "not_well_oriented"
NOT_WELL_COLORED = "not_well_colored"
NOT_ALTERNATED = "not_alternated"


def classify_labeling(graph: LinearGraph, delta, eps) -> str:
    """Check the validity conditions for a labeled graph, reporting the first
    failure among: cactus, orientation, constant letters per cycle, even
    length with alternating stars per cycle.
    """
    edges = graph.edges
    return _classify(edges, _blocks(graph.vertex_count, edges),
                     tuple(delta), tuple(eps))[0]


def _classify(edges, blocks: list[list[int]], delta: tuple,
              eps: tuple) -> tuple[str, list[list[int]]]:
    """`classify_labeling` from a block decomposition of the edges; a VALID
    labeling comes with its cycles in cyclic order, any other with none."""
    if len(delta) != len(edges) or len(eps) != len(edges):
        raise InvalidArgumentError("label arity does not match edge count")
    if not all(_is_cycle(edges, block) for block in blocks):
        return NOT_CACTUS, []
    if not all(_is_directed(edges, block) for block in blocks):
        return NOT_WELL_ORIENTED, []
    cycles = [_walk(edges, block) for block in blocks]
    for cyc in cycles:
        if len({delta[eid] for eid in cyc}) > 1:
            return NOT_WELL_COLORED, []
    for cyc in cycles:  # an odd cycle always has two equal neighbours
        stars = [eps[eid] for eid in cyc]
        if any(stars[i - 1] == stars[i] for i in range(len(stars))):
            return NOT_ALTERNATED, []
    return VALID, cycles


# --- colored splitting and the splitting exponent ---------------------------

def split_by_color(graph: LinearGraph, color) -> tuple[LinearGraph, LinearGraph]:
    """Subgraphs keeping only color-1 / color-2 edges; both keep all vertices."""
    color = tuple(color)
    if len(color) != graph.order:
        raise InvalidArgumentError("color labeling must cover every edge")
    if any(c not in (1, 2) for c in color):
        raise InvalidArgumentError("colors must be 1 or 2")
    e1 = tuple(e for e, c in zip(graph.edges, color) if c == 1)
    e2 = tuple(e for e, c in zip(graph.edges, color) if c == 2)
    return (LinearGraph(graph.vertex_count, e1),
            LinearGraph(graph.vertex_count, e2))


def splitting_exponent(leaves_total: int, leaves_t1: int, leaves_t2: int,
                       vertices: int) -> Fraction:
    """(L(T1) + L(T2) - L(T') - 2|V'|) / 2 from the three leaf counts."""
    return Fraction(leaves_t1 + leaves_t2 - leaves_total - 2 * vertices, 2)

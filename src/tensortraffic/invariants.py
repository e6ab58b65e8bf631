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

def _decompose(n: int, edges) -> tuple[list[list[int]], int, bool]:
    """The biconnected blocks of a multigraph as lists of edge ids (each
    loop is its own block), the leaf count of its forest of two-edge-connected
    components, and whether every block is a cycle.

    One iterative depth-first search with low-links and an edge stack
    (Tarjan, SIAM J. Comput. 1972); re-entering a vertex through a parallel
    copy of the entry edge closes a two-edge block. A tree edge into v is a
    bridge iff low[v] is v's own order; v then heads a two-edge-connected
    component, made of the vertices found since v. Every block is a cycle
    iff there is no bridge and the blocks number the cycle rank m - n + c:
    every other block adds one to the rank, a cycle exactly one.
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
    head = [0] * n  # the vertex heading each two-edge-connected component
    bridge_ends = [0] * n
    counter = components = 0
    estack: list[int] = []
    vstack: list[int] = []
    for root in range(n):
        if order[root] != -1:
            continue
        components += 1
        order[root] = low[root] = counter
        counter += 1
        vstack.append(root)
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
                    vstack.append(w)
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                if order[w] < order[v]:
                    estack.append(eid)
                    if order[w] < low[v]:
                        low[v] = order[w]
            if not advanced:
                stack.pop()
                heads = low[v] == order[v]  # and its in-edge is a bridge
                if heads:
                    while True:
                        u = vstack.pop()
                        head[u] = v
                        if u == v:
                            break
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if heads:
                        bridge_ends[v] += 1
                        bridge_ends[pv] += 1
                    if low[v] >= order[pv]:
                        blk = []
                        while True:
                            eid2 = estack.pop()
                            blk.append(eid2)
                            if eid2 == in_edge:
                                break
                        blocks.append(blk)
    degree = [0] * n  # bridge endpoints per component head
    for v in range(n):
        degree[head[v]] += bridge_ends[v]
    leaves = forest_leaves([degree[v] for v in range(n) if head[v] == v])
    cactus = not any(bridge_ends) and len(blocks) == len(edges) - n + components
    return blocks, leaves, cactus


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
    blocks = _decompose(graph.vertex_count, edges)[0]
    return frozenset(b[0] for b in blocks
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


def leaf_count(graph: LinearGraph) -> int:
    """Number of leaves of the forest of two-edge-connected components."""
    return _decompose(graph.vertex_count, graph.edges)[1]


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


VALID = "valid"
NOT_CACTUS = "not_cactus"
NOT_WELL_ORIENTED = "not_well_oriented"
NOT_WELL_COLORED = "not_well_colored"
NOT_ALTERNATED = "not_alternated"


def _cactus_shape(edges, blocks: list[list[int]], cactus: bool):
    """The structural half of `classify_labeling`, from `_decompose`:
    NOT_CACTUS, NOT_WELL_ORIENTED, or the cycles of a well-oriented forest
    of cacti, each a tuple of edge ids in cyclic order from the least."""
    if not cactus:
        return NOT_CACTUS
    if not all(_is_directed(edges, block) for block in blocks):
        return NOT_WELL_ORIENTED
    return tuple(tuple(_walk(edges, block)) for block in blocks)


def _classify(shape, delta, eps) -> str:
    """The label half of `classify_labeling`: a failed shape stays failed;
    the cycles of a well-oriented cactus must carry one letter each and
    alternate their stars."""
    if isinstance(shape, str):
        return shape
    for cyc in shape:
        if len({delta[eid] for eid in cyc}) > 1:
            return NOT_WELL_COLORED
    for cyc in shape:  # an odd cycle always has two equal neighbours
        stars = [eps[eid] for eid in cyc]
        if any(stars[i - 1] == stars[i] for i in range(len(stars))):
            return NOT_ALTERNATED
    return VALID


def is_forest_of_cacti(graph: LinearGraph) -> bool:
    """True iff every edge lies on exactly one simple cycle, that is, every
    biconnected block is a cycle. Isolated vertices are permitted.
    """
    return all(_is_cycle(graph.edges, block)
               for block in _decompose(graph.vertex_count, graph.edges)[0])


def is_well_oriented(graph: LinearGraph) -> bool:
    """True iff the graph is a forest of cacti whose cycles are all directed."""
    return all(_is_cycle(graph.edges, b) and _is_directed(graph.edges, b)
               for b in _decompose(graph.vertex_count, graph.edges)[0])


def _labeling(graph: LinearGraph, delta, eps) -> tuple:
    """(validity, cactus shape) of a labeled graph."""
    edges, delta, eps = graph.edges, tuple(delta), tuple(eps)
    if len(delta) != len(edges) or len(eps) != len(edges):
        raise InvalidArgumentError("label arity does not match edge count")
    blocks, _, cactus = _decompose(graph.vertex_count, edges)
    shape = _cactus_shape(edges, blocks, cactus)
    return _classify(shape, delta, eps), shape


def classify_labeling(graph: LinearGraph, delta, eps) -> str:
    """Check the validity conditions for a labeled graph, reporting the first
    failure among: cactus, orientation, constant letters per cycle, even
    length with alternating stars per cycle.
    """
    return _labeling(graph, delta, eps)[0]


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

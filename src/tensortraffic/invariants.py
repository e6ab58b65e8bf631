"""Structural graph invariants: bridges, two-edge-connected components, the
leaf count that governs trace growth, cactus predicates, colored-component
graphs, pruning, and the splitting exponent.

All predicates treat the graph as an undirected multigraph except where a
directed notion is explicitly involved (well-orientedness, cycle words).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .graphs import LinearGraph, quotient, minimal_graph
from .partitions import SetPartition, find_root, leq, union_roots


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


def is_valid(graph: LinearGraph, delta, eps) -> bool:
    return classify_labeling(graph, delta, eps) == VALID


# --- colored components, pruning, and the splitting exponent -----------------

@dataclass(frozen=True)
class CCGNode:
    color: int  # 1 or 2
    vertices: frozenset[int]
    has_cutting_edge: bool
    leaves: int  # leaf count of the component as a standalone graph


@dataclass(frozen=True)
class ColoredComponentGraph:
    nodes: tuple[CCGNode, ...]
    edges: tuple[tuple[int, int], ...]  # node-index pairs, one per shared vertex

    def degree(self, i: int) -> int:
        return sum((a == i) + (b == i) for a, b in self.edges)


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


def _component_nodes(sub: LinearGraph, color: int) -> list[CCGNode]:
    forest = forest_of_tec(sub)
    # group TEC components into connected components of `sub`
    parent = list(range(len(forest.components)))
    for a, b, _ in forest.forest_edges:
        union_roots(parent, a, b)
    groups: dict[int, list[int]] = {}
    for i in range(len(forest.components)):
        groups.setdefault(find_root(parent, i), []).append(i)
    nodes = []
    for root in sorted(groups):
        tecs = groups[root]
        verts = frozenset().union(*(forest.components[i] for i in tecs))
        # leaf count of this component alone: degrees within the component
        degrees = [forest.degrees[i] for i in tecs]
        nodes.append(CCGNode(color, verts, any(degrees),
                             forest_leaves(degrees)))
    return nodes


def colored_component_graph(graph: LinearGraph, color) -> ColoredComponentGraph:
    """Bipartite contact graph of the color-1 and color-2 components.

    Both colored subgraphs keep the full vertex set, so a vertex isolated in
    one color still forms a trivial component of that color; every vertex of
    the base graph yields exactly one contact edge.
    """
    t1, t2 = split_by_color(graph, color)
    nodes1 = _component_nodes(t1, 1)
    nodes2 = _component_nodes(t2, 2)
    nodes = tuple(nodes1 + nodes2)
    where1 = {}
    for i, node in enumerate(nodes1):
        for v in node.vertices:
            where1[v] = i
    where2 = {}
    for j, node in enumerate(nodes2):
        for v in node.vertices:
            where2[v] = len(nodes1) + j
    edges = tuple(sorted((where1[v], where2[v]) for v in range(graph.vertex_count)))
    return ColoredComponentGraph(nodes, edges)


def prune(ccg: ColoredComponentGraph) -> ColoredComponentGraph:
    """Iteratively delete leaf nodes that have no cutting edge (with their
    contact edge) until a fixpoint is reached.

    Leaves are removed one at a time (lowest index first): when two
    removable leaves are adjacent, deleting one strands the other at degree
    zero, where it must stay; that keeps sum(leaves - degree) invariant,
    which is exactly what the splitting-exponent bound rests on.
    """
    alive = set(range(len(ccg.nodes)))
    edges = list(ccg.edges)
    while True:
        degree: dict[int, int] = {i: 0 for i in alive}
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        victim = min((i for i in alive
                      if degree[i] == 1 and not ccg.nodes[i].has_cutting_edge),
                     default=None)
        if victim is None:
            break
        alive.discard(victim)
        edges = [(a, b) for a, b in edges if victim not in (a, b)]
    order = sorted(alive)
    remap = {old: new for new, old in enumerate(order)}
    return ColoredComponentGraph(tuple(ccg.nodes[i] for i in order),
                                 tuple((remap[a], remap[b]) for a, b in edges))


def ccg_balance(ccg: ColoredComponentGraph) -> int:
    """sum over nodes of (leaf count - degree); invariant under pruning."""
    return sum(node.leaves - ccg.degree(i) for i, node in enumerate(ccg.nodes))


def eta(graph: LinearGraph, color) -> Fraction:
    """Splitting exponent of a two-coloring of the graph's edges.

    Nonpositive for every coloring arising from the word-linearization
    pipeline; arbitrary colorings carry no such guarantee.
    """
    t1, t2 = split_by_color(graph, color)
    return splitting_exponent(leaf_count(graph), leaf_count(t1), leaf_count(t2),
                              graph.vertex_count)


def splitting_exponent(leaves_total: int, leaves_t1: int, leaves_t2: int,
                       vertices: int) -> Fraction:
    """(L(T1) + L(T2) - L(T') - 2|V'|) / 2 from the three leaf counts."""
    return Fraction(leaves_t1 + leaves_t2 - leaves_total - 2 * vertices, 2)


def leaf_monotonicity_check(pi: SetPartition, pi2: SetPartition, k: int) -> bool:
    """For pi2 <= pi, leaves may only shrink under coarsening:
    L(T0^pi) <= L(T0^pi2). Always true; exposed as a checkable property.
    """
    if pi.n != 2 * k or pi2.n != 2 * k:
        raise InvalidArgumentError("partitions must live on [2K]")
    if not leq(pi2, pi):
        raise InvalidArgumentError("need pi2 <= pi")
    base = minimal_graph(k)
    return leaf_count(quotient(base, pi)) <= leaf_count(quotient(base, pi2))

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

SIMPLE_CYCLE_EDGE_CAP = 16


def _adjacency(graph: LinearGraph):
    """vertex -> list of (edge_id, other_endpoint); loops appear once."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for eid, (s, t) in enumerate(graph.edges):
        if s == t:
            adj[s].append((eid, s))
        else:
            adj[s].append((eid, t))
            adj[t].append((eid, s))
    return adj


def cutting_edges(graph: LinearGraph) -> frozenset[int]:
    """Edge ids of the bridges of the underlying undirected multigraph.

    Iterative DFS with low-links; re-entering through a parallel copy of the
    entry edge is allowed, so parallel edges and loops are never bridges.
    """
    adj = _adjacency(graph)
    n = graph.vertex_count
    order = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        order[root] = low[root] = counter
        counter += 1
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for eid, w in it:
                if eid == in_edge or w == v:
                    continue
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], order[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > order[pv]:
                        bridges.add(in_edge)
        # done with this root
    return frozenset(bridges)


@dataclass(frozen=True)
class ForestOfTEC:
    """Two-edge-connected components of a graph and the bridges linking them."""

    components: tuple[frozenset[int], ...]
    forest_edges: tuple[tuple[int, int, int], ...]  # (comp_i, comp_j, edge_id)

    def degree(self, comp_index: int) -> int:
        return sum((a == comp_index) + (b == comp_index)
                   for a, b, _ in self.forest_edges)

    def leaf_count(self) -> int:
        """Leaves of the forest; an isolated forest vertex counts as two."""
        total = 0
        for i in range(len(self.components)):
            d = self.degree(i)
            if d == 0:
                total += 2
            elif d == 1:
                total += 1
        return total


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
    return ForestOfTEC(tuple(frozenset(c) for c in comps), fedges)


def leaf_count(graph: LinearGraph) -> int:
    """Number of leaves of the forest of two-edge-connected components."""
    return forest_of_tec(graph).leaf_count()


# --- blocks (biconnected components) and cactus predicates -------------------

def _blocks(graph: LinearGraph) -> list[list[int]]:
    """Edge ids grouped into biconnected blocks; each loop is its own block."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    blocks: list[list[int]] = []
    for eid, (s, t) in enumerate(graph.edges):
        if s == t:
            blocks.append([eid])
        else:
            adj[s].append((eid, t))
            adj[t].append((eid, s))
    n = graph.vertex_count
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
                    low[v] = min(low[v], order[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= order[pv]:
                        blk = []
                        while True:
                            eid2 = estack.pop()
                            blk.append(eid2)
                            if eid2 == in_edge:
                                break
                        blocks.append(blk)
    return blocks


def _block_vertices(graph: LinearGraph, block: list[int]) -> set[int]:
    out: set[int] = set()
    for eid in block:
        s, t = graph.edges[eid]
        out.add(s)
        out.add(t)
    return out


def is_forest_of_cacti(graph: LinearGraph) -> bool:
    """True iff every edge lies on exactly one simple cycle.

    Equivalent block characterization: every biconnected block is a cycle
    (|edges| == |vertices|). A single non-loop edge block is a bridge and
    fails; a loop is a length-one cycle and passes. Isolated vertices are
    permitted.
    """
    for block in _blocks(graph):
        if len(block) != len(_block_vertices(graph, block)):
            return False
    return True


def cactus_cycles(graph: LinearGraph) -> list[list[int]]:
    """The simple cycles of a forest of cacti, as edge-id lists in cyclic
    order following the orientation (requires well-orientedness for the
    order to be meaningful; raises if the graph is not a forest of cacti).
    """
    if not is_forest_of_cacti(graph):
        raise InvalidArgumentError("graph is not a forest of cacti")
    cycles = []
    for block in _blocks(graph):
        if len(block) == 1 and graph.edges[block[0]][0] == graph.edges[block[0]][1]:
            cycles.append(block)
            continue
        # walk successor edges inside the block
        out_of: dict[int, list[int]] = {}
        for eid in block:
            out_of.setdefault(graph.edges[eid][0], []).append(eid)
        start = min(block)
        walk = [start]
        cur = graph.edges[start][1]
        first = graph.edges[start][0]
        guard = 0
        while cur != first and guard <= len(block):
            nxts = out_of.get(cur, [])
            if len(nxts) != 1:
                # not a directed cycle; fall back to undirected order
                walk = sorted(block)
                break
            walk.append(nxts[0])
            cur = graph.edges[nxts[0]][1]
            guard += 1
        cycles.append(walk)
    return cycles


def is_well_oriented(graph: LinearGraph) -> bool:
    """True iff the graph is a forest of cacti whose cycles are all directed."""
    if not is_forest_of_cacti(graph):
        return False
    for block in _blocks(graph):
        verts = _block_vertices(graph, block)
        indeg = {v: 0 for v in verts}
        outdeg = {v: 0 for v in verts}
        for eid in block:
            s, t = graph.edges[eid]
            outdeg[s] += 1
            indeg[t] += 1
        if any(indeg[v] != 1 or outdeg[v] != 1 for v in verts):
            return False
    return True


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
    delta = tuple(delta)
    eps = tuple(eps)
    if len(delta) != graph.order or len(eps) != graph.order:
        raise InvalidArgumentError("label arity does not match edge count")
    if not is_forest_of_cacti(graph):
        return NOT_CACTUS
    if not is_well_oriented(graph):
        return NOT_WELL_ORIENTED
    for cyc in cactus_cycles(graph):
        if len({delta[eid] for eid in cyc}) > 1:
            return NOT_WELL_COLORED
    for cyc in cactus_cycles(graph):
        if len(cyc) % 2 == 1:
            return NOT_ALTERNATED
        stars = [eps[eid] for eid in cyc]
        if any(stars[i] == stars[(i + 1) % len(stars)] for i in range(len(stars))):
            return NOT_ALTERNATED
    return VALID


def is_valid(graph: LinearGraph, delta, eps) -> bool:
    return classify_labeling(graph, delta, eps) == VALID


# --- simple-cycle enumeration (test oracle for the cactus predicate) --------

def simple_cycles(graph: LinearGraph) -> list[frozenset[int]]:
    """All undirected simple cycles, as edge-id sets.

    Loops are length-one cycles; a pair of parallel edges is a length-two
    cycle. Guarded to graphs with at most SIMPLE_CYCLE_EDGE_CAP edges since
    the count can grow exponentially.
    """
    if graph.order > SIMPLE_CYCLE_EDGE_CAP:
        raise InvalidArgumentError(
            f"simple-cycle enumeration capped at {SIMPLE_CYCLE_EDGE_CAP} edges")
    adj = [[] for _ in range(graph.vertex_count)]
    found: set[frozenset[int]] = set()
    for eid, (s, t) in enumerate(graph.edges):
        if s == t:
            found.add(frozenset([eid]))
        else:
            adj[s].append((eid, t))
            adj[t].append((eid, s))

    def walk(start, current, visited, edges_used):
        for eid, w in adj[current]:
            if eid in edges_used:
                continue
            if w == start and len(edges_used) >= 1:
                found.add(frozenset(edges_used | {eid}))
            elif w not in visited and w > start:
                walk(start, w, visited | {w}, edges_used | {eid})

    for start in range(graph.vertex_count):
        walk(start, start, {start}, frozenset())
    return sorted(found, key=sorted)


def is_forest_of_cacti_by_enumeration(graph: LinearGraph) -> bool:
    """Oracle variant: every edge lies on exactly one enumerated simple cycle."""
    count = [0] * graph.order
    for cyc in simple_cycles(graph):
        for eid in cyc:
            count[eid] += 1
    return all(c == 1 for c in count)


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
        n_bridges = sum(1 for a, b, _ in forest.forest_edges
                        if find_root(parent, a) == root)
        # leaf count of this component alone: degrees within the component
        if n_bridges == 0:
            leaves = 2
        else:
            leaves = sum(1 for i in tecs if forest.degree(i) == 1)
        nodes.append(CCGNode(color, verts, n_bridges > 0, leaves))
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

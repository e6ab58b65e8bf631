"""Structural graph invariants: bridges, two-edge-connected components, the
leaf count that governs trace growth, cactus predicates and the validity of
a labeling, the split of a two-colored graph into its colored subgraphs,
and the splitting exponent of such a split from three leaf counts. All are
read off a spanning forest with its fundamental cycles: one walk grows it
over every quotient of a small graph at once, and one search builds it for
a whole graph of any size.

All predicates treat the graph as an undirected multigraph except where a
directed notion is explicitly involved (well-orientedness, cycle words).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .graphs import LinearGraph
from .partitions import find_root, union_roots


# --- spanning forests, fundamental cycles, bridges and the leaf count --------

def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _tec(nv: int, edges, bridges) -> tuple[list[int], list[int]]:
    """The root vertex naming each vertex's two-edge-connected component,
    from a union-find over the `edges` that are no bridge, and the number
    of bridge ends at each root. `bridges` is a set of edge ids."""
    parent = list(range(nv))
    for e, (s, t) in enumerate(edges):
        if e not in bridges:
            union_roots(parent, s, t)
    comp = [find_root(parent, v) for v in range(nv)]
    degree = [0] * nv
    for e in bridges:
        s, t = edges[e]
        degree[comp[s]] += 1
        degree[comp[t]] += 1
    return comp, degree


class _Forest:
    """A spanning forest of a multigraph with the fundamental cycles of the
    edges it leaves out: what both ways of building one read off.

    Every cycle of the graph is a sum of fundamental ones, so the bridges
    are the forest edges that no fundamental cycle covers. Every block is a
    cycle iff there is no bridge and no two fundamental cycles share an
    edge (the fundamental cycles are then the blocks, loops included): a
    block that is no cycle holds two cycles sharing a path, and a sum of
    edge-disjoint cycles is a simple cycle only if it has one term.
    Subclasses give `bridges()` (edge ids, ascending), `components()`,
    `blocks()` and the flag `overlap` (two fundamental cycles share an
    edge).
    """

    __slots__ = ()

    def cactus(self) -> bool:
        """Every block is a cycle (a loop, a parallel pair, ...)."""
        return not self.overlap and not self.bridges()

    def leaves(self, rgs, edges) -> int:
        """Leaves of the forest of two-edge-connected components of the graph
        this forest spans, the quotient of `edges` by `rgs` (vertex v of
        `edges` is vertex rgs[v] here). Without bridges every component is
        one isolated forest vertex; otherwise the edges are read to merge
        the components across non-bridges and count bridge ends."""
        bridges = self.bridges()
        if not bridges:
            return 2 * self.components()
        comp, degree = _tec(self.vertex_count(),
                            [(rgs[s], rgs[t]) for s, t in edges],
                            frozenset(bridges))
        return forest_leaves([d for v, d in enumerate(degree) if comp[v] == v])


class _GrownForest(_Forest):
    """A spanning forest grown one vertex or one edge at a time, for the
    quotient walk of a small graph.

    Edge sets are the bits of an int. Each vertex keeps the mask of the
    forest edges on its path to its root, so an edge (x, y, e) inside one
    tree closes the cycle path[x] ^ path[y] ^ bit(e), a loop the cycle
    bit(e). The forest only grows, so a cycle found stays a cycle. Joining
    two trees rewrites every vertex of one, so a forest on V vertices costs
    O(V^2) steps and V x V bits: `quotient_forests` is capped well below
    that mattering, and a whole graph uses `_GraphForest`.
    """

    __slots__ = ("path", "root", "tree", "cover", "overlap", "cycles")

    def __init__(self):
        self.path: list[int] = []  # forest edges from each vertex to its root
        self.root: list[int] = []
        self.tree = 0  # forest edges
        self.cover = 0  # edges on a fundamental cycle
        self.overlap = False
        self.cycles: tuple = ()  # (cycle, earlier cycles), the newest first

    def copy(self) -> "_GrownForest":
        f = _GrownForest.__new__(_GrownForest)
        f.path, f.root = self.path[:], self.root[:]
        f.tree, f.cover = self.tree, self.cover
        f.overlap, f.cycles = self.overlap, self.cycles
        return f

    def add_vertex(self):
        self.root.append(len(self.path))
        self.path.append(0)

    def add_edge(self, x: int, y: int, bit: int):
        path, root = self.path, self.root
        rx, ry = root[x], root[y]
        if rx == ry:
            cycle = path[x] ^ path[y] ^ bit
            self.overlap = self.overlap or bool(cycle & self.cover)
            self.cover |= cycle
            self.cycles = (cycle, self.cycles)
            return
        shift = path[x] ^ path[y] ^ bit  # y's tree hangs from x through bit
        for v, r in enumerate(root):
            if r == ry:
                root[v] = rx
                path[v] ^= shift
        self.tree |= bit

    def vertex_count(self) -> int:
        return len(self.path)

    def components(self) -> int:
        return len(self.path) - self.tree.bit_count()

    def bridges(self) -> list[int]:
        return _bits(self.tree & ~self.cover)

    def blocks(self) -> list[list[int]]:
        """The fundamental cycles as lists of edge ids; for a forest of
        cacti these are its blocks."""
        out, cycles = [], self.cycles
        while cycles:
            cycle, cycles = cycles
            out.append(_bits(cycle))
        return out


def quotient_forests(n: int, layers):
    """Every restricted-growth string of length n in lexicographic order
    (n = 0 gives the empty one), each with its partition text (the blocks
    of vertices 0..n-1 joined by commas) and one `_GrownForest` per layer:
    the spanning forest of the quotient of that layer's edges, over the
    vertices 0..n-1, by the string.

    One depth-first walk over the prefixes (Knuth, TAOCP 7.2.1.5): placing
    vertex d in block b adds the edges whose larger endpoint is d to
    copies of the prefix's forests and ",b" to the prefix's text, so each
    quotient costs the edges of its last vertex and one concatenation.
    Yields (rgs, text, forests) one string at a time.
    """
    due = [[[] for _ in layers] for _ in range(n)]
    for i, edges in enumerate(layers):
        for e, (s, t) in enumerate(edges):
            due[max(s, t)][i].append((s, t, 1 << e))
    roots = [_GrownForest() for _ in layers]
    if n == 0:
        yield (), "", roots
        return
    digits = [str(b) for b in range(n)]
    marks = ["," + b for b in digits]
    stack = [((), "", 0, roots)]
    while stack:
        prefix, text, nb, forests = stack.pop()
        d = len(prefix)
        tails = marks if d else digits
        children = []
        for b in range(nb + 1):
            rgs, grown_text = prefix + (b,), text + tails[b]
            grown = []
            for f, adds in zip(forests, due[d]):
                if b == nb or adds:
                    f = f.copy()
                    if b == nb:
                        f.add_vertex()
                    for s, t, bit in adds:
                        f.add_edge(rgs[s], rgs[t], bit)
                grown.append(f)
            if d == n - 1:
                yield rgs, grown_text, grown
            else:
                children.append((rgs, grown_text, nb + (b == nb), grown))
        stack += reversed(children)


class _GraphForest(_Forest):
    """The spanning forest of one whole graph, built in near-linear time.

    A search gives every vertex its parent, the edge up to it and its
    depth. Each edge left out then climbs from both ends, the deeper end
    first, until they meet; the forest edges passed are its fundamental
    cycle. A covered edge is marked in a union-find that points its lower
    vertex at its upper one, so later climbs hop over runs of covered
    edges and every forest edge is climbed once. Before the ends meet,
    both lie strictly below their common ancestor, so a covered edge met
    there lies on an earlier cycle too: that sets `overlap`, after which
    the cycles are no longer kept. Until then they hold each edge at most
    once.
    """

    __slots__ = ("up", "hop", "overlap", "cycles")

    def __init__(self, graph: LinearGraph):
        n, edges = graph.vertex_count, graph.edges
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (s, t) in enumerate(edges):
            if s != t:
                adj[s].append((t, e))
                adj[t].append((s, e))
        parent, depth = list(range(n)), [0] * n
        up = [-1] * n  # the forest edge from each vertex to its parent
        in_tree = [False] * len(edges)
        seen = [False] * n
        for r in range(n):
            if seen[r]:
                continue
            seen[r] = True
            stack = [r]
            while stack:
                v = stack.pop()
                for w, e in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        parent[w], up[w], depth[w] = v, e, depth[v] + 1
                        in_tree[e] = True
                        stack.append(w)
        hop = list(range(n))  # hop[v] != v: the edge up from v is covered
        overlap, cycles = False, []
        for e, (a, b) in enumerate(edges):
            if in_tree[e]:
                continue
            cycle = [e]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                if hop[a] != a:
                    overlap = True
                    a = find_root(hop, a)
                    continue
                cycle.append(up[a])
                hop[a] = parent[a]
                a = parent[a]
            if not overlap:
                cycles.append(cycle)
        self.up, self.hop = up, hop
        self.overlap, self.cycles = overlap, cycles

    def vertex_count(self) -> int:
        return len(self.up)

    def components(self) -> int:
        return self.up.count(-1)

    def bridges(self) -> list[int]:
        return sorted(e for v, e in enumerate(self.up)
                      if e >= 0 and self.hop[v] == v)

    def blocks(self) -> list[list[int]]:
        """The fundamental cycles as lists of edge ids, kept while no two
        share an edge; for a forest of cacti these are its blocks."""
        return self.cycles


def cutting_edges(graph: LinearGraph) -> frozenset[int]:
    """Edge ids of the bridges of the underlying undirected multigraph.
    Neither loops nor parallel edges are ever bridges: each lies on a
    cycle."""
    return frozenset(_GraphForest(graph).bridges())


@dataclass(frozen=True)
class ForestOfTEC:
    """Two-edge-connected components of a graph and the bridges linking them."""

    components: tuple[frozenset[int], ...]
    forest_edges: tuple[tuple[int, int, int], ...]  # (comp_i, comp_j, edge_id)
    degrees: tuple[int, ...]  # bridge endpoints in each component


def forest_of_tec(graph: LinearGraph) -> ForestOfTEC:
    bridges = cutting_edges(graph)
    comp, degree = _tec(graph.vertex_count, graph.edges, bridges)
    roots = sorted(set(comp))
    index = {r: i for i, r in enumerate(roots)}
    comps: list[set[int]] = [set() for _ in roots]
    for v, r in enumerate(comp):
        comps[index[r]].add(v)
    fedges = tuple((index[comp[graph.edges[eid][0]]],
                    index[comp[graph.edges[eid][1]]], eid)
                   for eid in sorted(bridges))
    return ForestOfTEC(tuple(frozenset(c) for c in comps), fedges,
                       tuple(degree[r] for r in roots))


def forest_leaves(degrees) -> int:
    """Leaves of a forest given its vertex degrees; an isolated forest
    vertex counts as two."""
    return 2 * degrees.count(0) + degrees.count(1)


def leaf_count(graph: LinearGraph) -> int:
    """Number of leaves of the forest of two-edge-connected components."""
    return _GraphForest(graph).leaves(range(graph.vertex_count), graph.edges)


# --- cactus predicates -------------------------------------------------------

def _walk(edges, block: list[int]):
    """Edge ids of a cycle block in cyclic order, from the least, if it is
    directed: every vertex has in- and out-degree one, that is, no two
    edges leave the same vertex. None if it is not."""
    out_of = {edges[eid][0]: eid for eid in block}
    if len(out_of) < len(block):
        return None
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


def _cactus_shape(forest: _Forest, rgs, edges):
    """The structural half of `classify_labeling` for the quotient of `edges`
    by `rgs` that `forest` spans: NOT_CACTUS, NOT_WELL_ORIENTED, or the
    cycles of a well-oriented forest of cacti, each a tuple of edge ids in
    cyclic order from the least."""
    if not forest.cactus():
        return NOT_CACTUS
    qedges = [(rgs[s], rgs[t]) for s, t in edges]
    cycles = []
    for block in forest.blocks():
        walk = _walk(qedges, block)
        if walk is None:
            return NOT_WELL_ORIENTED
        cycles.append(tuple(walk))
    return tuple(cycles)


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
    return _GraphForest(graph).cactus()


def _shape(graph: LinearGraph):
    """`_cactus_shape` of a single graph."""
    return _cactus_shape(_GraphForest(graph), range(graph.vertex_count),
                         graph.edges)


def is_well_oriented(graph: LinearGraph) -> bool:
    """True iff the graph is a forest of cacti whose cycles are all directed."""
    return not isinstance(_shape(graph), str)


def _labeling(graph: LinearGraph, delta, eps) -> tuple:
    """(validity, cactus shape) of a labeled graph."""
    delta, eps = tuple(delta), tuple(eps)
    if len(delta) != graph.order or len(eps) != graph.order:
        raise InvalidArgumentError("label arity does not match edge count")
    shape = _shape(graph)
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

from fractions import Fraction

import numpy as np

from tensortraffic.graphs import (LinearGraph, component_count, minimal_graph,
                                  quotient)
from tensortraffic.haar import linearize
from tensortraffic.invariants import (NOT_ALTERNATED, NOT_CACTUS,
                                      NOT_WELL_COLORED, VALID, _GraphForest,
                                      _walk,
                                      classify_labeling, cutting_edges,
                                      forest_leaves, forest_of_tec,
                                      is_forest_of_cacti, is_well_oriented,
                                      leaf_count, quotient_forests)
from tensortraffic.partitions import (enumerate_partitions, leq,
                                      restricted_growth_strings)
from tensortraffic.words import StarWord

from oracles import (_decompose, eta, is_forest_of_cacti_by_enumeration,
                     simple_cycles)


def brute_force_bridges(graph):
    """Delete each edge and recount components."""
    base = component_count(graph)
    out = set()
    for eid in range(graph.order):
        reduced = LinearGraph(graph.vertex_count,
                              graph.edges[:eid] + graph.edges[eid + 1:])
        if component_count(reduced) > base:
            out.add(eid)
    return frozenset(out)


def random_graph(rng, max_v=8, max_e=10):
    nv = int(rng.integers(1, max_v + 1))
    ne = int(rng.integers(0, max_e + 1))
    return LinearGraph(nv, tuple((int(rng.integers(nv)), int(rng.integers(nv)))
                                 for _ in range(ne)))


def decorated_graph(rng, max_v=6, max_e=10):
    """A random graph with a loop, a parallel copy of an edge and one or two
    isolated vertices added."""
    g = random_graph(rng, max_v, max_e)
    v = int(rng.integers(g.vertex_count))
    edges = g.edges + ((v, v),) + g.edges[:1]
    return LinearGraph(g.vertex_count + int(rng.integers(1, 3)), edges)


def test_bridge_examples():
    single = LinearGraph(2, [(0, 1)])
    assert cutting_edges(single) == frozenset({0})
    two_cycle = LinearGraph(2, [(0, 1), (1, 0)])
    assert cutting_edges(two_cycle) == frozenset()
    parallel = LinearGraph(2, [(0, 1), (0, 1)])
    assert cutting_edges(parallel) == frozenset()
    path2 = LinearGraph(3, [(0, 1), (1, 2)])
    assert cutting_edges(path2) == frozenset({0, 1})
    loop = LinearGraph(1, [(0, 0)])
    assert cutting_edges(loop) == frozenset()


def test_bridges_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = random_graph(rng)
        assert cutting_edges(g) == brute_force_bridges(g)


def test_forest_of_tec():
    two_cycle = LinearGraph(2, [(0, 1), (1, 0)])
    forest = forest_of_tec(two_cycle)
    assert len(forest.components) == 1 and not forest.forest_edges
    # dumbbell: two loops joined by one edge
    dumbbell = LinearGraph(2, [(0, 0), (1, 1), (0, 1)])
    forest = forest_of_tec(dumbbell)
    assert len(forest.components) == 2 and len(forest.forest_edges) == 1
    assert forest.forest_edges[0][2] == 2
    for pi in enumerate_partitions(6):
        g = quotient(minimal_graph(3), pi)
        forest = forest_of_tec(g)
        ends = [g.edges[eid][end] for _, _, eid in forest.forest_edges
                for end in (0, 1)]
        assert forest.degrees == tuple(sum(v in comp for v in ends)
                                       for comp in forest.components)
        assert leaf_count(g) == sum(2 if d == 0 else d == 1
                                    for d in forest.degrees)
    # the count read off the blocks against the forest's degrees
    rng = np.random.default_rng(17)
    graphs = [LinearGraph(0, ())] + [decorated_graph(rng) for _ in range(300)]
    for g in graphs:
        assert leaf_count(g) == forest_leaves(forest_of_tec(g).degrees)


def test_forest_partitions_vertices_and_is_acyclic():
    rng = np.random.default_rng(12)
    for _ in range(5000):
        g = random_graph(rng)
        forest = forest_of_tec(g)
        seen = set()
        for comp in forest.components:
            assert not (comp & seen)
            seen |= comp
        assert seen == set(range(g.vertex_count))
        # acyclic: a forest has one edge fewer than nodes per tree, and its
        # trees are the connected components of the graph
        assert len(forest.forest_edges) == \
            len(forest.components) - component_count(g)
        assert leaf_count(g) == forest_leaves(forest.degrees)


def test_leaf_count_examples():
    assert leaf_count(LinearGraph(2, [(0, 1)])) == 2
    assert leaf_count(LinearGraph(1, [(0, 0)])) == 2
    path3 = LinearGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert leaf_count(path3) == 2
    star3 = LinearGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert leaf_count(star3) == 3
    # additivity over components, and the 2-per-trivial convention
    both = LinearGraph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert leaf_count(both) == 3 + 2


def test_leaf_count_lower_bound():
    # every tree of the forest has at least two leaves: a one-node tree
    # counts 2, a longer one has two ends
    assert leaf_count(LinearGraph(0, ())) == 0
    rng = np.random.default_rng(13)
    for _ in range(5000):
        g = random_graph(rng)
        assert leaf_count(g) >= 2 * component_count(g)
    for _ in range(100):
        g = random_graph(rng)
        tec = forest_of_tec(g)
        if not tec.forest_edges:
            assert leaf_count(g) == 2 * len(tec.components)


def test_cactus_examples():
    assert is_forest_of_cacti(LinearGraph(2, [(0, 1), (1, 0)]))
    assert not is_forest_of_cacti(LinearGraph(2, [(0, 1)]))
    theta = LinearGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert not is_forest_of_cacti(theta)
    loop = LinearGraph(1, [(0, 0)])
    assert is_forest_of_cacti(loop)
    # two cycles sharing one vertex: still a forest of cacti
    eight = LinearGraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    assert is_forest_of_cacti(eight)


def test_cactus_agrees_with_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(150):
        g = random_graph(rng, max_v=5, max_e=7)
        assert is_forest_of_cacti(g) == is_forest_of_cacti_by_enumeration(g)


def test_decomposition_tells_cacti_by_cycle_rank():
    """Tarjan's `_decompose` flags a forest of cacti by counting its blocks
    against the cycle rank; `is_forest_of_cacti` finds no bridge and no two
    fundamental cycles sharing an edge, and the validity check reads the
    same flag."""
    rng = np.random.default_rng(15)
    graphs = [LinearGraph(0, ())] + [random_graph(rng) for _ in range(300)]
    graphs += [decorated_graph(rng) for _ in range(300)]
    graphs += [quotient(minimal_graph(3), pi) for pi in enumerate_partitions(6)]
    seen = set()
    for g in graphs:
        cactus = _decompose(g.vertex_count, g.edges)[2]
        assert cactus == is_forest_of_cacti(g), g
        labels = ((1,) * g.order, (False,) * g.order)
        assert (classify_labeling(g, *labels) != NOT_CACTUS) == cactus, g
        seen.add(cactus)
    assert seen == {False, True}


def test_quotient_forests_match_tarjan_on_every_quotient():
    """The walk yields every restricted-growth string in order, and on every
    quotient of every layer its forest gives the bridges, leaf count and
    cactus flag of Tarjan's search, and for a forest of cacti its blocks."""
    rng = np.random.default_rng(18)
    graphs = [LinearGraph(0, ()), LinearGraph(3, ())]
    graphs += [decorated_graph(rng, max_v=5, max_e=8) for _ in range(30)]
    seen = set()
    for g in graphs:
        color = rng.integers(2, size=g.order)
        layers = [g.edges, [e for e, c in zip(g.edges, color) if c],
                  [e for e, c in zip(g.edges, color) if not c]]
        walked = []
        for rgs, _, forests in quotient_forests(g.vertex_count, layers):
            walked.append(rgs)
            nv = max(rgs, default=-1) + 1
            for edges, forest in zip(layers, forests):
                qedges = [(rgs[s], rgs[t]) for s, t in edges]
                blocks, leaves, cactus = _decompose(nv, qedges)
                bridges = sorted(b[0] for b in blocks if len(b) == 1
                                 and qedges[b[0]][0] != qedges[b[0]][1])
                assert forest.bridges() == bridges, (rgs, edges)
                assert forest.leaves(rgs, edges) == leaves, (rgs, edges)
                assert forest.cactus() == cactus, (rgs, edges)
                if cactus:
                    assert sorted(forest.blocks()) == sorted(map(sorted, blocks))
                seen.add((cactus, bool(bridges)))
        assert walked == restricted_growth_strings(g.vertex_count)
    assert seen == {(True, False), (False, False), (False, True)}


def test_quotient_forests_grow_each_partition_text():
    """The walk's text of each restricted-growth string is the string joined
    by commas, for every string of length <= 9, and the texts come strictly
    ascending: the order of the `predict` ledger."""
    for n in range(10):
        texts = []
        for rgs, text, _ in quotient_forests(n, []):
            assert text == ",".join(map(str, rgs)), rgs
            texts.append(text)
        assert all(a < b for a, b in zip(texts, texts[1:])), n
        assert len(texts) == len(restricted_growth_strings(n))


def random_cactus(rng, cycles=12, max_len=9):
    """A connected cactus: each cycle (a loop, a parallel pair, ...) hangs
    from a vertex already placed, with random orientations."""
    nv, edges = 1, []
    for _ in range(cycles):
        ring = [int(rng.integers(nv))]
        ring += range(nv, nv + int(rng.integers(max_len)))
        nv += len(ring) - 1
        for s, t in zip(ring, ring[1:] + ring[:1]):
            edges.append((s, t) if rng.integers(2) else (t, s))
    return LinearGraph(nv, tuple(edges))


def test_graph_forest_matches_tarjan():
    """On whole graphs big enough for long climbs and hops over covered
    edges, the near-linear forest gives Tarjan's bridges, leaf count and
    cactus flag, and for a forest of cacti its blocks. A chord between two
    vertices of a cactus puts two cycles on one edge."""
    rng = np.random.default_rng(19)
    graphs = [random_graph(rng, max_v=40, max_e=50) for _ in range(100)]
    graphs += [decorated_graph(rng, max_v=30, max_e=30) for _ in range(50)]
    cacti = [random_cactus(rng) for _ in range(50)]
    chorded = [LinearGraph(g.vertex_count, g.edges + (tuple(
        int(v) for v in rng.integers(g.vertex_count, size=2)),))
        for g in cacti]
    seen = set()
    for g in graphs + cacti + chorded:
        blocks, leaves, cactus = _decompose(g.vertex_count, g.edges)
        bridges = {b[0] for b in blocks if len(b) == 1
                   and g.edges[b[0]][0] != g.edges[b[0]][1]}
        assert cutting_edges(g) == bridges, g
        assert leaf_count(g) == leaves, g
        assert is_forest_of_cacti(g) == cactus, g
        if cactus:
            assert sorted(map(sorted, _GraphForest(g).blocks())) == sorted(
                map(sorted, blocks)), g
        seen.add((cactus, bool(bridges)))
    assert all(is_forest_of_cacti(g) for g in cacti)
    assert seen == {(True, False), (False, False), (False, True)}


def test_simple_cycles_small():
    loop = LinearGraph(1, [(0, 0)])
    assert simple_cycles(loop) == [frozenset({0})]
    two_cycle = LinearGraph(2, [(0, 1), (1, 0)])
    assert simple_cycles(two_cycle) == [frozenset({0, 1})]
    theta = LinearGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert len(simple_cycles(theta)) == 3


def test_well_oriented():
    assert is_well_oriented(LinearGraph(2, [(0, 1), (1, 0)]))
    # both edges the same direction: a cycle as a graph but not directed
    assert not is_well_oriented(LinearGraph(2, [(0, 1), (0, 1)]))
    assert is_well_oriented(LinearGraph(1, [(0, 0)]))
    assert not is_well_oriented(LinearGraph(2, [(0, 1)]))


def test_cactus_cycles_are_the_directed_simple_cycles():
    # the blocks of a well-oriented graph, walked, are its simple cycles
    loops = LinearGraph(1, ((0, 0), (0, 0)))
    bases = [minimal_graph(3),
             linearize(loops, StarWord.parse("1,2*"), 1, 1, 0).graph,
             linearize(loops, StarWord.parse("1,2*"), 2, 0, 0).graph]
    seen = {True: 0, False: 0}
    for base in bases:
        for pi in enumerate_partitions(base.vertex_count):
            g = quotient(base, pi)
            oriented = is_well_oriented(g)
            seen[oriented] += 1
            if not oriented:
                continue
            cycles = [_walk(g.edges, block)
                      for block in _decompose(g.vertex_count, g.edges)[0]]
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert g.edges[a][1] == g.edges[b][0]
                assert len(set(cyc)) == len(cyc)
            assert sorted(map(frozenset, cycles), key=sorted) == simple_cycles(g)
    assert seen[True] and seen[False]


def test_validity_classification():
    two_cycle = LinearGraph(2, [(0, 1), (1, 0)])
    assert classify_labeling(two_cycle, (1, 1), (False, True)) == VALID
    assert classify_labeling(two_cycle, (1, 2), (False, True)) == NOT_WELL_COLORED
    four = LinearGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert classify_labeling(four, (1, 1, 1, 1),
                             (False, True, False, True)) == VALID
    assert classify_labeling(four, (1, 1, 1, 1),
                             (False, False, True, True)) == NOT_ALTERNATED
    assert classify_labeling(LinearGraph(2, [(0, 1)]), (1,), (False,)) == NOT_CACTUS


def test_eta_examples():
    # single 2-cycle, both edges color 1
    g = LinearGraph(2, [(0, 1), (1, 0)])
    assert eta(g, (1, 1)) == Fraction(0)
    # colors split across the 2-cycle: both sides are bridges
    assert eta(g, (1, 2)) == Fraction(-1)
    # no edges at all: everything trivial
    empty = LinearGraph(3, ())
    assert eta(empty, ()) == Fraction(0)


def test_leaf_monotonicity_exhaustive_k2():
    # leaves may only shrink under coarsening: L(T0^pi) <= L(T0^pi2)
    base = minimal_graph(2)
    parts = enumerate_partitions(4)
    for pi in parts:
        for pi2 in parts:
            if leq(pi2, pi):
                assert (leaf_count(quotient(base, pi))
                        <= leaf_count(quotient(base, pi2)))


def test_leaf_monotonicity_sampled_k3():
    rng = np.random.default_rng(16)
    parts = enumerate_partitions(6)
    for _ in range(150):
        pi = parts[rng.integers(len(parts))]
        below = [p for p in parts if leq(p, pi)]
        pi2 = below[rng.integers(len(below))]
        assert (leaf_count(quotient(minimal_graph(3), pi))
                <= leaf_count(quotient(minimal_graph(3), pi2)))

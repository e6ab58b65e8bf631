import json

import numpy as np
import pytest

from tensortraffic.errors import InvalidArgumentError
from tensortraffic.graphs import (LinearGraph, adjoint_graph, canonical_form,
                                  component_count, disjoint_union,
                                  graph_from_json, minimal_graph, quotient)
from tensortraffic.partitions import SetPartition, enumerate_partitions


def random_graph(rng, max_v=6, max_e=8):
    nv = int(rng.integers(1, max_v + 1))
    ne = int(rng.integers(0, max_e + 1))
    edges = tuple((int(rng.integers(nv)), int(rng.integers(nv)))
                  for _ in range(ne))
    return LinearGraph(nv, edges)


def test_minimal_graph_examples():
    g1 = minimal_graph(1)
    assert g1.vertex_count == 2 and g1.edges == ((1, 0),)
    g2 = minimal_graph(2)
    assert g2.vertex_count == 4 and g2.edges == ((2, 0), (3, 1))
    g3 = minimal_graph(3)
    assert g3.vertex_count == 6 and g3.order == 3
    # no two edges share a vertex
    seen = set()
    for s, t in g3.edges:
        assert s not in seen and t not in seen
        seen.update((s, t))
    with pytest.raises(InvalidArgumentError):
        minimal_graph(0)


def test_quotient_examples():
    loop = quotient(minimal_graph(1), SetPartition.full(2))
    assert loop.vertex_count == 1 and loop.edges == ((0, 0),)
    two_cycle = quotient(minimal_graph(2), SetPartition((0, 1, 1, 0)))
    assert two_cycle.vertex_count == 2
    # antiparallel pair
    assert set(two_cycle.edges) == {(0, 1), (1, 0)} and len(two_cycle.edges) == 2


def test_quotient_fig2_structure():
    # order 9, blocks as printed in the construction example: the targets of
    # the 1st and 3rd edges coincide with the source of the 4th edge:
    # {1,3,13} {2,14,15,16} {4,11,17} {5,10} {6} {7} {8,9,18} {12}
    pi = SetPartition((0, 1, 0, 2, 3, 4, 5, 6, 6, 3, 2, 7, 0, 1, 1, 1, 2, 6))
    g = quotient(minimal_graph(9), pi)
    assert g.vertex_count == 8 and g.order == 9
    assert g.edges[0][1] == g.edges[2][1] == g.edges[3][0]


def test_quotient_ground_mismatch():
    with pytest.raises(InvalidArgumentError):
        quotient(minimal_graph(2), SetPartition.discrete(3))


def test_quotient_by_discrete_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng)
        q = quotient(g, SetPartition.discrete(g.vertex_count))
        assert canonical_form(q) == canonical_form(g)


def test_quotient_composition():
    from tensortraffic.partitions import leq

    rng = np.random.default_rng(4)
    for _ in range(30):
        g = random_graph(rng, max_v=5)
        parts = enumerate_partitions(g.vertex_count)
        pi = parts[rng.integers(len(parts))]
        above = [p for p in parts if leq(pi, p)]
        pi2 = above[rng.integers(len(above))]
        # induced partition of the blocks of pi
        induced = SetPartition.from_values(
            tuple(pi2.rgs[pi.blocks()[b][0] - 1] for b in range(pi.num_blocks)))
        lhs = quotient(quotient(g, pi), induced)
        rhs = quotient(g, pi2)
        assert lhs == rhs


def test_kernel_examples():
    # the kernel of a multi-index groups the positions of equal entries
    # blocks {1,5} {2,4} {3} {6,7,8}
    assert SetPartition.from_values((6, 1, 4, 1, 6, 2, 2, 2)) == \
        SetPartition((0, 1, 2, 1, 0, 3, 3, 3))


def test_kernel_relabeling_invariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        vals = rng.integers(1, 5, size=6)
        relabel = {v: i + 10 for i, v in enumerate(dict.fromkeys(vals.tolist()))}
        assert SetPartition.from_values(vals) == SetPartition.from_values(
            [relabel[v] for v in vals.tolist()])


def test_canonical_form_idempotent_and_first_seen():
    g = LinearGraph(2, [(1, 0)])
    c = canonical_form(g)
    assert c.edges == ((0, 1),)  # source numbered before target
    assert canonical_form(c) == c
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = random_graph(rng)
        assert canonical_form(canonical_form(g)) == canonical_form(g)


def test_canonical_form_isomorphism_invariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graph(rng)
        perm = rng.permutation(g.vertex_count)
        h = LinearGraph(g.vertex_count,
                        tuple((int(perm[s]), int(perm[t])) for s, t in g.edges))
        assert canonical_form(g) == canonical_form(h)


def test_quotient_map_injective_on_partitions():
    # distinct partitions of [2K] give order-distinct graphs (K = 1, 2)
    for k, count in ((1, 2), (2, 15)):
        base = minimal_graph(k)
        forms = {canonical_form(quotient(base, pi))
                 for pi in enumerate_partitions(2 * k)}
        assert len(forms) == count


def test_adjoint():
    g = LinearGraph(2, [(1, 0)])
    assert adjoint_graph(g).edges == ((0, 1),)
    loop = LinearGraph(1, [(0, 0)])
    assert adjoint_graph(loop) == loop
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_graph(rng)
        assert adjoint_graph(adjoint_graph(g)) == g


def test_disjoint_union():
    g = LinearGraph(2, [(1, 0)])
    empty = LinearGraph(0, ())
    assert disjoint_union(g, empty) == g
    h = LinearGraph(3, [(0, 1), (2, 2)])
    u = disjoint_union(g, h)
    assert u.vertex_count == 5 and u.order == 3
    assert u.edges == ((1, 0), (2, 3), (4, 4))
    assert component_count(u) == component_count(g) + component_count(h)


def test_json_roundtrip():
    doc = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
           "labels": {"delta": [1, 1, 2], "eps": ["u", "s", "u"]}}
    g, labels = graph_from_json(json.loads(json.dumps(doc)))
    assert g == LinearGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert labels == ((1, 1, 2), (False, True, False))


def test_bad_edges_rejected():
    with pytest.raises(InvalidArgumentError):
        LinearGraph(2, [(0, 2)])

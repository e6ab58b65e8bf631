import numpy as np
import pytest

from tensortraffic.errors import InvalidArgumentError, ResourceLimitError
from tensortraffic.graphs import LinearGraph, canonical_form, quotient
from tensortraffic.haar import (_quotient_class, cycle_limit_coefficient,
                                haar_limit_injective, linearize,
                                predict_freeness_limit,
                                splitting_identity_check)
from tensortraffic.invariants import VALID, classify_labeling, split_by_color
from tensortraffic.operands import TensorOperand
from tensortraffic.partitions import enumerate_partitions
from tensortraffic.words import StarWord, all_words, free_reduce, is_trivial

from oracles import haar_limit_reference, predict_ledger_reference

LOOP1 = LinearGraph(1, [(0, 0)])
LOOP2 = LinearGraph(1, [(0, 0), (0, 0)])


# --- free reduction ----------------------------------------------------------

def test_reduce_examples():
    assert is_trivial(StarWord.parse("1,1*"))
    assert is_trivial(StarWord.parse("1,2,2*,1*"))
    w = free_reduce(StarWord.parse("1,2,1*,2*"))
    assert len(w) == 4


def test_reduce_confluence():
    # cancel pairs in random order; the normal form must match the scan
    rng = np.random.default_rng(9)
    for _ in range(200):
        length = int(rng.integers(0, 10))
        letters = tuple((int(rng.integers(1, 3)), bool(rng.integers(2)))
                        for _ in range(length))
        word = StarWord(letters, 2)
        current = list(letters)
        while True:
            spots = [i for i in range(len(current) - 1)
                     if current[i][0] == current[i + 1][0]
                     and current[i][1] != current[i + 1][1]]
            if not spots:
                break
            i = spots[int(rng.integers(len(spots)))]
            del current[i:i + 2]
        assert tuple(current) == free_reduce(word).letters


def test_word_string_roundtrip():
    w = StarWord.parse("1,2,1*,2*")
    assert w.to_string() == "1,2,1*,2*"


def test_all_words_count():
    assert sum(1 for _ in all_words(2, 2)) == 16


# --- linearization ----------------------------------------------------------

def test_linearize_p1_is_isomorphic():
    w = StarWord.parse("1")
    lin = linearize(LOOP1, w, 1, 0, 0)
    assert canonical_form(lin.graph) == canonical_form(LOOP1)


def test_linearize_loop_length2_gives_directed_2cycle():
    lin = linearize(LOOP1, StarWord.parse("1,1"), 1, 0, 0)
    assert lin.graph.vertex_count == 2
    assert set(lin.graph.edges) == {(0, 1), (1, 0)}


def test_linearize_vertex_count():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k1, k2, k3 = 1 + int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(2))
        k = k1 + k2 + k3
        base = LinearGraph(1, tuple((0, 0) for _ in range(k)))
        p = 1 + int(rng.integers(4))
        word = StarWord(tuple((1 + int(rng.integers(2)), bool(rng.integers(2)))
                              for _ in range(p)), 2)
        lin = linearize(base, word, k1, k2, k3)
        assert lin.graph.vertex_count == base.vertex_count + k * (p - 1)
        assert lin.graph.order == k * p


def test_linearize_block_mismatch():
    with pytest.raises(InvalidArgumentError):
        linearize(LOOP1, StarWord.parse("1"), 1, 1, 0)


def test_split_graphs_orders_and_union():
    word = StarWord.parse("1,2")
    base = LinearGraph(1, tuple((0, 0) for _ in range(3)))
    lin = linearize(base, word, 1, 1, 1)
    parts = enumerate_partitions(lin.graph.vertex_count)
    pi = parts[7]
    tprime = quotient(lin.graph, pi)
    color = [2 if m.block == "v" else 1 for m in lin.meta]
    t1, t2 = split_by_color(tprime, color)
    assert t1.order == 2 * len(word) and t2.order == 1 * len(word)
    assert t1.vertex_count == t2.vertex_count == tprime.vertex_count
    # every edge lands in the subgraph of its block's colour, in edge order
    assert t1.edges == tuple(e for e, c in zip(tprime.edges, color) if c == 1)
    assert t2.edges == tuple(e for e, c in zip(tprime.edges, color) if c == 2)


# --- exact limit coefficients ------------------------------------------------

def test_cycle_limit_coefficients():
    assert cycle_limit_coefficient(2) == 1
    assert cycle_limit_coefficient(4) == -1
    assert cycle_limit_coefficient(6) == 2
    assert cycle_limit_coefficient(8) == -5
    assert cycle_limit_coefficient(10) == 14  # Catalan(4)


def test_haar_limit_on_cycles():
    def cyc(n):
        return LinearGraph(n, [(i, (i + 1) % n) for i in range(n)])

    assert haar_limit_injective(cyc(2), (1, 1), (False, True)) == 1
    assert haar_limit_injective(cyc(4), (1,) * 4,
                                (False, True, False, True)) == -1
    assert haar_limit_injective(cyc(6), (1,) * 6, (False, True) * 3) == 2
    # invalid labelings vanish
    assert haar_limit_injective(cyc(2), (1, 2), (False, True)) == 0
    assert haar_limit_injective(cyc(4), (1,) * 4,
                                (False, False, True, True)) == 0
    assert haar_limit_injective(LinearGraph(2, [(0, 1)]), (1,), (False,)) == 0


def test_haar_limit_product_over_components():
    # two disjoint 2-cycles and a 4-cycle: product 1 * 1 * (-1)
    edges = [(0, 1), (1, 0), (2, 3), (3, 2),
             (4, 5), (5, 6), (6, 7), (7, 4)]
    g = LinearGraph(8, edges)
    delta = (1, 1, 2, 2, 3, 3, 3, 3)
    eps = (False, True, False, True, False, True, False, True)
    assert haar_limit_injective(g, delta, eps) == -1


def random_labeled_cactus(rng):
    """Directed cycles of length 1-6 glued at random vertices, with labels
    that are VALID about half the time, plus now and then a chord or a
    pendant edge that breaks the cactus."""
    edges, delta, eps, nv = [], [], [], 1
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.choice([1, 2, 2, 4, 4, 6, 3]))
        cycle = [int(rng.integers(nv))] + list(range(nv, nv + length - 1))
        nv += length - 1
        edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        letter, flip = int(rng.integers(1, 3)), bool(rng.integers(2))
        delta += [letter] * length
        eps += [(i % 2 == 1) != flip for i in range(length)]
    for i in range(len(edges)):
        if rng.random() < 0.05:
            delta[i] = 3 - delta[i]
        if rng.random() < 0.05:
            eps[i] = not eps[i]
    if rng.random() < 0.2:
        edges.append((int(rng.integers(nv)), int(rng.integers(nv + 1))))
        delta.append(1)
        eps.append(False)
        nv += 1
    return LinearGraph(nv, edges), tuple(delta), tuple(eps)


def test_limit_on_random_labeled_cacti_matches_reference():
    rng = np.random.default_rng(19)
    weights = set()
    for _ in range(600):
        g, delta, eps = random_labeled_cactus(rng)
        want = haar_limit_reference(g, delta, eps)
        assert haar_limit_injective(g, delta, eps) == want
        if classify_labeling(g, delta, eps) == VALID:
            weights.add(want)
    assert {1, -1, 2, -2} <= weights  # products over 2-, 4-, 6-cycles


# --- the vanishing certificate ----------------------------------------------

LOOPS = {blocks: LinearGraph(1, ((0, 0),) * sum(blocks))
         for blocks in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 0, 0))}
ISOLATED = LinearGraph(3, ((2, 2), (2, 2)))  # base vertices 0, 1 isolated
EDGE = LinearGraph(2, ((0, 1),))
BRIDGED = LinearGraph(2, ((0, 1), (1, 1)))


def _words(*lengths):
    """Nontrivial words over two letters that start with letter 1; the ledger
    sees letters only through equality, so the others repeat these."""
    return [w for p in lengths for w in all_words(2, p)
            if w.letters[0][0] == 1 and not is_trivial(w)]


@pytest.mark.parametrize("blocks", [(1, 0, 0), (1, 1, 0), (1, 0, 1),
                                    (1, 1, 1)])
def test_predict_ledger_matches_reference_on_loops(blocks):
    for word in _words(1, 2, 3):
        cert = predict_freeness_limit(word, LOOPS[blocks], *blocks)
        assert cert.to_json() == predict_ledger_reference(
            word, LOOPS[blocks], *blocks), word.to_string()


def test_predict_ledger_matches_reference_on_other_bases():
    """Doubled graphs of at most 8 vertices, isolated base vertices and a
    base with a bridge; some of these quotients have a VALID T1."""
    cases = [(w, LOOPS[(1, 0, 0)], (1, 0, 0), True) for w in _words(1, 2, 3)]
    cases += [(w, LOOPS[b], b, True) for w in _words(1, 2)
              for b in ((1, 1, 0), (1, 0, 1), (2, 0, 0))]
    cases.append((StarWord.parse("1,2,1*,2*"), LOOPS[(1, 0, 0)], (1, 0, 0),
                  True))
    cases += [(w, ISOLATED, b, False) for w in _words(1, 2)
              for b in ((1, 1, 0), (1, 0, 1))]
    cases += [(w, LinearGraph(2, ((1, 1),)), (1, 0, 0), True)
              for w in _words(1, 2)]
    cases += [(w, EDGE, (1, 0, 0), True) for w in _words(1, 2)]
    cases += [(w, BRIDGED, b, False) for w in _words(1, 2)
              for b in ((1, 1, 0), (1, 0, 1), (2, 0, 0))]
    cases += [(w, BRIDGED, (1, 0, 1), False) for w in _words(3)]
    cases.append((StarWord.parse("1,2"), BRIDGED, (1, 0, 1), True))
    valid = merged = 0
    for word, base, blocks, variance in cases:
        doc = predict_freeness_limit(word, base, *blocks,
                                     include_variance_graph=variance).to_json()
        assert doc == predict_ledger_reference(word, base, *blocks, variance), \
            (word.to_string(), base, blocks, variance)
        valid += sum(q["validity"] == VALID for q in doc["quotients"])
        merged += sum(q["multiplicity"] > 1 for q in doc["quotients"])
    assert valid and merged


def test_quotient_class_matches_canonical_form():
    """The ledger key and the canonical form of the quotient split every
    B(V) into the same classes, on linearized graphs with 1-3 isolated base
    vertices."""
    rng = np.random.default_rng(23)
    for _ in range(12):
        touched = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        base = LinearGraph(touched + int(rng.integers(1, 4)), tuple(
            (int(rng.integers(touched)), int(rng.integers(touched)))
            for _ in range(k)))
        word = StarWord.parse(",".join(
            str(int(rng.integers(1, 3))) + "*" * int(rng.integers(2))
            for _ in range(int(rng.integers(1, 3)))))
        graph = linearize(base, word, k, 0, 0).graph  # at most 7 vertices
        touched_vertices = sorted(graph.touched_vertices())
        pairs = {(_quotient_class(pi, touched_vertices),
                  canonical_form(quotient(graph, pi)))
                 for pi in enumerate_partitions(graph.vertex_count)}
        assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) \
            == len(pairs)


def test_predict_single_letter():
    cert = predict_freeness_limit(StarWord.parse("1"), LOOP1, 1, 0, 0)
    assert cert.verdict == "VANISHES"
    assert all(e.eta <= 0 for e in cert.entries)


def test_predict_commutator():
    cert = predict_freeness_limit(StarWord.parse("1,2,1*,2*"), LOOP1, 1, 0, 0)
    assert cert.verdict == "VANISHES"
    assert not any(e.dangerous for e in cert.entries)
    # multiplicities must cover every partition of the 4 vertices
    assert sum(e.multiplicity for e in cert.entries) == 15


def test_predict_dedup_merges_quotients_of_isolated_vertices():
    # base vertices 0 and 1 are isolated: quotients that place them
    # differently among the touched vertices are isomorphic, and the ledger
    # folds the 15 quotients of the 4 vertices into 6 entries
    base = LinearGraph(3, ((2, 2),))
    cert = predict_freeness_limit(StarWord.parse("1,2"), base, 1, 0, 0)
    assert len(cert.entries) == 6
    assert sum(e.multiplicity for e in cert.entries) == 15  # B(4)
    assert max(e.multiplicity for e in cert.entries) == 5


def test_predict_rejects_trivial_word():
    with pytest.raises(InvalidArgumentError):
        predict_freeness_limit(StarWord.parse("1,1*"), LOOP1, 1, 0, 0)


def test_predict_vertex_guard():
    base = LinearGraph(1, tuple((0, 0) for _ in range(3)))
    with pytest.raises(ResourceLimitError):
        predict_freeness_limit(StarWord.parse("1,2,1,2,1"), base, 1, 1, 1)


def test_predict_eta_zero_when_no_third_block():
    # with K3 = 0 the exponent vanishes identically on every quotient
    cert = predict_freeness_limit(StarWord.parse("1,1"), LOOP2, 1, 1, 0)
    assert all(e.eta == 0 for e in cert.entries)
    assert cert.verdict == "VANISHES"


def test_predict_with_third_block_eta_nonpositive():
    base = LinearGraph(1, ((0, 0), (0, 0)))
    cert = predict_freeness_limit(StarWord.parse("1,2"), base, 1, 0, 1)
    assert all(e.eta <= 0 for e in cert.entries)
    assert cert.verdict == "VANISHES"


def test_certificate_json_shape():
    cert = predict_freeness_limit(StarWord.parse("1,1"), LOOP1, 1, 0, 0)
    doc = cert.to_json()
    assert doc["verdict"] == "VANISHES"
    assert {"partition", "multiplicity", "eta", "leaves", "leaf_defect",
            "validity", "limit_coefficient"} <= set(doc["quotients"][0])


# --- splitting identity -------------------------------------------------------

def test_splitting_exact_n4(rng):
    tprime = LinearGraph(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    n = 4
    b1 = TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(2)])
    b2 = TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(2)])
    rep = splitting_identity_check(tprime, (1, 1, 2, 2), b1, b2, mode="exact")
    assert rep.residual <= 1e-9
    assert not rep.degenerate


def test_splitting_identity_operand():
    # B2 = identity: the identity reduces to injective label counting
    tprime = LinearGraph(2, [(0, 1), (1, 0), (0, 0)])
    n = 4
    rng = np.random.default_rng(21)
    b1 = TensorOperand.factored(
        [rng.standard_normal((n, n)) for _ in range(2)])
    b2 = TensorOperand.identity(n, 1)
    rep = splitting_identity_check(tprime, (1, 1, 2), b1, b2, mode="exact")
    assert rep.residual <= 1e-9


def test_splitting_degenerate_when_n_too_small():
    tprime = LinearGraph(3, [(0, 1), (1, 2), (2, 0)])
    b1 = TensorOperand.factored([np.eye(2)] * 3)
    b2 = TensorOperand(2, 0, [(1.0, ())])
    rep = splitting_identity_check(tprime, (1, 1, 1), b1, b2, mode="exact")
    assert rep.degenerate


def test_splitting_mc_n20(rng):
    tprime = LinearGraph(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    n = 20
    b1 = TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(2)])
    b2 = TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(2)])
    rep = splitting_identity_check(tprime, (1, 1, 2, 2), b1, b2,
                                   mode="sampled", samples=250, seed=4)
    assert rep.residual <= 3 * rep.stderr + 1e-9


def test_sampled_checks_validate_their_arguments(rng):
    tprime = LinearGraph(2, [(0, 1), (1, 0), (1, 1)])
    b1 = TensorOperand.factored([rng.standard_normal((4, 4))] * 2)
    b2 = TensorOperand.factored([rng.standard_normal((4, 4))])
    with pytest.raises(InvalidArgumentError, match="unknown mode"):
        splitting_identity_check(tprime, (1, 1, 2), b1, b2, mode="exakt")
    with pytest.raises(InvalidArgumentError, match="need samples >= 2"):
        splitting_identity_check(tprime, (1, 1, 2), b1, b2, mode="sampled",
                                 samples=1)
    for mode in ("exact", "sampled"):
        rep = splitting_identity_check(tprime, (1, 1, 2), b1, b2, mode=mode,
                                       samples=8)
        assert type(rep.residual) is float

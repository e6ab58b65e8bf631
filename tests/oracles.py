"""Reference implementations that the tests compare the package against.

Each is exponential and shares no code with the routine it checks.
`dense_unital_coefficients` builds an input for them: a state on which no
probe of the decomposition is zero. `eta` is no reference: it composes the
package's own split and leaf count into the splitting exponent of a
coloring, which the package computes only inside `predict`.
"""
import itertools
from fractions import Fraction

import numpy as np

from tensortraffic.characters import Signature
from tensortraffic.errors import InvalidArgumentError
from tensortraffic.graphs import (LinearGraph, canonical_form, component_count,
                                  minimal_graph, quotient)
from tensortraffic.haar import (FreenessCertificate, QuotientEntry,
                                cycle_limit_coefficient, doubled, linearize,
                                t1_labels)
from tensortraffic.invariants import (VALID, classify_labeling, forest_leaves,
                                      forest_of_tec, leaf_count,
                                      split_by_color, splitting_exponent)
from tensortraffic.operands import (TensorOperand, compose, cycles_of,
                                    inverse_permutation)
from tensortraffic.partitions import enumerate_partitions, leq, mobius
from tensortraffic.traces import apply_state

SIMPLE_CYCLE_EDGE_CAP = 16


# --- simple-cycle enumeration (oracle for the cactus predicate) --------------

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


# --- the splitting exponent of a two-coloring --------------------------------

def eta(graph: LinearGraph, color) -> Fraction:
    """(L(T1) + L(T2) - L(T) - 2|V|) / 2 for the colored subgraphs T1, T2."""
    t1, t2 = split_by_color(graph, color)
    return splitting_exponent(leaf_count(graph), leaf_count(t1),
                              leaf_count(t2), graph.vertex_count)


# --- invariant-state decomposition by a scan over all pairs ----------------

def elementary_probes(psi, k: int, n: int) -> dict:
    """{pi: psi(E_pi)} over P(2K), E_pi the elementary matrix tensor whose
    leg l is the unit matrix at (pi(l), pi(K + l))."""
    probes = {}
    for pi in enumerate_partitions(2 * k):
        factors = []
        for leg in range(k):
            arr = np.zeros((n, n))
            arr[pi.rgs[leg], pi.rgs[k + leg]] = 1.0
            factors.append(arr)
        probes[pi] = apply_state(psi, TensorOperand.factored(factors))
    return probes


def dense_unital_coefficients(k: int, n: int, seed: int) -> dict:
    """{pi: a_pi} with a random complex a_pi on every partition of [2K],
    the discrete partition's chosen so that sum_pi a_pi N^#components = 1:
    a unital elementary combination on which no probe is zero."""
    rng = np.random.default_rng(seed)
    graph = minimal_graph(k)
    *rest, discrete = sorted(enumerate_partitions(2 * k),
                             key=lambda pi: pi.num_blocks)
    coeffs = {pi: complex(*rng.standard_normal(2)) for pi in rest}
    unit = sum(a * n ** component_count(quotient(graph, pi))
               for pi, a in coeffs.items())
    coeffs[discrete] = ((1 - unit)
                        / n ** component_count(quotient(graph, discrete)))
    return coeffs


def leq_scan_decomposition(psi, k: int, n: int) -> dict:
    """Reference for `traces.decompose_invariant_state`: the same probes,
    inverted by scanning all of P(2K) with leq for each pi, every probe
    kept, each sum started at the integer 0."""
    probes = elementary_probes(psi, k, n)
    return {pi: sum(probes[sigma] * mobius(sigma, pi)
                    for sigma in probes if leq(sigma, pi)) for pi in probes}


# --- the quotient ledger of `predict`, one quotient graph at a time ----------

def haar_limit_reference(graph: LinearGraph, delta, eps) -> Fraction:
    """Haar limit of a labeled graph: zero unless it classifies VALID, else
    the product of the signed Catalan weights of its enumerated simple
    cycles (the blocks of a forest of cacti)."""
    if classify_labeling(graph, delta, eps) != VALID:
        return Fraction(0)
    out = Fraction(1)
    for cyc in simple_cycles(graph):
        out *= cycle_limit_coefficient(len(cyc))
    return out


def _forest_leaf_count(graph: LinearGraph) -> int:
    return forest_leaves(forest_of_tec(graph).degrees)


def predict_ledger_reference(word, base: LinearGraph, k1: int, k2: int,
                             k3: int, include_variance_graph=False) -> dict:
    """`predict_freeness_limit(...).to_json()` built graph by graph: each
    quotient is keyed by its canonical form, split into its colored
    subgraphs, classified, and its three leaf counts are read off forests of
    two-edge-connected components. It shares linearization and
    `classify_labeling` with `predict`; the dedup key, the leaf counts and
    the cycle weights are computed independently. No vertex cap."""
    lin = linearize(base, word, k1, k2, k3)
    if include_variance_graph:
        lin = doubled(lin)
    graph = lin.graph
    delta, eps = t1_labels(lin)
    color = tuple(2 if m.block == "v" else 1 for m in lin.meta)
    base_leaves = _forest_leaf_count(graph)
    ledger = {}
    for pi in enumerate_partitions(graph.vertex_count):
        tprime = quotient(graph, pi)
        key = canonical_form(tprime)
        if key in ledger:
            ledger[key].multiplicity += 1
            continue
        t1, t2 = split_by_color(tprime, color)
        validity = classify_labeling(t1, delta, eps)
        coeff = haar_limit_reference(t1, delta, eps) if validity == VALID \
            else Fraction(0)
        lt, l1, l2 = (_forest_leaf_count(tprime), _forest_leaf_count(t1),
                      _forest_leaf_count(t2))
        ledger[key] = QuotientEntry(
            partition=pi.to_string(), multiplicity=1,
            eta=splitting_exponent(lt, l1, l2, tprime.vertex_count),
            leaves_total=lt, leaves_t1=l1, leaves_t2=l2,
            leaf_defect=base_leaves - lt, validity=validity,
            limit_coefficient=coeff)
    entries = sorted(ledger.values(), key=lambda e: e.partition)
    verdict = "VANISHES" if not any(e.dangerous for e in entries) \
        else "INCONCLUSIVE"
    return FreenessCertificate(word.to_string(), (k1, k2, k3),
                               include_variance_graph, verdict, base_leaves,
                               entries).to_json()


# --- Weingarten values by the Gram solve, N >= p -----------------------------

def _cycle_type(sigma) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))


def _solve(rows, rhs) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals; rows must be regular."""
    size = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def gram_weingarten_table(p: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Wg(., n) on S_p, cycle type -> value, by solving the orthogonality
    relation sum_tau Wg(sigma tau^-1) n^{#cycles(tau)} = delta_{sigma,e} for
    one sigma per conjugacy class. The Gram matrix is regular for n >= p
    only; p! ** 2 permutation pairs."""
    if n < p:
        raise InvalidArgumentError(f"the Gram matrix of S_{p} is singular "
                                   f"for N = {n} < {p}")
    perms = list(itertools.permutations(range(p)))
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s in perms:
        reps.setdefault(_cycle_type(s), s)
    types = sorted(reps)
    column = {t: i for i, t in enumerate(types)}
    rows = []
    for t in types:
        row = [Fraction(0)] * len(types)
        for tau in perms:
            rho = compose(reps[t], inverse_permutation(tau))
            row[column[_cycle_type(rho)]] += n ** len(cycles_of(tau))
        rows.append(row)
    identity = (1,) * p
    values = _solve(rows, [Fraction(int(t == identity)) for t in types])
    return dict(zip(types, values))


# --- dimension of a rational irreducible representation ----------------------

def weyl_dimension(sig: Signature, n: int) -> Fraction:
    """prod_{i<j} (l_i - l_j) / (j - i) over all N(N-1)/2 pairs, one
    `Fraction` per factor."""
    l = sig.composite_weights(n)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(l[i] - l[j], j - i)
    return out

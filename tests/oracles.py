"""Reference implementations that the tests compare the package against.

Each shares no code with the routine it checks, and all but `_decompose`
(Tarjan's search, the reference for the package's spanning forests) are
exponential, in the size of a graph or, for the dense conditional
expectation onto the span of leg permutations, in the tensor power d.
`dense_unital_coefficients` builds an input for them: a state on which no
probe of the decomposition is zero, and `ms_optimality_witness` the
operand on which criterion 3 measures the N^(L/2) growth rate. `eta` is
no reference: it composes the package's own split and leaf count into the
splitting exponent of a coloring, which the package computes only inside
`predict`.
"""
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tensortraffic.characters import Signature, permuted_tensor_trace
from tensortraffic.errors import (IllConditionedError, InvalidArgumentError,
                                  ResourceLimitError)
from tensortraffic.graphs import (LinearGraph, canonical_form, component_count,
                                  minimal_graph, quotient)
from tensortraffic.haar import (cycle_limit_coefficient, doubled, linearize,
                                t1_labels)
from tensortraffic.invariants import (VALID, classify_labeling, forest_leaves,
                                      forest_of_tec, leaf_count,
                                      split_by_color, splitting_exponent)
from tensortraffic.operands import (TensorOperand, check_permutation,
                                    compose, cycles_of, inverse_permutation)
from tensortraffic.partitions import (SetPartition, enumerate_partitions,
                                      leq, mobius)
from tensortraffic.traces import apply_state

SIMPLE_CYCLE_EDGE_CAP = 16
DENSE_BYTES_CAP = 2 ** 28  # 256 MiB: one complex N x N matrix at N = 4096


# --- blocks by Tarjan's search (oracle for the spanning forests) -------------

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
    heads = [degree[v] for v in range(n) if head[v] == v]
    leaves = 2 * heads.count(0) + heads.count(1)
    cactus = not any(bridge_ends) and len(blocks) == len(edges) - n + components
    return blocks, leaves, cactus


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


# --- the operand that attains the N^(L/2) growth rate (criterion 3) --------

def kernel(values) -> SetPartition:
    """The kernel of a multi-index: the partition of its positions that
    groups equal entries, blocks numbered by first appearance."""
    first: dict = {}
    return SetPartition(tuple(first.setdefault(v, len(first)) for v in values))


def ms_optimality_witness(pi: SetPartition, n: int) -> TensorOperand:
    """Unit-norm factored operand whose injective trace over the quotient of
    the minimal graph grows like N^(L/2).

    Construction: bridges adjacent to exactly one leaf of the forest of
    two-edge-connected components receive scaled column indicators pointing
    at a shared index determined by their non-leaf endpoints; every other
    edge receives a block matrix of rank-one all-ones blocks of size 2K.
    Every entry is nonnegative, so no cancellation occurs in the trace.
    """
    if pi.n % 2 != 0:
        raise InvalidArgumentError("the partition must live on [2K]")
    k = pi.n // 2
    if n < 2 * k:
        raise InvalidArgumentError(f"need N >= 2K = {2 * k}, got {n}")
    graph = quotient(minimal_graph(k), pi)
    forest = forest_of_tec(graph)
    deg = forest.degrees
    comp_of = {}
    for ci, comp in enumerate(forest.components):
        for v in comp:
            comp_of[v] = ci
    one_leaf = []  # (edge id, non-leaf endpoint, True if the target is in the leaf)
    for ci, cj, eid in forest.forest_edges:
        if (deg[ci] == 1) + (deg[cj] == 1) != 1:
            continue
        leaf_comp = ci if deg[ci] == 1 else cj
        s, t = graph.edges[eid]
        if comp_of[t] == leaf_comp:
            one_leaf.append((eid, s, True))
        else:
            one_leaf.append((eid, t, False))
    column = {}
    if one_leaf:
        anchor = kernel([v for _, v, _ in one_leaf])
        for (eid, _, _), b in zip(one_leaf, anchor.rgs):
            column[eid] = b
    block = 2 * k
    m = n // block
    jmat = np.zeros((n, n))
    for b in range(m):
        jmat[b * block:(b + 1) * block, b * block:(b + 1) * block] = 1.0 / block
    scale = n ** -0.5
    mats = []
    leaf_side = {eid: tgt_in_leaf for eid, _, tgt_in_leaf in one_leaf}
    for eid in range(k):
        if eid in column:
            arr = np.zeros((n, n))
            if leaf_side[eid]:
                arr[:, column[eid]] = scale  # entry A(row, anchor column)
            else:
                arr[column[eid], :] = scale
            mats.append(arr)
        else:
            mats.append(jmat)
    return TensorOperand.factored(mats)


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
    """The certificate that `predict` prints, as a dict, built graph by
    graph: each quotient is keyed by its canonical form, split into its
    colored subgraphs, classified, and its three leaf counts are read off
    forests of two-edge-connected components. It shares linearization and
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
    dangerous = False
    for pi in enumerate_partitions(graph.vertex_count):
        tprime = quotient(graph, pi)
        key = canonical_form(tprime)
        if key in ledger:
            ledger[key]["multiplicity"] += 1
            continue
        t1, t2 = split_by_color(tprime, color)
        validity = classify_labeling(t1, delta, eps)
        coeff = haar_limit_reference(t1, delta, eps) if validity == VALID \
            else Fraction(0)
        lt, l1, l2 = (_forest_leaf_count(tprime), _forest_leaf_count(t1),
                      _forest_leaf_count(t2))
        eta = splitting_exponent(lt, l1, l2, tprime.vertex_count)
        dangerous = dangerous or (eta == 0 and validity == VALID)
        ledger[key] = {"partition": pi.to_string(), "multiplicity": 1,
                       "eta": str(eta), "leaves": [lt, l1, l2],
                       "leaf_defect": base_leaves - lt, "validity": validity,
                       "limit_coefficient": str(coeff)}
    return {"word": word.to_string(), "blocks": [k1, k2, k3],
            "doubled": include_variance_graph,
            "verdict": "INCONCLUSIVE" if dangerous else "VANISHES",
            "base_leaves": base_leaves,
            "quotients": sorted(ledger.values(),
                                key=lambda q: q["partition"])}


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

def composite_weights(sig: Signature, n: int) -> list[int]:
    """Strictly decreasing exponents l_j = (padded signature)_j + N - j."""
    padded = list(sig.lam) + [0] * (n - sig.length) \
        + [-m for m in reversed(sig.mu)]
    return [padded[j] + n - (j + 1) for j in range(n)]


@functools.lru_cache(maxsize=None)
def weyl_dimension(sig: Signature, n: int) -> Fraction:
    """prod_{i<j} (l_i - l_j) / (j - i) over all N(N-1)/2 pairs, one
    `Fraction` per factor; cached, as the character oracle asks for it once
    per sample."""
    l = composite_weights(sig, n)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(l[i] - l[j], j - i)
    return out


# --- the Weyl character formula ---------------------------------------------

def weyl_character(sig: Signature, z) -> complex:
    """Normalized character at a unitary with the distinct eigenvalues z:
    the Weyl quotient det(z_i^{l_j}) / det(z_i^{N-j}) of generalized
    Vandermonde determinants, log-scaled to dodge overflow, over the exact
    dimension."""
    z = np.asarray(z, dtype=np.complex128)
    n = len(z)
    weights = np.array(composite_weights(sig, n), dtype=float)
    s_num, ld_num = np.linalg.slogdet(np.power.outer(z, weights))
    s_den, ld_den = np.linalg.slogdet(
        np.power.outer(z, np.arange(n - 1, -1, -1, dtype=float)))
    if s_den == 0:
        raise InvalidArgumentError("eigenvalues are not distinct")
    ratio = (s_num / s_den) * np.exp(ld_num - ld_den)
    return complex(ratio / float(weyl_dimension(sig, n)))


# --- the conditional expectation onto span{rho(sigma)}, densely ------------

def check_dense_size(legs: int, n: int):
    """Refuse a dense operator on K = legs tensor legs of C^N whose complex
    N^K x N^K matrix exceeds DENSE_BYTES_CAP, before anything of that size
    is allocated."""
    if 16 * n ** (2 * legs) > DENSE_BYTES_CAP:
        raise ResourceLimitError(
            f"dense operators are capped at {DENSE_BYTES_CAP >> 20} MiB "
            f"(N^K x N^K complex, N = {n}, K = {legs})")


def to_dense(op: TensorOperand) -> np.ndarray:
    """A factored operand as an N^K x N^K matrix (guarded)."""
    check_dense_size(op.legs, op.n)
    total = np.zeros((op.n ** op.legs, op.n ** op.legs), dtype=np.complex128)
    for weight, factors in op.terms:
        acc = np.eye(1, dtype=np.complex128)
        for f in factors:
            acc = np.kron(acc, f)
        total += weight * acc
    return total


def leg_permutation(sigma, n: int) -> np.ndarray:
    """Dense operator permuting the tensor legs: basis vector
    e_{i_1} x ... x e_{i_d} maps to the vector whose k-th leg is leg
    sigma^{-1}(k) of the input.
    """
    sigma = check_permutation(sigma)
    d = len(sigma)
    check_dense_size(d, n)
    op = np.eye(n ** d).reshape((n,) * (2 * d))
    # output axis k reads input leg sigma^{-1}(k)
    perm = list(inverse_permutation(sigma)) + list(range(d, 2 * d))
    return op.transpose(perm).reshape(n ** d, n ** d)


@dataclass
class PermutationSpanOperator:
    """Element of span{rho(sigma)}, kept as coefficients per permutation."""

    coefficients: dict  # tuple permutation -> complex
    n: int
    d: int

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n ** self.d, self.n ** self.d),
                       dtype=np.complex128)
        for sigma, c in self.coefficients.items():
            out += c * leg_permutation(sigma, self.n)
        return out


def _operand_legs(a, d, n):
    """A TensorOperand, or the N^d x N^d matrix of a dense input."""
    if isinstance(a, TensorOperand):
        if a.legs != d or a.n != n:
            raise InvalidArgumentError("operand does not match (d, N)")
        return a
    if isinstance(a, np.ndarray) and a.shape == (n ** d, n ** d):
        return np.asarray(a, dtype=np.complex128)
    return TensorOperand.factored(list(a))


def _trace_against_permutations(a, order, n, d):
    """m_sigma = tr^{x d}(rho(sigma)^* A) = tr^{x d}(A rho(sigma^{-1})) for
    every sigma, of a dense matrix or term by term of a factored operand.
    """
    out = np.zeros(len(order), dtype=np.complex128)
    for si, sigma in enumerate(order):
        inv = inverse_permutation(sigma)
        if isinstance(a, np.ndarray):
            out[si] = np.trace(leg_permutation(inv, n) @ a) / n ** d
        else:
            out[si] = sum(w * permuted_tensor_trace(fs, inv)
                          for w, fs in a.terms)
    return out


def conditional_expectation_sd(a, d: int, n: int) -> PermutationSpanOperator:
    """Orthogonal projection of a d-leg operand onto span{rho(sigma)} with
    respect to the normalized trace inner product.

    The Gram matrix G(sigma, tau) = N^{#cycles(sigma^{-1} tau) - d} is
    invertible for N > d; d is capped at 4 (a 24 x 24 Gram).
    """
    if d > 4:
        raise ResourceLimitError("conditional expectation capped at d = 4")
    if n <= d:
        raise IllConditionedError("need N > d for an invertible Gram matrix")
    a = _operand_legs(a, d, n)
    order = list(itertools.permutations(range(d)))
    gram = np.zeros((len(order), len(order)))
    for i, s in enumerate(order):
        s_inv = inverse_permutation(s)
        for j, t in enumerate(order):  # #cycles of s^{-1} t
            gram[i, j] = float(n) ** (len(cycles_of(compose(t, s_inv))) - d)
    m = _trace_against_permutations(a, order, n, d)
    coeffs = np.linalg.solve(gram, m)
    return PermutationSpanOperator({s: complex(c) for s, c in zip(order, coeffs)},
                                   n, d)


def amalgam_norm(word, d: int, letters) -> float:
    """One sample of `amalgam`, densely: the norm of the coefficients of
    E_{S_d}[prod over the word of (U^{x d} - E_{S_d}[U^{x d}])] on the
    rho(sigma), from the Haar letters U_1..U_K."""
    n = letters[0].shape[0]
    prod = None
    for idx, star in word.letters:
        u = letters[idx - 1].conj().T if star else letters[idx - 1]
        ex = conditional_expectation_sd(TensorOperand.factored([u] * d), d, n)
        centered = to_dense(TensorOperand.factored([u] * d)) - ex.to_dense()
        prod = centered if prod is None else prod @ centered
    projected = conditional_expectation_sd(prod, d, n)
    return float(np.linalg.norm(np.array(list(projected.coefficients.values()))))

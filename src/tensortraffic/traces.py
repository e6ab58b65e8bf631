"""Graph trace forms on tensor matrix spaces.

The elementary form of a linear graph T sums, over all labelings of the
vertices by matrix indices, the product over edges of the matrix entry
(target label, source label). The injective form restricts the sum to
injective labelings; it is recovered from elementary forms by Möbius
inversion over the partition lattice of the vertex set.

Evaluation is routed through a small contraction engine that eliminates
one vertex at a time, pairing tensors via batched matrix products (BLAS)
instead of generic einsum calls. Every array carries one leading sample
axis, which makes Monte-Carlo sweeps cheap; an operand term is a stack of
one sample.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .errors import (InvalidArgumentError, NotInvariantError,
                     ProbeFailureError, ResourceLimitError)
from .graphs import LinearGraph, component_count, minimal_graph, quotient
from .invariants import forest_of_tec, leaf_count
from .operands import (StateSpec, TensorOperand, inverse_permutation,
                       permutation_matrix)
from .partitions import (SetPartition, enumerate_partitions, find_root,
                         mobius_table, union_roots)

INJECTIVE_VERTEX_CAP = 9  # Bell(9) = 21147 partitions of the vertex set


# --------------------------------------------------------------------------
# contraction engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionPlan:
    order: tuple[int, ...]  # vertex elimination order (touched vertices only)
    width: int              # max rank of any intermediate tensor


@lru_cache(maxsize=None)
def contraction_plan(graph: LinearGraph) -> ContractionPlan:
    """Greedy min-degree vertex elimination order.

    At each step the vertex producing the smallest intermediate tensor is
    eliminated (ties broken by vertex id, so plans are deterministic).
    """
    sets: list[set[int]] = []
    for s, t in graph.edges:
        sets.append({s, t})
    alive = sorted(graph.touched_vertices())
    order = []
    width = 0
    while alive:
        best, best_rank = None, None
        for x in alive:
            union: set[int] = set()
            for s in sets:
                if x in s:
                    union |= s
            rank = len(union - {x}) if union else 0
            if best_rank is None or rank < best_rank:
                best, best_rank = x, rank
        order.append(best)
        merged: set[int] = set()
        keep = []
        for s in sets:
            if best in s:
                merged |= s
            else:
                keep.append(s)
        merged.discard(best)
        width = max(width, len(merged))
        # labels absent from every other tensor get summed out immediately
        other = set().union(*keep) if keep else set()
        merged &= other
        sets = keep + ([merged] if merged else [])
        alive.remove(best)
    return ContractionPlan(tuple(order), width)


def _pair_merge(a_arr, a_idx, b_arr, b_idx, sum_over):
    """Contract two tensors over `sum_over`, batching other shared labels.

    Axis 0 is the sample axis; every other axis has length N.
    """
    bset = set(b_idx)
    shared = [l for l in a_idx if l in bset]
    con = [l for l in shared if l in sum_over]
    batch_sh = [l for l in shared if l not in sum_over]
    free_a = [l for l in a_idx if l not in bset]
    aset = set(a_idx)
    free_b = [l for l in b_idx if l not in aset]
    apos = {l: p for p, l in enumerate(a_idx, start=1)}  # axis 0: samples
    bpos = {l: p for p, l in enumerate(b_idx, start=1)}
    a_perm = [0] + [apos[l] for l in batch_sh] + [apos[l] for l in free_a] \
        + [apos[l] for l in con]
    b_perm = [0] + [bpos[l] for l in batch_sh] + [bpos[l] for l in con] \
        + [bpos[l] for l in free_b]
    n = a_arr.shape[-1] if a_idx else (b_arr.shape[-1] if b_idx else 1)
    bdim = a_arr.shape[0]
    g, fa, fb, c = (n ** len(batch_sh), n ** len(free_a),
                    n ** len(free_b), n ** len(con))
    at = a_arr.transpose(a_perm).reshape((bdim, g, fa, c))
    bt = b_arr.transpose(b_perm).reshape((bdim, g, c, fb))
    # matmul degenerates into a python-speed loop of tiny GEMMs when the
    # matrix block is 1x1-ish and the stacked dimension is large; route
    # those cases through broadcasting instead
    if c == 1:
        out = at * bt  # (bdim, g, fa, 1) x (bdim, g, 1, fb) outer product
    elif fa == 1 and fb == 1:
        out = np.einsum("bgoc,bgco->bgo", at, bt)[..., None]
    else:
        out = np.matmul(at, bt)
    new_idx = tuple(batch_sh + free_a + free_b)
    return out.reshape((bdim,) + (n,) * len(new_idx)), new_idx


def _contract_graph(graph: LinearGraph, mats, order):
    """Value of the elementary form over the touched vertices, per sample.

    `mats` holds one (B, N, N) array per edge; an edgeless graph gives
    shape (1,). Isolated vertices are NOT accounted for here.
    """
    acc = np.ones(mats[0].shape[0] if mats else 1, dtype=np.complex128)
    pool: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for eid, (s, t) in enumerate(graph.edges):
        arr = np.asarray(mats[eid])
        if s == t:
            pool.append((np.diagonal(arr, axis1=-2, axis2=-1), (s,)))
        else:
            pool.append((arr, (t, s)))  # row = target label, column = source

    def occurrences():
        occ: dict[int, int] = {}
        for _, idx in pool:
            for l in idx:
                occ[l] = occ.get(l, 0) + 1
        return occ

    def sweep():
        nonlocal acc
        changed = True
        while changed:
            changed = False
            occ = occurrences()
            for i, (arr, idx) in enumerate(pool):
                axes = tuple(p + 1 for p, l in enumerate(idx) if occ[l] == 1)
                if axes:
                    keep = tuple(l for l in idx if occ[l] > 1)
                    pool[i] = (arr.sum(axis=axes), keep)
                    changed = True
                    break
            for i in range(len(pool) - 1, -1, -1):
                arr, idx = pool[i]
                if not idx:
                    acc = acc * arr
                    pool.pop(i)
                    changed = True

    sweep()
    for x in order:
        while True:
            holders = [i for i, (_, idx) in enumerate(pool) if x in idx]
            if len(holders) < 2:
                break
            # merge the pair producing the smallest intermediate: pairing
            # tensors that share only the kept vertex would inflate the rank
            occ = occurrences()
            best = None
            for ii in range(len(holders)):
                for jj in range(ii + 1, len(holders)):
                    a_idx = pool[holders[ii]][1]
                    b_idx = pool[holders[jj]][1]
                    shared = set(a_idx) & set(b_idx)
                    summed = {l for l in shared
                              if occ[l] == a_idx.count(l) + b_idx.count(l)}
                    rank = len(set(a_idx) | set(b_idx)) - len(summed)
                    key = (rank, -len(shared), ii, jj)
                    if best is None or key < best[0]:
                        best = (key, holders[ii], holders[jj], summed)
            _, ia, ib, sum_over = best
            b_arr, b_idx = pool.pop(ib)
            a_arr, a_idx = pool.pop(ia)
            merged = _pair_merge(a_arr, a_idx, b_arr, b_idx, sum_over)
            pool.append(merged)
            sweep()
        sweep()
    if pool:  # only possible if `order` missed a vertex
        raise InvalidArgumentError("elimination order does not cover the graph")
    return acc


# --------------------------------------------------------------------------
# public trace forms
# --------------------------------------------------------------------------

def _resolve_letters(graph: LinearGraph, operand: TensorOperand, letter_of_edge):
    if letter_of_edge is None:
        if operand.legs != graph.order:
            raise InvalidArgumentError(
                f"operand has {operand.legs} legs but the graph has "
                f"{graph.order} edges; pass letter_of_edge")
        return tuple(range(graph.order))
    letters = tuple(int(l) for l in letter_of_edge)
    if len(letters) != graph.order:
        raise InvalidArgumentError("letter_of_edge must assign every edge")
    if any(not 0 <= l < operand.legs for l in letters):
        raise InvalidArgumentError("letter_of_edge points outside the operand")
    return letters


def _sum_over_terms(stack_form, graph, operand, letter_of_edge) -> complex:
    """sum_terms weight * stack_form(graph, factors), each term's factors
    passed as a one-sample stack of views."""
    letters = _resolve_letters(graph, operand, letter_of_edge)
    total = 0.0 + 0.0j
    for weight, factors in operand.terms:
        mats = [factors[l][None] for l in letters]
        total += weight * stack_form(graph, mats, operand.n)[0]
    return complex(total)


def graph_trace(graph: LinearGraph, operand: TensorOperand,
                letter_of_edge=None) -> complex:
    """Elementary linear form of the graph, evaluated on the operand.

    Convention, fixed globally: an edge v -> w contributes the matrix entry
    A(label(w), label(v)), i.e. row = target. Each isolated vertex
    contributes a factor N.
    """
    return _sum_over_terms(graph_trace_stack, graph, operand, letter_of_edge)


def injective_graph_trace(graph: LinearGraph, operand: TensorOperand,
                          letter_of_edge=None) -> complex:
    """Injective linear form: the elementary sum restricted to injective
    vertex labelings, computed by Möbius inversion over quotients.
    """
    return _sum_over_terms(injective_trace_stack, graph, operand,
                           letter_of_edge)


def graph_trace_stack(graph: LinearGraph, mats, n) -> np.ndarray:
    """Elementary form per sample: `mats` has one (B, N, N) array per edge.
    An edgeless graph gives shape (1,), which broadcasts over samples."""
    if any(m.shape[-1] != n for m in mats):
        raise InvalidArgumentError("matrix dimension does not match N")
    iso = graph.vertex_count - len(graph.touched_vertices())
    return _contract_graph(graph, mats, contraction_plan(graph).order) \
        * (n ** iso)


def _edge_classes(mats) -> tuple[int, ...]:
    """Class of each edge, numbered by first appearance: two edges share one
    iff their arrays are one object or equal in shape and value, so an
    array holding NaN shares a class only with itself."""
    reps, out = [], []
    for m in mats:
        for c, r in enumerate(reps):
            if m is r or np.array_equal(m, r):
                break
        else:
            c = len(reps)
            reps.append(m)
        out.append(c)
    return tuple(out)


def _automorphism_generators(graph: LinearGraph, classes) -> list[list[int]]:
    """Generators of Aut(graph, classes): the vertex permutations that map
    the multiset of (class, source, target) edges onto itself.

    A stabiliser chain, deepest level first: level i needs one automorphism
    fixing 0..i-1 for each vertex of the orbit of i that the generators
    found so far do not reach, so every level's orbit comes out whole and
    the generators span the group (Schreier-Sims).
    """
    nv, labeled = graph.vertex_count, list(zip(classes, graph.edges))
    between = {pair: sorted(c for c, e in labeled if e == pair)
               for pair in set(graph.edges)}  # classes of the edges s -> t
    signature = [sorted((c, s == v, t == v) for c, (s, t) in labeled
                        if v in (s, t))
                 for v in range(nv)]  # loops at v included

    def fits(img, w):  # may the partial map img extend by len(img) -> w?
        v = len(img)
        return (w not in img and signature[v] == signature[w]
                and all(between.get((u, v)) == between.get((img[u], w))
                        and between.get((v, u)) == between.get((w, img[u]))
                        for u in range(v)))

    def extend(img, choices=range(nv)):
        if len(img) == nv:
            return img
        for w in choices:
            full = extend(img + [w]) if fits(img, w) else None
            if full:
                return full
        return None

    gens: list[list[int]] = []
    for i in reversed(range(nv)):
        for j in range(i + 1, nv):
            orbit = list(range(nv))
            for g in gens:
                for v in range(nv):
                    union_roots(orbit, v, g[v])
            if find_root(orbit, j) != find_root(orbit, i):
                found = extend(list(range(i)), (j,))
                if found:
                    gens.append(found)
    return gens


@lru_cache(maxsize=None)
def _orbit_terms(graph: LinearGraph, classes: tuple[int, ...]):
    """(mu(discrete, pi) * orbit size, quotient by pi) for the first pi of
    each orbit of Aut(graph, classes) on the partitions of the vertex set.

    Quotients in one orbit are isomorphic by a map that keeps every edge's
    class, so their elementary forms agree and one contraction serves all;
    mu depends only on the block sizes, which the orbit keeps.
    """
    table = mobius_table(graph.vertex_count)
    parts = [rgs for rgs, _ in table]
    index = {rgs: k for k, rgs in enumerate(parts)}
    parent = list(range(len(parts)))
    for g in _automorphism_generators(graph, classes):
        inverse = inverse_permutation(g)
        for k, rgs in enumerate(parts):
            seen: dict[int, int] = {}
            image = tuple(seen.setdefault(rgs[u], len(seen)) for u in inverse)
            union_roots(parent, k, index[image])
    size = Counter(find_root(parent, k) for k in range(len(parts)))
    return tuple((mu * size[k],
                  LinearGraph(len(set(rgs)),
                              tuple((rgs[s], rgs[t]) for s, t in graph.edges)))
                 for k, (rgs, mu) in enumerate(table) if k in size)


def injective_trace_stack(graph: LinearGraph, mats, n) -> np.ndarray:
    """Injective form per sample, by Möbius inversion over the quotients of
    the vertex set, one contraction per symmetry orbit of quotients;
    `mats` as for graph_trace_stack."""
    total = np.zeros(mats[0].shape[0] if mats else 1, dtype=np.complex128)
    if graph.vertex_count > n:  # pigeonhole: no injective labeling exists
        return total
    if graph.vertex_count > INJECTIVE_VERTEX_CAP:  # before comparing arrays
        raise ResourceLimitError(
            f"injective traces are capped at {INJECTIVE_VERTEX_CAP} vertices "
            f"(requested {graph.vertex_count})")
    for coeff, q in _orbit_terms(graph, _edge_classes(mats)):
        total += coeff * graph_trace_stack(q, mats, n)
    return total


def naive_graph_trace(graph: LinearGraph, operand: TensorOperand,
                      letter_of_edge=None, injective=False) -> complex:
    """Direct summation over all (or all injective) vertex labelings.

    Exponential in the vertex count; this is the reference oracle for the
    contraction engine and the Möbius expansion, usable for N^|V| small.
    """
    letters = _resolve_letters(graph, operand, letter_of_edge)
    n = operand.n
    total = 0.0 + 0.0j
    for labels in itertools.product(range(n), repeat=graph.vertex_count):
        if injective and len(set(labels)) != len(labels):
            continue
        for weight, factors in operand.terms:
            prod = weight
            for eid, (s, t) in enumerate(graph.edges):
                prod *= factors[letters[eid]][labels[t], labels[s]]
            total += prod
    return complex(total)


# --------------------------------------------------------------------------
# renormalized forms
# --------------------------------------------------------------------------

def zeta_trace(graph: LinearGraph, operand: TensorOperand,
               letter_of_edge=None) -> complex:
    """Elementary form scaled by N^(-L/2), L the two-edge-connected leaf count."""
    value = graph_trace(graph, operand, letter_of_edge)
    return value * operand.n ** (-Fraction(leaf_count(graph), 2))


def tau_trace(graph: LinearGraph, operand: TensorOperand,
              letter_of_edge=None) -> complex:
    """Elementary form scaled by N^(-c), c the number of connected components."""
    value = graph_trace(graph, operand, letter_of_edge)
    return value * operand.n ** (-component_count(graph))


# --------------------------------------------------------------------------
# extremal factored operand for the leaf-count growth rate
# --------------------------------------------------------------------------

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
    graph = _minimal_quotient(pi)
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
        anchor = SetPartition.from_values([v for _, v, _ in one_leaf])
        for pos, (eid, _, _) in enumerate(one_leaf, start=1):
            column[eid] = anchor.block_of(pos)
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


# --------------------------------------------------------------------------
# state evaluation and decomposition into elementary forms
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _minimal_quotient(pi: SetPartition) -> LinearGraph:
    """The quotient of the minimal graph on [2K] by pi, built on first use."""
    return quotient(minimal_graph(pi.n // 2), pi)


def state_unitality_defect(spec: StateSpec) -> float:
    """|psi(1) - 1| for an elementary-combination state."""
    total = 0.0 + 0.0j
    for pi, a in spec.coeffs.items():
        total += a * spec.n ** component_count(_minimal_quotient(pi))
    return abs(total - 1.0)


def apply_state(spec, operand: TensorOperand) -> complex:
    """Evaluate a state (StateSpec or plain callable) on an operand."""
    if callable(spec) and not isinstance(spec, StateSpec):
        return complex(spec(operand))
    n, k = spec.n, spec.k
    if operand.legs != k or operand.n != n:
        raise InvalidArgumentError(
            f"operand shape (N={operand.n}, K={operand.legs}) does not match "
            f"the state (N={n}, K={k})")
    if spec.kind == "elementary_combination":
        return reconstruction_value(spec.coeffs, operand)
    total = 0.0 + 0.0j
    for weight, factors in operand.terms:
        if spec.kind == "tracial":
            prod = weight
            for f in factors:
                prod *= np.trace(f) / n
            total += prod
        elif spec.kind == "max_entangled_vector":
            prod = weight
            for m in range(0, k, 2):
                prod *= np.sum(factors[m] * factors[m + 1]) / n
            total += prod
        else:  # diagonal_uniform
            diag = np.ones(n, dtype=np.complex128)
            for f in factors:
                diag = diag * np.diagonal(f)
            total += weight * diag.sum() / n
    return complex(total)


def decompose_invariant_state(psi, k: int, n: int, *, seed=0) -> dict:
    """Coefficients of a permutation-invariant state over the elementary
    forms indexed by partitions of [2K].

    The state is probed on one elementary matrix tensor per kernel class
    sigma, and Möbius inversion c_pi = sum over sigma <= pi of
    mu(sigma, pi) v_sigma turns the probes into coefficients. Each nonzero
    probe is pushed up its own up-set (`mobius_table`); a zero probe adds
    only signed zeros, which change no sum, so it is skipped. Probes come
    in ascending order, so every c_pi adds its terms in the order of a scan
    over P(2K). Requires N >= 2K so that every kernel class has a
    representative multi-index. The state is first checked for invariance
    under three random permutation conjugations.
    """
    if n < 2 * k:
        raise InvalidArgumentError(f"need N >= 2K = {2 * k} (got N = {n})")
    _check_invariance(psi, k, n, seed)
    parts = enumerate_partitions(2 * k)
    coeffs = {pi.rgs: 0j for pi in parts}
    for sigma in parts:
        factors = []
        for leg in range(k):  # one index per block of sigma
            arr = np.zeros((n, n))
            arr[sigma.rgs[leg], sigma.rgs[k + leg]] = 1.0
            factors.append(arr)
        value = apply_state(psi, TensorOperand.factored(factors))
        if value == 0:
            continue
        compose = itemgetter(*sigma.rgs)  # rho -> the pi >= sigma it labels
        for rho, mu in mobius_table(sigma.num_blocks):
            coeffs[compose(rho)] += value * mu
    return {pi: coeffs[pi.rgs] for pi in parts}


def _check_invariance(psi, k, n, seed):
    from .sampling import RngStream  # sampling imports this module
    rng = RngStream(seed).generator()
    for _ in range(3):
        factors = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                   for _ in range(k)]
        a = TensorOperand.factored(factors)
        conj = a.conjugated_by(permutation_matrix(rng.permutation(n)))
        base, moved = apply_state(psi, a), apply_state(psi, conj)
        if abs(base - moved) > 1e-9 * max(1.0, abs(base)):
            raise NotInvariantError(
                f"state is not permutation invariant: |delta| = {abs(base - moved):.2e}")


def reconstruction_value(coeffs: dict, operand: TensorOperand) -> complex:
    """Evaluate sum_pi a_pi Tr_{T0^pi} on an operand. A zero a_pi adds a
    signed zero for a finite trace, which changes no sum, so its trace is
    never contracted."""
    return complex(sum(a * graph_trace(_minimal_quotient(pi), operand)
                       for pi, a in coeffs.items() if a != 0))


# --------------------------------------------------------------------------
# randomized extraction of cumulative coefficients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtractReport:
    estimate: complex
    stderr: float
    samples: int
    reference: complex  # injective trace of the probe


def _product_diagonals(pi: SetPartition, n, rng):
    """Diagonal vectors D_1..D_2K built from per-block root-of-unity phases
    and the zero-product family that separates distinct blocks.

    For block C: D(i) = ((2 - X_C(i)) * prod_{C' != C} X_{C'}(i))^(1/|C|)
    times a uniform |C|-th root of unity, with X iid uniform on {0, 2}.
    Distinct blocks multiply to zero pointwise; a block's |C|-th power has
    unit expectation, which is what kills all other elementary components.
    """
    blocks = pi.blocks()
    m = len(blocks)
    x = 2.0 * rng.integers(0, 2, size=(m, n))
    bars = []
    phases = []
    for b, blk in enumerate(blocks):
        size = len(blk)
        others = np.ones(n)
        for b2 in range(m):
            if b2 != b:
                others = others * x[b2]
        bars.append(((2.0 - x[b]) * others) ** (1.0 / size))
        phases.append(np.exp(2j * np.pi * rng.integers(0, size, size=n) / size))
    return [bars[pi.block_of(pos)] * phases[pi.block_of(pos)]
            for pos in range(1, pi.n + 1)]


def randomized_coefficient_extract(psi, pi: SetPartition, k: int, n: int,
                                   samples: int, seed=0,
                                   probe: TensorOperand | None = None) -> ExtractReport:
    """Monte-Carlo estimate of the cumulative coefficient b_pi (the sum of the
    elementary coefficients below pi) of a permutation-invariant state.

    Sandwiching a probe operand between random diagonal tensors kills every
    elementary-form component except the one indexed by pi; dividing the
    average by the probe's injective trace isolates b_pi.
    """
    if pi.n != 2 * k:
        raise InvalidArgumentError("partition must live on [2K]")
    if samples < 2:
        raise InvalidArgumentError("need samples >= 2")
    from .sampling import MCReport, haar_sweep  # sampling imports this module
    if probe is None:
        probe = ms_optimality_witness(pi, n)
    reference = injective_graph_trace(_minimal_quotient(pi), probe)
    if abs(reference) < 1e-12:
        raise ProbeFailureError(
            "probe operand has vanishing injective trace; supply another probe")

    def sample(us, rng):
        diags = _product_diagonals(pi, n, rng)
        return apply_state(psi, TensorOperand(probe.n, k, [
            (w, [diags[leg][:, None] * fs[leg] * diags[k + leg][None, :]
                 for leg in range(k)]) for w, fs in probe.terms]))

    rep = MCReport.from_samples(haar_sweep(sample, n, 0, samples, seed), n)
    return ExtractReport(rep.estimate / reference, rep.stderr / abs(reference),
                         samples, complex(reference))

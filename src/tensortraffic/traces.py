"""Graph trace forms on tensor matrix spaces.

The elementary form of a linear graph T sums, over all labelings of the
vertices by matrix indices, the product over edges of the matrix entry
(target label, source label). The injective form restricts the sum to
injective labelings; it is recovered from elementary forms by Möbius
inversion over the partition lattice of the vertex set.

Evaluation is routed through a small contraction engine that eliminates
one vertex at a time, pairing tensors via batched matrix products (BLAS)
instead of generic einsum calls. Each graph's pairing schedule is planned
once and replayed into C-order buffers that one call owns. Every array
carries one leading sample axis, which makes Monte-Carlo sweeps cheap; an
operand term is a stack of one sample. Edge stacks are read in place,
except that a stack whose sample axis is not its outermost (Fortran order)
is read as its C-order copy.

A stack call runs on all cores with OpenBLAS held to one thread: its
sample axis is split into k = min(usable cores, B // 2, B * N^3 // 2^19)
contiguous chunks (`_chunks`), one arena each, joined in sample order.
The bound keeps stacks whose chunks would be too small to pay for the
threads, or bound by the interpreter, serial; two samples or more per
chunk keep every sample's bytes those of the whole stack.

The module also evaluates states on the tensor power (`apply_state`,
through one state kernel that takes a matrix or a stack per leg),
renormalizes traces (`tau_trace`, `zeta_trace`), and decomposes a
permutation-invariant state exactly into elementary forms, one probe
per kernel class, the probes evaluated as chunked stacks
(`decompose_invariant_state`).
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import LinearGraph, component_count, minimal_graph, quotient
from .invariants import leaf_count
from .operands import StateSpec, TensorOperand, inverse_permutation
from .parallel import SPLIT_WORK, run_chunks, usable_cores
from .partitions import (SetPartition, enumerate_partitions, find_root,
                         mobius_table, union_roots)

INJECTIVE_VERTEX_CAP = 9  # Bell(9) = 21147 partitions of the vertex set


# --------------------------------------------------------------------------
# contraction engine
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ContractionPlan:
    order: tuple[int, ...]  # vertex elimination order (touched vertices only)
    width: int              # max rank of any intermediate tensor
    steps: tuple            # (op, a, b, dst, detail) tuples, replayed in order
    registers: int          # one per edge, then one per intermediate
    isolated: int           # untouched vertices, a factor N each
    loops: tuple[bool, ...]  # per edge: a loop reads its matrix's diagonal


@lru_cache(maxsize=None)
def contraction_plan(graph: LinearGraph) -> ContractionPlan:
    """Greedy min-degree vertex elimination order, and the schedule of
    pairwise contractions that carries it out.

    At each step the vertex producing the smallest intermediate tensor is
    eliminated (ties broken by vertex id, so plans are deterministic).
    """
    sets = [{s, t} for s, t in graph.edges]
    alive = sorted(graph.touched_vertices())
    isolated = graph.vertex_count - len(alive)
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
    steps, registers = _schedule(graph, order)
    return ContractionPlan(tuple(order), width, steps, registers, isolated,
                           tuple(s == t for s, t in graph.edges))


# Step codes. (_FOLD, a, 0, 0, None): acc = acc * register a, a label-free
# (B,) array. (_SUM, a, 0, dst, (axes, rank)): register dst = register a
# summed over `axes`, `rank` labels left. (_MERGE, a, b, dst, _Merge):
# register dst = registers a and b contracted.
_FOLD, _SUM, _MERGE = range(3)


def _schedule(graph: LinearGraph, order):
    """Steps that eliminate the vertices in `order` from a pool of labelled
    tensors, one register each; registers 0..E-1 hold the edges (row label
    = target, column = source; a loop keeps its diagonal, one label).

    After every change the labels held by one tensor only are summed out,
    first tensor first, and label-free tensors are folded into the result,
    last first. The holders of each vertex are merged two at a time, the
    pair giving the smallest intermediate first: pairing tensors that share
    only the kept vertex would inflate the rank.
    """
    pool = [(eid, (s,) if s == t else (t, s))
            for eid, (s, t) in enumerate(graph.edges)]
    edges, steps = len(pool), []
    fresh = itertools.count(edges)

    def sweep():
        changed = True
        while changed:
            changed = False
            occ = Counter(l for _, idx in pool for l in idx)
            for i, (reg, idx) in enumerate(pool):
                axes = tuple(p + 1 for p, l in enumerate(idx) if occ[l] == 1)
                if axes:
                    keep = tuple(l for l in idx if occ[l] > 1)
                    pool[i] = (next(fresh), keep)
                    steps.append(_step(_SUM, reg, 0, pool[i][0],
                                       (axes, len(keep))))
                    changed = True
                    break
            for i in range(len(pool) - 1, -1, -1):
                if not pool[i][1]:
                    steps.append(_step(_FOLD, pool.pop(i)[0], 0, 0, None))
                    changed = True

    sweep()
    for x in order:
        while True:
            holders = [i for i, (_, idx) in enumerate(pool) if x in idx]
            if len(holders) < 2:
                break
            occ = Counter(l for _, idx in pool for l in idx)

            def summed(pair):  # labels the pair holds and no other tensor
                a_idx, b_idx = pool[pair[0]][1], pool[pair[1]][1]
                return {l for l in set(a_idx) & set(b_idx) if occ[l] == 2}

            def size(pair):
                a_idx, b_idx = pool[pair[0]][1], pool[pair[1]][1]
                return (len(set(a_idx) | set(b_idx)) - len(summed(pair)),
                        -len(set(a_idx) & set(b_idx)))

            pair = min(itertools.combinations(holders, 2), key=size)
            sum_over = summed(pair)
            (rb, b_idx), (ra, a_idx) = pool.pop(pair[1]), pool.pop(pair[0])
            # the merge depends on the labels only through their pattern
            names: dict[int, int] = {}
            for l in a_idx + b_idx:
                names.setdefault(l, len(names))
            dst, label = next(fresh), list(names)
            steps.append(_step(_MERGE, ra, rb, dst, (
                tuple(names[l] for l in a_idx), tuple(names[l] for l in b_idx),
                frozenset(names[l] for l in sum_over), ra >= edges,
                rb >= edges)))
            pool.append((dst, tuple(label[l] for l in steps[-1][4].labels)))
            sweep()
        sweep()
    return tuple(steps), next(fresh)


@lru_cache(maxsize=None)
def _step(op, a, b, dst, detail):
    """One step, shared by every plan that takes it: a merge's detail is
    the label pattern that `_merge_kind` reads."""
    return op, a, b, dst, _merge_kind(*detail) if op == _MERGE else detail


class _Merge(NamedTuple):
    """A merge of tensors a and b. Their labels fall into four groups:
    shared and kept (batch), free in a, free in b, and shared and summed
    (con); `exps` holds the group sizes, the N-exponents of the block
    shapes, and `labels` the result's labels (batch, free a, free b). The
    permutations read a as (batch, free a, con) and b as (batch, con, free
    b); for an outer product (no con, or N = 1) the indices drop con and
    insert the free axes the other operand lacks, and a product without
    free labels is a batch of dot products. `into` names a dead
    intermediate (1: a, 2: b, 0: none) whose labels already read in output
    order, so that an outer product may overwrite it."""
    labels: tuple[int, ...]
    exps: tuple[int, int, int, int]
    outer: bool
    dot: bool
    a_perm: tuple[int, ...]
    b_perm: tuple[int, ...]
    a_index: tuple
    b_index: tuple
    into: int


@lru_cache(maxsize=None)
def _merge_kind(a_idx, b_idx, sum_over, a_owned, b_owned) -> _Merge:
    shared = [l for l in a_idx if l in b_idx]
    con = [l for l in shared if l in sum_over]
    batch = [l for l in shared if l not in sum_over]
    free_a = [l for l in a_idx if l not in b_idx]
    free_b = [l for l in b_idx if l not in a_idx]
    labels = tuple(batch + free_a + free_b)

    def perm(idx, ls):  # axis 0 holds the samples
        return (0,) + tuple(idx.index(l) + 1 for l in ls)

    drop = (0,) * len(con)
    return _Merge(
        labels, (len(batch), len(free_a), len(free_b), len(con)), not con,
        not free_a and not free_b,
        perm(a_idx, batch + free_a + con), perm(b_idx, batch + con + free_b),
        (Ellipsis,) + drop + (None,) * len(free_b),
        (slice(None),) * (1 + len(batch)) + drop + (None,) * len(free_a),
        1 if a_owned and a_idx == labels else
        2 if b_owned and b_idx == labels else 0)


@lru_cache(maxsize=None)
def _sum_dtype(dtype):
    """The dtype of numpy's sum over `dtype`: small integers widen."""
    return np.add.reduce(np.zeros(1, dtype)).dtype


class _Arena:
    """The C-order (B, N, ..., N) buffers of one call's intermediates. A
    buffer given back is handed out again to the next request of its rank
    and dtype, so a Möbius expansion allocates about as many buffers as one
    contraction holds at once."""

    def __init__(self, samples: int, n: int):
        self.samples, self.n, self.free, self.shaped = samples, n, {}, {}
        self.unit = np.ones(samples, dtype=np.complex128)

    def take(self, rank, dtype) -> np.ndarray:
        stack = self.free.get((rank, dtype))
        if stack:
            return stack.pop()
        return np.empty((self.samples,) + (self.n,) * rank, dtype=dtype)

    def give(self, arr: np.ndarray):
        self.free.setdefault((arr.ndim - 1, arr.dtype), []).append(arr)

    def shapes(self, merge):
        """The blocks of a contracting merge's kernel: a, b and their
        product, without a batch axis of length 1 (less looping)."""
        got = self.shaped.get(merge.exps)
        if got is None:
            s = self.samples
            g, fa, fb, c = (self.n ** e for e in merge.exps)
            got = self.shaped[merge.exps] = (
                ((s, g, fa, c), (s, g, c, fb), (s, g, 1)) if merge.dot else
                ((s, fa, c), (s, c, fb), (s, fa, fb)) if g == 1 else
                ((s, g, fa, c), (s, g, c, fb), (s, g, fa, fb)))
        return got

    def blocks(self, arr, perm, shape):
        """arr with its axes in `perm` order, reshaped to `shape`, as numpy
        reshapes it, and the buffer of a copy (None for a view) to give
        back after use."""
        try:
            return arr.transpose(perm).reshape(shape, copy=False), None
        except ValueError:  # the axes do not merge in place
            buf = self.take(arr.ndim - 1, arr.dtype)
            np.copyto(buf, arr.transpose(perm))
            return buf.reshape(shape), buf


def _contract_graph(plan: ContractionPlan, mats, n, arena: _Arena):
    """Elementary form per sample, by replaying a graph's plan on one
    checked (B, N, N) array per edge (an edgeless graph gives shape (1,)).
    Every intermediate is a C-order arena buffer written with `out=`, given
    back once its register is read."""
    edges = len(mats)
    regs = [m.diagonal(0, -2, -1) if loop else m
            for m, loop in zip(mats, plan.loops)]
    regs += [None] * (plan.registers - edges)
    take, give, shaped = arena.take, arena.give, arena.shaped
    acc = arena.unit
    for op, ra, rb, dst, how in plan.steps:
        a, regs[ra] = regs[ra], None
        if op == _FOLD:
            acc = acc * a
            give(a)  # only intermediates are label-free
            continue
        if op == _SUM:
            axes, rank = how
            out = np.add.reduce(a, axes, None, take(rank, _sum_dtype(a.dtype)))
        else:
            b, regs[rb] = regs[rb], None
            dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
            if how.outer or n == 1:  # an elementwise product, on views
                # numpy rounds a one-element product written over its own
                # input differently, so N = 1 never writes in place
                out = (None, a, b)[how.into] if n > 1 else None
                if out is None or out.dtype != dtype:
                    out = take(len(how.labels), dtype)
                np.multiply(a.transpose(how.a_perm)[how.a_index],
                            b.transpose(how.b_perm)[how.b_index], out)
            else:
                a_kern, b_kern, kern = shaped.get(how.exps) or arena.shapes(how)
                at, a_buf = arena.blocks(a, how.a_perm, a_kern)
                bt, b_buf = arena.blocks(b, how.b_perm, b_kern)
                out = take(len(how.labels), dtype)
                # matmul degenerates into a python-speed loop of tiny GEMMs
                # when the matrix block is 1x1; contract those by einsum
                if how.dot:
                    np.einsum("bgoc,bgco->bgo", at, bt, out=out.reshape(kern))
                else:
                    np.matmul(at, bt, out.reshape(kern))
                for buf in (a_buf, b_buf):
                    if buf is not None:
                        give(buf)
            if rb >= edges and b is not out:
                give(b)
        if ra >= edges and a is not out:
            give(a)
        regs[dst] = out
    return acc * (n ** plan.isolated)


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
    """Elementary form per sample: `mats` has one (B, N, N) array per edge,
    with one B for all (InvalidArgumentError otherwise). An edgeless graph
    gives shape (1,), which broadcasts over samples.

    Large stacks are split into contiguous chunks of at least two samples
    (`_chunks`), contracted on all cores: a sample's bytes are the same in
    every chunk of two or more, but a one-sample stack may round a
    contraction differently from the same sample inside a larger stack."""
    mats, samples = _checked_stacks(graph, mats, n)
    plan = contraction_plan(graph)
    return _split_samples(lambda part, arena: _contract_graph(
        plan, part, n, arena), _sample_major(mats), samples, n)


def _chunks(samples: int, n: int) -> int:
    """How many chunks a stack of B samples is contracted in: one per usable
    core, with at least two samples and B * N^3 >= SPLIT_WORK per chunk.
    Below that, starting threads and the Python steps between kernels,
    which hold the interpreter lock, cost more than the extra cores save."""
    most = min(samples // 2, samples * n ** 3 // SPLIT_WORK)
    return min(usable_cores(), most) if most > 1 else 1


def _split_samples(contract, mats, samples: int, n: int) -> np.ndarray:
    """contract(chunk stacks, arena) per chunk of the sample axis, each chunk
    with its own arena, joined in sample order. Each distinct array object
    is sliced once, so edges that share one keep sharing one."""
    def run(start, stop):
        views = {id(m): m[start:stop] for m in mats}
        return contract([views[id(m)] for m in mats], _Arena(stop - start, n))

    return np.concatenate(run_chunks(run, samples, _chunks(samples, n)))


def _checked_stacks(graph: LinearGraph, mats, n):
    """The edge arrays as ndarrays, and their common sample count B (1 for
    an edgeless graph): one array per edge, each of shape (B, N, N)."""
    mats = [np.asarray(m) for m in mats]
    if len(mats) != graph.order:
        raise InvalidArgumentError(
            f"need one (B, N, N) array per edge: {graph.order} edges, "
            f"{len(mats)} arrays")
    shapes = {m.shape for m in mats}
    if len(shapes) > 1 or any(len(s) != 3 or s[1:] != (n, n) for s in shapes):
        raise InvalidArgumentError(
            f"every edge array must have one shape (B, {n}, {n}); got "
            f"{sorted(shapes)}")
    return mats, (shapes.pop()[0] if shapes else 1)


def _sample_major(mats):
    """The edge stacks, each read in place unless it holds B >= 2 samples
    and its sample axis has a smaller stride than a matrix axis (as in
    Fortran order): such a stack is read as its C-order copy, made once per
    array object."""
    unique = {id(m): m for m in mats}
    copies = {key: np.ascontiguousarray(m) for key, m in unique.items()
              if m.shape[0] > 1
              and 0 < abs(m.strides[0]) < max(map(abs, m.strides[1:]))}
    return [copies.get(id(m), m) for m in mats]


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
    the vertex set, one contraction per symmetry orbit of quotients, all
    from one arena of buffers per chunk of samples; `mats` and the chunks
    as for graph_trace_stack. The edge classes, the orbits and the
    sample-major copies are found once, on the whole stack."""
    mats, samples = _checked_stacks(graph, mats, n)
    if graph.vertex_count > n:  # pigeonhole: no injective labeling exists
        return np.zeros(samples, dtype=np.complex128)
    if graph.vertex_count > INJECTIVE_VERTEX_CAP:  # before comparing arrays
        raise ResourceLimitError(
            f"injective traces are capped at {INJECTIVE_VERTEX_CAP} vertices "
            f"(requested {graph.vertex_count})")
    terms = [(coeff, contraction_plan(q))
             for coeff, q in _orbit_terms(graph, _edge_classes(mats))]

    def contract(part, arena):
        total = np.zeros(arena.samples, dtype=np.complex128)
        for coeff, plan in terms:
            total += coeff * _contract_graph(plan, part, n, arena)
        return total

    return _split_samples(contract, _sample_major(mats), samples, n)


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


def _state_kernel(spec: StateSpec, weight, factors):
    """weight * psi(f_1 x ... x f_K) for one product term, each factor f_l
    one N x N matrix or a (B, N, N) stack of them, reduced over its last two
    axes: matrices give one scalar by the operations of a single matrix,
    stacks one value per sample. An elementary combination needs stacks:
    one contraction per nonzero coefficient serves every sample."""
    n = spec.n
    if spec.kind == "tracial":
        prod = weight
        for f in factors:
            prod = prod * (np.trace(f, 0, -2, -1) / n)
        return prod
    if spec.kind == "max_entangled_vector":
        prod = weight
        for m in range(0, spec.k, 2):
            prod = prod * (np.sum(factors[m] * factors[m + 1], (-2, -1)) / n)
        return prod
    if spec.kind == "diagonal_uniform":
        diag = np.ones(np.shape(factors[0])[:-1], dtype=np.complex128)
        for f in factors:
            diag = diag * np.diagonal(f, 0, -2, -1)
        return weight * diag.sum(-1) / n
    total = 0  # a zero coefficient is skipped as in reconstruction_value
    for pi, a in spec.coeffs.items():
        if a != 0:
            total = total + a * (weight * graph_trace_stack(
                _minimal_quotient(pi), factors, n))
    return total


def apply_state(spec: StateSpec, operand: TensorOperand) -> complex:
    """Evaluate a state on an operand: the state kernel once per term, or,
    for an elementary combination, `reconstruction_value`, which adds the
    terms inside each coefficient's trace."""
    n, k = spec.n, spec.k
    if operand.legs != k or operand.n != n:
        raise InvalidArgumentError(
            f"operand shape (N={operand.n}, K={operand.legs}) does not match "
            f"the state (N={n}, K={k})")
    if spec.kind == "elementary_combination":
        return reconstruction_value(spec.coeffs, operand)
    total = 0.0 + 0.0j
    for weight, factors in operand.terms:
        total += _state_kernel(spec, weight, factors)
    return complex(total)


# Bytes of the K float (B, N, N) probe stacks of one chunk. Peak memory
# does not grow with B(2K) N^2, and a chunk fits in the room the result
# dict takes at the end, so the stacks never raise decomposing's traced
# peak (about 0.96 MB at K = 4), which the partitions and the two
# coefficient dicts set.
_PROBE_CHUNK_BYTES = 1 << 17


def decompose_invariant_state(psi: StateSpec) -> dict:
    """Coefficients of a permutation-invariant state over the elementary
    forms indexed by partitions of [2K], keyed in lexicographic
    restricted-growth order.

    The state is probed on one elementary matrix tensor per kernel class
    sigma, leg l the unit matrix E_{sigma(l), sigma(K + l)}, and Möbius
    inversion c_pi = sum over sigma <= pi of mu(sigma, pi) v_sigma turns
    the probes into coefficients. The probes run in contiguous chunks of
    ascending sigma, at least one each and at most _PROBE_CHUNK_BYTES of
    stacks, each chunk through one call of the state kernel
    (`_probe_values`). Every probe value is exact (0/1 traces and integer
    counts), so it equals `apply_state` on that probe to the bit. Each
    nonzero probe, NaN included, is pushed up its own up-set
    (`mobius_table`); a zero probe adds only signed zeros, which change no
    sum, so it is skipped. Probes are pushed in ascending order, so every
    c_pi adds its terms in the order of a scan over P(2K). Requires
    N >= 2K so that every kernel class has a representative multi-index.
    Every StateSpec is invariant by construction, so no invariance check
    is made.
    """
    k, n = psi.k, psi.n
    if n < 2 * k:
        raise InvalidArgumentError(f"need N >= 2K = {2 * k} (got N = {n})")
    parts = enumerate_partitions(2 * k)
    coeffs = {pi.rgs: 0j for pi in parts}
    step = max(1, _PROBE_CHUNK_BYTES // (k * n * n * 8))
    for start in range(0, len(parts), step):
        run = parts[start:start + step]
        values = _probe_values(psi, [sigma.rgs for sigma in run])
        for pos in np.flatnonzero(values != 0).tolist():
            sigma, value = run[pos], complex(values[pos])
            compose = itemgetter(*sigma.rgs)  # rho -> the pi >= sigma it labels
            for rho, mu in mobius_table(sigma.num_blocks):
                coeffs[compose(rho)] += value * mu
    return {pi: coeffs[pi.rgs] for pi in parts}


def _probe_values(psi: StateSpec, strings) -> np.ndarray:
    """psi on the elementary tensor of each restricted-growth string sigma
    of [2K], in one call of the state kernel: leg l is the float stack of
    unit matrices E_{sigma(l), sigma(K + l)}, the outer products of two
    rows of the identity that the string's columns l and K + l pick."""
    k, eye = psi.k, np.eye(psi.n)
    cols = np.array(strings).T
    return _state_kernel(psi, 1 + 0j, [
        eye[cols[leg], :, None] * eye[cols[k + leg], None, :]
        for leg in range(k)])


def reconstruction_value(coeffs: dict, operand: TensorOperand) -> complex:
    """Evaluate sum_pi a_pi Tr_{T0^pi} on an operand. A zero a_pi adds a
    signed zero for a finite trace, which changes no sum, so its trace is
    never contracted."""
    return complex(sum(a * graph_trace(_minimal_quotient(pi), operand)
                       for pi, a in coeffs.items() if a != 0))

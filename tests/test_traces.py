import gc
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tensortraffic import parallel, traces
from tensortraffic.errors import InvalidArgumentError, ResourceLimitError
from tensortraffic.graphs import (LinearGraph, component_count, minimal_graph,
                                  quotient)
from tensortraffic.invariants import leaf_count
from tensortraffic.operands import StateSpec, TensorOperand
from tensortraffic.partitions import SetPartition, enumerate_partitions, leq
from tensortraffic.traces import (apply_state, contraction_plan,
                                  decompose_invariant_state, graph_trace,
                                  graph_trace_stack, injective_graph_trace,
                                  injective_trace_stack, naive_graph_trace,
                                  reconstruction_value, tau_trace, zeta_trace)

from oracles import (dense_unital_coefficients, elementary_probes,
                     leq_scan_decomposition, ms_optimality_witness)


def random_operand(rng, n, k):
    return TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(k)])


def random_unit_norm_operand(rng, n, k):
    mats = []
    for _ in range(k):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(m / np.linalg.norm(m, 2))
    return TensorOperand.factored(mats)


# --- entry convention ---------------------------------------------------

def test_convention_triple(rng):
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.isclose(graph_trace(LinearGraph(2, [(1, 0)]),
                                  TensorOperand.factored([a])), a.sum())
    assert np.isclose(graph_trace(LinearGraph(1, [(0, 0)]),
                                  TensorOperand.factored([a])), np.trace(a))
    assert np.isclose(graph_trace(LinearGraph(3, [(1, 0), (2, 1)]),
                                  TensorOperand.factored([a, b])),
                      (a @ b).sum())


def test_isolated_vertices_scale_by_n(rng):
    n = 4
    a = rng.standard_normal((n, n))
    bare = graph_trace(LinearGraph(1, [(0, 0)]), TensorOperand.factored([a]))
    padded = graph_trace(LinearGraph(3, [(0, 0)]), TensorOperand.factored([a]))
    assert np.isclose(padded, n ** 2 * bare)


def random_edges(rng, lo, hi, count):
    return [(int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))
            for _ in range(count)]


def cycle_edges(v):
    return tuple((i, (i + 1) % v) for i in range(v))


def adjoint_stack(m):
    """A new array on each call, as a Haar word's starred letters."""
    return m.conj().transpose(0, 2, 1)


def test_engine_matches_naive_enumeration():
    """The one contraction engine (the sample-stack forms, which the scalar
    forms run as one-sample stacks) against direct summation over labelings.
    """
    rng = np.random.default_rng(77)
    n = 3

    def close(a, b):
        return np.isclose(a, b, rtol=1e-9, atol=1e-9)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(100):
        nv = int(rng.integers(1, 6))
        ne = int(rng.integers(1, 7))
        g = LinearGraph(nv, tuple(random_edges(rng, 0, nv, ne)))
        op = random_operand(rng, n, ne)
        assert close(graph_trace(g, op), naive_graph_trace(g, op))
    # weighted sums of several terms, read through an edge-to-leg map; half
    # of the graphs have two components that carry edges
    for trial in range(40):
        nv, split = int(rng.integers(2, 5)), trial % 2 == 0
        cut = int(rng.integers(1, nv)) if split else nv
        edges = random_edges(rng, 0, cut, int(rng.integers(1, 4)))
        if split:
            edges += random_edges(rng, cut, nv, int(rng.integers(1, 3)))
        g = LinearGraph(nv, tuple(edges))
        if split:
            assert component_count(g) >= 2
        legs = int(rng.integers(1, 4))
        op = TensorOperand(n, legs, [
            (complex(*rng.standard_normal(2)),
             [cplx(n, n) for _ in range(legs)])
            for _ in range(int(rng.integers(2, 4)))])
        letters = [int(l) for l in rng.integers(0, legs, size=g.order)]
        assert close(graph_trace(g, op, letters),
                     naive_graph_trace(g, op, letters))
        assert close(injective_graph_trace(g, op, letters),
                     naive_graph_trace(g, op, letters, injective=True))
        # every row of a sample stack, on the same graph
        mats = [cplx(4, n, n) for _ in range(g.order)]
        elementary = graph_trace_stack(g, mats, n)
        injective = injective_trace_stack(g, mats, n)
        for row in range(4):
            sample = TensorOperand.factored([m[row] for m in mats])
            assert close(elementary[row], naive_graph_trace(g, sample))
            assert close(injective[row],
                         naive_graph_trace(g, sample, injective=True))
    # edges that share a class (one array, or arrays equal by value), so the
    # injective form contracts one quotient per symmetry orbit
    n = 6
    u, w = cplx(4, n, n), cplx(4, n, n)
    u_adj, w_adj = adjoint_stack(u), adjoint_stack(w)
    for g, mats in [
            (LinearGraph(6, cycle_edges(6)),
             [u if e % 2 == 0 else adjoint_stack(u) for e in range(6)]),
            (LinearGraph(4, cycle_edges(4)), [u, u_adj] * 2),
            (LinearGraph(3, cycle_edges(3)), [u, u, u]),
            (LinearGraph(3, cycle_edges(3)), [u, u.copy(), u.copy()]),
            (LinearGraph(4, cycle_edges(3)), [u, w, u]),
            (LinearGraph(5, ((0, 1), (1, 0))), [u, u_adj]),
            (LinearGraph(5, ((0, 1), (2, 3), (3, 3))), [u, u_adj, u]),
            (LinearGraph(4, ((0, 1), (2, 3), (1, 0))), [w, w, w_adj])]:
        injective = injective_trace_stack(g, mats, n)
        for row in range(4):
            sample = TensorOperand.factored([m[row] for m in mats])
            assert np.isclose(injective[row],
                              naive_graph_trace(g, sample, injective=True),
                              rtol=1e-10, atol=1e-10)
    # two letters whose factors are equal by value, read through a letter map
    a = cplx(n, n)
    op = TensorOperand.factored([a, a.copy(), cplx(n, n)])
    g = LinearGraph(5, cycle_edges(4))
    for letters in ((0, 1, 0, 1), (0, 1, 2, 1), (1, 1, 0, 0)):
        assert np.isclose(injective_graph_trace(g, op, letters),
                          naive_graph_trace(g, op, letters, injective=True),
                          rtol=1e-10, atol=1e-10)
    # edgeless graphs: the bare weight times N per vertex; the one labeling
    # of no vertices is injective
    n = 3
    op = TensorOperand(n, 0, [(2.0 - 0.5j, ())])
    assert injective_trace_stack(LinearGraph(0, ()), [], n).tolist() == [1]
    for nv in (0, 1, 2, 3):
        g = LinearGraph(nv, ())
        assert close(graph_trace(g, op), naive_graph_trace(g, op))
        assert close(injective_graph_trace(g, op),
                     naive_graph_trace(g, op, injective=True))


def test_sum_of_factored_linearity(rng):
    n = 4
    a1, a2, b = (rng.standard_normal((n, n)) for _ in range(3))
    combo = TensorOperand(n, 2, [(2.0, [a1, b]), (-1.5j, [a2, b])])
    g = quotient(minimal_graph(2), SetPartition.from_string("0,1,1,0"))
    direct = 2.0 * graph_trace(g, TensorOperand.factored([a1, b])) \
        - 1.5j * graph_trace(g, TensorOperand.factored([a2, b]))
    assert np.isclose(graph_trace(g, combo), direct)


# --- injective traces -----------------------------------------------------

def test_injective_examples(rng):
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = TensorOperand.factored([a])
    assert np.isclose(injective_graph_trace(LinearGraph(1, [(0, 0)]), op),
                      np.trace(a))
    assert np.isclose(injective_graph_trace(LinearGraph(2, [(1, 0)]), op),
                      a.sum() - np.trace(a))


def test_injective_pigeonhole(rng):
    op = random_operand(rng, 2, 2)
    g = LinearGraph(3, [(0, 1), (1, 2)])
    assert injective_graph_trace(g, op) == 0
    # the letter map is checked even though no injective labeling exists
    with pytest.raises(InvalidArgumentError, match="letter_of_edge"):
        injective_graph_trace(g, op, letter_of_edge=[0, 2])


def test_injective_vertex_cap_fires_before_edge_classes(monkeypatch):
    def fail(mats):
        raise AssertionError("edge arrays compared above the vertex cap")

    monkeypatch.setattr(traces, "_edge_classes", fail)
    g = LinearGraph(10, cycle_edges(10))
    mats = [np.zeros((1, 10, 10))] * 10
    with pytest.raises(ResourceLimitError):
        injective_trace_stack(g, mats, 10)
    assert injective_trace_stack(g, [np.zeros((1, 9, 9))] * 10, 9).tolist() \
        == [0]  # pigeonhole


def test_injective_matches_naive(rng):
    n = 4
    for _ in range(30):
        nv = int(rng.integers(1, 5))
        ne = int(rng.integers(1, 5))
        g = LinearGraph(nv, tuple((int(rng.integers(nv)), int(rng.integers(nv)))
                                  for _ in range(ne)))
        op = random_operand(rng, n, ne)
        assert np.isclose(injective_graph_trace(g, op),
                          naive_graph_trace(g, op, injective=True),
                          rtol=1e-9, atol=1e-8)


def test_elementary_as_sum_of_injective(rng):
    # the defining relation over quotients of the minimal graph, K = 2
    k = 2
    base = minimal_graph(k)
    parts = enumerate_partitions(2 * k)
    for n in (3, 4, 5):
        op = random_operand(rng, n, k)
        for pi in parts:
            lhs = graph_trace(quotient(base, pi), op)
            rhs = sum(injective_graph_trace(quotient(base, pi2), op)
                      for pi2 in parts if leq(pi, pi2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_batched_stack_matches_scalar(rng):
    n, batch = 4, 6
    g = quotient(minimal_graph(2), SetPartition.from_string("0,1,0,1"))
    mats = [rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
            for _ in range(2)]
    stacked = injective_trace_stack(g, mats, n)
    for i in range(batch):
        single = injective_graph_trace(
            g, TensorOperand.factored([mats[0][i], mats[1][i]]))
        assert np.isclose(stacked[i], single)


def test_one_contraction_per_symmetry_orbit(rng, monkeypatch):
    """Quotients that an automorphism of the edge-classed graph maps onto
    each other are contracted once. The alternating 2-, 4- and 6-cycles with
    U, U* classes have 2, 11 and 73 orbits among B(2), B(4), B(6) = 2, 15,
    203 partitions. At the vertex cap the edgeless graph has p(9) = 30 (its
    group is S_9) and the one-letter directed 9-cycle 2,361 (rotations)."""
    real, calls = traces._contract_graph, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traces, "_contract_graph", counted)

    def contractions(graph, mats, n):
        calls.clear()
        injective_trace_stack(graph, mats, n)
        return len(calls)

    def cplx():
        shape = (1, 9, 9)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = cplx()
    for half, orbits, parts in ((1, 2, 2), (2, 11, 15), (3, 73, 203)):
        g = LinearGraph(2 * half, cycle_edges(2 * half))
        assert contractions(g, [u if e % 2 == 0 else adjoint_stack(u)
                                for e in range(2 * half)], 9) == orbits
        assert contractions(g, [cplx() for _ in range(2 * half)], 9) == parts
    assert contractions(LinearGraph(9, ()), [], 9) == 30
    assert contractions(LinearGraph(9, cycle_edges(9)), [u] * 9, 9) == 2361
    # one object shares its class even when it holds NaN; equal copies of it
    # do not, since NaN != NaN
    nan = u.copy()
    nan[0, 0, 0] = np.nan
    assert contractions(LinearGraph(3, cycle_edges(3)), [nan] * 3, 9) == 3
    assert contractions(LinearGraph(3, cycle_edges(3)),
                        [nan.copy() for _ in range(3)], 9) == 5


# --- contraction plans ----------------------------------------------------

def test_plan_widths():
    path = LinearGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert contraction_plan(path).width <= 2
    cycle = LinearGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert contraction_plan(cycle).width <= 2


def test_plan_covers_and_is_deterministic():
    g = LinearGraph(5, [(0, 1), (1, 2), (2, 0), (3, 3)])
    plan = contraction_plan(g)
    assert sorted(plan.order) == [0, 1, 2, 3]
    assert plan == contraction_plan(g)


def test_stacks_are_checked_before_contracting():
    """One (B, N, N) array per edge with one B; anything else is refused
    before any contraction."""
    g = LinearGraph(3, cycle_edges(3))
    rng = np.random.default_rng(9)

    def stack(samples):
        return rng.standard_normal((samples, 3, 3))

    for mats in ([stack(4), stack(1), stack(4)],  # unequal sample counts
                 [rng.standard_normal((3, 3))] * 3,  # no sample axis
                 [stack(2), stack(2)],  # two arrays for three edges
                 [stack(2), stack(2), rng.standard_normal((2, 4, 4))]):
        for form in (graph_trace_stack, injective_trace_stack):
            with pytest.raises(InvalidArgumentError):
                form(g, mats, 3)
    # also where no injective labeling exists
    with pytest.raises(InvalidArgumentError):
        injective_trace_stack(g, [rng.standard_normal((3, 3))] * 3, 2)


def test_cached_schedules_replay_without_the_scheduler(monkeypatch):
    """After one call every quotient's schedule is cached: the same calls
    give the same values with the scheduler gone."""
    rng = np.random.default_rng(12)
    n = 4
    u = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    g = LinearGraph(5, ((0, 1), (1, 2), (2, 0), (2, 2), (3, 4), (4, 3)))
    mats = [u, adjoint_stack(u), u, u, adjoint_stack(u), u]
    first = graph_trace_stack(g, mats, n), injective_trace_stack(g, mats, n)

    def refuse(*args):
        raise AssertionError("a schedule was built again")

    monkeypatch.setattr(traces, "_schedule", refuse)
    assert np.array_equal(graph_trace_stack(g, mats, n), first[0])
    assert np.array_equal(injective_trace_stack(g, mats, n), first[1])


def test_engine_matches_naive_on_loops_parallel_edges_and_components():
    """Sample stacks of B = 3 over loops, parallel edges and (the last two
    graphs) two components, against direct summation."""
    rng = np.random.default_rng(21)
    n, samples = 4, 3

    def cplx():
        shape = (samples, n, n)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, w = cplx(), cplx()
    for g, mats in [
            (LinearGraph(2, ((0, 0), (0, 1), (0, 1), (1, 0), (1, 1))),
             [u, adjoint_stack(u), u, w, adjoint_stack(w)]),
            (LinearGraph(5, ((0, 1), (1, 0), (1, 1), (2, 3), (3, 4), (4, 2),
                             (4, 4))),
             [u, adjoint_stack(u), w, u.real.copy(), w, adjoint_stack(u),
              u]),
            (LinearGraph(4, ((0, 1), (0, 1), (2, 3), (3, 2), (3, 3))),
             [w, adjoint_stack(w), u, u, adjoint_stack(w)])]:
        elementary = graph_trace_stack(g, mats, n)
        injective = injective_trace_stack(g, mats, n)
        for row in range(samples):
            sample = TensorOperand.factored([m[row] for m in mats])
            assert np.isclose(elementary[row], naive_graph_trace(g, sample),
                              rtol=1e-10, atol=1e-10)
            assert np.isclose(injective[row],
                              naive_graph_trace(g, sample, injective=True),
                              rtol=1e-10, atol=1e-10)


def allocating_contraction(graph, mats, n):
    """The elementary form per sample by replaying the cached schedule of
    `contraction_plan` with every result allocated afresh by numpy, as the
    engine did before it kept a buffer arena: the arena's results must
    equal these bit for bit."""
    plan = contraction_plan(graph)
    regs = [np.diagonal(m, axis1=-2, axis2=-1) if s == t else m
            for m, (s, t) in zip(mats, graph.edges)]
    regs += [None] * (plan.registers - len(regs))
    acc = np.ones(mats[0].shape[0] if mats else 1, dtype=np.complex128)
    for op, a, b, dst, how in plan.steps:
        if op == traces._FOLD:
            acc = acc * regs[a]
        elif op == traces._SUM:
            regs[dst] = regs[a].sum(axis=how[0])
        else:
            x, y = regs[a], regs[b]
            g, fa, fb, c = (n ** e for e in how.exps)
            xt = x.transpose(how.a_perm).reshape((x.shape[0], g, fa, c))
            yt = y.transpose(how.b_perm).reshape((x.shape[0], g, c, fb))
            if c == 1:
                out = xt * yt
            elif fa == 1 and fb == 1:
                out = np.einsum("bgoc,bgco->bgo", xt, yt)[..., None]
            else:
                out = np.matmul(xt, yt)
            regs[dst] = out.reshape((x.shape[0],) + (n,) * len(how.labels))
    return acc * n ** plan.isolated


def test_arena_matches_allocating_contraction_bit_for_bit():
    """C-order arena buffers keep every kernel's rounding: C-order,
    adjoint, gapped, negative-stride, broadcast and real stacks, one-sample
    transposed ones, loops, parallel edges and N = 1 give the bytes of
    fresh numpy results. A stack of B >= 2 in Fortran order, or with its
    sample axis in the middle, is read as its C-order copy."""
    rng = np.random.default_rng(40)
    for trial in range(300):
        nv, ne = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        g = LinearGraph(nv, tuple(random_edges(rng, 0, nv, ne)))
        n, samples = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        mats, reference = [], []
        for _ in range(ne):
            m = rng.standard_normal((2 * samples, n, n)) \
                + 1j * rng.standard_normal((2 * samples, n, n))
            layout = int(rng.integers(9))
            stack = [m[:samples], adjoint_stack(m[:samples]),
                     np.asfortranarray(m[:samples]), m[::2],
                     m[:samples].real.copy(), m[:samples - 1:-1, :, ::-1],
                     np.broadcast_to(m[0], (samples, n, n)),
                     m[0].T[None] if samples == 1 else m[samples:],
                     np.ascontiguousarray(m[:samples].transpose(1, 0, 2))
                     .transpose(1, 0, 2)][layout]
            mats.append(stack)
            reference.append(np.ascontiguousarray(stack)
                             if samples > 1 and layout in (2, 8) else stack)
        assert graph_trace_stack(g, mats, n).tobytes() \
            == allocating_contraction(g, reference, n).tobytes()
        if nv <= n:
            total = np.zeros(samples, dtype=np.complex128)
            for coeff, q in traces._orbit_terms(g, traces._edge_classes(mats)):
                total += coeff * allocating_contraction(q, reference, n)
            assert injective_trace_stack(g, mats, n).tobytes() \
                == total.tobytes()


def test_integer_stacks_sum_as_numpy_sums():
    """A sum over an int8 stack widens as numpy's sum does, so the total
    of sixteen entries of 100 does not wrap."""
    m = np.full((2, 4, 4), 100, dtype=np.int8)
    assert graph_trace_stack(LinearGraph(2, ((0, 1),)), [m], 4).tolist() \
        == [1600, 1600]
    assert graph_trace_stack(LinearGraph(1, ((0, 0),)), [m], 4).tolist() \
        == [400, 400]


ENGINE_LAYOUTS = {  # a C-order (6, N, N) stack -> a (3, N, N) edge stack
    "c_order": lambda m: m[:3],
    "adjoint": lambda m: adjoint_stack(m[:3]),
    "gapped": lambda m: m[::2],
    "negative_stride": lambda m: m[5:2:-1, ::-1],
    "broadcast": lambda m: np.broadcast_to(m[0], (3,) + m.shape[1:]),
    "real": lambda m: m[:3].real.copy(),
}

ENGINE_BYTES_SHA256 = {
    "c_order":
        "dadeb21eec750fbec5f9d1de1db964889be63a244efd4687057f437a6a233e50",
    "adjoint":
        "9fc2352944592d5c97bd63fd3779d07fa176dc575661ae03f9d35140a0bb4ec9",
    "gapped":
        "5f682c5e10c031513e310f73b8bef21e44882b4b80d353430930373de4f6fe06",
    "negative_stride":
        "348b14f6eb65a399588bd889b5ae3d9c02320158899cc17d9ea860c5bb96d627",
    "broadcast":
        "d6e5741f7a66f3ec077513eaa927df36d802f1e2df64878e615818f27b391a05",
    "real":
        "3410230a422ac63ffb432ddd12d4563279be2f2e6c24b96cca8753bc5eb25ef7",
    "one_sample":
        "ee83da2378ed966bcb29d85c4bdec0ca4b9162da8190581fd8b7121ce0b28c30",
}


def pinned_engine_bytes() -> dict[str, str]:
    """SHA-256 of the elementary and injective forms per sample, per stack
    layout, over the alternating 2-, 4- and 6-cycles (U on even edges, U*
    on odd ones) and a two-component graph with loops and parallel edges,
    at N = 7 and 12 with B = 3. "one_sample" feeds the (1, N, N) stacks
    that scalar traces make of transposed legs, mixed with C-order ones."""
    rng = np.random.default_rng(2024)
    mixed = LinearGraph(5, ((0, 0), (0, 1), (0, 1), (1, 0), (2, 3), (3, 4),
                            (4, 2), (4, 4)))
    digests = {}
    for name in list(ENGINE_LAYOUTS) + ["one_sample"]:
        sha = hashlib.sha256()
        for n in (7, 12):
            base = [rng.standard_normal((6, n, n))
                    + 1j * rng.standard_normal((6, n, n)) for _ in range(2)]
            if name == "one_sample":
                u, w = base[0][0].T[None], base[1][:1]
            else:
                u, w = (ENGINE_LAYOUTS[name](m) for m in base)
            cases = [(LinearGraph(v, cycle_edges(v)),
                      [u if e % 2 == 0 else adjoint_stack(u)
                       for e in range(v)]) for v in (2, 4, 6)]
            cases.append((mixed, [u, w, adjoint_stack(u), u, w, u,
                                  adjoint_stack(w), w]))
            for g, mats in cases:
                sha.update(graph_trace_stack(g, mats, n).tobytes())
                sha.update(injective_trace_stack(g, mats, n).tobytes())
        digests[name] = sha.hexdigest()
    return digests


def test_engine_bytes_are_pinned():
    """The engine's outputs on every stack layout the package and the
    benchmark pass, byte for byte. N stays at most 12, where matmul and
    einsum bytes do not depend on the BLAS thread count."""
    assert pinned_engine_bytes() == ENGINE_BYTES_SHA256


def test_six_cycle_expansion_holds_few_buffers():
    """The 73 contractions of the alternating 6-cycle write every
    intermediate into a C-order buffer of one arena, which never holds
    more than about four (B, N, N) buffers at once."""
    n, samples = 40, 8
    rng = np.random.default_rng(4)
    u = rng.standard_normal((samples, n, n)) \
        + 1j * rng.standard_normal((samples, n, n))
    g = LinearGraph(6, cycle_edges(6))
    mats = [u if e % 2 == 0 else adjoint_stack(u) for e in range(6)]
    injective_trace_stack(g, mats, n)  # builds the orbits and the plans
    tracemalloc.start()
    try:
        injective_trace_stack(g, mats, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * u.nbytes, peak / u.nbytes


# --- chunks of samples on all cores -----------------------------------------

def split_cases():
    """N = 100 stacks of six samples, where a one-sample stack rounds some
    contractions differently: the alternating 6-cycle (U on even edges, U*
    on odd ones) and a graph with a loop and parallel edges."""
    rng = np.random.default_rng(25)
    n, samples = 100, 6
    u, w = ((rng.standard_normal((samples, n, n))
             + 1j * rng.standard_normal((samples, n, n))) / n ** 0.5
            for _ in range(2))
    mixed = LinearGraph(3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 0)))
    return n, [(LinearGraph(6, cycle_edges(6)),
                [u if e % 2 == 0 else adjoint_stack(u) for e in range(6)]),
               (mixed, [u, w, adjoint_stack(w), u, w])]


def both_forms(n, cases):
    return [form(g, mats, n) for g, mats in cases
            for form in (graph_trace_stack, injective_trace_stack)]


def blas_or_skip():
    blas = parallel.openblas_threads()
    if blas is None:
        pytest.skip("numpy vendors no OpenBLAS with a thread setter")
    return blas


def test_chunks_of_two_or_more_give_the_bytes_of_the_whole_stack(monkeypatch):
    """Both forms of a six-sample stack, whole, in chunks of 3 + 3 and
    2 + 2 + 2, and split by hand into 2 + 4, byte for byte."""
    n, cases = split_cases()
    got = {}
    for chunks in (1, 2, 3):
        monkeypatch.setattr(traces, "_chunks", lambda samples, n, k=chunks: k)
        got[chunks] = [v.tobytes() for v in both_forms(n, cases)]
    monkeypatch.undo()
    head = both_forms(n, [(g, [m[:2] for m in mats]) for g, mats in cases])
    tail = both_forms(n, [(g, [m[2:] for m in mats]) for g, mats in cases])
    by_hand = [np.concatenate(pair).tobytes() for pair in zip(head, tail)]
    assert got[2] == got[1] and got[3] == got[1] and by_hand == got[1]


def test_engine_bytes_do_not_depend_on_the_blas_count(monkeypatch):
    """Set to 3 OpenBLAS threads before the call, both forms give the bytes
    of a whole stack on one thread, and the count is 3 again after."""
    get, put = blas_or_skip()
    n, cases = split_cases()
    monkeypatch.setattr(traces, "_chunks", lambda samples, n: 1)
    whole = [v.tobytes() for v in both_forms(n, cases)]
    monkeypatch.undo()
    before = get()
    put(3)
    try:
        assert [v.tobytes() for v in both_forms(n, cases)] == whole
        assert get() == 3
    finally:
        put(before)


@pytest.mark.parametrize("chunks", [1, 2])
def test_engine_pins_blas_and_restores_it_when_a_chunk_raises(monkeypatch,
                                                              chunks):
    get, put = blas_or_skip()
    seen = []

    def fail(*args):
        seen.append(get())
        raise RuntimeError("contraction failed")

    monkeypatch.setattr(traces, "_contract_graph", fail)
    monkeypatch.setattr(traces, "_chunks", lambda samples, n: chunks)
    g, u = LinearGraph(2, cycle_edges(2)), np.ones((4, 3, 3))
    before = get()
    put(3)
    try:
        for form in (graph_trace_stack, injective_trace_stack):
            with pytest.raises(RuntimeError, match="contraction failed"):
                form(g, [u, u], 3)
            assert get() == 3
        assert seen and set(seen) == {1}
    finally:
        put(before)


def test_chunk_rule_follows_the_measured_crossover(monkeypatch):
    """One chunk per usable core, each of at least two samples and of
    B * N^3 >= 2^19 (README, Performance notes)."""
    monkeypatch.setattr(traces, "usable_cores", lambda: 2)
    assert [traces._chunks(b, n) for b, n in (
        (24, 24), (24, 32), (24, 64), (8, 48), (8, 64), (8, 20), (1, 1000),
        (3, 1000), (4, 64))] == [1, 1, 2, 1, 2, 1, 1, 1, 2]
    monkeypatch.setattr(traces, "usable_cores", lambda: 64)
    assert [traces._chunks(b, n) for b, n in ((24, 100), (24, 50), (4, 64))] \
        == [12, 5, 2]


def test_stacks_below_the_chunk_rule_start_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel.concurrent.futures, "ThreadPoolExecutor",
                        refuse)
    monkeypatch.setattr(traces, "usable_cores", lambda: 2)
    rng = np.random.default_rng(26)
    g = LinearGraph(4, cycle_edges(4))
    for samples, n in ((1, 100), (3, 100), (8, 40), (24, 24)):
        u = rng.standard_normal((samples, n, n))
        for form in (graph_trace_stack, injective_trace_stack):
            assert form(g, [u] * 4, n).shape == (samples,)
    u = rng.standard_normal((4, 64, 64))  # B N^3 = 2^20: two chunks
    with pytest.raises(AssertionError, match="a pool was started"):
        graph_trace_stack(g, [u] * 4, 64)


def test_overlapping_split_calls_keep_their_bytes_and_the_pin(monkeypatch):
    """Six threads making ten calls each, every call in two chunks (twelve
    threads on the cores), switching every microsecond: each call gives the
    bytes of its serial call, and the BLAS count comes back."""
    rng = np.random.default_rng(27)
    n, g = 12, LinearGraph(4, cycle_edges(4))
    cases = [[u, adjoint_stack(u)] * 2 for u in (
        rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        for _ in range(6))]
    monkeypatch.setattr(traces, "_chunks", lambda samples, n: 1)
    serial = [injective_trace_stack(g, mats, n).tobytes() for mats in cases]
    monkeypatch.setattr(traces, "_chunks", lambda samples, n: 2)
    blas = parallel.openblas_threads()
    before = blas[0]() if blas else None
    got, all_in = [None] * len(cases), threading.Barrier(len(cases))

    def work(i):
        all_in.wait(30)
        got[i] = {injective_trace_stack(g, cases[i], n).tobytes()
                  for _ in range(10)}

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [{v} for v in serial]
    assert (blas[0]() if blas else None) == before


# --- growth-rate witness ---------------------------------------------------

def test_witness_full_partition_scales_linearly():
    pi = SetPartition.full(2)  # loop graph, K = 1
    for n in (8, 16):
        w = ms_optimality_witness(pi, n)
        val = injective_graph_trace(quotient(minimal_graph(1), pi), w)
        assert abs(val) >= 0.4 * n  # Tr of the block matrix ~ N / 2K


def test_witness_discrete_partition_k2():
    pi = SetPartition.discrete(4)
    for n in (8, 16):
        w = ms_optimality_witness(pi, n)
        val = injective_graph_trace(minimal_graph(2), w)
        # leaves = 4, so the trace grows like N^2
        assert abs(val) >= 0.3 * n ** 2


def test_witness_unit_norm():
    for pi in enumerate_partitions(4):
        w = ms_optimality_witness(pi, 12)
        for _, factors in w.terms:
            for f in factors:
                assert np.linalg.norm(f, 2) <= 1.0 + 1e-12


def test_witness_requires_large_n():
    with pytest.raises(InvalidArgumentError):
        ms_optimality_witness(SetPartition.full(4), 3)


def test_witness_slope_sample():
    # one one-leaf-heavy partition: {{1},{2},{3,4}} has leaf count 2
    pi = SetPartition((0, 1, 2, 2))
    g = quotient(minimal_graph(2), pi)
    lhalf = leaf_count(g) / 2
    dims = (24, 48, 96)
    vals = [abs(injective_graph_trace(g, ms_optimality_witness(pi, n)))
            for n in dims]
    slope = np.polyfit(np.log(dims), np.log(vals), 1)[0]
    assert abs(slope - lhalf) <= 0.15


def test_mingo_speicher_bound_spot_check():
    rng = np.random.default_rng(31)
    n = 8
    for pi in enumerate_partitions(4):
        g = quotient(minimal_graph(2), pi)
        bound = n ** (leaf_count(g) / 2)
        for _ in range(50):
            op = random_unit_norm_operand(rng, n, 2)
            assert abs(graph_trace(g, op)) <= bound * (1 + 1e-9)


# --- renormalized traces ----------------------------------------------------

def test_zeta_tau_examples():
    n = 6
    eye = TensorOperand.identity(n, 1)
    loop = LinearGraph(1, [(0, 0)])
    assert np.isclose(tau_trace(loop, eye), 1.0)
    assert np.isclose(zeta_trace(loop, eye), 1.0)
    ones = TensorOperand.factored([np.ones((n, n)) / n])
    edge = LinearGraph(2, [(1, 0)])
    assert np.isclose(zeta_trace(edge, ones), 1.0)


def test_zeta_multiplicative_over_disjoint_union(rng):
    from tensortraffic.graphs import disjoint_union
    n = 4
    g1 = LinearGraph(2, [(0, 1), (1, 0)])
    g2 = LinearGraph(1, [(0, 0)])
    both = disjoint_union(g1, g2)
    op1 = random_operand(rng, n, 2)
    op2 = random_operand(rng, n, 1)
    joint = TensorOperand.factored(
        [op1.terms[0][1][0], op1.terms[0][1][1], op2.terms[0][1][0]])
    assert np.isclose(zeta_trace(both, joint),
                      zeta_trace(g1, op1) * zeta_trace(g2, op2))


# --- invariant-state decomposition ------------------------------------------

def test_decompose_tracial_k1():
    n = 6
    coeffs = decompose_invariant_state(StateSpec("tracial", k=1, n=n))
    assert np.isclose(coeffs[SetPartition.full(2)], 1.0 / n)
    assert abs(coeffs[SetPartition.discrete(2)]) < 1e-12


def uniform_entry_state(k, n):
    """A -> (sum of all entries of A) / N^K, the elementary form of the
    discrete partition (K disjoint edges): every probe is nonzero."""
    return StateSpec("elementary_combination", k=k, n=n,
                     coeffs={SetPartition.discrete(2 * k): n ** -k})


def test_decompose_uniform_entry_functional():
    n = 6
    coeffs = decompose_invariant_state(uniform_entry_state(1, n))
    assert np.isclose(coeffs[SetPartition.discrete(2)], 1 / n)
    assert abs(coeffs[SetPartition.full(2)]) < 1e-12


def test_decompose_reconstructs_entangled_state(rng):
    n, k = 5, 2
    spec = StateSpec("max_entangled_vector", k=k, n=n)
    coeffs = decompose_invariant_state(spec)
    for _ in range(20):
        op = random_operand(rng, n, k)
        assert abs(apply_state(spec, op) - reconstruction_value(coeffs, op)) \
            <= 1e-9


def test_reconstruction_value_equals_the_full_sum_over_zeros(rng):
    # a zero coefficient's term is a signed zero, which changes no sum
    k, n = 2, 4
    lookup = {pi: quotient(minimal_graph(k), pi)
              for pi in enumerate_partitions(2 * k)}
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    x, y = rng.standard_normal(2)
    nonzeros = (complex(x, y), complex(0.0, x), complex(-0.0, y),
                complex(x, -0.0))
    sparse = {pi: nonzeros[i % 4] if i % 3 == 0 else zeros[i % 4]
              for i, pi in enumerate(lookup)}
    all_zero = {pi: zeros[i % 4] for i, pi in enumerate(lookup)}
    for coeffs in (sparse, all_zero):
        for _ in range(3):
            op = random_operand(rng, n, k)
            full = complex(sum(a * graph_trace(lookup[pi], op)
                               for pi, a in coeffs.items()))
            got = reconstruction_value(coeffs, op)
            assert (repr(got.real), repr(got.imag)) == \
                (repr(full.real), repr(full.imag))


def _reprs(coeffs):
    return [(pi.rgs, repr(c.real), repr(c.imag)) for pi, c in coeffs.items()]


# the entangled-pair state needs an even number of legs; the uniform-entry
# state and the random combination are dense: no probe is zero
@pytest.mark.parametrize("kind,k", [
    ("tracial", 2), ("tracial", 3), ("max_entangled_vector", 2),
    ("diagonal_uniform", 2), ("diagonal_uniform", 3), ("uniform_entry", 2),
    ("uniform_entry", 3), ("dense_elementary", 2), ("dense_elementary", 3)])
def test_decompose_equals_leq_scan_reference(kind, k):
    for n in (2 * k, 2 * k + 1):
        if kind == "uniform_entry":
            psi = uniform_entry_state(k, n)
        elif kind == "dense_elementary":
            psi = StateSpec("elementary_combination", k=k, n=n,
                            coeffs=dense_unital_coefficients(k, n, seed=n))
        else:
            psi = StateSpec(kind, k=k, n=n)
        if kind in ("uniform_entry", "dense_elementary"):
            assert 0 not in elementary_probes(psi, k, n).values()
        # same keys in the same order, and the same floats to the sign of
        # zero: every sum adds the same nonzero terms in the same order
        assert _reprs(decompose_invariant_state(psi)) == \
            _reprs(leq_scan_decomposition(psi, k, n))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decompose_keys_ascend_in_restricted_growth_order(k):
    keys = [pi.rgs for pi in decompose_invariant_state(
        StateSpec("tracial", k=k, n=2 * k))]
    assert keys == sorted(keys) and len(keys) == len(set(keys))


def kernel_states(k, n):
    """One state of each kind on K legs at dimension N."""
    return [StateSpec(kind, k=k, n=n) for kind in (
        "tracial", "max_entangled_vector", "diagonal_uniform")] + [
        StateSpec("elementary_combination", k=k, n=n,
                  coeffs=dense_unital_coefficients(k, n, seed=n))]


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("samples", [1, 2, 7])
def test_state_kernel_on_probe_stacks_equals_apply_state(samples, n):
    # probe values are exact, so a stack of them has the bytes of the scalar
    # path sample by sample, signed zeros included
    k = 2
    rng = np.random.default_rng(100 * n + samples)
    parts = enumerate_partitions(2 * k)
    for psi in kernel_states(k, n):
        probes = elementary_probes(psi, k, n)
        chosen = [parts[i] for i in rng.integers(len(parts), size=samples)]
        values = traces._probe_values(psi, [pi.rgs for pi in chosen])
        assert values.shape == (samples,)
        for pi, value in zip(chosen, values):
            got, want = complex(value), probes[pi]
            assert (repr(got.real), repr(got.imag)) == \
                (repr(want.real), repr(want.imag)), (psi.kind, pi.rgs)


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("samples", [1, 2, 7])
def test_state_kernel_on_random_stacks_matches_apply_state(samples, n):
    # array complex products may round differently from scalar ones, so
    # random operands agree to a relative tolerance, not to the bit
    k, weight = 2, complex(0.75, -0.5)
    rng = np.random.default_rng(100 * n + samples)
    for psi in kernel_states(k, n):
        legs = [rng.standard_normal((samples, n, n))
                + 1j * rng.standard_normal((samples, n, n))
                for _ in range(k)]
        values = traces._state_kernel(psi, weight, legs)
        assert values.shape == (samples,)
        for s, value in enumerate(values):
            want = apply_state(psi, TensorOperand.factored(
                [leg[s] for leg in legs], weight))
            assert abs(value - want) <= 1e-12 * abs(want), psi.kind


# Traced peak bytes of decompose_invariant_state(tracial, K = 4, N = 8)
# when every probe built its own TensorOperand and called apply_state:
# 1,427,829 under pytest, measured as below (a warm-up call, then a full
# collection, which also empties the free lists, so that every allocation
# is traced); 1,456,459 at N = 32. The partitions of [8] and the two
# coefficient dicts set it. At N = 32 one unchunked float leg stack of the
# B(8) = 4,140 probes would be 34 MB; chunked, both peak at about 1.28 MB.
PER_PROBE_DECOMPOSE_K4_PEAK_BYTES = 1_427_829


@pytest.mark.parametrize("n", [8, 32])
def test_decompose_probe_chunks_bound_the_peak(n):
    psi = StateSpec("tracial", k=4, n=n)
    decompose_invariant_state(psi)
    gc.collect()
    tracemalloc.start()
    try:
        decompose_invariant_state(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_PROBE_DECOMPOSE_K4_PEAK_BYTES, peak


def test_decompose_requires_enough_dimension():
    with pytest.raises(InvalidArgumentError):
        decompose_invariant_state(StateSpec("tracial", k=2, n=3))


def test_elementary_combination_state_roundtrip():
    n, k = 6, 1
    spec = StateSpec("elementary_combination", k=k, n=n,
                     coeffs={SetPartition.full(2): 1.0 / n,
                             SetPartition.discrete(2): 0.0})
    op = TensorOperand.factored([np.diag(np.arange(1.0, n + 1.0))])
    assert np.isclose(apply_state(spec, op), np.mean(np.arange(1.0, n + 1.0)))


def test_coefficient_state_builds_only_the_quotients_it_names(monkeypatch):
    built = []

    def counted(graph, pi):
        built.append(pi)
        return quotient(graph, pi)

    monkeypatch.setattr(traces, "quotient", counted)
    traces._minimal_quotient.cache_clear()
    k, n = 5, 4
    full = SetPartition.full(2 * k)
    spec = StateSpec("elementary_combination", k=k, n=n, coeffs={full: 1 / n})
    assert np.isclose(apply_state(spec, TensorOperand.identity(n, k)), 1.0)
    assert built == [full]


def test_coefficient_state_beyond_the_enumeration_cap_builds_nothing(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a quotient was built beyond the cap")

    monkeypatch.setattr(traces, "quotient", refuse)
    with pytest.raises(ResourceLimitError):
        StateSpec("elementary_combination", k=7, n=14,
                  coeffs={SetPartition.full(14): 1 / 14})


def test_elementary_combination_unitality_enforced():
    with pytest.raises(InvalidArgumentError):
        StateSpec("elementary_combination", k=1, n=4,
                  coeffs={SetPartition.full(2): 1.0})

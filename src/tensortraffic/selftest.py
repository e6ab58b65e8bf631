"""Deterministic exact-identity suite behind the `selftest` subcommand.

Every check is seeded and tolerance-pinned; the output is one PASS/FAIL line
per check, byte-identical across runs.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import LinearGraph, canonical_form, minimal_graph, quotient
from .haar import haar_limit_injective, splitting_identity_check
from .operands import TensorOperand
from .partitions import SetPartition, enumerate_partitions, interval, mobius
from .sampling import RngStream
from .traces import (decompose_invariant_state, graph_trace,
                     injective_graph_trace, naive_graph_trace)
from .characters import cycle_factorization_check
import itertools


def _random_operand(rng, n, k):
    return TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(k)])


def run_selftest():
    checks = []
    rng = RngStream(20240801).generator()

    n = 4
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = TensorOperand.factored([a])
    ok = np.isclose(graph_trace(LinearGraph(2, [(1, 0)]), op), a.sum()) \
        and np.isclose(graph_trace(LinearGraph(1, [(0, 0)]), op), np.trace(a))
    checks.append(("entry-convention", bool(ok)))

    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op2 = TensorOperand.factored([a, b])
    ok = np.isclose(graph_trace(LinearGraph(3, [(1, 0), (2, 1)]), op2),
                    (a @ b).sum())
    checks.append(("path-convention", bool(ok)))

    base = minimal_graph(2)
    parts = enumerate_partitions(4)
    ok = True
    for pi in parts:
        lhs = graph_trace(quotient(base, pi), op2)
        rhs = sum(injective_graph_trace(quotient(base, pi2), op2)
                  for pi2 in interval(pi, SetPartition.full(4)))
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    checks.append(("elementary-vs-injective", ok))

    ok = True
    for m in range(1, 5):
        for q in enumerate_partitions(m):
            for p in interval(SetPartition.discrete(m), q):
                ok = ok and _mobius_recursive(p, q) == mobius(p, q)
    checks.append(("mobius-closed-form", ok))

    forms = {canonical_form(quotient(base, pi)) for pi in parts}
    checks.append(("quotient-injectivity", len(forms) == 15))

    cactus_ok = haar_limit_injective(
        LinearGraph(2, [(0, 1), (1, 0)]), (1, 1), (False, True)) == 1 \
        and haar_limit_injective(
            LinearGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (1,) * 4,
            (False, True, False, True)) == Fraction(-1) \
        and haar_limit_injective(
            LinearGraph(6, [(i, (i + 1) % 6) for i in range(6)]), (1,) * 6,
            (False, True) * 3) == Fraction(2) \
        and haar_limit_injective(
            LinearGraph(8, [(i, (i + 1) % 8) for i in range(8)]), (1,) * 8,
            (False, True) * 4) == Fraction(-5)
    checks.append(("haar-limit-coefficients", cactus_ok))

    tprime = LinearGraph(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    b1 = _random_operand(rng, 4, 2)
    b2 = _random_operand(rng, 4, 2)
    rep = splitting_identity_check(tprime, (1, 1, 2, 2), b1, b2, mode="exact")
    checks.append(("splitting-identity", rep.residual <= 1e-9))

    ok = True
    for d in (2, 3):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for sigma in itertools.permutations(range(d)):
            ok = ok and cycle_factorization_check(mat, sigma) <= 1e-10
    checks.append(("cycle-factorization", ok))

    from .operands import StateSpec
    coeffs = decompose_invariant_state(StateSpec("tracial", k=1, n=4))
    full, disc = SetPartition.full(2), SetPartition.discrete(2)
    ok = abs(coeffs[full] - 0.25) <= 1e-12 and abs(coeffs[disc]) <= 1e-12
    checks.append(("state-decomposition", ok))

    g = LinearGraph(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
    opg = _random_operand(rng, 3, 4)
    ok = abs(graph_trace(g, opg) - naive_graph_trace(g, opg)) <= 1e-8
    checks.append(("contraction-vs-naive", ok))

    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks]
    return all(ok for _, ok in checks), lines


def _mobius_recursive(p, q, memo=None):
    """Defining recursion: mu(p, p) = 1, sum_{p <= s <= q} mu(p, s) = 0."""
    if memo is None:
        memo = {}
    if p == q:
        return 1
    key = q.rgs
    if key in memo:
        return memo[key]
    total = 0
    for s in interval(p, q):
        if s != q:
            total += _mobius_recursive(p, s, memo)
    memo[key] = -total
    return -total

import itertools

import numpy as np
import pytest

from tensortraffic.errors import InvalidArgumentError, ResourceLimitError
from tensortraffic.partitions import (SetPartition, enumerate_partitions,
                                      interval, leq, mobius, mobius_table)

from oracles import kernel


def brute_force_partitions(n):
    """Independent enumeration: all ways to assign blocks, deduplicated."""
    seen = set()
    for assign in itertools.product(range(n), repeat=n):
        blocks = {}
        for pos, b in enumerate(assign):
            blocks.setdefault(b, set()).add(pos + 1)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


def mobius_recursive(p, q):
    if p == q:
        return 1
    total = 0
    for s in interval(p, q):
        if s != q:
            total += mobius_recursive(p, s)
    return -total


def test_counts_small():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15


def test_enumeration_matches_brute_force():
    for n in (2, 3, 4):
        ours = {frozenset(frozenset(b) for b in pi.blocks())
                for pi in enumerate_partitions(n)}
        assert ours == brute_force_partitions(n)


def test_enumeration_deterministic_and_normal():
    parts = enumerate_partitions(4)
    assert parts == enumerate_partitions(4)
    assert parts[0] == SetPartition.full(4)  # "0,0,0,0" is lexicographically first
    for pi in parts:
        # restricted growth: first element in block 0, no index jumps
        assert pi.rgs[0] == 0
        for k in range(1, pi.n):
            assert pi.rgs[k] <= max(pi.rgs[:k]) + 1


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError, match="Bell\\(13\\) = 27644437"):
        enumerate_partitions(13)


def test_leq_examples():
    disc = SetPartition.discrete(3)
    full = SetPartition.full(3)
    a = SetPartition((0, 0, 1))  # {1,2} {3}
    b = SetPartition((0, 1, 1))  # {1} {2,3}
    assert leq(disc, a) and leq(disc, b) and leq(a, full)
    assert not leq(a, b) and not leq(b, a)
    for pi in enumerate_partitions(4):
        assert leq(pi, pi)


def test_leq_mismatch():
    with pytest.raises(InvalidArgumentError):
        leq(SetPartition.discrete(3), SetPartition.discrete(4))


def test_mobius_examples():
    for n in (2, 3, 4):
        assert mobius(SetPartition.discrete(n), SetPartition.discrete(n)) == 1
    assert mobius(SetPartition.discrete(3), SetPartition.full(3)) == 2
    assert mobius(SetPartition.discrete(4), SetPartition.full(4)) == -6


def test_mobius_closed_form_equals_recursion():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for q in parts:
            for p in parts:
                if leq(p, q):
                    assert mobius(p, q) == mobius_recursive(p, q)


def test_mobius_defining_identity():
    # sum over [p, q] of mu(p, s) vanishes unless p == q
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for q in parts:
            below = [p for p in parts if leq(p, q)]
            for p in below:
                total = sum(mobius(p, s) for s in interval(p, q))
                assert total == (1 if p == q else 0)


def test_mobius_bottom_to_top_factorial():
    import math
    for n in range(1, 7):
        val = mobius(SetPartition.discrete(n), SetPartition.full(n))
        assert val == (-1) ** (n - 1) * math.factorial(n - 1)


def test_interval_equals_leq_scan_in_enumeration_order():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        for p in parts:
            for q in parts:
                if leq(p, q):
                    assert interval(p, q) == \
                        [s for s in parts if leq(p, s) and leq(s, q)]


def test_mobius_table_walks_each_up_set_with_its_mobius_values():
    # rho o sigma runs once over every pi >= sigma, with mu(sigma, pi)
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        for sigma in parts:
            walked = {}
            for rho, mu in mobius_table(sigma.num_blocks):
                pi = SetPartition(tuple(rho[b] for b in sigma.rgs))
                assert pi not in walked
                walked[pi] = mu
            assert walked == {pi: mobius(sigma, pi) for pi in parts
                              if leq(sigma, pi)}


def test_dual_inversion_roundtrip():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        parts = enumerate_partitions(n)
        f = {pi: int(rng.integers(-50, 50)) for pi in parts}
        g = {pi: sum(f[s] for s in parts if leq(pi, s)) for pi in parts}
        back = {pi: sum(mobius(pi, s) * g[s] for s in parts if leq(pi, s))
                for pi in parts}
        assert back == f


def test_serialization():
    pi = SetPartition((0, 0, 1, 0))  # {1,2,4} {3}
    assert pi.to_string() == "0,0,1,0"
    assert SetPartition.from_string("0,0,1,0") == pi


def test_from_values_kernel_style():
    assert kernel((5, 5, 5)) == SetPartition.full(3)
    assert kernel((1, 2, 3)) == SetPartition.discrete(3)


def test_invalid_rgs_rejected():
    with pytest.raises(InvalidArgumentError):
        SetPartition((0, 2))
    with pytest.raises(InvalidArgumentError):
        SetPartition(())

"""Set partitions of [n], the refinement lattice, and its Möbius function.

Partitions are stored in restricted-growth normal form: position k (1-based)
is mapped to the index of its block, blocks numbered by smallest element.
The string form "0,0,1,0" therefore denotes {{1,2,4},{3}}.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import InvalidArgumentError, ResourceLimitError

ENUMERATION_CAP = 12  # Bell(12) = 4213597 partitions


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1,..,n} in restricted-growth normal form."""

    rgs: tuple[int, ...]

    def __post_init__(self):
        if len(self.rgs) < 1:
            raise InvalidArgumentError("partition ground set must be nonempty")
        mx = -1
        for b in self.rgs:
            if b < 0 or b > mx + 1:
                raise InvalidArgumentError(
                    f"not a restricted-growth string: {self.rgs}")
            mx = max(mx, b)

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as tuples of 1-based positions, in block-index order."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for pos, b in enumerate(self.rgs, start=1):
            out[b].append(pos)
        return tuple(tuple(blk) for blk in out)

    @classmethod
    def discrete(cls, n: int) -> "SetPartition":
        return cls(tuple(range(n)))

    @classmethod
    def full(cls, n: int) -> "SetPartition":
        return cls((0,) * n)

    @classmethod
    def from_string(cls, s: str) -> "SetPartition":
        return cls(tuple(int(tok) for tok in s.split(",")))

    def to_string(self) -> str:
        return ",".join(str(b) for b in self.rgs)

    def __str__(self) -> str:
        return self.to_string()


def _normalize(assign) -> tuple[int, ...]:
    """Relabel arbitrary block ids into restricted-growth normal form."""
    relabel: dict[int, int] = {}
    out = []
    for b in assign:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


def bell_number(n: int) -> int:
    """B(n) by the Bell triangle; only the enumeration cap's error message
    needs it."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All B(n) partitions of [n] in lexicographic restricted-growth order."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"enumerating P({n}) needs Bell({n}) = {bell_number(n)} partitions; "
            f"the cap is n = {ENUMERATION_CAP}")
    return [SetPartition(rgs) for rgs in restricted_growth_strings(n)]


def restricted_growth_strings(n: int) -> list[tuple[int, ...]]:
    """All B(n) restricted-growth strings of length n in lexicographic order;
    n = 0 gives the one empty string, the partition of the empty set."""
    out = [()]
    for _ in range(n):
        out = [rgs + (b,) for rgs in out
               for b in range(max(rgs, default=-1) + 2)]
    return out


def _check_same_ground(p: SetPartition, q: SetPartition):
    if p.n != q.n:
        raise InvalidArgumentError(
            f"ground-set sizes differ: {p.n} vs {q.n}")


def leq(p: SetPartition, q: SetPartition) -> bool:
    """True iff every block of p is contained in a block of q (p refines q)."""
    _check_same_ground(p, q)
    # p <= q iff positions equal under p are equal under q
    seen: dict[int, int] = {}
    for pos in range(p.n):
        bp, bq = p.rgs[pos], q.rgs[pos]
        if bp in seen:
            if seen[bp] != bq:
                return False
        else:
            seen[bp] = bq
    return True


def find_root(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union_roots(parent: list[int], x: int, y: int):
    """Merge the sets of x and y; the smaller root becomes the root."""
    rx, ry = find_root(parent, x), find_root(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def mobius(p: SetPartition, q: SetPartition) -> int:
    """Möbius function of the interval [p, q] in the partition lattice.

    Closed form: the interval is a product of partition lattices, one per
    block B of q, each on the p-blocks inside B, so
    mu(p, q) = prod_B (-1)^(n_B - 1) (n_B - 1)!  with n_B = #{p-blocks in B}.
    """
    if not leq(p, q):
        raise InvalidArgumentError("mobius requires p <= q")
    counts: dict[int, set[int]] = {}
    for pos in range(p.n):
        counts.setdefault(q.rgs[pos], set()).add(p.rgs[pos])
    return mobius_of_sizes(len(sub) for sub in counts.values())


def mobius_of_sizes(sizes) -> int:
    """prod_m (-1)^(m - 1) (m - 1)! over the sizes m: mu(discrete, pi) for a
    partition pi with these block sizes, and the factor of one block of q in
    mobius(p, q)."""
    result = 1
    for m in sizes:
        result *= (-1) ** (m - 1) * factorial(m - 1)
    return result


@lru_cache(maxsize=None)
def mobius_table(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(rho, mu(discrete, rho)) for every restricted-growth string rho of
    length m, in lexicographic order.

    Composed with a partition sigma of m blocks, pi = (rho[b] for b in
    sigma.rgs) is again a restricted-growth string, rho -> pi is a bijection
    onto the up-set {pi >= sigma}, and mu(sigma, pi) = mu(discrete, rho):
    the interval [sigma, pi] is the lattice of partitions of sigma's blocks
    below rho. Callers must have checked m against ENUMERATION_CAP.
    """
    return tuple((rho, mobius_of_sizes(Counter(rho).values()))
                 for rho in restricted_growth_strings(m))


def interval(p: SetPartition, q: SetPartition) -> list[SetPartition]:
    """All partitions s with p <= s <= q, in `enumerate_partitions` order.

    Built directly: the interval is the product, over the blocks of q, of
    the partition lattices on the p-blocks each one contains.
    """
    if not leq(p, q):
        raise InvalidArgumentError("interval requires p <= q")
    inner: dict[int, list[int]] = {}  # q-block -> its p-blocks, ascending
    for b, block in enumerate(p.blocks()):
        inner.setdefault(q.rgs[block[0] - 1], []).append(b)
    out = []
    for combo in itertools.product(
            *(enumerate_partitions(len(bs)) for bs in inner.values())):
        label = [None] * p.num_blocks  # p-block -> (q-block, sub-block)
        for qb, (bs, sub) in enumerate(zip(inner.values(), combo)):
            for b, r in zip(bs, sub.rgs):
                label[b] = (qb, r)
        out.append(SetPartition(_normalize([label[b] for b in p.rgs])))
    out.sort(key=lambda s: s.rgs)
    return out

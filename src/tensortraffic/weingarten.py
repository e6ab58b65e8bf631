"""Exact finite-N Weingarten calculus for Haar word tensors.

Wg(., N) on S_p is a class function, given by the character expansion of
Collins and Sniady (CMP 2006, math-ph/0402073); it inverts the Gram matrix
N^{#cycles(sigma^-1 tau)} for N >= p and is its pseudo-inverse below p, so
the Weingarten integration formula holds at every N >= 1. From it, the
expectation of a permutation-invariant state on a word in
W_l = U_l^{x K1} x (U_l^t)^{x K2} is a finite sum of rationals, the exact
reference for Monte-Carlo estimates. All arithmetic is exact (`Fraction`).
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import LinearGraph, component_count
from .operands import StateSpec, compose, cycles_of, inverse_permutation
from .words import StarWord

__all__ = ["WG_TERM_CAP", "weingarten", "exact_expectation"]

WG_TERM_CAP = 10 ** 6  # (sigma, tau) pairings summed in one expectation

EXACT_KINDS = ("tracial", "max_entangled_vector", "diagonal_uniform")


def _cycle_type(sigma) -> tuple[int, ...]:
    """Cycle lengths of a permutation of 0..p-1, longest first."""
    return tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))


def _partitions(p: int, largest: int | None = None):
    """Partitions of p as weakly decreasing tuples, largest first."""
    if p == 0:
        yield ()
    for first in range(min(p, largest or p), 0, -1):
        for rest in _partitions(p - first, first):
            yield (first,) + rest


def _character(beta: frozenset, cycle_type: tuple[int, ...]) -> int:
    """chi^lambda(rho) by Murnaghan-Nakayama on the beta-numbers of lambda: a
    rim hook of length r is a bead moved r down, sign (-1)^(beads passed)."""
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            passed = sum(1 for c in beta if b - r < c < b)
            total += (-1) ** passed * _character(beta - {b} | {b - r}, rest)
    return total


@functools.lru_cache(maxsize=64)
def _class_table(p: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Wg(., n) on S_p as a map from cycle type to value: Wg(rho, N) = (1/p!)
    sum_{lambda |- p, l(lambda) <= N} chi^lambda(1) chi^lambda(rho) /
    prod_boxes (N + content), i.e. Collins-Sniady's sum with s_lambda(1^N) =
    chi^lambda(1) prod_boxes (N + content) / p! substituted."""
    if n < 1:
        raise InvalidArgumentError(f"Weingarten values need N >= 1, got {n}")
    shapes = []
    for lam in _partitions(p):
        if len(lam) <= n:
            beta = frozenset(part + len(lam) - 1 - i
                             for i, part in enumerate(lam))
            contents = math.prod(n + j - i for i, part in enumerate(lam)
                                 for j in range(part))
            shapes.append((beta, Fraction(_character(beta, (1,) * p),
                                          contents * math.factorial(p))))
    return {rho: sum(w * _character(beta, rho) for beta, w in shapes)
            for rho in _partitions(p)}


def weingarten(sigma, n: int) -> Fraction:
    """Exact Wg(sigma, N) for a permutation of 0..p-1 and any N >= 1."""
    sigma = tuple(sigma)
    return _class_table(len(sigma), n)[_cycle_type(sigma)]


def exact_expectation(state: StateSpec, word: StarWord, blocks,
                      n: int) -> Fraction:
    """Exact E[state(word(W))] with W_l = U_l^{x K1} x (U_l^t)^{x K2} for
    independent Haar unitaries U_l, blocks = (K1, K2, 0).

    Leg j of the word tensor is a matrix product; its index chain
    i_0, ..., i_m turns every letter into one entry of U_l or of conj(U_l).
    The state ties chain ends together, and each letter's Weingarten sum
    over (sigma, tau) in S_p^2 ties plain rows (columns) to conjugate rows
    (columns). A term contributes Wg(tau sigma^-1) per letter times
    N^{#index classes}. A letter whose plain and conjugate counts differ
    makes the expectation exactly 0.
    """
    k1, k2, k3 = blocks
    if k3:
        raise InvalidArgumentError("exact expectations cover K3 = 0 only")
    if k1 < 1 or k2 < 0:
        raise InvalidArgumentError("need K1 >= 1 and K2 >= 0")
    if not isinstance(state, StateSpec) or state.kind not in EXACT_KINDS:
        raise InvalidArgumentError(
            f"exact expectations need a state of kind {', '.join(EXACT_KINDS)}")
    k = k1 + k2
    if state.k != k or state.n != n:
        raise InvalidArgumentError(
            f"blocks give K={k} legs at N={n}, the state has "
            f"K={state.k} at N={state.n}")
    m = len(word)

    def node(leg, pos):
        return leg * (m + 1) + pos

    plain: dict[int, list] = {idx: [] for idx, _ in word.letters}
    conj: dict[int, list] = {idx: [] for idx, _ in word.letters}
    for leg in range(k):
        transposed = leg >= k1
        for pos, (idx, star) in enumerate(word.letters, start=1):
            row, col = node(leg, pos - 1), node(leg, pos)
            if star != transposed:  # U* and U^t read their entry transposed
                row, col = col, row
            (conj if star else plain)[idx].append((row, col))
    if any(len(plain[idx]) != len(conj[idx]) for idx in plain):
        return Fraction(0)

    ends = [(node(leg, 0), node(leg, m)) for leg in range(k)]
    if state.kind == "tracial":
        base = ends
        norm = n ** k
    elif state.kind == "max_entangled_vector":
        base = [(ends[j][e], ends[j + 1][e]) for j in range(0, k, 2)
                for e in (0, 1)]
        norm = n ** (k // 2)
    else:  # diagonal_uniform: every chain starts and ends at one index
        base = [(ends[0][0], v) for pair in ends for v in pair]
        norm = n

    terms = math.prod(math.factorial(len(p)) ** 2 for p in plain.values())
    if terms > WG_TERM_CAP:
        raise ResourceLimitError(
            f"the Weingarten sum has {terms} terms; the cap is {WG_TERM_CAP}")
    choices = []
    for idx in plain:
        ps, qs = plain[idx], conj[idx]
        p = len(ps)
        if p == 0:
            continue
        table = _class_table(p, n)
        perms = list(itertools.permutations(range(p)))
        options = []
        for sigma in perms:
            rows = [(ps[i][0], qs[sigma[i]][0]) for i in range(p)]
            sigma_inv = inverse_permutation(sigma)
            for tau in perms:
                weight = table[_cycle_type(compose(tau, sigma_inv))]
                cols = [(ps[i][1], qs[tau[i]][1]) for i in range(p)]
                options.append((weight, rows + cols))
        choices.append(options)

    vertices = k * (m + 1)
    total = Fraction(0)
    for combo in itertools.product(*choices):
        weight = Fraction(1)
        edges = list(base)
        for w, e in combo:
            weight *= w
            edges.extend(e)
        total += weight * n ** component_count(LinearGraph(vertices, edges))
    return total / norm

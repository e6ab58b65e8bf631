"""Exact finite-N Weingarten calculus for Haar word tensors.

Wg(., N) on S_p is the inverse of the Gram matrix N^{#cycles(sigma^-1 tau)}
in the group algebra; it exists for N >= p and is a class function
(Collins, IMRN 2003, math-ph/0205010; Collins and Sniady, CMP 2006,
math-ph/0402073). From it, the expectation of a permutation-invariant state
on a word in W_l = U_l^{x K1} x (U_l^t)^{x K2} is a finite sum of rationals,
which serves as the exact reference for Monte-Carlo estimates at every N.
All arithmetic is exact (`Fraction`); nothing here samples.
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


@functools.lru_cache(maxsize=64)
def _class_table(p: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Wg(., n) on S_p as a map from cycle type to value.

    Solves the orthogonality relation sum_tau Wg(sigma tau^-1) n^{#cycles(tau)}
    = delta_{sigma,e} for one sigma per conjugacy class.
    """
    if n < p:
        raise InvalidArgumentError(
            f"the Gram matrix of S_{p} is singular for N = {n}; "
            f"exact Weingarten values need N >= {p}")
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


def weingarten(sigma, n: int) -> Fraction:
    """Exact Wg(sigma, N) for a permutation of 0..p-1, defined for N >= p."""
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

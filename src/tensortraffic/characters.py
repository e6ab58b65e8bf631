"""Rational irreducible characters of the unitary group, the cycle
factorization of permuted tensor traces, and the conditional expectation of
centered tensor-power words onto the span of leg permutations.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (IllConditionedError, InvalidArgumentError,
                     ResourceLimitError)
from .operands import check_permutation, cycles_of, inverse_permutation
from .sampling import MCReport, haar_sweep, word_matrix
from .weingarten import _character, _partitions
from .words import StarWord, is_trivial

SUBSET_CAP = 2 ** 16  # letter subsets walked per amalgam sample


@dataclass(frozen=True)
class Signature:
    """Pair of weakly decreasing nonnegative integer sequences labeling a
    rational irreducible representation; either side may be empty.
    """

    lam: tuple[int, ...] = ()
    mu: tuple[int, ...] = ()

    def __post_init__(self):
        for seq in (self.lam, self.mu):
            if any(x < 1 for x in seq):
                raise InvalidArgumentError("signature parts must be positive")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise InvalidArgumentError("signature parts must be decreasing")

    @property
    def length(self) -> int:
        return len(self.lam) + len(self.mu)

    @functools.lru_cache(maxsize=256)  # once per (signature, N) in a sweep
    def dimension(self, n: int) -> Fraction:
        """Exact dimension: prod_{i<j} (l_i - l_j) / (j - i) over the strictly
        decreasing l_j = (signature padded with zeros to length N)_j - j. A
        factor is symmetric in i and j, and 1 when both index the zero
        padding, so only pairs touching a part of lam or mu are multiplied."""
        if self.length > n:
            raise InvalidArgumentError(
                f"signature length {self.length} exceeds N = {n}")
        zeros = range(len(self.lam), n - len(self.mu))
        l = [x - j for j, x in enumerate(list(self.lam) + [0] * len(zeros)
                                         + [-m for m in reversed(self.mu)])]
        ends = [j for j in range(n) if j not in zeros]
        num = den = 1
        for x, i in enumerate(ends):
            for j in itertools.chain(ends[x + 1:], zeros):
                num *= l[i] - l[j]
                den *= j - i
        return Fraction(num, den)


def _complete_symmetric(u: np.ndarray, order: int) -> np.ndarray:
    """h_0..h_order of the eigenvalues of U by Newton's identities,
    k h_k = sum_{i<=k} p_i h_{k-i}, from p_k = Tr(U^k), the entrywise sum of
    U^floor(k/2) * (U^ceil(k/2))^T: one product per two orders."""
    p, h, low, high = [complex(np.trace(u))], [1.0 + 0.0j], u, u
    for k in range(1, order + 1):
        if k > 1:
            low, high = (low, low @ u) if k % 2 else (high, high)
            p.append(complex(np.sum(low * high.T)))
        h.append(sum(p[i] * h[k - 1 - i] for i in range(k)) / k)
    return np.array(h)


def normalized_character(sig: Signature, u: np.ndarray) -> complex:
    """Character of the rational irreducible representation at a unitary U,
    normalized so the identity evaluates to exactly 1: Koike's determinant
    (Adv. Math. 74, 1989), exact for N >= l(lam) + l(mu), over the exact
    dimension. With q = l(mu), row i <= q of the (q + l(lam)) square matrix
    reads hbar_{mu_{q+1-i}+i-j} and row q + i reads h_{lam_i-q-i+j}. The h_k
    are the complete symmetric polynomials of the eigenvalues of U, and
    hbar_k = conj(h_k) those of U* = U^{-1}, which is where U must be
    unitary. Scalar matrices are handled in closed form."""
    return _normalized_characters((sig,), u)[0]


def _normalized_characters(sigs, u: np.ndarray) -> list[complex]:
    """normalized_character of each signature at one U, all read from one
    h_0..h_order: h_k does not depend on the largest order computed."""
    n = u.shape[0]
    if any(sig.length > n for sig in sigs):
        raise InvalidArgumentError(f"signature too long for N = {n}")
    c = u[0, 0]
    # a Haar U already fails at u[1, 0]; a NaN there falls through to the scan
    if not (n > 1 and abs(u[1, 0]) >= 1e-12) \
            and np.max(np.abs(u - c * np.eye(n))) < 1e-12:
        return [complex(c) ** (sum(sig.lam) - sum(sig.mu)) for sig in sigs]
    h_all = _complete_symmetric(u, max(
        (s[0] + len(s) - 1 for sig in sigs for s in (sig.lam, sig.mu) if s),
        default=0))
    out = []
    for sig in sigs:
        size, q = sig.length, len(sig.mu)
        # every index read is above -size, and h_k = 0 for k < 0
        h = np.concatenate([np.zeros(size), h_all])
        j = np.arange(size)
        rows = [np.conj(h[size + m + i - j])
                for i, m in enumerate(reversed(sig.mu))]
        rows += [h[size + part - q - i + j] for i, part in enumerate(sig.lam)]
        det = np.linalg.det(np.array(rows).reshape(size, size))
        if not np.isfinite(det):
            raise IllConditionedError("character determinant overflowed")
        out.append(complex(det / float(sig.dimension(n))))
    return out


def character_reference(sig: Signature, u: np.ndarray) -> complex:
    """First-order approximation tr(U)^{l(lam)} tr(conj U)^{l(mu)}; the exact
    normalized character differs from this by O(1/N), uniformly in U.
    """
    tr = np.trace(u) / u.shape[0]
    return complex(tr ** len(sig.lam) * np.conj(tr) ** len(sig.mu))


def character_sweep(sig: Signature, n: int, samples: int, seed: int = 0,
                    word: StarWord | None = None):
    """Normalized character chi on Haar samples: of U itself, or of the word
    in the Haar letters U_1..U_K, K = word.alphabet. Returns (the report of
    chi, the mean of |chi|, the mean of |chi - character_reference|).
    """
    def sample(us, rng):
        u = us[0] if word is None else word_matrix(word, us)
        chi = normalized_character(sig, u)
        return chi, abs(chi - character_reference(sig, u))

    letters = 1 if word is None else word.alphabet
    values = haar_sweep(sample, n, letters, samples, seed)
    chis = values[:, 0]
    # accumulate adds in sample order; np.sum's pairwise order moves digits
    ref_error = np.add.accumulate(values[:, 1].real)[-1]
    return (MCReport.from_samples(chis, n),
            float(np.mean(np.abs(chis))), float(ref_error / samples))


# --------------------------------------------------------------------------
# permuted tensor traces
# --------------------------------------------------------------------------

def permuted_tensor_trace(mats, sigma) -> complex:
    """tr^{x d}((M_1 x ... x M_d) rho(sigma)), evaluated by direct index
    contraction: sum over i of prod_k M_k(i_k, i_{sigma^{-1}(k)}), divided
    by N^d. This is the oracle side of the cycle factorization.
    """
    sigma = check_permutation(sigma)
    d = len(sigma)
    if len(mats) != d:
        raise InvalidArgumentError("need one matrix per leg")
    n = mats[0].shape[0]
    inv = inverse_permutation(sigma)
    args = []
    for k in range(d):
        args.append(np.asarray(mats[k], dtype=np.complex128))
        args.append([k, inv[k]])
    val = np.einsum(*args, [])
    return complex(val / n ** d)


def _cycle_product(a: np.ndarray, sigma) -> complex:
    """N^{-d} prod over the cycles c of sigma of Tr(A^{|c|})."""
    out = 1.0 + 0.0j
    for cyc in cycles_of(sigma):
        out *= np.trace(np.linalg.matrix_power(a, len(cyc)))
    return out / a.shape[0] ** len(sigma)


def cycle_factorization_check(a: np.ndarray, sigma) -> float:
    """Residual of the exact identity
    tr^{x d}(A^{x d} rho(sigma)) = N^{-d} prod_cycles Tr(A^{|c|}).
    """
    sigma = check_permutation(sigma)
    lhs = permuted_tensor_trace([a] * len(sigma), sigma)
    return float(abs(lhs - _cycle_product(a, sigma)))


# --------------------------------------------------------------------------
# mixed free-group / symmetric-group words
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationWord:
    """A word in the product of the rank-2K free group (letters K+1..2K act
    as the transposes of letters 1..K) with the leg-permutation group.
    """

    free_part: StarWord
    perm: tuple[int, ...]

    def __post_init__(self):
        check_permutation(self.perm)

    @property
    def trivial(self) -> bool:
        return is_trivial(self.free_part) and \
            self.perm == tuple(range(len(self.perm)))


def left_regular_check(word: PermutationWord, k: int, n: int, samples: int,
                       seed: int = 0) -> MCReport:
    """Monte-Carlo mean of the normalized tensor trace of the represented
    word; each sample is verified against the exact cycle factorization
    N^{-d} prod_c Tr(word^{|c|}) before entering the average.
    """
    if word.trivial:
        raise InvalidArgumentError("the word is trivial")
    if k < 1:
        raise InvalidArgumentError(f"need K >= 1 (got {k})")
    top = max((idx for idx, _ in word.free_part.letters), default=0)
    if top > 2 * k:
        raise InvalidArgumentError(
            f"letter {top} is outside 1..2K = 1..{2 * k}")
    d = len(word.perm)

    def sample(us, rng):
        x = word_matrix(word.free_part, us + [u.T for u in us])
        lhs = permuted_tensor_trace([x] * d, word.perm)
        rhs = _cycle_product(x, word.perm)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            raise IllConditionedError(
                f"cycle factorization violated: |delta| = {abs(lhs - rhs):.2e}")
        return lhs

    return MCReport.from_samples(haar_sweep(sample, n, k, samples, seed), n)


# --------------------------------------------------------------------------
# conditional expectation onto the span of leg permutations
# --------------------------------------------------------------------------

def amalgam_sweep(word: StarWord, d: int, n: int, samples: int,
                  seed: int = 0) -> MCReport:
    """Mean norm of E_{S_d}[prod over the word of (U^{x d} - E_{S_d}[U^{x d}])],
    the conditional expectation of the centered tensor-power word onto the
    span of leg permutations, over Haar letters U_1..U_K.

    By Schur-Weyl duality E_{S_d}[W^{x d}] = sum_{lam |- d} chi_lam(W) P_lam,
    chi_lam the normalized U(N) character and P_lam the central idempotents
    of C[S_d]. So the centered product projects to sum_lam z_lam P_lam, with
    z_lam the sum over the letter subsets S of chi_lam(prod_{i in S} U_i)
    prod_{j not in S} (-chi_lam(U_j)), and by character orthogonality the
    coefficients on the rho(sigma) have the norm
    sqrt(sum_lam (f^lam)^2 |z_lam|^2 / d!), f^lam = chi^lam(1) on S_d.
    """
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1 (got d = {d})")
    if n <= d:
        raise InvalidArgumentError(f"need N > d (got N = {n}, d = {d})")
    if d > 4:
        raise ResourceLimitError("conditional expectation capped at d = 4")
    if 2 ** len(word) > SUBSET_CAP:
        raise ResourceLimitError(
            f"amalgam words are capped at {SUBSET_CAP.bit_length() - 1} "
            f"letters (got {len(word)})")
    if is_trivial(word):
        raise InvalidArgumentError("the probe word is trivial")
    sigs = [Signature(lam) for lam in _partitions(d)]
    weights = np.array([_character(frozenset(  # beta-numbers of lam
        part + len(s.lam) - 1 - i for i, part in enumerate(s.lam)), (1,) * d)
        for s in sigs]) ** 2 / math.factorial(d)

    def sample(us, rng):
        mats = [us[idx - 1].conj().T if star else us[idx - 1]
                for idx, star in word.letters]
        minus_chi = [-np.array(_normalized_characters(sigs, u)) for u in mats]

        def walk(k, prod, coeff):
            """The terms of z over the subsets that agree with the choices
            made for the letters before k: prod is the product of those
            taken (None: none yet), coeff that of -chi of those skipped."""
            if k == len(mats):
                return coeff if prod is None else \
                    coeff * _normalized_characters(sigs, prod)
            return (walk(k + 1, mats[k] if prod is None else prod @ mats[k],
                         coeff)
                    + walk(k + 1, prod, coeff * minus_chi[k]))

        z = walk(0, None, np.ones(len(sigs)))
        return float(np.sqrt(weights @ np.abs(z) ** 2))

    values = haar_sweep(sample, n, word.alphabet, samples, seed)
    return MCReport.from_samples(values, n)

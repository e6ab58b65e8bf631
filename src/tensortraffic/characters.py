"""Rational irreducible characters of the unitary group, leg permutations of
tensor powers, the cycle factorization of permuted tensor traces, and the
conditional expectation onto the span of leg permutations.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (IllConditionedError, InvalidArgumentError,
                     ResourceLimitError)
from .operands import (TensorOperand, check_dense_size, check_permutation,
                       compose, cycles_of, inverse_permutation)
from .sampling import MCReport, haar_sweep, word_matrix
from .words import StarWord, is_trivial


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
    n, size, q = u.shape[0], sig.length, len(sig.mu)
    if size > n:
        raise InvalidArgumentError(f"signature too long for N = {n}")
    c = u[0, 0]
    # a Haar U already fails at u[1, 0]; a NaN there falls through to the scan
    if not (n > 1 and abs(u[1, 0]) >= 1e-12) \
            and np.max(np.abs(u - c * np.eye(n))) < 1e-12:
        return complex(c) ** (sum(sig.lam) - sum(sig.mu))
    # every index read is above -size, and h_k = 0 for k < 0
    h = np.concatenate([np.zeros(size), _complete_symmetric(u, max(
        (s[0] + len(s) - 1 for s in (sig.lam, sig.mu) if s), default=0))])
    j = np.arange(size)
    rows = [np.conj(h[size + m + i - j])
            for i, m in enumerate(reversed(sig.mu))]
    rows += [h[size + part - q - i + j] for i, part in enumerate(sig.lam)]
    det = np.linalg.det(np.array(rows).reshape(size, size))
    if not np.isfinite(det):
        raise IllConditionedError("character determinant overflowed")
    return complex(det / float(sig.dimension(n)))


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
# leg permutations of tensor powers
# --------------------------------------------------------------------------

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


def _check_sd_cap(d: int):
    if d > 4:
        raise ResourceLimitError("conditional expectation capped at d = 4")


def conditional_expectation_sd(a, d: int, n: int) -> PermutationSpanOperator:
    """Orthogonal projection of a d-leg operand onto span{rho(sigma)} with
    respect to the normalized trace inner product.

    The Gram matrix G(sigma, tau) = N^{#cycles(sigma^{-1} tau) - d} is
    invertible for N > d; d is capped at 4 (a 24 x 24 Gram).
    """
    _check_sd_cap(d)
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


def amalgam_sweep(word: StarWord, d: int, n: int, samples: int,
                  seed: int = 0) -> MCReport:
    """Mean norm of E_{S_d}[prod over the word of (U^{x d} - E_{S_d}[U^{x d}])],
    the conditional expectation of the centered tensor-power word onto the
    span of leg permutations, over Haar letters U_1..U_K.
    """
    if d < 1:
        raise InvalidArgumentError(f"need d >= 1 (got d = {d})")
    if n <= d:
        raise InvalidArgumentError(f"need N > d (got N = {n}, d = {d})")
    _check_sd_cap(d)  # the guards of every projection, before any sample
    check_dense_size(d, n)
    if is_trivial(word):
        raise InvalidArgumentError("the probe word is trivial")

    def sample(us, rng):
        prod = None
        for idx, star in word.letters:
            u = us[idx - 1].conj().T if star else us[idx - 1]
            x = np.eye(1, dtype=np.complex128)
            for _ in range(d):
                x = np.kron(x, u)
            ex = conditional_expectation_sd(TensorOperand.factored([u] * d), d, n)
            centered = x - ex.to_dense()
            prod = centered if prod is None else prod @ centered
        projected = conditional_expectation_sd(prod, d, n)
        return float(np.linalg.norm(np.array(list(projected.coefficients.values()))))

    values = haar_sweep(sample, n, word.alphabet, samples, seed)
    return MCReport.from_samples(values, n)

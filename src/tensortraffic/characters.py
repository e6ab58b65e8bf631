"""Rational irreducible characters of the unitary group, leg permutations of
tensor powers, the cycle factorization of permuted tensor traces, and the
conditional expectation onto the span of leg permutations.
"""
from __future__ import annotations

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

    def composite_weights(self, n: int) -> list[int]:
        """Strictly decreasing exponents l_j = (padded signature)_j + n - j."""
        if self.length > n:
            raise InvalidArgumentError(
                f"signature length {self.length} exceeds N = {n}")
        padded = list(self.lam) + [0] * (n - self.length) \
            + [-m for m in reversed(self.mu)]
        return [padded[j] + n - (j + 1) for j in range(n)]

    def dimension(self, n: int) -> Fraction:
        """Exact dimension: prod_{i<j} (l_i - l_j) / (j - i). Equal padded
        parts give l_i - l_j = j - i, a factor 1, which is skipped."""
        l = self.composite_weights(n)
        num = den = 1
        for i in range(n):
            for j in range(i + 1, n):
                if l[i] - l[j] != j - i:
                    num *= l[i] - l[j]
                    den *= j - i
        return Fraction(num, den)


def _scalar_multiple_of_identity(u: np.ndarray) -> complex | None:
    n = u.shape[0]
    c = u[0, 0]
    if np.max(np.abs(u - c * np.eye(n))) < 1e-12:
        return complex(c)
    return None


def normalized_character(sig: Signature, u: np.ndarray) -> complex:
    """Character of the rational irreducible representation, normalized so the
    identity evaluates to exactly 1.

    Computed as the Weyl quotient of generalized Vandermonde determinants in
    the eigenvalues (log-scaled determinants to dodge overflow), divided by
    the exact integer dimension. Scalar matrices are handled in closed form;
    eigenvalue collisions get one deterministic jitter retry.
    """
    n = u.shape[0]
    if sig.length > n:
        raise InvalidArgumentError(f"signature too long for N = {n}")
    scalar = _scalar_multiple_of_identity(u)
    if scalar is not None:
        return scalar ** (sum(sig.lam) - sum(sig.mu))
    z = np.linalg.eigvals(u)
    if _min_gap(z) < 1e-8:
        z = z * np.exp(1j * 1e-10 * np.arange(1, n + 1))
        if _min_gap(z) < 1e-13:
            raise IllConditionedError(
                "eigenvalues remain degenerate after jitter")
    weights = sig.composite_weights(n)
    num = np.power.outer(z, np.array(weights, dtype=float))
    den = np.power.outer(z, np.arange(n - 1, -1, -1, dtype=float))
    s_num, ld_num = np.linalg.slogdet(num)
    s_den, ld_den = np.linalg.slogdet(den)
    if s_den == 0:
        raise IllConditionedError("Vandermonde determinant underflow")
    ratio = (s_num / s_den) * np.exp(ld_num - ld_den)
    return complex(ratio / float(sig.dimension(n)))


def _min_gap(z: np.ndarray) -> float:
    return float(min(np.min(np.abs(np.subtract.outer(z, z))
                            + 2.0 * np.eye(len(z))), 2.0))


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
    ref_error = 0.0
    for err in values[:, 1].real:  # np.sum's pairwise order moves last digits
        ref_error += err
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

"""Haar sampling, word tensors, state evaluation and the Monte-Carlo harness.

Randomness is organized as counter-based streams: (seed, stream index) is a
pure function of the sample, so results are reproducible bit-for-bit no
matter how samples are scheduled across workers.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .operands import TensorOperand, permutation_matrix
from .traces import apply_state  # re-exported: states live next to traces
from .words import StarWord, is_trivial

THREAD_CAP = 64  # worker threads of one sweep; results do not depend on it

__all__ = [
    "RngStream", "MCReport", "sample_haar_unitary", "haar_sweep",
    "build_w_family", "word_matrix", "evaluate_word", "apply_state",
    "mc_run", "symmetrize", "norm_absorption_demo", "NormDemoReport",
]


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, index) -> generator, pure."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            key=np.array([self.seed % 2 ** 64, self.index % 2 ** 64],
                         dtype=np.uint64)))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.index + offset)


@dataclass(frozen=True)
class MCReport:
    estimate: complex
    stderr: float
    samples: int
    n: int

    @classmethod
    def from_samples(cls, values: np.ndarray, n: int) -> "MCReport":
        """Sample mean with its standard error; complex samples add the
        variances of their real and imaginary parts."""
        samples = len(values)
        if np.iscomplexobj(values):
            stderr = math.sqrt(values.real.var(ddof=1) / samples
                               + values.imag.var(ddof=1) / samples)
        else:
            stderr = float(values.std(ddof=1) / math.sqrt(samples))
        return cls(complex(values.mean()), stderr, samples, n)

    def within(self, target: complex, k: float = 3.0) -> bool:
        return abs(self.estimate - target) <= k * self.stderr + 1e-12


def sample_haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre, QR, then the R-diagonal
    phases are absorbed so the factorization is unique (plain QR is not Haar).
    """
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    if isinstance(rng, RngStream):
        rng = rng.generator()
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def build_w_family(u_family, v_family, k1: int, k2: int, k3: int):
    """Tensor words U^{x K1} x U^t{x K2} x V, stored factored per letter."""
    if k1 < 1 or k2 < 0 or k3 < 0:
        raise InvalidArgumentError("need K1 >= 1 and K2, K3 >= 0")
    if k3 == 0:
        v_family = [None] * len(u_family)
    if len(u_family) != len(v_family):
        raise InvalidArgumentError("U and V families must have equal size")
    out = []
    for u, v in zip(u_family, v_family):
        legs = [u] * k1 + [u.T] * k2
        if k3:
            if len(v) != k3:
                raise InvalidArgumentError(
                    f"V entry has {len(v)} legs, expected {k3}")
            legs.extend(v)
        out.append(TensorOperand.factored(legs))
    return out


def word_matrix(word: StarWord, mats) -> np.ndarray:
    """Product of the word's letters: letter l is mats[l - 1], a starred
    letter is its adjoint, and the empty word is the identity."""
    out = None
    for idx, star in word.letters:
        if idx > len(mats):
            raise InvalidArgumentError("word uses letters outside the family")
        m = mats[idx - 1].conj().T if star else mats[idx - 1]
        out = m if out is None else out @ m
    return np.eye(len(mats[0]), dtype=np.complex128) if out is None else out


def evaluate_word(family, word: StarWord) -> TensorOperand:
    """Word of factored unitary tensors, multiplied leg by leg."""
    if not family:
        raise InvalidArgumentError("empty family")
    legs = []
    for entry in family:
        if len(entry.terms) != 1:
            raise InvalidArgumentError("family entries must be plain factored")
        legs.append(entry.terms[0][1])
    return TensorOperand.factored([word_matrix(word, mats)
                                   for mats in zip(*legs)])


# --------------------------------------------------------------------------
# Monte-Carlo harness
# --------------------------------------------------------------------------

def haar_sweep(fn, n: int, letters: int, samples: int, seed: int,
               threads: int = 1) -> np.ndarray:
    """Sample s of a sweep is fn(us, rng): rng is the generator of the
    counter-based stream RngStream(seed, s), and us are the first `letters`
    Haar unitaries drawn from it; fn may draw more from rng. Returns
    np.array of the samples in order, independent of `threads`.
    """
    if samples < 2:
        raise InvalidArgumentError("need samples >= 2")
    if threads < 1:
        raise InvalidArgumentError(f"need threads >= 1 (got {threads})")
    if threads > THREAD_CAP:
        raise ResourceLimitError(
            f"threads are capped at {THREAD_CAP} (requested {threads})")

    def one(s):
        rng = RngStream(seed, s).generator()
        return fn([sample_haar_unitary(n, rng) for _ in range(letters)], rng)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(one, range(samples))))
    return np.array([one(s) for s in range(samples)])


def _sample_value(state, word, blocks, v_mode, us, rng):
    k1, k2, k3 = blocks
    n = us[0].shape[0]
    vs = None
    if k3:
        vs = []
        for ell in range(len(us)):
            if v_mode == "haar":
                vs.append([sample_haar_unitary(n, rng) for _ in range(k3)])
            else:  # deterministic tensor products of permutation matrices
                vs.append([permutation_matrix((np.arange(n) + ell + 1 + leg) % n)
                           for leg in range(k3)])
    family = build_w_family(us, vs, k1, k2, k3)
    return apply_state(state, evaluate_word(family, word))


def mc_run(state, word: StarWord, blocks, n: int, samples: int,
           seed: int = 0, v_mode: str = "perm", threads: int = 1):
    """One sampling sweep of state(word(W)) reported both ways:
    (expectation, variance). The variance report carries the spread of the
    variance estimator itself as its standard error.
    """
    if is_trivial(word):
        ident = apply_state(state, TensorOperand.identity(n, sum(blocks)))
        values = haar_sweep(lambda us, rng: ident, n, 0, samples, seed, threads)
    else:
        values = haar_sweep(
            lambda us, rng: _sample_value(state, word, blocks, v_mode, us, rng),
            n, word.alphabet, samples, seed, threads)
    sq = np.abs(values - values.mean()) ** 2
    spread = MCReport.from_samples(sq, n).stderr
    return (MCReport.from_samples(values, n),
            MCReport(float(sq.sum() / (samples - 1)), spread, samples, n))


# --------------------------------------------------------------------------
# symmetrization (exact or sampled group averaging)
# --------------------------------------------------------------------------

def symmetrize(target, n: int, group: str = "sn_exact", samples: int = 200,
               seed: int = 0):
    """Average a state callable or a factored operand over a group action.

    group: "sn_exact" (all N! permutations, N <= 5), "sn_sampled", or
    "un_sampled" (Haar conjugations). States come back as callables; operands
    come back as weighted sums of conjugated factored terms.
    """
    if group == "sn_exact":
        if n > 5:
            raise ResourceLimitError("exact symmetric-group averaging capped at N = 5")
        mats = [permutation_matrix(perm)
                for perm in itertools.permutations(range(n))]
        weights = [1.0 / math.factorial(n)] * len(mats)
    else:
        rng = RngStream(seed).generator()
        if group == "sn_sampled":
            mats = [permutation_matrix(rng.permutation(n))
                    for _ in range(samples)]
        elif group == "un_sampled":
            mats = [sample_haar_unitary(n, rng) for _ in range(samples)]
        else:
            raise InvalidArgumentError(f"unknown group {group!r}")
        weights = [1.0 / samples] * len(mats)

    if isinstance(target, TensorOperand):
        terms = []
        for weight, u in zip(weights, mats):
            conj = target.conjugated_by(u)
            terms.extend((weight * w, fs) for w, fs in conj.terms)
        return TensorOperand(target.n, target.legs, terms)

    def averaged(operand: TensorOperand) -> complex:
        total = 0j
        for weight, u in zip(weights, mats):
            total += weight * apply_state(target, operand.conjugated_by(u))
        return complex(total)

    return averaged


# --------------------------------------------------------------------------
# operator-norm absorption demo
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormDemoReport:
    mode: str
    letters: int
    n: int
    value: float
    reference: float
    seed: int

    def to_json(self) -> dict:
        return {"mode": self.mode, "L": self.letters, "N": self.n,
                "norm": self.value, "reference": self.reference,
                "seed": self.seed}


def norm_absorption_demo(letters: int, n: int, mode: str,
                         seed: int = 0) -> NormDemoReport:
    """Largest singular value of sum_l U_l x V_l.

    mode "haar_pair": independent Haar V's; the norm sits near 2 sqrt(L-1).
    mode "conjugate_pair": V_l = conj(U_l); the flip-invariant vector forces
    norm >= L, the strong-freeness counterexample.
    """
    if mode not in ("haar_pair", "conjugate_pair"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if mode == "conjugate_pair" and letters < 3:
        raise InvalidArgumentError("the counterexample needs L >= 3")
    if letters < 1 or n < 1:
        raise InvalidArgumentError("need L >= 1 and N >= 1")
    if n * n > 4096:
        raise ResourceLimitError("norm demo capped at N^2 <= 4096")
    rng = RngStream(seed).generator()
    total = np.zeros((n * n, n * n), dtype=np.complex128)
    for _ in range(letters):
        u = sample_haar_unitary(n, rng)
        v = np.conj(u) if mode == "conjugate_pair" else sample_haar_unitary(n, rng)
        total += np.kron(u, v)
    value = float(np.linalg.norm(total, 2))
    reference = float(letters) if mode == "conjugate_pair" \
        else 2.0 * math.sqrt(letters - 1)
    return NormDemoReport(mode, letters, n, value, reference, seed)

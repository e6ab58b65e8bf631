"""Haar sampling, word tensors, state evaluation and the Monte-Carlo harness.

Randomness is organized as counter-based streams: (seed, stream index) is a
pure function of the sample, so results are reproducible bit-for-bit no
matter how samples are scheduled across workers.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .operands import TensorOperand, permutation_matrix
from .parallel import BLAS_PIN, THREAD_CAP, run_chunks, sweep_threads
from .traces import apply_state  # re-exported: states live next to traces
from .words import StarWord, is_trivial


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
    The QR runs with OpenBLAS held to one thread, so a draw's bytes do not
    depend on the BLAS thread count, inside a sweep or not.
    """
    if n < 1:
        raise InvalidArgumentError("need N >= 1")
    if isinstance(rng, RngStream):
        rng = rng.generator()
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / math.sqrt(2.0)
    with BLAS_PIN.held():
        q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


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


def evaluate_word(word: StarWord, us, vs, k1: int, k2: int) -> TensorOperand:
    """The word tensor of one sample, U^{x K1} x U^t{x K2} x V multiplied
    leg by leg: letter l reads us[l - 1] on the first K1 legs, its transpose
    on the next K2, and vs[l - 1][j] on V leg j (vs is None when K3 = 0).
    The legs of one block read the same matrices, so each block's product
    is taken once.
    """
    factors = [word_matrix(word, us)] * k1
    if k2:
        factors += [word_matrix(word, [u.T for u in us])] * k2
    if vs is not None:
        factors += [word_matrix(word, mats) for mats in zip(*vs)]
    return TensorOperand.factored(factors)


# --------------------------------------------------------------------------
# Monte-Carlo harness
# --------------------------------------------------------------------------

def haar_sweep(fn, n: int, letters: int, samples: int, seed: int,
               threads: int = 1) -> np.ndarray:
    """Sample s of a sweep is fn(us, rng): rng is the generator of the
    counter-based stream RngStream(seed, s), and us are the first `letters`
    Haar unitaries drawn from it; fn may draw more from rng. Returns
    np.array of the samples in order, independent of `threads`.

    OpenBLAS runs on one thread: the QR of a draw is then the same in every
    environment, faster at N = 128, and leaves the cores to `threads`
    contiguous chunks of samples, the first run by the calling thread
    (`parallel.run_chunks`).
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

    def run(start, stop):
        return [one(s) for s in range(start, stop)]

    parts = run_chunks(run, samples, min(threads, samples))
    return np.array([v for part in parts for v in part])


def _sample_value(state, word, blocks, v_mode, us, rng):
    k1, k2, k3 = blocks
    n = us[0].shape[0]
    vs = None
    if k3 and v_mode == "haar":
        vs = [[sample_haar_unitary(n, rng) for _ in range(k3)] for _ in us]
    elif k3:  # deterministic tensor products of permutation matrices
        vs = [[permutation_matrix((np.arange(n) + ell + 1 + leg) % n)
               .astype(np.complex128) for leg in range(k3)]
              for ell in range(len(us))]
    return apply_state(state, evaluate_word(word, us, vs, k1, k2))


def mc_run(state, word: StarWord, blocks, n: int, samples: int,
           seed: int = 0, v_mode: str = "perm", threads: int | None = None):
    """One sampling sweep of state(word(W)) reported both ways:
    (expectation, variance). The variance report carries the spread of the
    variance estimator itself as its standard error. threads=None means
    `parallel.sweep_threads(n)`.
    """
    k1, k2, k3 = blocks
    if threads is None:
        threads = sweep_threads(n)
    if k1 < 1 or k2 < 0 or k3 < 0:
        raise InvalidArgumentError("need K1 >= 1 and K2, K3 >= 0")
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
# symmetrization (exact group averaging)
# --------------------------------------------------------------------------

def symmetrize(operand: TensorOperand, n: int) -> TensorOperand:
    """The average of an operand over all N! permutation conjugations
    (N <= 5), as a weighted sum of conjugated factored terms."""
    if n > 5:
        raise ResourceLimitError("exact symmetric-group averaging capped at N = 5")
    weight = 1.0 / math.factorial(n)
    terms = []
    for perm in itertools.permutations(range(n)):
        conj = operand.conjugated_by(permutation_matrix(perm))
        terms.extend((weight * w, fs) for w, fs in conj.terms)
    return TensorOperand(operand.n, operand.legs, terms)


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

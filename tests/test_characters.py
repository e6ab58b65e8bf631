import itertools
import math

import numpy as np
import pytest

from tensortraffic import sampling
from tensortraffic.characters import (PermutationWord, Signature,
                                      amalgam_sweep, character_reference,
                                      character_sweep,
                                      conditional_expectation_sd,
                                      cycle_factorization_check, cycles_of,
                                      leg_permutation, left_regular_check,
                                      normalized_character,
                                      permuted_tensor_trace)
from tensortraffic.errors import (IllConditionedError, InvalidArgumentError,
                                  ResourceLimitError)
from tensortraffic.operands import TensorOperand, check_dense_size
from tensortraffic.sampling import RngStream, sample_haar_unitary
from tensortraffic.words import StarWord

from oracles import weyl_dimension


def haar(n, seed=0, index=0):
    return sample_haar_unitary(n, RngStream(seed, index))


# --- characters ----------------------------------------------------------

def test_trivial_signature_is_one():
    for n in (3, 8):
        u = haar(n, 1)
        assert np.isclose(normalized_character(Signature(), u), 1.0)


def test_character_identity_is_exactly_one():
    sig = Signature((2, 1), (1,))
    assert normalized_character(sig, np.eye(8)) == 1.0 + 0.0j


def test_character_scalar_matrix():
    n = 6
    c = np.exp(0.7j)
    val = normalized_character(Signature((2,), (1,)), c * np.eye(n))
    assert np.isclose(val, c ** (2 - 1))


def test_fundamental_is_normalized_trace():
    u = haar(7, 2)
    assert np.isclose(normalized_character(Signature((1,)), u),
                      np.trace(u) / 7)
    assert np.isclose(normalized_character(Signature((), (1,)), u),
                      np.conj(np.trace(u)) / 7)


def test_small_schur_closed_forms():
    n = 6
    u = haar(n, 3)
    t1, t2 = np.trace(u), np.trace(u @ u)
    assert np.isclose(normalized_character(Signature((2,)), u),
                      ((t1 ** 2 + t2) / 2) / (n * (n + 1) / 2))
    assert np.isclose(normalized_character(Signature((1, 1)), u),
                      ((t1 ** 2 - t2) / 2) / (n * (n - 1) / 2))
    assert np.isclose(normalized_character(Signature((1,), (1,)), u),
                      (abs(t1) ** 2 - 1) / (n ** 2 - 1))


def test_character_conjugation_invariance():
    n = 10
    u, v = haar(n, 4), haar(n, 5)
    sig = Signature((2,), (1,))
    assert np.isclose(normalized_character(sig, u),
                      normalized_character(sig, v @ u @ v.conj().T), atol=1e-9)


def test_character_dimension_exact():
    assert Signature((1,)).dimension(5) == 5
    assert Signature((2,)).dimension(5) == 15
    assert Signature((1, 1)).dimension(5) == 10
    assert Signature((1,), (1,)).dimension(5) == 24


def _partitions_up_to(total):
    """Every partition of 0..total as a weakly decreasing tuple."""
    return [tuple(sorted(parts, reverse=True))
            for size in range(total + 1)
            for parts in itertools.combinations_with_replacement(
                range(1, total + 1), size)
            if sum(parts) <= total]


def test_character_dimension_matches_weyl_product():
    signatures = [Signature(lam, mu) for lam in _partitions_up_to(6)
                  for mu in _partitions_up_to(6 - sum(lam))]
    assert len(signatures) == 139
    for sig in signatures:
        for n in range(max(sig.length, 1), 41):
            assert sig.dimension(n) == weyl_dimension(sig, n), (sig, n)


def test_signature_validation():
    with pytest.raises(InvalidArgumentError):
        Signature((1, 2))
    with pytest.raises(InvalidArgumentError):
        Signature((0,))
    with pytest.raises(InvalidArgumentError):
        normalized_character(Signature((1,) * 9), haar(8, 6))


def test_character_error_halves_with_n():
    sig = Signature((1,), (1,))
    errs = {}
    for n in (32, 64):
        base = RngStream(31)
        total = 0.0
        for s in range(60):
            u = sample_haar_unitary(n, base.child(s))
            total += abs(normalized_character(sig, u)
                         - character_reference(sig, u))
        errs[n] = total / 60
    assert errs[64] <= 0.6 * errs[32]


def _reference_letters(n, k, seed, s):
    """The K Haar letters of sample s, drawn one by one from its stream."""
    gen = RngStream(seed, s).generator()
    return [sample_haar_unitary(n, gen) for _ in range(k)]


def test_character_sweep_matches_reference_loop():
    sig = Signature((1,), (1,))
    n, samples, seed = 8, 400, 12
    chi, mean_abs, ref_error = character_sweep(sig, n, samples, seed)
    vals = np.empty(samples, dtype=np.complex128)
    err = 0.0
    for s in range(samples):
        u = sample_haar_unitary(n, RngStream(seed, s))
        vals[s] = normalized_character(sig, u)
        err += abs(vals[s] - character_reference(sig, u))
    assert chi.estimate == complex(vals.mean())
    assert chi.stderr == math.sqrt(
        vals.real.var(ddof=1) / samples + vals.imag.var(ddof=1) / samples)
    assert mean_abs == float(np.mean(np.abs(vals)))
    assert ref_error == err / samples
    # Schur orthogonality: the (1),(1) character of a Haar U has mean 0
    assert chi.within(0.0, k=4.0)


def test_character_sweep_of_a_word_matches_reference_loop():
    sig = Signature((2,), ())
    word = StarWord.parse("1,2*,1")
    n, samples, seed = 6, 30, 4
    chi, mean_abs, _ = character_sweep(sig, n, samples, seed, word=word)
    vals = []
    for s in range(samples):
        u1, u2 = _reference_letters(n, 2, seed, s)
        vals.append(normalized_character(sig, np.eye(n) @ u1 @ u2.conj().T @ u1))
    vals = np.array(vals)
    assert chi.estimate == complex(vals.mean())
    assert mean_abs == float(np.mean(np.abs(vals)))


def test_amalgam_sweep_matches_reference_loop():
    word, d, n, samples, seed = StarWord.parse("1,2"), 2, 4, 5, 3
    rep = amalgam_sweep(word, d, n, samples, seed)
    norms = np.empty(samples)
    for s in range(samples):
        prod = None
        for u in _reference_letters(n, 2, seed, s):
            ex = conditional_expectation_sd(TensorOperand.factored([u, u]), d, n)
            centered = np.kron(u, u) - ex.to_dense()
            prod = centered if prod is None else prod @ centered
        proj = conditional_expectation_sd(prod, d, n)
        norms[s] = np.linalg.norm(np.array(list(proj.coefficients.values())))
    assert rep.estimate == norms.mean()
    assert rep.stderr == norms.std(ddof=1) / math.sqrt(samples)


def test_sweeps_reject_fewer_than_two_samples():
    with pytest.raises(InvalidArgumentError):
        character_sweep(Signature((1,), ()), 4, 1)
    with pytest.raises(InvalidArgumentError):
        amalgam_sweep(StarWord.parse("1"), 2, 4, 0)


# --- leg permutations -----------------------------------------------------

def test_leg_permutation_identity_and_swap():
    assert np.allclose(leg_permutation((0, 1), 3), np.eye(9))
    swap = leg_permutation((1, 0), 2)
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(swap, want)


def test_leg_permutation_homomorphism():
    n, d = 3, 3
    rng = np.random.default_rng(0)
    perms = list(itertools.permutations(range(d)))
    for _ in range(10):
        s = perms[rng.integers(len(perms))]
        t = perms[rng.integers(len(perms))]
        comp = tuple(s[t[k]] for k in range(d))
        assert np.allclose(leg_permutation(s, n) @ leg_permutation(t, n),
                           leg_permutation(comp, n))


def test_leg_permutation_guard():
    with pytest.raises(ResourceLimitError):
        leg_permutation(tuple(range(9)), 8)


def test_dense_operand_guard_is_the_leg_permutation_guard():
    # an 8^9 x 8^9 complex matrix is 2^58 bytes: a resource limit (exit 3),
    # as for leg_permutation
    with pytest.raises(ResourceLimitError):
        TensorOperand.identity(8, 9).to_dense()


def test_dense_guard_bounds_the_bytes_of_one_matrix():
    # 256 MiB is one complex 4096 x 4096 matrix, or 64^2 x 64^2
    for legs, n in ((1, 4096), (2, 64), (3, 16), (4, 8)):
        check_dense_size(legs, n)
    for legs, n in ((1, 4097), (2, 65), (2, 256), (3, 17), (4, 9)):
        with pytest.raises(ResourceLimitError):
            check_dense_size(legs, n)


def test_permuted_trace_matches_dense():
    n = 3
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(3)]
    sigma = (1, 2, 0)
    dense = np.kron(np.kron(mats[0], mats[1]), mats[2]) @ leg_permutation(sigma, n)
    assert np.isclose(permuted_tensor_trace(mats, sigma),
                      np.trace(dense) / n ** 3)


# --- cycle factorization -----------------------------------------------------

def test_cycle_factorization_exact_all_sigma():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3, 4):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for sigma in itertools.permutations(range(d)):
            assert cycle_factorization_check(a, sigma) <= 1e-10


def test_cycle_factorization_identity_permutation():
    n, d = 4, 3
    a = haar(n, 7)
    lhs = permuted_tensor_trace([a] * d, tuple(range(d)))
    assert np.isclose(lhs, (np.trace(a) / n) ** d)


def test_cycle_factorization_on_identity_matrix():
    n = 5
    for d in (2, 3):
        for sigma in itertools.permutations(range(d)):
            got = permuted_tensor_trace([np.eye(n)] * d, sigma)
            want = float(n) ** (len(cycles_of(sigma)) - d)
            assert np.isclose(got, want)


# --- mixed words -------------------------------------------------------------

def test_left_regular_pure_transposition_is_exact():
    word = PermutationWord(StarWord((), 2), (1, 0))
    n = 9
    rep = left_regular_check(word, k=1, n=n, samples=5, seed=0)
    assert np.isclose(rep.estimate, 1.0 / n)
    assert rep.stderr <= 1e-14


def test_left_regular_single_letter_vanishes():
    word = PermutationWord(StarWord.parse("1"), (0, 1))
    rep = left_regular_check(word, k=1, n=24, samples=600, seed=1)
    assert rep.within(0.0)


def test_left_regular_rejects_trivial():
    with pytest.raises(InvalidArgumentError):
        left_regular_check(PermutationWord(StarWord((), 1), (0, 1)),
                           k=1, n=8, samples=4)


def test_left_regular_decay_mixed_word():
    # U_i -> e^{it} U_i leaves Haar measure fixed and turns the moment of
    # "1,2" by e^{it}, so its exact mean is 0 at every N: the estimates must
    # sit at 0 within their noise, and the noise must fall with N
    word = PermutationWord(StarWord.parse("1,2"), (1, 0))
    reps = [left_regular_check(word, k=2, n=n, samples=300, seed=2)
            for n in (8, 16, 32)]
    for rep in reps:
        assert abs(rep.estimate) <= 4 * rep.stderr
    assert reps[2].stderr < reps[0].stderr


def test_transpose_letters_supported():
    # letters K+1..2K act as transposes: x1 x3 with K=2 means U1 U1^t
    word = PermutationWord(StarWord.parse("1,3", alphabet=4), (0, 1))
    rep = left_regular_check(word, k=2, n=16, samples=200, seed=3)
    assert np.isfinite(rep.estimate.real)


def test_left_regular_letters_beyond_k_are_transposes():
    # with K = 2, letter 3* is conj(U1); letter 5 is outside the 2K alphabet
    n, samples, seed = 5, 4, 7
    word = PermutationWord(StarWord.parse("1,3*,2", alphabet=4), (1, 0))
    rep = left_regular_check(word, k=2, n=n, samples=samples, seed=seed)
    vals = []
    for s in range(samples):
        u1, u2 = _reference_letters(n, 2, seed, s)
        vals.append(permuted_tensor_trace([u1 @ u1.conj() @ u2] * 2, (1, 0)))
    assert rep.estimate == complex(np.mean(vals))
    with pytest.raises(InvalidArgumentError):
        left_regular_check(PermutationWord(StarWord.parse("1,5"), (1, 0)),
                           k=2, n=n, samples=samples)


def test_left_regular_checks_k_and_letters_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(sampling, "sample_haar_unitary", refuse)
    for word, k in ((PermutationWord(StarWord((), 1), (1, 0)), 0),
                    (PermutationWord(StarWord.parse("1,5"), (1, 0)), 2)):
        with pytest.raises(InvalidArgumentError):
            left_regular_check(word, k=k, n=4, samples=2)


# --- conditional expectation --------------------------------------------------

def test_condexp_fixes_every_leg_permutation():
    n, d = 6, 3
    for sigma in itertools.permutations(range(d)):
        rho = leg_permutation(sigma, n)
        proj = conditional_expectation_sd(rho, d, n)
        assert np.max(np.abs(proj.to_dense() - rho)) <= 1e-9


def test_condexp_idempotent_and_bimodule():
    n, d = 6, 2
    rng = RngStream(8).generator()
    a = TensorOperand.factored([sample_haar_unitary(n, rng) for _ in range(d)])
    ea = conditional_expectation_sd(a, d, n)
    eea = conditional_expectation_sd(ea.to_dense(), d, n)
    order = list(itertools.permutations(range(d)))
    assert max(abs(ea.coefficients[s] - eea.coefficients[s])
               for s in order) <= 1e-9
    rho_s = leg_permutation((1, 0), n)
    sandwich = conditional_expectation_sd(rho_s @ a.to_dense() @ rho_s, d, n)
    assert np.max(np.abs(sandwich.to_dense()
                         - rho_s @ ea.to_dense() @ rho_s)) <= 1e-9


def test_condexp_self_adjoint():
    n, d = 5, 2
    rng = RngStream(9).generator()
    a = TensorOperand.factored([sample_haar_unitary(n, rng) for _ in range(d)])
    b = TensorOperand.factored([sample_haar_unitary(n, rng) for _ in range(d)])
    ea = conditional_expectation_sd(a, d, n).to_dense()
    eb = conditional_expectation_sd(b, d, n).to_dense()
    ip1 = np.trace(ea.conj().T @ b.to_dense())
    ip2 = np.trace(a.to_dense().conj().T @ eb)
    assert abs(ip1 - ip2) <= 1e-9


def test_condexp_centered_products_decay():
    # alternating centered tensor squares become orthogonal to the span
    d = 2
    norms = []
    for n in (6, 12, 24):
        base = RngStream(10)
        acc = 0.0
        reps = 6
        for s in range(reps):
            rng = base.child(s).generator()
            u1 = sample_haar_unitary(n, rng)
            u2 = sample_haar_unitary(n, rng)
            prod = None
            for u in (u1, u2):
                x = np.kron(u, u)
                ex = conditional_expectation_sd(
                    TensorOperand.factored([u, u]), d, n)
                c = x - ex.to_dense()
                prod = c if prod is None else prod @ c
            proj = conditional_expectation_sd(prod, d, n)
            acc += float(np.linalg.norm(
                np.array(list(proj.coefficients.values()))))
        norms.append(acc / reps)
    assert norms[2] < norms[0]


def test_condexp_guards():
    with pytest.raises(ResourceLimitError):
        conditional_expectation_sd(np.eye(2 ** 5), 5, 2)
    with pytest.raises(IllConditionedError):
        conditional_expectation_sd(np.eye(2 ** 2), 2, 2)

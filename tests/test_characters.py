import itertools
import math

import numpy as np
import pytest

from tensortraffic import characters, sampling
from tensortraffic.characters import (PermutationWord, Signature,
                                      amalgam_sweep, character_reference,
                                      character_sweep,
                                      cycle_factorization_check, cycles_of,
                                      left_regular_check,
                                      normalized_character,
                                      permuted_tensor_trace)
from tensortraffic.errors import (IllConditionedError, InvalidArgumentError,
                                  ResourceLimitError)
from tensortraffic.operands import TensorOperand
from tensortraffic.sampling import RngStream, sample_haar_unitary
from tensortraffic.words import StarWord

from oracles import (amalgam_norm, check_dense_size,
                     conditional_expectation_sd, leg_permutation, to_dense,
                     weyl_character, weyl_dimension)


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


def test_scalar_test_reads_past_the_first_column(monkeypatch):
    """u[1, 0] decides only when it is off the scalar path: cI with one
    far off-diagonal entry takes Koike's determinant, and a scalar U still
    gives c^(|lam| - |mu|) exactly."""
    calls = []
    complete = characters._complete_symmetric
    monkeypatch.setattr(characters, "_complete_symmetric",
                        lambda *a: calls.append(a) or complete(*a))
    n, c, sig = 6, np.exp(0.7j), Signature((2, 1), (1,))
    assert normalized_character(sig, c * np.eye(n)) == complex(c) ** 2
    assert not calls
    u = c * np.eye(n)
    u[n - 1, 0] = 1e-3
    assert np.isclose(normalized_character(sig, u), c ** 2)
    assert len(calls) == 1


def test_fundamental_is_normalized_trace():
    u = haar(7, 2)
    assert np.isclose(normalized_character(Signature((1,)), u),
                      np.trace(u) / 7)
    assert np.isclose(normalized_character(Signature((), (1,)), u),
                      np.conj(np.trace(u)) / 7)


def _unitary_with_eigenvalues(z, seed):
    v = haar(len(z), seed)
    return v @ np.diag(z) @ v.conj().T


def _double_eigenvalue(n, seed):
    """Eigenvalues 1, 1, e^{i t_3}, ..., e^{i t_N} with seeded angles t_j."""
    t = RngStream(seed).generator().uniform(-np.pi, np.pi, n)
    t[:2] = 0.0
    return np.exp(1j * t)


def test_small_schur_closed_forms():
    """On a Haar U and on one with a double eigenvalue."""
    n = 6
    for u in (haar(n, 3),
              _unitary_with_eigenvalues(_double_eigenvalue(n, 43), 44)):
        t1, t2 = np.trace(u), np.trace(u @ u)
        for lam, mu, want in (
                ((2,), (), ((t1 ** 2 + t2) / 2) / (n * (n + 1) / 2)),
                ((1, 1), (), ((t1 ** 2 - t2) / 2) / (n * (n - 1) / 2)),
                ((1,), (1,), (abs(t1) ** 2 - 1) / (n ** 2 - 1))):
            assert np.isclose(normalized_character(Signature(lam, mu), u),
                              want, rtol=1e-12, atol=1e-15)


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


# every signature with |lam| + |mu| <= 6
SIGNATURES_UP_TO_6 = [Signature(lam, mu) for lam in _partitions_up_to(6)
                      for mu in _partitions_up_to(6 - sum(lam))]


def test_character_dimension_matches_weyl_product():
    assert len(SIGNATURES_UP_TO_6) == 139
    for sig in SIGNATURES_UP_TO_6:
        for n in range(max(sig.length, 1), 41):
            assert sig.dimension(n) == weyl_dimension(sig, n), (sig, n)


def _unnormalized_error(sig, n, got, want):
    """|got - want| on the unnormalized character dim * chi, relative to its
    size floored at 1 (E|dim * chi|^2 = 1 for a Haar U)."""
    dim = float(sig.dimension(n))
    return abs(got - want) * dim / max(1.0, abs(want) * dim)


def test_character_matches_weyl_quotient_on_haar_samples():
    """Every signature with |lam| + |mu| <= 6 at N = 6, 8, 16, 32, 64, three
    seeded Haar samples each: agreement to 1e-12 relative."""
    for n in (6, 8, 16, 32, 64):
        for s in range(3):
            u = haar(n, 41, n * 10 + s)
            z = np.linalg.eigvals(u)
            for sig in SIGNATURES_UP_TO_6:
                if sig.length <= n:
                    err = _unnormalized_error(
                        sig, n, normalized_character(sig, u),
                        weyl_character(sig, z))
                    assert err <= 1e-12, (sig, n, s, err)


@pytest.mark.parametrize("n", [6, 16])
def test_character_at_a_double_eigenvalue(n):
    """Where the Weyl quotient is 0/0, the oracle takes the double eigenvalue
    split to e^{+-i delta}: that moves a symmetric function by O(delta^2),
    so at delta = 1e-5 the two agree to 1e-8 relative."""
    z = _double_eigenvalue(n, 43)
    u = _unitary_with_eigenvalues(z, 44)
    split = z.copy()
    split[:2] = np.exp(1j * 1e-5), np.exp(-1j * 1e-5)
    for sig in SIGNATURES_UP_TO_6:
        if sig.length <= n:
            err = _unnormalized_error(sig, n, normalized_character(sig, u),
                                      weyl_character(sig, split))
            assert err <= 1e-8, (sig, err)


def test_character_near_the_identity():
    """Eight evenly spaced eigen-angles in [-0.3 pi, 0.3 pi], where the float
    Weyl quotient still holds (clustered angles break it first): agreement
    to 1e-10 relative. At N = 64 and angles eps * theta_j, eps = 1e-7, h_k
    is close to C(N + k - 1, k) (1.2e8 at k = 6) and the Vandermonde
    determinants are useless in floats; there chi(e^{iA}) = 1 + i tr(A)/dim
    + r with |r| <= |A|^2 / 2, where tr(A)/dim = eps (|lam| - |mu|)
    mean(theta) and |A| <= eps pi (|lam| + |mu|)."""
    z = np.exp(0.3j * np.pi * np.linspace(-1, 1, 8))
    u = _unitary_with_eigenvalues(z, 48)
    for sig in SIGNATURES_UP_TO_6:
        want = weyl_character(sig, z)
        assert abs(normalized_character(sig, u) - want) <= 1e-10 * abs(want)
    eps = 1e-7
    theta = RngStream(47).generator().uniform(-np.pi, np.pi, 64)
    u = _unitary_with_eigenvalues(np.exp(1j * eps * theta), 49)
    for sig in SIGNATURES_UP_TO_6:
        up, down = sum(sig.lam), sum(sig.mu)
        first_order = 1 + 1j * eps * (up - down) * theta.mean()
        assert abs(normalized_character(sig, u) - first_order) \
            <= (eps * np.pi * (up + down)) ** 2 / 2, sig


def test_character_reference_at_scalar_matrices():
    """At U = cI the reference is c^{l(lam)} conj(c)^{l(mu)}: the mu side
    reads the conjugate trace."""
    c = np.exp(0.7j)
    for lam, mu in (((1,), (1,)), ((2, 1), (1,)), ((), (2,))):
        ref = character_reference(Signature(lam, mu), c * np.eye(5))
        assert np.isclose(ref, c ** (len(lam) - len(mu)))


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


# (word, d, N, samples, seed): every d <= 3 at N <= 6 and d = 4 at N = 5,
# the two pinned `amalgam` commands, a single letter, whose exact value is 0,
# and six letters, which branch the subset walk six deep
AMALGAM_CASES = [
    *(("1,2,1*,2*", 1, n, 3, 3) for n in range(2, 7)),
    *(("1,2", 2, n, 3, 3) for n in range(3, 7)),
    *(("1,2*,1", 3, n, 3, 3) for n in range(4, 7)),
    ("3,1", 4, 5, 2, 0),
    ("1,2,1*,2*", 2, 4, 4, 2), ("1,2,1*,2*", 2, 6, 4, 2),
    ("1,2*", 3, 5, 3, 2),
    ("1", 2, 4, 3, 1),
    ("1,2,3*,1*,2,3", 2, 4, 2, 5),
]


def test_amalgam_sweep_matches_reference_loop():
    for text, d, n, samples, seed in AMALGAM_CASES:
        word = StarWord.parse(text)
        rep = amalgam_sweep(word, d, n, samples, seed)
        norms = np.array([amalgam_norm(word, d, _reference_letters(
            n, word.alphabet, seed, s)) for s in range(samples)])
        for got, ref in ((rep.estimate, norms.mean()),
                         (rep.stderr, norms.std(ddof=1) / math.sqrt(samples))):
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15, \
                (text, d, n, got, ref)


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
        to_dense(TensorOperand.identity(8, 9))


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
    sandwich = conditional_expectation_sd(rho_s @ to_dense(a) @ rho_s, d, n)
    assert np.max(np.abs(sandwich.to_dense()
                         - rho_s @ ea.to_dense() @ rho_s)) <= 1e-9


def test_condexp_self_adjoint():
    n, d = 5, 2
    rng = RngStream(9).generator()
    a = TensorOperand.factored([sample_haar_unitary(n, rng) for _ in range(d)])
    b = TensorOperand.factored([sample_haar_unitary(n, rng) for _ in range(d)])
    ea = conditional_expectation_sd(a, d, n).to_dense()
    eb = conditional_expectation_sd(b, d, n).to_dense()
    ip1 = np.trace(ea.conj().T @ to_dense(b))
    ip2 = np.trace(to_dense(a).conj().T @ eb)
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

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from tensortraffic.characters import cycles_of
from tensortraffic.errors import InvalidArgumentError
from tensortraffic.operands import StateSpec
from tensortraffic.sampling import mc_run
from tensortraffic.weingarten import exact_expectation, weingarten
from tensortraffic.words import StarWord, all_words

from oracles import gram_weingarten_table

KINDS = ("tracial", "max_entangled_vector", "diagonal_uniform")
COMMUTATOR = StarWord.parse("1,2,1*,2*")


def _balanced(word) -> bool:
    """Each letter occurs as often plain as starred."""
    letters = Counter(word.letters)
    return all(letters[(idx, False)] == letters[(idx, True)]
               for idx, _ in letters)


def test_wg_s2_closed_form():
    for n in range(2, 9):
        assert weingarten((0, 1), n) == Fraction(1, n * n - 1)
        assert weingarten((1, 0), n) == Fraction(-1, n * (n * n - 1))


def test_wg_orthogonality_s3():
    # sum_tau Wg(sigma tau^-1) N^{#cycles(tau)} = delta_{sigma,e}
    perms = list(itertools.permutations(range(3)))
    for n in (3, 4, 7):
        for sigma in perms:
            total = Fraction(0)
            for tau in perms:
                tau_inv = [0] * 3
                for i, t in enumerate(tau):
                    tau_inv[t] = i
                rho = tuple(sigma[tau_inv[i]] for i in range(3))
                total += weingarten(rho, n) * n ** len(cycles_of(tau))
            assert total == (1 if sigma == (0, 1, 2) else 0), (n, sigma)


def _classes(p):
    """Cycle type (longest first) -> (one permutation of 0..p-1 of that
    type, the class size)."""
    classes = {}
    for sigma in itertools.permutations(range(p)):
        ctype = tuple(sorted(map(len, cycles_of(sigma)), reverse=True))
        rep, size = classes.get(ctype, (sigma, 0))
        classes[ctype] = (rep, size + 1)
    return classes


@pytest.mark.parametrize("p", range(1, 8))
def test_wg_matches_gram_solve(p):
    for n in ((p, p + 1, p + 2, 10) if p < 7 else (7,)):
        table = gram_weingarten_table(p, n)
        for ctype, (sigma, _) in _classes(p).items():
            assert weingarten(sigma, n) == table[ctype], (p, n, sigma)


def _longest_increasing(seq) -> int:
    tails = []
    for x in seq:
        i = bisect.bisect_left(tails, x)
        tails[i:i + 1] = [x]
    return len(tails)


@pytest.mark.parametrize("k", range(1, 9))
def test_wg_rains_identity(k):
    # E|Tr U|^(2k) = k! sum_rho N^{#cycles(rho)} Wg(rho, N) counts the
    # permutations of [k] with no increasing subsequence longer than N
    # (Rains, Electron. J. Combin. 1998); below N = k only the
    # pseudo-inverse gives this
    lis = Counter(_longest_increasing(s)
                  for s in itertools.permutations(range(k)))
    classes = _classes(k)
    for n in range(1, k + 1):
        moment = math.factorial(k) * sum(
            size * n ** len(ctype) * weingarten(sigma, n)
            for ctype, (sigma, size) in classes.items())
        assert moment == sum(c for length, c in lis.items() if length <= n)


def test_wg_needs_n_at_least_one():
    for n in (0, -1, -3):
        with pytest.raises(InvalidArgumentError):
            weingarten((0, 1, 2), n)


def test_k1_commutator_is_inverse_square():
    # criterion 6's constant: E[tr(U1 U2 U1* U2*)] = 1/N^2
    for n in (2, 3, 5, 20):
        spec = StateSpec("tracial", k=1, n=n)
        assert exact_expectation(spec, COMMUTATOR, (1, 0, 0), n) \
            == Fraction(1, n * n)


def test_trivial_word_is_one():
    for kind in KINDS:
        spec = StateSpec(kind, k=2, n=4)
        for text in ("", "1,1*", "1,2,2*,1*"):
            assert exact_expectation(spec, StarWord.parse(text, alphabet=2),
                                     (1, 1, 0), 4) == 1


def test_unbalanced_words_vanish():
    n = 4
    cases = [(StateSpec(kind, k=2, n=n), (1, 1, 0)) for kind in KINDS]
    cases.append((StateSpec("tracial", k=1, n=n), (1, 0, 0)))
    checked = 0
    for length in range(1, 5):
        for word in all_words(2, length):
            if _balanced(word):
                continue
            for spec, blocks in cases:
                assert exact_expectation(spec, word, blocks, n) == 0, \
                    (word.to_string(), spec.kind, blocks)
                checked += 1
    assert checked > 0


K2_COMMUTATOR = {
    2: (Fraction(1, 3), Fraction(1, 6), Fraction(5, 18)),
    3: (Fraction(1, 8), Fraction(7, 72), Fraction(17, 144)),
}


def test_k2_commutator_small_n_values():
    for n, values in K2_COMMUTATOR.items():
        for kind, value in zip(KINDS, values):
            spec = StateSpec(kind, k=2, n=n)
            assert exact_expectation(spec, COMMUTATOR, (1, 1, 0), n) == value
    spec = StateSpec("tracial", k=2, n=16)
    assert exact_expectation(spec, COMMUTATOR, (1, 1, 0), 16) \
        == Fraction(1, 255)


def test_k2_commutator_matches_mc_small_n():
    for n, values in K2_COMMUTATOR.items():
        for kind, value in zip(KINDS, values):
            spec = StateSpec(kind, k=2, n=n)
            rep = mc_run(spec, COMMUTATOR, (1, 1, 0), n, 40_000,
                         seed=99)[0]
            assert rep.within(float(value)), (n, kind, rep.estimate, value)


def test_n1_expectation_is_one_on_balanced_words_else_zero():
    # at N = 1 every U_l is a phase and U_l^t = U_l, so a word's value is a
    # product of phases: 1 if each letter is balanced by its star, else 0
    cases = [(kind, blocks, 4) for kind in KINDS
             for blocks in ((1, 1, 0), (2, 0, 0))]
    cases += [(kind, (1, 2, 0), 2) for kind in ("tracial", "diagonal_uniform")]
    checked = 0
    for kind, blocks, longest in cases:
        spec = StateSpec(kind, k=sum(blocks), n=1)
        for length in range(longest + 1):
            for word in all_words(2, length):
                assert exact_expectation(spec, word, blocks, 1) \
                    == _balanced(word), (kind, blocks, word.to_string())
                checked += 1
    assert checked == 2088


def test_k3_commutator_below_p_matches_mc():
    # N = 2 < p = 3: each letter has three plain entries, so the exact value
    # needs the pseudo-inverse Weingarten function
    for kind, value in (("tracial", Fraction(5, 32)),
                        ("diagonal_uniform", Fraction(17, 144))):
        spec = StateSpec(kind, k=3, n=2)
        assert exact_expectation(spec, COMMUTATOR, (2, 1, 0), 2) == value
        rep = mc_run(spec, COMMUTATOR, (2, 1, 0), 2, 20_000, seed=5)[0]
        assert rep.within(float(value)), (kind, rep.estimate, value)


def test_exact_expectation_guards():
    spec = StateSpec("tracial", k=2, n=4)
    with pytest.raises(InvalidArgumentError):
        exact_expectation(StateSpec("tracial", k=3, n=4), COMMUTATOR,
                          (1, 1, 1), 4)
    with pytest.raises(InvalidArgumentError):
        exact_expectation(spec, COMMUTATOR, (1, 1, 0), 5)
    with pytest.raises(InvalidArgumentError):
        exact_expectation(spec, COMMUTATOR, (2, 1, 0), 4)
    with pytest.raises(InvalidArgumentError):
        exact_expectation(lambda op: 0.0, COMMUTATOR, (1, 1, 0), 4)

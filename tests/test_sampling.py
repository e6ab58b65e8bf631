import itertools
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from tensortraffic import parallel, sampling
from tensortraffic.cli import build_parser
from tensortraffic.errors import InvalidArgumentError, ResourceLimitError
from tensortraffic.operands import StateSpec, TensorOperand
from tensortraffic.sampling import (RngStream, apply_state, evaluate_word,
                                    mc_run, norm_absorption_demo,
                                    sample_haar_unitary, symmetrize)
from tensortraffic.traces import decompose_invariant_state
from tensortraffic.weingarten import exact_expectation
from tensortraffic.words import StarWord

from oracles import to_dense


def test_unitarity():
    for n in (1, 2, 10, 30):
        u = sample_haar_unitary(n, RngStream(1))
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12


def test_streams_are_pure_functions():
    a = sample_haar_unitary(8, RngStream(5, 3))
    b = sample_haar_unitary(8, RngStream(5, 3))
    c = sample_haar_unitary(8, RngStream(5, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_first_moment_vanishes():
    n, samples = 10, 4000
    base = RngStream(17)
    vals = np.array([np.trace(sample_haar_unitary(n, base.child(s))) / n
                     for s in range(samples)])
    stderr = np.sqrt(vals.real.var() / samples + vals.imag.var() / samples)
    assert abs(vals.mean()) <= 3 * stderr


def test_haar_second_moment_is_one():
    # E |Tr U|^2 = 1 for every N >= 1
    n, samples = 10, 4000
    base = RngStream(23)
    vals = np.array([abs(np.trace(sample_haar_unitary(n, base.child(s)))) ** 2
                     for s in range(samples)])
    stderr = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(vals.mean() - 1.0) <= 3 * stderr


def test_build_w_legs_and_unitarity():
    """The one-letter word l is the tensor U_l^{x K1} x U_l^t{x K2} x V_l:
    every leg is unitary and reads U_l, U_l^t or V_l."""
    n = 5
    rng = RngStream(3).generator()
    us = [sample_haar_unitary(n, rng) for _ in range(2)]
    vs = [[sample_haar_unitary(n, rng)] for _ in range(2)]
    for letter in (1, 2):
        w = evaluate_word(StarWord.parse(str(letter), alphabet=2), us, vs, 2, 1)
        legs = w.terms[0][1]
        assert w.legs == 4
        for f in legs:
            assert np.max(np.abs(f.conj().T @ f - np.eye(n))) <= 1e-12
        u, v = us[letter - 1], vs[letter - 1][0]
        assert all(np.array_equal(f, g) for f, g in zip(legs, (u, u, u.T, v)))
    # K2 = K3 = 0 gives plain tensor powers
    assert evaluate_word(StarWord.parse("1,2"), us, None, 3, 0).legs == 3
    with pytest.raises(InvalidArgumentError, match="outside the family"):
        evaluate_word(StarWord.parse("1,3"), us, None, 1, 0)


def test_evaluate_word_examples():
    n = 4
    rng = RngStream(9).generator()
    us = [sample_haar_unitary(n, rng) for _ in range(2)]
    ident = evaluate_word(StarWord.parse("1,1*"), us, None, 1, 1)
    for f in ident.terms[0][1]:
        assert np.max(np.abs(f - np.eye(n))) <= 1e-12
    single = evaluate_word(StarWord.parse("2"), us, None, 1, 1)
    assert np.allclose(single.terms[0][1][0], us[1])
    vs = [[sample_haar_unitary(n, rng)] for _ in range(2)]
    empty = evaluate_word(StarWord((), 2), us, vs, 2, 1)
    assert empty.legs == 4
    assert all(np.array_equal(f, np.eye(n)) for f in empty.terms[0][1])


@pytest.mark.parametrize("blocks,products", [((3, 0, 0), 1), ((2, 2, 0), 2)])
def test_evaluate_word_multiplies_each_block_once(blocks, products,
                                                  monkeypatch):
    """The legs of one block read the same matrices: one word product per
    block and sample, equal to the bytes of the product taken leg by leg."""
    k1, k2, _ = blocks
    n, samples = 4, 3
    word = StarWord.parse("1,2*,1")
    per_leg_product = sampling.word_matrix
    calls = []

    def counted(w, mats):
        calls.append(w)
        return per_leg_product(w, mats)

    monkeypatch.setattr(sampling, "word_matrix", counted)
    mc_run(StateSpec("tracial", k=k1 + k2, n=n), word, blocks, n, samples,
           seed=4)
    assert len(calls) == products * samples
    rng = RngStream(8).generator()
    us = [sample_haar_unitary(n, rng) for _ in range(2)]
    legs = [us] * k1 + [[u.T for u in us]] * k2
    got = evaluate_word(word, us, None, k1, k2).terms[0][1]
    assert len(got) == k1 + k2
    assert all(np.array_equal(f, per_leg_product(word, mats))
               for f, mats in zip(got, legs))


def test_evaluate_word_matches_dense_kronecker():
    n = 3
    rng = RngStream(11).generator()
    us = [sample_haar_unitary(n, rng) for _ in range(2)]
    word = StarWord.parse("1,2,1*")
    result = evaluate_word(word, us, None, 1, 1)
    dense = np.eye(n * n, dtype=complex)
    for idx, star in word.letters:
        m = np.kron(us[idx - 1], us[idx - 1].T)
        dense = dense @ (m.conj().T if star else m)
    assert np.allclose(to_dense(result), dense)


def test_apply_state_unitality_all_kinds():
    for kind in ("tracial", "max_entangled_vector", "diagonal_uniform"):
        spec = StateSpec(kind, k=2, n=5)
        assert np.isclose(apply_state(spec, TensorOperand.identity(5, 2)), 1.0)


def test_entangled_state_expansion_oracle():
    # direct <Omega, A Omega> at N = 3 against the pairing formula
    n = 3
    rng = np.random.default_rng(2)
    op = TensorOperand.factored(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(2)])
    omega = np.zeros(n * n, dtype=complex)
    omega[:: n + 1] = n ** -0.5
    spec = StateSpec("max_entangled_vector", k=2, n=n)
    assert np.isclose(apply_state(spec, op),
                      omega.conj() @ to_dense(op) @ omega)


def test_entangled_on_u_ut_is_trace_of_square():
    n = 6
    u = sample_haar_unitary(n, RngStream(4))
    spec = StateSpec("max_entangled_vector", k=2, n=n)
    val = apply_state(spec, TensorOperand.factored([u, u.T]))
    assert np.isclose(val, np.trace(u @ u) / n)


def test_tracial_matches_dense_oracle():
    n = 3
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        op = TensorOperand.factored(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(k)])
        spec = StateSpec("tracial", k=k, n=n)
        assert np.isclose(apply_state(spec, op),
                          np.trace(to_dense(op)) / n ** k)


def test_mc_trivial_word():
    spec = StateSpec("tracial", k=2, n=6)
    rep = mc_run(spec, StarWord.parse("1,1*"), (1, 1, 0), 6, 4, seed=0)[0]
    assert rep.estimate == 1.0 and rep.stderr == 0.0


def test_mc_commutator_matches_exact_value():
    # the K=2 tracial state reads tr(C) tr(C'), whose exact mean is 1/(N^2-1)
    n = 16
    spec = StateSpec("tracial", k=2, n=n)
    word = StarWord.parse("1,2,1*,2*")
    exact = exact_expectation(spec, word, (1, 1, 0), n)
    assert exact == Fraction(1, n * n - 1)
    rep = mc_run(spec, word, (1, 1, 0), n, 1500, seed=6)[0]
    assert rep.within(float(exact))


def test_mc_reproducible_and_thread_invariant():
    spec = StateSpec("tracial", k=2, n=8)
    word = StarWord.parse("1,2")
    r1 = mc_run(spec, word, (1, 1, 0), 8, 50, seed=3, threads=1)[0]
    r2 = mc_run(spec, word, (1, 1, 0), 8, 50, seed=3, threads=2)[0]
    r3 = mc_run(spec, word, (1, 1, 0), 8, 50, seed=3, threads=1)[0]
    assert r1.estimate == r2.estimate == r3.estimate
    assert r1.stderr == r2.stderr


def test_mc_coefficient_state_is_thread_invariant():
    """A coefficient-file state contracts graphs inside the worker threads;
    each contraction owns its buffers, so threads cannot mix them."""
    n = 8
    coeffs = decompose_invariant_state(StateSpec("tracial", k=2, n=n))
    spec = StateSpec("elementary_combination", k=2, n=n, coeffs=coeffs)
    word = StarWord.parse("1,2,1*,2*")
    r1, v1 = mc_run(spec, word, (1, 1, 0), n, 40, seed=5, threads=1)
    r4, v4 = mc_run(spec, word, (1, 1, 0), n, 40, seed=5, threads=4)
    assert (r1.estimate, r1.stderr) == (r4.estimate, r4.stderr)
    assert (v1.estimate, v1.stderr) == (v4.estimate, v4.stderr)


def _draw(us, rng):
    return np.trace(us[0] @ us[1]) + rng.standard_normal()


@pytest.mark.parametrize("threads,samples", [(3, 7), (2, 2), (8, 3), (64, 5)])
def test_haar_sweep_chunks_join_in_sample_order(threads, samples):
    serial = sampling.haar_sweep(_draw, 6, 2, samples, 11, threads=1)
    pooled = sampling.haar_sweep(_draw, 6, 2, samples, 11, threads=threads)
    assert np.array_equal(serial, pooled)
    assert len(set(serial)) == samples


def test_haar_sweep_threads_1_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel.concurrent.futures, "ThreadPoolExecutor",
                        refuse)
    assert len(sampling.haar_sweep(_draw, 4, 2, 5, 0, threads=1)) == 5


def _blas_or_skip():
    blas = parallel.openblas_threads()
    if blas is None:
        pytest.skip("numpy vendors no OpenBLAS with a thread setter")
    return blas


def _run_threads(targets):
    """Start one thread per target. Returns the threads and the list that
    collects what the targets raise."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # the test asserts the list is empty
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    return threads, errors


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fails", [False, True])
def test_haar_sweep_pins_blas_and_restores_it(threads, fails):
    get, put = _blas_or_skip()
    before = get()
    seen = []

    def fn(us, rng):
        seen.append(get())
        if fails:
            raise RuntimeError("sample failed")
        return 0.0

    put(3)
    try:
        if fails:
            with pytest.raises(RuntimeError, match="sample failed"):
                sampling.haar_sweep(fn, 4, 1, 6, 0, threads=threads)
        else:
            sampling.haar_sweep(fn, 4, 1, 6, 0, threads=threads)
        assert seen and set(seen) == {1}
        assert get() == 3
    finally:
        put(before)


def test_overlapping_sweeps_restore_the_blas_count():
    """Sweep A enters, sweep B enters, A leaves, then B leaves: B still runs
    on one BLAS thread after A is gone, and the count comes back after B."""
    get, put = _blas_or_skip()
    before = get()
    b_in, a_out = threading.Event(), threading.Event()
    seen_by_b = []

    def fn_a(us, rng):
        assert b_in.wait(30)
        return 0.0

    def fn_b(us, rng):
        b_in.set()
        assert a_out.wait(30)
        seen_by_b.append(get())
        return 0.0

    put(3)
    try:
        (a, b), errors = _run_threads([
            lambda: sampling.haar_sweep(fn_a, 2, 1, 3, 0),
            lambda: sampling.haar_sweep(fn_b, 2, 1, 3, 1)])
        a.join(30)
        assert not a.is_alive()
        a_out.set()
        b.join(30)
        assert not b.is_alive() and not errors, errors
        assert seen_by_b == [1, 1, 1]
        assert get() == 3
    finally:
        put(before)


def test_many_overlapping_sweeps_keep_the_pin():
    """More sweeps than cores, all inside at once, in threads that switch
    every microsecond: every sample runs on one BLAS thread and the count is
    restored."""
    get, put = _blas_or_skip()
    before, interval = get(), sys.getswitchinterval()
    all_in = threading.Barrier(8)
    seen = []

    def sweep(seed):
        first = [True]

        def fn(us, rng):
            if first:  # the first sample waits until every sweep is inside
                first.pop()
                all_in.wait(30)
            seen.append(get())
            return 0.0

        sampling.haar_sweep(fn, 2, 1, 20, seed)

    put(3)
    sys.setswitchinterval(1e-6)
    try:
        threads, errors = _run_threads(
            [lambda seed=seed: sweep(seed) for seed in range(8)])
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads) and not errors, errors
        assert len(seen) == 8 * 20 and set(seen) == {1}
        assert get() == 3
    finally:
        sys.setswitchinterval(interval)
        put(before)


def test_haar_sweep_runs_unpinned_without_the_blas_symbols(monkeypatch):
    pinned = sampling.haar_sweep(_draw, 6, 2, 5, 3, threads=2)
    monkeypatch.setattr(parallel, "openblas_threads", lambda: None)
    assert np.array_equal(sampling.haar_sweep(_draw, 6, 2, 5, 3, threads=2),
                          pinned)


def test_haar_draw_bytes_do_not_depend_on_the_blas_count():
    """A draw outside any sweep holds OpenBLAS to one thread for its QR and
    gives the count back."""
    get, put = _blas_or_skip()
    before = get()
    draws = {}
    try:
        for count in (1, 3):
            put(count)
            draws[count] = sample_haar_unitary(128, RngStream(9)).tobytes()
            assert get() == count
    finally:
        put(before)
    assert draws[1] == draws[3]


def test_mc_threads_default_to_usable_cores():
    """From N = 64 up, where one sample's N^3 reaches SWEEP_SPLIT_WORK; a
    smaller sample does not pay for the threads and runs on one."""
    cores = min(len(os.sched_getaffinity(0)), sampling.THREAD_CAP)
    assert parallel.usable_cores() == cores
    args = build_parser().parse_args(["mc", "--state", "tracial", "--word",
                                      "1", "--blocks", "1,0,0", "--dims", "4"])
    assert args.threads is None
    assert [parallel.sweep_threads(n) for n in (4, 16, 32, 48, 63, 64, 128)] \
        == [1] * 5 + [cores] * 2


def test_default_sweep_below_the_split_rule_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    monkeypatch.setattr(parallel.concurrent.futures, "ThreadPoolExecutor",
                        refuse)
    word = StarWord.parse("1,2,1*,2*")
    for n in (16, 48):
        spec = StateSpec("tracial", k=2, n=n)
        assert mc_run(spec, word, (1, 1, 0), n, 4, seed=2)[0].samples == 4


@pytest.mark.parametrize("n", [64, 128])
def test_default_sweep_from_n_64_splits(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    chunks = []

    def counted(run, count, k):
        chunks.append(k)
        return parallel.run_chunks(run, count, k)

    monkeypatch.setattr(sampling, "run_chunks", counted)
    word, spec = StarWord.parse("1,2,1*,2*"), StateSpec("tracial", k=2, n=n)
    split = mc_run(spec, word, (1, 1, 0), n, 4, seed=2)
    assert chunks == [2]
    assert split == mc_run(spec, word, (1, 1, 0), n, 4, seed=2, threads=1)


def test_mc_second_moment_vanishes_under_entangled_state():
    # E[Tr(U^2)]/N = 0 exactly since all pure second moments of Haar vanish
    n = 12
    spec = StateSpec("max_entangled_vector", k=2, n=n)
    rep = mc_run(spec, StarWord.parse("1"), (1, 1, 0), n, 2000, seed=8)[0]
    assert rep.within(0.0)


def test_mc_run_consistency():
    spec = StateSpec("tracial", k=2, n=8)
    word = StarWord.parse("1,2")
    expect, variance = mc_run(spec, word, (1, 1, 0), 8, 200, seed=5)
    assert expect.samples == variance.samples == 200


def test_mc_with_haar_v_block():
    spec = StateSpec("tracial", k=3, n=6)
    rep = mc_run(spec, StarWord.parse("1,2"), (1, 1, 1), 6, 50,
                 seed=2, v_mode="haar")[0]
    assert np.isfinite(rep.estimate.real)


def test_symmetrize_exact_agrees_with_direct_average():
    n = 3
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n))
    sym = symmetrize(TensorOperand.factored([a]), n)
    direct = np.zeros((n, n))
    for perm in itertools.permutations(range(n)):
        p = np.zeros((n, n))
        p[list(perm), np.arange(n)] = 1.0
        direct += p @ a @ p.T / 6
    assert np.allclose(to_dense(sym), direct)
    # for one leg, every diagonal entry of the average is the normalized trace
    assert np.allclose(np.diagonal(to_dense(sym)), np.trace(a) / n)


def test_symmetrize_idempotent_and_invariant():
    n = 4
    spec = StateSpec("diagonal_uniform", k=1, n=n)
    rng = np.random.default_rng(4)
    op = TensorOperand.factored([rng.standard_normal((n, n))])
    sym = symmetrize(op, n)
    # an invariant state reads the same on the operand and on its average
    assert abs(apply_state(spec, sym) - apply_state(spec, op)) <= 1e-12
    sym2 = symmetrize(sym, n)
    assert np.max(np.abs(to_dense(sym2) - to_dense(sym))) <= 1e-12


def test_symmetrize_operand_becomes_invariant():
    n = 4
    rng = np.random.default_rng(5)
    op = TensorOperand.factored([rng.standard_normal((n, n))])
    sym = symmetrize(op, n)
    p = np.zeros((n, n))
    p[np.array([1, 0, 3, 2]), np.arange(n)] = 1.0
    moved = TensorOperand(n, 1, terms=[(w, [p @ f @ p.T for f in fs])
                                       for w, fs in sym.terms])
    assert np.max(np.abs(to_dense(sym) - to_dense(moved))) <= 1e-9


def test_symmetrize_guard():
    with pytest.raises(ResourceLimitError):
        symmetrize(TensorOperand.identity(6, 1), 6)


def test_norm_demo_single_letter_is_one():
    rep = norm_absorption_demo(1, 8, "haar_pair", seed=0)
    assert np.isclose(rep.value, 1.0, atol=1e-9)


def test_norm_demo_conjugate_pair_at_least_l():
    for seed in range(3):
        rep = norm_absorption_demo(3, 16, "conjugate_pair", seed=seed)
        assert rep.value >= 3.0 - 1e-9


def test_norm_demo_guards():
    with pytest.raises(InvalidArgumentError):
        norm_absorption_demo(2, 8, "conjugate_pair")
    with pytest.raises(ResourceLimitError):
        norm_absorption_demo(3, 100, "haar_pair")

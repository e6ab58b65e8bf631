"""The benchmark's workloads.

A workload is a fixed list of operations, one round. A run repeats whole
rounds, so every run attempts the same operations in the same proportions.
Operation inputs derive from (seed, round, position) alone. Each operation
belongs to class "a" or "b"; the end-to-end metrics op_a_s and op_b_s are
the median over a run's rounds of the time the round spent in that class.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tensortraffic import cli, sampling, traces
from tensortraffic.graphs import LinearGraph
from tensortraffic.operands import StateSpec
from tensortraffic.weingarten import exact_expectation
from tensortraffic.words import StarWord

import checks


@dataclass(frozen=True)
class Op:
    cls: str                        # "a" or "b"
    label: str                      # its inputs, for failure messages
    run: Callable[[], object]       # timed
    check: Callable[[object], None]  # untimed; raises checks.CheckFailed


def op_seed(seed: int, rnd: int, pos: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, pos]).generate_state(1)[0])


def run_cli(argv) -> str:
    """`tensortraffic <argv>` in process, as a user types it; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"tensortraffic {' '.join(argv)} exited {rc}")
    return out.getvalue()


# --------------------------------------------------------------------------
# mc-moments: `mc` sweeps of the three built-in states and one `character`
# sweep, with the program's default --threads and BLAS settings.
# --------------------------------------------------------------------------

MC_WORD = "1,2,1*,2*"
MC_BLOCKS = (1, 1, 0)
MC_DIMS = (16, 32, 64, 128)
MC_SAMPLES = 50
MC_STATES = {"tracial": "tracial", "entangled": "max_entangled_vector",
             "diagonal": "diagonal_uniform"}
CHAR_DIMS = (16, 32, 64)
CHAR_SAMPLES = 200


def _mc_argv(state, dims, samples, seed):
    return ["mc", "--state", state, "--word", MC_WORD,
            "--blocks", ",".join(map(str, MC_BLOCKS)),
            "--dims", ",".join(map(str, dims)), "--samples", str(samples),
            "--seed", str(seed), "--format", "json"]


def _char_argv(dims, samples, seed):
    return ["character", "--lambda", "1", "--mu", "1",
            "--dims", ",".join(map(str, dims)), "--samples", str(samples),
            "--seed", str(seed), "--format", "json"]


class McMoments:
    name = "mc-moments"

    def setup(self):
        for state in MC_STATES:
            run_cli(_mc_argv(state, (4,), 2, 0))
        run_cli(_char_argv((4,), 2, 0))

    def references(self):
        word = StarWord.parse(MC_WORD)
        k = MC_BLOCKS[0] + MC_BLOCKS[1]
        return {(state, n): exact_expectation(StateSpec(kind, k=k, n=n), word,
                                              MC_BLOCKS, n)
                for state, kind in MC_STATES.items() for n in MC_DIMS}

    def figures(self, op_a, op_b):
        return {"mc_samples_per_s":
                    (len(MC_STATES) * len(MC_DIMS) * MC_SAMPLES / op_a,
                     "samples/s"),
                "character_samples_per_s":
                    (len(CHAR_DIMS) * CHAR_SAMPLES / op_b, "samples/s")}

    def round(self, seed, rnd, refs, pool):
        ops = []
        for pos, state in enumerate(MC_STATES):
            argv = _mc_argv(state, MC_DIMS, MC_SAMPLES, op_seed(seed, rnd, pos))
            ops.append(Op("a", " ".join(argv), functools.partial(run_cli, argv),
                          _mc_check(state, refs, pool)))
        argv = _char_argv(CHAR_DIMS, CHAR_SAMPLES, op_seed(seed, rnd, 9))
        ops.append(Op("b", " ".join(argv), functools.partial(run_cli, argv),
                      _char_check(pool)))
        return ops


def _mc_check(state, refs, pool):
    def check(text):
        rows = json.loads(text)["rows"]
        checks.require([r["N"] for r in rows] == list(MC_DIMS),
                       f"mc rows cover N = {[r['N'] for r in rows]}")
        for r in rows:
            est = complex(r["estimate_re"], r["estimate_im"])
            exact = refs[(state, r["N"])]
            checks.check_estimate(f"mc {state} N={r['N']}", est, r["stderr"],
                                  exact)
            pool.add(("mc", state, r["N"]), est, r["stderr"], exact)
    return check


def _char_check(pool):
    # (1),(1) is a nontrivial irreducible signature: by Schur orthogonality
    # its character has Haar mean exactly 0.
    def check(text):
        rows = json.loads(text)["rows"]
        checks.require([r["N"] for r in rows] == list(CHAR_DIMS),
                       f"character rows cover N = {[r['N'] for r in rows]}")
        for r in rows:
            est = complex(r["mean_re"], r["mean_im"])
            checks.check_estimate(f"character N={r['N']}", est, r["stderr"], 0)
            pool.add(("character", r["N"]), est, r["stderr"], 0)
    return check


# --------------------------------------------------------------------------
# injective-cycles: Möbius-expanded injective traces of alternating cycles on
# stacks of seeded Haar unitaries, plus one labeling with exact mean 0.
# --------------------------------------------------------------------------

INJ_DIMS = (50, 100)
INJ_HALF_LENGTHS = (1, 2, 3)   # the alternating 2-, 4- and 6-cycles
INJ_BATCH = 24
# U1 then U2*: each letter occurs once, so U1 -> e^{it} U1 makes the exact
# mean 0 at every N; the labeling is invalid (not well colored).
INVALID = ((0, 1), 100)


def alternating_cycle(k: int) -> LinearGraph:
    return LinearGraph(2 * k, tuple((v, (v + 1) % (2 * k))
                                    for v in range(2 * k)))


def injective_values(letters, n: int, seed: int) -> np.ndarray:
    """N^-1 Tr0_inj on a batch of seeded Haar samples. Edge e carries the
    letter letters[e], plain on even edges and adjoint on odd ones."""
    us = [np.empty((INJ_BATCH, n, n), dtype=np.complex128)
          for _ in range(max(letters) + 1)]
    for i in range(INJ_BATCH):
        gen = sampling.RngStream(seed, i).generator()
        for u in us:
            u[i] = sampling.sample_haar_unitary(n, gen)
    stacks = [us[l] if e % 2 == 0 else us[l].conj().transpose(0, 2, 1)
              for e, l in enumerate(letters)]
    graph = alternating_cycle(len(letters) // 2)
    return traces.injective_trace_stack(graph, stacks, n) / n


def _mean_stderr(values):
    m = len(values)
    stderr = float(np.sqrt(values.real.var(ddof=1) / m
                           + values.imag.var(ddof=1) / m))
    return complex(values.mean()), stderr


class InjectiveCycles:
    name = "injective-cycles"

    def setup(self):
        # builds the cached Möbius expansions and contraction plans
        n = 2 * max(INJ_HALF_LENGTHS)
        for k in INJ_HALF_LENGTHS:
            graph = alternating_cycle(k)
            traces.injective_trace_stack(
                graph, [np.eye(n, dtype=np.complex128)[None]] * (2 * k), n)

    def references(self):
        refs = {(k, n): checks.injective_cycle_exact(k, n)
                for k in INJ_HALF_LENGTHS for n in INJ_DIMS}
        refs[INVALID] = 0
        return refs

    def figures(self, op_a, op_b):
        six = len(INJ_DIMS) * INJ_BATCH
        total = (len(INJ_DIMS) * len(INJ_HALF_LENGTHS) + 1) * INJ_BATCH
        return {"injective_samples_per_s": (total / (op_a + op_b), "samples/s"),
                "six_cycle_samples_per_s": (six / op_a, "samples/s")}

    def round(self, seed, rnd, refs, pool):
        cases = [((0,) * (2 * k), n, (k, n))
                 for n in INJ_DIMS for k in INJ_HALF_LENGTHS]
        cases.append((INVALID[0], INVALID[1], INVALID))
        ops = []
        for pos, (letters, n, key) in enumerate(cases):
            s = op_seed(seed, rnd, pos)
            ops.append(Op("a" if len(letters) == 2 * max(INJ_HALF_LENGTHS)
                          else "b",
                          f"injective letters={letters} N={n} seed={s}",
                          functools.partial(injective_values, letters, n, s),
                          _injective_check(key, refs[key], pool)))
        return ops


def _injective_check(key, exact, pool):
    def check(values):
        est, stderr = _mean_stderr(values)
        checks.check_estimate(f"injective {key}", est, stderr, exact)
        pool.add(("injective",) + key, est, stderr, exact)
    return check


# --------------------------------------------------------------------------
# lattice: `predict` certificates over B(9) quotients and `decompose` scans
# over B(2K)^2 partition pairs, up to K = 4.
# --------------------------------------------------------------------------

# Length 5 on two loops: 9 vertices, B(9) = 21,147 quotients each. Fixed
# words keep the certificates' cost the same on every seed.
PREDICT_WORDS = ("1,2,1*,2*,1", "2,1,2*,1*,2", "1,2*,1*,2,1")
PREDICT_BLOCKS = "1,1,0"
# (K, N, state); None picks tracial or entangled from the seed.
DECOMPOSE = ((2, 5, "tracial"), (2, 5, "entangled"), (3, 6, "tracial"),
             (4, 8, None))


class Lattice:
    name = "lattice"

    def setup(self):
        run_cli(["predict", "--word", "1,2*", "--blocks", PREDICT_BLOCKS])
        run_cli(["decompose", "--state", "tracial", "--k", "2", "--n", "4"])

    def references(self):
        return {}

    def figures(self, op_a, op_b):
        return {"predict_s": (op_a / len(PREDICT_WORDS), "s"),
                "decompose_s": (op_b, "s")}

    def round(self, seed, rnd, refs, pool):
        ops = []
        for word in PREDICT_WORDS:
            argv = ["predict", "--word", word, "--blocks", PREDICT_BLOCKS]
            ops.append(Op("a", " ".join(argv), functools.partial(run_cli, argv),
                          lambda text: checks.check_certificate(
                              json.loads(text))))
        for pos, (k, n, state) in enumerate(DECOMPOSE):
            s = op_seed(seed, rnd, pos)
            state = state or ("tracial", "entangled")[s % 2]
            argv = ["decompose", "--state", state, "--k", str(k),
                    "--n", str(n), "--seed", str(s)]
            ops.append(Op("b", " ".join(argv), functools.partial(run_cli, argv),
                          _decompose_check(state, k, n)))
        return ops


def _decompose_check(state, k, n):
    return lambda text: checks.check_decomposition(json.loads(text), state,
                                                   k, n)


WORKLOADS = {w.name: w for w in (McMoments(), InjectiveCycles(), Lattice())}

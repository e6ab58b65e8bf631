"""Benchmark entry point: one workload, run as a closed loop for a fixed time.

Run from the root of a checkout; the package is imported from ./src and
nothing is installed:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

One operation runs at a time, from this process and this thread. The loop
repeats whole rounds of the workload while each is expected to end within
--seconds; the first round always runs. The last
line of stdout is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run. Result and
trace files go to ./.perfbench/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3  # on each side of the loop

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_a_s": "s",
                    "op_b_s": "s"}


def per_layer_metrics(tracer, rounds: int) -> dict:
    """name -> (value per round, unit)."""
    from tracing import CALLS, EXTRA, SECONDS

    def calls(*keys):
        return tracer.total(*keys, field=CALLS) / rounds

    def secs(*keys):
        return tracer.total(*keys, field=SECONDS) / rounds

    def extra(*keys):
        return tracer.total(*keys, field=EXTRA) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    quotients = ("haar.quotient", "traces.quotient")
    return {
        "sampling.haar_unitary_calls": (calls("sampling.haar_unitary"), "count"),
        "sampling.haar_unitary_s": (secs("sampling.haar_unitary"), "s"),
        "sampling.evaluate_word_calls": (calls("sampling.evaluate_word"), "count"),
        "sampling.evaluate_word_s": (secs("sampling.evaluate_word"), "s"),
        "traces.apply_state_calls": (calls("traces.apply_state"), "count"),
        "traces.apply_state_s": (secs("traces.apply_state"), "s"),
        "traces.injective_trace_stack_s":
            (secs("traces.injective_trace_stack"), "s"),
        "traces.contraction_plan_calls":
            (calls("traces.contraction_plan"), "count"),
        "partitions.enumerate_s": (secs("partitions.enumerate"), "s"),
        "partitions.partitions_enumerated":
            (extra("partitions.enumerate"), "count"),
        "graphs.quotient_calls": (calls(*quotients), "count"),
        "graphs.quotient_s": (secs(*quotients), "s"),
        "graphs.canonical_form_s": (secs("graphs.canonical_form"), "s"),
        "invariants.leaf_count_calls": (calls("invariants.leaf_count"), "count"),
        "invariants.leaf_count_s": (secs("invariants.leaf_count"), "s"),
        "invariants.classify_labeling_s":
            (secs("invariants.classify_labeling"), "s"),
        "invariants.eta_of_split_s": (secs("invariants.eta_of_split"), "s"),
        "haar.quotients_scored": (calls("haar.quotient"), "count"),
        "haar.dedup_merge_ratio":
            (ratio(extra("graphs.canonical_form"), calls("haar.quotient")),
             "ratio"),
        "partitions.leq_calls": (calls("partitions.leq"), "count"),
        "partitions.leq_s": (secs("partitions.leq"), "s"),
        "partitions.leq_useful_ratio":
            (ratio(extra("partitions.leq"), calls("partitions.leq")),
             "ratio"),
        "partitions.mobius_calls": (calls("partitions.mobius"), "count"),
        "partitions.mobius_s": (secs("partitions.mobius"), "s"),
        "characters.normalized_character_calls":
            (calls("characters.normalized_character"), "count"),
        "characters.normalized_character_s":
            (secs("characters.normalized_character"), "s"),
        "cli.main_s": (secs("cli.main"), "s"),
    }


def install_tracer():
    """Wrap each layer's entry points at the names their callers look up."""
    from tensortraffic import cli, haar, invariants, sampling, traces
    from tracing import Tracer

    tracer = Tracer()
    for module, name, key in (
            (sampling, "sample_haar_unitary", "sampling.haar_unitary"),
            (cli, "sample_haar_unitary", "sampling.haar_unitary"),
            (sampling, "evaluate_word", "sampling.evaluate_word"),
            (sampling, "apply_state", "traces.apply_state"),
            (traces, "apply_state", "traces.apply_state"),
            (traces, "injective_trace_stack", "traces.injective_trace_stack"),
            (traces, "contraction_plan", "traces.contraction_plan"),
            (haar, "quotient", "haar.quotient"),
            (traces, "quotient", "traces.quotient"),
            (haar, "classify_labeling", "invariants.classify_labeling"),
            (haar, "eta_of_split", "invariants.eta_of_split"),
            (cli, "normalized_character", "characters.normalized_character"),
            (cli, "main", "cli.main")):
        tracer.wrap(module, name, key)
    for module in (haar, traces):
        tracer.wrap(module, "enumerate_partitions", "partitions.enumerate",
                    extra=len)
    tracer.wrap(haar, "canonical_form", "graphs.canonical_form",
                extra=tracer.repeat)
    # hundreds of thousands to millions of calls per round: counters only
    for module in (haar, invariants):
        tracer.wrap(module, "leaf_count", "invariants.leaf_count", spans=False)
    tracer.wrap(traces, "leq", "partitions.leq", extra=bool, spans=False)
    tracer.wrap(traces, "mobius", "partitions.mobius", spans=False)
    return tracer


def machine_facts() -> dict:
    """Cores, BLAS and the thread settings the workloads run with."""
    import numpy as np
    from tensortraffic import cli

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mc_args = cli.build_parser().parse_args(
        ["mc", "--state", "tracial", "--word", "1", "--blocks", "1,0,0",
         "--dims", "4"])
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "mc_threads": mc_args.threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _blas_threads(np):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(workload: str) -> list[float]:
    """Wall times of fresh processes that import the package and run the
    workload's warm-up, as a user's first invocation pays it."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--setup-only"],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_loop(workload, seed: int, seconds: float, tracer):
    """Whole rounds, one operation at a time. A new round starts only while
    it is expected to end within `seconds`; the first always runs."""
    import checks

    refs = workload.references()  # check values; outside every timer
    pool = checks.Pool()
    rounds: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        spent = {"a": 0.0, "b": 0.0}
        for op in workload.round(seed, len(rounds), refs, pool):
            if tracer is not None:
                tracer.begin_op(attempted)
            attempted += 1
            t0 = time.perf_counter()
            error = None
            try:
                out = op.run()
            except Exception:  # the loop goes on; the operation counts failed
                error = traceback.format_exc()
            spent[op.cls] += time.perf_counter() - t0
            if error is None:
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                failed += 1
                print(f"perfbench: FAILED {op.label}: {error}", file=sys.stderr)
        rounds.append(spent)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    key, z = pool.worst()
    correct = z <= checks.Z_BAND
    if not correct:
        print(f"perfbench: pooled {key} is {z:.2f} standard errors from "
              f"its exact value", file=sys.stderr)
    return rounds, attempted, failed, correct, z


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up only (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "tensortraffic" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'tensortraffic'}; "
              f"run from the root of a tensortraffic checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup()
        return 0

    # set-up is timed before and after the loop, so that it samples the
    # machine at both ends of the run
    setups = [] if args.trace else measure_setup(args.workload)
    workload.setup()
    tracer = install_tracer() if args.trace else None
    rounds, attempted, failed, correct, worst_z = run_loop(
        workload, args.seed, args.seconds, tracer)
    if not args.trace:
        setups += measure_setup(args.workload)
    op_a = statistics.median(r["a"] for r in rounds)
    op_b = statistics.median(r["b"] for r in rounds)
    if tracer is None:
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "op_a_s": op_a, "op_b_s": op_b}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u)
                   in per_layer_metrics(tracer, len(rounds)).items()}

    facts = machine_facts()
    figures = workload.figures(op_a, op_b)
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} op_a_s={op_a:.4f} op_b_s={op_b:.4f} "
          f"worst_pooled_z={worst_z:.2f}")
    for name, (value, unit) in figures.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "machine": facts, "rounds": rounds,
                   "figures": figures, "worst_pooled_z": worst_z}, fh,
                  indent=1)
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

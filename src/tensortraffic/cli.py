"""Command-line front end.

One binary, subcommand style. Machine-readable output (JSON, or CSV where a
table is natural) goes to stdout and optionally to --out; diagnostics go to
stderr. Exit codes: 0 success, 2 invalid arguments, 3 resource limit,
4 numerical failure. All randomness flows from --seed, so identical
invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tokenize

import numpy as np

from . import __version__
from .errors import (InvalidArgumentError, NumericalFailureError,
                     ResourceLimitError, TensorTrafficError)
from .graphs import LinearGraph, _integer, component_count, load_graph
from .invariants import (classify_labeling, forest_leaves, forest_of_tec,
                         is_forest_of_cacti, is_well_oriented, leaf_count)
from .operands import StateSpec, TensorOperand
from .partitions import SetPartition, enumerate_partitions, mobius
from .traces import (contraction_plan, decompose_invariant_state, graph_trace,
                     injective_graph_trace, reconstruction_value, tau_trace,
                     zeta_trace)
from .words import StarWord
from .haar import haar_limit_injective, predict_freeness_limit
from .parallel import usable_cores
from .sampling import RngStream, apply_state, mc_run, norm_absorption_demo
from .characters import Signature, amalgam_sweep, character_sweep

MC_CSV_COLUMNS = ("N", "estimate_re", "estimate_im", "stderr", "variance",
                  "samples")
CHARACTER_CSV_COLUMNS = ("N", "mean_abs", "mean_re", "mean_im", "stderr",
                         "ref_error", "samples")
AMALGAM_CSV_COLUMNS = ("N", "norm_mean", "stderr", "samples")
DIMENSION_CAP = 4096  # one complex N x N matrix is 256 MiB at the cap


def _emit(args, text: str):
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# One ledger row as `_json_text` lays it out inside the certificate: keys
# sorted, two-space indent at depth two.
_LEDGER_ROW = """    {
      "eta": %s,
      "leaf_defect": %d,
      "leaves": [
        %d,
        %d,
        %d
      ],
      "limit_coefficient": %s,
      "multiplicity": %s,
      "partition": %s,
      "validity": %s
    }"""
_SLOT = "\0"  # marks the multiplicity and the partition; the encoder escapes it


def _certificate_text(cert) -> str:
    """`_json_text` of the certificate with its quotients as a list of
    objects; the header goes through the encoder, each row through
    `_LEDGER_ROW`, which is several times faster on a B(9) ledger. The
    text a row shares with its row class is rendered once per class, with
    the multiplicity and the partition left as slots. A ledger is never
    empty: B(V) >= 1."""
    quote = json.encoder.encode_basestring_ascii
    header = _json_text({
        "word": cert.word, "blocks": list(cert.blocks),
        "doubled": cert.doubled, "verdict": cert.verdict,
        "base_leaves": cert.base_leaves, "quotients": []})
    fixed = {}  # row class -> its text around the multiplicity and partition
    rows = []
    for partition, multiplicity, row in cert.entries:
        parts = fixed.get(row)
        if parts is None:
            parts = fixed[row] = (_LEDGER_ROW % (
                quote(str(row.eta)), row.leaf_defect, *row.leaves,
                quote(str(row.limit_coefficient)), _SLOT, _SLOT,
                quote(row.validity))).split(_SLOT)
        head, mid, tail = parts
        rows.append(head + str(multiplicity) + mid + quote(partition) + tail)
    # only integers and a bool sort before "quotients": the first match is it
    return header.replace('"quotients": []',
                          '"quotients": [\n%s\n  ]' % ",\n".join(rows), 1)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _emit_rows(args, columns, rows, header: dict):
    """The rows as CSV, or as objects under "rows" next to the header."""
    if args.format == "csv":
        _emit(args, _csv_text(columns, rows))
    else:
        _emit(args, _json_text({**header, "rows": [dict(zip(columns, r))
                                                   for r in rows]}))


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"expected comma-separated integers: {text!r}") \
            from exc


def _check_dimension(n: int) -> int:
    if n > DIMENSION_CAP:
        raise ResourceLimitError(
            f"N is capped at {DIMENSION_CAP} (requested {n})")
    return n


def _parse_dims(text: str) -> list[int]:
    dims = _parse_ints(text)
    if not dims or min(dims) < 1:
        raise InvalidArgumentError(f"--dims needs one or more N >= 1: {text!r}")
    return [_check_dimension(n) for n in dims]


def _parse_blocks(text: str) -> tuple[int, int, int]:
    blocks = _parse_ints(text)
    if len(blocks) != 3:
        raise InvalidArgumentError(f"--blocks needs K1,K2,K3: {text!r}")
    return tuple(blocks)


def _pair(value) -> complex:
    """A complex number written as an [re, im] pair of two JSON numbers."""
    if (not isinstance(value, list) or len(value) != 2
            or any(type(x) not in (int, float) for x in value)):
        raise ValueError(f"expected an [re, im] pair of numbers, got {value!r}")
    return complex(*value)


def _load_operand(path: str) -> TensorOperand:
    """Operand file: .npy stack of K complex matrices (or one matrix), or a
    JSON list of matrices whose entries are JSON numbers or [re, im] pairs.
    """
    if not os.path.exists(path):
        raise InvalidArgumentError(f"operand file not found: {path}")
    try:
        if path.endswith(".npy"):
            # mapping reads the header alone: a shape the file cannot hold
            # fails before an array of that shape is allocated
            arr = np.lib.format.open_memmap(path, mode="r")
            if arr.ndim == 2:
                arr = arr[None]
            if arr.ndim != 3 or arr.dtype.kind not in "biufc":
                raise ValueError(f"need a 2-D or 3-D numeric array, got "
                                 f"shape {arr.shape} of {arr.dtype}")
            mats = list(np.asarray(arr, dtype=np.complex128))
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            mats = []
            for entry in doc:
                rows = []
                for row in entry:
                    rows.append([_pair(v if isinstance(v, list) else [v, 0])
                                 for v in row])
                mats.append(np.array(rows, dtype=np.complex128))
    # numpy re-tokenizes a version-1 header it cannot parse, and an
    # unbalanced bracket there escapes as tokenize.TokenError
    except (OSError, IndexError, OverflowError, TypeError, ValueError,
            tokenize.TokenError) as exc:
        raise InvalidArgumentError(f"malformed operand file {path!r}: {exc}") \
            from exc
    return TensorOperand.factored(mats)


def _state_for(name: str, k: int, n: int):
    if name == "tracial":
        return StateSpec("tracial", k=k, n=n)
    if name in ("entangled", "max_entangled_vector"):
        return StateSpec("max_entangled_vector", k=k, n=n)
    if name in ("diagonal", "diagonal_uniform"):
        return StateSpec("diagonal_uniform", k=k, n=n)
    if name.endswith(".json"):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            file_k = _integer(doc["K"])
            coeffs = {SetPartition.from_string(rgs): _pair(v)
                      for rgs, v in doc["coefficients"].items()}
        except (OSError, AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise InvalidArgumentError(
                f"malformed coefficient file {name!r}: {exc}") from exc
        if file_k != k:
            raise InvalidArgumentError("coefficient file K does not match blocks")
        return StateSpec("elementary_combination", k=k, n=n, coeffs=coeffs)
    raise InvalidArgumentError(f"unknown state {name!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_trace(args) -> int:
    graph, labels = load_graph(args.graph)
    operand = _load_operand(args.operand)
    letters = None if args.letters is None else _parse_ints(args.letters)
    if args.injective:
        value = injective_graph_trace(graph, operand, letters)
    elif args.zeta:
        value = zeta_trace(graph, operand, letters)
    elif args.tau:
        value = tau_trace(graph, operand, letters)
    else:
        value = graph_trace(graph, operand, letters)
    payload = {
        "value_re": value.real, "value_im": value.imag,
        "L": leaf_count(graph), "c": component_count(graph),
        "plan_width": contraction_plan(graph).width,
    }
    _emit(args, _json_text(payload))
    return 0


def _cmd_invariants(args) -> int:
    graph, labels = load_graph(args.graph)
    forest = forest_of_tec(graph)
    payload = {
        "leaf_count": forest_leaves(forest.degrees),
        "bridges": [eid for _, _, eid in forest.forest_edges],
        "tec_components": [sorted(c) for c in forest.components],
        "components": component_count(graph),
        "cactus": is_forest_of_cacti(graph),
        "well_oriented": is_well_oriented(graph),
    }
    if labels is not None:
        payload["validity"] = classify_labeling(graph, labels[0], labels[1])
    _emit(args, _json_text(payload))
    return 0


def _cmd_mobius(args) -> int:
    parts = enumerate_partitions(args.n)
    bottom = SetPartition.discrete(args.n)
    rows = [{"partition": pi.to_string(), "blocks": pi.num_blocks,
             "mobius_from_bottom": mobius(bottom, pi)} for pi in parts]
    if args.format == "csv":
        _emit(args, _csv_text(("partition", "blocks", "mobius_from_bottom"),
                              [(r["partition"].replace(",", ";"), r["blocks"],
                                r["mobius_from_bottom"]) for r in rows]))
    else:
        _emit(args, _json_text({"n": args.n, "count": len(rows),
                                "partitions": rows}))
    return 0


def _cmd_decompose(args) -> int:
    _check_dimension(args.n)
    state = _state_for(args.state, args.k, args.n)
    coeffs = decompose_invariant_state(state)
    rng = RngStream(args.seed, 10 ** 6).generator()
    residuals = []
    for _ in range(5):
        probe = TensorOperand.factored(
            [rng.standard_normal((args.n, args.n))
             + 1j * rng.standard_normal((args.n, args.n))
             for _ in range(args.k)])
        residuals.append(abs(apply_state(state, probe)
                             - reconstruction_value(coeffs, probe)))
    worst = float(np.max(residuals))  # a NaN survives, unlike in max()
    if not worst <= 1e-9:
        raise NumericalFailureError(
            f"reconstruction residual {worst:.2e} exceeds 1e-9")
    payload = {
        "K": args.k, "N": args.n,
        "coefficients": {pi.to_string(): [c.real, c.imag]
                         for pi, c in sorted(coeffs.items(),
                                             key=lambda kv: kv[0].rgs)},
        "reconstruction_residual": worst,
    }
    _emit(args, _json_text(payload))
    return 0


def _cmd_predict(args) -> int:
    word = StarWord.parse(args.word)
    k1, k2, k3 = _parse_blocks(args.blocks)
    if args.graph:
        graph, _ = load_graph(args.graph)
    else:
        graph = LinearGraph(1, tuple((0, 0) for _ in range(k1 + k2 + k3)))
    cert = predict_freeness_limit(word, graph, k1, k2, k3,
                                  include_variance_graph=args.variance)
    _emit(args, _certificate_text(cert))
    return 0


def _cmd_limit(args) -> int:
    graph, labels = load_graph(args.graph)
    if labels is None:
        raise InvalidArgumentError("the limit command needs edge labels")
    delta, eps = labels
    validity = classify_labeling(graph, delta, eps)
    coeff = haar_limit_injective(graph, delta, eps)
    payload = {"validity": validity, "coefficient": str(coeff),
               "value": float(coeff), "components": component_count(graph)}
    _emit(args, _json_text(payload))
    return 0


def _cmd_mc(args) -> int:
    k1, k2, k3 = _parse_blocks(args.blocks)
    k = k1 + k2 + k3
    word = StarWord.parse(args.word)
    dims = _parse_dims(args.dims)
    if sorted(dims) != dims or len(set(dims)) != len(dims):
        raise InvalidArgumentError("--dims must be strictly increasing")
    rows = []
    for n in dims:
        state = _state_for(args.state, k, n)
        expect, variance = mc_run(state, word, (k1, k2, k3), n, args.samples,
                                  seed=args.seed, v_mode=args.v_mode,
                                  threads=args.threads)
        rows.append((n, float(expect.estimate.real), float(expect.estimate.imag),
                     float(expect.stderr), float(variance.estimate.real),
                     args.samples))
    _emit_rows(args, MC_CSV_COLUMNS, rows,
               {"word": word.to_string(), "blocks": [k1, k2, k3],
                "state": args.state, "seed": args.seed})
    return 0


def _cmd_character(args) -> int:
    lam = tuple(_parse_ints(args.lam)) if args.lam else ()
    mu = tuple(_parse_ints(args.mu)) if args.mu else ()
    sig = Signature(lam, mu)
    word = StarWord.parse(args.word) if args.word else None
    rows = []
    for n in _parse_dims(args.dims):
        chi, mean_abs, ref_error = character_sweep(sig, n, args.samples,
                                                   args.seed, word)
        rows.append((n, mean_abs, chi.estimate.real, chi.estimate.imag,
                     chi.stderr, ref_error, args.samples))
    _emit_rows(args, CHARACTER_CSV_COLUMNS, rows,
               {"lambda": list(lam), "mu": list(mu), "word": args.word,
                "seed": args.seed})
    return 0


def _cmd_amalgam(args) -> int:
    word = StarWord.parse(args.word)
    rows = []
    for n in _parse_dims(args.dims):
        rep = amalgam_sweep(word, args.d, n, args.samples, args.seed)
        rows.append((n, rep.estimate.real, rep.stderr, args.samples))
    _emit_rows(args, AMALGAM_CSV_COLUMNS, rows,
               {"word": word.to_string(), "d": args.d, "seed": args.seed})
    return 0


def _cmd_normdemo(args) -> int:
    report = norm_absorption_demo(args.letters, args.n, args.mode,
                                  seed=args.seed)
    _emit(args, _json_text(report.to_json()))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    ok, lines = run_selftest()
    _emit(args, "".join(line + "\n" for line in lines))
    if not ok:
        raise NumericalFailureError("selftest failed")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensortraffic",
        description="Graph traces on tensor matrix spaces and Monte-Carlo "
                    "freeness checks for tensor products of Haar unitaries.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):  # the first format is the default
        p.add_argument("--out", help="also write the primary output to a file")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help="primary output format")

    p = sub.add_parser("trace", help="evaluate a graph trace on an operand")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--operand", required=True,
                   help="operand file (.npy stack or JSON matrix list)")
    p.add_argument("--letters", help="comma-separated edge-to-factor map")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--injective", action="store_true",
                      help="restrict to injective vertex labelings")
    form.add_argument("--zeta", action="store_true",
                      help="scale by N^(-L/2)")
    form.add_argument("--tau", action="store_true",
                      help="scale by N^(-c)")
    common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("invariants", help="structural invariants of a graph")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("mobius", help="Möbius function table over partitions")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    common(p, formats=("json", "csv"))
    p.set_defaults(func=_cmd_mobius)

    p = sub.add_parser("decompose",
                       help="elementary-form coefficients of an invariant state")
    p.add_argument("--state", required=True,
                   help="tracial | entangled | diagonal | coeffs.json")
    p.add_argument("--k", type=int, required=True, help="number of legs")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random reconstruction probes")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("predict",
                       help="vanishing certificate for a word of tensor unitaries")
    p.add_argument("--word", required=True, help='e.g. "1,2,1*,2*"')
    p.add_argument("--blocks", required=True, help="K1,K2,K3")
    p.add_argument("--graph", help="base graph JSON (default: loops)")
    p.add_argument("--variance", action="store_true",
                   help="analyze the doubled graph of the variance pipeline")
    common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("limit",
                       help="exact Haar limit of a labeled graph's injective trace")
    p.add_argument("--graph", required=True, help="graph JSON with labels")
    common(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("mc", help="Monte-Carlo moments of word tensors")
    p.add_argument("--state", required=True,
                   help="tracial | entangled | diagonal | coeffs.json")
    p.add_argument("--word", required=True)
    p.add_argument("--blocks", required=True, help="K1,K2,K3")
    p.add_argument("--dims", required=True, help="strictly increasing N list")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--v-mode", choices=("perm", "haar"), default="perm",
                   help="third-block family: permutation tensors or Haar")
    p.add_argument("--threads", type=int,
                   help="worker threads, 1 to 64 (default: the usable cores, "
                        f"{usable_cores()} here, from N = 64 up, and 1 below; "
                        "results do not depend on this)")
    common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("character",
                       help="normalized rational characters on Haar samples")
    p.add_argument("--lambda", dest="lam", default="",
                   help="decreasing positive parts, e.g. 2,1")
    p.add_argument("--mu", dest="mu", default="")
    p.add_argument("--dims", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word", help="optional word over the Haar letters "
                                  "U_1..U_K, K the highest letter used")
    common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("amalgam",
                       help="conditional-expectation probe of centered tensor words")
    p.add_argument("--d", type=int, required=True, help="tensor power (<= 4)")
    p.add_argument("--word", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p, formats=("csv", "json"))
    p.set_defaults(func=_cmd_amalgam)

    p = sub.add_parser("normdemo", help="operator-norm absorption demo")
    p.add_argument("--letters", "--L", dest="letters", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("haar_pair", "conjugate_pair"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_normdemo)

    p = sub.add_parser("selftest", help="run the exact-identity suite")
    common(p, formats=())
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except TensorTrafficError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

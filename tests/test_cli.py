import concurrent.futures
import contextlib
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensortraffic import cli, graphs, haar, partitions, sampling, traces
from tensortraffic.cli import _load_operand, _state_for, build_parser, main
from tensortraffic.errors import TensorTrafficError
from tensortraffic.graphs import load_graph

from oracles import _decompose, dense_unital_coefficients


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def loop_json(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]]}))
    return str(path)


@pytest.fixture
def labeled_cycle_json(tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "vertices": 2, "edges": [[0, 1], [1, 0]],
        "labels": {"delta": [1, 1], "eps": ["u", "s"]}}))
    return str(path)


@pytest.fixture
def operand_npy(tmp_path):
    path = tmp_path / "op.npy"
    np.save(path, np.stack([np.eye(3, dtype=complex)]))
    return str(path)


def test_mobius_table(capsys):
    code, out, _ = run_cli(["mobius", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 15
    table = {row["partition"]: row["mobius_from_bottom"]
             for row in doc["partitions"]}
    assert table["0,0,0,0"] == -6
    assert table["0,1,2,3"] == 1


def test_trace_json_output(capsys, loop_json, operand_npy):
    code, out, _ = run_cli(["trace", "--graph", loop_json,
                            "--operand", operand_npy], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value_re"] == 3.0 and doc["L"] == 2 and doc["c"] == 1


def test_trace_edgeless_graph_with_empty_letter_map(capsys, tmp_path,
                                                   operand_npy):
    # an empty --letters is a map of no edges, not a missing map; the one
    # operand weight times N^3 labelings, or N(N-1)(N-2) injective ones
    graph = tmp_path / "edgeless.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": []}))
    for flags, value in (([], 27.0), (["--injective"], 6.0)):
        code, out, _ = run_cli(["trace", "--graph", str(graph), "--operand",
                                operand_npy, "--letters", ""] + flags, capsys)
        assert code == 0
        assert json.loads(out)["value_re"] == value


def test_trace_operand_json_format(capsys, loop_json, tmp_path):
    op = tmp_path / "op.json"
    op.write_text(json.dumps([[[1, [0, 2]], [[0, -2], 1]]]))
    code, out, _ = run_cli(["trace", "--graph", loop_json,
                            "--operand", str(op)], capsys)
    assert code == 0
    assert json.loads(out)["value_re"] == 2.0


@pytest.mark.parametrize("flags", [["--injective", "--zeta"],
                                   ["--injective", "--tau"],
                                   ["--zeta", "--tau"]])
def test_trace_forms_exclude_each_other(flags, capsys, loop_json,
                                        operand_npy):
    # one trace form per call; a pair is a usage error, not the first flag
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--graph", loop_json, "--operand", operand_npy]
             + flags)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with" in out.err


def test_invariants_output(capsys, labeled_cycle_json):
    code, out, _ = run_cli(["invariants", "--graph", labeled_cycle_json],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cactus"] and doc["well_oriented"]
    assert doc["validity"] == "valid"
    assert doc["leaf_count"] == 2 and doc["bridges"] == []


def test_predict_verdict(capsys, loop_json):
    code, out, _ = run_cli(["predict", "--word", "1,2,1*,2*",
                            "--blocks", "1,0,0", "--graph", loop_json], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "VANISHES"
    assert len(doc["quotients"]) == 15


def test_predict_default_loop_base(capsys):
    code, out, _ = run_cli(["predict", "--word", "1,1", "--blocks", "1,1,0"],
                           capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "VANISHES"


def test_limit_command(capsys, labeled_cycle_json):
    code, out, _ = run_cli(["limit", "--graph", labeled_cycle_json], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["validity"] == "valid" and doc["value"] == 1.0


def test_decompose_tracial(capsys):
    code, out, _ = run_cli(["decompose", "--state", "tracial",
                            "--k", "1", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["0,0"][0] == pytest.approx(0.25)
    assert doc["reconstruction_residual"] <= 1e-9


@pytest.mark.parametrize("state,k,n", [("tracial", 2, 4),
                                       ("diagonal", 3, 6)])
def test_decompose_round_trips_its_own_coefficient_file(state, k, n, tmp_path,
                                                        capsys):
    path = str(tmp_path / "coeffs.json")
    code, out, _ = run_cli(["decompose", "--state", state, "--k", str(k),
                            "--n", str(n), "--out", path], capsys)
    assert code == 0
    code, again, err = run_cli(["decompose", "--state", path, "--k", str(k),
                                "--n", str(n), "--seed", "5"], capsys)
    assert code == 0, err
    assert json.loads(again)["coefficients"] == \
        json.loads(out)["coefficients"]


def test_decompose_round_trips_a_dense_coefficient_file(tmp_path, capsys):
    n = 5
    coeffs = dense_unital_coefficients(2, n, seed=2)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"K": 2, "coefficients": {
        pi.to_string(): [a.real, a.imag] for pi, a in coeffs.items()}}))
    code, out, err = run_cli(["decompose", "--state", str(path), "--k", "2",
                              "--n", str(n)], capsys)
    assert code == 0, err
    got = json.loads(out)["coefficients"]
    assert len(got) == len(coeffs)
    for pi, a in coeffs.items():
        assert abs(complex(*got[pi.to_string()]) - a) <= 1e-12


def test_mc_csv_columns(capsys):
    code, out, _ = run_cli(["mc", "--state", "tracial", "--word", "1,2",
                            "--blocks", "1,1,0", "--dims", "4,8",
                            "--samples", "16", "--seed", "1",
                            "--threads", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,estimate_re,estimate_im,stderr,variance,samples"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "4"


def test_mc_rejects_unordered_dims(capsys):
    code, _, err = run_cli(["mc", "--state", "tracial", "--word", "1",
                            "--blocks", "1,0,0", "--dims", "8,4",
                            "--samples", "8"], capsys)
    assert code == 2 and "increasing" in err


def test_character_rows(capsys):
    code, out, _ = run_cli(["character", "--lambda", "1", "--mu", "1",
                            "--dims", "8,16", "--samples", "20",
                            "--seed", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,mean_abs,")
    assert len(lines) == 3


def test_amalgam_rows(capsys):
    code, out, _ = run_cli(["amalgam", "--d", "2", "--word", "1,2",
                            "--dims", "4,6", "--samples", "3",
                            "--seed", "0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,norm_mean,stderr,samples"
    assert len(lines) == 3


def test_normdemo(capsys):
    code, out, _ = run_cli(["normdemo", "--letters", "3", "--n", "8",
                            "--mode", "conjugate_pair"], capsys)
    assert code == 0
    assert json.loads(out)["norm"] >= 3.0 - 1e-9


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


# SHA-256 of `predict` stdout: a change to how quotients are scored must
# leave the ledger byte-identical.
PREDICT_STDOUT_SHA256 = [
    (["--word", "1,2,1*,2*", "--blocks", "1,1,0"], None,
     "71919c5b1b9f136341759a0779ea23eb32b66a0383f5c8eccc39804a6f494ae3"),
    (["--word", "1,2,1*", "--blocks", "1,0,1"], None,
     "ced836b69374654597c4c0c5ddf59d7e4c63b4186c7c5869473dd845ce511b30"),
    (["--word", "1,2", "--blocks", "1,1,0", "--variance"], None,
     "1aa7685497ef69f47abaf37067da6c49a7f2a7590195a53a48d3aedb8ff1ac29"),
    (["--word", "1,2*", "--blocks", "1,1,0"],
     {"vertices": 3, "edges": [[0, 0], [0, 0]]},
     "541423e24cf03511ff0f2c7b322841d2d6770ed8c04151cf116c535d5da099ba"),
    # a bridge doubled: the only small case with VALID entries
    (["--word", "1,2*", "--blocks", "1,0,0", "--variance"],
     {"vertices": 2, "edges": [[0, 1]]},
     "dfdd0bd2c7625e7c7ea55f35baf5b377eab9c6acef662b4bfde60d29a6a382b1"),
    # the three B(9) ledgers of the benchmark's `lattice` workload
    (["--word", "1,2,1*,2*,1", "--blocks", "1,1,0"], None,
     "cd29af5b02a1d9f4399887750379ec104bdcfe99a83886848598a8b9e0a1bec7"),
    (["--word", "2,1,2*,1*,2", "--blocks", "1,1,0"], None,
     "120b4068523f5ec0e556759f7c0cfe05e07f4496c71b239674afc83947249b28"),
    (["--word", "1,2*,1*,2,1", "--blocks", "1,1,0"], None,
     "07763135226dcf932bda19762aa6d75a3e3bef4d2dc04542a3c0e0cdae176053"),
]


@pytest.mark.parametrize("argv,graph,digest", PREDICT_STDOUT_SHA256)
def test_predict_stdout_is_pinned(argv, graph, digest, capsys, tmp_path):
    if graph is not None:
        path = tmp_path / "base.json"
        path.write_text(json.dumps(graph))
        argv = argv + ["--graph", str(path)]
    code, out, _ = run_cli(["predict"] + argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_predict_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "certificate.json"
    code, out, _ = run_cli(["predict", "--word", "1,2,1*", "--blocks", "1,0,1",
                            "--out", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")


# SHA-256 of stdout and the exit code of one fast command per remaining
# subcommand. Every N stays <= 64 to keep them fast; criterion 12 checks
# seeded bytes at N = 128 across BLAS and worker thread counts.
SUBCOMMAND_STDOUT_SHA256 = [
    ("mc --state tracial --word 1,2,1*,2* --blocks 1,0,1 --dims 8,16 "
     "--samples 40 --seed 3 --v-mode haar",
     0, "ec75a3fe68b4afffe672b2d5a257bb778de1d610deeeb9fb636dd1c2928fcb11"),
    ("mc --state entangled --word 1,2,1*,2* --blocks 1,0,1 --dims 8,16 "
     "--samples 40 --seed 3 --v-mode haar",
     0, "2cdab3fd220e88807e62b48d7dc9c2d0d042bee7066127482e98da183b9363ac"),
    ("mc --state diagonal --word 1,2,1*,2* --blocks 1,0,1 --dims 8,16 "
     "--samples 40 --seed 3 --v-mode haar --format json",
     0, "a06cbde242af1b4f4cfb0e081c9028dd75eae3b46d3d2bd3a85f1f5847a0fa11"),
    ("character --lambda 2,1 --mu 1 --dims 8,16 --samples 40 --seed 5",
     0, "d68231b9294ac8c77bcbacc0604fbc8ec795b2d81f777f836cc78d3fa40f95f9"),
    ("character --lambda 1 --word 1,2*,1 --dims 8,16 --samples 40 "
     "--seed 5 --format json",
     0, "075c92cb50c202669827bda0c572b29c16d8bb69b42dd0fe7d46f93fea983512"),
    ("amalgam --d 2 --word 1,2,1*,2* --dims 4,6 --samples 4 --seed 2",
     0, "a5f7e331ff96e2bff23294919774aaf0a3b5fe774b36465adb87e41a997bc483"),
    ("amalgam --d 3 --word 1,2* --dims 5 --samples 3 --seed 2 "
     "--format json",
     0, "296d7c184e92d086e3a12c5792f185ab780df616ee4b32e97dbaae35ce145920"),
    ("decompose --state entangled --k 2 --n 5 --seed 4",
     0, "870a51578a595969448749f55468fc6a88320c5590e1d15cced82848522ce902"),
    ("decompose --state diagonal --k 3 --n 6 --seed 4",
     0, "4d8142d73413ecbefdf330c5e231e5e9dfb36a4b2581bdf39665e98d308ce6b7"),
    ("decompose --state tracial --k 4 --n 8 --seed 3",
     0, "be51eccabb22708d6853d2d68c35a2613d7e4b0197d33af76de036f23bfc691c"),
    ("decompose --state entangled --k 4 --n 8 --seed 4",
     0, "6454a6eb2e7db217fb809cf212ed80ba1770689aed6569e251606ee986ba0e78"),
    ("trace --graph {graph} --operand {op4}",
     0, "9f4be8246c8c25d512f45781fe2e515b269021d28d39b511c8f08f79ce9f8865"),
    ("trace --graph {graph} --operand {op4} --injective",
     0, "5afbb8ee3f5a5479352673e4709d23aed0bf5120bab202ed99ca4fcec4d48c9f"),
    ("trace --graph {graph} --operand {op4} --zeta",
     0, "4a9941f2e2b5afadc61c90aa785700fda53d0a85283ddfc32d48162bf11bb79d"),
    ("trace --graph {graph} --operand {op4} --tau",
     0, "970e46a91e1a796a1aa6bb4e8bd9c18c3c798d6e8eb937740c167ce196904b12"),
    ("trace --graph {graph} --operand {op2} --letters 0,1,1,0 --injective",
     0, "a2f2bc725727d18ad94463fb9f4c51f76a48afed011c39ade3ae5c549d9a6a2d"),
    ("invariants --graph {labeled}",
     0, "45c3d70927a9d45aec3285da12e6d398717a3cb3add329a6b69f06d29f18b1b9"),
    ("limit --graph {labeled}",
     0, "20077b6760c05aa730b5e763707aef6dadaf032dbafc573bdc65fdaa64863cbf"),
    ("mobius --n 5",
     0, "4aeff0bb60c2f2f113b4f38dd8b9113cc9055c517b6487fcc3d38341106d28c8"),
    ("mobius --n 4 --format csv",
     0, "12993ef77aa018cdf40546abe62f77ae7e682997314d44775c91110c580af040"),
    ("normdemo --letters 3 --n 6 --mode haar_pair --seed 1",
     0, "f0107038eee04f5fc149c86fced139c76c1e06cb8a907c43d53b6e72009b0650"),
    ("selftest",
     0, "ab7891509a9d99e7c84799390395582535ea28b7037a90cc337d8004f44697c9"),
]


def _pinned_inputs(tmp_path) -> dict:
    rng = np.random.default_rng(11)
    (tmp_path / "graph.json").write_text(json.dumps(
        {"vertices": 4, "edges": [[0, 1], [0, 2], [3, 0], [1, 1]]}))
    (tmp_path / "labeled.json").write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 1]],
         "labels": {"delta": [1, 1, 2, 2], "eps": ["u", "s", "u", "s"]}}))
    for name, k in (("op4", 4), ("op2", 2)):
        np.save(tmp_path / f"{name}.npy", rng.standard_normal((k, 4, 4))
                + 1j * rng.standard_normal((k, 4, 4)))
    return {"graph": str(tmp_path / "graph.json"),
            "labeled": str(tmp_path / "labeled.json"),
            "op4": str(tmp_path / "op4.npy"), "op2": str(tmp_path / "op2.npy")}


@pytest.mark.parametrize("command,rc,digest", SUBCOMMAND_STDOUT_SHA256)
def test_subcommand_stdout_is_pinned(command, rc, digest, capsys, tmp_path):
    paths = _pinned_inputs(tmp_path)
    code, out, _ = run_cli([a.format(**paths) for a in command.split()],
                           capsys)
    assert code == rc
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["trace", "--graph", "g.json", "--operand", "o.npy", "--format", "csv"],
    ["invariants", "--graph", "g.json", "--format", "csv"],
    ["decompose", "--state", "tracial", "--k", "2", "--n", "4",
     "--format", "csv"],
    ["predict", "--word", "1,2", "--blocks", "1,0,0", "--format", "csv"],
    ["limit", "--graph", "g.json", "--format", "csv"],
    ["normdemo", "--letters", "2", "--n", "4", "--mode", "haar_pair",
     "--format", "csv"],
    ["selftest", "--format", "json"],
])
def test_format_offered_only_where_printed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_both_formats_where_both_are_printed():
    parser = build_parser()
    for argv in (["mobius", "--n", "3"],
                 ["mc", "--state", "tracial", "--word", "1", "--blocks",
                  "1,0,0", "--dims", "4"],
                 ["character", "--dims", "4"],
                 ["amalgam", "--d", "2", "--word", "1", "--dims", "4"]):
        for fmt in ("json", "csv"):
            assert parser.parse_args(argv + ["--format", fmt]).format == fmt
    assert parser.parse_args(["predict", "--word", "1", "--blocks", "1,0,0",
                              "--format", "json"]).format == "json"


def test_exit_code_invalid_argument(capsys):
    code, _, err = run_cli(["predict", "--word", "1,1*", "--blocks", "1,0,0"],
                           capsys)
    assert code == 2 and "identity" in err


def test_exit_code_resource_limit(capsys):
    code, _, err = run_cli(["mobius", "--n", "13"], capsys)
    assert code == 3


def test_missing_file_is_invalid_argument(capsys, tmp_path):
    code, _, _ = run_cli(["trace", "--graph", str(tmp_path / "nope.json"),
                          "--operand", str(tmp_path / "nope.npy")], capsys)
    assert code == 2


def test_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(["mc", "--state", "tracial", "--word", "1",
                            "--blocks", "1,0,0", "--dims", "4",
                            "--samples", "8", "--seed", "7",
                            "--threads", "1", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == out


def test_determinism_across_invocations_and_threads(capsys):
    args = ["mc", "--state", "tracial", "--word", "1,2,1*,2*",
            "--blocks", "1,1,0", "--dims", "8", "--samples", "40",
            "--seed", "11"]
    _, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    _, out2, _ = run_cli(args + ["--threads", "2"], capsys)
    _, out3, _ = run_cli(args + ["--threads", "1"], capsys)
    assert out1 == out2 == out3


def test_help_for_every_subcommand():
    parser = build_parser()
    subcommands = ["trace", "invariants", "mobius", "decompose", "predict",
                   "mc", "limit", "character", "amalgam", "normdemo",
                   "selftest"]
    for name in subcommands:
        proc = subprocess.run(
            [sys.executable, "-m", "tensortraffic.cli", name, "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0, name
        assert name in proc.stdout


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "tensortraffic.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


MALFORMED_FILES = {
    "no_coefficients.json": {"K": 1},
    "no_k.json": {"coefficients": {"0,0": [1.0, 0.0]}},
    "no_eps.json": {"vertices": 1, "edges": [[0, 0]],
                    "labels": {"delta": [1]}},
    "no_delta.json": {"vertices": 1, "edges": [[0, 0]],
                      "labels": {"eps": ["u"]}},
    "loop.json": {"vertices": 1, "edges": [[0, 0]]},
    "bad_operand.json": [[["x"]]],
    "not_array.npy": {"vertices": 1},
    # a star is "u" or "s", and every count, endpoint and letter a JSON int
    "eps_capital.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                         "labels": {"delta": [1, 1], "eps": ["u", "S"]}},
    "eps_true.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                      "labels": {"delta": [1, 1], "eps": ["u", True]}},
    "eps_x.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                   "labels": {"delta": [1, 1], "eps": ["u", "x"]}},
    # labels are arrays: a string or an object is not read as one
    "eps_string.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                        "labels": {"delta": [1, 1], "eps": "us"}},
    "eps_object.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                        "labels": {"delta": [1, 1], "eps": {"u": 0, "s": 0}}},
    "float_vertices.json": {"vertices": 2.9, "edges": [[0, 1], [1, 0]]},
    "string_vertices.json": {"vertices": "2", "edges": [[0, 1], [1, 0]]},
    "float_endpoint.json": {"vertices": 2, "edges": [[0, 1.7], [1, 0]]},
    "float_delta.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                         "labels": {"delta": [1, 1.7], "eps": ["u", "s"]}},
    "bool_delta.json": {"vertices": 2, "edges": [[0, 1], [1, 0]],
                        "labels": {"delta": [1, True], "eps": ["u", "s"]}},
    # a complex number is a number or exactly two, and K an integer
    "triple_operand.json": [[[[1, 2, 3]]]],
    "string_operand.json": [[["1+2j"]]],
    "triple_coefficient.json": {"K": 1, "coefficients": {
        "0,0": [0.25, 0, 9], "0,1": [0.0, 0.0]}},
    "float_k.json": {"K": 1.9, "coefficients": {
        "0,0": [0.25, 0.0], "0,1": [0.0, 0.0]}},
}

MALFORMED_ARRAYS = {
    "one_d.npy": np.arange(3.0),
    "objects.npy": np.array([None, {}], dtype=object),
}


@pytest.mark.parametrize("argv", [
    ["mc", "--state", "tracial", "--word", "1", "--blocks", "1,0",
     "--dims", "4", "--samples", "4"],
    ["predict", "--word", "1,2", "--blocks", "1,0"],
    ["decompose", "--state", "@no_coefficients.json", "--k", "1", "--n", "2"],
    ["decompose", "--state", "@no_k.json", "--k", "1", "--n", "2"],
    ["invariants", "--graph", "@no_eps.json"],
    ["limit", "--graph", "@no_delta.json"],
    ["trace", "--graph", "@loop.json", "--operand", "@bad_operand.json"],
    ["trace", "--graph", "@loop.json", "--operand", "@not_array.npy"],
    ["trace", "--graph", "@loop.json", "--operand", "@one_d.npy"],
    ["trace", "--graph", "@loop.json", "--operand", "@objects.npy"],
    ["character", "--lambda", "1", "--dims", "4", "--samples", "0"],
    ["amalgam", "--d", "2", "--word", "1,2", "--dims", "4", "--samples", "0"],
    ["mc", "--state", "tracial", "--word", "1", "--blocks", "1,0,0",
     "--dims", ",", "--samples", "4"],
    ["character", "--lambda", "1", "--dims", ",", "--samples", "4"],
    ["amalgam", "--d", "2", "--word", "1,2", "--dims", ",", "--samples", "4"],
    ["amalgam", "--d", "2", "--word", "1,2", "--dims", "2", "--samples", "4"],
    ["normdemo", "--letters", "3", "--n", "-70", "--mode", "haar_pair"],
    ["amalgam", "--d", "0", "--word", "1,2", "--dims", "4", "--samples", "4"],
    ["character", "--lambda", "1", "--dims", "0", "--samples", "4"],
    ["limit", "--graph", "@eps_capital.json"],
    ["limit", "--graph", "@eps_true.json"],
    ["limit", "--graph", "@eps_x.json"],
    ["limit", "--graph", "@eps_string.json"],
    ["limit", "--graph", "@eps_object.json"],
    ["invariants", "--graph", "@float_vertices.json"],
    ["invariants", "--graph", "@string_vertices.json"],
    ["invariants", "--graph", "@float_endpoint.json"],
    ["limit", "--graph", "@float_delta.json"],
    ["limit", "--graph", "@bool_delta.json"],
    ["trace", "--graph", "@loop.json", "--operand", "@triple_operand.json"],
    ["trace", "--graph", "@loop.json", "--operand", "@string_operand.json"],
    ["mc", "--state", "@triple_coefficient.json", "--word", "1",
     "--blocks", "1,0,0", "--dims", "4", "--samples", "4"],
    ["mc", "--state", "@float_k.json", "--word", "1", "--blocks", "1,0,0",
     "--dims", "4", "--samples", "4"],
], ids=lambda argv: " ".join(argv))
def test_malformed_input_exits_2(argv, tmp_path, capsys):
    for name, doc in MALFORMED_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for name, arr in MALFORMED_ARRAYS.items():
        np.save(tmp_path / name, arr, allow_pickle=True)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["amalgam", "--d", "0", "--word", "1,2", "--dims", "4", "--samples", "4"],
    ["amalgam", "--d", "-1", "--word", "1,2", "--dims", "4", "--samples", "4"],
    ["character", "--lambda", "1", "--dims", "0", "--samples", "4"],
    ["mc", "--state", "tracial", "--word", "1", "--blocks", "1,0,0",
     "--dims", "4,-2", "--samples", "4"],
], ids=lambda argv: " ".join(argv))
def test_invalid_d_and_dims_exit_2_before_any_haar_draw(argv, capsys,
                                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Haar unitary was drawn")

    monkeypatch.setattr(sampling, "sample_haar_unitary", refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2, err
    assert out == "" and err.startswith("error: ")


def test_npy_header_with_unbalanced_bracket_exits_2(tmp_path, capsys,
                                                    loop_json):
    # numpy retries an unparsable version-1 header through tokenize, which
    # raises its own TokenError on an unclosed bracket
    buf = io.BytesIO()
    np.save(buf, np.eye(2))
    data = buf.getvalue()
    path = tmp_path / "torn.npy"
    # the header's closing newline (byte 127) becomes an opening brace
    path.write_bytes(data[:127] + b"{" + data[128:])
    code, out, err = run_cli(["trace", "--graph", loop_json,
                              "--operand", str(path)], capsys)
    assert code == 2, err
    assert out == "" and err.startswith("error: ")


def test_decompose_beyond_the_enumeration_cap_exits_3_before_enumerating(
        capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("partitions enumerated beyond the cap")

    monkeypatch.setattr(partitions, "restricted_growth_strings", refuse)
    monkeypatch.setattr(traces, "mobius_table", refuse)
    code, out, err = run_cli(["decompose", "--state", "tracial", "--k", "7",
                              "--n", "14"], capsys)
    assert code == 3, err
    assert out == "" and err.startswith("resource limit: ")


def test_predict_beyond_the_vertex_cap_exits_3_before_walking(capsys,
                                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quotients walked beyond the cap")

    monkeypatch.setattr(haar, "quotient_forests", refuse)
    # 1 + 3 * 4 = 13 vertices > PREDICT_VERTEX_CAP
    code, out, err = run_cli(["predict", "--word", "1,2,1,2,1",
                              "--blocks", "1,1,1"], capsys)
    assert code == 3, err
    assert out == "" and err.startswith("resource limit: ")
    assert 13 > haar.PREDICT_VERTEX_CAP


# NaN > 1e-9 is False, and 1e308 * N - 1e308 * N is inf - inf = NaN
@pytest.mark.parametrize("text", [
    '{"K": 1, "coefficients": {"0,0": [NaN, 0], "0,1": [0.1, 0]}}',
    '{"K": 1, "coefficients": {"0,0": [1e308, 0], "0,1": [-1e308, 0]}}',
], ids=("nan", "overflow"))
@pytest.mark.parametrize("command", [
    ["decompose", "--k", "1", "--n", "4"],
    ["mc", "--word", "1", "--blocks", "1,0,0", "--dims", "4",
     "--samples", "4"],
], ids=lambda argv: argv[0])
def test_non_finite_coefficient_file_exits_2(text, command, tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    code, out, err = run_cli(command + ["--state", str(path)], capsys)
    assert code == 2, err
    assert out == "" and "not unital" in err


def test_decompose_nan_residual_exits_4(capsys, monkeypatch):
    # max(0.0, nan) is 0.0: the worst residual must keep a NaN from any probe
    calls = []
    reconstruct = cli.reconstruction_value

    def nan_first(coeffs, probe):
        calls.append(probe)
        return complex("nan") if len(calls) == 1 else reconstruct(coeffs,
                                                                  probe)

    monkeypatch.setattr(cli, "reconstruction_value", nan_first)
    code, out, err = run_cli(["decompose", "--state", "tracial", "--k", "1",
                              "--n", "4"], capsys)
    assert code == 4, err
    assert len(calls) == 5
    assert out == "" and err.startswith("numerical failure: ")


@pytest.mark.parametrize("doc", [
    {"vertices": 100_001, "edges": [[0, 0]]},
    {"vertices": 1, "edges": [[0, 0]] * 100_001},
], ids=("vertices", "edges"))
def test_oversized_graph_exits_3_before_building_it(doc, tmp_path, capsys,
                                                    monkeypatch):
    def no_graph(*args):
        raise AssertionError("a LinearGraph was built")

    monkeypatch.setattr(graphs, "LinearGraph", no_graph)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["invariants", "--graph", str(path)], capsys)
    assert code == 3, err
    assert out == "" and err.startswith("resource limit: ")


# A whole graph's forest is near-linear: `invariants` on a 100,000-vertex
# path or cycle, or on a 50,000-vertex path with 50,001 random chords, takes
# 1-2 s on a 2-core VM. A forest that rewrote a tree on every join, or kept
# each vertex's path to its root, would take 10^10 steps on the first two;
# one that climbed covered edges again took 40 s on the chords. The timeout
# stops such runs.
@pytest.mark.parametrize("shape", ["path", "cycle", "chords"])
def test_invariants_at_the_graph_size_cap(shape, tmp_path):
    n = graphs.GRAPH_SIZE_CAP // (2 if shape == "chords" else 1)
    edges = [[v, v + 1] for v in range(n - 1)]
    if shape == "cycle":
        edges.append([n - 1, 0])
    if shape == "chords":
        rng = np.random.default_rng(23)
        edges += rng.integers(n, size=(n + 1, 2)).tolist()
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "vertices": n, "edges": edges,
        "labels": {"delta": [1] * len(edges),
                   "eps": ["u", "s"] * (len(edges) // 2)
                   + ["u"] * (len(edges) % 2)}}))
    proc = subprocess.run(
        [sys.executable, "-m", "tensortraffic.cli", "invariants", "--graph",
         str(path)], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["components"] == 1
    if shape == "chords":
        blocks, leaves, _ = _decompose(n, [tuple(e) for e in edges])
        loops = {e for e, (s, t) in enumerate(edges) if s == t}
        assert doc["bridges"] == sorted(
            b[0] for b in blocks if len(b) == 1 and b[0] not in loops)
        assert doc["leaf_count"] == leaves
        assert not doc["cactus"] and doc["validity"] == "not_cactus"
        return
    assert doc["leaf_count"] == 2
    if shape == "path":
        assert doc["bridges"] == list(range(n - 1))
        assert len(doc["tec_components"]) == n
        assert not doc["cactus"] and doc["validity"] == "not_cactus"
    else:
        assert doc["bridges"] == [] and doc["tec_components"] == [
            list(range(n))]
        assert doc["cactus"] and doc["well_oriented"]
        assert doc["validity"] == "valid"


@pytest.mark.parametrize("argv", [
    ["amalgam", "--d", "5", "--word", "1,2", "--dims", "6", "--samples", "4"],
    # 2^17 letter subsets, past the 2^16 walked per sample
    ["amalgam", "--d", "2", "--word", ",".join(["1", "2"] * 8 + ["1"]),
     "--dims", "6", "--samples", "2"],
], ids=lambda argv: " ".join(argv))
def test_amalgam_guards_fire_before_sampling(argv, capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a Haar sample was drawn")

    monkeypatch.setattr(sampling, "sample_haar_unitary", no_sampling)
    code, out, err = run_cli(argv, capsys)
    assert code == 3, err
    assert out == "" and err.startswith("resource limit: ")


MC_ARGS = ["mc", "--state", "tracial", "--blocks", "1,0,0"]


@pytest.mark.parametrize("argv,code", [
    (MC_ARGS + ["--word", "1", "--dims", "4", "--samples", "4",
                "--threads", "0"], 2),
    (MC_ARGS + ["--word", "1", "--dims", "4", "--samples", "4",
                "--threads", "-3"], 2),
    (MC_ARGS + ["--word", "1,1*", "--dims", "4", "--samples", "4",
                "--threads", "0"], 2),
    (MC_ARGS + ["--word", "1", "--dims", "4", "--samples", "100000",
                "--threads", "100000"], 3),
    (MC_ARGS + ["--word", "1", "--dims", "4", "--samples", "4",
                "--threads", "65"], 3),
    (MC_ARGS + ["--word", "1", "--dims", "60000", "--samples", "4"], 3),
    (["character", "--lambda", "1", "--dims", "8,60000", "--samples", "4"], 3),
    (["amalgam", "--d", "1", "--word", "1,2", "--dims", "60000",
      "--samples", "4"], 3),
    (["decompose", "--state", "tracial", "--k", "1", "--n", "60000"], 3),
    (["mc", "--state", "tracial", "--blocks", "0,1,0", "--word", "1",
      "--dims", "4", "--samples", "4"], 2),
    (["mc", "--state", "tracial", "--blocks", "1,2,-1", "--word", "1",
      "--dims", "4", "--samples", "4"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_thread_and_dimension_guards_fire_before_any_work(argv, code, capsys,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started behind a guard")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(sampling, "sample_haar_unitary", refuse)
    monkeypatch.setattr(cli, "decompose_invariant_state", refuse)
    got, out, err = run_cli(argv, capsys)
    assert got == code, err
    prefix = "error: " if code == 2 else "resource limit: "
    assert out == "" and err.startswith(prefix)


SCALARS = (st.none()| st.booleans() | st.integers() | st.floats()
           | st.sampled_from([10 ** 400, -(10 ** 400), float("inf"),
                              float("nan")])
           | st.text(alphabet="0123,-.ejsux", max_size=6))
JSON_VALUES = st.recursive(
    SCALARS, lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=16)
FIELDS = SCALARS | st.lists(SCALARS, max_size=4) | JSON_VALUES
GRAPH_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"vertices": FIELDS,
     "edges": FIELDS | st.lists(st.lists(SCALARS, max_size=3), max_size=4)},
    optional={"labels": st.fixed_dictionaries(
        {}, optional={"delta": FIELDS, "eps": FIELDS})})
COEFFICIENT_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"K": FIELDS,
     "coefficients": st.dictionaries(st.text(alphabet="0123,-", max_size=6),
                                     FIELDS, max_size=3)})
OPERAND_DOCS = JSON_VALUES | st.lists(st.lists(
    st.lists(FIELDS, max_size=3), max_size=3), max_size=3)
NPY_SEEDS = []
for arr in (np.eye(2), np.ones((2, 3, 3), dtype=np.complex64),
            np.arange(4, dtype=np.int8)):
    buf = io.BytesIO()
    np.save(buf, arr)
    NPY_SEEDS.append(buf.getvalue())
NPY_BYTES = st.binary(max_size=200) | st.builds(
    lambda seed, cut, tail: seed[:cut] + tail, st.sampled_from(NPY_SEEDS),
    st.integers(0, 200), st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(graph=GRAPH_DOCS, coeffs=COEFFICIENT_DOCS, operand=OPERAND_DOCS,
       npy=NPY_BYTES)
def test_loaders_raise_only_package_errors(tmp_path_factory, graph, coeffs,
                                           operand, npy):
    """Whatever a graph, coefficient or operand file holds, loading it
    either succeeds or raises a TensorTrafficError (an exit code, not a
    traceback)."""
    folder = tmp_path_factory.getbasetemp() / "loaders"
    folder.mkdir(exist_ok=True)
    calls = []
    for name, doc, load in (
            ("graph.json", graph, load_graph),
            ("coeffs.json", coeffs, lambda path: _state_for(path, 1, 2)),
            ("operand.json", operand, _load_operand)):
        (folder / name).write_text(json.dumps(doc))
        calls.append((load, folder / name))
    (folder / "operand.npy").write_bytes(npy)
    calls.append((_load_operand, folder / "operand.npy"))
    for load, path in calls:
        try:
            load(str(path))
        except TensorTrafficError:
            pass


# Whole-argv fuzz: a well-formed command of each subcommand, or one with a
# token replaced by junk. Inputs stay small (N <= 16, samples <= 8, short
# words, junk numbers <= 4 or 65) so every accepted command finishes in
# well under a second.
def _csv(items, max_size=3):
    return st.lists(items, min_size=1, max_size=max_size).map(
        lambda xs: ",".join(map(str, xs)))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _command(name, required, optional=None):
    """argv of one subcommand; an option drawn as None is a bare flag."""
    return st.fixed_dictionaries(required, optional=optional or {}).map(
        lambda opts: [name] + [tok for key, value in opts.items()
                               for tok in ((key,) if value is None
                                           else (key, value))])


def _corrupt(argv, at, junk):
    if at is None:
        return argv
    argv = list(argv)
    argv[at % len(argv)] = junk
    return argv


WORDS = _csv(st.builds(lambda i, star: f"{i}{'*' * star}", st.integers(1, 3),
                       st.booleans()), max_size=4)
BLOCKS = st.builds(lambda *k: ",".join(map(str, k)), st.integers(1, 2),
                   st.integers(0, 2), st.integers(0, 2))
PARTS = st.lists(st.integers(1, 3), max_size=3).map(
    lambda xs: ",".join(map(str, sorted(xs, reverse=True))))
STATES = st.sampled_from(["tracial", "entangled", "diagonal"])
SEEDS = st.integers(-1, 2 ** 65).map(str)
SAMPLES = _ints(2, 8)


def _dims(top):
    return st.sets(st.integers(1, top), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, sorted(ns))))


COMMANDS = st.one_of(
    _command("mc", {"--state": STATES, "--word": WORDS, "--blocks": BLOCKS,
                    "--dims": _dims(16), "--samples": SAMPLES},
             {"--seed": SEEDS,
              "--format": st.sampled_from(["csv", "json"]),
              "--v-mode": st.sampled_from(["perm", "haar"]),
              "--threads": st.sampled_from(["-1", "0", "1", "2", "65"])}),
    _command("character", {"--dims": _dims(16), "--samples": SAMPLES},
             {"--lambda": PARTS, "--mu": PARTS, "--word": WORDS,
              "--seed": SEEDS}),
    _command("amalgam", {"--d": _ints(1, 4), "--word": WORDS,
                         "--dims": _dims(16), "--samples": SAMPLES},
             {"--seed": SEEDS}),
    # two letters on K <= 3 legs keep the (doubled, with --variance) graph
    # at B(8) or below
    _command("predict", {"--word": _csv(st.sampled_from(["1", "2*", "3"]),
                                        max_size=2),
                         "--blocks": st.sampled_from(["1,0,0", "1,1,0",
                                                      "1,0,1", "2,0,1",
                                                      "1,1,1"])},
             {"--variance": st.none()}),
    _command("mobius", {"--n": _ints(1, 8)}),
    _command("decompose", {"--state": STATES, "--k": _ints(1, 4),
                           "--n": _ints(1, 16)}, {"--seed": SEEDS}),
    _command("normdemo", {"--letters": _ints(1, 4), "--n": _ints(1, 16),
                          "--mode": st.sampled_from(["haar_pair",
                                                     "conjugate_pair"])},
             {"--seed": SEEDS}),
    _command("selftest", {}))
JUNK = st.sampled_from(["-1", "0", "1", "65", "", "2,1", "1,,2", "0*",
                        "--bogus", "--version"]) \
    | st.text(alphabet="01234,*- x", max_size=1)
ARGVS = st.builds(_corrupt, COMMANDS, st.none() | st.integers(0, 20), JUNK)


@settings(max_examples=150, deadline=None)
@given(argv=ARGVS)
def test_any_argv_exits_with_a_contract_code(argv):
    """Whatever the command line, the CLI exits 0, 2, 3 or 4 and never ends
    in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --version
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import orient_boost
from orient_boost import counting, designs
from orient_boost.cli import build_parser, main
from orient_boost.orientations import make_pattern, tournament_from_hex_text, tournament_from_json, transitive_tournament
from orient_boost.reports import render_csv, write_report
from orient_boost.sampling import circulant_regular_tournament


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal(capsys, *argv):
    """The error of a refused run, which exits 2 with nothing on stdout and one JSON line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (2, "", 1)
    return json.loads(err)


def test_solve_subcommand(capsys):
    code, out, _ = run(capsys, "solve", "--eps", "1", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == 7 and obj["delta"] == 0.05


def test_boost_formula_subcommand(capsys):
    code, out, _ = run(capsys, "boost-formula", "--k", "1", "--t", "10001")
    assert code == 0
    assert abs(json.loads(out)["value"] / math.e - 1) < 1e-3


def test_stats_subcommand(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text('{"n": 3, "edges": [[0,1],[1,2],[2,0]]}')
    code, out, _ = run(capsys, "stats", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["plus"] == 3 and obj["minus"] == 0 and obj["f"] == 1


def test_stats_of_a_huge_empty_pattern_is_reported_at_once(capsys, tmp_path):
    path = tmp_path / "huge-pattern.json"
    path.write_text('{"n": 1000000000000, "edges": []}')
    code, out, _ = run(capsys, "stats", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["e"] == 0 and obj["maxdeg"] == 0 and obj["k_regular"] == 0 and obj["eulerian"] is False


def test_stats_rejects_two_cycle(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": [[0,1],[1,0]]}')
    obj = refusal(capsys, "stats", "--input", str(path))
    assert obj["error"] == "InvalidOrientationError"
    assert "2-cycle" in obj["message"] and "0" in obj["message"] and "1" in obj["message"]


def test_decompose_and_validate(capsys, tmp_path):
    out_path = tmp_path / "d9.json"
    code, out, _ = run(capsys, "decompose", "--n", "9", "--t", "3",
                       "--output", str(out_path))
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["valid"] is True
    code, out, _ = run(capsys, "validate", "--input", str(out_path))
    assert code == 0 and json.loads(out)["valid"] is True


def test_decompose_even(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "8", "--t", "3")
    assert code == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert last["valid"] is True and last["n"] == 8


def test_decompose_infeasible(capsys):
    assert refusal(capsys, "decompose", "--n", "13", "--t", "5")["error"] == "InfeasibleAtDeskScale"


def test_decompose_names_the_node_budget_it_ran_out_of(capsys):
    assert refusal(capsys, "decompose", "--n", "23", "--t", "5", "--node-budget", "20000") == {
        "error": "InfeasibleAtDeskScale",
        "message": "design search at (n=23, t=5) exceeded the node budget of 20000 nodes",
    }


def test_decompose_even_refusal_names_the_n_asked_for(capsys):
    assert refusal(capsys, "decompose", "--n", "24", "--t", "5", "--node-budget", "1") == {
        "error": "InfeasibleAtDeskScale",
        "message": "n=24 extends the design on n=23: "
                   "design search at (n=23, t=5) exceeded the node budget of 1 nodes",
    }


def test_sample_formats_and_determinism(capsys, tmp_path):
    code, out1, _ = run(capsys, "sample", "--n", "7", "--t", "3", "--seed", "3",
                        "--samples", "3", "--format", "hex")
    assert code == 0
    code, out2, _ = run(capsys, "sample", "--n", "7", "--t", "3", "--seed", "3",
                        "--samples", "3", "--format", "hex")
    assert out1 == out2
    first = out1.split("\n\n")[0]
    assert tournament_from_hex_text(first).is_regular()
    code, out3, _ = run(capsys, "sample", "--n", "7", "--t", "3", "--seed", "3",
                        "--samples", "1", "--format", "json")
    t = tournament_from_json(out3.strip().splitlines()[0])
    assert t.is_regular()
    assert t.rows == tournament_from_hex_text(first).rows


# Golden pins: sha256 of `sample` output recorded before the sampler drew
# through a per-design plan.  (25,5) holds KT blocks only, (11,3) one K2T1
# block, (26,5) star-paths and an edge; the CI job checks the (25,5) hex pin
# through the console script on a design written by `decompose`.
@pytest.mark.parametrize("argv,fmt,digest", [
    (["--n", "25", "--t", "5", "--samples", "400"], "hex",
     "171c2168f2bbadaf5103795bfd9bf72766bc07c79bc1faf33da4689b4d67dc85"),
    (["--n", "25", "--t", "5", "--samples", "400"], "json",
     "b7a6b3065b914d8a6b4981b0f3c8d381e73219d656a7b75e33ab865aa288fd96"),
    (["--n", "11", "--t", "3", "--samples", "200"], "hex",
     "c05370c1604a4206684b376350bae711616e6f258d0cbb53bdc87d51b6dbcefd"),
    (["--n", "11", "--t", "3", "--samples", "200"], "json",
     "0aa658e4066561a18c5010ee5c0280ae01a34c955a8ec4064afe4a380379e8df"),
    (["--n", "26", "--t", "5", "--samples", "100"], "hex",
     "b2b34e061be6b066a683b944e663a3ec15439b339660786af59173b40d741e25"),
    (["--n", "26", "--t", "5", "--samples", "100"], "json",
     "c80557974ed1f51496a536789d0b738e39c54117e17a50acd094764a3a876b66"),
])
def test_sample_output_is_pinned(capsys, argv, fmt, digest):
    code, out, _ = run(capsys, "sample", *argv, "--seed", "1", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("to", ["output", "stdout"])
def test_sample_holds_one_draw_at_a_time(tmp_path, monkeypatch, to):
    # each draw is written as it is made, so 4,000 draws peak at under twice the memory of 400;
    # stdout is a file here, since a capture would hold what it is given
    monkeypatch.chdir(tmp_path)
    peaks = []
    for samples in (400, 4000):
        argv = ["sample", "--n", "9", "--t", "3", "--seed", "1", "--samples", str(samples), "--format", "json"]
        with open("stdout.txt", "w") as stdout, monkeypatch.context() as m:
            m.setattr(sys, "stdout", stdout)
            tracemalloc.start()
            try:
                assert main(argv + (["--output", "t.json"] if to == "output" else [])) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    drawn = (tmp_path / ("t.json" if to == "output" else "stdout.txt")).read_text()
    assert drawn.count("\n") == 4000
    assert peaks[1] < 2 * peaks[0]


def test_count_methods_agree(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, out, _ = run(capsys, "sample", "--n", "7", "--t", "3", "--seed", "11",
                       "--samples", "1", "--output", str(path))
    assert code == 0
    code, out_dp, _ = run(capsys, "count", "--pattern", "cycle", "--n", "7",
                          "--tournament", str(path), "--method", "dp")
    code, out_brute, _ = run(capsys, "count", "--pattern", "cycle", "--n", "7",
                             "--tournament", str(path), "--method", "brute")
    assert json.loads(out_dp)["labeled_copies"] == json.loads(out_brute)["labeled_copies"]


@pytest.fixture
def tournament7(capsys, tmp_path):
    path = tmp_path / "t7.json"
    code, _, _ = run(capsys, "sample", "--n", "7", "--seed", "3", "--output", str(path))
    assert code == 0
    return str(path)


@pytest.mark.parametrize("name, text, message, flag", [
    ("keys.json", '{"n": 3}', "malformed tournament: KeyError('edges')", "--tournament"),
    ("edges.json", '{"n": 3, "edges": 5}', "malformed tournament: TypeError(", "--tournament"),
    ("short.hex", "9\n" + "ff\n" * 9, "hex row 0 has 1 bytes, expected 2", "--tournament"),
    # an integer of a file must be a JSON integer, not a bool, float or string
    ("bool.json", '{"n": true, "edges": []}', "malformed tournament: TypeError('expected an integer, got True')",
     "--tournament"),
    ("float.json", '{"n": 3.5, "edges": []}', "malformed orientation: TypeError('expected an integer, got 3.5')",
     "--pattern-file"),
    ("vertex.json", '{"n": 7, "t": 3, "blocks": [{"kind": "C3", "vertices": [0, 1, "2"]}]}',
     "malformed decomposition: TypeError(\"expected an integer, got '2'\")", "--design"),
])
def test_count_rejects_a_malformed_tournament_file(capsys, tmp_path, tournament7, name, text, message, flag):
    """A malformed file of each kind is refused as its kind: a tournament or a pattern by count, a design by sample."""
    path = tmp_path / name
    path.write_text(text)
    argv, error = {"--tournament": (["count", "--n", "3"], "InvalidTournamentError"),
                   "--pattern-file": (["count", "--n", "3", "--tournament", tournament7], "InvalidOrientationError"),
                   "--design": (["sample", "--seed", "1"], "InvalidDecompositionError")}[flag]
    obj = refusal(capsys, *argv, flag, str(path))
    assert obj["error"] == error
    assert obj["message"].startswith(message)


def test_count_refuses_a_wrong_edge_count_at_once(capsys, tmp_path):
    # the rows of 200000 vertices are never allocated or masked
    path = tmp_path / "big.json"
    path.write_text('{"n": 200000, "edges": []}')
    obj = refusal(capsys, "count", "--n", "3", "--tournament", str(path))
    assert obj["error"] == "InvalidTournamentError"
    assert obj["message"] == "a tournament on n=200000 vertices has 19999900000 edges, got 0"


@pytest.mark.parametrize("method", ["auto", "brute"])
def test_count_honours_the_pattern_file(capsys, tmp_path, tournament7, method):
    edge = tmp_path / "edge.txt"
    edge.write_text("7\n0 1\n")
    code, out, _ = run(capsys, "count", "--n", "7", "--pattern-file", str(edge),
                       "--tournament", tournament7, "--method", method)
    assert code == 0
    obj = json.loads(out)
    assert obj["labeled_copies"] == 2520  # 7!/2 for one edge in any 7-tournament
    assert obj["pattern"] == "file:edge.txt"


@pytest.mark.parametrize("method,pattern,expected", [
    ("auto", ("--pattern", "cycle"), "dp"),
    ("auto", ("--pattern", "path"), "dp"),
    ("auto", ("--pattern-file", "edge"), "brute"),
    ("dp", ("--pattern", "cycle"), "dp"),
    ("brute", ("--pattern", "cycle"), "brute"),
])
def test_count_reports_the_method_it_took(capsys, tmp_path, tournament7, method, pattern, expected):
    if pattern[0] == "--pattern-file":
        edge = tmp_path / "edge.txt"
        edge.write_text("7\n0 1\n")
        pattern = ("--pattern-file", str(edge))
    code, out, _ = run(capsys, "count", "--n", "7", *pattern, "--tournament", tournament7,
                       "--method", method)
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == expected
    assert ("cycles" in obj or "paths" in obj) == (expected == "dp")


@pytest.fixture(scope="module")
def tournament13(tmp_path_factory):
    path = tmp_path_factory.mktemp("t13") / "t13.json"
    assert main(["sample", "--n", "13", "--seed", "5", "--output", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("shape", ["cycle", "path"])
@pytest.mark.parametrize("method", ["auto", "dp"])
def test_count_routes_a_relabelled_pattern_file_by_its_shape(capsys, tmp_path, tournament13, shape, method):
    pattern = tmp_path / f"{shape}13.json"
    pattern.write_text(make_pattern(shape, 13).relabel([(5 * v + 3) % 13 for v in range(13)]).to_json())
    code, out, _ = run(capsys, "count", "--n", "13", "--pattern-file", str(pattern),
                       "--tournament", tournament13, "--method", method)
    assert code == 0
    code, named, _ = run(capsys, "count", "--n", "13", "--pattern", shape, "--tournament", tournament13)
    assert code == 0
    obj, named = json.loads(out), json.loads(named)
    assert obj["method"] == named["method"] == "dp"
    assert obj["labeled_copies"] == named["labeled_copies"] > 0
    assert obj[shape + "s"] == named[shape + "s"]


def test_count_routes_a_one_regular_pattern_as_a_cycle(capsys, tournament7):
    code, out, _ = run(capsys, "count", "--n", "7", "--pattern", "k_regular_random", "--k", "1",
                       "--seed", "4", "--tournament", tournament7)
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "dp" and "cycles" in obj
    code, brute, _ = run(capsys, "count", "--n", "7", "--pattern", "k_regular_random", "--k", "1",
                         "--seed", "4", "--tournament", tournament7, "--method", "brute")
    assert obj["labeled_copies"] == json.loads(brute)["labeled_copies"]


@pytest.mark.parametrize("argv,message", [
    (("--n", "5", "--pattern", "cycle"), "pattern has 5 vertices, tournament has 7"),
    (("--n", "5", "--pattern", "path", "--method", "brute"), "pattern has 5 vertices"),
    (("--n", "8", "--pattern", "matching", "--method", "dp"), "no Hamilton DP for pattern matching"),
])
def test_count_rejects_mismatched_requests(capsys, tournament7, argv, message):
    assert message in refusal(capsys, "count", *argv, "--tournament", tournament7)["message"]


def test_exact_expect_subcommand(capsys):
    code, out, _ = run(capsys, "exact-expect", "--pattern", "cycle", "--n", "7", "--t", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["ratio"] == "43/15"
    assert obj["baseline"] == "315/8"


def test_estimate_subcommand(capsys):
    code, out, _ = run(capsys, "estimate", "--pattern", "cycle", "--n", "9", "--t", "3",
                       "--samples", "300", "--seed", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["samples"] == 300 and obj["seed"] == 4
    assert obj["ratio"] > 0


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_experiment_exact_csv(capsys, tmp_path):
    csv_path = tmp_path / "exp.csv"
    code, out, _ = run(capsys, "experiment", "--pattern", "cycle", "--n", "7", "--t", "3",
                       "--exact", "--seed", "1", "--output", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,t,pattern,design,samples,baseline_log2")
    row = lines[1].split(",")
    assert float(row[7]) > 1.25
    sidecar = json.loads((tmp_path / "exp.json").read_text())
    assert sidecar["config"]["master_seed"] == 1 and sidecar["config"]["exact"]
    assert sidecar["derived"]["t"] == 3
    assert "base_tournament_hex" in sidecar["derived"]


def test_experiment_reproducible_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "experiment", "--pattern", "cycle", "--n", "9", "--t", "3",
                         "--samples", "500", "--seed", "21", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_thread_count_does_not_change_bytes(capsys, tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("ORIENT_BOOST_THREADS", threads)
        path = tmp_path / f"t{threads}.csv"
        code, _, _ = run(capsys, "experiment", "--pattern", "cycle", "--n", "9", "--t", "3",
                         "--samples", "800", "--seed", "33", "--output", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_experiment_even_vertex_count(capsys, tmp_path):
    csv_path = tmp_path / "even.csv"
    code, out, _ = run(capsys, "experiment", "--pattern", "cycle", "--n", "8", "--t", "3",
                       "--samples", "300", "--seed", "9", "--output", str(csv_path))
    assert code == 0
    row = csv_path.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "8" and row[3] == "adjusted+even(t=3)"
    assert float(row[7]) > 0


def test_experiment_generates_seed_when_missing(capsys, tmp_path):
    csv_path = tmp_path / "seeded.csv"
    code, _, err = run(capsys, "experiment", "--pattern", "cycle", "--n", "7", "--t", "3",
                       "--exact", "--output", str(csv_path))
    assert code == 0
    assert "generated seed" in err
    seed = int(err.split("generated seed:")[1].split()[0])
    row = csv_path.read_text().strip().splitlines()[1]
    assert row.endswith(str(seed))


def test_report_writer_shapes(tmp_path):
    csv_path = str(tmp_path / "empty.csv")
    write_report([], csv_path)
    assert (tmp_path / "empty.csv").read_text().strip() == render_csv([]).strip()
    records = [
        {"n": 7, "t": 3, "pattern": "cycle", "design": "adjusted(t=3)", "samples": 10,
         "baseline_log2": 5.0, "estimate_log2": 6.0, "ratio": 2.0, "stderr_ratio": 0.1,
         "typical_frac": 1.0, "seed": k}
        for k in range(3)
    ]
    csv_path = str(tmp_path / "three.csv")
    write_report(records, csv_path, sidecar={"config": {"x": 1}}, sidecar_path=str(tmp_path / "side.json"))
    lines = (tmp_path / "three.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert json.loads((tmp_path / "side.json").read_text()) == {"config": {"x": 1}}


@pytest.mark.parametrize("umask", [0o022, 0o007])
def test_report_files_honour_the_umask(capsys, tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        write_report([], str(tmp_path / "r.csv"), sidecar={}, sidecar_path=str(tmp_path / "r.json"))
        assert main(["decompose", "--n", "7", "--output", str(tmp_path / "d.json")]) == 0
        assert main(["sample", "--n", "7", "--seed", "1", "--output", str(tmp_path / "s.json")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    want = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert want == 0o666 & ~umask
    names = ["d.json", "r.csv", "r.json", "s.json"]
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == want
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["plain.txt"])


def test_decompose_and_sample_write_the_bytes_they_print(capsys, tmp_path):
    for argv in (["decompose", "--n", "9"], ["sample", "--n", "9", "--seed", "2", "--samples", "3"]):
        path = tmp_path / f"{argv[0]}.out"
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        code, _, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0
        assert printed.startswith(path.read_text())


def test_custom_base_tournament_flag(capsys, tmp_path):
    from orient_boost.designs import Block, BlockKind, Decomposition
    from orient_boost.sampling import quadratic_residue_tournament

    base = tmp_path / "qr7.json"
    base.write_text(quadratic_residue_tournament(7).to_json())
    # K_7 as a single size-7 block exercises the custom base against t=7
    design = tmp_path / "k7block.json"
    design.write_text(Decomposition(7, 7, (Block(BlockKind.KT, tuple(range(7))),)).to_json())
    code, out, _ = run(capsys, "estimate", "--pattern", "cycle", "--n", "7",
                       "--design", str(design),
                       "--base", str(base), "--samples", "50", "--seed", "2")
    assert code == 0
    assert json.loads(out)["t"] == 7


@pytest.mark.parametrize("argv,threads", [
    pytest.param(argv, threads, id=prefix + threads)
    for prefix, argv in (("", ("experiment", "--samples", "50")), ("exact-expect-", ("exact-expect",)),
                         ("experiment-exact-", ("experiment", "--exact")))
    for threads in ("abc", "0")
])
def test_bad_thread_count_is_reported_up_front(capsys, tmp_path, monkeypatch, argv, threads):
    monkeypatch.setenv("ORIENT_BOOST_THREADS", threads)
    path = tmp_path / "never.csv"
    output = ("--output", str(path)) if argv[0] == "experiment" else ()
    obj = refusal(capsys, *argv, "--pattern", "cycle", "--n", "9", "--t", "3", "--seed", "1", *output)
    assert "ORIENT_BOOST_THREADS" in obj["message"]
    assert not path.exists()


def test_exact_expect_writes_the_same_bytes_at_any_thread_count(capsys, monkeypatch):
    # P9 on STS(9) sums one chunk per pattern orbit, 9 of them, so two workers share the sum
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ORIENT_BOOST_THREADS", threads)
        code, out, _ = run(capsys, "exact-expect", "--pattern", "path", "--n", "9")
        assert code == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["ratio"] == "81/35"


@pytest.mark.parametrize("argv", [("decompose", "--n", "9"), ("exact-expect", "--n", "7")],
                         ids=["decompose", "exact-expect"])
def test_a_closed_stdout_ends_the_run_quietly(argv):
    # the reader has left before the first write, as in `orient-boost decompose --n 25 --t 5 | true`:
    # exit 128 + SIGPIPE with nothing on stderr, where a refused run exits 2 with an error line
    src = os.path.dirname(os.path.dirname(orient_boost.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "orient_boost.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60, check=False)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


SUBPARSERS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def typed_options(type_name):
    """(subcommand, flag) of every option whose parse-time type is the function `type_name`."""
    return [(command, action.option_strings[0]) for command, parser in SUBPARSERS.items()
            for action in parser._actions if getattr(action.type, "__qualname__", "").split(".")[0] == type_name]


def assert_refused_by_the_parser(capsys, argv, message):
    assert refusal(capsys, *argv) == {"error": "OrientBoostError", "message": message}


def no_search(*args, **kwargs):
    raise AssertionError("the design search ran")


@pytest.mark.parametrize("flag", ["--kind", "--q", "--even"])
def test_decompose_has_one_route_to_a_design(capsys, flag):
    argv = ["decompose", "--n", "9", flag] + ([] if flag == "--even" else ["sts"])
    assert_refused_by_the_parser(capsys, argv, "unrecognized arguments: " + " ".join(argv[3:]))


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "7", "--brute-budget", "3"),
    ("sample", "--n", "7", "--seed", "3", "--brute-budget", "3"),
    ("estimate", "--n", "7", "--samples", "5", "--brute-budget", "3"),
    ("count", "--n", "7", "--tournament", "t7.json", "--node-budget", "1"),
])
def test_subcommands_take_only_the_budgets_they_read(capsys, tmp_path, monkeypatch, tournament7, argv):
    monkeypatch.chdir(tmp_path)  # where tournament7 wrote t7.json
    assert_refused_by_the_parser(capsys, argv, f"unrecognized arguments: {' '.join(argv[-2:])}")


def test_every_brute_budget_default_is_the_one_library_constant():
    defaults = {command: parser.get_default("brute_budget") for command, parser in SUBPARSERS.items()
                if "--brute-budget" in parser._option_string_actions}
    assert defaults == dict.fromkeys(["count", "exact-expect", "experiment"], counting.BRUTE_BUDGET)
    for call in (counting.exact_copy_summary, counting.count_labeled_copies):
        assert inspect.signature(call).parameters["budget_n"].default == counting.BRUTE_BUDGET


def test_the_design_build_flags_are_filled_in_one_place(capsys):
    # every command that builds a design takes --t and --node-budget unset, and the build fills them
    builds = {command: (parser.get_default("t"), parser.get_default("node_budget"))
              for command, parser in SUBPARSERS.items() if "--node-budget" in parser._option_string_actions}
    assert builds == dict.fromkeys(["decompose", "sample", "estimate", "exact-expect", "experiment"], (None, None))
    assert run(capsys, "decompose", "--n", "9") == run(capsys, "decompose", "--n", "9", "--t", "3",
                                                        "--node-budget", str(designs.NODE_BUDGET))


@pytest.mark.parametrize("argv", [(command, "--samples", value) for command, flag in typed_options("_positive")
                                  if flag == "--samples" for value in ("-2", "0")])
def test_sample_counts_below_one_are_rejected_up_front(capsys, argv):
    assert_refused_by_the_parser(capsys, argv, f"argument --samples: expected a positive integer, got {argv[2]!r}")


@pytest.mark.parametrize("argv", [(command, flag, value) for command, flag in typed_options("_positive")
                                  if flag.endswith("-budget") for value in ("0", "-3", "x")])
def test_non_positive_budgets_are_rejected_up_front(capsys, argv):
    assert_refused_by_the_parser(capsys, argv, f"argument {argv[1]}: expected a positive integer, got {argv[2]!r}")


@pytest.mark.parametrize("eps", ["0", "-1", "1/0", "x"])
def test_solve_refuses_an_eps_that_is_not_positive(capsys, eps):
    assert_refused_by_the_parser(capsys, ("solve", "--eps", eps, "--k", "1"),
                                 f"argument --eps: expected a positive number, got {eps!r}")


@pytest.mark.parametrize("command,flag", typed_options("_input_file"))
def test_a_missing_input_file_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    monkeypatch.chdir(tmp_path)
    assert_refused_by_the_parser(capsys, (command, flag, "missing.json"),
                                 f"argument {flag}: referenced file does not exist: missing.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "nodir/e.csv"),
    ("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "e.csv", "--sidecar", "nodir/s.json"),
    ("experiment", "--n", "7", "--samples", "5", "--seed", "1", "--output", "e.csv", "--sidecar", "nodir/s.json"),
    ("sample", "--n", "7", "--seed", "1", "--output", "nodir/t.json"),
    ("decompose", "--n", "7", "--output", "nodir/d.json"),
])
def test_a_missing_output_directory_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    monkeypatch.chdir(tmp_path)
    assert_refused_by_the_parser(capsys, argv, f"argument {argv[-2]}: output directory does not exist: nodir")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "9", "--t", "3", "--output", "here"),
    ("experiment", "--n", "7", "--t", "3", "--exact", "--seed", "1", "--output", "here"),
    ("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "e.csv", "--sidecar", "here"),
    ("sample", "--n", "7", "--seed", "1", "--output", "here"),
    # a last component that is empty, "." or ".." names a directory, whether or not it exists
    ("experiment", "--n", "7", "--t", "3", "--exact", "--seed", "1", "--output", "nodir/"),
    ("decompose", "--n", "9", "--t", "3", "--output", "nodir//"),
    ("sample", "--n", "7", "--seed", "1", "--output", "nodir/."),
    ("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "e.csv", "--sidecar", "nodir/.."),
])
def test_an_output_that_is_a_directory_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch, argv):
    # the run works in tmp_path/work, so that a file written in its parent would show too
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    work = tmp_path / "work"
    (work / "here").mkdir(parents=True)
    monkeypatch.chdir(work)
    assert_refused_by_the_parser(capsys, argv, f"argument {argv[-2]}: output is a directory: {argv[-1]}")
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert [p.name for p in work.iterdir()] == ["here"]


@pytest.mark.parametrize("argv", [
    ("decompose", "--n", "7", "--output", ""),
    ("experiment", "--n", "7", "--t", "3", "--exact", "--seed", "1", "--output", ""),
    ("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "e.csv", "--sidecar", ""),
    ("sample", "--n", "7", "--seed", "1", "--output", ""),
])
def test_an_empty_output_path_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch, argv):
    # the directory of os.path.abspath("") is the parent of the working directory, which a write would touch
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert_refused_by_the_parser(capsys, argv, f"argument {argv[-2]}: output path is empty")
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert list((tmp_path / "work").iterdir()) == []


@pytest.mark.parametrize("argv, path", [
    # the sidecar of run.json is derived as run.json itself
    (("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "run.json"), "run.json"),
    (("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "x", "--sidecar", "x"), "x"),
    (("experiment", "--n", "7", "--exact", "--seed", "1", "--output", "e.csv", "--sidecar", "./fano.json",
      "--design", "fano.json"), "./fano.json"),
    (("sample", "--design", "fano.json", "--seed", "1", "--output", "fano.json"), "fano.json"),
])
def test_an_output_named_twice_in_one_run_is_refused_before_the_run(capsys, tmp_path, monkeypatch, argv, path):
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fano.json").write_text(fano := designs.steiner_triple_system(7).to_json())
    assert_refused_by_the_parser(capsys, argv, f"output {path} is also another output or an input of this run")
    assert [p.name for p in tmp_path.iterdir()] == ["fano.json"]
    assert (tmp_path / "fano.json").read_text() == fano


def test_sample_takes_a_design_or_n_but_not_both(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fano.json").write_text(designs.steiner_triple_system(7).to_json())
    assert_refused_by_the_parser(capsys, ("sample", "--design", "fano.json", "--n", "5"),
                                 "argument --n: not allowed with argument --design")


def test_the_parse_time_types_cover_every_path_and_count():
    assert sorted({flag for _, flag in typed_options("_input_file")}) == [
        "--base", "--base-star", "--design", "--input", "--pattern-file", "--tournament"]
    assert sorted({flag for _, flag in typed_options("_output_file")}) == ["--output", "--sidecar"]
    assert sorted({flag for _, flag in typed_options("_positive")}) == [
        "--brute-budget", "--eps", "--node-budget", "--samples"]


def test_sample_validates_its_design_file(capsys, tmp_path):
    from orient_boost.designs import Decomposition, steiner_triple_system

    d = steiner_triple_system(7)
    bad = tmp_path / "bad.json"
    bad.write_text(Decomposition(7, 3, d.blocks + d.blocks[:1]).to_json())
    obj = refusal(capsys, "sample", "--design", str(bad), "--seed", "1")
    assert obj["error"] == "OrientBoostError"
    assert obj["message"].startswith("design file invalid: pair") and "covered 2 times" in obj["message"]


@pytest.fixture
def huge_design(tmp_path):
    # an empty design on 10^12 vertices; its leftover degrees must not be kept per vertex
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000000, "t": 3, "blocks": []}')
    return str(path)


def test_validate_reports_a_huge_empty_design_at_once(capsys, huge_design):
    code, out, _ = run(capsys, "validate", "--input", huge_design)
    assert code == 1
    obj = json.loads(out)
    assert obj["valid"] is False and obj["failures"][0] == "pair (0,1) never covered"


def test_sample_refuses_a_huge_empty_design(capsys, huge_design):
    obj = refusal(capsys, "sample", "--design", huge_design, "--seed", "1")
    assert obj["message"] == "design file invalid: pair (0,1) never covered"


@pytest.mark.parametrize("argv, error, message", [
    (("sample", "--samples", "1"), "OrientBoostError", "one of the arguments --n --design is required"),
    (("estimate", "--n", "7", "--samples", "10", "--design", "nothere.json"),
     "OrientBoostError", "argument --design: referenced file does not exist: nothere.json"),
    (("experiment", "--n", "7", "--samples", "10", "--output", "nodir/x.csv"),
     "OrientBoostError", "argument --output: output directory does not exist: nodir"),
    # refused by the design build, after the seed is generated but before it is printed
    (("sample", "--n", "24", "--t", "5", "--node-budget", "1"), "InfeasibleAtDeskScale",
     "n=24 extends the design on n=23: design search at (n=23, t=5) exceeded the node budget of 1 nodes"),
    (("estimate", "--n", "13", "--t", "5", "--samples", "10"), "InfeasibleAtDeskScale",
     "need 3 vertex-disjoint K_9 copies, which requires 27 vertices but n=13"),
    # refused by the injection budget at the first copy: (13,7) is one K13 block, which every copy
    # of C13 captures whole, and (14,7) its even extension
    (("estimate", "--n", "13", "--t", "7", "--pattern", "cycle", "--samples", "10"), "BudgetExceededError",
     "block 0 needs a budget of at least 6227020800, over the budget of 500000 (in injections)"),
    (("estimate", "--n", "14", "--t", "7", "--pattern", "cycle", "--samples", "10"), "BudgetExceededError",
     "block 0 needs a budget of at least 6227020800, over the budget of 500000 (in injections)"),
    (("experiment", "--n", "14", "--t", "7", "--pattern", "path", "--samples", "10", "--output", "x.csv"),
     "BudgetExceededError", "block 0 needs a budget of at least 6227020800, over the budget of 500000 (in injections)"),
    # 600 samples are two spans, and this copy is refused in the first, which this process
    # tallies; tests/test_counting.py refuses one inside a pool worker
    (("estimate", "--n", "14", "--t", "7", "--pattern", "cycle", "--samples", "600"), "BudgetExceededError",
     "block 0 needs a budget of at least 6227020800, over the budget of 500000 (in injections)"),
])
def test_a_refused_run_prints_no_generated_seed(capsys, tmp_path, monkeypatch, argv, error, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORIENT_BOOST_THREADS", "2")
    assert refusal(capsys, *argv) == {"error": error, "message": message}


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "7", "--samples", "3", "--format", "hex"),
    ("estimate", "--n", "7", "--samples", "10"),
    ("experiment", "--n", "8", "--samples", "10", "--output", "x.csv"),
], ids=["sample", "estimate", "experiment"])
def test_a_generated_seed_is_printed_once_after_the_output(capsys, tmp_path, monkeypatch, argv):
    """Without --seed the one stderr line is the generated seed, written after
    the whole output; the run with that --seed repeats the output and writes no stderr."""
    monkeypatch.chdir(tmp_path)
    writes = []

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            writes.append((self.name, text))

        def flush(self):
            pass

    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", Stream("out"))
        m.setattr(sys, "stderr", Stream("err"))
        assert main(list(argv)) == 0
    first_err = [name for name, _ in writes].index("err")
    assert {name for name, _ in writes[first_err:]} == {"err"}
    out = "".join(text for _, text in writes[:first_err])
    err = "".join(text for _, text in writes[first_err:])
    assert err.startswith("generated seed: ") and err.count("\n") == 1
    seed = int(err.removeprefix("generated seed: "))
    if argv[0] != "sample":
        assert json.loads(out)["seed"] == seed
    assert run(capsys, *argv, "--seed", str(seed)) == (0, out, "")


def test_a_one_edge_pattern_on_the_one_block_design_runs(capsys, tmp_path):
    """One edge captures no shape in the K13 of (13,7), so each copy's ratio is 1."""
    pattern = tmp_path / "edge.txt"
    pattern.write_text("13\n0 1\n")
    code, out, err = run(capsys, "estimate", "--n", "13", "--t", "7", "--pattern-file", str(pattern),
                         "--samples", "10")
    assert code == 0
    assert err.startswith("generated seed: ")
    obj = json.loads(out)
    assert (obj["n"], obj["t"], obj["ratio"]) == (13, 7, 1.0)


@pytest.mark.parametrize("pattern", [("--pattern", "cycle"), ("--pattern", "path"), ("--pattern", "matching"),
                                     ("--pattern", "k_regular_random", "--pattern-file", "c7.json")])
@pytest.mark.parametrize("command", ["count", "estimate", "exact-expect", "experiment"])
def test_k_on_any_other_pattern_is_refused(capsys, tmp_path, monkeypatch, tournament7, command, pattern):
    monkeypatch.setattr(designs, "adjusted_decomposition", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c7.json").write_text(make_pattern("cycle", 7).to_json())
    extra = {"count": ("--tournament", tournament7), "estimate": ("--samples", "10"), "exact-expect": (),
             "experiment": ("--samples", "10", "--output", "x.csv")}[command]
    given = "--pattern-file c7.json" if "--pattern-file" in pattern else f"--pattern {pattern[1]}"
    assert refusal(capsys, command, "--n", "7", "--k", "3", "--seed", "1", *pattern, *extra) == {
        "error": "OrientBoostError",
        "message": f"--k is the degree of --pattern k_regular_random; it does not apply to {given}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c7.json", "t7.json"]  # no output written


@pytest.mark.parametrize("flag", [("--t", "7"), ("--node-budget", "1")])
@pytest.mark.parametrize("command", ["sample", "estimate", "exact-expect", "experiment"])
def test_design_build_flags_beside_a_design_file_are_refused(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d9.json").write_text("not a design")  # never read: it would be refused as malformed
    extra = {"sample": (), "estimate": ("--n", "9", "--samples", "5"), "exact-expect": ("--n", "9"),
             "experiment": ("--n", "9", "--samples", "5", "--output", "x.csv")}[command]
    assert refusal(capsys, command, "--design", "d9.json", "--seed", "1", *flag, *extra) == {
        "error": "OrientBoostError",
        "message": f"{flag[0]} is for a design built from --n; it does not apply beside --design d9.json"}
    assert [p.name for p in tmp_path.iterdir()] == ["d9.json"]  # no output written


@pytest.mark.parametrize("command", ["count", "estimate", "exact-expect"])
def test_a_pattern_file_on_another_vertex_count_is_refused(capsys, tmp_path, tournament7, command):
    pattern = tmp_path / "c7.json"
    pattern.write_text(make_pattern("cycle", 7).to_json())
    extra = {"count": ("--tournament", tournament7), "estimate": ("--samples", "5", "--seed", "1"),
             "exact-expect": ()}[command]
    obj = refusal(capsys, command, "--n", "9", "--pattern-file", str(pattern), *extra)
    assert obj["message"] == f"pattern file {pattern} has 7 vertices, --n is 9"


@pytest.mark.parametrize("argv, message", [
    (("estimate", "--n", "7", "--t", "3", "--samples", "5", "--base", "r5.json"),
     "--base r5.json has 5 vertices; the design needs 3 (t = 3)"),
    (("estimate", "--n", "7", "--t", "3", "--samples", "5", "--base-star", "r3.json"),
     "--base-star r3.json has 3 vertices; the design needs 5 (t = 3)"),
    # a design file's t is known once it is read
    (("sample", "--design", "fano.json", "--base", "r5.json"),
     "--base r5.json has 5 vertices; the design needs 3 (t = 3)"),
    # refused before the (23,5) search, which runs for seconds and ends in a refusal of its own
    (("estimate", "--n", "23", "--t", "5", "--samples", "10", "--base", "r3.json"),
     "--base r3.json has 3 vertices; the design needs 5 (t = 5)"),
])
def test_a_base_file_of_the_wrong_size_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch, argv,
                                                                           message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fano.json").write_text(designs.steiner_triple_system(7).to_json())
    for t in (3, 5):
        (tmp_path / f"r{t}.json").write_text(circulant_regular_tournament(t).to_json())
    start = time.perf_counter()
    assert refusal(capsys, *argv, "--seed", "1") == {"error": "OrientBoostError", "message": message}
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("flag, size", [("--base", 5), ("--base-star", 9)])
@pytest.mark.parametrize("command", ["sample", "estimate", "exact-expect", "experiment"])
def test_a_base_file_that_is_not_regular_is_refused_before_the_design_search(capsys, tmp_path, monkeypatch,
                                                                             command, flag, size):
    """A transitive base of the right size is refused by its flag, not after
    the (23,5) search, which runs for seconds and ends in a refusal of its own."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"tt{size}.json").write_text(transitive_tournament(size).to_json())
    extra = {"sample": (), "estimate": ("--samples", "10"), "exact-expect": (),
             "experiment": ("--samples", "10", "--output", "x.csv")}[command]
    start = time.perf_counter()
    assert refusal(capsys, command, "--n", "23", "--t", "5", "--seed", "1", flag, f"tt{size}.json", *extra) == {
        "error": "OrientBoostError", "message": f"{flag} tt{size}.json is not a regular tournament"}
    assert time.perf_counter() - start < 1
    assert [p.name for p in tmp_path.iterdir()] == [f"tt{size}.json"]  # no output written


def test_the_sidecar_records_the_files_of_its_run(capsys, tmp_path, monkeypatch):
    from orient_boost.designs import Block, BlockKind, Decomposition

    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "c7.json").write_text(make_pattern("cycle", 7).to_json())
    # one K_7 block: the design's t is 7, though --t keeps its default of 3
    (tmp_path / "in" / "k7.json").write_text(
        Decomposition(7, 7, (Block(BlockKind.KT, tuple(range(7))),)).to_json())
    code, _, _ = run(capsys, "experiment", "--n", "7", "--pattern-file", "in/c7.json",
                     "--design", "in/k7.json", "--exact", "--seed", "1", "--output", "exp.csv")
    assert code == 0
    sidecar = json.loads((tmp_path / "exp.json").read_text())
    assert sidecar["config"] | {"csv_path": None} == {
        "pattern_kind": "file:in/c7.json", "pattern_n": 7, "pattern_k": None,
        "design_file": "in/k7.json", "design_t": 7, "base_file": None, "base_star_file": None,
        "samples": 0, "exact": True, "master_seed": 1, "csv_path": None, "sidecar_path": None,
        "node_budget": designs.NODE_BUDGET, "brute_budget": 10,
    }
    assert sidecar["derived"]["t"] == 7
    row = (tmp_path / "exp.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["7", "7", "file:c7.json", "file:k7.json"]


def test_an_exact_run_with_no_copies_reports_minus_infinity(capsys, tmp_path):
    # the transitive tournament on 7 vertices lies in no regular tournament
    pattern = tmp_path / "tt7.txt"
    pattern.write_text("7\n" + "".join(f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7)))
    code, out, _ = run(capsys, "exact-expect", "--n", "7", "--pattern-file", str(pattern))
    assert code == 0
    assert json.loads(out)["expectation"] == "0"
    code, out, _ = run(capsys, "experiment", "--n", "7", "--pattern-file", str(pattern), "--exact",
                       "--seed", "1", "--output", str(tmp_path / "tt7.csv"))
    assert code == 0
    assert json.loads(out)["estimate_log2"] == -math.inf


# Golden pins: sha256 of what the run commands print or write, recorded before
# they loaded their inputs through one shared path.  Sidecars are hashed with
# their two path fields dropped, since those name the test's temp directory.
GOLDEN_RUNS = {
    ("estimate", "--pattern", "cycle", "--n", "21", "--t", "5", "--samples", "2000", "--seed", "3"):
        "9198b6a3c645ff7aeb833f6cdb35fc0b033f267792dc19c6361aeec3159fa9ce",
    ("estimate", "--pattern", "k_regular_random", "--k", "2", "--n", "22", "--t", "5",
     "--samples", "600", "--seed", "4"):
        "4a5fbbe5dc2851bd49e6acf5315bd2d7aa292c14faa3493d31972da09d3804f2",
    ("exact-expect", "--pattern", "cycle", "--n", "7", "--t", "3"):
        "7ba626719e344bb260a16605d8b3fea871003d3cab2920503cfea440e1dbc619",
    ("exact-expect", "--pattern", "path", "--n", "8", "--t", "3", "--seed", "2"):
        "c7dadd65e6f35e710358d9be0911ee9642d5b8323e2d0c2933735a19eed9546c",
}

GOLDEN_EXPERIMENTS = [
    (("--pattern", "cycle", "--n", "9", "--t", "3", "--samples", "800", "--seed", "33"),
     "d43df0c716d7202652435c49ec8a16764be1c28ea94b0c3e72ffc2b5a19cc98d",
     "a3d6ef508f56288819536d64497bf0ab431c51322af0ba4ff5df9f33db541583"),
    (("--pattern", "path", "--n", "8", "--t", "3", "--exact", "--seed", "1"),
     "a0b2b4d4d04cc00e453abbc5a568cc21471088207c4d33c1fb5bfaf19911c0de",
     "b921eac8888661bd92854a9845e620ee44d46b8f98d948f210396497fc0f373b"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_RUNS))
def test_run_command_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _sha256(out) == GOLDEN_RUNS[argv]


@pytest.mark.parametrize("argv,csv_digest,sidecar_digest", GOLDEN_EXPERIMENTS)
def test_experiment_files_are_pinned(capsys, tmp_path, argv, csv_digest, sidecar_digest):
    csv_path = tmp_path / "exp.csv"
    code, _, _ = run(capsys, "experiment", *argv, "--output", str(csv_path))
    assert code == 0
    assert _sha256(csv_path.read_text()) == csv_digest
    sidecar = json.loads((tmp_path / "exp.json").read_text())
    del sidecar["config"]["csv_path"], sidecar["config"]["sidecar_path"]
    assert _sha256(json.dumps(sidecar, indent=2, sort_keys=True) + "\n") == sidecar_digest


@pytest.mark.parametrize("method,digest", [
    ("dp", "d5a27ebf9b168d49f413e4b460148b4c4c5c56d27f7d7137f56ebac8b21028e9"),
    ("brute", "d5ad88cd80c75b8225d1e92c7925ee81fb1323cdf7d5075d2aa852673e034bc9"),
])
def test_count_stdout_is_pinned(capsys, tmp_path, method, digest):
    path = tmp_path / "t8.json"
    code, _, _ = run(capsys, "sample", "--n", "8", "--t", "3", "--seed", "2", "--output", str(path))
    assert code == 0
    code, out, _ = run(capsys, "count", "--pattern", "cycle", "--n", "8", "--tournament", str(path),
                       "--method", method)
    assert code == 0
    assert _sha256(out) == digest

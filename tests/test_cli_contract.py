"""The command line's one contract, tested on argvs generated from its parser.

Whatever the arguments, ``main`` returns 0, 1 or 2 and raises nothing; a
refusal (exit 2) is one JSON line on stderr with the keys ``error`` and
``message``; a run that generates its seed ends its stderr with
``generated seed: N``, and any other successful run writes nothing there
and prints the same stdout on one worker and on two.  An input file is read
by its content, and a malformed one is refused as its kind wherever it is read.
"""

import argparse
import json
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orient_boost import designs
from orient_boost.cli import _load, build_parser, main
from orient_boost.orientations import make_pattern
from orient_boost.sampling import circulant_regular_tournament

SUBPARSERS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
GENERATES_SEED = {command for command, parser in SUBPARSERS.items()
                  if "--seed" in parser._option_string_actions and parser.get_default("seed") is None}

# An argv is a subcommand (any but verify) with its required options, its --seed
# and a few others, each drawn from its choices or typical values, and at times a
# fault: a hostile value, an option left out or another subcommand's flag.  A
# hostile value is also a missing or malformed file, an existing directory or an
# output in a missing directory.  Typical sizes are n <= 9, 40 samples and 1,000
# nodes, so each call takes milliseconds; a 400-digit value is drawn for every
# option but the samples and the node budget, and a 400-digit --n is refused by
# the vertex budget.
CAPPED, HUGE = ("--samples", "--node-budget"), "1" + "0" * 398 + "1"
# malformed as a file of any kind: not JSON, JSON nested too deep, a null or float n, edges
# that are not a list of pairs, a non-hex row, a first line that is not a number, a byte not UTF-8
MALFORMED = {
    "bad.json": "{", "deep.json": '{"n": ' + "[" * 100_000,
    "null.json": '{"n": null, "edges": []}', "float.json": '{"n": 3.5, "edges": []}',
    "scalar-edges.json": '{"n": 3, "edges": 5}', "null-edge.json": '{"n": 3, "edges": [null]}',
    "non-hex.hex": "3\nzz\nzz\nzz\n", "word.txt": "seven\n0 1\n", "latin-1.txt": "7\n0 1\xff\n",
}
HOSTILE = ["0", "-1", "x", "nan", "inf", "1/0", "", *MALFORMED, "keys.json", "bad.txt", ".", "out", "nodir/run.csv"]
TYPICAL = {
    "--n": ["5", "6", "7", "8", "9"], "--t": ["3", "5", "7", "10001"], "--k": ["1", "2", "3"],
    "--samples": ["1", "7", "40"], "--node-budget": ["1", "40", "1000"], "--brute-budget": ["1", "7", "12"],
    "--seed": ["0", "1", "5"],
    # at k = 3 an eps below 1/10 takes up to a second, so the smaller ones are over the solve budget
    "--eps": ["1", "1/2", "3/4", "0.1", "2", "1/100000", "1e-30", "999999/1000000"],
    "--pattern-file": ["c7.json", "edge.txt", "c7-json.txt", "edge-text.json"], "--design": ["fano.json"],
    "--base": ["r3.json"], "--base-star": ["r5.json"],
    "--input": ["c7.json", "c7-json.txt", "edge-text.json", "fano.json", "twice.json"],
    "--tournament": ["t7.json", "t7.hex"],
    "--output": ["out/run.csv"], "--sidecar": ["out/run.json"],
}
OPTIONS = {flag: action for parser in SUBPARSERS.values() for flag, action in parser._option_string_actions.items()
           if flag.startswith("--") and flag != "--help"}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory of the files a drawn command line names: valid, invalid and malformed."""
    root = tmp_path_factory.mktemp("cli")
    for name, text in {**MALFORMED,
        "c7.json": make_pattern("cycle", 7).to_json(), "edge.txt": "7\n0 1\n",
        "c7-json.txt": make_pattern("cycle", 7).to_json(), "edge-text.json": "7\n0 1\n",
        "fano.json": (fano := designs.steiner_triple_system(7)).to_json(),
        "r3.json": circulant_regular_tournament(3).to_json(), "r5.json": circulant_regular_tournament(5).to_json(),
        "keys.json": '{"n": 3}', "bad.txt": "3\n0 0\n",
        "twice.json": designs.Decomposition(7, 3, fano.blocks * 2).to_json(),
    }.items():
        (root / name).write_bytes(text.encode("latin-1"))  # one byte a character: "\xff" is not UTF-8
    for fmt in ("json", "hex"):
        assert main(["sample", "--n", "7", "--seed", "3", "--format", fmt, "--output", str(root / f"t7.{fmt}")]) == 0
    (root / "out").mkdir()
    return root


@st.composite
def command_lines(draw):
    """An argv drawn from build_parser(), or no subcommand or an unknown one."""
    command = draw(st.sampled_from([*(c for c in SUBPARSERS if c != "verify"), None, "bogus"]))
    if command not in SUBPARSERS:
        return [command] if command else []
    parser = SUBPARSERS[command]
    own = {flag: action for flag, action in parser._option_string_actions.items() if flag in OPTIONS}
    # a run command is drawn with its --seed, so that its stdout is compared on one and two threads
    flags = [flag for flag, action in own.items() if action.required or flag == "--seed"]
    flags += [draw(st.sampled_from(g._group_actions)).option_strings[0] for g in parser._mutually_exclusive_groups]
    flags += draw(st.lists(st.sampled_from(sorted(own)), max_size=3))
    fault = draw(st.sampled_from(["value", "missing", "foreign", None]))
    if fault == "missing" and flags:
        flags.remove(draw(st.sampled_from(flags)))
    if fault == "foreign":
        flags.append(draw(st.sampled_from(sorted(set(OPTIONS) - set(own)))))
    argv = [command]
    for flag in flags:
        action = own.get(flag, OPTIONS[flag])
        if action.nargs == 0:
            argv.append(flag)
            continue
        if fault == "value" and draw(st.booleans()):
            values = HOSTILE + ([] if flag in CAPPED else [HUGE])
        else:
            values = action.choices or TYPICAL[flag]
        argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(argv=command_lines(), threads=st.sampled_from(["1", "2"]))
@example(argv=["solve", "--eps", "1/0", "--k", "1"], threads="1")
@example(argv=["solve", "--eps", "1/100000", "--k", "1"], threads="1")
@example(argv=["boost-formula", "--k", "1", "--t", HUGE], threads="1")
@example(argv=["sample", "--n", "7", "--samples", "0"], threads="1")
@example(argv=[], threads="1")
@example(argv=["decompose", "--n", HUGE], threads="1")
@example(argv=["estimate", "--n", HUGE, "--samples", "1"], threads="1")
# runs that generate their seed, since the drawn ones take --seed unless a fault leaves it out
@example(argv=["estimate", "--n", "7", "--samples", "7"], threads="2")
@example(argv=["sample", "--n", "7"], threads="1")
@example(argv=["experiment", "--n", "7", "--samples", "1", "--output", "out/run.csv"], threads="2")
# seeded runs compared across thread counts; P9 on STS(9) is 9 chunks, which a pool may share
@example(argv=["exact-expect", "--pattern", "path", "--n", "9"], threads="2")
@example(argv=["estimate", "--pattern", "k_regular_random", "--k", "2", "--n", "9", "--samples", "40",
               "--seed", "1"], threads="1")
@example(argv=["sample", "--n", "8", "--samples", "3", "--seed", "5", "--format", "hex"], threads="2")
def test_every_command_line_ends_in_one_of_three_ways(capsys, cli_files, monkeypatch, argv, threads):
    monkeypatch.chdir(cli_files)
    monkeypatch.setenv("ORIENT_BOOST_THREADS", threads)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.count("\n") == 1 and set(json.loads(err)) == {"error", "message"}
    elif argv[0] in GENERATES_SEED and "--seed" not in argv:
        assert re.fullmatch(r"generated seed: \d+\n", err)
    else:
        assert err == ""
        if code == 0:
            monkeypatch.setenv("ORIENT_BOOST_THREADS", {"1": "2", "2": "1"}[threads])
            assert (main(argv), capsys.readouterr().out) == (0, out)


RUN = ["--n", "7", "--samples", "1", "--seed", "1"]
# every way the command line reads an input file, and the error of its kind
READS = [
    (["stats", "--input"], "InvalidOrientationError"),
    (["count", *RUN[:2], "--tournament", "t7.json", "--pattern-file"], "InvalidOrientationError"),
    (["estimate", *RUN, "--pattern-file"], "InvalidOrientationError"),
    (["count", *RUN[:2], "--tournament"], "InvalidTournamentError"),
    (["estimate", *RUN, "--base"], "InvalidTournamentError"),
    (["estimate", *RUN, "--base-star"], "InvalidTournamentError"),
    (["validate", "--input"], "InvalidDecompositionError"),
    (["estimate", *RUN, "--design"], "InvalidDecompositionError"),
]


@pytest.mark.parametrize("name", MALFORMED)
def test_a_malformed_file_is_refused_as_its_kind_wherever_it_is_read(capsys, cli_files, monkeypatch, name):
    monkeypatch.chdir(cli_files)
    for argv, error in READS:
        code, err = main([*argv, name]), capsys.readouterr().err
        assert (code, err.count("\n"), json.loads(err)["error"]) == (2, 1, error), argv


def test_a_file_is_read_by_its_content_whatever_its_name(capsys, cli_files, tmp_path):
    for kind, name in [("orientation", "c7.json"), ("orientation", "edge.txt"), ("tournament", "r3.json"),
                       ("tournament", "t7.json"), ("tournament", "t7.hex"), ("decomposition", "fano.json")]:
        renamed = tmp_path / ("renamed.txt" if name.endswith(".json") else "renamed.json")
        shutil.copy(cli_files / name, renamed)
        assert _load(kind, str(renamed)) == _load(kind, str(cli_files / name))
    assert main(["stats", "--input", str(cli_files / "c7.json"), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "unrecognized arguments: --format json"

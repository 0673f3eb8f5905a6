"""Command-line driver.

Subcommands: stats, decompose, sample, count, estimate, exact-expect, solve,
boost-formula, verify, experiment.  All randomness flows from one --seed;
an omitted seed is generated, embedded in every output and printed on success.
ORIENT_BOOST_THREADS sets the worker count of every estimate, exact sum and
experiment, and never affects numeric output.  A refusal, by the parser or by
the run, is exit code 2 and one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import permutations

from . import bounds, counting, designs, reports, sampling
from .errors import OrientBoostError
from .orientations import (
    Orientation,
    Tournament,
    classify,
    make_pattern,
    orientation_from_json,
    orientation_from_text,
    random_orientation,
    random_tournament,
    stats,
    tournament_from_hex_text,
    tournament_from_json,
)
from .rng import stream_for, stream_permutations, stream_residues


# each input kind's readers: its JSON format, then its text format; a design is JSON only
_READERS = {"orientation": (orientation_from_json, orientation_from_text),
            "tournament": (tournament_from_json, tournament_from_hex_text),
            "decomposition": (designs.decomposition_from_json,) * 2}


def _load(kind: str, path: str):
    """The input a file holds: JSON if its first non-blank character is "{", else its kind's text format."""
    with open(path, encoding="utf-8", errors="replace") as fh:  # a non-UTF-8 byte reads as U+FFFD: no reader parses it
        text = fh.read()
    from_json, from_text = _READERS[kind]
    return (from_json if text.lstrip().startswith("{") else from_text)(text)


def _pattern_from_args(args, seed: int) -> Orientation:
    if args.k is not None and (args.pattern_file or args.pattern != "k_regular_random"):
        given = f"--pattern-file {args.pattern_file}" if args.pattern_file else f"--pattern {args.pattern}"
        raise OrientBoostError(f"--k is the degree of --pattern k_regular_random; it does not apply to {given}")
    if args.pattern_file:
        h = _load("orientation", args.pattern_file)
        if h.n != args.n:
            raise OrientBoostError(f"pattern file {args.pattern_file} has {h.n} vertices, --n is {args.n}")
        return h
    return make_pattern(args.pattern, args.n, k=args.k, seed=seed)


def _design_from_args(args, n: int, check_t=lambda t: None) -> tuple[designs.Decomposition, str]:
    """The one fill of --t (3) and --node-budget (``designs.NODE_BUDGET``) not given, then the design and its label.
    ``check_t`` sees the design's t right after a --design file is read, or before a design is built."""
    args.t = 3 if args.t is None else args.t
    args.node_budget = designs.NODE_BUDGET if args.node_budget is None else args.node_budget
    if getattr(args, "design", None):
        d = _load("decomposition", args.design)
        check_t(d.t)
        report = designs.validate(d)
        if not report.ok:
            raise OrientBoostError(f"design file invalid: {report.first_violation}")
        return d, f"file:{os.path.basename(args.design)}"
    check_t(args.t)
    d = designs.adjusted_decomposition(n, args.t, node_budget=args.node_budget)
    return d, f"adjusted{'+even' if d.n % 2 == 0 else ''}(t={d.t})"


def _load_inputs(args) -> tuple[int, Orientation | None, designs.Decomposition, str, sampling.BaseTournaments]:
    """The seed, pattern (None for sample), design, design label and bases of a run.

    The parser has checked that every named file exists; every input is
    read before the design is built, so a malformed input is refused
    before any design search or sum.  --t and --node-budget build the
    design from --n: beside --design they are refused before any file is
    read.  A seed not given is generated before the pattern is drawn from
    it and kept in args.seed and args.generated_seed, which ``main`` prints.
    A base file without the vertices of its blocks, t for --base and 2t-1
    for --base-star, or not regular, is refused before any design search.
    Bases not given by file are the circulant ones.
    """
    for flag, value in (("--t", args.t), ("--node-budget", args.node_budget)):
        if args.design and value is not None:
            raise OrientBoostError(f"{flag} is for a design built from --n; it does not apply beside "
                                   f"--design {args.design}")
    if args.seed is None:
        args.seed = args.generated_seed = int.from_bytes(os.urandom(8), "big")
    h = _pattern_from_args(args, args.seed) if hasattr(args, "pattern") else None
    r, rstar = (_load("tournament", path) if path else None for path in (args.base, args.base_star))

    def check_bases(t: int) -> None:
        for flag, path, base, size in (("--base", args.base, r, t), ("--base-star", args.base_star, rstar, 2 * t - 1)):
            if base and base.n != size:
                raise OrientBoostError(f"{flag} {path} has {base.n} vertices; the design needs {size} (t = {t})")
            if base and not base.is_regular():
                raise OrientBoostError(f"{flag} {path} is not a regular tournament")

    d, design_label = _design_from_args(args, args.n, check_bases)
    bases = sampling.BaseTournaments(r or sampling.circulant_regular_tournament(d.t),
                                     rstar or sampling.circulant_regular_tournament(2 * d.t - 1))
    return args.seed, h, d, design_label, bases


def _run(args, *, exact: bool):
    """The one run behind estimate, exact-expect and experiment.

    Reads the worker count, loads the inputs and the seed once and takes
    the exact sum or the Monte Carlo estimate.
    Returns the run's CSV row, the ExactSummary or EstimateReport, the
    baseline n!/2^e, the design and the bases.
    """
    workers = counting.worker_count_from_env()
    seed, h, d, design_label, bases = _load_inputs(args)
    baseline = counting.baseline_expected_copies(h)
    # samples, baseline_log2, estimate_log2, ratio, stderr_ratio, typical_frac
    if exact:
        out = counting.exact_copy_summary(h, d, bases, budget_n=args.brute_budget, workers=workers)
        fields = (0, counting.log2_fraction(baseline),
                  counting.log2_fraction(out.expectation) if out.expectation else -math.inf,
                  float(out.ratio), 0.0, float(out.typical_fraction))
    else:
        out = counting.estimate_expected_copies(h, d, bases, samples=args.samples, master_seed=seed,
                                                workers=workers)
        fields = (out.samples, out.baseline_log2, out.estimate_log2, out.ratio, out.ratio_stderr,
                  out.typical_fraction)
    row = dict(zip(reports.CSV_FIELDS, (h.n, d.t, _pattern_label(args), design_label, *fields, seed)))
    return row, out, baseline, d, bases


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_stats(args) -> int:
    h = _load("orientation", args.input)
    s = stats(h)
    flags = classify(h)
    _emit({
        "n": h.n, "e": s.e, "plus": s.plus, "minus": s.minus,
        "c": s.c, "i": s.i, "f": s.f, "g": s.g, "maxdeg": s.maxdeg,
        "even": flags.even, "eulerian": flags.eulerian, "balanced": flags.balanced,
        "k_regular": flags.k_regular,
    })
    return 0


def _cmd_decompose(args) -> int:
    d, _ = _design_from_args(args, args.n)
    report = designs.validate(d)
    if args.output:
        reports._atomic_write(args.output, [d.to_json()])
    else:
        print(d.to_json())
    _emit({"n": d.n, "t": d.t, "blocks": len(d.blocks), "valid": report.ok,
           "first_violation": report.first_violation})
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    report = designs.validate(_load("decomposition", args.input))
    _emit({"valid": report.ok, "failures": list(report.failures)})
    return 0 if report.ok else 1


def _cmd_sample(args) -> int:
    _refuse_shared_paths(args, args.output)
    seed, _, d, _, bases = _load_inputs(args)
    text = Tournament.to_json if args.format == "json" else Tournament.to_hex_text
    # each draw is written as it is made, so a run holds one draw at a time
    draws = (text(sampling.sample(d, bases, sampling.SampleSeed(seed, i))) + "\n" for i in range(args.samples))
    if args.output:
        reports._atomic_write(args.output, draws)
    else:
        for draw in draws:
            sys.stdout.write(draw)
    return 0


def _cmd_count(args) -> int:
    t = _load("tournament", args.tournament)
    h = _pattern_from_args(args, args.seed)
    shape = counting.hamilton_shape(h)
    if args.method == "dp" and shape is None:
        raise OrientBoostError(f"no Hamilton DP for pattern {_pattern_label(args)}; use brute or auto")
    if h.n != t.n:
        raise OrientBoostError(f"pattern has {h.n} vertices, tournament has {t.n}")
    method = ("dp" if shape else "brute") if args.method == "auto" else args.method
    out: dict = {"n": t.n, "method": method, "pattern": _pattern_label(args)}
    if method == "brute":
        out["labeled_copies"] = counting.count_labeled_copies(h, t, budget_n=args.brute_budget)
    elif shape == "cycle":
        cycles = counting.count_hamilton_cycles(t)
        out |= {"cycles": cycles, "labeled_copies": cycles * t.n}
    else:
        paths = counting.count_hamilton_paths(t)
        out |= {"paths": paths, "labeled_copies": paths}
    _emit(out)
    return 0


def _pattern_label(args) -> str:
    if args.pattern_file:
        return f"file:{os.path.basename(args.pattern_file)}"
    return f"{args.pattern}{args.k or ''}"


def _cmd_estimate(args) -> int:
    row, rep, *_ = _run(args, exact=False)
    _emit(row | {"baseline": str(rep.baseline), "capture_means": list(rep.capture_means)})
    return 0


def _cmd_exact_expect(args) -> int:
    row, summary, baseline, *_ = _run(args, exact=True)
    _emit({key: row[key] for key in ("n", "t", "pattern", "design")} | {
        "expectation": str(summary.expectation), "baseline": str(baseline),
        "ratio": str(summary.ratio), "ratio_float": float(summary.ratio),
        "typical_fraction": str(summary.typical_fraction),
        "capture_averages": [str(x) for x in summary.capture_averages],
    })
    return 0


def _cmd_solve(args) -> int:
    sol = bounds.solve_parameters(args.eps, args.k)
    _emit({"t": sol.t, "delta": float(sol.delta), "rho": float(sol.rho),
           "delta_exact": str(sol.delta), "eps": str(sol.eps), "k": sol.k})
    return 0


def _cmd_boost_formula(args) -> int:
    _emit({"k": args.k, "t": args.t, "value": bounds.kreg_boost_formula(args.k, args.t)})
    return 0


def _cmd_verify(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    for t in (3, 5, 7):
        chk = bounds.verify_relabel_probabilities(sampling.circulant_regular_tournament(t))
        check(f"relabeling probabilities, circulant t={t}", chk.ok)
    chk = bounds.verify_relabel_probabilities(sampling.quadratic_residue_tournament(7))
    check("relabeling probabilities, quadratic-residue t=7", chk.ok)

    ok = True
    for sd in range(200):
        h = random_orientation(11, 14, seed=sd)
        s = stats(h)
        ok = ok and s.plus == 3 * s.f + s.c + s.g and s.minus == 2 * s.g + s.i
    check("pair/triangle statistic identities on 200 seeded patterns", ok)

    check("gcd identity for odd t in [3,99]",
          all(designs.gcd_identity_holds(t) for t in range(3, 100, 2)))

    fano = designs.steiner_triple_system(7)
    bases = sampling.BaseTournaments.circulant(3)
    c7 = make_pattern("cycle", 7)
    summary = counting.exact_copy_summary(c7, fano, bases)
    acc = Fraction(0)
    for t, w in sampling.enumerate_support(fano, bases):
        acc += w * counting.count_hamilton_cycles(t) * 7
    check("exact expectation equals support-weighted count (7-cycle)", acc == summary.expectation)

    c9, p9 = make_pattern("cycle", 9), make_pattern("path", 9)
    tours = [random_tournament(9, sd) for sd in range(3)]
    check("Hamilton cycle/path counts equal embedding counts of C9/P9 on 3 seeded tournaments",
          all(counting.count_embeddings(c9.edges, 9, t.rows) == 9 * counting.count_hamilton_cycles(t)
              and counting.count_embeddings(p9.edges, 9, t.rows) == counting.count_hamilton_paths(t)
              for t in tours))

    # Aut(Fano) is vertex-transitive, so every vertex orbit sums alike there and
    # only a design without that symmetry, here (6,3), tests the orbit partition
    ok = True
    for h, d in ((c7, fano), (make_pattern("path", 7), fano),
                 (make_pattern("k_regular_random", 7, k=2, seed=1), fano),
                 (make_pattern("path", 6), designs.adjusted_decomposition(6, 3))):
        kernel = counting.CopyKernel(h, d, bases)
        brute = sum((kernel.ratio(pi) for pi in permutations(range(h.n))), Fraction(0))
        ok = ok and brute / math.factorial(h.n) == counting.exact_copy_summary(h, d, bases).ratio
    check("orbit-weighted exact sum equals the brute n! sum (C7, P7, 2-regular on Fano; P6 on (6,3))", ok)

    check("batched permutation draws equal per-stream draws on 500 indices (n = 7, 21)",
          all(list(stream_permutations(11, 0, 500, n)) == [stream_for(11, i).permutation(n) for i in range(500)]
              for n in (7, 21)))

    plan, streams = sampling.sampling_plan(fano, bases), [stream_for(5, i) for i in range(100)]
    check("packed sampler draws equal the scalar Stream draws on 100 seeds (Fano)",
          all(stream_residues(5, i, plan.mods, plan.limits) == tuple(map(streams[i].below, plan.mods))
              for i in range(100)))

    kernel = counting.CopyKernel(c7, fano, bases)
    check("closed-form factors equal enumerated factors on 500 sampled copies",
          all(kernel.ratio(pi) == kernel.ratio(pi, method="enumerate")
              for pi in stream_permutations(11, 0, 500, 7)))

    ok = all(sampling.sample(fano, bases, sampling.SampleSeed(5, i)).is_regular() for i in range(100))
    check("sampled tournaments are regular (100 seeds)", ok)

    ok = True
    for d in (fano, designs.adjusted_decomposition(12, 3), designs.adjusted_decomposition(13, 7)):
        d_bases = sampling.BaseTournaments.circulant(d.t)
        for i in range(100):
            t = sampling.sample(d, d_bases, sampling.SampleSeed(5, i))
            ok = ok and Tournament(t.n, t.rows) == t
    check("sampled tournaments pass the per-pair check on 100 seeds each (Fano, (12,3), (13,7))", ok)

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def _refuse_shared_paths(args, *outputs: str | None) -> None:
    """Refuse, before the run, an output path that another output or an input of the run also names."""
    inputs = (getattr(args, name, None) for name in ("pattern_file", "design", "base", "base_star"))
    named = [os.path.realpath(path) for path in inputs if path]
    for path in filter(None, outputs):
        if os.path.realpath(path) in named:
            raise OrientBoostError(f"output {path} is also another output or an input of this run")
        named.append(os.path.realpath(path))


def _cmd_experiment(args) -> int:
    sidecar_path = reports.sidecar_path_for(args.output, args.sidecar)
    _refuse_shared_paths(args, args.output, sidecar_path)
    row, out, baseline, d, bases = _run(args, exact=args.exact)
    extra = ({"expectation": str(out.expectation), "ratio_exact": str(out.ratio)} if args.exact
             else {"capture_means": list(out.capture_means)})
    config = {
        "pattern_kind": f"file:{args.pattern_file}" if args.pattern_file else args.pattern,
        "pattern_n": row["n"], "pattern_k": args.k, "design_file": args.design, "design_t": d.t,
        "base_file": args.base, "base_star_file": args.base_star,
        "samples": args.samples, "exact": args.exact, "master_seed": row["seed"],
        "csv_path": args.output, "sidecar_path": args.sidecar,
        "node_budget": args.node_budget, "brute_budget": args.brute_budget,
    }
    sidecar = {
        "config": config,
        "derived": {
            "t": d.t,
            "delta": str(Fraction(1, 4 * (d.t - 2))),
            "baseline": str(baseline),
            "base_tournament_hex": bases.r.to_hex_text(),
            "base_star_tournament_hex": bases.rstar.to_hex_text(),
            "design_blocks": len(d.blocks),
        },
        "results": [row | extra],
    }
    reports.write_report([row], args.output, sidecar, sidecar_path)
    _emit({"written": args.output, **row})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser, subparsers included, whose refusals reach main's one JSON line."""

    def error(self, message: str):
        raise OrientBoostError(message)


def _positive(convert, noun: str = "integer"):
    """A parse-time type: the text read by `convert`, refused unless it is positive."""
    def parse(text: str):
        try:
            if (value := convert(text)) > 0:
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected a positive {noun}, got {text!r}")
    return parse


def _input_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"referenced file does not exist: {path}")
    return path


def _output_file(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("output path is empty")
    if os.path.basename(path) in ("", ".", "..") or os.path.isdir(path):  # "out/" names a directory, made or not
        raise argparse.ArgumentTypeError(f"output is a directory: {path}")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError(f"output directory does not exist: {os.path.dirname(path)}")
    return path


def _add_pattern_args(p) -> None:
    p.add_argument("--pattern", default="cycle",
                   choices=["cycle", "path", "matching", "k_regular_random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="degree for k_regular_random")
    p.add_argument("--pattern-file", type=_input_file, help="orientation file overriding --pattern")


def _add_design_args(p, design_group=None) -> None:
    """The design flags of sample, estimate, exact-expect and experiment; --design joins `design_group` if given."""
    (design_group or p).add_argument("--design", type=_input_file, help="decomposition JSON file")
    p.add_argument("--base", type=_input_file, help="regular tournament file for size-t blocks")
    p.add_argument("--base-star", type=_input_file, help="regular tournament file for size-(2t-1) blocks")
    p.add_argument("--seed", type=int, default=None)
    _add_build_args(p)


def _add_build_args(p) -> None:
    p.add_argument("--t", type=int, help="block size when building a design from --n (default 3)")
    p.add_argument("--node-budget", type=_positive(int),
                   help="search nodes allowed when building a design from --n and --t; a node "
                        "is a candidate block, a vertex tried by the K_(2t-1) placement or a step "
                        "of the split check, so (11, 3) takes 143 nodes and (25, 5) 2,621")


def _add_brute_budget(p) -> None:
    p.add_argument("--brute-budget", type=_positive(int), default=counting.BRUTE_BUDGET,
                   help="k: the exhaustive count and the exact sum list at most k! terms")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orient-boost", description=__doc__)
    parser.set_defaults(generated_seed=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="statistics of an orientation file")
    p.add_argument("--input", type=_input_file, required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("decompose", help="build and validate a decomposition")
    p.add_argument("--n", type=int, required=True)
    _add_build_args(p)
    p.add_argument("--output", type=_output_file)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("validate", help="validate a decomposition file")
    p.add_argument("--input", type=_input_file, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sample", help="draw block-randomized tournaments")
    design_or_n = p.add_mutually_exclusive_group(required=True)
    design_or_n.add_argument("--n", type=int)
    _add_design_args(p, design_or_n)
    p.add_argument("--samples", type=_positive(int), default=1)
    p.add_argument("--format", choices=["json", "hex"], default="json")
    p.add_argument("--output", type=_output_file)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("count", help="exact labeled-copy counts in a tournament file")
    _add_pattern_args(p)
    p.add_argument("--tournament", type=_input_file, required=True)
    p.add_argument("--method", choices=["auto", "brute", "dp"], default="auto",
                   help="dp: Hamilton cycle/path count by inclusion-exclusion over vertex "
                        "subsets, lane-packed in Python ints (n <= 20; timings in the README's "
                        "budgets table); brute: embedding search (n <= --brute-budget); "
                        "auto: dp for any directed Hamilton cycle or path, pattern files included")
    # here and on exact-expect the seed only draws a random pattern; an omitted one is 0, never generated
    p.add_argument("--seed", type=int, default=0)
    _add_brute_budget(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("estimate", help="Monte Carlo expected-copy estimate")
    _add_pattern_args(p)
    _add_design_args(p)
    p.add_argument("--samples", type=_positive(int), required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("exact-expect", help="exact expected copies on tiny instances")
    _add_pattern_args(p)
    _add_design_args(p)
    _add_brute_budget(p)
    p.set_defaults(func=_cmd_exact_expect, seed=0)

    p = sub.add_parser("solve", help="least odd block size for the target inequalities")
    p.add_argument("--eps", type=_positive(Fraction, "number"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("boost-formula", help="finite-t boost product for k-regular patterns")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_boost_formula)

    p = sub.add_parser("verify", help="run the identity/oracle check suites")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="end-to-end run producing a CSV report")
    _add_pattern_args(p)
    _add_design_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--samples", type=_positive(int), default=0)
    p.add_argument("--output", type=_output_file, required=True)
    p.add_argument("--sidecar", type=_output_file)
    _add_brute_budget(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        if args.generated_seed is not None:
            print(f"generated seed: {args.generated_seed}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader of stdout has left: no error, and the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended
    except (OrientBoostError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

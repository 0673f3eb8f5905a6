"""The five benchmark workloads of the orient-boost pipeline.

Each workload knows how to make its inputs from a seed, how to perform one
user call through the package's public library functions (the calls the
``experiment``, ``sample`` and ``count`` subcommands make), how to produce a
reference output with the real command-line entry point, how to check a
call's output, and, for the copy-kernel workloads, how to replay a call
layer by layer for the traced run.

Phases and layers are timed only from here, around calls into the package;
nothing inside the package is instrumented.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from orient_boost import counting, designs, reports, sampling
from orient_boost.designs import BlockKind
from orient_boost.errors import OrientBoostError
from orient_boost.orientations import make_pattern, tournament_from_hex_text
from orient_boost.rng import stream_for

COMPLETE_KINDS = (BlockKind.KT, BlockKind.K2T1)


def build_design(n: int, t: int) -> tuple[designs.Decomposition, str]:
    """The design the command line builds from (n, t): direct for odd n, star-path extension for even n."""
    if n % 2 == 1:
        return designs.adjusted_decomposition(n, t), f"adjusted(t={t})"
    return designs.extend_to_even(designs.adjusted_decomposition(n - 1, t)), f"adjusted+even(t={t})"


def run_cli(src: str, argv: list[str], cwd: str, workers: int = 1) -> subprocess.CompletedProcess:
    """Run ``python -m orient_boost.cli`` on the checkout's sources and wait for it."""
    env = dict(os.environ, PYTHONPATH=src, ORIENT_BOOST_THREADS=str(workers))
    return subprocess.run([sys.executable, "-m", "orient_boost.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=150, check=False)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, data: str) -> None:
    with open(path, "w") as fh:
        fh.write(data)


@contextmanager
def capture_pool_arguments():
    """Record the pickled size of everything handed to a ProcessPoolExecutor.

    Wraps the executor's constructor (for ``initargs``) and ``submit``
    (which ``map`` uses), so it counts what the package sends without
    touching the package.
    """
    from concurrent.futures import ProcessPoolExecutor

    sent: list[int] = []
    orig_init, orig_submit = ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit

    def init(self, *args, **kwargs):
        if kwargs.get("initargs"):
            sent.append(len(pickle.dumps(kwargs["initargs"])))
        orig_init(self, *args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        sent.append(len(pickle.dumps((fn, args, kwargs))))
        return orig_submit(self, fn, *args, **kwargs)

    ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit = init, submit
    try:
        yield sent
    finally:
        ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit = orig_init, orig_submit


# ---------------------------------------------------------------------------
# experiment workloads: design, copy kernel, Monte Carlo estimate or exact sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One ``experiment`` invocation."""

    pattern: str
    n: int
    t: int
    seed: int
    k: int | None = None
    samples: int = 0          # 0 means --exact
    exact_ratio: str | None = None

    @property
    def label(self) -> str:
        return self.pattern + (str(self.k) if self.k else "")

    @property
    def copies(self) -> int:
        return self.samples or math.factorial(self.n)

    def argv(self, csv_path: str) -> list[str]:
        argv = ["experiment", "--pattern", self.pattern, "--n", str(self.n), "--t", str(self.t),
                "--seed", str(self.seed), "--output", csv_path]
        if self.k:
            argv += ["--k", str(self.k)]
        return argv + (["--samples", str(self.samples)] if self.samples else ["--exact"])


class ExperimentWorkload:
    """``experiment`` calls: Monte Carlo (``samples`` > 0) or the exact n! sum."""

    kernel = True
    prebuilt = False

    def __init__(self, name: str, specs: dict, workers: int = 1):
        self.name, self.specs, self.workers = name, specs, workers

    def invocations(self, seed: int, size: str) -> list[Experiment]:
        return [Experiment(seed=seed, **spec) for spec in self.specs[size]]

    def call(self, inv: Experiment, workdir: str, tag: str, rec) -> dict:
        """One user call, timed by phase; runs in a fresh process."""
        os.environ["ORIENT_BOOST_THREADS"] = str(self.workers)
        with rec.span("setup"):
            with rec.span("orientations.make_pattern"):
                h = make_pattern(inv.pattern, inv.n, k=inv.k, seed=inv.seed)
            with rec.span("designs.build"):
                d, design_label = build_design(h.n, inv.t)
            with rec.span("sampling.bases"):
                bases = sampling.BaseTournaments.circulant(d.t)
        with rec.span("work"):
            baseline = counting.baseline_expected_copies(h)
            if inv.samples:
                with rec.span("counting.estimate"):
                    rep = counting.estimate_expected_copies(
                        h, d, bases, samples=inv.samples, master_seed=inv.seed,
                        workers=counting.worker_count_from_env())
                ratio = rep.ratio
                record = {"samples": rep.samples, "baseline_log2": rep.baseline_log2,
                          "estimate_log2": rep.estimate_log2, "ratio": rep.ratio,
                          "stderr_ratio": rep.ratio_stderr, "typical_frac": rep.typical_fraction}
            else:
                with rec.span("counting.exact_sum"):
                    summary = counting.exact_copy_summary(h, d, bases, budget_n=10)
                ratio = str(summary.ratio)
                record = {"samples": 0, "baseline_log2": counting.log2_fraction(baseline),
                          "estimate_log2": counting.log2_fraction(summary.expectation),
                          "ratio": float(summary.ratio), "stderr_ratio": 0.0,
                          "typical_frac": float(summary.typical_fraction)}
        with rec.span("write"):
            record = {"n": h.n, "t": d.t, "pattern": inv.label, "design": design_label,
                      **record, "seed": inv.seed}
            csv_path = os.path.join(workdir, f"{tag}.csv")
            sidecar = {"config": {"pattern": inv.label, "n": inv.n, "t": inv.t,
                                  "samples": inv.samples, "seed": inv.seed},
                       "derived": {"baseline": str(baseline), "design_blocks": len(d.blocks)},
                       "results": [record]}
            with rec.span("reports.write"):
                reports.write_report([record], csv_path, sidecar)
        return {"items": inv.copies, "output": csv_path, "ratio": ratio, "design": d.to_json()}

    def reference(self, src: str, inv: Experiment, out: dict, workdir: str, tag: str) -> dict:
        """The real command line, always with one worker: the replay each call must match."""
        csv_path = os.path.join(workdir, f"{tag}.csv")
        proc = run_cli(src, inv.argv(csv_path), workdir, workers=1)
        if proc.returncode != 0:
            return {"error": f"cli exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
        return {"output": _read(csv_path)}

    def check(self, inv: Experiment, out: dict, ref: dict) -> list[str]:
        problems = []
        if "error" in ref:
            problems.append(ref["error"])
        elif _read(out["output"]) != ref["output"]:
            problems.append(f"{inv.label}: CSV bytes differ from the one-worker command-line replay")
        if inv.exact_ratio is not None and out["ratio"] != inv.exact_ratio:
            problems.append(f"{inv.label}: exact ratio {out['ratio']} != {inv.exact_ratio}")
        return problems

    def replay(self, inv: Experiment, rec, passes: int = 3) -> dict:
        """Per-layer replay of one call's copies through the kernel's public methods.

        Each layer is timed in ``passes`` batched spans; the per-layer
        metrics take the best pass.
        """
        h = make_pattern(inv.pattern, inv.n, k=inv.k, seed=inv.seed)
        d, _ = build_design(h.n, inv.t)
        bases = sampling.BaseTournaments.circulant(d.t)
        n = inv.copies
        for _ in range(passes):
            with rec.span("counting.kernel_init"):
                kernel = counting.CopyKernel(h, d, bases)
            if inv.samples:
                with rec.span("rng.permutation", count=n):
                    pis = [stream_for(inv.seed, i).permutation(h.n) for i in range(n)]
            else:
                pis = list(permutations(range(h.n)))
            with rec.span("counting.groups", count=n):
                for pi in pis:
                    kernel.groups(pi)
            with rec.span("counting.ratio", count=n):
                ratios = [kernel.ratio(pi) for pi in pis]
            with rec.span("counting.block_stats", count=n):
                for pi in pis:
                    kernel.block_stats(pi)
            with rec.span("counting.scan_1w", count=n):
                if inv.samples:
                    scan_ratio = counting.estimate_expected_copies(
                        h, d, bases, samples=n, master_seed=inv.seed, workers=1).ratio
                else:
                    scan_ratio = str(counting.exact_copy_summary(h, d, bases, budget_n=10).ratio)
            if self.workers > 1:
                with capture_pool_arguments() as sent, rec.span("counting.scan_pool", count=n):
                    counting.estimate_expected_copies(h, d, bases, samples=n, master_seed=inv.seed,
                                                      workers=self.workers)
        mean = sum(ratios, Fraction(0)) / n
        return {"copies": n, "replay_ratio": float(mean) if inv.samples else str(mean),
                "scan_ratio": scan_ratio, "pool_arg_bytes": sum(sent) if self.workers > 1 else 0,
                **fallback_census(kernel, d, pis)}

    def check_replay(self, inv: Experiment, out: dict, replay: dict) -> list[str]:
        problems = []
        if replay["replay_ratio"] != out["ratio"]:
            problems.append(f"{inv.label}: ratio {out['ratio']} != mean of replayed per-copy ratios "
                            f"{replay['replay_ratio']}")
        if replay["scan_ratio"] != out["ratio"]:
            problems.append(f"{inv.label}: one-worker scan gives {replay['scan_ratio']}, call gave {out['ratio']}")
        return problems


def fallback_census(kernel: counting.CopyKernel, d: designs.Decomposition, pis) -> dict:
    """Count the blocks the closed forms do not cover, over the given copies.

    A fallback block is a size-t block holding three or more edges that are
    not one triangle, or a block of any other kind holding two or more
    edges.  Its shape key is the block kind plus the edge list in
    block-local labels: first-seen order of the touched vertices for the
    complete kinds (whose probability depends only on that), vertex
    positions within the block for the coin kinds.
    """
    fallback = coin = 0
    shapes = set()
    for pi in pis:
        for bid, group in kernel.groups(pi).items():
            m = len(group)
            block = d.blocks[bid]
            if m < 2:
                continue
            if block.kind == BlockKind.KT and (m == 2 or (m == 3 and len({x for e in group for x in e}) == 3)):
                continue
            fallback += 1
            if block.kind in COMPLETE_KINDS:
                seen: dict[int, int] = {}
                key = tuple((seen.setdefault(pi[u], len(seen)), seen.setdefault(pi[v], len(seen)))
                            for u, v in group)
            else:
                coin += 1
                pos = {x: k for k, x in enumerate(block.vertices)}
                key = tuple((pos[pi[u]], pos[pi[v]]) for u, v in group)
            shapes.add((block.kind.value, key))
    return {"fallback_blocks": fallback, "coin_fallback": coin, "shapes": shapes}


# ---------------------------------------------------------------------------
# sampler workloads: ``sample`` (hex) and ``sample`` followed by ``count --method dp``
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Draw:
    """One ``sample`` invocation, optionally followed by ``count`` on every tournament."""

    n: int
    t: int
    samples: int
    seed: int
    count: bool = False
    design: str | None = None  # design file written once per run by ``prepare``

    def sample_argv(self, design_path: str, out_path: str, samples: int) -> list[str]:
        return ["sample", "--design", design_path, "--seed", str(self.seed), "--samples", str(samples),
                "--format", "hex", "--output", out_path]


class SamplerWorkload:
    """``sample`` calls, optionally followed by ``count --method dp`` on each tournament.

    With ``prebuilt`` the design is built once per run, as by ``decompose
    --output``, and every call loads it, as ``sample --design`` does.
    """

    kernel = False
    workers = 1

    def __init__(self, name: str, specs: dict, prebuilt: bool = False):
        self.name, self.specs, self.prebuilt = name, specs, prebuilt

    def invocations(self, seed: int, size: str) -> list[Draw]:
        return [Draw(seed=seed, **spec) for spec in self.specs[size]]

    def prepare(self, inv: Draw, workdir: str, tag: str, rec) -> dict:
        with rec.span("setup"):
            with rec.span("designs.build"):
                d, _ = build_design(inv.n, inv.t)
        path = os.path.join(workdir, f"{tag}.json")
        _write(path, d.to_json())
        return {"design_path": path}

    def call(self, inv: Draw, workdir: str, tag: str, rec) -> dict:
        with rec.span("setup"):
            if inv.design:
                with rec.span("designs.load"):
                    d = designs.decomposition_from_json(_read(inv.design))
            else:
                with rec.span("designs.build"):
                    d, _ = build_design(inv.n, inv.t)
            with rec.span("sampling.bases"):
                bases = sampling.BaseTournaments.circulant(d.t)
        cycles = []
        with rec.span("work"):
            chunks = []
            for index in range(inv.samples):
                with rec.fine("sampling.sample"):
                    t = sampling.sample(d, bases, sampling.SampleSeed(inv.seed, index))
                with rec.fine("orientations.to_hex"):
                    chunks.append(t.to_hex_text() + "\n")
            if inv.count:
                for text in chunks:
                    with rec.fine("orientations.from_hex"):
                        t = tournament_from_hex_text(text)
                    with rec.fine("counting.ham_cycles"):
                        cycles.append(counting.count_hamilton_cycles(t))
        with rec.span("write"):
            out_path = os.path.join(workdir, f"{tag}.hex")
            with rec.span("io.write"):
                _write(out_path, "".join(chunks))
        return {"items": inv.samples, "output": out_path, "cycles": cycles, "design": d.to_json()}

    def reference(self, src: str, inv: Draw, out: dict, workdir: str, tag: str) -> dict:
        """Command-line ``sample`` of a prefix of the draws, and ``count`` of the first tournament."""
        prefix = min(inv.samples, 200)
        design_path = os.path.join(workdir, f"{tag}.json")
        _write(design_path, out["design"])
        hex_path = os.path.join(workdir, f"{tag}.hex")
        proc = run_cli(src, inv.sample_argv(design_path, hex_path, prefix), workdir)
        if proc.returncode != 0:
            return {"error": f"cli sample exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
        ref = {"prefix": _read(hex_path)}
        if inv.count:
            first = os.path.join(workdir, f"{tag}-first.hex")
            _write(first, ref["prefix"].split("\n\n")[0] + "\n")
            proc = run_cli(src, ["count", "--pattern", "cycle", "--n", str(inv.n), "--method", "dp",
                                 "--tournament", first], workdir)
            if proc.returncode != 0:
                return {"error": f"cli count exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
            ref["count"] = json.loads(proc.stdout.strip().splitlines()[-1])
        return ref

    def check(self, inv: Draw, out: dict, ref: dict) -> list[str]:
        if "error" in ref:
            return [ref["error"]]
        problems = []
        data = _read(out["output"])
        if not data.startswith(ref["prefix"]):
            problems.append("hex output differs from the command-line sample of the same seed")
        texts = [block for block in data.split("\n\n") if block.strip()]
        if len(texts) != inv.samples:
            problems.append(f"{len(texts)} tournaments written, {inv.samples} drawn")
        odd = inv.n % 2 == 1
        for index, text in enumerate(texts):
            try:
                t = tournament_from_hex_text(text)
            except (OrientBoostError, ValueError) as exc:
                problems.append(f"tournament {index} does not parse: {exc}")
                break
            if not (t.is_regular() if odd else t.is_balanced()):
                problems.append(f"tournament {index} is not {'regular' if odd else 'balanced'}")
                break
        if inv.count:
            if len(out["cycles"]) != inv.samples or min(out["cycles"], default=0) <= 0:
                problems.append(f"Hamilton cycle counts {out['cycles'][:4]} not all positive")
            elif ref["count"].get("cycles") != out["cycles"][0] or \
                    ref["count"].get("labeled_copies") != out["cycles"][0] * inv.n:
                problems.append(f"count of tournament 0 is {out['cycles'][0]}, command line says {ref['count']}")
        return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    ExperimentWorkload(
        "mc-cycle21",
        {"full": [dict(pattern="cycle", n=21, t=5, samples=1000)],
         "tiny": [dict(pattern="cycle", n=21, t=5, samples=40)]}),
    ExperimentWorkload(
        "mc-reg2-w2",
        {"full": [dict(pattern="k_regular_random", k=2, n=21, t=5, samples=512)],
         "tiny": [dict(pattern="k_regular_random", k=2, n=21, t=5, samples=40)]},
        workers=2),
    ExperimentWorkload(
        "exact7-mc8",
        {"full": [dict(pattern="cycle", n=7, t=3, exact_ratio="43/15"),
                  dict(pattern="cycle", n=8, t=3, samples=4000)],
         "tiny": [dict(pattern="cycle", n=7, t=3, exact_ratio="43/15"),
                  dict(pattern="cycle", n=8, t=3, samples=100)]}),
    SamplerWorkload(
        "design-sample25",
        {"full": [dict(n=25, t=5, samples=400)],
         "tiny": [dict(n=21, t=5, samples=20)]},
        prebuilt=True),
    SamplerWorkload(
        "dp-count16",
        {"full": [dict(n=16, t=3, samples=1, count=True)],
         "tiny": [dict(n=8, t=3, samples=2, count=True)]}),
)}

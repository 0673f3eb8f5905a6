"""Benchmark of the orient-boost pipeline: design, then copy kernel, then estimate or exact sum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory.  One client performs user calls back to back (a closed loop)
for ``--seconds`` seconds.  Every call runs in a process forked from this
one before any call ran, so state a call leaves in the package never
reaches the next call, as for a command-line user.  Every call's output is
checked against the real command line and against the workload's own
invariants.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the calls
untraced for half the time and traced for the other half, replays one call
layer by layer, and prints the per-layer metrics.  The last line of standard
output is the result object; the run record (machine facts, per-call phases,
metrics and, when traced, all spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
CALL_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class _Span:
    __slots__ = ("rec", "name", "count", "sid", "parent", "start")

    def __init__(self, rec: "Recorder", name: str, count: int):
        self.rec, self.name, self.count = rec, name, count

    def __enter__(self):
        rec = self.rec
        self.sid = len(rec.spans)
        self.parent = rec.stack[-1] if rec.stack else None
        rec.spans.append(None)
        rec.stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.rec.stack.pop()
        self.rec.spans[self.sid] = (self.sid, self.parent, self.name, self.start, end, self.count)
        return False


class Recorder:
    """Spans kept in memory: (id, parent id, name, start ns, end ns, call count).

    ``span`` is always recorded and times the phases every run needs;
    ``fine`` records per-item layer spans only in a traced run.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.stack: list[int] = []

    def span(self, name: str, count: int = 1) -> _Span:
        return _Span(self, name, count)

    def fine(self, name: str):
        return _Span(self, name, 1) if self.traced else contextlib.nullcontext()


def span_seconds(spans, name: str) -> tuple[float, int]:
    """Total seconds and total call count of the spans with this name."""
    total = count = 0
    for span in spans:
        if span is not None and span[2] == name:
            total += span[4] - span[3]
            count += span[5]
    return total / 1e9, count


def best_per_call(groups, name: str, scale: float) -> float:
    """Least mean time per call of a layer over span groups (calls, or replay passes) that have it."""
    means = [total / count for total, count in (span_seconds(g, name) for g in groups) if count]
    return min(means) * scale if means else 0.0


# ---------------------------------------------------------------------------
# calls, each in a process forked from a clean parent
# ---------------------------------------------------------------------------

def _call_child(conn, fn, inv, workdir: str, tag: str, traced: bool) -> None:
    rec = Recorder(traced)
    try:
        with rec.span("call"):
            out = fn(inv, workdir, tag, rec)
        conn.send(("ok", out, rec.spans))
    except Exception:
        conn.send(("error", traceback.format_exc(), rec.spans))
    finally:
        conn.close()


def run_call(fn, inv, k: int, workdir: str, tag: str, traced: bool) -> dict:
    """Run ``fn`` on invocation ``k`` in a forked process; its spans come back with the output."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_call_child, args=(sender, fn, inv, workdir, tag, traced))
    proc.start()
    sender.close()
    try:
        if receiver.poll(CALL_TIMEOUT_S):
            status, payload, spans = receiver.recv()
        else:
            status, payload, spans = "error", f"call exceeded {CALL_TIMEOUT_S} s", []
    except EOFError:
        status, payload, spans = "error", "call process died without a result", []
    finally:
        receiver.close()
        if status == "error" and proc.is_alive():
            proc.kill()
        proc.join()
    return {"tag": tag, "inv": k, "traced": traced, "status": status,
            "out": payload if status == "ok" else None,
            "error": payload if status == "error" else None, "spans": spans}


def call_loop(workload, invocations, workdir: str, seconds: float, traced: bool, prefix: str) -> list[dict]:
    """Closed loop over the invocations in turn: each at least once, then until ``seconds`` have passed."""
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < len(invocations) or time.perf_counter() < deadline:
        k = len(calls) % len(invocations)
        calls.append(run_call(workload.call, invocations[k], k, workdir, f"{prefix}{len(calls)}", traced))
    return calls


def call_phases(call: dict) -> dict:
    spans = call["spans"]
    return {"wall_s": span_seconds(spans, "call")[0], "setup_s": span_seconds(spans, "setup")[0],
            "work_s": span_seconds(spans, "work")[0], "items": call["out"]["items"]}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def corrupt_output(path: str) -> None:
    """Change the last digit of an output file; used by the benchmark's own tests."""
    with open(path) as fh:
        data = fh.read()
    pos = max(data.rfind(d) for d in "0123456789")
    with open(path, "w") as fh:
        fh.write(data[:pos] + str((int(data[pos]) + 1) % 10) + data[pos + 1:])


def check_calls(workload, invocations, calls: list[dict], workdir: str, replays) -> list[str]:
    """Check every call; returns one line per failed call (empty when all pass)."""
    from orient_boost import designs

    references, valid_designs, failures = {}, {}, []
    for call in calls:
        if call["status"] != "ok":
            failures.append(f"{call['tag']}: {call['error'].strip().splitlines()[-1]}")
            continue
        k, out = call["inv"], call["out"]
        inv, problems = invocations[k], []
        if out["design"] not in valid_designs:
            report = designs.validate(designs.decomposition_from_json(out["design"]))
            valid_designs[out["design"]] = report.first_violation
        if valid_designs[out["design"]] is not None:
            problems.append(f"design invalid: {valid_designs[out['design']]}")
        if k not in references:
            references[k] = workload.reference(SRC, inv, out, workdir, f"ref-{k}")
        problems += workload.check(inv, out, references[k])
        if replays is not None:
            problems += workload.check_replay(inv, out, replays[k])
        if problems:
            failures.append(f"{call['tag']}: {'; '.join(problems)}")
    return failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Larger of this process's peak resident set and that of any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(calls: list[dict], preps: list[dict] = (), pooled: bool = False) -> dict:
    """Per-run end-to-end metrics from the calls' phases, summed over the invocations.

    Other tenants slow this machine's CPUs by up to 1.9x for stretches of
    5 to 20 s, so a run's median call follows the share of slow stretches it
    happens to get.  A phase on one CPU is therefore reported by the
    invocation's best call (least time), which tracks the program.  When
    the work phase spans the worker pool (``pooled``), a call needs both
    CPUs undisturbed at once and some runs never see that, so wall and work
    time are the median call instead (see README.md).  ``setup_s`` adds the
    once-per-run ``prepare`` step, when there is one.
    """
    by_inv: dict[int, list[dict]] = {}
    for call in calls:
        if call["status"] == "ok":
            by_inv.setdefault(call["inv"], []).append(call_phases(call))
    pick = statistics.median if pooled else min
    setup = sum(span_seconds(p["spans"], "setup")[0] for p in preps)
    wall = work = items = 0
    for phases in by_inv.values():
        setup += min(p["setup_s"] for p in phases)
        wall += pick([p["wall_s"] for p in phases])
        work += pick([p["work_s"] for p in phases])
        items += phases[0]["items"]
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / work if work else 0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], preps: list[dict], replay_rec, replays,
              pooled: bool) -> dict:
    """Per-layer metrics: best traced call per layer, and per replayed invocation the best pass
    (averaged over the invocations that call the layer), plus the replay's exact counts."""
    calls = [c["spans"] for c in traced + preps if c["status"] == "ok"]
    roots = [s[0] for s in replay_rec.spans if s[2] == "replay"] if replay_rec else []
    invs = [[[s] for s in replay_rec.spans if s[1] == root] for root in roots]

    def call_layer(name, scale):
        return best_per_call(calls, name, scale)

    def replay_layer(name, scale):
        values = [best_per_call(passes, name, scale) for passes in invs if span_seconds(sum(passes, []), name)[1]]
        return statistics.mean(values) if values else 0

    metrics = {
        "orientations.make_pattern_ms": (call_layer("orientations.make_pattern", 1e3), "ms"),
        "designs.build_s": (call_layer("designs.build", 1), "s"),
        "sampling.sample_us": (call_layer("sampling.sample", 1e6), "us"),
        "orientations.to_hex_us": (call_layer("orientations.to_hex", 1e6), "us"),
        "counting.ham_cycles_ms": (call_layer("counting.ham_cycles", 1e3), "ms"),
        "reports.write_ms": (call_layer("reports.write", 1e3), "ms"),
        "rng.permutation_us": (replay_layer("rng.permutation", 1e6), "us"),
        "counting.groups_us": (replay_layer("counting.groups", 1e6), "us"),
        "counting.ratio_us": (replay_layer("counting.ratio", 1e6), "us"),
        "counting.block_stats_us": (replay_layer("counting.block_stats", 1e6), "us"),
        "counting.kernel_init_ms": (replay_layer("counting.kernel_init", 1e3), "ms"),
    }
    scan_other = pool_speedup = fallback = coin = shapes = arg_bytes = 0
    if replays:
        scan_other = statistics.mean(
            best_per_call(p, "counting.scan_1w", 1e6) - sum(best_per_call(p, layer, 1e6) for layer in (
                "rng.permutation", "counting.ratio", "counting.block_stats")) for p in invs)
        speedups = [best_per_call(p, "counting.scan_1w", 1) / best_per_call(p, "counting.scan_pool", 1)
                    for p in invs if best_per_call(p, "counting.scan_pool", 1)]
        pool_speedup = statistics.mean(speedups) if speedups else 0
        copies = sum(r["copies"] for r in replays)
        fallback = sum(r["fallback_blocks"] for r in replays) / copies
        coin = sum(r["coin_fallback"] for r in replays) / copies
        shapes = len(set().union(*(r["shapes"] for r in replays)))
        arg_bytes = sum(r["pool_arg_bytes"] for r in replays)
    untraced_wall = end_to_end(untraced, pooled=pooled)["wall_s"][0]
    traced_wall = end_to_end(traced, pooled=pooled)["wall_s"][0]
    metrics.update({
        "counting.scan_other_us": (scan_other, "us"),
        "counting.pool_speedup": (pool_speedup, "ratio"),
        "counting.pool_arg_bytes": (arg_bytes, "B"),
        "counting.fallback_blocks_per_copy": (fallback, "count"),
        "counting.coin_fallback_per_copy": (coin, "count"),
        "counting.fallback_shapes": (shapes, "count"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1 if untraced_wall else 0, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            rev = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "orient_boost"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "orient_boost", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu,
            "loadavg_start": list(os.getloadavg()), "git_rev": rev, "src_sha256": digest.hexdigest()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, *, size: str = "full",
        corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object and writes the run record."""
    from workloads import WORKLOADS

    facts = machine_facts()
    workload = WORKLOADS[workload_name]
    invocations = workload.invocations(seed, size)
    pooled = workload.workers > 1
    run_id = f"{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        preps = []
        if workload.prebuilt:
            preps = [run_call(workload.prepare, inv, k, workdir, f"prep{k}", trace)
                     for k, inv in enumerate(invocations)]
            invocations = [dataclasses.replace(inv, design=p["out"]["design_path"]) if p["out"] else inv
                           for inv, p in zip(invocations, preps)]
        if any(p["status"] != "ok" for p in preps):
            untraced, traced, calls, preps = [], [], preps, []
        elif trace:
            untraced = call_loop(workload, invocations, workdir, seconds / 2, False, "u")
            traced = call_loop(workload, invocations, workdir, seconds / 2, True, "t")
            calls = untraced + traced
        else:
            calls = call_loop(workload, invocations, workdir, seconds, False, "c")
        replay_rec = replays = None
        if trace and workload.kernel:
            replay_rec, replays = Recorder(True), []
            for inv in invocations:
                with replay_rec.span("replay"):
                    replays.append(workload.replay(inv, replay_rec))
        if corrupt:
            for call in calls:
                if call["status"] == "ok":
                    corrupt_output(call["out"]["output"])
                    break
        failures = check_calls(workload, invocations, calls, workdir, replays)
        if trace:
            metrics = per_layer(untraced, traced, preps, replay_rec, replays, pooled)
        else:
            metrics = end_to_end(calls, preps, pooled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": len(calls), "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    record = {
        "run_id": run_id, "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "facts": facts, "failures": failures, "result": result,
        "calls": [{"tag": c["tag"], "inv": c["inv"], "traced": c["traced"], "status": c["status"],
                   **(call_phases(c) if c["status"] == "ok" else {})} for c in calls],
    }
    if trace:
        record["spans"] = [[run_id, f"{c['tag']}.{s[0]}", None if s[1] is None else f"{c['tag']}.{s[1]}",
                            *s[2:]] for c in calls + preps for s in c["spans"]
                           if s is not None]
        if replay_rec:
            record["spans"] += [[run_id, f"replay.{s[0]}", None if s[1] is None else f"replay.{s[1]}",
                                 *s[2:]] for s in replay_rec.spans]
    path = os.path.join(OUT_DIR, f"{workload_name}-seed{seed}-trace{int(trace)}-{size}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orient_boost", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import orient_boost
    if not os.path.abspath(orient_boost.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported orient_boost from {orient_boost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

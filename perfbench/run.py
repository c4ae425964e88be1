"""Benchmark of the hgraphs CLI on seeded workloads.

    python3 perfbench/run.py --workload hard-clique --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout.  Each op is one user task on one instance:
`hgraphs.cli.main(argv)` is called in this process with stdout captured,
because interpreter start-up would dominate a small op and is not the
library's cost.  Inputs come only from --seed; the program sees only the
generated files.  Every answer is checked after the timed phase against the
oracles in oracles.py; a wrong answer makes the run exit 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json over whole
passes through the ops; --seconds sets the number of passes (at least one)
from the workload's nominal pass time.  Times are scaled to the speed of
the reference host by the job in pace.py, run between ops; the unscaled
figures are printed too.
--trace 1 runs each of the first TRACED_OPS ops twice, untraced and with
every public function of hgraphs wrapped in a span, and reports the
per-layer metrics of BENCHMARK.json, the tracing overhead included.  `--workload all` runs each
workload in its own child process, one after another.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Set-up files and span dumps go under .perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from oracles import WrongAnswer
from pace import REFERENCE_S, reference_seconds
from tracer import Tracer
from workloads import WORKLOADS, chain_representation, paper_bound

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MODULES = ("cli", "core", "formats", "pattern", "randgen", "representation", "clique", "fpt")

# setup_s is the median of full set-ups: at least SETUP_MIN_REPS, and more
# until they took SETUP_MIN_S in all, up to SETUP_MAX_REPS
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 7
SPEED_SAMPLES = 15  # reference jobs timed before and after each set-up
TRACED_OPS = 50
SELF_CHECK_TOLERANCE = 0.10


@dataclass
class OpRun:
    ok: bool
    wall: float  # seconds for the whole op
    in_cli: float  # seconds inside cli.main calls, measured here
    outs: list[str]  # stdout of each step that ran
    error: str | None  # why the op failed
    wrong: str | None  # an exit code that is itself a wrong answer


def import_hgraphs() -> SimpleNamespace:
    """Import hgraphs afresh from src/ of this checkout."""
    for name in [m for m in sys.modules if m == "hgraphs" or m.startswith("hgraphs.")]:
        del sys.modules[name]
    hg = SimpleNamespace(**{m: importlib.import_module("hgraphs." + m) for m in MODULES})
    origin = os.path.abspath(sys.modules["hgraphs"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"hgraphs was imported from {origin}, not from {SRC}")
    return hg


def setup(workload, seed: int, directory: str):
    """Import hgraphs and write the workload's files into directory (the new cwd)."""
    start = perf_counter()
    hg = import_hgraphs()
    os.makedirs(directory)
    os.chdir(directory)
    ops = workload.build(hg, random.Random(seed))
    return perf_counter() - start, hg, ops


def run_op(cli, op) -> OpRun:
    outs: list[str] = []
    in_cli = 0.0
    error = wrong = None
    start = perf_counter()
    for step in op.steps:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                rc = cli.main(step.argv)
            except Exception as exc:  # a crashing op is a failed op, not a crashed run
                rc, error = None, f"{type(exc).__name__} in {step.argv[0]}"
            in_cli += perf_counter() - t0
        outs.append(buf.getvalue())
        if rc != step.expect:
            error = error or f"{step.argv[0]} exited {rc}, expected {step.expect}"
            if step.decisive and rc in (0, 1):
                wrong = f"{op.name}: {step.argv[0]} answered with exit {rc}, expected {step.expect}"
            break
    return OpRun(error is None, perf_counter() - start, in_cli, outs, error, wrong)


def check_answers(workload, ops, first: dict[int, OpRun]) -> list[str]:
    """Oracle checks on the first run of every op that ran; returns problems."""
    problems = []
    for k in sorted(first):
        run = first[k]
        if run.wrong:
            problems.append(run.wrong)
        done = run.outs if run.ok else run.outs[:-1]
        try:
            workload.check(ops[k], done)
        except (WrongAnswer, ValueError, IndexError) as exc:
            problems.append(f"{ops[k].name}: {type(exc).__name__}: {exc}")
    return problems


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_phase(cli, ops, passes: int, seconds: float):
    """Whole passes over the ops, with the reference job before each op.

    An op's latency is the median over passes of its wall time scaled to
    the reference host's speed by the reference job run right before and
    right after it (see pace.py).  The number of passes is fixed before
    timing starts, so a faster program is not timed more often; only on a
    slow host does a pass not start after `seconds`.  The digest covers
    the first pass.
    """
    first: dict[int, OpRun] = {}
    walls: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    failed = [False] * len(ops)
    errors: list[str] = []
    problems: list[str] = []
    digest = hashlib.sha256()
    done = 0
    start = perf_counter()
    before = reference_seconds()
    while done < passes and (done == 0 or perf_counter() - start < seconds):
        for k, op in enumerate(ops):
            run = run_op(cli, op)
            after = reference_seconds()
            walls[k].append(run.wall)
            scaled[k].append(run.wall * 2.0 * REFERENCE_S / (before + after))
            before = after
            if k not in first:
                first[k] = run
                for out in run.outs:
                    digest.update(out.encode("utf-8"))
            elif run.outs != first[k].outs:
                problems.append(f"{op.name}: output changed between repeats")
            if not run.ok:
                failed[k] = True
                errors.append(run.error)
        done += 1
    latencies = [statistics.median(times) for times in scaled]
    raw = [statistics.median(times) for times in walls]
    return first, latencies, raw, failed, errors, problems, done, digest.hexdigest()


def timed_setup(workload, seed: int, directory: str):
    """setup() with its time scaled to the reference host's speed."""
    gc.collect()  # the modules of an earlier set-up are cyclic garbage
    before = statistics.median(reference_seconds() for _ in range(SPEED_SAMPLES))
    seconds, hg, ops = setup(workload, seed, directory)
    after = statistics.median(reference_seconds() for _ in range(SPEED_SAMPLES))
    return seconds * 2.0 * REFERENCE_S / (before + after), seconds, hg, ops


def end_to_end(args, workload, work: str) -> tuple[dict, int, int, list[str]]:
    setups, raw_setups = [], []
    while len(setups) < SETUP_MIN_REPS or (
        sum(raw_setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS
    ):
        seconds, raw_seconds, hg, ops = timed_setup(
            workload, args.seed, os.path.join(work, f"setup{len(setups)}")
        )
        setups.append(seconds)
        raw_setups.append(raw_seconds)
    passes = max(1, round(args.seconds / workload.pass_seconds))
    first, latencies, raw, failed, errors, problems, passes, digest = timed_phase(
        hg.cli, ops, passes, args.seconds
    )
    problems += check_answers(workload, ops, first)
    n = len(ops)
    ok = n - sum(failed)
    total = sum(latencies)
    latencies = [math.inf if bad else t for t, bad in zip(latencies, failed)]
    raw = [math.inf if bad else t for t, bad in zip(raw, failed)]
    metrics = {
        "ops_per_s": (ok / total, n),
        "latency_p50_ms": (nearest_rank(latencies, 0.5) * 1000.0, n),
        "latency_p90_ms": (nearest_rank(latencies, 0.9) * 1000.0, n),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    print(f"timed phase: {passes} passes over {n} ops, each op timed by its median scaled run; "
          f"{n - math.ceil(0.9 * n)} ops beyond p90")
    print(f"unscaled: latency_p50_ms {nearest_rank(raw, 0.5) * 1000.0:.6g} "
          f"latency_p90_ms {nearest_rank(raw, 0.9) * 1000.0:.6g} "
          f"setup_s {statistics.median(raw_setups):.6g}")
    print(f"failed_frac {len(errors) / (passes * n):.6f} ratio samples={passes * n}")
    for reason in sorted(set(errors)):
        print(f"  failed: {errors.count(reason)} x {reason}")
    print(f"stdout_sha256 {digest} ops={n}")
    return metrics, passes * n, len(errors), problems


def tracer_self_check(hg) -> list[str]:
    """Pin tracer counts on a tiny fixed instance against direct library calls."""
    os.makedirs("selfcheck")
    rep = chain_representation(hg, 6, False, random.Random(0))
    with open("selfcheck/tiny.hgr", "w", encoding="utf-8") as fh:
        fh.write(hg.formats.emit_hgr(rep.pattern.base))
    with open("selfcheck/tiny.rep", "w", encoding="utf-8") as fh:
        fh.write(hg.formats.emit_rep(rep, "tiny.hgr"))
    edges = [(v, v + 1) for v in range(5)]
    with open("selfcheck/tiny.gr", "w", encoding="utf-8") as fh:
        fh.write(hg.formats.emit_gr(hg.core.SimpleGraph.from_edges(6, edges)))
    files = ["--graph", "selfcheck/tiny.gr"]
    argvs = [
        ["clique"] + files + ["--rep", "selfcheck/tiny.rep", "--mode", "helly"],
        ["atoms"] + files,
        ["color"] + files + ["--k", "2"],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argvs:
            with redirect_stdout(io.StringIO()):
                hg.cli.main(argv)
    finally:
        tracer.uninstall()
    got = tracer.metrics({})
    g = hg.formats.load_instance("selfcheck/tiny.gr").graph
    base = rep.pattern.base
    d = hg.fpt.tree_decomposition(
        g, g.n - 1, approx_factor=hg.cli.GLOBAL_DEFAULTS["approx_factor"]
    ).decomposition
    want = {
        "cli.main.calls": len(argvs),
        "clique.cliques_emitted": len(
            hg.clique.maximal_cliques_capped(g, base.n + base.m * g.n).cliques
        ),
        "clique.atoms": len(hg.clique.clique_cutset_decomposition(g).atoms),
        "fpt.nice_nodes": len(hg.fpt.make_nice(d).nodes),
    }
    return [
        f"tracer self-check: {name} is {got[name]}, expected {value}"
        for name, value in want.items()
        if got[name] != value
    ]


def per_layer(args, workload, work: str) -> tuple[dict, int, int, list[str]]:
    _, hg, ops = setup(workload, args.seed, os.path.join(work, "setup"))
    problems = tracer_self_check(hg)
    cli = hg.cli
    count = min(TRACED_OPS, len(ops))
    # each op runs untraced and traced back to back, alternating which goes
    # first, so warm-up and drift do not land on one side
    tracer = Tracer()
    plain, traced = [], []
    for k in range(count):
        for use_tracer in (k % 2 == 1, k % 2 == 0):
            if not use_tracer:
                plain.append(run_op(cli, ops[k]))
                continue
            tracer.op = k
            tracer.install()
            try:
                traced.append(run_op(cli, ops[k]))
            finally:
                tracer.uninstall()
    for k in range(count):
        if traced[k].outs != plain[k].outs:
            problems.append(f"{ops[k].name}: tracing changed the output")
    problems += check_answers(workload, ops, dict(enumerate(traced)))
    if workload.check_trace is not None:
        try:
            workload.check_trace(tracer.records, ops)
        except WrongAnswer as exc:
            problems.append(str(exc))
    # self-check: spans' self times plus the time outside cli.main add up
    # to each op's wall time
    by_op = tracer.self_time_by_op()
    for k, run in enumerate(traced):
        residual = run.wall - run.in_cli
        if abs(by_op.get(k, 0.0) + residual - run.wall) > SELF_CHECK_TOLERANCE * run.wall:
            problems.append(f"tracer self-check: op {ops[k].name} self times do not add up")
    if any(own < -1e-9 for own in tracer.self_times()):
        problems.append("tracer self-check: a span has negative self time")
    if not any(p.startswith("tracer self-check") for p in problems):
        print(f"tracer self-check: ok (pinned counts; self times add up on {count} ops)")
    plain_wall = sum(r.wall for r in plain)
    traced_wall = sum(r.wall for r in traced)
    metrics = {
        name: (value, count)
        for name, value in tracer.metrics({k: paper_bound(ops[k]) for k in range(count)}).items()
    }
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1.0, count)
    metrics["trace_residual_frac"] = (
        sum(r.wall - r.in_cli for r in traced) / traced_wall, count
    )
    dump = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                   "ops": [[op.name, op.cls] for op in ops[:count]], "spans": tracer.spans}, fh)
    print(f"traced {count} ops, {len(tracer.spans)} spans -> {os.path.relpath(dump, ROOT)}")
    failed = sum(1 for r in traced if not r.ok)
    return metrics, count, failed, problems


def report(spec_metrics, computed, attempted, failed, problems) -> int:
    """Print each declared metric, then the result line; returns the exit code."""
    values = {}
    for name in sorted(set(computed) - {entry["name"] for entry in spec_metrics}):
        if computed[name][0]:
            print(f"  {name} {computed[name][0]:.6g}")
    for entry in spec_metrics:
        value, samples = computed[entry["name"]]
        values[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']} samples={samples}")
    for problem in problems:
        print(f"WRONG: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 1 if problems else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to it."""
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        if args.trace:
            computed, attempted, failed, problems = per_layer(args, workload, work)
        else:
            computed, attempted, failed, problems = end_to_end(args, workload, work)
    except ImportError as exc:
        print(f"error: cannot import hgraphs: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    return report(declared, computed, attempted, failed, problems)


if __name__ == "__main__":
    sys.exit(main())

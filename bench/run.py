#!/usr/bin/env python3
"""Benchmark of the tevdeg command line, driven in process through cli.main.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):
  sweep_grid    the acceptance sweep grid, serially and with --jobs
  deep_queries  a seeded stream of large hyp, certify and insert queries
  line_quantum  a seeded stream of p1 and qh queries

One client sends each call only after the previous one returned (a closed
loop).  Every timed leg runs in a freshly forked copy of a process that
has only imported the program and run a warm-up on inputs the timed legs
never use, so no leg can reuse results another leg computed.  Every
operation is checked against an independent value (bench/workloads.py).

--trace 0 measures the end-to-end metrics.  --trace 1 runs a fixed amount
of work in three passes, each untraced and then traced, and reports the
per-layer metrics from the spans of the fastest traced pass
(bench/tracing.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the context.
Exit status 2 means the program under test could not be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 11
MIN_ROUNDS = 2          # repetitions of the work, whatever the time
QUERY_BLOCKS = 4        # distinct query blocks per run: at least 100 queries
TRACE_PASSES = 3

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tevdeg.cli
tevdeg.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- legs: each runs in a forked child and returns plain data ---------------------

def call_cli(argv):
    """(exit status, stdout, stderr, wall ns) of one in-process CLI call."""
    from tevdeg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except Exception:
            # What a user would see as a traceback and exit status 1.
            traceback.print_exc()
            rc = 1
        dt = time.perf_counter_ns() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def in_fork(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps(fn(*args)).encode()
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            payload, code = b"null", 1
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"benchmark leg {fn.__name__} failed")
    return json.loads(payload)


def serial_queries(queries, tracer=None):
    rows = []
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.op_id = i
        rows.append(call_cli(q["argv"]))
    return {"rows": rows, "rss_mb": maxrss_mb()}


def jobs_queries(queries, jobs):
    # Fork, like the program's own sweep --jobs pool; this process has no threads.
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        t0 = time.perf_counter_ns()
        rows = pool.map(call_cli, [q["argv"] for q in queries], chunksize=1)
        wall = time.perf_counter_ns() - t0
    return {"rows": rows, "wall_ns": wall}


def sweep_leg(ranges, jobs, out_path, time_rows):
    """One sweep call; with time_rows, also the time of each valid row."""
    from tevdeg import cli

    row_ns = []
    if time_rows:
        record = cli.sweep_record

        def timed_record(*tup):
            t0 = time.perf_counter_ns()
            rec = record(*tup)
            if rec is not None:
                row_ns.append(time.perf_counter_ns() - t0)
            return rec

        cli.sweep_record = timed_record
    rc, out, err, wall = call_cli(W.sweep_argv(ranges, str(out_path), jobs))
    csv_text = Path(out_path).read_text(encoding="utf-8") if rc == 0 else ""
    return {"rc": rc, "out": out, "err": err, "wall_ns": wall, "csv": csv_text,
            "row_ns": row_ns, "rss_mb": maxrss_mb()}


def traced_leg(workload, units, out_path, spans_path):
    """The fixed work of a trace run, with every layer wrapped."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    if workload == "sweep_grid":
        tracer.op_id = 0
        res = sweep_leg(W.SWEEP_RANGES, 1, out_path, False)
    else:
        res = serial_queries(units, tracer)
    tracer.write(spans_path)
    res["layers"] = tracer.layer_metrics()
    return res


# -- checking ------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatch = []   # cross-checks that do not count as operations

    def queries(self, queries, rows, label):
        for q, (rc, out, err, _) in zip(queries, rows):
            self.attempted += 1
            why = W.check_query(q, rc, out)
            if why is not None:
                self.failed += 1
                print(f"FAIL {label} {' '.join(q['argv'])[:200]}: {why} {err[:200]}",
                      file=sys.stderr)

    def sweep(self, res, expected, label):
        self.attempted += len(expected)
        bad = len(expected) if res["rc"] != 0 else W.check_sweep_csv(res["csv"], expected)
        if bad:
            self.failed += bad
            print(f"FAIL {label}: {bad} of {len(expected)} rows wrong "
                  f"(exit {res['rc']}) {res['err'][:200]}", file=sys.stderr)

    def same(self, a, b, what):
        if a != b:
            self.mismatch.append(what)
            print(f"FAIL {what}", file=sys.stderr)


# -- workloads -----------------------------------------------------------------------

def run_timed(workload, seed, seconds, jobs, tally):
    """Repeat a serial and a --jobs leg over the same work until time is up.

    The work is the sweep, or the run's query blocks.  The machine this was
    tuned on is shared, and its speed swings by up to 2x over tens of
    seconds, so a median over one run mostly shows which phase the run fell
    in.  Every repetition runs in a fresh fork, and a time is the fastest
    repetition of each row or query.  Serial throughput adds to those the
    fastest time a leg spent outside them (the sweep's invalid tuples and
    its CSV); the --jobs legs have no such split and count whole.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if workload == "sweep_grid":
        expected = W.sweep_expected(W.SWEEP_RANGES)
        ops = len(expected)
    else:
        queries = [q for block in itertools.islice(W.query_blocks(workload, seed),
                                                   QUERY_BLOCKS) for q in block]
        ops = len(queries)
    best, best_other, best_jobs, rss, setup = None, math.inf, math.inf, [], []
    first_out = None
    rounds = 0
    deadline = time.monotonic() + seconds
    while rounds < MIN_ROUNDS or time.monotonic() < deadline:
        if workload == "sweep_grid":
            res = in_fork(sweep_leg, W.SWEEP_RANGES, 1, OUT_DIR / "sweep-serial.csv", True)
            jres = in_fork(sweep_leg, W.SWEEP_RANGES, jobs, OUT_DIR / "sweep-jobs.csv", False)
            tally.sweep(res, expected, "sweep")
            tally.sweep(jres, expected, f"sweep --jobs {jobs}")
            outs = [res["csv"], jres["csv"]]
            dts, serial_ns = res["row_ns"], res["wall_ns"]
        else:
            res = in_fork(serial_queries, queries)
            tally.queries(queries, res["rows"], "serial")
            dts = [row[3] for row in res["rows"]]
            serial_ns = sum(dts)
            # Longest first, by the fastest serial times so far, so that the
            # pool ends with both workers busy, not one straggler.
            order = sorted(range(ops), key=lambda i: -min(dts[i], (best or dts)[i]))
            jres = in_fork(jobs_queries, [queries[i] for i in order], jobs)
            tally.queries([queries[i] for i in order], jres["rows"], f"jobs={jobs}")
            pooled = [None] * ops
            for i, row in zip(order, jres["rows"]):
                pooled[i] = row[1]
            outs = [[row[1] for row in res["rows"]], pooled]
        first_out = first_out if first_out is not None else outs[0]
        for out in outs:
            tally.same(out, first_out, "output differs between legs or repetitions")
        best = dts if best is None else list(map(min, best, dts))
        best_other = min(best_other, serial_ns - sum(dts))
        best_jobs = min(best_jobs, jres["wall_ns"])
        rss.append(res["rss_mb"])
        # Set-up samples are spread over the run, so that a burst of load on
        # the machine moves only a few of them.
        setup.append(setup_sample())
        rounds += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    ms = [x / 1e6 for x in best]
    metrics = {
        "ops_per_s": ops / ((sum(best) + best_other) / 1e9),
        "jobs_ops_per_s": ops / (best_jobs / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
    }
    return metrics, {"latency_samples": len(ms), "rounds": rounds,
                     "setup_samples": len(setup)}


def run_traced(workload, seed, jobs, tally):
    """Fixed work, untraced and traced in turn: the grid once, or the first block.

    The counts repeat exactly for a seed.  Times are the fastest of the
    passes, for the reason given in run_timed.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}"
    spans_path = OUT_DIR / f"spans-{tag}.csv"
    sweep = workload == "sweep_grid"
    if sweep:
        expected = W.sweep_expected(W.SWEEP_RANGES)
    else:
        units = next(iter(W.query_blocks(workload, seed)))
    plain_s, traced_s, jobs_s = math.inf, math.inf, math.inf
    first = layers = None
    for _ in range(TRACE_PASSES):
        if sweep:
            plain = in_fork(sweep_leg, W.SWEEP_RANGES, 1, OUT_DIR / f"plain-{tag}.csv", False)
            par = in_fork(sweep_leg, W.SWEEP_RANGES, jobs, OUT_DIR / f"jobs-{tag}.csv", False)
            traced = in_fork(traced_leg, workload, None, OUT_DIR / f"traced-{tag}.csv",
                             spans_path)
            for label, res in (("plain", plain), ("jobs", par), ("traced", traced)):
                tally.sweep(res, expected, f"sweep {label}")
            outputs = [(res["out"], res["csv"]) for res in (plain, par, traced)]
            plain_ns, traced_ns = plain["wall_ns"], traced["wall_ns"]
            jobs_s = min(jobs_s, par["wall_ns"] / 1e9)
        else:
            plain = in_fork(serial_queries, units)
            traced = in_fork(traced_leg, workload, units, None, spans_path)
            tally.queries(units, plain["rows"], "plain")
            tally.queries(units, traced["rows"], "traced")
            outputs = [[row[1] for row in res["rows"]] for res in (plain, traced)]
            plain_ns = sum(row[3] for row in plain["rows"])
            traced_ns = sum(row[3] for row in traced["rows"])
        first = first if first is not None else outputs[0]
        for out in outputs:
            tally.same(out, first, "stdout differs between untraced, traced or --jobs runs")
        plain_s = min(plain_s, plain_ns / 1e9)
        if traced_ns / 1e9 < traced_s:
            traced_s, layers = traced_ns / 1e9, traced["layers"]
    layers["cli.sweep.jobs_efficiency"] = plain_s / (jobs * jobs_s) if sweep else 0.0
    layers["trace.overhead_ratio"] = plain_s / traced_s  # traced ÷ untraced ops/s
    return layers, {"stdout_identical": not tally.mismatch,
                    "spans_file": str(spans_path.relative_to(ROOT))}


# -- set-up time and context ---------------------------------------------------------

def setup_sample() -> float:
    """Time for a fresh interpreter to import tevdeg.cli and build the parser."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warm_up(workload, seed):
    """Run the code paths once on inputs that no timed leg uses."""
    if workload == "sweep_grid":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        call_cli(W.sweep_argv(W.WARMUP_SWEEP_RANGES, str(OUT_DIR / "warmup.csv"), 1))
    else:
        for q in W.warmup_block(workload, seed):
            call_cli(q["argv"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tevdeg" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'tevdeg' / 'cli.py'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tevdeg.cli  # noqa: F401  (imported once, before any fork)

    jobs = min(2, os.cpu_count() or 1)
    tally = Tally()
    started = time.monotonic()
    warm_up(args.workload, args.seed)
    if args.trace:
        metrics, extra = run_traced(args.workload, args.seed, jobs, tally)
    else:
        metrics, extra = run_timed(args.workload, args.seed, args.seconds, jobs, tally)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "jobs": jobs, "operations": tally.attempted,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "cross_check_failures": tally.mismatch, "elapsed_s": time.monotonic() - started,
        **extra,
    }
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {UNITS[name]}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.mismatch and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

They check that every per-layer metric is non-zero on the workload that
exercises its layer, that stdout is byte-identical with and without
tracing, that the counts repeat exactly for a seed, that the metric names
match BENCHMARK.json, and that the benchmark refuses to run without the
program.  About two minutes on two cores.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be non-zero, by the workload that exercises them.
NONZERO = {
    "sweep_grid": [
        "engine.point_factor.calls", "engine.point_factor.busy_s",
        "engine.point_factor.distinct_ratio", "engine.deg_T.calls", "engine.deg_T.self_s",
        "engine.step3_class.busy_s", "engine.pushforward_theta.busy_s",
        "engine.integrate_theta.busy_s", "engine.result_bits_max",
        "truncpoly.mul.calls", "truncpoly.mul.busy_s", "truncpoly.mul.term_pairs",
        "truncpoly.mul.kept_ratio", "enumerativity.certify.calls",
        "closed_forms.calls", "closed_forms.busy_s", "cli.main.self_s",
        "cli.sweep.valid_ratio", "cli.sweep.jobs_efficiency", "trace.overhead_ratio",
    ],
    "deep_queries": [
        "engine.point_factor.calls", "engine.point_factor.busy_s",
        "engine.point_factor.distinct_ratio", "enumerativity.certify.calls",
        "enumerativity.certify.busy_s", "enumerativity.strata_checked",
        # Only the insertion closed form multiplies dense univariates.
        "truncpoly.unipoly_mul.busy_s",
        "closed_forms.calls", "closed_forms.busy_s", "trace.overhead_ratio",
    ],
    "line_quantum": [
        "schubert.pieri_special.calls", "schubert.pieri_special.busy_s",
        "schubert.pieri_terms_out", "quantum.qmul.calls", "quantum.qmul.busy_s",
        "quantum.qmul.term_pairs", "closed_forms.calls", "closed_forms.busy_s",
        "trace.overhead_ratio",
    ],
}
EXACT = (
    "engine.point_factor.calls", "enumerativity.strata_checked",
    "schubert.pieri_special.calls", "quantum.qmul.calls", "truncpoly.mul.term_pairs",
)


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.cache
def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    context, res = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return context["context"], res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_leaves_stdout_unchanged(workload):
    context, res = result(workload, 7, 1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert context["stdout_identical"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_nonzero_where_the_layer_runs(workload):
    metrics = result(workload, 7, 1)[1]["metrics"]
    assert [m for m in NONZERO[workload] if not metrics[m]["value"] > 0] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    first = result(workload, 7, 1)[1]["metrics"]
    proc = bench(workload, 7, 1)
    second = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in EXACT:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    context, res = result(workload, 7, 0)
    assert res["correct"] and res["failed"] == 0
    assert context["error_rate"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

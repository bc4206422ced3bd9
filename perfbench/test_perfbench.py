"""Self-tests of the benchmark: toy-size runs of every workload pass their
checks, the traced run yields every per-layer metric, and the checker counts
wrong results as failed.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vbe import optimize  # noqa: E402
from vbe.symmetry import ClosureBasis  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_logs(workload, tracer=None):
    logs = [run.JobLog(j) for j in workloads.build_jobs(workload, seed=0, toy=True)]
    run.run_jobs(logs, seconds=0.0, tracer=tracer)
    run.check_across_jobs(logs)
    return logs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_passes_checks(workload):
    logs = toy_logs(workload)
    assert [l.errors for l in logs] == [[]] * len(logs)
    assert all(l.attempted == 1 and len(l.untraced) == 1 for l in logs)
    metrics = run.end_to_end(logs, setup=[0.1, 0.2, 0.3])
    assert {m["name"] for m in DECLARED["end_to_end"]} <= metrics.keys()
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize(
    "workload, busy, idle",
    [
        ("closure", "pauli.product_packed.calls", "circuit.evalgrad.calls"),
        ("generic_encode", "circuit.evalgrad.calls", "pauli.product_packed.calls"),
        ("gqsp_search", "optimize.restarts", None),
    ],
)
def test_traced_toy_run_reports_every_per_layer_metric(workload, busy, idle):
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        logs = toy_logs(workload, tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(optimize.bfgs_minimize, "__wrapped__")
    assert all(l.traced is not None and not l.errors for l in logs)
    metrics = run.per_layer(logs, tracer)
    assert {m["name"] for m in DECLARED["per_layer"]} <= metrics.keys()
    assert metrics[busy] > 0
    if idle:
        assert metrics[idle] == 0
    assert metrics["checks.failed_frac"] == 0
    evaluations = sum(c.get("evaluations", 0) for c in spans.job_counts(tracer.spans).values())
    assert evaluations == metrics["circuit.evalgrad.calls"]


def test_self_time_subtracts_direct_children():
    class Layer:
        @staticmethod
        def inner():
            return sum(range(20000))

        @staticmethod
        def outer():
            return Layer.inner() + Layer.inner()

    tracer = spans.Tracer()
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", "outer")
    Layer.outer()
    tracer.uninstall()
    outer, inner1, inner2 = tracer.spans
    assert outer[spans.NAME] == "outer" and inner1[spans.PARENT] == 0 == inner2[spans.PARENT]
    self_t = spans.self_times(tracer.spans)
    children = sum(s[spans.END] - s[spans.START] for s in (inner1, inner2))
    assert self_t[0] == pytest.approx(outer[spans.END] - outer[spans.START] - children)
    assert Layer.outer() == 2 * sum(range(20000))  # originals restored


def test_wrong_dim_b_fails():
    job = workloads.closure_job("Sn", 3)
    cb = job.run()
    assert job.check(cb) == []
    extra = ClosureBasis(cb.lie_basis, cb.full_basis + cb.full_basis[:1])
    assert job.check(extra)


def test_plain_row_mismatch_fails():
    orbit = {"dim_l": 8, "dim_b": 10, "result": 10}
    summaries = {"closure/Sn3": orbit, "closure/Sn3/plain": dict(orbit, dim_l=9)}
    assert list(workloads.check_plain_rows(summaries)) == ["closure/Sn3/plain"]
    assert workloads.check_plain_rows({**summaries, "closure/Sn3/plain": orbit}) == {}


def perturbed(report):
    return replace(report, theta=report.theta + 1e-3)


def test_perturbed_theta_fails_search_check():
    job = workloads.gqsp_search_job("Sn", 2, seed=0)
    res = job.run()
    assert job.check(res) == []
    bad = replace(res, reports={**res.reports, res.m_thres: perturbed(res.reports[res.m_thres])})
    assert any("recomputed epsilon" in e for e in job.check(bad))
    assert job.check(replace(res, m_thres=None))


def test_perturbed_theta_fails_encode_check():
    job = workloads.fixed_encode_job(n=2, layers=5)
    report = job.run()
    assert job.check(report) == []
    assert job.check(perturbed(report))


def test_raising_job_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    log = run.JobLog(workloads.Job("boom", boom, check=lambda r: [], summary=lambda r: {}))
    run.run_jobs([log], seconds=0.0)
    assert (log.attempted, log.failed, log.summary, len(log.untraced)) == (1, 1, None, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

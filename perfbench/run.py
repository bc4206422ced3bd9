"""Benchmark of the vbe reproduction jobs.

    python3 perfbench/run.py --workload closure --seed 0 --seconds 40 --trace 0

Run from the repository root.  One run is one process with one BLAS thread.
It runs the workload's jobs (see ``workloads.py``) once, then repeats single
jobs while the next one still fits in ``--seconds``, checks every result, and
prints as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the first pass runs under the span recorder of
``spans.py`` and the metrics are the per-layer ones.  A run record (machine,
per-job results and times, spans) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
SETUP_PROBES = 5
REF_REPS = 1000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        type=float,
        metavar="SPAWNED_AT",
        help="set up, print time.monotonic() - SPAWNED_AT and exit (one set-up probe)",
    )
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, from spawn to their inputs being built.

    The probe reports the time itself against the system-wide monotonic
    clock, so the parent's polling for its exit does not enter the figure.
    """
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", repr(time.monotonic())]
        out = subprocess.run(
            cmd, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True
        )
        times.append(float(out.stdout))
    return times


def reference_seconds() -> float:
    """Time of a fixed mix of small complex matmuls, bincounts and dict updates.

    It runs between job executions.  An execution's time divided by the mean
    of the reference times just before and after it is its time in reference
    units, which cancels much of the speed drift of a shared host (see
    METRICS.md).  The mix holds NumPy calls on small arrays and plain Python,
    as the jobs do.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    keys = rng.integers(0, 4096, 1000)
    weights = rng.standard_normal(1000)
    u = np.eye(16, dtype=np.complex128)
    table: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(REF_REPS):
        u = q @ u  # q is unitary, so u stays bounded
        np.bincount(keys, weights=weights, minlength=4096)
        for j in range(30):
            table[j] = table.get(j, 0) + i * j % 7
    return time.perf_counter() - t0


class Execution(NamedTuple):
    seconds: float
    ref: float  # mean reference time around the execution

    @property
    def in_refs(self) -> float:
        return self.seconds / self.ref


class JobLog:
    """Times, result summary and check failures of one job's executions."""

    def __init__(self, job):
        self.job = job
        self.untraced: list[Execution] = []
        self.traced: Execution | None = None
        self.summary: dict | None = None
        self.errors: list[str] = []
        self.failed = 0
        self.attempted = 0

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        self.errors += errors
        print(f"{self.job.name}: {'; '.join(errors)}", file=sys.stderr)

    def execute(self) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.job.run()
        except Exception:
            dt = time.perf_counter() - t0
            self.fail([traceback.format_exc()])
        else:
            dt = time.perf_counter() - t0
            self.summary = self.job.summary(result)
            errors = self.job.check(result)
            if errors:
                self.fail(errors)
        return dt

    def median_seconds(self) -> float:
        return statistics.median(e.seconds for e in self.untraced)

    def median_in_refs(self) -> float:
        return statistics.median(e.in_refs for e in self.untraced)


def run_jobs(logs: list[JobLog], seconds: float, tracer=None) -> None:
    """One pass over every job, then repeats of single jobs while they fit.

    Under a tracer the first pass is traced and the repeats are not, so the
    traced run also yields the tracing overhead.
    """
    t0 = time.perf_counter()
    ref = reference_seconds()
    last = {}

    def execute(log: JobLog, traced: bool) -> None:
        nonlocal ref
        dt = log.execute()
        after = reference_seconds()
        run = Execution(dt, (ref + after) / 2)
        if traced:
            log.traced = run
        else:
            log.untraced.append(run)
        ref = after
        last[log] = dt

    for log in logs:
        if tracer is not None:
            tracer.job = log.job.name
        execute(log, traced=tracer is not None)
    if tracer is not None:
        tracer.uninstall()
    ran = True
    while ran:
        ran = False
        for log in logs:
            if time.perf_counter() - t0 + last[log] <= seconds:
                execute(log, traced=False)
                ran = True


def check_across_jobs(logs: list[JobLog]) -> None:
    import workloads

    by_name = {l.job.name: l for l in logs}
    summaries = {name: l.summary for name, l in by_name.items() if l.summary}
    for name, errors in workloads.check_plain_rows(summaries).items():
        by_name[name].fail(errors)


def anchored(logs: list[JobLog], prefix: str = "") -> list[JobLog]:
    """Jobs with a pinned anchor and a result to set against it."""
    return [
        l for l in logs
        if l.job.name.startswith(prefix) and l.job.anchor is not None
        and l.summary and l.summary["result"] is not None
    ]


def end_to_end(logs: list[JobLog], setup: list[float]) -> dict:
    pinned = anchored(logs)
    return {
        "wall_ref": sum(l.median_in_refs() for l in logs),
        "wall_s": sum(l.median_seconds() for l in logs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "result_over_anchor": (
            sum(l.summary["result"] for l in pinned) / sum(l.job.anchor for l in pinned)
        ),
    }


def per_layer(logs: list[JobLog], tracer) -> dict:
    import spans

    metrics = spans.layer_metrics(tracer.spans)
    # traced minus untraced time in reference units, over the jobs run both
    # ways; overhead_s turns it into seconds at the speed of each traced run
    both = [l for l in logs if l.traced is not None and l.untraced]
    extra = [l.traced.in_refs - l.median_in_refs() for l in both]
    untraced = sum(l.median_in_refs() for l in both)
    metrics["trace.overhead_s"] = sum(x * l.traced.ref for x, l in zip(extra, both))
    metrics["trace.overhead_frac"] = sum(extra) / untraced if untraced else 0.0
    metrics["trace.overhead_jobs"] = len(both)
    metrics["search.layers_over_anchor"] = sum(
        l.summary["result"] - l.job.anchor for l in anchored(logs, "search/")
    )
    metrics["checks.failed_frac"] = sum(l.failed for l in logs) / sum(l.attempted for l in logs)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vbe").is_dir():
        print(f"no vbe sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # pinned before NumPy loads its BLAS; set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed)
    if args.setup_probe is not None:
        print(time.monotonic() - args.setup_probe)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    logs = [JobLog(j) for j in jobs]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    run_jobs(logs, args.seconds, tracer)
    check_across_jobs(logs)
    metrics = per_layer(logs, tracer) if tracer else end_to_end(logs, setup)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_probes_s": setup,
        "metrics": metrics,
        "jobs": {
            l.job.name: {
                "summary": l.summary,
                "anchor": l.job.anchor,
                "untraced": [e._asdict() for e in l.untraced],
                "traced": l.traced and l.traced._asdict(),
                "errors": l.errors,
            }
            for l in logs
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["per_m"] = spans.per_m_times(tracer.spans)
        record["counts"] = spans.job_counts(tracer.spans)
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    attempted = sum(l.attempted for l in logs)
    failed = sum(l.failed for l in logs)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Opt-in span recorder for the traced benchmark run.

:func:`install` wraps the public ``vbe`` functions at the module attributes
their callers look them up from, so no code under ``src/`` changes.  Each call
becomes a span ``[name, start, end, parent, job, attrs]`` kept in memory;
:meth:`Tracer.write` dumps them as JSON lines when the run ends, and
:func:`layer_metrics` reduces them to the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, JOB, ATTRS = range(6)

BFGS_STATUSES = ("f_floor", "grad_tol", "stop_criterion", "max_iterations", "line_search_failed")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``before(*args, **kwargs)`` and ``after(result)`` return attributes
        stored on the span; they run outside the timed interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.job, attrs]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
            if after:
                attrs.update(after(out))
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fields = ("name", "start", "end", "parent", "job", "attrs")
                fh.write(json.dumps(dict(zip(fields, s))))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap every hot-path layer of ``vbe`` at its callers' lookup site."""
    from vbe import encode, optimize, pauli, symmetry

    def pairs(n, k1, c1, k2, c2, **_):
        return {"pairs": len(k1) * len(k2)}

    def grad_shape(c, theta):
        return {"params": c.param_count, "dim": c.dim}

    wraps = [
        (symmetry, "product_packed", "pauli.product_packed", pairs, None),
        (pauli.SpanBasis, "add_packed", "pauli.add_packed", None, lambda ok: {"accepted": ok}),
        (symmetry, "sum_from_packed", "pauli.sum_from_packed", None, None),
        (symmetry, "symmetric_orbit_compression", "symmetry.orbit_compression", None, None),
        (symmetry, "lie_closure", "symmetry.lie_closure", None, None),
        (symmetry, "associative_closure", "symmetry.associative_closure", None, None),
        (symmetry, "closure_basis", "symmetry.closure_basis", None, None),
        # the GQSP search closes its generators to pick a start layer
        (optimize, "closure_basis", "symmetry.closure_basis", None, None),
        (encode, "evaluate_with_gradients", "circuit.evalgrad", grad_shape, None),
        (encode.EncodeObjective, "value_and_gradient", "encode.costgrad", None, None),
        (
            optimize,
            "bfgs_minimize",
            "optimize.bfgs",
            None,
            lambda r: {"status": r.status, "iterations": r.iterations},
        ),
        (
            optimize,
            "multistart_encode",
            "optimize.multistart",
            lambda target, spec, opts, **_: {"M": spec.layers},
            lambda r: {"converged": r.converged},
        ),
        (
            optimize,
            "layer_threshold_search",
            "optimize.search",
            None,
            lambda r: {"m_thres": r.m_thres},
        ),
    ]
    for owner, attr, name, before, after in wraps:
        tracer.wrap(owner, attr, name, before, after)


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def per_m_times(spans: list[list]) -> dict[str, dict[int, dict]]:
    """Multistart spans grouped by job and layer count M.

    ``EncodeReport.wall_time`` of a threshold search covers only the winning
    sequence's multistart, so the time per M is taken from the spans.
    """
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for s in spans:
        if s[NAME] != "optimize.multistart":
            continue
        cell = out[s[JOB]].setdefault(
            s[ATTRS]["M"], {"s": 0.0, "multistarts": 0, "restarts": 0, "exact": False}
        )
        cell["s"] += s[END] - s[START]
        cell["multistarts"] += 1
        cell["exact"] = cell["exact"] or bool(s[ATTRS].get("converged"))
    for s in spans:
        if s[NAME] == "optimize.bfgs" and s[PARENT] is not None:
            p = spans[s[PARENT]]
            if p[NAME] == "optimize.multistart":
                out[p[JOB]][p[ATTRS]["M"]]["restarts"] += 1
    return dict(out)


def job_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Objective evaluations, BFGS iterations and restarts of each job."""
    out: dict[str, Counter] = defaultdict(Counter)
    for s in spans:
        if s[NAME] == "encode.costgrad":
            out[s[JOB]]["evaluations"] += 1
        elif s[NAME] == "optimize.bfgs":
            out[s[JOB]]["iterations"] += s[ATTRS]["iterations"]
            out[s[JOB]]["restarts"] += 1
    return {job: dict(c) for job, c in out.items()}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics named in BENCHMARK.json, from one traced pass."""
    self_t = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for s, st in zip(spans, self_t):
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += st
        calls[s[NAME]] += 1

    def by_name(name):
        return [s for s in spans if s[NAME] == name]

    add = by_name("pauli.add_packed")
    evalgrad = by_name("circuit.evalgrad")
    bfgs = by_name("optimize.bfgs")
    iterations = sum(s[ATTRS]["iterations"] for s in bfgs)
    stops = Counter(s[ATTRS]["status"] for s in bfgs)
    failed_m_s = sum(
        cell["s"]
        for cells in per_m_times(spans).values()
        for cell in cells.values()
        if not cell["exact"]
    )
    m = {
        "pauli.product_packed.calls": calls["pauli.product_packed"],
        "pauli.product_packed.pairs": sum(
            s[ATTRS]["pairs"] for s in by_name("pauli.product_packed")
        ),
        "pauli.product_packed.s": total["pauli.product_packed"],
        "pauli.add_packed.calls": len(add),
        "pauli.add_packed.accept_frac": (
            sum(bool(s[ATTRS]["accepted"]) for s in add) / len(add) if add else 0.0
        ),
        "pauli.add_packed.s": total["pauli.add_packed"],
        "pauli.sum_from_packed.s": total["pauli.sum_from_packed"],
        "symmetry.lie_closure.self_s": own["symmetry.lie_closure"],
        "symmetry.associative_closure.self_s": own["symmetry.associative_closure"],
        "symmetry.orbit_compression.s": total["symmetry.orbit_compression"],
        "circuit.evalgrad.calls": len(evalgrad),
        "circuit.evalgrad.s": total["circuit.evalgrad"],
        "circuit.evalgrad.p50_ms": (
            1e3 * statistics.median(s[END] - s[START] for s in evalgrad) if evalgrad else 0.0
        ),
        # the (P, d, d) complex gradient tensor of the largest circuit evaluated
        "circuit.grad_tensor_mb": max(
            (s[ATTRS]["params"] * s[ATTRS]["dim"] ** 2 * 16 / 1e6 for s in evalgrad), default=0.0
        ),
        "encode.costgrad.self_s": own["encode.costgrad"],
        "optimize.restarts": len(bfgs),
        "optimize.iterations": iterations,
        "optimize.evals_per_iter": calls["encode.costgrad"] / iterations if iterations else 0.0,
        "optimize.exact_frac": stops["f_floor"] / len(bfgs) if bfgs else 0.0,
        "optimize.bfgs.self_s": own["optimize.bfgs"],
        "optimize.failed_m.s": failed_m_s,
    }
    for status in BFGS_STATUSES:
        m[f"optimize.stop.{status}"] = stops[status]
    return m

"""Workload definitions: the jobs each workload runs and the checks on their results.

A job is one reproduction call into ``vbe`` with inputs built at set-up.  Its
``run`` is the timed part; ``check`` inspects the result afterwards and
returns the reasons it is wrong (an empty list means the result passed).

The jobs reach ``vbe`` only through module attributes (``symmetry.closure_basis``,
``optimize.layer_threshold_search``, ...), so the wrappers installed by
:mod:`spans` see every call.

Search inputs are a fixed panel of target seeds rather than being drawn from
the benchmark seed.  A single threshold search varies too much from one
target or optimizer seed to the next (the time of a GQSP Sn 3 search ranged
4.7 s to 18 s over sixteen seeds, a coefficient of variation of 0.45), so a
seeded run could not give a steady end-to-end time within the run length.
The benchmark seed orders the jobs of a pass instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from vbe import optimize, symmetry
from vbe.circuit import AnsatzSpec, build_ansatz
from vbe.encode import cost, subnormalize
from vbe.pauli import to_dense
from vbe.resources import estimate_generic_threshold, free_parameter_bound
from vbe.tables import BDIM_TABLE, GQSP_TABLE
from vbe.targets import random_matrix

WORKLOADS = ("closure", "generic_encode", "gqsp_search")

# rows also closed with the generators passed as a plain list, which takes the
# 4^n string-table path of SpanBasis instead of orbit coordinates
PLAIN_ROWS = (("Z2xz", 4), ("Cn", 5), ("Sn", 7))

# (field, structure) of the n=2 generic searches, block 2 with 4 restarts
GENERIC_CELLS = (("complex", "arbitrary"), ("complex", "hermitian"), ("real", "hermitian"))
GENERIC_N = 2
GENERIC_BLOCK = 2
GENERIC_RESTARTS = 4

# (kind, n, target seeds).  Cn 3 is the same problem as Sn 3 and all n=2
# kinds coincide.  Sn 2 runs on three seeds because seeds 1 and 2 land one
# layer above the GQSP_TABLE anchor; Sn 3 costs about 7 s a search.
GQSP_CELLS = (("Sn", 2, (0, 1, 2)), ("Sn", 3, (0,)))

# fixed-depth encode: n=3, M=11, complex arbitrary (144 parameters, d=16)
FIXED_ENCODE = dict(n=3, layers=11)

PANEL_SEED = 0
EPS_TOL = 1e-12  # slack on the exactness threshold when re-evaluating epsilon


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    summary: Callable[[Any], dict]
    anchor: int | None = None  # pinned value that ``summary()["result"]`` is measured against


# --------------------------------------------------------------------------
# closure
# --------------------------------------------------------------------------
def closure_job(kind: str, n: int, plain: bool = False) -> Job:
    gens = symmetry.heisenberg_generator_set(kind, n)
    arg = list(gens.generators) if plain else gens
    anchor = BDIM_TABLE[(kind, n)]

    def check(cb) -> list[str]:
        if cb.dim_b != anchor:
            return [f"dim_b {cb.dim_b} != BDIM_TABLE {anchor}"]
        return []

    return Job(
        name=f"closure/{kind}{n}" + ("/plain" if plain else ""),
        run=lambda: symmetry.closure_basis(arg),
        check=check,
        summary=lambda cb: {"dim_l": cb.dim_l, "dim_b": cb.dim_b, "result": cb.dim_b},
        anchor=anchor,
    )


def check_plain_rows(summaries: dict[str, dict]) -> dict[str, list[str]]:
    """Plain-list rows must give the same dim_l and dim_b as their orbit rows."""
    errors = {}
    for name, s in summaries.items():
        if not name.endswith("/plain"):
            continue
        orbit = summaries.get(name.removesuffix("/plain"))
        if orbit is None:
            continue
        if (s["dim_l"], s["dim_b"]) != (orbit["dim_l"], orbit["dim_b"]):
            errors[name] = [
                f"plain (dim_l, dim_b) {(s['dim_l'], s['dim_b'])} != orbit "
                f"{(orbit['dim_l'], orbit['dim_b'])}"
            ]
    return errors


# --------------------------------------------------------------------------
# encodings
# --------------------------------------------------------------------------
def encoding_errors(target, spec: AnsatzSpec, report, param_bound: int) -> list[str]:
    """Re-evaluate a claimed exact encoding on a freshly built circuit."""
    errors = []
    circuit = build_ansatz(spec)
    eps = cost(target, circuit, report.theta)
    if not report.converged:
        errors.append(f"M={spec.layers}: not exact (epsilon {report.epsilon:.3e})")
    if eps > optimize.OptimizeOptions().epsilon_exact + EPS_TOL:
        errors.append(f"M={spec.layers}: recomputed epsilon {eps:.3e} is not exact")
    if abs(eps - report.epsilon) > EPS_TOL:
        errors.append(
            f"M={spec.layers}: recomputed epsilon {eps:.3e} != reported {report.epsilon:.3e}"
        )
    if circuit.param_count != report.param_count:
        errors.append(
            f"M={spec.layers}: {circuit.param_count} parameters, report says {report.param_count}"
        )
    if report.param_count < param_bound:
        errors.append(
            f"M={spec.layers}: {report.param_count} parameters"
            f" < free-parameter bound {param_bound}"
        )
    return errors


def search_summary(res) -> dict:
    per_m = {
        m: {
            "epsilon": r.epsilon,
            "converged": r.converged,
            "params": r.param_count,
            "reported_iterations": r.total_iterations,
        }
        for m, r in sorted(res.reports.items())
    }
    return {
        "m_thres": res.m_thres,
        "result": res.m_thres,
        "epsilon": None if res.m_thres is None else res.reports[res.m_thres].epsilon,
        "reported_iterations": sum(r.total_iterations for r in res.reports.values()),
        "per_m": per_m,
    }


def search_errors(res, spec_for_report, target, param_bound: int) -> list[str]:
    if res.m_thres is None or not res.complete:
        return [f"no threshold found (tried M={sorted(res.reports)})"]
    report = res.reports[res.m_thres]
    return encoding_errors(target, spec_for_report(report), report, param_bound)


def generic_search_job(field: str, structure: str) -> Job:
    n, seed = GENERIC_N, PANEL_SEED
    target = subnormalize(random_matrix(n, field, structure, seed=seed))
    spec = AnsatzSpec(
        family="block",
        system_qubits=n,
        layers=1,
        block_id=GENERIC_BLOCK,
        restriction=field,
        hermitian=structure == "hermitian",
    )
    opts = optimize.OptimizeOptions(restarts=GENERIC_RESTARTS, seed=seed)
    bound = free_parameter_bound(n, field, structure)
    return Job(
        name=f"search/block{GENERIC_BLOCK}/n{n}/{field}-{structure}/s{seed}",
        run=lambda: optimize.layer_threshold_search(target, spec, opts),
        check=lambda res: search_errors(
            res, lambda r: replace(spec, layers=r.layers), target, bound
        ),
        summary=search_summary,
        anchor=estimate_generic_threshold(spec),
    )


def gqsp_search_job(kind: str, n: int, seed: int) -> Job:
    gens = symmetry.heisenberg_generator_set(kind, n)
    target = subnormalize(to_dense(symmetry.symmetric_heisenberg_terms(kind, n, seed)))
    family = optimize.GqspFamily(gens)
    opts = optimize.OptimizeOptions(seed=seed)
    # a hermitian element of span(B) has dim_b real parameters
    bound = BDIM_TABLE[(kind, n)]

    def spec_for(report):
        indices = tuple(gens.labels.index(label) for label in report.sequence_labels)
        return family.spec_for_sequence(indices)

    return Job(
        name=f"search/gqsp/{kind}{n}/s{seed}",
        run=lambda: optimize.layer_threshold_search(target, family, opts),
        check=lambda res: search_errors(res, spec_for, target, bound),
        summary=search_summary,
        anchor=GQSP_TABLE[(kind, n)][1],
    )


def fixed_encode_job(n: int, layers: int) -> Job:
    target = subnormalize(random_matrix(n, "complex", "arbitrary", seed=PANEL_SEED))
    spec = AnsatzSpec(family="block", system_qubits=n, layers=layers, block_id=GENERIC_BLOCK)
    opts = optimize.OptimizeOptions(restarts=GENERIC_RESTARTS, seed=PANEL_SEED)
    bound = free_parameter_bound(n, "complex", "arbitrary")
    return Job(
        name=f"encode/block{GENERIC_BLOCK}/n{n}/M{layers}/s{PANEL_SEED}",
        run=lambda: optimize.multistart_encode(target, spec, opts),
        check=lambda r: encoding_errors(target, spec, r, bound),
        summary=lambda r: {
            "epsilon": r.epsilon,
            "params": r.param_count,
            "reported_iterations": r.total_iterations,
            "restart_index": r.restart_index,
        },
    )


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------
def build_jobs(workload: str, seed: int, toy: bool = False) -> list[Job]:
    """The jobs of one pass, in the order the seed gives them.

    ``toy`` shrinks every workload to a few seconds for the self-tests; the
    jobs keep their kind and their checks.
    """
    if workload == "closure":
        rows = [k for k in BDIM_TABLE if not toy or k[1] <= 3]
        plain = [("Z2xz", 3)] if toy else PLAIN_ROWS
        jobs = [closure_job(k, n) for k, n in rows]
        jobs += [closure_job(k, n, plain=True) for k, n in plain]
    elif workload == "generic_encode":
        cells = GENERIC_CELLS[2:] if toy else GENERIC_CELLS
        jobs = [generic_search_job(f, s) for f, s in cells]
        fixed = dict(n=2, layers=5) if toy else FIXED_ENCODE
        jobs.append(fixed_encode_job(**fixed))
    elif workload == "gqsp_search":
        cells = [("Sn", 2, (0,))] if toy else GQSP_CELLS
        jobs = [gqsp_search_job(k, n, s) for k, n, seeds in cells for s in seeds]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(jobs)
    return jobs

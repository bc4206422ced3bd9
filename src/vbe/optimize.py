"""BFGS minimization and the encoding search protocols built on it.

The optimizer minimizes the smooth squared error C^2; encoding reports and
convergence thresholds are stated in terms of C.  The gradient criterion
||grad C|| <= tol is applied through the chain rule as
||grad C^2|| <= 2 C tol, which stays meaningful at the exact-encoding floor
where C itself is not differentiable.

An encoding is exact when a BFGS run ends with status "f_floor", that is
f = C^2 <= epsilon_exact^2.  That one rule ends every encode loop and sets
``EncodeReport.converged``.

Every search runs one encode loop: build the circuit once, run BFGS from
each start in turn, keep the lowest C (the earlier start on ties), and stop
at the first exact run.  :func:`multistart_encode` feeds the loop uniform
random starts.  :func:`layer_threshold_search` rank-screens each candidate
at each layer count M, runs a multistart on those that pass, in candidate
order (the family at M, or the GQSP random sequences 0, 1, ...), and
accepts M at the first exact candidate.  :func:`greedy_generator_search`
runs the loop once per tree node from one warm start.  Every report comes
from one builder, and where a report stands for several loops, its
iterations, evaluations, skips and wall time are their sums.

All randomness is derived from ``numpy.random.Philox`` streams
(:func:`~vbe.targets.make_rng`), one per restart and per sequence draw, so
every report is reproducible from its seed and independent of execution
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from vbe.circuit import AnsatzSpec, build_ansatz, count_nonlocal_gates, evaluate_with_gradients
from vbe.encode import EncodeObjective, TargetSpec, _ancilla_count
from vbe.resources import (
    estimate_generic_threshold,
    free_parameter_bound,
    threshold_layers_symmetric,
)
from vbe.symmetry import GeneratorSet, closure_basis
from vbe.targets import make_rng


@dataclass(frozen=True)
class OptimizeOptions:
    """Optimizer settings.  An encoding with C <= ``epsilon_exact`` is exact,
    and a run stops early once ||grad C|| <= ``grad_norm_tol``."""

    epsilon_exact: ClassVar[float] = 1e-10
    grad_norm_tol: ClassVar[float] = 1e-5
    max_iterations: int = 3000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class BfgsResult:
    x: np.ndarray
    f: float
    iterations: int
    status: str


_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9


def _zoom(fg_line, a_lo, a_hi, f_lo, g_lo, f0, df0):
    """Strong-Wolfe zoom on a bracketing interval (Nocedal-Wright 3.6), at most 30 steps."""
    f_hi = None
    for _ in range(30):
        # quadratic interpolation through (a_lo, f_lo, g_lo) and f_hi,
        # safeguarded by bisection away from the interval edges
        aj = None
        if f_hi is not None:
            d = a_hi - a_lo
            denom = 2.0 * (f_hi - f_lo - g_lo * d)
            if abs(denom) > 1e-300:
                aj = a_lo - g_lo * d * d / denom
        mid = 0.5 * (a_lo + a_hi)
        if aj is None or not np.isfinite(aj):
            aj = mid
        lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
        if not lo + 0.1 * (hi - lo) <= aj <= hi - 0.1 * (hi - lo):
            aj = mid
        fj, gj = fg_line(aj)
        if fj > f0 + _WOLFE_C1 * aj * df0 or fj >= f_lo:
            a_hi, f_hi = aj, fj
        else:
            if abs(gj) <= -_WOLFE_C2 * df0:
                return aj, fj
            if gj * (a_hi - a_lo) >= 0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, g_lo = aj, fj, gj
        if abs(a_hi - a_lo) < 1e-16 * max(1.0, abs(a_lo)):
            break
    # sufficient decrease alone is still a usable step
    if f_lo < f0 + _WOLFE_C1 * a_lo * df0:
        return a_lo, f_lo
    return None, None


def _line_search_wolfe(fg_line, f0, df0):
    """Bracket (at most 20 steps) + zoom strong-Wolfe search; returns
    (alpha, f_alpha) or (None, None)."""
    a_prev, f_prev, g_prev = 0.0, f0, df0
    alpha = 1.0
    for it in range(20):
        fa, ga = fg_line(alpha)
        if fa > f0 + _WOLFE_C1 * alpha * df0 or (fa >= f_prev and it > 0):
            return _zoom(fg_line, a_prev, alpha, f_prev, g_prev, f0, df0)
        if abs(ga) <= -_WOLFE_C2 * df0:
            return alpha, fa
        if ga >= 0:
            return _zoom(fg_line, alpha, a_prev, fa, ga, f0, df0)
        a_prev, f_prev, g_prev = alpha, fa, ga
        alpha = min(2.0 * alpha, 1e10)
    return None, None


def bfgs_minimize(fg, x0, opts: OptimizeOptions) -> BfgsResult:
    """Dense BFGS with a strong-Wolfe line search (c1=1e-4, c2=0.9).

    Minimizes a squared error f = C^2 given the fused evaluation
    ``fg(x) -> (f, grad f)``.  The run ends with one of four statuses:
    "f_floor" when f <= opts.epsilon_exact^2 (an exact encoding),
    "grad_tol" when ||grad f||_2 <= 2 sqrt(f) opts.grad_norm_tol (that is,
    ||grad C|| <= opts.grad_norm_tol) or no descent direction is left,
    "max_iterations" at the iteration cap, and "line_search_failed" when
    the line search finds no step, instead of raising.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, gx = fg(x)
    f_floor = opts.epsilon_exact**2
    h = np.eye(len(x))
    iterations = 0
    first_update = True
    while True:
        if fx <= f_floor:
            status = "f_floor"
            break
        if np.linalg.norm(gx) <= 2.0 * np.sqrt(max(fx, 0.0)) * opts.grad_norm_tol:
            status = "grad_tol"
            break
        if iterations >= opts.max_iterations:
            status = "max_iterations"
            break
        p = -(h @ gx)
        df0 = float(gx @ p)
        if df0 >= 0:
            # quasi-Newton direction lost descent; reset to steepest descent
            h = np.eye(len(x))
            p = -gx
            df0 = float(gx @ p)
            if df0 == 0.0:
                status = "grad_tol"
                break

        cache: dict[float, tuple[float, np.ndarray]] = {}

        def fg_line(alpha: float):
            if alpha not in cache:
                fa, ga = fg(x + alpha * p)
                cache[alpha] = (fa, ga)
            fa, ga = cache[alpha]
            return fa, float(ga @ p)

        alpha, f_new = _line_search_wolfe(fg_line, fx, df0)
        if alpha is None:
            status = "line_search_failed"
            break
        f_new, g_new = cache[alpha]
        s = alpha * p
        y = g_new - gx
        x = x + s
        sy = float(s @ y)
        if first_update and sy > 0:
            h *= sy / float(y @ y)
            first_update = False
        if sy > 1e-14 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            hy = h @ y
            # BFGS inverse update via the Sherman-Morrison form
            h -= rho * (np.outer(s, hy) + np.outer(hy, s))
            h += rho * (rho * float(y @ hy) + 1.0) * np.outer(s, s)
        fx, gx = f_new, g_new
        iterations += 1
    return BfgsResult(x=x, f=fx, iterations=iterations, status=status)


# --------------------------------------------------------------------------
# the encode loop
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class EncodeReport:
    epsilon: float
    theta: np.ndarray = field(compare=False, repr=False)
    iterations: int
    converged: bool
    param_count: int
    nonlocal_gates: int
    layers: int
    wall_time: float = field(compare=False, default=0.0)
    restart_index: int = 0
    status: str = ""
    total_iterations: int = 0
    evaluations: int = 0
    sequence_labels: tuple[str, ...] = ()
    skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "converged": self.converged,
            "iterations": self.iterations,
            "total_iterations": self.total_iterations,
            "evaluations": self.evaluations,
            "skipped": self.skipped,
            "param_count": self.param_count,
            "nonlocal_gates": self.nonlocal_gates,
            "layers": self.layers,
            "wall_time_s": round(self.wall_time, 3),
            "restart_index": self.restart_index,
            "status": self.status,
            "sequence": list(self.sequence_labels),
            "theta": [float(v) for v in self.theta],
        }


def _report(
    spec: AnsatzSpec,
    circuit,
    best: BfgsResult,
    restart_index: int,
    total_iterations: int,
    evaluations: int,
    skipped: int,
    t0: float,
) -> EncodeReport:
    """The report of one encode loop, or of one screened candidate, on ``circuit``.

    ``best`` is the loop's lowest-f run, or the candidate's first start as a
    run of no iterations.  It is exact when its status is "f_floor", and
    the wall time runs from ``t0``.
    """
    return EncodeReport(
        epsilon=float(np.sqrt(max(best.f, 0.0))),
        theta=best.x,
        iterations=best.iterations,
        converged=best.status == "f_floor",
        param_count=circuit.param_count,
        nonlocal_gates=count_nonlocal_gates(circuit),
        layers=spec.layers,
        wall_time=time.perf_counter() - t0,
        restart_index=restart_index,
        status=best.status,
        total_iterations=total_iterations,
        evaluations=evaluations,
        sequence_labels=spec.sequence_labels,
        skipped=skipped,
    )


def _encode(target: TargetSpec, spec: AnsatzSpec, starts, opts: OptimizeOptions) -> EncodeReport:
    """The encode loop: BFGS on C^2 from each vector ``starts(param_count)``
    yields, in order, on one circuit and one objective.

    The lowest f wins, the earlier start on ties, and the first exact run
    ends the loop.  ``total_iterations`` and ``evaluations`` cover every run.
    """
    circuit = build_ansatz(spec)
    obj = EncodeObjective(target, circuit)
    t0 = time.perf_counter()
    total_iters = 0
    for idx, theta0 in enumerate(starts(circuit.param_count)):
        res = bfgs_minimize(obj.value_and_gradient, theta0, opts)
        total_iters += res.iterations
        if idx == 0 or res.f < best.f:
            best, best_idx = res, idx
        if res.status == "f_floor":
            break
    return _report(spec, circuit, best, best_idx, total_iters, obj.evaluations, skipped=0, t0=t0)


def _summed(best: EncodeReport, reports: list[EncodeReport]) -> EncodeReport:
    """``best`` with the iterations, evaluations, skips and wall time of all ``reports``."""
    return replace(
        best,
        total_iterations=sum(r.total_iterations for r in reports),
        evaluations=sum(r.evaluations for r in reports),
        wall_time=sum(r.wall_time for r in reports),
        skipped=sum(r.skipped for r in reports),
    )


def _random_start(seed: int, restart: int, param_count: int) -> np.ndarray:
    """Restart ``restart``'s start in [-pi, pi), from its own Philox stream."""
    return make_rng(seed, restart).uniform(-np.pi, np.pi, size=param_count)


def multistart_encode(target: TargetSpec, spec: AnsatzSpec, opts: OptimizeOptions) -> EncodeReport:
    """The encode loop from ``opts.restarts`` uniform random starts in
    [-pi, pi), one Philox stream per restart; deterministic for a fixed seed.

    The restarts after the first exact one are skipped.  ``restart_index``
    names the winning restart, and ``converged`` means an exact encoding,
    not merely optimizer termination.  ``total_iterations`` and
    ``evaluations`` (objective calls) are summed over the restarts that ran.
    """

    def starts(param_count: int):
        for r in range(opts.restarts):
            yield _random_start(opts.seed, r, param_count)

    return _encode(target, spec, starts, opts)


# --------------------------------------------------------------------------
# threshold-layer search
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GqspFamily:
    """Symmetric GQSP ansatz family: a generator set plus the hermitian flag."""

    generator_set: GeneratorSet
    hermitian: bool = True

    def spec_for_sequence(self, indices: tuple[int, ...]) -> AnsatzSpec:
        gens = tuple(self.generator_set.generators[i] for i in indices)
        return AnsatzSpec(
            family="gqsp",
            system_qubits=self.generator_set.n,
            layers=len(indices),
            generators=gens,
            hermitian=self.hermitian,
            sequence_labels=tuple(self.generator_set.labels[i] for i in indices),
        )


@dataclass(frozen=True)
class ThresholdSearchResult:
    m_thres: int | None
    start: int
    reports: dict[int, EncodeReport]

    @property
    def complete(self) -> bool:
        """True when the search found a threshold (it did not give up)."""
        return self.m_thres is not None

    def to_dict(self) -> dict:
        return {
            "m_thres": self.m_thres,
            "start": self.start,
            "complete": self.complete,
            "per_m": {m: r.to_dict() for m, r in sorted(self.reports.items())},
        }


# The paper's random-layering protocol: per layer count M, this many random
# generator sequences with this many random initializations each.
GQSP_SEQUENCES = 10
GQSP_INITS = 5


def _candidates(family: AnsatzSpec | GqspFamily, m: int, opts: OptimizeOptions):
    """The (spec, options) pairs a threshold search tries at M layers, in order.

    A generic family has the one pair (family at M, opts).  A GQSP family has
    :data:`GQSP_SEQUENCES` random generator sequences with
    :data:`GQSP_INITS` restarts each; sequence ``s`` and its restart seed are
    drawn from the Philox stream ``make_rng(opts.seed, m, s)``.
    """
    if isinstance(family, AnsatzSpec):
        yield replace(family, layers=m), opts
        return
    n_gens = len(family.generator_set)
    for s_idx in range(GQSP_SEQUENCES):
        rng = make_rng(opts.seed, m, s_idx)
        indices = tuple(int(v) for v in rng.integers(0, n_gens, size=m))
        seed = int(rng.integers(0, 2**62))
        yield family.spec_for_sequence(indices), replace(opts, restarts=GQSP_INITS, seed=seed)


# Unit cotangents per stacked pullback of the block Jacobian: a fixed chunk,
# so the cotangent stack and the sweep state stay O(chunk * d^2) at any size.
_JACOBIAN_CHUNK = 32
_RANK_RTOL = 1e-9  # singular values above this share of the largest count


def _block_jacobian(circuit, theta: np.ndarray, sub: int) -> tuple[np.ndarray, np.ndarray]:
    """U(theta) and the real Jacobian of theta -> U(theta)[:sub, :sub].

    Row k < sub^2 is the gradient of Re U_ij and row sub^2 + k that of
    Im U_ij, for flat block index k = i * sub + j: the pullbacks of the unit
    cotangents E_ij and i E_ij, :data:`_JACOBIAN_CHUNK` of them per sweep.
    """
    u, pullback = evaluate_with_gradients(circuit, theta)
    n_entries = sub * sub
    rows = []
    for lo in range(0, 2 * n_entries, _JACOBIAN_CHUNK):
        k = np.arange(lo, min(lo + _JACOBIAN_CHUNK, 2 * n_entries))
        units = np.zeros((len(k), n_entries), dtype=np.complex128)
        units[np.arange(len(k)), k % n_entries] = np.where(k < n_entries, 1.0, 1.0j)
        rows.append(pullback(units.reshape(-1, sub, sub)))
    return u, np.concatenate(rows)


def _rank_screen(
    target: TargetSpec, spec: AnsatzSpec, opts: OptimizeOptions, class_dim: int
) -> EncodeReport | None:
    """The report of a candidate that cannot reach a generic target, or None.

    A candidate is screened when its block Jacobian, at its own first start
    (restart 0 of :func:`multistart_encode` under ``opts``), has numerical
    rank below ``class_dim``.  Its report holds that start and C there, with
    status "rank_deficient", no iterations and no evaluations, and counts
    one skip.
    """
    t0 = time.perf_counter()
    circuit = build_ansatz(spec)
    _ancilla_count(target, circuit)
    theta0 = _random_start(opts.seed, 0, circuit.param_count)
    sub = target.matrix.shape[0]
    u, jac = _block_jacobian(circuit, theta0, sub)
    sv = np.linalg.svd(jac, compute_uv=False)
    if np.sum(sv > _RANK_RTOL * sv.max(initial=0.0)) >= class_dim:
        return None
    f0 = float(np.linalg.norm(target.scaled() - u[:sub, :sub])) ** 2
    start = BfgsResult(x=theta0, f=f0, iterations=0, status="rank_deficient")
    return _report(
        spec, circuit, start, restart_index=0, total_iterations=0, evaluations=0, skipped=1, t0=t0
    )


def layer_threshold_search(
    target: TargetSpec,
    family: AnsatzSpec | GqspFamily,
    opts: OptimizeOptions,
    *,
    start: int | None = None,
) -> ThresholdSearchResult:
    """Find the smallest layer count with at least one exact encoding.

    Starts at ``start`` (at least 1), by default 5% above the closed-form
    estimate, and decrements down to one layer.  Each M runs
    :func:`multistart_encode` on its candidates in order (a generic family
    has one, a GQSP family :data:`GQSP_SEQUENCES` random generator
    sequences of :data:`GQSP_INITS` restarts each) and stops at the first
    exact one; M fails only when all of them miss.

    Every candidate is first rank-screened (:func:`_rank_screen`).  A
    circuit can reach a generic target of a matrix class only if the
    Jacobian of theta -> U(theta)[:sub, :sub] has rank equal to the class
    dimension, the class's number of real parameters (the "parameter
    dimension" of Haug, Bharti and Kim, arXiv:2102.01659).  That is
    ``free_parameter_bound`` of the target's qubit count and the spec's
    (restriction, hermitian) class for a generic family, and q * dim B for
    a GQSP family (q = 1 hermitian, 2 not), computed once per search.  A
    candidate whose block Jacobian at its first start has numerical rank
    (singular values above 1e-9 of the largest) below it runs no BFGS and
    counts as a skip.  The screen changes neither the candidates drawn nor
    their order.  It assumes the target is generic in its class, as the
    start estimates do.  The Heisenberg targets of ``GQSP_TABLE`` are not:
    they form a four-coupling family inside span(B).  Yet on every pinned
    cell (the ``perfbench`` searches and the ``GQSP_TABLE`` cells in the
    tests) no skipped candidate would have converged, so ``m_thres`` and
    its report are the unscreened search's.

    The report per M is the lowest-epsilon candidate's (the earlier on
    ties), with the iterations, evaluations, skips and wall time summed over
    every candidate tried at that M.  If the start itself fails the search
    walks upward instead, and gives up (``m_thres`` None, a partial result)
    at max(4 * start, start + 8) layers.  A GQSP target on other than the
    generators' qubit count raises ``ValueError``, and a target the register
    cannot block-encode raises :func:`multistart_encode`'s at the first
    screen, before any rank is taken.
    """
    if isinstance(family, AnsatzSpec):
        structure = "hermitian" if family.hermitian else "arbitrary"
        class_dim = free_parameter_bound(target.n, family.restriction, structure)
        est = estimate_generic_threshold(family)
    else:
        if target.n != family.generator_set.n:
            raise ValueError(f"target on {target.n} qubits, generators on {family.generator_set.n}")
        q = 1 if family.hermitian else 2
        dim_b = closure_basis(family.generator_set).dim_b
        class_dim = q * dim_b
        est = threshold_layers_symmetric(dim_b, q)
    if start is None:
        start = max(1, int(np.ceil(1.05 * max(est, 1))))
    if start < 1:
        raise ValueError(f"start must be at least 1, got {start}")

    def attempt(m: int) -> EncodeReport:
        reports = []
        for spec, sub_opts in _candidates(family, m, opts):
            screened = _rank_screen(target, spec, sub_opts, class_dim)
            reports.append(screened or multistart_encode(target, spec, sub_opts))
            if reports[-1].converged:
                break
        return _summed(min(reports, key=lambda r: r.epsilon), reports)

    reports = {start: attempt(start)}
    # walk down while M stays exact, or up to the cap until it first is
    up = not reports[start].converged
    m, last = start, (max(4 * start, start + 8) if up else 1)
    while m != last:
        m += 1 if up else -1
        reports[m] = attempt(m)
        if reports[m].converged == up:
            break
    m_thres = min((k for k, r in reports.items() if r.converged), default=None)
    return ThresholdSearchResult(m_thres=m_thres, start=start, reports=reports)


# --------------------------------------------------------------------------
# greedy generator-sequence search
# --------------------------------------------------------------------------
GREEDY_MAX_DEPTH = 32  # layers :func:`greedy_generator_search` adds at most


@dataclass(frozen=True)
class GreedySearchResult:
    sequence: tuple[int, ...]
    report: EncodeReport
    history: tuple[float, ...]


def greedy_generator_search(
    target: TargetSpec,
    generator_set: GeneratorSet,
    opts: OptimizeOptions,
) -> GreedySearchResult:
    """Width-1 tree search over generator sequences.

    After each accepted layer every candidate generator is tried as the
    next layer: one encode loop per child, warm-started from the previous
    optimum with the three new parameters drawn from uniform(-0.1, 0.1).
    The child with the lowest error wins, the lower generator index on
    ties.  Stops at exactness or at :data:`GREEDY_MAX_DEPTH` layers.  The
    ansatz is the hermitized GQSP circuit.  The root start is drawn the
    same way.  All parameters at zero would be a stationary point of every
    child, so the search could never leave it.  The draws come from one
    Philox stream, ``make_rng(opts.seed, 0)``.  The report's ``iterations``,
    ``total_iterations`` and ``evaluations`` are summed over every
    optimization the search ran, and ``wall_time`` is the whole search's.
    """
    family = GqspFamily(generator_set=generator_set)
    t0 = time.perf_counter()
    rng = make_rng(opts.seed, 0)
    sequence: tuple[int, ...] = ()
    root = family.spec_for_sequence(())
    best = _encode(target, root, lambda p: [rng.uniform(-0.1, 0.1, p)], opts)
    runs = [best]
    history = [best.epsilon]
    while not best.converged and len(sequence) < GREEDY_MAX_DEPTH:
        theta0 = np.concatenate([best.theta, rng.uniform(-0.1, 0.1, 3)])
        children = [
            _encode(target, family.spec_for_sequence(sequence + (k,)), lambda p: [theta0], opts)
            for k in range(len(generator_set))
        ]
        runs += children
        k = min(range(len(children)), key=lambda k: children[k].epsilon)
        sequence += (k,)
        best = children[k]
        history.append(best.epsilon)
    total = _summed(best, runs)
    wall_time = time.perf_counter() - t0
    report = replace(total, iterations=total.total_iterations, status="greedy", wall_time=wall_time)
    return GreedySearchResult(sequence=sequence, report=report, history=tuple(history))

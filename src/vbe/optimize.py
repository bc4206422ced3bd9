"""BFGS minimization and the encoding search protocols built on it.

The optimizer minimizes the smooth squared error C^2; encoding reports and
convergence thresholds are stated in terms of C.  The gradient criterion
||grad C|| <= tol is applied through the chain rule as
||grad C^2|| <= 2 C tol, which stays meaningful at the exact-encoding floor
where C itself is not differentiable.

All randomness is derived from ``numpy.random.Philox`` streams spawned per
restart (and per sequence draw), so every report is reproducible from its
seed and independent of execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from vbe.circuit import (
    AnsatzSpec,
    Circuit,
    build_ansatz,
    count_nonlocal_gates,
)
from vbe.encode import EncodeObjective, TargetSpec
from vbe.resources import (
    PARAM_INVERSION,
    estimate_generic_threshold,
    threshold_layers_symmetric,
)
from vbe.symmetry import GeneratorSet, closure_basis


@dataclass(frozen=True)
class OptimizeOptions:
    """Optimizer settings."""

    grad_norm_tol: float = 1e-5
    max_iterations: int = 3000
    epsilon_exact: float = 1e-10
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.grad_norm_tol, self.epsilon_exact) <= 0:
            raise ValueError("tolerances must be positive")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class BfgsResult:
    x: np.ndarray
    f: float
    grad_norm: float
    iterations: int
    converged: bool
    status: str


_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9


def _zoom(fg_line, a_lo, a_hi, f_lo, g_lo, f0, df0, max_iter=30):
    """Strong-Wolfe zoom on a bracketing interval (Nocedal-Wright 3.6)."""
    f_hi = None
    for _ in range(max_iter):
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


def _line_search_wolfe(fg_line, f0, df0, max_iter=20):
    """Bracket + zoom strong-Wolfe search; returns (alpha, f_alpha) or None."""
    a_prev, f_prev, g_prev = 0.0, f0, df0
    alpha = 1.0
    for it in range(max_iter):
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


def bfgs_minimize(fg, x0, opts: OptimizeOptions, *, trace=None) -> BfgsResult:
    """Dense BFGS with a strong-Wolfe line search (c1=1e-4, c2=0.9).

    Minimizes a squared error f = C^2 given the fused evaluation
    ``fg(x) -> (f, grad f)``.  Terminates when f <= opts.epsilon_exact^2,
    when ||grad f||_2 <= 2 sqrt(f) opts.grad_norm_tol (that is,
    ||grad C|| <= opts.grad_norm_tol), or at the iteration cap.  A failed
    line search ends the run with converged=False instead of raising.

    ``trace`` is called as trace(iteration, f, gnorm) once per accepted step.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, gx = fg(x)
    f_floor = opts.epsilon_exact**2
    h = np.eye(len(x))
    iterations = 0
    status = "max_iterations"
    first_update = True
    while True:
        gnorm = float(np.linalg.norm(gx))
        if trace is not None:
            trace(iterations, fx, gnorm)
        if fx <= f_floor:
            status = "f_floor"
            break
        if gnorm <= 2.0 * np.sqrt(max(fx, 0.0)) * opts.grad_norm_tol:
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
    converged = status in ("f_floor", "grad_tol")
    return BfgsResult(
        x=x,
        f=fx,
        grad_norm=float(np.linalg.norm(gx)),
        iterations=iterations,
        converged=converged,
        status=status,
    )


# --------------------------------------------------------------------------
# encoding drivers
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
    sequence_labels: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "converged": self.converged,
            "iterations": self.iterations,
            "total_iterations": self.total_iterations,
            "param_count": self.param_count,
            "nonlocal_gates": self.nonlocal_gates,
            "layers": self.layers,
            "wall_time_s": round(self.wall_time, 3),
            "restart_index": self.restart_index,
            "status": self.status,
            "sequence": list(self.sequence_labels),
            "theta": [float(v) for v in self.theta],
        }


def _restart_rngs(seed: int, count: int, salt: tuple[int, ...] = ()) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed, spawn_key=salt)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(count)]


def _optimize_circuit(
    target: TargetSpec,
    circuit: Circuit,
    theta0: np.ndarray,
    opts: OptimizeOptions,
    trace=None,
) -> BfgsResult:
    obj = EncodeObjective(target, circuit)
    return bfgs_minimize(obj.value_and_gradient, theta0, opts, trace=trace)


def multistart_encode(
    target: TargetSpec,
    spec: AnsatzSpec,
    opts: OptimizeOptions,
    *,
    trace=None,
) -> EncodeReport:
    """Best of ``opts.restarts`` independent optimizations from uniform
    random starts in [-pi, pi); deterministic for a fixed seed.

    The remaining restarts are skipped once one reaches an exact encoding;
    restart seeds are pre-derived, so the result is still deterministic.

    ``converged`` in the report means an exact encoding
    (epsilon <= opts.epsilon_exact), not merely optimizer termination.
    """
    circuit = build_ansatz(spec)
    t0 = time.perf_counter()
    best: tuple[float, int] | None = None
    best_result: BfgsResult | None = None
    total_iters = 0
    f_floor = opts.epsilon_exact**2
    for idx, rng in enumerate(_restart_rngs(opts.seed, opts.restarts)):
        theta0 = rng.uniform(-np.pi, np.pi, size=circuit.param_count)
        res = _optimize_circuit(target, circuit, theta0, opts, trace=trace)
        total_iters += res.iterations
        key = (res.f, idx)
        if best is None or key < best:
            best = key
            best_result = res
        if res.f <= f_floor:
            break
    eps = float(np.sqrt(max(best_result.f, 0.0)))
    labels = tuple(spec.sequence_labels)
    return EncodeReport(
        epsilon=eps,
        theta=best_result.x,
        iterations=best_result.iterations,
        converged=eps <= opts.epsilon_exact,
        param_count=circuit.param_count,
        nonlocal_gates=count_nonlocal_gates(circuit),
        layers=spec.layers,
        wall_time=time.perf_counter() - t0,
        restart_index=best[1],
        status=best_result.status,
        total_iterations=total_iters,
        sequence_labels=labels,
    )


# --------------------------------------------------------------------------
# threshold-layer search
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GqspFamily:
    """Symmetric GQSP ansatz family: a generator set plus the hermitian flag."""

    generator_set: GeneratorSet
    hermitian: bool = True
    dim_b: int | None = None

    def spec_for_sequence(self, indices: tuple[int, ...]) -> AnsatzSpec:
        gens = tuple(self.generator_set.generators[i] for i in indices)
        return AnsatzSpec(
            family="gqsp",
            system_qubits=self.generator_set.n,
            ancillas=1,
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
    complete: bool

    def to_dict(self) -> dict:
        return {
            "m_thres": self.m_thres,
            "start": self.start,
            "complete": self.complete,
            "per_m": {m: r.to_dict() for m, r in sorted(self.reports.items())},
        }


def _default_start(target: TargetSpec, family, opts: OptimizeOptions) -> int:
    if isinstance(family, AnsatzSpec):
        est = estimate_generic_threshold(family)
    else:
        dim_b = family.dim_b
        if dim_b is None:
            dim_b = closure_basis(family.generator_set).dim_b
        q = 1 if family.hermitian else 2
        est = threshold_layers_symmetric(dim_b, q, PARAM_INVERSION)
    return max(1, int(np.ceil(1.05 * max(est, 1))))


def _try_layers_generic(target, spec_template, m, opts) -> EncodeReport:
    spec = replace(spec_template, layers=m)
    return multistart_encode(target, spec, opts)


def _try_layers_gqsp(
    target, family: GqspFamily, m, opts, sequences: int, inits: int
) -> EncodeReport:
    n_gens = len(family.generator_set)
    best: EncodeReport | None = None
    for s_idx in range(sequences):
        seq_rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(opts.seed, spawn_key=(m, s_idx)))
        )
        indices = tuple(int(v) for v in seq_rng.integers(0, n_gens, size=m))
        spec = family.spec_for_sequence(indices)
        sub_opts = replace(opts, restarts=inits, seed=int(seq_rng.integers(0, 2**62)))
        report = multistart_encode(target, spec, sub_opts)
        if best is None or report.epsilon < best.epsilon:
            best = report
        if report.converged:
            break
    return best


def layer_threshold_search(
    target: TargetSpec,
    family: AnsatzSpec | GqspFamily,
    opts: OptimizeOptions,
    *,
    start: int | None = None,
    min_layers: int = 1,
    max_layers: int | None = None,
    sequences: int = 10,
    inits: int = 5,
) -> ThresholdSearchResult:
    """Find the smallest layer count with at least one exact encoding.

    Starts 5% above the closed-form estimate and decrements.  Generic
    families run one multistart per M; GQSP families try ``sequences``
    random generator sequences with ``inits`` random initializations each,
    declaring failure for an M only when all of them miss.  If the start
    itself fails the search walks upward instead, and gives up (partial
    result) at ``max_layers``.
    """
    if start is None:
        start = _default_start(target, family, opts)
    if max_layers is None:
        max_layers = max(4 * start, start + 8)

    def attempt(m: int) -> EncodeReport:
        if isinstance(family, AnsatzSpec):
            return _try_layers_generic(target, family, m, opts)
        return _try_layers_gqsp(target, family, m, opts, sequences, inits)

    reports: dict[int, EncodeReport] = {}
    m = start
    reports[m] = attempt(m)
    if not reports[m].converged:
        # estimate was too optimistic; search upward to the cap
        while m < max_layers:
            m += 1
            reports[m] = attempt(m)
            if reports[m].converged:
                return ThresholdSearchResult(
                    m_thres=m, start=start, reports=reports, complete=True
                )
        return ThresholdSearchResult(m_thres=None, start=start, reports=reports, complete=False)
    last_good = m
    while m > min_layers:
        m -= 1
        reports[m] = attempt(m)
        if not reports[m].converged:
            break
        last_good = m
    return ThresholdSearchResult(m_thres=last_good, start=start, reports=reports, complete=True)


# --------------------------------------------------------------------------
# greedy generator-sequence search
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GreedySearchResult:
    sequence: tuple[int, ...]
    labels: tuple[str, ...]
    report: EncodeReport
    history: tuple[float, ...]


def greedy_generator_search(
    target: TargetSpec,
    generator_set: GeneratorSet,
    opts: OptimizeOptions,
    *,
    max_depth: int = 32,
    hermitian: bool = True,
) -> GreedySearchResult:
    """Width-1 tree search over generator sequences.

    After each accepted layer every candidate generator is tried as the
    next layer, warm-started from the previous optimum with the three new
    parameters drawn from uniform(-0.1, 0.1); the child with the lowest
    error wins.  Stops at exactness or the depth cap.  The root start is
    drawn the same way.  All parameters at zero would be a stationary point
    of every child, so the search could never leave it.  The draws come
    from one Philox stream seeded by ``opts.seed``.
    """
    family = GqspFamily(generator_set=generator_set, hermitian=hermitian)
    sequence: list[int] = []
    history: list[float] = []
    total_iters = 0
    t0 = time.perf_counter()

    rng = _restart_rngs(opts.seed, 1)[0]
    spec0 = family.spec_for_sequence(())
    circ0 = build_ansatz(spec0)
    res = _optimize_circuit(target, circ0, rng.uniform(-0.1, 0.1, circ0.param_count), opts)
    theta = res.x
    best_f = res.f
    total_iters += res.iterations
    history.append(float(np.sqrt(max(best_f, 0.0))))

    while np.sqrt(max(best_f, 0.0)) > opts.epsilon_exact and len(sequence) < max_depth:
        best_child = None
        theta0 = np.concatenate([theta, rng.uniform(-0.1, 0.1, 3)])
        for k in range(len(generator_set)):
            spec = family.spec_for_sequence(tuple(sequence) + (k,))
            circ = build_ansatz(spec)
            res = _optimize_circuit(target, circ, theta0, opts)
            total_iters += res.iterations
            if best_child is None or (res.f, k) < (best_child[0], best_child[1]):
                best_child = (res.f, k, res)
        f_k, k, res = best_child
        sequence.append(k)
        theta = res.x
        best_f = f_k
        history.append(float(np.sqrt(max(best_f, 0.0))))

    eps = float(np.sqrt(max(best_f, 0.0)))
    spec = family.spec_for_sequence(tuple(sequence))
    circ = build_ansatz(spec)
    report = EncodeReport(
        epsilon=eps,
        theta=theta,
        iterations=total_iters,
        converged=eps <= opts.epsilon_exact,
        param_count=circ.param_count,
        nonlocal_gates=count_nonlocal_gates(circ),
        layers=len(sequence),
        wall_time=time.perf_counter() - t0,
        status="greedy",
        total_iterations=total_iters,
        sequence_labels=tuple(generator_set.labels[i] for i in sequence),
    )
    return GreedySearchResult(
        sequence=tuple(sequence),
        labels=report.sequence_labels,
        report=report,
        history=tuple(history),
    )

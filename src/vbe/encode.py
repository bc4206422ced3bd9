"""Block-encoding core: sub-normalization, the block residual, cost, gradient.

The encoding error is the Frobenius distance between the scaled target and
the top-left block of the circuit unitary.  Optimizers work on the smooth
surrogate C^2 (the squared distance); reports and convergence thresholds
are stated in terms of C itself.

One residual (:func:`_residual`) scores every block, of one unitary or of
a (T, d, d) stack, and holds the one check that the register is larger
than the target.  The cost, the gradient and the search's rank screen all
read it, so C is the same number to the last bit wherever it is reported.

The gradient of C^2 is one pullback of the residual Delta = A/alpha - block
through the circuit (``circuit.evaluate_with_gradients``): a backward sweep
over the circuit's ops with O(d * sub * 2^k) work per op and O(d * sub)
extra memory for a d x d circuit and a sub x sub block.  An op is a gadget
or a run of consecutive gates on at most two adjacent qubits (k <= 2), so
block 2 at n=3, M=11 sweeps 34 ops for its 144 parameters.  For a
hermitized circuit U V U^dagger the sweep runs over U's ops only, once,
with a d x d cotangent that carries both of U's appearances, so it costs
O(d^2 * 2^k) per op of U.  No per-parameter derivative of the unitary is
ever formed.

The cost and its gradient also take a (T, param_count) batch of parameter
vectors and evaluate them in one pass, each row equal to its single
evaluation bit for bit; the encode loop's lockstep restarts run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vbe import linalg
from vbe.circuit import Circuit, evaluate, evaluate_with_gradients

DEFAULT_DELTA = 1e-2


def _target_matrix(a) -> np.ndarray:
    """``a`` as a complex matrix, refused unless nonempty, square and 2^n wide."""
    m = linalg.as_matrix(a)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"target is empty, shape {m.shape}")
    if rows != cols or rows & (rows - 1):
        raise ValueError("target must be square with power-of-two dimension (zero_pad first)")
    return m


@dataclass(frozen=True)
class TargetSpec:
    """A 2^n square target together with its sub-normalization factor."""

    matrix: np.ndarray
    alpha: float

    def __post_init__(self):
        m = _target_matrix(self.matrix)
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if linalg.spectral_norm(m) / self.alpha > 1.0 + 1e-12:
            raise ValueError("spectral norm exceeds alpha; increase the sub-normalization")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    def scaled(self) -> np.ndarray:
        return self.matrix / self.alpha


def subnormalize(a: np.ndarray) -> TargetSpec:
    """Target spec with alpha = ||A||_2 + :data:`DEFAULT_DELTA`.

    The caller must zero-pad non-power-of-two inputs first; the small delta
    keeps the scaled target strictly inside the unit spectral ball, which
    avoids numerical instabilities at the encoding boundary.
    """
    m = _target_matrix(a)
    return TargetSpec(matrix=m, alpha=linalg.spectral_norm(m) + DEFAULT_DELTA)


def _residual(t: TargetSpec, u: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """C^2 and the residual Delta = A/alpha - u[:sub, :sub] of the block.

    ``u`` is one d x d unitary, giving a float C^2, or a (T, d, d) stack,
    giving a length-T array.  A ``u`` no larger than the target leaves no
    ancilla for the encoding and is refused.
    """
    sub = t.matrix.shape[0]
    if u.shape[-1] <= sub:
        raise ValueError(f"circuit dimension {u.shape[-1]} incompatible with target {sub}")
    delta = t.scaled() - u[..., :sub, :sub]
    f = (delta.real**2 + delta.imag**2).sum((-2, -1))
    return (float(f) if f.ndim == 0 else f), delta


def cost(t: TargetSpec, c: Circuit, theta) -> float:
    """Encoding error C(theta) = ||A/alpha - A_var(theta)||_F."""
    return math.sqrt(_residual(t, evaluate(c, theta))[0])


def squared_cost_and_gradient(
    t: TargetSpec, c: Circuit, theta
) -> tuple[float | np.ndarray, np.ndarray]:
    """C^2 and its exact gradient.

    With Delta = A/alpha - A_var, each component is
    d_k C^2 = -2 Re <Delta, d_k A_var>_F.  All components come from one
    pullback of the residual Delta through the circuit's backward sweep
    (over the U half only for a hermitized circuit), so the gradient is
    exact to machine precision.  A (T, param_count) ``theta`` gives a
    length-T array of C^2 and a (T, param_count) gradient from one
    evaluation of the batch; row t equals the call on theta row t bit for
    bit.
    """
    u, pullback = evaluate_with_gradients(c, theta)
    f, delta = _residual(t, u)
    return f, -2.0 * pullback(delta)


class EncodeObjective:
    """Callable objective f = C^2 with fused gradient, for the optimizer.

    ``value_and_gradient`` takes one parameter vector or a (T, param_count)
    batch of them (see :func:`squared_cost_and_gradient`).  ``evaluations``
    counts the parameter vectors evaluated, T for a batch; the encoding
    drivers sum it into ``EncodeReport.evaluations``.
    """

    def __init__(self, target: TargetSpec, circuit: Circuit):
        self.target = target
        self.circuit = circuit
        self.evaluations = 0

    def value_and_gradient(self, theta) -> tuple[float | np.ndarray, np.ndarray]:
        self.evaluations += 1 if np.ndim(theta) < 2 else len(theta)
        return squared_cost_and_gradient(self.target, self.circuit, theta)


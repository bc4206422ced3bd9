"""Block-encoding core: sub-normalization, block extraction, cost, gradient.

The encoding error is the Frobenius distance between the scaled target and
the top-left block of the circuit unitary.  Optimizers work on the smooth
surrogate C^2 (the squared distance); reports and convergence thresholds
are stated in terms of C itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vbe import linalg
from vbe.circuit import Circuit, evaluate, evaluate_with_gradients, single_qubit_R
from vbe.pauli import PauliSum, to_dense

DEFAULT_DELTA = 1e-2


@dataclass(frozen=True)
class TargetSpec:
    """A 2^n square target together with its sub-normalization factor."""

    matrix: np.ndarray
    alpha: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        rows, cols = m.shape
        if rows != cols or rows & (rows - 1):
            raise ValueError("target must be square with power-of-two dimension")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if linalg.spectral_norm(m) / self.alpha > 1.0 + 1e-12:
            raise ValueError("spectral norm exceeds alpha; increase the sub-normalization")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    def scaled(self) -> np.ndarray:
        return self.matrix / self.alpha


def subnormalize(a: np.ndarray, delta: float = DEFAULT_DELTA) -> TargetSpec:
    """Target spec with alpha = ||A||_2 + delta.

    The caller must zero-pad non-power-of-two inputs first; the small delta
    keeps the scaled target strictly inside the unit spectral ball, which
    avoids numerical instabilities at the encoding boundary.
    """
    m = linalg.as_matrix(a)
    if m.shape[0] != m.shape[1] or m.shape[0] & (m.shape[0] - 1):
        raise ValueError("subnormalize needs a square power-of-two matrix (zero_pad first)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return TargetSpec(matrix=m, alpha=linalg.spectral_norm(m) + delta, delta=delta)


def extract_block(u: np.ndarray, m: int) -> np.ndarray:
    """Top-left 2^n block of a 2^(n+m) unitary under ancilla-first ordering."""
    u = linalg.as_matrix(u)
    dim = u.shape[0]
    if u.shape[0] != u.shape[1] or dim & (dim - 1):
        raise ValueError("expected a square power-of-two matrix")
    total = dim.bit_length() - 1
    if not 0 <= m < total:
        raise ValueError(f"ancilla count {m} out of range for {total} qubits")
    sub = 1 << (total - m)
    return u[:sub, :sub]


def _ancilla_count(t: TargetSpec, c: Circuit) -> int:
    block_dim = t.matrix.shape[0]
    if c.dim < block_dim or c.dim % block_dim:
        raise ValueError(f"circuit dimension {c.dim} incompatible with target {block_dim}")
    m = (c.dim // block_dim).bit_length() - 1
    if (1 << m) * block_dim != c.dim:
        raise ValueError("circuit/target dimensions are not a power-of-two ratio")
    if m == 0:
        raise ValueError("block encoding needs at least one ancilla qubit")
    return m


def cost(t: TargetSpec, c: Circuit, theta) -> float:
    """Encoding error C(theta) = ||A/alpha - A_var(theta)||_F."""
    m = _ancilla_count(t, c)
    block = extract_block(evaluate(c, theta), m)
    return linalg.frobenius_norm(t.scaled() - block)


def squared_cost_and_gradient(t: TargetSpec, c: Circuit, theta) -> tuple[float, np.ndarray]:
    """C^2 and its exact gradient.

    With Delta = A/alpha - A_var, each component is
    d_k C^2 = -2 Re <Delta, d_k A_var>_F, using the analytic gate
    derivatives, so the gradient is exact to machine precision.
    """
    _ancilla_count(t, c)
    u, grads = evaluate_with_gradients(c, theta)
    sub = t.matrix.shape[0]
    delta = t.scaled() - u[:sub, :sub]
    f = float(np.sum(delta.real**2 + delta.imag**2))
    g = -2.0 * np.einsum("ij,kij->k", delta.conj(), grads[:, :sub, :sub]).real
    return f, np.ascontiguousarray(g, dtype=np.float64)


class EncodeObjective:
    """Callable objective f = C^2 with fused gradient, for the optimizer."""

    def __init__(self, target: TargetSpec, circuit: Circuit):
        self.target = target
        self.circuit = circuit
        self.evaluations = 0

    def value_and_gradient(self, theta) -> tuple[float, np.ndarray]:
        self.evaluations += 1
        return squared_cost_and_gradient(self.target, self.circuit, theta)


def gqsp_block_expansion(
    generators: list[PauliSum] | tuple[PauliSum, ...], theta
) -> np.ndarray:
    """Extracted block of the GQSP-type ansatz via the ancilla path sum.

    Contracts the bond-dimension-2 operator-valued transfer product
    F = sum over ancilla paths of the rotation-amplitude-weighted ordered
    products of the layer operators P_i.  This never forms the (n+1)-qubit
    unitary, so it is an independent check that the block lives in the span
    of ordered generator products.
    """
    gens = list(generators)
    m_layers = len(gens)
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != 3 * m_layers + 3:
        raise ValueError(f"expected {3 * m_layers + 3} parameters, got {theta.size}")
    if not gens:
        r0 = single_qubit_R(theta[0], theta[1], theta[2])
        return r0[0, 0] * np.eye(1)
    n = gens[0].n
    dim = 1 << n
    r0 = single_qubit_R(theta[0], theta[1], theta[2])
    # operator-valued amplitudes for the ancilla being in |0> / |1>
    f = [r0[0, 0] * np.eye(dim, dtype=np.complex128), r0[1, 0] * np.eye(dim, dtype=np.complex128)]
    for i, gen in enumerate(gens):
        t_i = theta[3 + 3 * i]
        p_i = linalg.matrix_exp_antihermitian(t_i * to_dense(gen))
        f = [f[0], p_i @ f[1]]
        r = single_qubit_R(theta[4 + 3 * i], theta[5 + 3 * i], 0.0)
        f = [r[0, 0] * f[0] + r[0, 1] * f[1], r[1, 0] * f[0] + r[1, 1] * f[1]]
    return f[0]

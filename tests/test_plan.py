"""The circuit evaluation plan against a gate-by-gate dense oracle.

``dense_unitary`` embeds every gate into 2^N x 2^N and multiplies, so it
shares nothing with the plan's window runs, batched lowering or sweeps.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import block_spec, dense_unitary
from test_circuit import pulled_back_jacobian
from vbe import optimize, symmetry
from vbe.circuit import (
    BLOCK_CATALOG,
    build_ansatz,
    build_generic_ansatz,
    build_gqsp_ansatz,
    controlled,
    evaluate,
    evaluate_with_gradients,
    hermitize,
)
from vbe.encode import subnormalize
from vbe.targets import random_matrix

VARIANTS = {
    "plain": lambda c: c,
    "hermitized": hermitize,
    "controlled": controlled,
    "controlled_hermitized": lambda c: controlled(hermitize(c)),
}
GQSP_KINDS = ("Sn", "Cn", "Z2xz")


def gqsp_circuit(kind, n, layers, rng, hermitian):
    gs = symmetry.heisenberg_generator_set(kind, n)
    seq = tuple(gs.generators[i] for i in rng.integers(0, len(gs), size=layers))
    c = build_gqsp_ansatz(seq, n)
    return hermitize(c, "ancilla_h") if hermitian else c


def block_variants(block_id, restriction, n, layers):
    base = build_generic_ansatz(block_spec(block_id, n=n, layers=layers, restriction=restriction))
    return {name: make(base) for name, make in VARIANTS.items()}


class TestDenseOracle:
    @pytest.mark.parametrize("restriction", ["complex", "real"])
    @pytest.mark.parametrize("block_id", sorted(BLOCK_CATALOG))
    def test_block(self, rng, block_id, restriction):
        for n in (1, 2, 3):
            if n + 1 < BLOCK_CATALOG[block_id].min_qubits:
                continue
            for name, c in block_variants(block_id, restriction, n, layers=2).items():
                theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
                err = np.max(np.abs(evaluate(c, theta) - dense_unitary(c, theta)))
                assert err <= 1e-12, (n, name, err)

    @pytest.mark.parametrize("kind", GQSP_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gqsp(self, rng, kind, n):
        for hermitian in (False, True):
            c = gqsp_circuit(kind, n, 4, rng, hermitian)
            for cc in (c, controlled(c)):
                theta = rng.uniform(-np.pi, np.pi, size=cc.param_count)
                assert np.max(np.abs(evaluate(cc, theta) - dense_unitary(cc, theta))) <= 1e-12


def assert_jacobian_is_oracle_difference(c, rng, tol=1e-6, h=1e-5):
    """The pulled-back Jacobian against central differences of the dense oracle."""
    theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
    jac = pulled_back_jacobian(c, theta)
    for k in range(c.param_count):
        step = np.zeros(c.param_count)
        step[k] = h
        fd = (dense_unitary(c, theta + step) - dense_unitary(c, theta - step)) / (2 * h)
        assert np.max(np.abs(jac[k] - fd)) < tol, f"slot {k}"


class TestJacobianAgainstOracle:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("block_id", sorted(BLOCK_CATALOG))
    def test_block(self, rng, block_id, variant):
        n = BLOCK_CATALOG[block_id].min_qubits - 1
        c = block_variants(block_id, "complex", n, layers=1)[variant]
        assert_jacobian_is_oracle_difference(c, rng)

    @pytest.mark.parametrize("kind", GQSP_KINDS)
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_gqsp(self, rng, kind, hermitian):
        assert_jacobian_is_oracle_difference(gqsp_circuit(kind, 2, 3, rng, hermitian), rng)


class TestOpCounts:
    @pytest.mark.parametrize("n,layers,ops", [(3, 11, 34), (2, 5, 11)])
    def test_block2_window_runs(self, n, layers, ops):
        # one op per RCN primitive; the final rotations join the last window
        c = build_generic_ansatz(block_spec(2, n=n, layers=layers))
        assert len(c._plan.runs) == ops

    @pytest.mark.parametrize("layers", [0, 1, 3, 6])
    def test_gqsp_keeps_one_op_per_gate(self, rng, layers):
        c = gqsp_circuit("Sn", 3, layers, rng, hermitian=True)
        assert len(c._plan.runs) == 2 * layers + 1


def test_multistart_bytes_do_not_depend_on_other_circuits():
    # a fresh circuit, then the same search after another circuit was evaluated
    target = subnormalize(random_matrix(1, seed=5))
    spec = block_spec(2, n=1, layers=2)
    opts = optimize.OptimizeOptions(restarts=2, max_iterations=60, seed=3)
    first = optimize.multistart_encode(target, spec, opts)
    other = build_ansatz(replace(spec, block_id=6, layers=3, hermitian=True))
    evaluate(other, np.linspace(-1.0, 1.0, other.param_count))
    second = optimize.multistart_encode(target, spec, opts)
    assert first.theta.tobytes() == second.theta.tobytes()
    assert np.float64(first.epsilon).tobytes() == np.float64(second.epsilon).tobytes()
    assert first.evaluations == second.evaluations


def stacked_cases(rng):
    """A plain block-2 circuit, a hermitized GQSP Sn 3 circuit and a controlled one."""
    block2 = build_generic_ansatz(block_spec(2, n=3, layers=2))
    sn3 = gqsp_circuit("Sn", 3, 4, rng, hermitian=True)
    return {"block2": block2, "gqsp_sn3": sn3, "controlled": controlled(block2)}


class TestStackedPullback:
    """A (B, r, s) stack of cotangents is B pullbacks from one sweep."""

    @pytest.mark.parametrize("name", ["block2", "gqsp_sn3", "controlled"])
    def test_rows_are_single_pullbacks(self, rng, name):
        c = stacked_cases(rng)[name]
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        _, pullback = evaluate_with_gradients(c, theta)
        for rows, cols in ((c.dim // 2, c.dim // 2), (3, 5), (c.dim, 1)):
            w = rng.normal(size=(6, rows, cols)) + 1j * rng.normal(size=(6, rows, cols))
            stacked = pullback(w)
            assert stacked.shape == (6, c.param_count)
            for row, wb in zip(stacked, w):
                assert np.max(np.abs(row - pullback(wb))) <= 1e-13, (rows, cols)

    @pytest.mark.parametrize("name", ["block2", "gqsp_sn3", "controlled"])
    def test_block_jacobian_across_chunks(self, rng, name):
        # 2 * sub^2 unit cotangents span several stacked sweeps at sub = 8 and 16
        c = stacked_cases(rng)[name]
        sub = c.dim // 2
        assert 2 * sub * sub > optimize._JACOBIAN_CHUNK
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        u, jac = optimize._block_jacobian(c, theta, sub)
        want_u, pullback = evaluate_with_gradients(c, theta)
        assert np.array_equal(u, want_u)
        assert jac.shape == (2 * sub * sub, c.param_count)
        for k in range(2 * sub * sub):
            e = np.zeros((sub, sub), dtype=complex)
            e.reshape(-1)[k % (sub * sub)] = 1.0 if k < sub * sub else 1.0j
            assert np.max(np.abs(jac[k] - pullback(e))) <= 1e-13, k

    @pytest.mark.parametrize("name", ["block2", "gqsp_sn3", "controlled"])
    def test_single_cotangent_matches_oracle(self, rng, name, h=1e-5):
        # the gradient of Re <w, U[:r, :s]> against central differences of the dense oracle
        c = stacked_cases(rng)[name]
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        rows, cols = c.dim // 2, 3
        w = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        _, pullback = evaluate_with_gradients(c, theta)
        grad = pullback(w)
        assert grad.shape == (c.param_count,)

        def f(t):
            return np.vdot(w, dense_unitary(c, t)[:rows, :cols]).real

        step = h * np.eye(c.param_count)
        fd = np.array([(f(theta + s) - f(theta - s)) / (2 * h) for s in step])
        assert np.max(np.abs(grad - fd)) < 1e-6

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

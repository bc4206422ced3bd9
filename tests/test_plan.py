"""The circuit evaluation plan against a gate-by-gate dense oracle.

``dense_unitary`` embeds every gate into 2^N x 2^N and multiplies, so it
shares nothing with the plan's window runs, batched lowering or sweeps.
The plan's real-block window lowering is also checked against the complex
lowering of ``oracles.lower_complex``.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import block_spec, dense_unitary, lower_complex
from test_circuit import pulled_back_jacobian
from vbe import optimize, symmetry
from vbe.circuit import (
    BLOCK_CATALOG,
    Circuit,
    Gate,
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


class TestRealBlockLowering:
    """The plan's real 8 x 8 window algebra against the complex 4 x 4 fold
    and conjugation it replaced: every op and conjugated generator to 1e-14
    absolute."""

    TOL = 1e-14

    def assert_lowering(self, c, theta):
        got, want = c._plan.lower(theta), lower_complex(c._plan, theta)
        assert len(got[1]) > 0
        for ours, ref in zip(got[0] + [got[1]], want[0] + [want[1]]):
            assert ours.shape == ref.shape
            assert np.max(np.abs(ours - ref)) <= self.TOL

    @pytest.mark.parametrize("t", [1, 4])
    @pytest.mark.parametrize("variant", ["plain", "hermitized", "controlled"])
    @pytest.mark.parametrize("restriction", ["complex", "real"])
    def test_block2(self, rng, restriction, variant, t):
        c = block_variants(2, restriction, n=3, layers=3)[variant]
        self.assert_lowering(c, rng.uniform(-np.pi, np.pi, size=(t, c.param_count)))

    @pytest.mark.parametrize("t", [1, 4])
    def test_gqsp_sn3(self, rng, t):
        c = gqsp_circuit("Sn", 3, 4, rng, hermitian=False)
        self.assert_lowering(c, rng.uniform(-np.pi, np.pi, size=(t, c.param_count)))


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


class TestWindowFactors:
    """Every entry of the window-factor tables, one gate on one window qubit,
    against the dense oracle: the unitary to 1e-12 and the pullback against
    central differences.  An ``h`` before it and an ``ry`` after it on the
    other window qubit share its window, so the gate is one factor of a
    product and its slots are conjugated by a prefix."""

    @staticmethod
    def assert_matches_oracle(c, rng):
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        assert np.max(np.abs(evaluate(c, theta) - dense_unitary(c, theta))) <= 1e-12
        assert_jacobian_is_oracle_difference(c, rng)

    @pytest.mark.parametrize("ctl", [False, True])
    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize(
        "kind,slots", [("rx", 1), ("ry", 1), ("rz", 1), ("grot", 2), ("grot", 3), ("h", 0)]
    )
    def test_single_qubit_kind(self, rng, kind, slots, t, ctl):
        other = 1 - t
        gate = Gate(kind, (t,), tuple(range(slots)), controls=(other,) if ctl else ())
        gates = (Gate("h", (other,)), gate, Gate("ry", (other,), (slots,)))
        c = Circuit(2, gates, slots + 1)
        assert len(c._plan.runs) == 1
        self.assert_matches_oracle(c, rng)

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("kind", ["cnot", "cz"])
    def test_two_qubit_kind(self, rng, kind, qubits):
        gates = (Gate("ry", (0,), (0,)), Gate("rx", (1,), (1,)), Gate(kind, qubits))
        c = Circuit(2, gates + (Gate("grot", (0,), (2, 3, 4)),), 5)
        assert len(c._plan.runs) == 1
        self.assert_matches_oracle(c, rng)


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


class TestIndexCache:
    """The plan's one index cache is the slot index, built per width: T for
    the lowering and T * B for a sweep of B cotangents per theta row."""

    def test_stacked_sweep_builds_no_scatter(self, rng):
        c = build_generic_ansatz(block_spec(2, n=3, layers=2))
        _, pullback = evaluate_with_gradients(c, rng.uniform(-np.pi, np.pi, c.param_count))
        pullback(np.ones((32, 8, 8), dtype=complex))
        assert sorted(c._plan._slots) == [1, 32]

    def test_lockstep_sweep_reuses_the_lowering_width(self, rng):
        c = build_generic_ansatz(block_spec(2, n=3, layers=2))
        _, pullback = evaluate_with_gradients(c, rng.uniform(-np.pi, np.pi, (4, c.param_count)))
        pullback(np.ones((4, 8, 8), dtype=complex))
        assert sorted(c._plan._slots) == [4]


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
        _, pullback = evaluate_with_gradients(c, theta)
        jac = optimize._block_jacobian(pullback, sub)
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

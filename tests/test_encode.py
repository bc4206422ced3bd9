import numpy as np
import pytest

from vbe import linalg, targets
from vbe.circuit import (
    AnsatzSpec,
    Circuit,
    Gate,
    build_ansatz,
    build_generic_ansatz,
    build_gqsp_ansatz,
    evaluate,
    hermitize,
)
from vbe.encode import (
    EncodeObjective,
    TargetSpec,
    cost,
    extract_block,
    gqsp_block_expansion,
    squared_cost_and_gradient,
    subnormalize,
)
from vbe.pauli import PauliString, PauliSum, string_to_dense
from vbe.targets import HeisenbergParams


def block_spec(block_id, n, m=1, layers=1, restriction="complex", hermitian=False):
    return AnsatzSpec(
        family="block",
        system_qubits=n,
        ancillas=m,
        layers=layers,
        block_id=block_id,
        restriction=restriction,
        hermitian=hermitian,
    )


class TestSubnormalize:
    def test_zero_matrix(self):
        t = subnormalize(np.zeros((2, 2)), delta=1e-2)
        assert t.alpha == pytest.approx(0.01)

    def test_pauli_x(self):
        t = subnormalize(string_to_dense(PauliString.from_letters("X")))
        assert t.alpha == pytest.approx(1.01)

    def test_heisenberg_two_site(self):
        h = targets.heisenberg(HeisenbergParams(2, 1, 1, 1, 0))
        t = subnormalize(h)
        assert t.alpha == pytest.approx(3.01, abs=1e-10)
        assert linalg.spectral_norm(t.scaled()) <= 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            subnormalize(np.zeros((3, 3)))

    def test_target_spec_norm_invariant(self):
        with pytest.raises(ValueError):
            TargetSpec(matrix=np.diag([2.0, 1.0]), alpha=1.0)


class TestExtractBlock:
    def test_identity(self):
        assert np.allclose(extract_block(np.eye(8), 1), np.eye(4))

    def test_flipped_ancilla_gives_zero(self):
        u = np.kron(string_to_dense(PauliString.from_letters("X")), np.eye(4))
        assert np.max(np.abs(extract_block(u, 1))) == 0.0

    def test_hadamard_block(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(h, np.eye(2))
        assert np.allclose(extract_block(u, 1), np.eye(2) / np.sqrt(2))

    def test_bad_ancilla_count(self):
        with pytest.raises(ValueError):
            extract_block(np.eye(4), 2)


class TestCost:
    def test_exact_encoding_zero_cost(self):
        # encode the top-left block of some unitary as its own target
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        theta = np.linspace(-1, 1, c.param_count)
        block = extract_block(evaluate(c, theta), 1)
        t = TargetSpec(matrix=block, alpha=1.0)
        assert cost(t, c, theta) < 1e-14

    def test_zero_target_identity_circuit(self):
        c = Circuit(n_qubits=2, gates=(), param_count=0)
        t = TargetSpec(matrix=np.zeros((2, 2)), alpha=1.0)
        assert cost(t, c, []) == pytest.approx(np.sqrt(2))

    def test_dimension_mismatch(self):
        c = Circuit(n_qubits=1, gates=(), param_count=0)
        t = TargetSpec(matrix=np.zeros((2, 2)), alpha=1.0)
        with pytest.raises(ValueError):
            cost(t, c, [])

    def test_subblock_norm_bounded(self, rng):
        # ||A_var||_2 <= 1 for any sub-block of a unitary
        for bid in (2, 8):
            c = build_generic_ansatz(block_spec(bid, n=2, layers=2))
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            assert linalg.spectral_norm(extract_block(u, 1)) <= 1.0 + 1e-10


class TestCostGradient:
    def test_empty_gradient_for_fixed_circuit(self):
        c = Circuit(n_qubits=2, gates=(Gate("cnot", (0, 1)),), param_count=0)
        t = TargetSpec(matrix=np.zeros((2, 2)), alpha=1.0)
        assert squared_cost_and_gradient(t, c, [])[1].shape == (0,)

    def test_matches_finite_differences(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2))
        t = subnormalize(targets.random_matrix(2, "complex", "arbitrary", seed=4))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        f, g = squared_cost_and_gradient(t, c, theta)
        h = 1e-5
        for k in range(0, c.param_count, 5):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (cost(t, c, tp) ** 2 - cost(t, c, tm) ** 2) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_gradient_zero_at_exact_minimum(self):
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        theta = np.linspace(-1, 1, c.param_count)
        block = extract_block(evaluate(c, theta), 1)
        t = TargetSpec(matrix=block, alpha=1.0)
        assert np.linalg.norm(squared_cost_and_gradient(t, c, theta)[1]) < 1e-10

    def test_hermitized_gradient(self, rng):
        c = build_ansatz(block_spec(2, n=1, layers=1, hermitian=True))
        t = subnormalize(targets.random_matrix(1, "complex", "hermitian", seed=8))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        _, g = squared_cost_and_gradient(t, c, theta)
        h = 1e-5
        for k in range(c.param_count):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (cost(t, c, tp) ** 2 - cost(t, c, tm) ** 2) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestStructuralInvariants:
    def test_hermitian_ansatz_hermitian_block(self, rng):
        c = build_ansatz(block_spec(2, n=2, layers=2, hermitian=True))
        for _ in range(5):
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            b = extract_block(u, 1)
            assert linalg.frobenius_norm(b - b.conj().T) < 1e-12

    def test_real_ansatz_real_block(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2, restriction="real"))
        u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
        assert np.max(np.abs(extract_block(u, 1).imag)) < 1e-12

    def test_gqsp_block_commutes_with_symmetry(self, rng):
        # generators commuting with S force [A_var, S] = 0 for every theta
        gens = (
            PauliSum.from_terms({"XX": 1j}),
            PauliSum.from_terms({"ZZ": 1j}),
            PauliSum.from_terms({"XI": 1j, "IX": 1j}),
        )
        c = build_gqsp_ansatz(gens, n=2)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        for _ in range(5):
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            b = extract_block(u, 1)
            assert linalg.frobenius_norm(b @ swap - swap @ b) < 1e-10

    def test_hermitized_gqsp_block_hermitian(self, rng):
        gens = (PauliSum.from_terms({"XX": 1j}), PauliSum.from_terms({"ZZ": 1j}))
        c = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
        b = extract_block(u, 1)
        assert linalg.frobenius_norm(b - b.conj().T) < 1e-12


class TestGqspExpansion:
    def test_zero_layers(self):
        theta = [0.4, 1.2, -0.7]
        f = gqsp_block_expansion((), theta)
        c = build_gqsp_ansatz((), n=2)
        # different system sizes: compare the scalar factor
        u = evaluate(c, theta)
        assert f[0, 0] == pytest.approx(u[0, 0])

    def test_single_layer_product_form(self, rng):
        # at M=1 the block is exactly a_1*I + b_1*P_1 with coefficients from
        # the two ancilla rotations
        gen = PauliSum.from_terms({"ZZ": 1j, "XX": 1j})
        c = build_gqsp_ansatz((gen,), n=2)
        theta = rng.uniform(-np.pi, np.pi, size=6)
        u = evaluate(c, theta)
        block = extract_block(u, 1)
        from vbe.pauli import to_dense

        p1 = linalg.matrix_exp_antihermitian(theta[3] * to_dense(gen))
        a1 = np.cos(theta[4] / 2) * np.cos(theta[0] / 2)
        b1 = -np.sin(theta[4] / 2) * np.exp(1j * theta[1]) * np.sin(theta[0] / 2)
        assert np.max(np.abs(block - (a1 * np.eye(4) + b1 * p1))) < 1e-10

    def test_path_sum_matches_dense_block(self, rng):
        gens = tuple(
            PauliSum.from_terms(t)
            for t in (
                {"ZZ": 1j, "XX": 1j},
                {"XI": 1j, "IX": 1j},
                {"YY": 1j},
                {"ZZ": 1j},
            )
        )
        c = build_gqsp_ansatz(gens, n=2)
        for _ in range(10):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            dense_block = extract_block(evaluate(c, theta), 1)
            path_block = gqsp_block_expansion(gens, theta)
            assert np.max(np.abs(dense_block - path_block)) < 1e-10


class TestObjective:
    def test_counts_evaluations(self):
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        t = subnormalize(targets.random_matrix(1, "complex", "arbitrary", seed=1))
        obj = EncodeObjective(t, c)
        theta = np.zeros(c.param_count)
        f0 = cost(t, c, theta) ** 2
        f1, g = obj.value_and_gradient(theta)
        obj.value_and_gradient(theta)
        assert f0 == pytest.approx(f1)
        assert obj.evaluations == 2

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vbe import encode, linalg, optimize, symmetry, targets
from vbe.circuit import (
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
from vbe.encode import (
    EncodeObjective,
    TargetSpec,
    cost,
    squared_cost_and_gradient,
    subnormalize,
)
from oracles import block_spec, gqsp_block_expansion, string_to_dense
from vbe.pauli import PauliString, PauliSum, to_dense
from vbe.targets import chain_bonds, heisenberg_graph_terms


def sn_gqsp_case(n, layers, seed=0):
    """Hermitized Sn GQSP circuit on a random generator sequence, its
    symmetric Heisenberg target and a random theta."""
    gs = symmetry.heisenberg_generator_set("Sn", n)
    rng = np.random.default_rng(seed)
    indices = tuple(int(i) for i in rng.integers(0, len(gs), size=layers))
    c = build_ansatz(optimize.GqspFamily(gs).spec_for_sequence(indices))
    t = subnormalize(to_dense(symmetry.symmetric_heisenberg_terms("Sn", n, 0)))
    return t, c, rng.uniform(-np.pi, np.pi, size=c.param_count)


def assert_matches_central_differences(t, c, theta, g, slots, h=1e-5):
    for k in slots:
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (cost(t, c, tp) ** 2 - cost(t, c, tm) ** 2) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8), f"slot {k}"


class TestSubnormalize:
    def test_zero_matrix(self):
        t = subnormalize(np.zeros((2, 2)))
        assert t.alpha == pytest.approx(0.01)

    def test_pauli_x(self):
        t = subnormalize(string_to_dense(PauliString.from_letters("X")))
        assert t.alpha == pytest.approx(1.01)

    def test_heisenberg_two_site(self):
        h = to_dense(heisenberg_graph_terms(2, chain_bonds(2), 1, 1, 1, 0))
        t = subnormalize(h)
        assert t.alpha == pytest.approx(3.01, abs=1e-10)
        assert linalg.spectral_norm(t.scaled()) <= 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            subnormalize(np.zeros((3, 3)))

    def test_target_spec_norm_invariant(self):
        with pytest.raises(ValueError):
            TargetSpec(matrix=np.diag([2.0, 1.0]), alpha=1.0)

    def test_rejects_empty(self):
        # a 0 x 0 matrix would pass a power-of-two test on its row count
        with pytest.raises(ValueError, match="empty"):
            subnormalize(np.zeros((0, 0)))

    def test_target_spec_refuses_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TargetSpec(matrix=np.zeros((0, 0)), alpha=1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_target_spec_refuses_non_finite_alpha(self, alpha):
        # nan would make every cost nan, inf would scale the target to zero
        with pytest.raises(ValueError, match="finite and positive"):
            TargetSpec(matrix=np.eye(2), alpha=alpha)


class TestExtractBlock:
    """The cost reads the top-left block, ancilla first, of a larger register."""

    def test_identity(self):
        c = Circuit(n_qubits=3, gates=(), param_count=0)
        assert cost(TargetSpec(matrix=np.eye(4), alpha=1.0), c, []) == 0.0

    def test_flipped_ancilla_gives_zero(self):
        # Ry(pi) on the ancilla flips it: the block is cos(pi/2) I, zero to
        # rounding, so C is the norm of the scaled target
        c = Circuit(n_qubits=3, gates=(Gate("ry", (0,), (0,)),), param_count=1)
        assert cost(TargetSpec(matrix=np.zeros((4, 4)), alpha=1.0), c, [np.pi]) < 1e-15
        assert cost(TargetSpec(matrix=np.eye(4), alpha=1.0), c, [np.pi]) == pytest.approx(2.0)

    def test_hadamard_block(self):
        c = Circuit(n_qubits=2, gates=(Gate("h", (0,)),), param_count=0)
        assert cost(TargetSpec(matrix=np.eye(2), alpha=np.sqrt(2)), c, []) < 1e-15

    def test_bad_ancilla_count(self):
        # a register no larger than the target leaves no ancilla
        t = TargetSpec(matrix=np.eye(4), alpha=1.0)
        for n_qubits in (1, 2):
            with pytest.raises(ValueError, match="incompatible"):
                cost(t, Circuit(n_qubits=n_qubits, gates=(), param_count=0), [])


class TestCost:
    def test_exact_encoding_zero_cost(self):
        # encode the top-left block of some unitary as its own target
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        theta = np.linspace(-1, 1, c.param_count)
        block = evaluate(c, theta)[:2, :2]
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
            assert linalg.spectral_norm(u[:4, :4]) <= 1.0 + 1e-10


class TestCostGradient:
    def test_empty_gradient_for_fixed_circuit(self):
        c = Circuit(n_qubits=2, gates=(Gate("cnot", (0, 1)),), param_count=0)
        t = TargetSpec(matrix=np.zeros((2, 2)), alpha=1.0)
        assert squared_cost_and_gradient(t, c, [])[1].shape == (0,)

    def test_matches_finite_differences(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2))
        t = subnormalize(targets.random_matrix(2, "complex", "arbitrary", seed=4))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        _, g = squared_cost_and_gradient(t, c, theta)
        assert_matches_central_differences(t, c, theta, g, range(0, c.param_count, 5))

    def test_gradient_zero_at_exact_minimum(self):
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        theta = np.linspace(-1, 1, c.param_count)
        block = evaluate(c, theta)[:2, :2]
        t = TargetSpec(matrix=block, alpha=1.0)
        assert np.linalg.norm(squared_cost_and_gradient(t, c, theta)[1]) < 1e-10

    def test_hermitized_gradient(self, rng):
        c = build_ansatz(block_spec(2, n=1, layers=1, hermitian=True))
        t = subnormalize(targets.random_matrix(1, "complex", "hermitian", seed=8))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        _, g = squared_cost_and_gradient(t, c, theta)
        assert_matches_central_differences(t, c, theta, g, range(c.param_count))


    def test_peak_memory_below_gradient_tensor(self):
        # hermitized GQSP Sn 6, M=15: a (P, d, d) derivative tensor alone
        # would take P * d^2 * 16 B = 12.6 MB
        t, c, theta = sn_gqsp_case(6, 15)
        squared_cost_and_gradient(t, c, theta)  # caches each gadget's spectrum
        tracemalloc.start()
        try:
            squared_cost_and_gradient(t, c, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (c.param_count, c.dim) == (48, 128)
        assert peak < c.param_count * c.dim**2 * 16

    @pytest.mark.heavy
    def test_sn8_paper_cell_matches_finite_differences(self):
        # GQSP Sn 8, M=28, the paper's largest cell: d = 512, P = 87
        t, c, theta = sn_gqsp_case(8, 28)
        _, g = squared_cost_and_gradient(t, c, theta)
        assert_matches_central_differences(t, c, theta, g, (0, 40, 85))


class TestStructuralInvariants:
    def test_hermitian_ansatz_hermitian_block(self, rng):
        c = build_ansatz(block_spec(2, n=2, layers=2, hermitian=True))
        for _ in range(5):
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            b = u[:4, :4]
            assert np.linalg.norm(b - b.conj().T) < 1e-12

    def test_real_ansatz_real_block(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2, restriction="real"))
        u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
        assert np.max(np.abs(u[:4, :4].imag)) < 1e-12

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
            b = u[:4, :4]
            assert np.linalg.norm(b @ swap - swap @ b) < 1e-10

    def test_hermitized_gqsp_block_hermitian(self, rng):
        gens = (PauliSum.from_terms({"XX": 1j}), PauliSum.from_terms({"ZZ": 1j}))
        c = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
        b = u[:4, :4]
        assert np.linalg.norm(b - b.conj().T) < 1e-12


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
        block = u[:4, :4]
        p1 = scipy.linalg.expm(theta[3] * to_dense(gen))
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
            dense_block = evaluate(c, theta)[:4, :4]
            path_block = gqsp_block_expansion(gens, theta)
            assert np.max(np.abs(dense_block - path_block)) < 1e-10


class TestOneScore:
    """C and C^2 come from one residual, so C is sqrt(C^2) to the last bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "field,structure",
        [("complex", "arbitrary"), ("complex", "hermitian"), ("real", "hermitian")],
    )
    def test_block2_cost_is_root_of_squared_cost(self, rng, n, field, structure):
        spec = block_spec(2, n=n, layers=2, restriction=field, hermitian=structure == "hermitian")
        c = build_ansatz(spec)
        t = subnormalize(targets.random_matrix(n, field, structure, seed=n))
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            assert cost(t, c, theta) == math.sqrt(squared_cost_and_gradient(t, c, theta)[0])

    def test_hermitized_gqsp_cost_is_root_of_squared_cost(self, rng):
        t, c, _ = sn_gqsp_case(3, 4)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            assert cost(t, c, theta) == math.sqrt(squared_cost_and_gradient(t, c, theta)[0])


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

    def test_one_positional_evalgrad_call_per_evaluation(self, monkeypatch):
        # the benchmark's span recorder wraps encode.evaluate_with_gradients
        # and sizes its spans from positional (circuit, theta)
        calls = []
        original = encode.evaluate_with_gradients

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(encode, "evaluate_with_gradients", counting)
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        t = subnormalize(targets.random_matrix(1, "complex", "arbitrary", seed=1))
        obj = EncodeObjective(t, c)
        thetas = [np.full(c.param_count, v) for v in (0.0, 0.3, -1.2)]
        for k, theta in enumerate(thetas, start=1):
            obj.value_and_gradient(theta)
            assert len(calls) == obj.evaluations == k
        for (args, kwargs), theta in zip(calls, thetas):
            assert kwargs == {} and len(args) == 2
            assert args[0] is c and args[1] is theta


def batch_case(name):
    """A circuit and a target of the same block size for each batched case."""
    if name.startswith("block2"):
        _, restriction, variant = name.split("/")
        hermitian = variant == "hermitized"
        structure = "hermitian" if hermitian else "arbitrary"
        spec = block_spec(2, n=2, layers=3, restriction=restriction, hermitian=hermitian)
        t = subnormalize(targets.random_matrix(2, restriction, structure, seed=3))
        return build_ansatz(spec), t
    if name == "controlled":
        c = controlled(build_generic_ansatz(block_spec(2, n=2, layers=2)))
        return c, subnormalize(targets.random_matrix(2, seed=3))
    # GQSP sequences that repeat a generator, so one gadget group holds
    # several ops
    n, labels = {
        "gqsp/Sn2": (2, ("XX-pairs", "X-all", "XX-pairs")),
        "gqsp/Sn3": (3, ("YY-pairs", "X-all", "ZZ-pairs", "YY-pairs")),
    }[name]
    gs = symmetry.heisenberg_generator_set("Sn", n)
    spec = optimize.GqspFamily(gs).spec_for_sequence(tuple(gs.labels.index(x) for x in labels))
    t = subnormalize(to_dense(symmetry.symmetric_heisenberg_terms("Sn", n, 0)))
    return build_ansatz(spec), t


BATCH_CASES = [
    "block2/complex/plain",
    "block2/complex/hermitized",
    "block2/real/plain",
    "block2/real/hermitized",
    "controlled",
    "gqsp/Sn2",
    "gqsp/Sn3",
]


class TestBatchedEvaluation:
    """Row t of a (T, param_count) evaluation is the evaluation of theta row t
    alone, bit for bit: the lockstep restarts rely on it to run the same
    BFGS iterates as the restarts run one at a time."""

    @pytest.mark.parametrize("name", BATCH_CASES)
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_rows_equal_single_evaluations(self, rng, name, width):
        c, t = batch_case(name)
        thetas = rng.uniform(-np.pi, np.pi, size=(width, c.param_count))
        f, g = squared_cost_and_gradient(t, c, thetas)
        u, pullback = evaluate_with_gradients(c, thetas)
        sub = t.matrix.shape[0]
        w = rng.normal(size=(width, 3, sub, sub)) + 1j * rng.normal(size=(width, 3, sub, sub))
        stacked = pullback(w)
        assert (f.shape, g.shape, u.shape) == ((width,), thetas.shape, (width, c.dim, c.dim))
        assert stacked.shape == (width, 3, c.param_count)
        for row, theta in enumerate(thetas):
            f1, g1 = squared_cost_and_gradient(t, c, theta)
            u1, pullback1 = evaluate_with_gradients(c, theta)
            assert f1 == f[row] and type(f1) is float
            assert np.array_equal(g1, g[row])
            assert np.array_equal(u1, u[row])
            assert np.array_equal(pullback1(w[row]), stacked[row])
            assert np.array_equal(pullback1(w[row, 0]), pullback(w[:, 0])[row])

    def test_objective_counts_every_row(self):
        c, t = batch_case("gqsp/Sn2")
        obj = EncodeObjective(t, c)
        obj.value_and_gradient(np.zeros(c.param_count))
        obj.value_and_gradient(np.zeros((4, c.param_count)))
        assert obj.evaluations == 5

    def test_wrong_width_is_refused(self):
        c, _ = batch_case("gqsp/Sn2")
        with pytest.raises(ValueError, match="parameters"):
            evaluate(c, np.zeros((2, c.param_count + 1)))

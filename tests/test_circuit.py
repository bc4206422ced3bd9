import math
from dataclasses import replace

import numpy as np
import pytest

from vbe import circuit as circ
from vbe import linalg, symmetry
from vbe.circuit import (
    AnsatzSpec,
    BLOCK_CATALOG,
    Circuit,
    Gate,
    build_ansatz,
    build_generic_ansatz,
    build_gqsp_ansatz,
    controlled,
    count_multiqubit_gates,
    count_nonlocal_gates,
    dump_text,
    evaluate,
    evaluate_with_gradients,
    hermitize,
    mc1q,
    pauli_gadget_unitary,
    single_qubit_R,
)
from vbe.pauli import PauliSum
from vbe.resources import (
    BoundQuery,
    a_ratio,
    estimate_generic_threshold,
    free_parameter_bound,
    nonlocal_gate_bound,
)
from vbe.tables import RESOURCES_N5

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


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


def gqsp_gens(seq):
    return tuple(PauliSum.from_terms(t) for t in seq)


def cr_circuit(restriction, a=0, b=1, n=2):
    """One CR as block 6 emits it: R on qubit a, then R on b controlled by a."""
    builder = circ._Builder(restriction)
    builder.cr(a, b)
    return Circuit(n_qubits=n, gates=tuple(builder.gates), param_count=builder.next_slot)


class TestSingleQubitR:
    def test_identity(self):
        assert np.allclose(single_qubit_R(0, 0, 0), np.eye(2))

    def test_pi_0_pi_is_x(self):
        # oracle: direct formula evaluation
        assert np.allclose(single_qubit_R(math.pi, 0, math.pi), X, atol=1e-15)

    def test_theta_0_0_is_real_rotation(self, rng):
        t = float(rng.uniform(-np.pi, np.pi))
        r = single_qubit_R(t, 0, 0)
        assert np.max(np.abs(r.imag)) == 0.0
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert np.allclose(r, [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]])


class TestGateValidation:
    @pytest.mark.parametrize(
        "kind,qubits,slots",
        [("h", (0, 1), ()), ("ry", (0, 1), (0,)), ("cnot", (0,), ()), ("cz", (0,), ())],
        ids=["h", "ry", "cnot", "cz"],
    )
    def test_rejects_wrong_qubit_count(self, kind, qubits, slots):
        with pytest.raises(ValueError, match="cannot act on"):
            Gate(kind, qubits, slots)

    @pytest.mark.parametrize(
        "kind,qubits,slots", [("ry", (0,), (0,)), ("cnot", (0, 1), ())], ids=["ry", "cnot"]
    )
    def test_rejects_generator_on_non_gadget(self, kind, qubits, slots):
        g = PauliSum.from_terms({"Z": 1j})
        with pytest.raises(ValueError, match="takes no generator"):
            Gate(kind, qubits, slots, generator=g)


class TestEvaluate:
    def test_empty_circuit(self):
        c = Circuit(n_qubits=2, gates=(), param_count=0)
        assert np.allclose(evaluate(c, []), np.eye(4))

    def test_single_cnot(self):
        c = Circuit(n_qubits=2, gates=(Gate("cnot", (0, 1)),), param_count=0)
        assert np.allclose(evaluate(c, []), CNOT)

    def test_block2_unitary(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        u = evaluate(c, theta)
        assert linalg.frobenius_norm(u.conj().T @ u - np.eye(8)) < 1e-12

    def test_wrong_theta_length(self):
        c = build_generic_ansatz(block_spec(2, n=2, layers=1))
        with pytest.raises(ValueError):
            evaluate(c, np.zeros(c.param_count + 1))

    def test_real_restriction_is_orthogonal(self, rng):
        for bid in (2, 5, 13):
            c = build_generic_ansatz(block_spec(bid, n=2, layers=2, restriction="real"))
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            assert np.max(np.abs(u.imag)) < 1e-12
            assert linalg.frobenius_norm(u @ u.T - np.eye(8)) < 1e-10

    def test_all_blocks_unitary(self, rng):
        for bid, info in BLOCK_CATALOG.items():
            n = max(info.min_qubits - 1, 3)
            c = build_generic_ansatz(block_spec(bid, n=n, layers=1))
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            assert linalg.is_unitary(u, tol=1e-10), f"block {bid}"


class TestParameterCounts:
    def test_block2_small(self):
        c = build_generic_ansatz(block_spec(2, n=1, m=1, layers=1))
        assert c.param_count == 10  # one RCN (4) + U_s on 2 qubits (6)
        assert count_nonlocal_gates(c) == 1

    def test_block0_never_entangles(self):
        for layers in (1, 3, 10):
            c = build_generic_ansatz(block_spec(0, n=2, layers=layers))
            assert count_nonlocal_gates(c) == 0

    @pytest.mark.parametrize("field,structure", list(RESOURCES_N5))
    def test_resources_n5(self, field, structure):
        # block 2 on 4 system qubits at its estimated threshold depth, against
        # the free-parameter bound and the CNOT bound at the one-layer a-ratio
        spec = block_spec(2, n=4, restriction=field, hermitian=structure == "hermitian")
        c = build_ansatz(replace(spec, layers=estimate_generic_threshold(spec)))
        a = a_ratio(build_generic_ansatz(block_spec(2, n=4, restriction=field)))
        bound = nonlocal_gate_bound(
            BoundQuery(n=4, total_qubits=5, field=field, structure=structure, a=a)
        )
        got = (
            c.param_count,
            free_parameter_bound(4, field, structure),
            count_nonlocal_gates(c),
            bound,
        )
        assert got == RESOURCES_N5[(field, structure)]

    def test_layer_slot_metadata(self):
        for bid, n_slots, n_mq in [
            (0, 12, 0),
            (1, 12, 3),
            (2, 12, 3),
            (3, 12, 3),
            (4, 8, 3),
            (5, 12, 3),
            (6, 24, 4),
            (7, 12, 4),
            (8, 16, 4),
            (9, 12, 3),
            (10, 12, 3),
            (11, 24, 6),
            (12, 12, 2),
            (13, 8, 1),
            (14, 12, 3),
            (15, 16, 4),
        ]:
            c = build_generic_ansatz(block_spec(bid, n=3, m=1, layers=1))
            assert c.layer_slot_count == n_slots, f"block {bid}"
            assert count_multiqubit_gates(c) == n_mq, f"block {bid}"

    def test_slots_unique(self):
        c = build_generic_ansatz(block_spec(11, n=3, layers=2))
        seen = [s for g in c.gates for s in g.slots]
        assert sorted(seen) == list(range(c.param_count))


class TestGqspAnsatz:
    def test_zero_layers(self):
        c = build_gqsp_ansatz((), n=3)
        assert c.param_count == 3
        theta = [0.3, -0.2, 1.1]
        u = evaluate(c, theta)
        expected = np.kron(single_qubit_R(*theta), np.eye(8))
        assert np.allclose(u, expected)

    @pytest.mark.parametrize("m,expected", [(4, 15), (6, 21)])
    def test_param_count_3m_plus_3(self, m, expected):
        gens = gqsp_gens([{"ZZ": 1j}] * m)
        c = build_gqsp_ansatz(gens, n=2)
        assert c.param_count == expected

    def test_generator_mismatch(self):
        with pytest.raises(ValueError):
            build_gqsp_ansatz(gqsp_gens([{"ZZZ": 1j}]), n=2)

    def test_controlled_gadget_block_structure(self, rng):
        # with the ancilla in |0> the gadget must act as identity
        gens = gqsp_gens([{"ZZ": 1j, "XX": 1j}])
        c = build_gqsp_ansatz(gens, n=2)
        theta = np.zeros(6)
        theta[3] = 0.37
        u = evaluate(c, theta)
        assert np.allclose(u[:4, :4], np.eye(4))
        from vbe.pauli import to_dense

        gd = to_dense(gens[0])
        assert np.allclose(u[4:, 4:], linalg.matrix_exp_antihermitian(0.37 * gd))


class TestPauliGadget:
    def test_zero_angle(self):
        g = PauliSum.from_terms({"ZZ": 1j})
        assert np.allclose(pauli_gadget_unitary(g, 0.0), np.eye(4))

    def test_izz_diagonal(self):
        g = PauliSum.from_terms({"ZZ": 1j})
        t = 0.73
        expected = np.diag(np.exp(1j * t * np.array([1, -1, -1, 1])))
        assert np.allclose(pauli_gadget_unitary(g, t), expected)

    def test_commuting_equals_string_product(self):
        g = PauliSum.from_terms({"ZZI": 1j, "ZIZ": 1j, "IZZ": 1j})
        t = 0.41
        got = pauli_gadget_unitary(g, t)
        parts = [
            pauli_gadget_unitary(PauliSum.from_terms({s: 1j}), t)
            for s in ("ZZI", "ZIZ", "IZZ")
        ]
        assert np.max(np.abs(got - parts[0] @ parts[1] @ parts[2])) < 1e-12

    def test_matches_cnot_ladder_circuit(self):
        # oracle: the explicit gadget circuit CNOT(b->a) Rz(-2t on a) CNOT(b->a)
        t = 0.29
        g = PauliSum.from_terms({"ZZ": 1j})
        ladder = Circuit(
            n_qubits=2,
            gates=(Gate("cnot", (1, 0)), Gate("rz", (0,), (0,)), Gate("cnot", (1, 0))),
            param_count=1,
        )
        got = evaluate(ladder, [-2.0 * t])
        assert np.max(np.abs(got - pauli_gadget_unitary(g, t))) < 1e-12

    def test_rejects_hermitian_generator(self):
        with pytest.raises(ValueError):
            pauli_gadget_unitary(PauliSum.from_terms({"ZZ": 1.0}), 0.5)


class TestHermitize:
    def test_empty_circuit_gives_v(self):
        c = Circuit(n_qubits=2, gates=(), param_count=0)
        u = evaluate(hermitize(c, "all_h"), [])
        assert np.allclose(u, np.kron(H, H))

    def test_hermitian_and_unitary(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2))
        hc = hermitize(c, "all_h")
        for _ in range(3):
            u = evaluate(hc, rng.uniform(-np.pi, np.pi, size=hc.param_count))
            assert linalg.frobenius_norm(u - u.conj().T) < 1e-12
            assert linalg.is_unitary(u, tol=1e-10)

    def test_param_count_preserved(self):
        c = build_generic_ansatz(block_spec(2, n=2, layers=3))
        assert hermitize(c).param_count == c.param_count

    def test_gqsp_hermitian(self, rng):
        gens = gqsp_gens([{"XX": 1j}, {"ZZ": 1j, "XX": 0.5j}])
        hc = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        u = evaluate(hc, rng.uniform(-np.pi, np.pi, size=hc.param_count))
        assert linalg.frobenius_norm(u - u.conj().T) < 1e-12


class TestControlled:
    def test_controlled_empty(self):
        c = Circuit(n_qubits=2, gates=(), param_count=0)
        assert np.allclose(evaluate(controlled(c), []), np.eye(8))

    def test_controlled_plain_both_branches(self, rng):
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        u = evaluate(c, theta)
        cu = evaluate(controlled(c), theta)
        dim = u.shape[0]
        assert np.allclose(cu[:dim, :dim], np.eye(dim))
        assert np.allclose(cu[dim:, dim:], u)
        assert np.max(np.abs(cu[:dim, dim:])) < 1e-14

    def test_controlled_hermitized_branches(self, rng):
        gens = gqsp_gens([{"XX": 1j}])
        hc = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        theta = rng.uniform(-np.pi, np.pi, size=hc.param_count)
        u_h = evaluate(hc, theta)
        cu = evaluate(controlled(hc), theta)
        dim = u_h.shape[0]
        # control |1>: acts as the hermitian circuit
        assert np.max(np.abs(cu[dim:, dim:] - u_h)) < 1e-12
        # control |0>: U V^0 U^dagger = identity
        assert np.max(np.abs(cu[:dim, :dim] - np.eye(dim))) < 1e-12

    def test_gate_count_delta_is_controlled_v(self):
        c = build_generic_ansatz(block_spec(2, n=2, layers=2))
        hc = hermitize(c, "all_h")
        delta = count_nonlocal_gates(controlled(hc)) - count_nonlocal_gates(hc)
        # one controlled Hadamard per qubit, 2 CNOTs each under the default model
        assert delta == 2 * c.n_qubits


class TestGradients:
    def assert_gradients_match(self, c, theta, tol=1e-6, h=1e-5):
        _, grads = evaluate_with_gradients(c, theta)
        for k in range(c.param_count):
            tp, tm = np.array(theta, float), np.array(theta, float)
            tp[k] += h
            tm[k] -= h
            fd = (evaluate(c, tp) - evaluate(c, tm)) / (2 * h)
            assert np.max(np.abs(grads[k] - fd)) < tol, f"slot {k}"

    def test_fixed_gates_zero_gradient(self):
        c = Circuit(n_qubits=2, gates=(Gate("cnot", (0, 1)), Gate("h", (0,))), param_count=0)
        u, grads = evaluate_with_gradients(c, [])
        assert grads.shape == (0, 4, 4)

    def test_rz_at_zero(self):
        c = Circuit(n_qubits=1, gates=(Gate("rz", (0,), (0,)),), param_count=1)
        _, grads = evaluate_with_gradients(c, [0.0])
        assert np.allclose(grads[0], np.diag([-0.5j, 0.5j]))

    def test_every_rotation_kind(self, rng):
        gates = (
            Gate("grot", (0,), (0, 1, 2)),
            Gate("ry", (1,), (3,)),
            Gate("rx", (0,), (4,)),
            Gate("rz", (1,), (5,)),
            Gate("grot", (1,), (6, 7)),
        )
        c = Circuit(n_qubits=2, gates=gates, param_count=8)
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=8))

    def test_cr_gate(self, rng):
        c = cr_circuit("complex")
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=6))
        c2 = cr_circuit("real", 1, 0)
        self.assert_gradients_match(c2, rng.uniform(-np.pi, np.pi, size=2))

    def test_gadget_and_controlled_gadget(self, rng):
        gen = PauliSum.from_terms({"ZZ": 1j, "XI": 0.7j})
        g1 = Gate("gadget", (1, 2), (0,), generator=gen)
        g2 = Gate("gadget", (1, 2), (1,), generator=gen, controls=(0,))
        c = Circuit(n_qubits=3, gates=(g1, g2), param_count=2)
        self.assert_gradients_match(c, rng.uniform(-1, 1, size=2))

    def test_block2_circuit(self, rng):
        c = build_generic_ansatz(block_spec(2, n=2, layers=1))
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_hermitized_shared_slots(self, rng):
        c = hermitize(build_generic_ansatz(block_spec(2, n=1, layers=1)), "all_h")
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_gqsp_circuit(self, rng):
        gens = gqsp_gens([{"ZZ": 1j, "XX": 1j}, {"XI": 1j, "IX": 1j}])
        c = build_gqsp_ansatz(gens, n=2)
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_controlled_cr(self, rng):
        # block 6 emits each CR as two gates; the extra control must reach both
        c = controlled(build_generic_ansatz(block_spec(6, n=1)))
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_hermitized_cr(self, rng):
        # the mirror reverses the two gates of each CR
        c = hermitize(build_generic_ansatz(block_spec(6, n=1)))
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_gadget_two_controls(self, rng):
        gen = PauliSum.from_terms({"ZZ": 1j, "XY": 0.4j})
        g = Gate("gadget", (2, 3), (0,), generator=gen, controls=(0, 1))
        c = Circuit(n_qubits=4, gates=(Gate("grot", (3,), (1, 2, 3)), g), param_count=4)
        self.assert_gradients_match(c, rng.uniform(-1, 1, size=4))


P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
Z = np.diag([1.0, -1.0])
I2 = np.eye(2)

# (gate, qubit count, expected unitary) for every fixed gate kind, with the
# doubly and triply controlled Z as a 3- and 4-qubit cz
FIXED_GATES = [
    (Gate("h", (1,)), 2, np.kron(I2, H)),
    (Gate("cnot", (0, 1)), 2, np.kron(P0, I2) + np.kron(P1, X)),
    (Gate("cnot", (1, 0)), 2, np.kron(I2, P0) + np.kron(X, P1)),
    (Gate("cz", (0, 1)), 2, np.diag([1, 1, 1, -1])),
    (Gate("cz", (0, 1, 2)), 3, np.diag([1] * 7 + [-1])),
    (Gate("cz", (0, 1, 2, 3)), 4, np.diag([1] * 15 + [-1])),
]
FIXED_IDS = ["h", "cnot01", "cnot10", "cz", "ccz", "ncz"]


class TestLowering:
    @pytest.mark.parametrize("gate,n,expected", FIXED_GATES, ids=FIXED_IDS)
    def test_fixed_gate(self, gate, n, expected):
        c = Circuit(n_qubits=n, gates=(gate,), param_count=0)
        assert np.allclose(evaluate(c, []), expected)

    @pytest.mark.parametrize("gate,n,expected", FIXED_GATES, ids=FIXED_IDS)
    def test_fixed_gate_extra_control(self, gate, n, expected):
        g = Gate(gate.kind, tuple(q + 1 for q in gate.qubits), controls=(0,))
        c = Circuit(n_qubits=n + 1, gates=(g,), param_count=0)
        dim = 1 << n
        assert np.allclose(evaluate(c, []), np.kron(P0, np.eye(dim)) + np.kron(P1, expected))

    @pytest.mark.parametrize("gate,n,expected", FIXED_GATES, ids=FIXED_IDS)
    def test_fixed_gate_dagger(self, gate, n, expected):
        g = Gate(gate.kind, gate.qubits, dagger=True)
        c = Circuit(n_qubits=n, gates=(g,), param_count=0)
        assert np.allclose(evaluate(c, []), expected.conj().T)

    @pytest.mark.parametrize("restriction", ["complex", "real"])
    def test_cr_gate(self, rng, restriction):
        # a CR is two gates: R on the control, then a controlled R on the target
        c = cr_circuit(restriction)
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        if c.param_count == 6:
            ra, rb = single_qubit_R(*theta[:3]), single_qubit_R(*theta[3:])
        else:
            ra, rb = (single_qubit_R(t, 0, 0) for t in theta)
        m = (np.kron(P0, I2) + np.kron(P1, rb)) @ np.kron(ra, I2)
        assert np.allclose(evaluate(c, theta), m)
        mirrored = tuple(replace(g, dagger=True) for g in reversed(c.gates))
        assert np.allclose(evaluate(replace(c, gates=mirrored), theta), m.conj().T)
        ctrl = evaluate(controlled(c), theta)
        assert np.allclose(ctrl, np.kron(P0, np.eye(4)) + np.kron(P1, m))

    def test_wide_gadget_builds_and_counts(self):
        # the dense spectrum is only formed on evaluation
        gs = symmetry.heisenberg_generator_set("Sn", 10)
        c = build_gqsp_ansatz(gs.generators[:2], n=10)
        assert count_nonlocal_gates(c) > 0


class TestCostModel:
    def test_mc1q_table(self):
        assert [mc1q(k) for k in range(6)] == [0, 2, 6, 32, 48, 64]

    def test_ccz_and_ncz(self):
        # a k-qubit cz is a Z conditioned on k-1 qubits: native for k=2, mc1q beyond
        gates = (Gate("cz", (0, 1)), Gate("cz", (0, 1, 2)), Gate("cz", (0, 1, 2, 3)))
        c = Circuit(n_qubits=4, gates=gates, param_count=0)
        assert count_nonlocal_gates(c) == 1 + 6 + 32
        assert count_multiqubit_gates(c) == 3

    def test_gadget_costs(self):
        gen = PauliSum.from_terms({"ZZI": 1j, "ZIZ": 1j, "IZZ": 1j})
        plain = Circuit(
            n_qubits=3, gates=(Gate("gadget", (0, 1, 2), (0,), generator=gen),), param_count=1
        )
        assert count_nonlocal_gates(plain) == 3 * 2  # 2(w-1) per weight-2 string
        ctrl = Circuit(
            n_qubits=4,
            gates=(Gate("gadget", (1, 2, 3), (0,), generator=gen, controls=(0,)),),
            param_count=1,
        )
        assert count_nonlocal_gates(ctrl) == 3 * (2 + 2)

    def test_block_optimal_a_catalog(self):
        optimal = {bid for bid, info in BLOCK_CATALOG.items() if info.optimal_a}
        assert optimal == {2, 3, 5, 8, 9, 10, 11, 12, 13, 14, 15}


class TestDump:
    def test_dump_stable(self):
        gens = gqsp_gens([{"ZZ": 1j}])
        c = build_gqsp_ansatz(gens, n=2)
        text = dump_text(c)
        assert text.splitlines() == [
            "qubits=3 params=6 ancillas=1 layers=1 family=gqsp",
            "grot q=0 s=0,1,2",
            "gadget q=1,2 s=3 c=0 g=0 1 ZZ",
            "grot q=0 s=4,5",
        ]

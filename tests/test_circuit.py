import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from oracles import block_spec, is_unitary, single_qubit_R
from vbe import symmetry
from vbe.circuit import (
    BLOCK_CATALOG,
    AnsatzSpec,
    Circuit,
    Gate,
    build_ansatz,
    build_generic_ansatz,
    build_gqsp_ansatz,
    controlled,
    count_multiqubit_gates,
    count_nonlocal_gates,
    evaluate,
    evaluate_with_gradients,
    hermitize,
    mc1q,
)
from vbe.optimize import GqspFamily
from vbe.pauli import PauliSum, to_dense
from vbe.resources import estimate_generic_threshold, free_parameter_bound, nonlocal_gate_bound
from vbe.tables import RESOURCES_N5

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def gqsp_gens(seq):
    return tuple(PauliSum.from_terms(t) for t in seq)


def cr_circuit(restriction, a=0, b=1, n=2):
    """One CR as block 6 emits it: R on qubit a, then R on b controlled by a."""
    kind, k = ("grot", 3) if restriction == "complex" else ("ry", 1)
    gates = (
        Gate(kind, (a,), tuple(range(k))),
        Gate(kind, (b,), tuple(range(k, 2 * k)), controls=(a,)),
    )
    return Circuit(n_qubits=n, gates=gates, param_count=2 * k)


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
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12

    def test_wrong_theta_length(self):
        c = build_generic_ansatz(block_spec(2, n=2, layers=1))
        with pytest.raises(ValueError):
            evaluate(c, np.zeros(c.param_count + 1))

    def test_real_restriction_is_orthogonal(self, rng):
        for bid in (2, 5, 13):
            c = build_generic_ansatz(block_spec(bid, n=2, layers=2, restriction="real"))
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            assert np.max(np.abs(u.imag)) < 1e-12
            assert np.linalg.norm(u @ u.T - np.eye(8)) < 1e-10

    def test_all_blocks_unitary(self, rng):
        for bid, info in BLOCK_CATALOG.items():
            n = max(info.min_qubits - 1, 3)
            c = build_generic_ansatz(block_spec(bid, n=n, layers=1))
            u = evaluate(c, rng.uniform(-np.pi, np.pi, size=c.param_count))
            assert is_unitary(u, tol=1e-10), f"block {bid}"


class TestParameterCounts:
    def test_block2_small(self):
        c = build_generic_ansatz(block_spec(2, n=1, layers=1))
        assert c.param_count == 10  # one RCN (4) + U_s on 2 qubits (6)
        assert count_nonlocal_gates(c) == 1

    def test_block0_never_entangles(self):
        for layers in (1, 3, 10):
            c = build_generic_ansatz(block_spec(0, n=2, layers=layers))
            assert count_nonlocal_gates(c) == 0

    @pytest.mark.parametrize("field,structure", list(RESOURCES_N5))
    def test_resources_n5(self, field, structure):
        # block 2 on 4 system qubits at its estimated threshold depth, against
        # the free-parameter bound and the CNOT bound of the one-layer circuit
        spec = block_spec(2, n=4, restriction=field, hermitian=structure == "hermitian")
        c = build_ansatz(replace(spec, layers=estimate_generic_threshold(spec)))
        class_dim = free_parameter_bound(4, field, structure)
        one_layer = build_generic_ansatz(block_spec(2, n=4, restriction=field))
        got = (
            c.param_count,
            class_dim,
            count_nonlocal_gates(c),
            nonlocal_gate_bound(one_layer, class_dim),
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
            c = build_generic_ansatz(block_spec(bid, n=3, layers=1))
            assert c.layer_slot_count == n_slots, f"block {bid}"
            assert count_multiqubit_gates(c) == n_mq, f"block {bid}"

    def test_slots_unique(self):
        c = build_generic_ansatz(block_spec(11, n=3, layers=2))
        seen = [s for g in c.gates for s in g.slots]
        assert sorted(seen) == list(range(c.param_count))


# sha256 of every block's gate list (kind, qubits, slots, controls, then the
# core's), param_count and layer_slot_count over both restrictions, n = 1..4
# system qubits (from the block's least), M = 0..3, plain and hermitized
BLOCK_GATES_SHA256 = "d74ada4340a5342cf4098a23b58117de50c06794ccfa5ac45f3c3b103809b511"


class TestBlockCatalog:
    def test_gate_lists_are_pinned(self):
        def rows(gates):
            return tuple((g.kind, g.qubits, g.slots, g.controls) for g in gates)

        h = hashlib.sha256()
        for bid in sorted(BLOCK_CATALOG):
            least = max(1, BLOCK_CATALOG[bid].min_qubits - 1)
            for restriction, n, m, hermitian in itertools.product(
                ("complex", "real"), range(least, 5), range(4), (False, True)
            ):
                c = build_ansatz(block_spec(bid, n, m, restriction, hermitian))
                gates = rows(c.gates) + (("core",),) + rows(c.core or ())
                h.update(repr((gates, c.param_count, c.layer_slot_count)).encode())
        assert h.hexdigest() == BLOCK_GATES_SHA256

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(family="block", block_id=2, restriction="quaternion"), "unknown restriction"),
            (dict(family="block", block_id=12), "block 12 needs at least 3 qubits"),
            (dict(family="block", block_id=16), "block id in 0..15"),
            (dict(family="block", block_id=-1), "block id in 0..15"),
            (dict(family="block"), "block id in 0..15"),
            (dict(family="qsvt", block_id=2), "unknown ansatz family"),
        ],
        ids=["restriction", "too-few-qubits", "id-16", "id-negative", "no-id", "family"],
    )
    def test_spec_refusals(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AnsatzSpec(system_qubits=1, layers=1, **kwargs)

    @pytest.mark.parametrize("layers", [2.5, 2.0])
    def test_non_integer_layers_are_refused(self, layers):
        with pytest.raises(ValueError, match=f"integer, got {layers}"):
            AnsatzSpec("block", 2, layers, block_id=2)

    def test_numpy_integer_layers_build(self):
        spec = AnsatzSpec("block", 2, np.int64(2), block_id=2)
        assert build_ansatz(spec).gates == build_ansatz(block_spec(2, n=2, layers=2)).gates

    def test_dense_evaluation_cap(self):
        # block 2 on 10 system qubits builds and counts, but its 2^11 x 2^11
        # unitary is refused before anything is allocated
        c = build_generic_ansatz(block_spec(2, n=10, layers=1))
        assert c.n_qubits == 11
        assert count_nonlocal_gates(c) == 10
        with pytest.raises(ValueError, match="dense evaluation"):
            evaluate(c, np.zeros(c.param_count))
        # GQSP on 9 system qubits, 10 in all, is still evaluated
        c = build_gqsp_ansatz(gqsp_gens([{"Z" * 9: 1j}]), n=9)
        assert np.allclose(evaluate(c, np.zeros(c.param_count)), np.eye(1 << 10))


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
        assert np.allclose(u[4:, 4:], scipy.linalg.expm(0.37 * to_dense(gens[0])))


def gadget_unitary(g, theta):
    """exp(theta * G) from a one-gate circuit holding the gadget of G."""
    gate = Gate("gadget", tuple(range(g.n)), (0,), generator=g)
    return evaluate(Circuit(n_qubits=g.n, gates=(gate,), param_count=1), [theta])


class TestPauliGadget:
    def test_zero_angle(self):
        g = PauliSum.from_terms({"ZZ": 1j})
        assert np.allclose(gadget_unitary(g, 0.0), np.eye(4))

    def test_izz_diagonal(self):
        g = PauliSum.from_terms({"ZZ": 1j})
        t = 0.73
        expected = np.diag(np.exp(1j * t * np.array([1, -1, -1, 1])))
        assert np.allclose(gadget_unitary(g, t), expected)

    def test_commuting_equals_string_product(self):
        g = PauliSum.from_terms({"ZZI": 1j, "ZIZ": 1j, "IZZ": 1j})
        t = 0.41
        got = gadget_unitary(g, t)
        parts = [
            gadget_unitary(PauliSum.from_terms({s: 1j}), t)
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
        assert np.max(np.abs(got - gadget_unitary(g, t))) < 1e-12

    def test_rejects_hermitian_generator(self):
        with pytest.raises(ValueError, match="anti-hermitian"):
            gadget_unitary(PauliSum.from_terms({"ZZ": 1.0}), 0.5)


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
            assert np.linalg.norm(u - u.conj().T) < 1e-12
            assert is_unitary(u, tol=1e-10)

    def test_param_count_preserved(self):
        c = build_generic_ansatz(block_spec(2, n=2, layers=3))
        assert hermitize(c).param_count == c.param_count

    def test_gqsp_hermitian(self, rng):
        gens = gqsp_gens([{"XX": 1j}, {"ZZ": 1j, "XX": 0.5j}])
        hc = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        u = evaluate(hc, rng.uniform(-np.pi, np.pi, size=hc.param_count))
        assert np.linalg.norm(u - u.conj().T) < 1e-12


    def test_refuses_a_hermitized_circuit(self):
        hc = hermitize(build_generic_ansatz(block_spec(2, n=1, layers=1)))
        with pytest.raises(ValueError, match="already hermitized"):
            hermitize(hc, "ancilla_h")

    def test_refuses_a_core_with_a_slot(self):
        with pytest.raises(ValueError, match="no parameters"):
            Circuit(1, (Gate("rx", (0,), (0,)),), 1, core=(Gate("ry", (0,), (0,)),))

    @pytest.mark.parametrize("v", ["all_h", "ancilla_h"])
    def test_counts_u_twice_and_v_once(self, v):
        c = build_generic_ansatz(block_spec(6, n=2, layers=2))
        hc = hermitize(c, v)
        chc = controlled(hc)
        for count in (count_nonlocal_gates, count_multiqubit_gates):
            assert count(hc) == 2 * count(c) + count(Circuit(hc.n_qubits, hc.core, 0))
            # controlled conditions only the core, so U costs the same
            assert count(chc) == 2 * count(c) + count(Circuit(chc.n_qubits, chc.core, 0))

    def test_hand_built_span_is_u_v_u_dagger(self, rng):
        u_gates = (Gate("grot", (0,), (0, 1, 2)), Gate("cnot", (0, 1)), Gate("ry", (1,), (3,)))
        v = (Gate("h", (1,)), Gate("cz", (0, 1)))
        c = Circuit(2, u_gates, 4, core=v)
        theta = rng.uniform(-np.pi, np.pi, size=4)
        u = evaluate(Circuit(2, u_gates, 4), theta)
        core = evaluate(Circuit(2, v, 0), [])
        assert np.max(np.abs(evaluate(c, theta) - u @ core @ u.conj().T)) < 1e-14
        # this V is not hermitian, so the pullback must use V and V^dagger apart
        assert np.max(np.abs(core - core.conj().T)) > 0.5
        assert_matches_dense_sandwich(c, rng)


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


def pulled_back_jacobian(c, theta):
    """dU/d(theta_k) recovered entry by entry from the pullback.

    Re <E_ij, dU>_F = Re dU_ij and Re <i E_ij, dU>_F = Im dU_ij for the unit
    cotangents E_ij of shape (dim, dim).
    """
    _, pullback = evaluate_with_gradients(c, theta)
    dim = c.dim
    grads = np.zeros((c.param_count, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            grads[:, i, j] = pullback(e) + 1j * pullback(1j * e)
    return grads


class TestGradients:
    def assert_gradients_match(self, c, theta, tol=1e-6, h=1e-5):
        grads = pulled_back_jacobian(c, theta)
        for k in range(c.param_count):
            tp, tm = np.array(theta, float), np.array(theta, float)
            tp[k] += h
            tm[k] -= h
            fd = (evaluate(c, tp) - evaluate(c, tm)) / (2 * h)
            assert np.max(np.abs(grads[k] - fd)) < tol, f"slot {k}"

    def test_fixed_gates_zero_gradient(self):
        c = Circuit(n_qubits=2, gates=(Gate("cnot", (0, 1)), Gate("h", (0,))), param_count=0)
        _, pullback = evaluate_with_gradients(c, [])
        assert pullback(np.ones((4, 4))).shape == (0,)

    def test_rz_at_zero(self):
        c = Circuit(n_qubits=1, gates=(Gate("rz", (0,), (0,)),), param_count=1)
        grads = pulled_back_jacobian(c, [0.0])
        assert np.allclose(grads[0], np.diag([-0.5j, 0.5j]))

    def test_every_rotation_kind(self, rng):
        gates = (
            Gate("grot", (0,), (0, 1, 2)),
            Gate("ry", (1,), (3,)),
            Gate("rx", (0,), (4,)),
            Gate("rz", (1,), (5,)),
            Gate("grot", (1,), (6, 7)),
            Gate("grot", (0,), (8, 9, 8)),  # theta and lam share a slot
            Gate("grot", (1,), (10, 4)),  # phi is the rx gate's slot
        )
        c = Circuit(n_qubits=2, gates=gates, param_count=11)
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=11))

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

    def test_hermitized_gqsp_circuit(self, rng):
        # gadgets on both sides of the ancilla core
        gens = gqsp_gens([{"ZZ": 1j, "XX": 1j}, {"XI": 1j, "IX": 1j}])
        c = hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_controlled_cr(self, rng):
        # block 6 emits each CR as two gates; the extra control must reach both
        c = controlled(build_generic_ansatz(block_spec(6, n=1)))
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_hermitized_cr(self, rng):
        # U^dagger reverses the two gates of each CR
        c = hermitize(build_generic_ansatz(block_spec(6, n=1)))
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=c.param_count))

    def test_gadget_two_controls(self, rng):
        gen = PauliSum.from_terms({"ZZ": 1j, "XY": 0.4j})
        g = Gate("gadget", (2, 3), (0,), generator=gen, controls=(0, 1))
        c = Circuit(n_qubits=4, gates=(Gate("grot", (3,), (1, 2, 3)), g), param_count=4)
        self.assert_gradients_match(c, rng.uniform(-1, 1, size=4))

    def test_run_on_one_qubit(self, rng):
        # consecutive gates on the window of qubits 0 and 1 fold into one op,
        # the uncontrolled rz too; the shared slot 0 appears twice in it
        gates = (
            Gate("rx", (1,), (0,), controls=(0,)),
            Gate("grot", (1,), (1, 2, 3), controls=(0,)),
            Gate("h", (1,), controls=(0,)),
            Gate("rx", (1,), (0,), controls=(0,)),
            Gate("grot", (1,), (4, 5), controls=(0,)),
            Gate("rz", (1,), (6,)),
        )
        c = Circuit(n_qubits=2, gates=gates, param_count=7)
        assert [len(run) for run in c._plan.runs] == [6]
        self.assert_gradients_match(c, rng.uniform(-np.pi, np.pi, size=7))

    @pytest.mark.parametrize("restriction", ["complex", "real"])
    @pytest.mark.parametrize("block_id", sorted(BLOCK_CATALOG))
    def test_unitary_is_evaluate(self, rng, block_id, restriction):
        base = build_generic_ansatz(block_spec(block_id, n=2, layers=2, restriction=restriction))
        for c in (base, hermitize(base), controlled(base), controlled(hermitize(base))):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            u, _ = evaluate_with_gradients(c, theta)
            assert np.array_equal(u, evaluate(c, theta))

    def test_gqsp_unitary_is_evaluate(self, rng):
        gens = gqsp_gens([{"ZZ": 1j, "XX": 1j}, {"XI": 1j, "IX": 1j}, {"YY": 1j}])
        for c in (build_gqsp_ansatz(gens, n=2), hermitize(build_gqsp_ansatz(gens, n=2), "ancilla_h")):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            u, _ = evaluate_with_gradients(c, theta)
            assert np.array_equal(u, evaluate(c, theta))

    @pytest.mark.parametrize("rows,cols", [(4, 4), (2, 8), (8, 1), (5, 3)])
    def test_corner_cotangent_is_zero_padded_full(self, rng, rows, cols):
        c = hermitize(build_generic_ansatz(block_spec(6, n=2, layers=1)))
        theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
        _, pullback = evaluate_with_gradients(c, theta)
        w = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        padded = np.zeros((c.dim, c.dim), dtype=complex)
        padded[:rows, :cols] = w
        assert np.max(np.abs(pullback(w) - pullback(padded))) < 1e-12


def assert_matches_dense_sandwich(c, rng, tol=1e-12):
    """u and pullback(w) of a circuit with a core against U V U^dagger made densely.

    U and its Jacobian dU come from ``replace(c, core=None)``, the Jacobian
    through :func:`pulled_back_jacobian` (checked against finite differences
    in ``TestGradients``).  The derivative dU V U^dagger + U V dU^dagger is
    then assembled as dense matrices, with no cotangent G.  Cotangents have
    unit norm.
    """
    plain = replace(c, core=None)
    theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
    big_u = evaluate(plain, theta)
    v = evaluate(Circuit(c.n_qubits, c.core, 0), [])
    du = pulled_back_jacobian(plain, theta)
    d_full = du @ (v @ big_u.conj().T) + (big_u @ v) @ du.conj().transpose(0, 2, 1)
    u, pullback = evaluate_with_gradients(c, theta)
    assert np.max(np.abs(u - big_u @ v @ big_u.conj().T)) <= tol
    for rows, cols in ((c.dim // 2, c.dim // 2), (c.dim, c.dim), (3, 2), (2, c.dim - 1)):
        w = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        w /= np.linalg.norm(w)
        want = np.einsum("ij,kij->k", w.conj(), d_full[:, :rows, :cols]).real
        assert np.max(np.abs(pullback(w) - want)) <= tol, (rows, cols)


class TestMirroredHalf:
    """Circuits with a core sweep only U; dense U V U^dagger and dU are the oracle."""

    @pytest.mark.parametrize("restriction", ["complex", "real"])
    @pytest.mark.parametrize("block_id", sorted(BLOCK_CATALOG))
    def test_hermitized_block(self, rng, block_id, restriction):
        # one layer, and the fewest qubits under a control, keep each dense Jacobian small
        spec = block_spec(block_id, n=2, restriction=restriction)
        assert_matches_dense_sandwich(hermitize(build_generic_ansatz(spec)), rng)
        spec = replace(spec, system_qubits=BLOCK_CATALOG[block_id].min_qubits - 1)
        assert_matches_dense_sandwich(controlled(hermitize(build_generic_ansatz(spec))), rng)

    @pytest.mark.parametrize("n,layers", [(2, 3), (3, 5), (4, 4)])
    def test_hermitized_gqsp(self, rng, n, layers):
        gs = symmetry.heisenberg_generator_set("Sn", n)
        seq = tuple(gs.generators[i] for i in rng.integers(0, len(gs), size=layers))
        assert_matches_dense_sandwich(hermitize(build_gqsp_ansatz(seq, n), "ancilla_h"), rng)


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
        ctrl = evaluate(controlled(c), theta)
        assert np.allclose(ctrl, np.kron(P0, np.eye(4)) + np.kron(P1, m))

    def test_gadget_spectra_once_per_generator(self, monkeypatch, rng):
        # hermitized GQSP Sn 3, M=6 over all 4 generators: 6 gadget gates,
        # each applied in U and in U^dagger, share 4 eigendecompositions
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        gs = symmetry.heisenberg_generator_set("Sn", 3)
        seq = tuple(gs.generators[i] for i in (0, 1, 2, 3, 0, 1))
        c = hermitize(build_gqsp_ansatz(seq, n=3), "ancilla_h")
        assert sum(g.kind == "gadget" for g in c.gates) == 6
        for _ in range(2):
            theta = rng.uniform(-np.pi, np.pi, size=c.param_count)
            evaluate(c, theta)
            evaluate_with_gradients(c, theta)[1](np.ones((8, 8)))
        assert len(calls) == len(gs) == 4

    def test_wide_gadget_builds_and_counts(self):
        # the dense spectrum is only formed on evaluation
        gs = symmetry.heisenberg_generator_set("Sn", 10)
        c = build_gqsp_ansatz(gs.generators[:2], n=10)
        assert count_nonlocal_gates(c) > 0


# sha256 of "cnots,multi;" for every circuit c below and then controlled(c):
# each block over n = 1..4, both restrictions, plain and hermitized, M = 0..2,
# then every 2-layer GQSP sequence of Sn, Cn and Z2xz at n = 2..4, both ways
GATE_COUNTS_SHA256 = "ea19cf23c5701b49159f3f0a8e8bc28baf164a967a283e430d4b06694534de38"


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
        # an identity string is a global phase: free, or a phase on the controls
        ident = PauliSum.from_terms({"III": 1j})
        for k, cost in ((0, 0), (1, 0), (2, 2)):
            g = Gate("gadget", (k, k + 1, k + 2), (0,), generator=ident, controls=tuple(range(k)))
            assert count_nonlocal_gates(Circuit(k + 3, (g,), 1)) == cost

    @pytest.mark.parametrize("count", [count_nonlocal_gates, count_multiqubit_gates])
    def test_non_commuting_gadget_is_refused(self, count):
        # XX and ZI anticommute, so exp(theta G) is not the product of one
        # basis-change ladder per string
        gen = PauliSum.from_terms({"XX": 1j, "ZI": 1j})
        c = Circuit(2, (Gate("gadget", (0, 1), (0,), generator=gen),), 1)
        with pytest.raises(ValueError, match="do not pairwise commute"):
            count(c)

    def test_gate_counts_are_pinned(self):
        def circuits():
            for bid, n, restriction, hermitian, m in itertools.product(
                BLOCK_CATALOG, range(1, 5), ("complex", "real"), (False, True), range(3)
            ):
                try:
                    spec = AnsatzSpec(
                        "block", n, m, bid, restriction=restriction, hermitian=hermitian
                    )
                except ValueError:
                    continue
                yield build_ansatz(spec)
            for kind, n, hermitian in itertools.product(
                ("Sn", "Cn", "Z2xz"), range(2, 5), (False, True)
            ):
                gs = symmetry.heisenberg_generator_set(kind, n)
                family = GqspFamily(gs, hermitian)
                for seq in itertools.product(range(len(gs.generators)), repeat=2):
                    yield build_ansatz(family.spec_for_sequence(seq))

        h, total = hashlib.sha256(), 0
        for c in circuits():
            for cc in (c, controlled(c)):
                h.update(f"{count_nonlocal_gates(cc)},{count_multiqubit_gates(cc)};".encode())
                total += 1
        assert total == 2316
        assert h.hexdigest() == GATE_COUNTS_SHA256

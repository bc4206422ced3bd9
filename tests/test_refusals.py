"""Every input check that the other tests do not reach raises ``ValueError``
with its own message."""

import numpy as np
import pytest

from vbe import linalg
from vbe.circuit import AnsatzSpec, Circuit, Gate, build_generic_ansatz, hermitize, mc1q
from vbe.pauli import PauliString, PauliSum, SpanBasis, parse_generator_file
from vbe.resources import lcu_estimate
from vbe.symmetry import (
    GeneratorSet,
    expressible,
    heisenberg_generator_set,
    symmetric_orbit_compression,
)
from vbe.targets import random_matrix, zero_pad

G2 = PauliSum.from_terms({"XX": 1j})  # an anti-hermitian generator on 2 qubits
GQSP_ONE_LAYER = AnsatzSpec("gqsp", 2, 1, generators=(G2,))
ONE_RY = Circuit(1, (Gate("ry", (0,), (0,)),), 1)

REFUSALS = {
    "gate_unknown_kind": (lambda: Gate("swap", (0, 1)), "unknown gate kind"),
    "gate_duplicate_qubit": (lambda: Gate("ry", (0,), (0,), controls=(0,)), "duplicate qubit"),
    "gate_slot_count": (lambda: Gate("ry", (0,), (0, 1)), "ry expects"),
    "gadget_without_generator": (lambda: Gate("gadget", (0, 1), (0,)), "needs a generator"),
    "gadget_qubit_count": (lambda: Gate("gadget", (0,), (0,), G2), "must match its generator"),
    "gadget_not_contiguous": (lambda: Gate("gadget", (0, 2), (0,), G2), "contiguous"),
    "circuit_qubit_range": (
        lambda: Circuit(1, (Gate("ry", (1,), (0,)),), 1),
        "qubit 1 out of range",
    ),
    "circuit_slot_range": (lambda: Circuit(1, (Gate("ry", (0,), (1,)),), 1), "slot 1 out of range"),
    "gqsp_generator_count": (
        lambda: AnsatzSpec("gqsp", 2, 2, generators=(G2,)),
        "one generator per layer",
    ),
    "gqsp_generator_qubits": (
        lambda: AnsatzSpec("gqsp", 3, 1, generators=(G2,)),
        "generator qubit count",
    ),
    "gqsp_real": (
        lambda: AnsatzSpec("gqsp", 2, 1, generators=(G2,), restriction="real"),
        "no real restriction",
    ),
    "generic_builder_of_gqsp": (
        lambda: build_generic_ansatz(GQSP_ONE_LAYER),
        "not describe a generic",
    ),
    "hermitize_unknown_core": (lambda: hermitize(ONE_RY, "all_x"), "unknown V choice"),
    "mc1q_negative": (lambda: mc1q(-1), "negative control count"),
    "pauli_letter": (lambda: PauliString.from_letters("XQ"), "invalid Pauli letter 'Q'"),
    "sum_of_no_terms": (lambda: PauliSum.from_terms({}), "empty mapping"),
    "sum_of_mixed_lengths": (
        lambda: PauliSum.from_terms({"X": 1.0, "XX": 1.0}),
        "share the same length",
    ),
    "sum_add_qubits": (lambda: PauliSum.identity(1) + G2, "qubit count mismatch: 1 vs 2"),
    "sum_matmul_qubits": (lambda: G2 @ PauliSum.identity(1), "qubit count mismatch: 2 vs 1"),
    "span_add_qubits": (lambda: SpanBasis(2).add(PauliSum.identity(1)), "qubit count mismatch"),
    "generator_file_empty": (lambda: parse_generator_file("# nothing\n\n"), "no Pauli sums"),
    "generator_file_mixed_qubits": (
        lambda: parse_generator_file("0 1 X\n\n0 1 XX\n"),
        "share one qubit count",
    ),
    "generator_set_labels": (lambda: GeneratorSet("Sn", 2, (G2,), ()), "one label per generator"),
    "generator_set_qubits": (
        lambda: GeneratorSet("Sn", 3, (G2,), ("g",)),
        "qubit count mismatch",
    ),
    "generator_set_hermitian": (
        lambda: GeneratorSet("Sn", 2, (G2 * 1j,), ("g",)),
        "must be anti-hermitian",
    ),
    "heisenberg_one_site": (lambda: heisenberg_generator_set("Sn", 1), "n >= 2"),
    "heisenberg_unknown_kind": (
        lambda: heisenberg_generator_set("Dn", 3),
        "no Heisenberg generator set",
    ),
    "orbits_unknown_kind": (
        lambda: symmetric_orbit_compression("Dn", 2),
        "unknown symmetry kind",
    ),
    "expressible_dimension": (
        lambda: expressible(np.eye(2), [PauliSum.identity(2)]),
        "dimension mismatch",
    ),
    "as_matrix_not_2d": (lambda: linalg.as_matrix(np.ones(3)), "expected a 2-D matrix"),
    "as_matrix_not_finite": (lambda: linalg.as_matrix([[np.nan]]), "non-finite"),
    "lcu_of_zero": (lambda: lcu_estimate(PauliSum.zero(2)), "empty Hamiltonian"),
    "random_unknown_structure": (lambda: random_matrix(1, structure="unitary"), "unknown structure"),
    "zero_pad_not_2d": (lambda: zero_pad(np.ones(3)), "2-D matrix"),
}


@pytest.mark.parametrize("call,match", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()

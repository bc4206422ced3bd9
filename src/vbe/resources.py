"""Closed-form resource bounds and estimators.

Free-parameter counts of matrix classes, the CNOT lower bound (TLB), the
parameter-per-gate ratio ``a``, the one threshold-layer estimate, and the
LCU gate-count comparison model.

All bounds are pure integer functions; ratios use exact ``Fraction``
arithmetic so ceilings are never subject to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from vbe.circuit import (
    COMPLEX,
    REAL,
    Circuit,
    build_generic_ansatz,
    count_multiqubit_gates,
    rotation_cnots,
)
from vbe.pauli import PauliSum


def free_parameter_bound(n: int, field: str, structure: str) -> int:
    """Independent real parameters in a 2^n x 2^n matrix of the given class."""
    d = 1 << n
    table = {
        (COMPLEX, "arbitrary"): 2 * d * d,
        (REAL, "arbitrary"): d * d,
        (COMPLEX, "hermitian"): d * d,
        (REAL, "hermitian"): d * (d + 1) // 2,
        (COMPLEX, "unitary"): d * d - 1,
        (REAL, "unitary"): d * (d - 1) // 2 - 1,
    }
    try:
        return table[(field, structure)]
    except KeyError:
        raise ValueError(f"unknown matrix class ({field!r}, {structure!r})") from None


def tlb_cnot(n: int) -> int:
    """CNOT lower bound for a one-ancilla encoding of a complex arbitrary target."""
    return math.ceil(Fraction(2 * 4**n - 3 * (n + 1), 4))


def nonlocal_gate_bound(n: int, total_qubits: int, field: str, structure: str, a: Fraction) -> int:
    """Multi-qubit-gate lower bound for an n-qubit target of the given class.

    The free parameters of the matrix class, less the parameter budget of
    the appended single-qubit layer on all ``total_qubits`` qubits (3 per
    general rotation for complex circuits, 1 per Ry for real ones), divided
    by the parameter-per-gate ratio ``a``.
    """
    if total_qubits < n + 1:
        raise ValueError("block encoding needs at least one ancilla qubit")
    a = Fraction(a)
    if a <= 0:
        raise ValueError("a-ratio must be positive")
    if structure not in ("arbitrary", "hermitian"):
        raise ValueError(f"no gate bound for structure {structure!r}")
    us_params = (3 if field == COMPLEX else 1) * total_qubits
    return math.ceil(Fraction(free_parameter_bound(n, field, structure) - us_params) / a)


def a_ratio(c: Circuit) -> Fraction:
    """Repeating-layer parameters per raw multi-qubit gate.

    The appended single-qubit layer is excluded from the numerator since
    the bounds account for it separately.
    """
    gates = count_multiqubit_gates(c)
    if gates == 0:
        raise ValueError("circuit has no entangling gates")
    return Fraction(c.layer_slot_count, gates)


def threshold_layers(one_layer: Circuit, class_dim: int) -> int:
    """Layer estimate from a family's one-layer circuit: the smallest M whose
    M layers, with the family's fixed parameters, have at least ``class_dim``
    parameters, the class's real degrees of freedom.

    The ``layer_slot_count`` parameters of ``one_layer`` repeat per layer and
    the rest are fixed: the appended single-qubit layer of a generic circuit,
    the initial ancilla rotation of a GQSP one.  For GQSP (3M + 3 parameters)
    at a symmetric target's q*dimB this is ceil((q*dimB - 3) / 3).  The
    formula as printed, ceil(q*dimB/3 - 3), is not used: it gives 4 at Sn 4
    (dimB 19) against the GQSP_TABLE anchor of 6 layers.
    """
    per_layer = one_layer.layer_slot_count
    if per_layer == 0:
        raise ValueError("the layer has no parameters")
    fixed = one_layer.param_count - per_layer
    return max(0, math.ceil(Fraction(class_dim - fixed, per_layer)))


def estimate_generic_threshold(spec) -> int:
    """Threshold-layer estimate for a generic AnsatzSpec: enough parameters
    for the free-parameter count of the matching matrix class on its
    ``system_qubits``."""
    structure = "hermitian" if spec.hermitian else "arbitrary"
    n_p = free_parameter_bound(spec.system_qubits, spec.restriction, structure)
    return threshold_layers(build_generic_ansatz(replace(spec, layers=1)), n_p)


@dataclass(frozen=True)
class LcuEstimate:
    term_count: int
    ancillas: int
    prepare_cnots: int
    select_cnots: int

    @property
    def cnot_count(self) -> int:
        return self.prepare_cnots + self.select_cnots


def lcu_estimate(h: PauliSum) -> LcuEstimate:
    """Gate estimate for a linear-combination-of-unitaries encoding of ``h``.

    The state preparation on m = ceil(log2(terms)) ancillas costs up to
    2^m - 2 CNOTs for real amplitudes and is counted twice (prepare +
    unprepare).  Each select term is its string's rotation under the m
    ancilla controls, :func:`~vbe.circuit.rotation_cnots`, the rule
    :func:`~vbe.circuit.count_nonlocal_gates` charges gadget strings.
    """
    if h.is_zero():
        raise ValueError("empty Hamiltonian")
    scale = max(h.coeff_norm(), 1.0)
    for _, c in h.items():
        if abs(c.imag) > 1e-12 * scale:
            raise ValueError("LCU preparation model covers real coefficients only")
    term_count = len(h)
    m = 0 if term_count == 1 else math.ceil(math.log2(term_count))
    prepare = 2 * (2**m - 2) if m >= 1 else 0
    select = sum(rotation_cnots(p.weight, m) for p in h.strings())
    return LcuEstimate(
        term_count=term_count,
        ancillas=m,
        prepare_cnots=prepare,
        select_cnots=select,
    )

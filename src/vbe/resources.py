"""Closed-form resource bounds and estimators.

Free-parameter counts of matrix classes, the class of a generic spec, the
CNOT lower bound (TLB), the parameter-per-gate ratio ``a``, the layer
estimate and multi-qubit-gate bound that read a family's parameter layout
off its one-layer circuit, and the LCU gate-count comparison model.

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


def nonlocal_gate_bound(one_layer: Circuit, class_dim: int) -> int:
    """Multi-qubit-gate lower bound of a family for a class of ``class_dim``
    real parameters: those less the family's fixed parameters (read as
    :func:`threshold_layers` reads them), over :func:`a_ratio`, at least 0.

    ``one_layer`` is the family's one-layer circuit before hermitization, so
    the ``RESOURCES_N5`` bounds of the hermitian classes too use U's a-ratio.
    """
    fixed = one_layer.param_count - one_layer.layer_slot_count
    return max(0, math.ceil(Fraction(class_dim - fixed) / a_ratio(one_layer)))


def a_ratio(c: Circuit) -> Fraction:
    """Repeating-layer parameters (``layer_slot_count``) per raw multi-qubit gate."""
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


def class_dimension(spec, n: int) -> int:
    """Free parameters of the n-qubit class a generic AnsatzSpec encodes (field, hermitian)."""
    return free_parameter_bound(n, spec.restriction, "hermitian" if spec.hermitian else "arbitrary")


def estimate_generic_threshold(spec) -> int:
    """Threshold-layer estimate for a generic AnsatzSpec: enough parameters
    for the :func:`class_dimension` of its ``system_qubits``."""
    one_layer = build_generic_ansatz(replace(spec, layers=1))
    return threshold_layers(one_layer, class_dimension(spec, spec.system_qubits))


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

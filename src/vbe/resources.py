"""Closed-form resource bounds and estimators.

Free-parameter counts of matrix classes, the CNOT lower bound (TLB), the
parameter-per-gate ratio ``a``, threshold-layer estimates for generic and
symmetric ansatze, and the LCU gate-count comparison model.

All bounds are pure integer functions; ratios use exact ``Fraction``
arithmetic so ceilings are never subject to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from vbe.circuit import (
    COMPLEX,
    DEFAULT_COST_MODEL,
    REAL,
    Circuit,
    GateCostModel,
    count_multiqubit_gates,
)
from vbe.pauli import PauliSum

LITERAL_FORMULA = "literal"
PARAM_INVERSION = "param_inversion"


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


@dataclass(frozen=True)
class BoundQuery:
    n: int
    total_qubits: int
    field: str = COMPLEX
    structure: str = "arbitrary"
    a: Fraction = Fraction(4)

    def __post_init__(self):
        if self.total_qubits < self.n + 1:
            raise ValueError("block encoding needs at least one ancilla qubit")
        if Fraction(self.a) <= 0:
            raise ValueError("a-ratio must be positive")
        object.__setattr__(self, "a", Fraction(self.a))


def nonlocal_gate_bound(q: BoundQuery) -> int:
    """Multi-qubit-gate lower bound for the matrix class of the query.

    The subtracted term is the parameter budget of the appended single-qubit
    layer: 3N general rotations for complex circuits, N Ry rotations for
    real ones.
    """
    d = 1 << q.n
    N = q.total_qubits
    if q.structure == "arbitrary":
        free = (2 * d * d - 3 * N) if q.field == COMPLEX else (d * d - N)
    elif q.structure == "hermitian":
        free = (d * d - 3 * N) if q.field == COMPLEX else (d * (d + 1) // 2 - N)
    else:
        raise ValueError(f"no gate bound for structure {q.structure!r}")
    return math.ceil(Fraction(free) / q.a)


def a_ratio(c: Circuit) -> Fraction:
    """Repeating-layer parameters per raw multi-qubit gate.

    The appended single-qubit layer is excluded from the numerator since
    the bounds account for it separately.
    """
    gates = count_multiqubit_gates(c)
    if gates == 0:
        raise ValueError("circuit has no entangling gates")
    return Fraction(c.layer_slot_count, gates)


def symmetric_a_ratio(kind: str, n: int) -> Fraction:
    """Per-symmetry parameter-per-2-qubit-gate ratio of the GQSP-type ansatz.

    One gadget parameter drives a full bond-type sweep; each bond costs
    three native 2-qubit gates (a CNOT ladder pair plus the controlled
    rotation) and the hermitian mirror doubles the sweep, giving
    a = 1 / (6 * bonds) on the chain (n-1 bonds), ring (n) and complete
    graph (n(n-1)/2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    bonds = {"Z2xz": n - 1, "Cn": n, "Sn": n * (n - 1) // 2}
    try:
        return Fraction(1, 6 * bonds[kind])
    except KeyError:
        raise ValueError(f"no symmetric a-ratio for kind {kind!r}") from None


def threshold_layers_generic(
    n_p: int,
    total_qubits: int,
    a: Fraction | int,
    nlg_per_layer: int,
    us_params: int | None = None,
) -> int:
    """ceil((N_p - U_s parameters) / (a * nonlocal gates per layer)).

    ``us_params`` defaults to the complex appended layer (3N); real circuits
    pass N.
    """
    if n_p <= 0 or total_qubits <= 0 or nlg_per_layer <= 0:
        raise ValueError("inputs must be positive")
    us = 3 * total_qubits if us_params is None else us_params
    remaining = n_p - us
    if remaining <= 0:
        return 0
    return math.ceil(Fraction(remaining) / (Fraction(a) * nlg_per_layer))


def threshold_layers_symmetric(dim_b: int, q: int, mode: str = PARAM_INVERSION) -> int:
    """Layer estimate from the block-span dimension.

    ``literal`` evaluates ceil(q*dimB/3 - 3); ``param_inversion`` returns
    the smallest M with 3M + 3 >= q*dimB.  The two disagree (the literal
    form undershoots the observed thresholds); both are exposed and callers
    must label which one they report.
    """
    if dim_b < 1:
        raise ValueError("dim_b must be >= 1")
    if q not in (1, 2):
        raise ValueError("q must be 1 (hermitian) or 2 (non-hermitian)")
    if mode == LITERAL_FORMULA:
        return max(0, math.ceil(Fraction(q * dim_b, 3) - 3))
    if mode == PARAM_INVERSION:
        return max(0, math.ceil(Fraction(q * dim_b - 3, 3)))
    raise ValueError(f"unknown mode {mode!r}")


def estimate_generic_threshold(spec) -> int:
    """Threshold-layer estimate for a generic AnsatzSpec from its own layer
    geometry and the free-parameter count of the matching matrix class."""
    from vbe.circuit import build_generic_ansatz

    probe = build_generic_ansatz(
        type(spec)(
            family="block",
            system_qubits=spec.system_qubits,
            ancillas=spec.ancillas,
            layers=1,
            block_id=spec.block_id,
            restriction=spec.restriction,
        )
    )
    layer_params = probe.layer_slot_count
    us_params = probe.param_count - probe.layer_slot_count
    if layer_params == 0:
        raise ValueError("block contributes no layer parameters")
    structure = "hermitian" if spec.hermitian else "arbitrary"
    n_p = free_parameter_bound(spec.system_qubits, spec.restriction, structure)
    remaining = n_p - us_params
    if remaining <= 0:
        return 0
    return math.ceil(Fraction(remaining, layer_params))


@dataclass(frozen=True)
class LcuEstimate:
    term_count: int
    ancillas: int
    prepare_cnots: int
    select_cnots: int
    model: dict

    @property
    def cnot_count(self) -> int:
        return self.prepare_cnots + self.select_cnots


def lcu_estimate(h: PauliSum, model: GateCostModel = DEFAULT_COST_MODEL) -> LcuEstimate:
    """Gate estimate for a linear-combination-of-unitaries encoding of ``h``.

    The state preparation on m = ceil(log2(terms)) ancillas costs up to
    2^m - 2 CNOTs for real amplitudes and is counted twice (prepare +
    unprepare).  Each select term pays for one m-controlled single-target
    gate plus the basis-change CNOT ladder of its string.
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
    select = 0
    for p, _ in h.items():
        w = p.weight
        select += model.mc1q(m) + 2 * max(w - 1, 0)
    return LcuEstimate(
        term_count=term_count,
        ancillas=m,
        prepare_cnots=prepare,
        select_cnots=select,
        model={
            "prepare": "2*(2^m - 2), counted twice (prepare + unprepare)",
            "select_per_term": "mc1q(m) + 2*(w-1)",
            **model.describe(),
        },
    )

"""Ansatz circuit construction and dense evaluation with analytic gradients.

Supported gate kinds (the ``Gate.kind`` field):

==========  ======================================================  =======
kind        meaning                                                 slots
==========  ======================================================  =======
``grot``    general single-qubit rotation R(theta, phi, lam)        3 (or 2
            [[cos(t/2), -e^{i lam} sin(t/2)],                       with lam
            [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]          fixed 0)
``ry``      R(theta, 0, 0), the real rotation                       1
``rx``      exp(-i theta X / 2)                                     1
``rz``      exp(-i theta Z / 2)                                     1
``h``       Hadamard                                                0
``cnot``    controlled-X, qubits=(control, target)                  0
``cz``      Z on the last listed qubit controlled on the others     0
            (two or more qubits)
``gadget``  exp(theta * G) for an anti-hermitian Pauli-sum          1
            generator G on a contiguous qubit range
==========  ======================================================  =======

Any gate can carry additional ``controls``; a ``gadget`` with one control is
the controlled Pauli gadget used by the GQSP-type ansatz (only the internal
rotations are conditioned, matching the standard gadget circuit).  The
``dagger`` flag conjugate-transposes the gate; it appears in the mirrored
half of hermitian circuits, which reference the same parameter slots twice
by construction.

Qubit 0 is the leftmost (most significant) tensor factor and ancillas come
first, so the encoded block always sits in the top-left corner of the
evaluated unitary.

Evaluation lowers each of the eight kinds to one local op: a 2^k x 2^k
matrix on k adjacent qubits, applied only where all of its control qubits
are |1>.  ``cnot`` is X on the target and ``cz`` is Z on the last qubit,
with the other qubits as controls; ``dagger`` conjugate-transposes the
matrix.  The ops act on the reshaped axes of a ``(2,)*N + (cols,)`` tensor,
so no gate is ever embedded in a 2^N x 2^N matrix.  Circuits are immutable
after construction; a gadget computes its dense generator and
eigendecomposition once, on first evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from vbe import linalg
from vbe.pauli import PauliSum, format_pauli_sum, to_dense

COMPLEX = "complex"
REAL = "real"

_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z2 = np.diag([1.0, -1.0]).astype(np.complex128)

_PARAM_KINDS = {"grot", "ry", "rx", "rz", "gadget"}
_FIXED_KINDS = {"h", "cnot", "cz"}
_SINGLE_QUBIT_KINDS = {"h", "grot", "ry", "rx", "rz"}


# --------------------------------------------------------------------------
# gates and circuits
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    slots: tuple[int, ...] = ()
    generator: PauliSum | None = None
    controls: tuple[int, ...] = ()
    dagger: bool = False

    def __post_init__(self):
        if self.kind not in _PARAM_KINDS and self.kind not in _FIXED_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        touched = self.qubits + self.controls
        if len(set(touched)) != len(touched):
            raise ValueError(f"duplicate qubit index in {self.kind} gate: {touched}")
        k = len(self.qubits)
        if (
            (self.kind in _SINGLE_QUBIT_KINDS and k != 1)
            or (self.kind == "cnot" and k != 2)
            or (self.kind == "cz" and k < 2)
        ):
            raise ValueError(f"{self.kind} gate cannot act on {k} qubits")
        if self.kind in _FIXED_KINDS and self.slots:
            raise ValueError(f"{self.kind} takes no parameters")
        expected = {
            "grot": (2, 3),
            "ry": (1,),
            "rx": (1,),
            "rz": (1,),
            "gadget": (1,),
        }
        if self.kind in expected and len(self.slots) not in expected[self.kind]:
            raise ValueError(
                f"{self.kind} expects {expected[self.kind]} slots, got {len(self.slots)}"
            )
        if self.kind != "gadget" and self.generator is not None:
            raise ValueError(f"{self.kind} gate takes no generator")
        if self.kind == "gadget":
            if self.generator is None:
                raise ValueError("gadget gate needs a generator")
            if not self.generator.is_antihermitian():
                raise ValueError("gadget generator must be anti-hermitian")
            if len(self.qubits) != self.generator.n:
                raise ValueError("gadget qubit count must match its generator")
            if any(b - a != 1 for a, b in zip(self.qubits, self.qubits[1:])):
                raise ValueError("gadget qubits must be a contiguous ascending range")

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense gadget generator G with the eigenpairs (w, V) of iG.

        Computed on first evaluation, so gadgets too wide for a dense matrix
        can still be built and counted.
        """
        gd = to_dense(self.generator)
        w, v = np.linalg.eigh(1j * gd)
        return gd, w, v


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over ``n_qubits`` with a flat parameter vector.

    ``gates[0]`` is applied first, i.e. the evaluated unitary is
    ``G_last @ ... @ G_0``.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    param_count: int
    ancillas: int = 0
    layers: int = 0
    layer_slot_count: int = 0
    family: str = ""
    hermitian_v_span: tuple[int, int] | None = None

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits + g.controls:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} out of range for N={self.n_qubits}")
            for s in g.slots:
                if not 0 <= s < self.param_count:
                    raise ValueError(f"slot {s} out of range (param_count={self.param_count})")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


# --------------------------------------------------------------------------
# single-qubit rotation matrices and derivatives
# --------------------------------------------------------------------------
def single_qubit_R(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def _grot_derivs(theta: float, phi: float, lam: float) -> list[np.ndarray]:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    el, ep, epl = np.exp(1j * lam), np.exp(1j * phi), np.exp(1j * (phi + lam))
    d_theta = 0.5 * np.array([[-s, -el * c], [ep * c, -epl * s]], dtype=np.complex128)
    d_phi = np.array([[0, 0], [1j * ep * s, 1j * epl * c]], dtype=np.complex128)
    d_lam = np.array([[0, -1j * el * s], [0, 1j * epl * c]], dtype=np.complex128)
    return [d_theta, d_phi, d_lam]


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _drx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return 0.5 * np.array([[-s, -1j * c], [-1j * c, -s]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(np.complex128)


def _drz(theta: float) -> np.ndarray:
    return np.diag([-0.5j * np.exp(-0.5j * theta), 0.5j * np.exp(0.5j * theta)]).astype(
        np.complex128
    )


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _dry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return 0.5 * np.array([[-s, -c], [c, -s]], dtype=np.complex128)


_ROTATIONS = {"rx": (_rx, _drx), "ry": (_ry, _dry), "rz": (_rz, _drz)}


def pauli_gadget_unitary(g: PauliSum, theta: float) -> np.ndarray:
    """exp(theta * G) for an anti-hermitian Pauli-sum generator G."""
    if not g.is_antihermitian():
        raise ValueError("gadget generator must have purely imaginary coefficients")
    return linalg.matrix_exp_antihermitian(theta * to_dense(g))


# --------------------------------------------------------------------------
# evaluation: gates lowered to local ops applied on tensor axes
# --------------------------------------------------------------------------
class _Op(NamedTuple):
    """A 2^k x 2^k matrix on qubits first..first+k-1, applied where every
    control qubit is |1>, with one derivative matrix per parameter slot."""

    mat: np.ndarray
    first: int
    controls: tuple[int, ...]
    derivs: tuple[tuple[int, np.ndarray], ...] = ()


def _lower(g: Gate, theta: np.ndarray) -> _Op:
    """The local op of gate ``g`` at ``theta``."""
    ctl = g.controls
    vals = [theta[s] for s in g.slots]
    if g.kind == "h":
        op = _Op(_H2, g.qubits[0], ctl)
    elif g.kind == "cnot":
        op = _Op(_X2, g.qubits[1], ctl + g.qubits[:1])
    elif g.kind == "cz":
        op = _Op(_Z2, g.qubits[-1], ctl + g.qubits[:-1])
    elif g.kind == "grot":
        lam = vals[2] if len(vals) == 3 else 0.0
        derivs = zip(g.slots, _grot_derivs(vals[0], vals[1], lam))
        op = _Op(single_qubit_R(vals[0], vals[1], lam), g.qubits[0], ctl, tuple(derivs))
    elif g.kind in ("ry", "rx", "rz"):
        rot, drot = _ROTATIONS[g.kind]
        op = _Op(rot(vals[0]), g.qubits[0], ctl, ((g.slots[0], drot(vals[0])),))
    elif g.kind == "gadget":
        gd, w, v = g._spectrum
        local = (v * np.exp(-1j * vals[0] * w)) @ v.conj().T
        op = _Op(local, g.qubits[0], ctl, ((g.slots[0], gd @ local),))
    else:  # pragma: no cover - guarded by Gate validation
        raise ValueError(g.kind)
    if g.dagger:
        op = op._replace(mat=op.mat.conj().T, derivs=tuple((s, d.conj().T) for s, d in op.derivs))
    return op


def _apply(m: np.ndarray, first: int, controls: tuple[int, ...], src: np.ndarray, out: np.ndarray):
    """Write ``m`` times the target axes of ``src`` into ``out``.

    ``src`` and ``out`` have shape ``(2,)*N + (cols,)``.  Only the subspace
    where every control qubit is |1> is written; ``out`` may be ``src``.
    """
    sel = tuple(1 if q in controls else slice(None) for q in range(src.ndim - 1))
    sub = src[sel]
    lead = 1 << (first - sum(q < first for q in controls))
    out[sel] = (m @ sub.reshape(lead, m.shape[0], -1)).reshape(sub.shape)


def _check_theta(c: Circuit, theta) -> np.ndarray:
    th = np.asarray(theta, dtype=np.float64).ravel()
    if th.size != c.param_count:
        raise ValueError(f"expected {c.param_count} parameters, got {th.size}")
    return th


def _forward(c: Circuit, ops: list[_Op]) -> np.ndarray:
    """All ops applied to the identity, as a ``(2,)*N + (dim,)`` tensor."""
    psi = np.eye(c.dim, dtype=np.complex128).reshape((2,) * c.n_qubits + (c.dim,))
    for op in ops:
        _apply(op.mat, op.first, op.controls, psi, psi)
    return psi


def evaluate(c: Circuit, theta) -> np.ndarray:
    """Dense unitary of the circuit at the given parameter vector."""
    th = _check_theta(c, theta)
    ops = [_lower(g, th) for g in c.gates]
    return _forward(c, ops).reshape(c.dim, c.dim)


def evaluate_with_gradients(c: Circuit, theta) -> tuple[np.ndarray, np.ndarray]:
    """Unitary and all parameter derivatives dU/d(theta_k).

    Every gate is lowered to a local op, so U = O_L ... O_1.  A forward sweep
    applies them to the identity.  The backward sweep then walks the ops in
    reverse, holding the prefix P = O_{j-1} ... O_1 and the adjoint of the
    suffix S = O_L ... O_{j+1} side by side in one tensor.  Both are updated
    by applying O_j^dagger: on the prefix this un-computes O_j (every op is
    unitary), on the suffix adjoint it grows the suffix by one op.  The
    derivative for a slot of O_j is S dO_j P.  The cost is linear in the
    number of ops and the extra memory is one state of twice the width.
    Slots referenced by several gates (the hermitian mirror construction)
    accumulate every contribution.

    Returns ``(U, dU)`` with ``dU`` of shape (param_count, dim, dim).
    """
    th = _check_theta(c, theta)
    ops = [_lower(g, th) for g in c.gates]
    dim = c.dim
    u = _forward(c, ops)
    # columns [:dim] hold the prefix, [dim:] the adjoint of the suffix
    state = np.concatenate([u, np.eye(dim, dtype=np.complex128).reshape(u.shape)], axis=-1)
    prefix = state[..., :dim]
    d_prefix = np.empty_like(u)
    grads = np.zeros((c.param_count, dim, dim), dtype=np.complex128)
    for op in reversed(ops):
        if op.derivs:
            suffix = state[..., dim:].reshape(dim, dim).conj().T
        _apply(op.mat.conj().T, op.first, op.controls, state, state)
        for slot, d in op.derivs:
            d_prefix.fill(0.0)
            _apply(d, op.first, op.controls, prefix, d_prefix)
            grads[slot] += suffix @ d_prefix.reshape(dim, dim)
    return u.reshape(dim, dim), grads


# --------------------------------------------------------------------------
# generic ansatz catalog
# --------------------------------------------------------------------------
class _Builder:
    def __init__(self, restriction: str):
        if restriction not in (COMPLEX, REAL):
            raise ValueError(f"unknown restriction {restriction!r}")
        self.real = restriction == REAL
        self.gates: list[Gate] = []
        self.next_slot = 0

    def take(self, k: int) -> tuple[int, ...]:
        s = tuple(range(self.next_slot, self.next_slot + k))
        self.next_slot += k
        return s

    def grot(self, q: int) -> None:
        if self.real:
            self.gates.append(Gate("ry", (q,), self.take(1)))
        else:
            self.gates.append(Gate("grot", (q,), self.take(3)))

    def rot2(self, q: int, kinds=("rx", "ry")) -> None:
        # restricted pair used inside the 2-qubit primitives
        for kind in kinds:
            if self.real and kind in ("rx", "rz"):
                continue
            self.gates.append(Gate(kind, (q,), self.take(1)))

    def rcn(self, a: int, b: int) -> None:
        self.rot2(a, ("ry", "rx"))
        self.rot2(b, ("ry", "rz"))
        self.gates.append(Gate("cnot", (a, b)))

    def rcnr(self, a: int, b: int) -> None:
        self.rot2(a, ("rz", "ry"))
        self.rot2(b, ("rx", "ry"))
        self.gates.append(Gate("cnot", (a, b)))

    def rcz(self, a: int, b: int) -> None:
        self.rot2(a, ("rx", "ry"))
        self.rot2(b, ("rx", "ry"))
        self.gates.append(Gate("cz", (a, b)))

    def cr(self, a: int, b: int) -> None:
        # R on the control, then the same R on the target controlled by it
        kind, k = ("ry", 1) if self.real else ("grot", 3)
        self.gates.append(Gate(kind, (a,), self.take(k)))
        self.gates.append(Gate(kind, (b,), self.take(k), controls=(a,)))

    def rncz(self, qs: tuple[int, ...]) -> None:
        for q in qs:
            self.rot2(q, ("rx", "ry"))
        self.gates.append(Gate("cz", qs))


@dataclass(frozen=True)
class BlockInfo:
    block_id: int
    description: str
    optimal_a: bool
    min_qubits: int = 2


BLOCK_CATALOG: dict[int, BlockInfo] = {
    0: BlockInfo(0, "single-qubit rotations only, no entanglement", False),
    1: BlockInfo(1, "rotations + linear CNOT chain", False),
    2: BlockInfo(2, "linear RCN chain", True),
    3: BlockInfo(3, "linear RCN, parallel (optimal depth)", True),
    4: BlockInfo(4, "Rx/Ry rotations + linear CZ chain", False),
    5: BlockInfo(5, "linear RCZ chain", True),
    6: BlockInfo(6, "circular CR blocks", False),
    7: BlockInfo(7, "rotations + circular CNOT ring", False),
    8: BlockInfo(8, "circular RCN ring", True),
    9: BlockInfo(9, "star RCNr, control on first qubit", True),
    10: BlockInfo(10, "star RCNr, target on first qubit", True),
    11: BlockInfo(11, "all-to-all RCN", True),
    12: BlockInfo(12, "linear RCCZ", True, min_qubits=3),
    13: BlockInfo(13, "rotations + full n-controlled Z", True),
    14: BlockInfo(14, "star RCNr centred on a system qubit", True),
    15: BlockInfo(15, "circular RCN, parallel (optimal depth)", True),
}


def _emit_block_layer(b: _Builder, block_id: int, n_qubits: int) -> None:
    N = n_qubits
    down = range(N - 2, -1, -1)
    if block_id == 0:
        for q in range(N):
            b.grot(q)
    elif block_id == 1:
        for q in range(N):
            b.grot(q)
        for i in down:
            b.gates.append(Gate("cnot", (i, i + 1)))
    elif block_id == 2:
        for i in down:
            b.rcn(i, i + 1)
    elif block_id == 3:
        for i in range(0, N - 1, 2):
            b.rcn(i, i + 1)
        for i in range(1, N - 1, 2):
            b.rcn(i, i + 1)
    elif block_id == 4:
        for q in range(N):
            b.rot2(q, ("rx", "ry"))
        for i in down:
            b.gates.append(Gate("cz", (i, i + 1)))
    elif block_id == 5:
        for i in down:
            b.rcz(i, i + 1)
    elif block_id == 6:
        for i in down:
            b.cr(i, i + 1)
        b.cr(0, N - 1)
    elif block_id == 7:
        for q in range(N):
            b.grot(q)
        for i in range(N - 1):
            b.gates.append(Gate("cnot", (i, i + 1)))
        b.gates.append(Gate("cnot", (N - 1, 0)))
    elif block_id == 8:
        for i in range(N - 1):
            b.rcn(i, i + 1)
        b.rcn(0, N - 1)
    elif block_id == 9:
        for k in range(1, N):
            b.rcnr(0, k)
    elif block_id == 10:
        for k in range(1, N):
            b.rcnr(k, 0)
    elif block_id == 11:
        for i in range(N - 1):
            for j in range(i + 1, N):
                b.rcn(i, j)
    elif block_id == 12:
        for i in range(N - 2):
            b.rncz((i, i + 1, i + 2))
    elif block_id == 13:
        b.rncz(tuple(range(N)))
    elif block_id == 14:
        b.rcnr(1, 0)
        for k in range(2, N):
            b.rcnr(1, k)
    elif block_id == 15:
        for i in range(0, N - 1, 2):
            b.rcn(i, i + 1)
        for i in range(1, N - 1, 2):
            b.rcn(i, i + 1)
        b.rcn(0, N - 1)
    else:
        raise ValueError(f"unknown generic block id {block_id}")


# --------------------------------------------------------------------------
# ansatz specification and builders
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class AnsatzSpec:
    """Declarative description of an ansatz family.

    ``family`` is "block" (generic layered circuit, ``block_id`` 0..15) or
    "gqsp" (single-ancilla symmetric ansatz with an explicit per-layer
    generator sequence).
    """

    family: str
    system_qubits: int
    layers: int
    block_id: int | None = None
    generators: tuple[PauliSum, ...] = ()
    restriction: str = COMPLEX
    hermitian: bool = False
    ancillas: int = 1
    sequence_labels: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.family not in ("block", "gqsp"):
            raise ValueError(f"unknown ansatz family {self.family!r}")
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        if self.family == "block":
            if self.block_id is None or not 0 <= self.block_id <= 15:
                raise ValueError("generic ansatz needs a block id in 0..15")
            if self.ancillas < 1:
                raise ValueError("block-encoding ansatz needs at least one ancilla")
            info = BLOCK_CATALOG[self.block_id]
            if self.system_qubits + self.ancillas < info.min_qubits:
                raise ValueError(
                    f"block {self.block_id} needs at least {info.min_qubits} qubits"
                )
        else:
            if self.ancillas != 1:
                raise ValueError("the GQSP-type ansatz uses exactly one ancilla")
            if len(self.generators) != self.layers:
                raise ValueError("need one generator per layer")
            for g in self.generators:
                if g.n != self.system_qubits:
                    raise ValueError("generator qubit count must match the system register")
            if self.restriction != COMPLEX:
                raise ValueError("the GQSP-type ansatz has no real restriction")

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + self.ancillas


def build_generic_ansatz(spec: AnsatzSpec) -> Circuit:
    """M copies of the block's layer followed by the appended single-qubit
    layer U_s on all qubits; the real restriction swaps every rotation for Ry."""
    if spec.family != "block":
        raise ValueError("spec does not describe a generic ansatz")
    N = spec.total_qubits
    b = _Builder(spec.restriction)
    for _ in range(spec.layers):
        _emit_block_layer(b, spec.block_id, N)
    layer_slots = b.next_slot
    for q in range(N):
        b.grot(q)
    return Circuit(
        n_qubits=N,
        gates=tuple(b.gates),
        param_count=b.next_slot,
        ancillas=spec.ancillas,
        layers=spec.layers,
        layer_slot_count=layer_slots,
        family=f"block{spec.block_id}/{spec.restriction}",
    )


def build_gqsp_ansatz(generators: tuple[PauliSum, ...] | list[PauliSum], n: int) -> Circuit:
    """Single-ancilla GQSP-type ansatz over the given generator sequence.

    An initial R(theta0, phi0, lam0) on the ancilla, then per layer i a
    Pauli gadget on the system register conditioned on the ancilla followed
    by R(theta_i, phi_i, 0); the z-rotations of the later ancilla rotations
    commute through the controls, so those lambdas are fixed to zero and the
    parameter count is exactly 3M + 3.
    """
    gens = tuple(generators)
    for g in gens:
        if g.n != n:
            raise ValueError("generator qubit count must match the system register")
    b = _Builder(COMPLEX)
    b.gates.append(Gate("grot", (0,), b.take(3)))
    sys_qubits = tuple(range(1, n + 1))
    for g in gens:
        b.gates.append(Gate("gadget", sys_qubits, b.take(1), generator=g, controls=(0,)))
        b.gates.append(Gate("grot", (0,), b.take(2)))
    return Circuit(
        n_qubits=n + 1,
        gates=tuple(b.gates),
        param_count=b.next_slot,
        ancillas=1,
        layers=len(gens),
        layer_slot_count=3 * len(gens),
        family="gqsp",
    )


def build_ansatz(spec: AnsatzSpec) -> Circuit:
    if spec.family == "block":
        c = build_generic_ansatz(spec)
        v = "all_h"
    else:
        c = build_gqsp_ansatz(spec.generators, spec.system_qubits)
        v = "ancilla_h"
    if spec.hermitian:
        c = hermitize(c, v)
    return c


def hermitize(c: Circuit, v: str = "all_h") -> Circuit:
    """Circuit realizing U(theta) V U(theta)^dagger with shared parameters.

    ``v`` selects the fixed hermitian core: "all_h" places a Hadamard on
    every qubit, "ancilla_h" a single Hadamard on qubit 0.
    """
    if v not in ("all_h", "ancilla_h"):
        raise ValueError(f"unknown V choice {v!r}")
    rev = tuple(replace(g, dagger=not g.dagger) for g in reversed(c.gates))
    if v == "all_h":
        v_gates = tuple(Gate("h", (q,)) for q in range(c.n_qubits))
    else:
        v_gates = (Gate("h", (0,)),)
    gates = rev + v_gates + c.gates
    return replace(
        c,
        gates=gates,
        family=c.family + "+herm",
        hermitian_v_span=(len(rev), len(rev) + len(v_gates)),
    )


def controlled(c: Circuit) -> Circuit:
    """Add one control qubit (new qubit 0) to the whole circuit.

    For hermitized circuits only the V core is conditioned, which already
    controls the full U V U^dagger; otherwise every gate gains the control.
    """
    span = c.hermitian_v_span

    def shift(g: Gate, add_control: bool) -> Gate:
        return replace(
            g,
            qubits=tuple(q + 1 for q in g.qubits),
            controls=((0,) if add_control else ()) + tuple(q + 1 for q in g.controls),
        )

    gates = []
    for idx, g in enumerate(c.gates):
        if span is not None:
            gates.append(shift(g, span[0] <= idx < span[1]))
        else:
            gates.append(shift(g, True))
    return replace(
        c,
        n_qubits=c.n_qubits + 1,
        gates=tuple(gates),
        family=c.family + "+ctrl",
        hermitian_v_span=None if span is None else (span[0], span[1]),
    )


# --------------------------------------------------------------------------
# gate counting
# --------------------------------------------------------------------------
def mc1q(m: int) -> int:
    """CNOT-equivalent cost of a single-target gate conditioned on m qubits.

    Table values for m <= 2 (controlled rotation 2, double control 6) and
    the standard ancilla-free decomposition 16(m-1) beyond that.
    """
    if m < 0:
        raise ValueError("negative control count")
    return (0, 2, 6)[m] if m <= 2 else 16 * (m - 1)


def _gadget_string_weights(g: Gate) -> list[int]:
    return [p.weight for p in g.generator.strings()]


def count_nonlocal_gates(c: Circuit) -> int:
    """Entangling cost in CNOT equivalents.

    A ``cnot`` or ``cz`` is a single-target gate on its last qubit
    conditioned on the others; with one condition it is native and counts
    1, otherwise ``mc1q``.  Pauli gadgets cost 2(w-1) basis CNOTs per
    weight-w string plus the (possibly controlled) central rotation.
    """
    total = 0
    for g in c.gates:
        extra = len(g.controls)
        if g.kind == "gadget":
            for w in _gadget_string_weights(g):
                total += 2 * (w - 1) + mc1q(extra)
        elif g.kind in ("cnot", "cz"):
            m = len(g.qubits) - 1 + extra
            total += 1 if m == 1 else mc1q(m)
        else:  # single-qubit kinds
            total += mc1q(extra)
    return total


def count_multiqubit_gates(c: Circuit) -> int:
    """Raw number of multi-qubit gate instances (no decomposition applied)."""
    total = 0
    for g in c.gates:
        extra = len(g.controls)
        if g.kind == "gadget":
            total += sum(1 for w in _gadget_string_weights(g) if w + extra >= 2)
        elif g.kind in ("cnot", "cz"):
            total += 1
        else:  # single-qubit kinds
            total += 1 if extra else 0
    return total


# --------------------------------------------------------------------------
# textual dump (golden-file support)
# --------------------------------------------------------------------------
def dump_text(c: Circuit) -> str:
    """One gate per line: kind, qubits, slots, controls, dagger, generator."""
    header = (
        f"qubits={c.n_qubits} params={c.param_count} ancillas={c.ancillas} "
        f"layers={c.layers} family={c.family}"
    )
    lines = [header]
    for g in c.gates:
        parts = [
            g.kind,
            "q=" + ",".join(map(str, g.qubits)),
            "s=" + ",".join(map(str, g.slots)),
        ]
        if g.controls:
            parts.append("c=" + ",".join(map(str, g.controls)))
        if g.dagger:
            parts.append("dag")
        if g.generator is not None:
            parts.append("g=" + format_pauli_sum(g.generator).replace("\n", ";"))
        lines.append(" ".join(parts))
    return "\n".join(lines)

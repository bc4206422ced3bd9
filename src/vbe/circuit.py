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
rotations are conditioned, matching the standard gadget circuit).

Qubit 0 is the leftmost (most significant) tensor factor and ancillas come
first, so the encoded block always sits in the top-left corner of the
evaluated unitary.

Evaluation follows one plan per circuit.  Consecutive non-gadget gates
whose qubits and controls together lie on at most two adjacent qubits form
a window run, lowered to one 2 x 2 or 4 x 4 op; a gate with a control inside
the window embeds as P0 x I + P1 x m.  ``cnot`` is X on its target and
``cz`` Z on its last qubit, with the other qubits as controls.  A gadget, a
``cz`` on three or more qubits and a gate with a control or target outside
a window are one op each, applied only where their outer controls are |1>.
So block 2's RCN primitive is one op.  A window ``grot`` is three factors,
diag(1, e^{i phi}) Ry(theta) diag(1, e^{i lam}), so every window slot is
one factor exp(x K) with a constant generator K, conjugated by the
factor's fold prefix.  As exp(x K) = (I - Pi) + cos(s x) Pi + sin(s x) K / s
for a projector Pi, such a factor in its window is B0 + cos(s x) B1 +
sin(s x) B2 with three constant matrices per (kind, window qubit,
control), tabled at import with the fixed factors.  Per theta, every
factor comes from one expression and one index assignment, the folds and
conjugations from a few batched products, and the gadget exponentials from
a few per generator.  The window algebra is real: a complex 4 x 4 matrix
A + iB is the 8 x 8 block [[A, -B], [B, A]], products map to products and
the block's transpose is the adjoint's block, so the factors, the fold and
the conjugations are float64 8 x 8 blocks, which NumPy multiplies faster
than complex 4 x 4 ones at these sizes.  Only the window ops and the
conjugated generators leave the plan as complex matrices, read off each
block's first block column.  The ops act on the reshaped axes of a
``(T, b) + (2,)*N + (cols,)`` tensor, so no gate is ever embedded in a
2^N x 2^N matrix.  ``evaluate`` applies them to the
identity.

Every evaluation carries a leading theta axis T: a (T, param_count) theta
is lowered, swept forward and pulled back through the same calls as one
vector, which is the batch of one.  Each NumPy call then does T times the
work for about the cost of one, which is what an evaluation of these small
circuits is made of.  Every product keeps, per theta row, the shape and
the BLAS route it has for a single theta, so row t of a batch equals the
evaluation of theta row t alone bit for bit; a gadget's environment is
contracted with its generator row by row for that reason.  The cotangent
stack below is an axis of its own, inside the theta axis.
``evaluate_with_gradients`` also returns a pullback: for a cotangent w of
shape (r, s) it gives the gradient of Re <w, U[:r, :s]>_F from one backward
sweep over the same ops (the adjoint method of Jones & Gacon,
arXiv:2009.02823), with O(d s 2^k) work per op and O(d s) extra memory.
For a (B, r, s) stack of cotangents the same sweep carries one prefix row
and B adjoint rows, so it gives B gradients for the cost of B + 1 rows, not
2B; a single cotangent is the stack of one.  The sweep holds the complex
conjugate of its state, which each op's adjoint moves as the op's
transpose moves the conjugate, so it applies the transposes of the ops
the forward sweep applied, as views: no adjoint is ever stored.  The
block Jacobian, one row per unit cotangent, so costs a few sweeps.  The
window ops' 2^k x 2^k environments are kept in one array, and the
gradients are one contraction of them with the slots' generators and one
``bincount`` over the slots per cotangent.  No (param_count, d, d) derivative tensor is ever formed.

A circuit with a ``core`` (as ``hermitize`` builds it) is U V U^dagger with
shared parameters: ``gates`` are U and ``core`` the parameter-free V.  Only
U is lowered and swept; V is one dense matrix per circuit, and the unitary
is (U V) U^dagger.  Its pullback is one sweep over U's ops with the d x d
cotangent G = W U V^dagger + W^dagger U V, which holds the share of both of
U's appearances in every slot.  Gate counts charge U twice and V once.

Circuits are immutable after construction; a circuit builds its plan, with
the eigendecomposition of each distinct gadget generator, and its dense
core V once, on first evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from vbe.pauli import PauliSum, check_dense_qubits, to_dense

COMPLEX = "complex"
REAL = "real"

_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z2 = np.diag([1.0, -1.0]).astype(np.complex128)

# slot counts of the parameterized kinds
_SLOT_COUNTS = {"grot": (2, 3), "ry": (1,), "rx": (1,), "rz": (1,), "gadget": (1,)}
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

    def __post_init__(self):
        if self.kind not in _SLOT_COUNTS and self.kind not in _FIXED:
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
        expected = _SLOT_COUNTS.get(self.kind, (0,))
        if len(self.slots) not in expected:
            raise ValueError(f"{self.kind} expects {expected} slots, got {len(self.slots)}")
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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over ``n_qubits`` with a flat parameter vector.

    ``gates[0]`` is applied first, i.e. the evaluated unitary is
    ``G_last @ ... @ G_0``.  With a ``core`` V (parameter-free gates) the
    unitary is U V U^dagger for U the product of ``gates``.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    param_count: int
    layer_slot_count: int = 0
    core: tuple[Gate, ...] | None = None

    def __post_init__(self):
        for g in self.gates + (self.core or ()):
            for q in g.qubits + g.controls:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} out of range for N={self.n_qubits}")
            for s in g.slots:
                if not 0 <= s < self.param_count:
                    raise ValueError(f"slot {s} out of range (param_count={self.param_count})")
        if any(g.slots for g in self.core or ()):
            raise ValueError("the core must take no parameters")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def _plan(self) -> _Plan:
        """The ops of the circuit and the index arrays that lower them at any theta.

        Built on first evaluation, so circuits too wide for a dense matrix
        can still be built and counted.
        """
        return _Plan(self)

    @cached_property
    def _dense_core(self) -> np.ndarray:
        """The dense matrix of ``core``."""
        return evaluate(Circuit(self.n_qubits, self.core, 0), ())


# --------------------------------------------------------------------------
# evaluation: one plan per circuit, lowered to local ops at each theta
# --------------------------------------------------------------------------
# Every parametrized window factor is exp(x K) for a constant generator K
# with K^2 = -s^2 Pi, Pi a projector, so it is (I - Pi) + cos(s x) Pi +
# sin(s x) K / s.  A rotation exp(-i theta P / 2) has K = -iP/2 and s = 1/2;
# the phase diag(1, e^{i x}) has K = diag(0, i) and s = 1.
_GENERATORS = {
    "rx": (-0.5j * _X2, 0.5),
    "ry": (-0.5j * _Y2, 0.5),
    "rz": (-0.5j * _Z2, 0.5),
    "phase": (np.diag([0.0, 1.0j]), 1.0),
}
_FIXED = {"h": _H2, "cnot": _X2, "cz": _Z2}
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _embed(m: np.ndarray, t: int, ctl: bool) -> np.ndarray:
    """The 4 x 4 window matrix of a 2 x 2 m on window qubit ``t`` (0 or 1).

    With ``ctl`` the other window qubit controls m (P0 x I + P1 x m);
    otherwise m acts whatever that qubit holds, which in a one-qubit window
    is a phantom.
    """

    def kron(a, b):  # a on qubit t, b on the other
        return np.kron(a, b) if t == 0 else np.kron(b, a)

    return kron(np.eye(2), _P0) + kron(m, _P1) if ctl else kron(m, np.eye(2))


def _real_block(m: np.ndarray) -> np.ndarray:
    """The real matrices [[Re m, -Im m], [Im m, Re m]] of a stack of complex m.

    The map is a ring homomorphism, and the transpose of a block is the
    block of the adjoint.
    """
    k = m.shape[-1]
    b = np.empty(m.shape[:-2] + (2 * k, 2 * k))
    b[..., :k, :k] = b[..., k:, k:] = m.real
    b[..., k:, :k] = m.imag
    b[..., :k, k:] = -m.imag
    return b


def _complex(b: np.ndarray) -> np.ndarray:
    """The complex matrices B[:k, :k] + i B[k:, :k] of a stack of first block
    columns B (2k x k) of real blocks."""
    k = b.shape[-1]
    m = np.empty(b.shape[:-2] + (k, k), dtype=np.complex128)
    m.real, m.imag = b[..., :k, :k], b[..., k:, :k]
    return m


class _Slot(NamedTuple):
    """The constants of a parametrized window factor exp(x K), as real 8 x 8 blocks."""

    scale: float  # s, with x = s theta
    terms: np.ndarray  # (B0, B1, B2), the factor B0 + cos(s x) B1 + sin(s x) B2
    generator: np.ndarray  # K in the window


def _window_slot(kind: str, t: int, ctl: bool) -> _Slot:
    """The :class:`_Slot` of a factor of ``kind`` on window qubit ``t`` (with
    ``ctl`` as in :func:`_embed`): Pi and K / s embedded without the
    control's P0 x I, which B0 holds with I - Pi."""
    k, s = _GENERATORS[kind]
    a2 = k / s
    a1 = -a2 @ a2
    idle = _embed(np.zeros((2, 2)), t, ctl)  # P0 x I under a control, else zero
    terms = [_embed(np.eye(2) - a1, t, ctl), _embed(a1, t, ctl) - idle, _embed(a2, t, ctl) - idle]
    return _Slot(s, _real_block(np.stack(terms)), _real_block(_embed(k, t, ctl) - idle))


_WINDOWS = [(t, ctl) for t in (0, 1) for ctl in (False, True)]
_WINDOW_SLOTS = {(kind, *w): _window_slot(kind, *w) for kind in _GENERATORS for w in _WINDOWS}
_WINDOW_FIXED = {(k, *w): _real_block(_embed(m, *w)) for k, m in _FIXED.items() for w in _WINDOWS}


class _Plan:
    """The ops of a circuit, in gate order, and the index arrays that lower them.

    A window op is a run of consecutive non-gadget gates whose qubits and
    controls lie on at most two adjacent qubits, its window; a gate with a
    control or target outside any window is a one-gate window op on its
    target with the other qubits as outer controls.  A gadget is one op.
    A window run is a product of factors, 4 x 4 matrices (a one-qubit window
    holds a phantom second qubit, dropped from its 2 x 2 op): one per fixed
    or one-slot gate and three per ``grot``, first applied first.  Each slot
    belongs to one factor exp(x K) with a constant generator K.
    :meth:`lower` builds every such factor whole, B0 + cos(s x) B1 +
    sin(s x) B2 with the constant ``terms`` of its (kind, window qubit,
    control), places them among the fixed factors of ``base`` with one
    index assignment (``entry_factor``), folds the runs by prefix products
    and conjugates each K by its factor's prefix P.

    The factors, their terms and the generators ``kbase`` are stored as
    real 8 x 8 blocks [[Re, -Im], [Im, Re]] of the 4 x 4 window matrices.
    So the fold is a product of real blocks and the conjugation P^T K P,
    because the block transpose is the adjoint.  The window arithmetic is
    complex only at the boundary: an op matrix or a conjugated generator
    is B[:4, :4] + i B[4:, :4] of its block B.
    """

    def __init__(self, c: Circuit):
        # the dense unitary is 2^N x 2^N, for a system register and its ancilla
        check_dense_qubits(c.n_qubits - 1, "dense evaluation of a circuit's system register")
        # per run: gate indices, first and last qubit, and outer controls (None
        # for a window run, which later gates may still join)
        runs: list[list] = []
        for i, g in enumerate(c.gates):
            touched = g.qubits + g.controls
            lo, hi = min(touched), max(touched)
            last = runs[-1] if runs else None
            if g.kind == "gadget":
                runs.append([[i], g.qubits[0], g.qubits[-1], g.controls])
            elif hi - lo > 1:
                q = g.qubits[-1]
                runs.append([[i], q, q, tuple(x for x in touched if x != q)])
            elif last and last[3] is None and max(hi, last[2]) - min(lo, last[1]) <= 1:
                last[0].append(i)
                last[1:3] = min(lo, last[1]), max(hi, last[2])
            else:
                runs.append([[i], lo, hi, None])
        self.runs = tuple(tuple(r[0]) for r in runs)

        # window runs as factor lists, longest first, so that fold step j
        # multiplies a prefix of them
        windows = []
        for run in (r for r in runs if c.gates[r[0][0]].kind != "gadget"):
            idx, lo, _, outer = run
            factors = []
            for g in (c.gates[i] for i in idx):
                t, ctl = g.qubits[-1] - lo, outer is None and len(g.qubits + g.controls) == 2
                if g.kind == "grot":  # diag(1, e^{i phi}) Ry(theta) diag(1, e^{i lam})
                    theta, phi, *lam = g.slots  # a two-slot grot has lam fixed to 0
                    kinds = [("phase", x) for x in lam] + [("ry", theta), ("phase", phi)]
                else:
                    kinds = [(g.kind, g.slots[0] if g.slots else None)]
                factors += [(kind, slot, t, ctl) for kind, slot in kinds]
            windows.append((run, factors))
        windows.sort(key=lambda w: -len(w[1]))
        lengths = [len(f) for _, f in windows]
        self.active = [sum(n > j for n in lengths) for j in range(max(lengths, default=1))]
        self.last = (np.array(lengths, dtype=int) - 1, np.arange(len(windows)))
        self.base = np.zeros((len(self.active), len(windows), 8, 8))

        # one entry per parametrized factor, unconjugated first factors first
        entries = []
        for r, (_, factors) in enumerate(windows):
            for j, (kind, slot, t, ctl) in enumerate(factors):
                if slot is None:
                    self.base[j, r] = _WINDOW_FIXED[kind, t, ctl]
                else:
                    entries.append((j, r, slot, _WINDOW_SLOTS[kind, t, ctl]))
        entries.sort(key=lambda e: e[0] > 0)
        self.n_first = sum(e[0] == 0 for e in entries)
        slots = [e[2] for e in entries]
        consts = [e[3] for e in entries]
        self.angle_scale = np.array([c.scale for c in consts])
        self.terms = tuple(
            np.array([c.terms[i] for c in consts]).reshape(-1, 1, 8, 8) for i in range(3)
        )
        self.kbase = np.array([c.generator for c in consts]).reshape(-1, 8, 8)
        # each entry's factor in the raveled (fold steps x windows) base
        self.entry_factor = np.array([j * len(windows) + r for j, r, *_ in entries], dtype=int)
        self._slots: dict[int, np.ndarray] = {}
        self.n_params = c.param_count
        self.identity = np.eye(c.dim, dtype=np.complex128)[None]
        later = [(j - 1, r) for j, r, *_ in entries[self.n_first :]]
        self.conj_at = tuple(np.array(later, dtype=int).reshape(-1, 2).T)
        self.entry_run = np.array([e[1] for e in entries], dtype=int)

        # gadgets: the eigenpairs of iG once per generator, their ops batched
        groups: dict[PauliSum, list[int]] = {}
        window_of = {id(run): k for k, (run, _) in enumerate(windows)}
        self.ops = []
        probe = np.empty((2, 2) + (2,) * c.n_qubits + (2,), dtype=np.int8)
        for run in runs:
            idx, lo, hi, outer = run
            g = c.gates[idx[0]]
            if g.kind == "gadget":
                members = groups.setdefault(g.generator, [])
                where = (2 + list(groups).index(g.generator), len(members))
                members.append(g.slots[0])
            else:
                where = (int(hi == lo), window_of[id(run)])
            ctl = outer or ()
            sel = (slice(None),) * 2 + tuple(
                1 if q in ctl else slice(None) for q in range(c.n_qubits)
            )
            # the op's view of the state: lead x 2^k target x rest, per state
            # row; ``copied`` when the controlled subspace takes that shape
            # only as a copy, so the product goes back through ``sel``
            view = (1 << (lo - sum(q < lo for q in ctl)), 1 << (hi - lo + 1), -1)
            sub = probe[sel].reshape((2, 2) + view)
            copied = not np.may_share_memory(sub, probe)
            has_slots = any(c.gates[i].slots for i in idx)
            self.ops.append((where, sel if ctl else None, view, copied, has_slots))
        self.where = [op[0] for op in self.ops]
        self.gadgets = []
        for gen, members in groups.items():
            gd = to_dense(gen)
            w, v = np.linalg.eigh(1j * gd)
            # the group's entries start at len(slots)
            self.gadgets.append((w, v, v.conj().T, gd.ravel(), len(members), len(slots)))
            slots += members
        self.entry_slots = np.array(slots, dtype=int)

    def slot_index(self, t: int) -> np.ndarray:
        """Into a raveled (t, param_count) array, each entry's slot in every
        row, entries first: the gather of theta and the gradient's bins."""
        if t not in self._slots:
            self._slots[t] = (self.entry_slots[:, None] + self.n_params * np.arange(t)).ravel()
        return self._slots[t]

    def lower(self, theta: np.ndarray) -> tuple[list, np.ndarray]:
        """Each op's matrix at every row of ``theta`` (T, P), as a
        (T, 1, 1, 2^k, 2^k) array, and the window entries' generators
        P^dagger K P as an (entries, T, 4, 4) array.

        The window factors, their fold and the conjugations are real 8 x 8
        blocks, whose transpose is the adjoint; only the first block
        column of each product taken out is needed, so P^T K P is formed as
        P^T (K P[:, :4]).  Every array is laid out factor or op first and
        theta row second, so the fold, the conjugation and each op index it
        as for one row.  No adjoint is formed: the backward sweep applies
        each op's transpose to the conjugate of its state.
        """
        t = theta.shape[0]
        values = theta.ravel()[self.slot_index(t)].reshape(-1, t)
        x = (self.angle_scale[:, None] * values[: len(self.angle_scale)])[..., None, None]
        b0, b1, b2 = self.terms
        factors = np.cos(x) * b1
        factors += b0
        factors += np.sin(x) * b2
        emb = self.base[:, :, None].repeat(t, 2)
        emb.reshape(-1, t, 8, 8)[self.entry_factor] = factors
        # freed before the conjugation, which would otherwise raise the
        # call's peak past the point where the heap is given back and
        # faulted in again on every call (at T = 3 for block 2 n=3 M=11)
        del factors
        for j, n in enumerate(self.active[1:], 1):
            np.matmul(emb[j, :n], emb[j - 1, :n], out=emb[j, :n])
        kw = self.kbase[:, None, :, :4].repeat(t, 1)
        p = emb[self.conj_at]
        kw[self.n_first :] = p.mT @ (self.kbase[self.n_first :, None] @ p[..., :4])
        ops = _complex(emb[self.last][..., :4])[:, :, None, None]
        mats = [ops, ops[..., ::2, ::2]]
        for w, v, vh, _, count, first in self.gadgets:
            phases = np.exp(-1j * np.multiply.outer(values[first : first + count], w))
            mats.append(((v * phases[..., None, :]) @ vh)[:, :, None, None])
        return [mats[a][i] for a, i in self.where], _complex(kw)


def _apply(m: np.ndarray, op: tuple, state: np.ndarray) -> np.ndarray:
    """Multiply ``m`` into the target axes of ``state`` in place.

    ``state`` has shape ``(T, b) + (2,)*N + (cols,)``, one block of b rows
    per theta row, and ``m`` shape (T, 1, 1, 2^k, 2^k).  Only the subspace
    ``sel`` of the plan's ``op``, where every outer control qubit is |1>, is
    written (all of it for ``sel`` None): through its reshaped view, or
    back through ``sel`` where the reshape is a copy.  Returns that
    subspace after the product as a ``(T, b, lead, 2^k, rest)`` array.
    """
    _, sel, view, copied, _ = op
    sub = state if sel is None else state[sel]
    target = sub.reshape(state.shape[:2] + view)
    out = m @ target
    if copied:
        state[sel] = out.reshape(sub.shape)
    else:
        target[...] = out
    return out


def _forward(c: Circuit, mats: list[np.ndarray], t: int) -> np.ndarray:
    """All ops applied to T copies of the identity, as a (T, dim, dim) array."""
    psi = c._plan.identity.repeat(t, 0).reshape((t, 1) + (2,) * c.n_qubits + (c.dim,))
    for m, op in zip(mats, c._plan.ops):
        _apply(m, op, psi)
    return psi.reshape(t, c.dim, c.dim)


def evaluate(c: Circuit, theta) -> np.ndarray:
    """Dense unitary of the circuit at the given parameter vector, or the
    (T, dim, dim) stack of them at the rows of a (T, param_count) array."""
    return evaluate_with_gradients(c, theta)[0]


def _pullback_sweep(
    plan: _Plan, mats: list, kw: np.ndarray, u: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Gradients of Re <w_tb, U_t[:r, :s]>_F over the slots of the plan's ops.

    ``u`` is the (T, d, d) stack of products of the ops ``mats`` (U_t =
    O_L ... O_1 at theta row t) and ``w`` a (T, B, r, s) stack of
    cotangents, B per theta row; the result is a (T, B, param_count)
    array.  One backward sweep carries a (T, 1 + B, d, s) state: per row
    the prefix U[:, :s], un-computed by each O_j^dagger (every op is
    unitary) into P_j = O_{j-1} ... O_1 [:, :s], and B adjoint rows
    lambda_b, each ``w_b`` embedded in rows :r and moved back by the same
    O_j^dagger, so the prefix is shared by the whole stack.  The state is
    held as its complex conjugate, which O_j^dagger moves as O_j^T moves
    the conjugate, so the sweep applies ``m.mT``, a view of the op the
    forward sweep applied, and no adjoint is stored.  conj(A^dagger x) =
    A^T conj(x) holds term by term in floating point and both operands
    keep their memory layout, so this is the sweep with adjoints bit for
    bit.  After O_j is undone, its 2^k x 2^k environments
    E_b = sum conj(lambda_b) P^T over the op's controlled subspace come
    from one product of the B adjoint rows, stacked, with the conjugated
    prefix; a slot of O_j with generator K = O_j^dagger dO_j adds
    Re sum(K * E_b).  Window environments go into
    one array, contracted with every window slot's K at the end; a
    gadget's, as large as its generator, is contracted at once, so only
    its sums are kept.  One ``bincount`` then adds the sums up by slot,
    over slots used more than once too.  The work per op is
    O((1 + B) d s 2^k) per theta row and the extra memory
    O(T (1 + B) d s).  Every product keeps the shape it has for one row, so
    row t equals the sweep of theta row t alone bit for bit.  For a circuit
    with a core ``mats`` are U's and ``w`` holds the cotangents G of
    :func:`evaluate_with_gradients`, which have d columns, so the state is
    (T, 1 + B, d, d).
    """
    t, b, r, s = w.shape
    d = u.shape[1]
    state = np.zeros((t, 1 + b, d, s), dtype=np.complex128)
    np.conjugate(u[:, :, :s], out=state[:, 0])
    np.conjugate(w, out=state[:, 1:, :r])
    state = state.reshape((t, 1 + b) + (2,) * (d.bit_length() - 1) + (s,))
    # each window's B environments stacked as one (B * 4) x 4 matrix; a
    # one-qubit window's 2 x 2 ones are every other row and column of it
    n_runs = plan.base.shape[1]
    env = np.zeros((n_runs, t, b * 4, 4), dtype=np.complex128)
    envs = [env, env[..., ::2, ::2]]
    sums = np.empty((len(plan.entry_slots), t, b), dtype=np.complex128)
    for m, op in zip(reversed(mats), reversed(plan.ops)):
        (a, i), _, view, _, has_slots = op
        out = _apply(m.mT, op, state)
        if has_slots:
            # per theta row, the prefix as a 2^k x (lead * rest) matrix and
            # the adjoint rows as B of them stacked below it, target index
            # first, in one copy; ``np.conjugate`` skips the method's slower
            # dispatch
            rows = out.transpose(0, 1, 3, 2, 4).reshape(t, (1 + b) * view[1], -1)
            lam, prefix = rows[:, view[1] :], np.conjugate(rows[:, : view[1]]).mT
            if a < 2:
                np.matmul(lam, prefix, out=envs[a][i])
            else:
                # a (B, 4^k) @ (4^k,) product per row: one (T * B, 4^k)
                # product would sum in another order once T > 1
                _, _, _, gd, _, first = plan.gadgets[a - 2]
                sums[first + i] = (lam @ prefix).reshape(t, b, -1) @ gd
    stacked = env.reshape(n_runs, t, b, 4, 4)[plan.entry_run]
    sums[: len(plan.entry_run)] = (kw[:, :, None] * stacked).sum((3, 4))
    # the sums as rows of a (T * B, param_count) gradient: bin (row, slot) of
    # one bincount gets its terms in entry order, as a bincount per row would
    bins = plan.slot_index(t * b)
    grads = np.bincount(bins, sums.real.ravel(), minlength=t * b * plan.n_params)
    return grads.reshape(t, b, plan.n_params)


def evaluate_with_gradients(c: Circuit, theta) -> tuple[np.ndarray, Callable]:
    """Unitary and the vector-Jacobian product of its parameter derivatives.

    Returns ``(u, pullback)``.  ``u`` is the product U of the plan's ops,
    applied to the identity in one forward sweep, or (U V) U^dagger for a
    circuit with a core.  ``pullback(w)`` takes a cotangent ``w`` of shape
    (r, s) and returns the real vector
    d/d(theta_k) Re <w, u[:r, :s]>_F of length ``param_count``, from one
    backward sweep over the ops (:func:`_pullback_sweep`, after Jones
    & Gacon, arXiv:2009.02823), which applies the transposes of the very
    matrices the forward sweep applied; ``pullback`` keeps those and no
    adjoints.  It also takes a (B, r, s) stack of cotangents and returns a
    (B, param_count) array, one row per cotangent, from one sweep that
    shares the prefix across the stack; a single cotangent is the stack of
    one.  Each call costs O((1 + B) d s 2^k)
    per op and O((1 + B) d s) extra memory; no (param_count, d, d)
    derivative tensor exists.  So the real Jacobian of u[:r, :s], whose
    rows are the pullbacks of the 2 r s unit cotangents E_ij and i E_ij,
    costs a few stacked sweeps.

    A (T, param_count) ``theta`` evaluates T parameter vectors through the
    same calls: ``u`` is (T, d, d), and ``pullback`` takes a leading T axis
    on its cotangent, (T, r, s) or (T, B, r, s), and returns (T,
    param_count) or (T, B, param_count).  A vector theta is the batch of
    one, and row t of a batch equals the evaluation of theta row t alone
    bit for bit.

    For a circuit with a core, d(U V U^dagger) = dU V U^dagger + U V dU^dagger,
    so with w zero-padded to W, Re <W, du> = Re <G, dU> for
    G = W U V^dagger + W^dagger U V: one sweep over U's ops covers both
    uses of every shared slot.  G is zero below row max(r, s).
    """
    theta = np.asarray(theta, dtype=np.float64)
    rows = theta.reshape(1, -1) if theta.ndim < 2 else theta
    if rows.ndim != 2 or rows.shape[1] != c.param_count:
        raise ValueError(f"expected {c.param_count} parameters, got shape {theta.shape}")
    t = rows.shape[0]
    mats, kw = c._plan.lower(rows)
    u = half = _forward(c, mats, t)
    if c.core is not None:
        uv = half @ c._dense_core
        u = uv @ np.conjugate(half).mT

    def pullback(w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        stack = w.reshape((t, -1) + w.shape[-2:])
        _, b, r, s = stack.shape
        if c.core is not None:
            g = np.zeros((t, b, max(r, s), c.dim), dtype=np.complex128)
            g[:, :, :r] = stack @ (half[:, None, :s] @ np.conjugate(c._dense_core).T)
            g[:, :, :s] += np.conjugate(stack).mT @ uv[:, None, :r]
            stack = g
        grads = _pullback_sweep(c._plan, mats, kw, half, stack)
        return grads.reshape(w.shape[:-2] + (c.param_count,))

    return (u[0] if theta.ndim < 2 else u), pullback


# --------------------------------------------------------------------------
# generic ansatz catalog
# --------------------------------------------------------------------------
# A primitive is (rotations on its first qubit, rotations on each later
# qubit, entangler on all of them): the rotations come first, qubit by qubit,
# then the entangler gate.  The entangler "control" instead conditions the
# later qubits' rotations on the first qubit, so CR is R on the control and
# then the same R on the target controlled by it.  RCZ takes two or more
# qubits: on three it is RCCZ, on all of them RnCZ.
_PRIMITIVES = {
    "R": (("grot",), (), None),
    "RxRy": (("rx", "ry"), (), None),
    "CNOT": ((), (), "cnot"),
    "CZ": ((), (), "cz"),
    "CR": (("grot",), ("grot",), "control"),
    "RCN": (("ry", "rx"), ("ry", "rz"), "cnot"),
    "RCNr": (("rz", "ry"), ("rx", "ry"), "cnot"),
    "RCZ": (("rx", "ry"), ("rx", "ry"), "cz"),
}
# the real restriction: R becomes Ry, and Rx and Rz go
_REAL_KINDS = {"grot": "ry", "ry": "ry"}


# the qubit tuples a step's primitive acts on, in order, on N qubits
_PATTERNS: dict[str, Callable[[int], list[tuple[int, ...]]]] = {
    "each": lambda n: [(q,) for q in range(n)],
    "down": lambda n: [(i, i + 1) for i in range(n - 2, -1, -1)],
    "up": lambda n: [(i, i + 1) for i in range(n - 1)],
    "even/odd": lambda n: [(i, i + 1) for i in (*range(0, n - 1, 2), *range(1, n - 1, 2))],
    "closure": lambda n: [(0, n - 1)],
    "ring": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "star from 0": lambda n: [(0, k) for k in range(1, n)],
    "star into 0": lambda n: [(k, 0) for k in range(1, n)],
    "star from 1": lambda n: [(1, k) for k in range(n) if k != 1],
    "all pairs": lambda n: [(i, j) for i in range(n - 1) for j in range(i + 1, n)],
    "triples": lambda n: [(i, i + 1, i + 2) for i in range(n - 2)],
    "all": lambda n: [tuple(range(n))],
}


class _Block(NamedTuple):
    description: str
    min_qubits: int
    steps: tuple[tuple[str, str], ...]


# Row format: (description, min_qubits, steps), min_qubits counting the
# ancilla.  A block's layer on N qubits is its (primitive, pattern) steps in
# order, each applying the primitive to the pattern's qubit tuples in turn.
# A generic ansatz is M copies of the layer, then U_s, an R on every qubit.
BLOCK_CATALOG: dict[int, _Block] = {
    0: _Block("single-qubit rotations only, no entanglement", 2, (("R", "each"),)),
    1: _Block("rotations + linear CNOT chain", 2, (("R", "each"), ("CNOT", "down"))),
    2: _Block("linear RCN chain", 2, (("RCN", "down"),)),
    3: _Block("linear RCN, parallel (optimal depth)", 2, (("RCN", "even/odd"),)),
    4: _Block("Rx/Ry rotations + linear CZ chain", 2, (("RxRy", "each"), ("CZ", "down"))),
    5: _Block("linear RCZ chain", 2, (("RCZ", "down"),)),
    6: _Block("circular CR blocks", 2, (("CR", "down"), ("CR", "closure"))),
    7: _Block("rotations + circular CNOT ring", 2, (("R", "each"), ("CNOT", "ring"))),
    8: _Block("circular RCN ring", 2, (("RCN", "up"), ("RCN", "closure"))),
    9: _Block("star RCNr, control on first qubit", 2, (("RCNr", "star from 0"),)),
    10: _Block("star RCNr, target on first qubit", 2, (("RCNr", "star into 0"),)),
    11: _Block("all-to-all RCN", 2, (("RCN", "all pairs"),)),
    12: _Block("linear RCCZ", 3, (("RCZ", "triples"),)),
    13: _Block("rotations + full n-controlled Z", 2, (("RCZ", "all"),)),
    14: _Block("star RCNr centred on a system qubit", 2, (("RCNr", "star from 1"),)),
    15: _Block(
        "circular RCN, parallel (optimal depth)", 2, (("RCN", "even/odd"), ("RCN", "closure"))
    ),
}


def _gates_of(primitive: str, qubits: tuple[int, ...], real: bool) -> list[tuple]:
    """The unnumbered gates (see :func:`_numbered`) of one primitive."""
    first, later, entangler = _PRIMITIVES[primitive]
    out = []
    for i, q in enumerate(qubits):
        kinds = later if i else first
        if real:
            kinds = [_REAL_KINDS[k] for k in kinds if k in _REAL_KINDS]
        controls = qubits[:1] if i and entangler == "control" else ()
        out += [(k, (q,), max(_SLOT_COUNTS[k]), None, controls) for k in kinds]
    if entangler in _FIXED:
        out.append((entangler, qubits, 0, None, ()))
    return out


def _layer(steps: tuple[tuple[str, str], ...], n: int, real: bool) -> list[tuple]:
    """The unnumbered gates (see :func:`_numbered`) of ``steps`` on n qubits."""
    return [
        g
        for primitive, pattern in steps
        for qubits in _PATTERNS[pattern](n)
        for g in _gates_of(primitive, qubits, real)
    ]


def _numbered(n_qubits: int, head: list[tuple], layers: list[tuple], tail: list[tuple]) -> Circuit:
    """The circuit of the (kind, qubits, slot count, generator, controls) rows
    of ``head``, ``layers`` and ``tail``, slots numbered in that order by one
    running count.  Its ``layer_slot_count`` is the slots of ``layers``."""
    out, count = [], 0
    for kind, qubits, k, generator, controls in head + layers + tail:
        out.append(Gate(kind, qubits, tuple(range(count, count + k)), generator, controls))
        count += k
    return Circuit(n_qubits, tuple(out), count, sum(g[2] for g in layers))


# --------------------------------------------------------------------------
# ansatz specification and builders
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class AnsatzSpec:
    """Declarative description of an ansatz family.

    ``family`` is "block" (generic layered circuit, ``block_id`` 0..15) or
    "gqsp" (symmetric ansatz with an explicit per-layer generator sequence).
    Both use one ancilla, qubit 0.  ``layers`` is a non-negative integer
    (``int`` or a NumPy integer).
    """

    family: str
    system_qubits: int
    layers: int
    block_id: int | None = None
    generators: tuple[PauliSum, ...] = ()
    restriction: str = COMPLEX
    hermitian: bool = False
    sequence_labels: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.family not in ("block", "gqsp"):
            raise ValueError(f"unknown ansatz family {self.family!r}")
        if self.restriction not in (COMPLEX, REAL):
            raise ValueError(f"unknown restriction {self.restriction!r}")
        if not isinstance(self.layers, (int, np.integer)) or self.layers < 0:
            raise ValueError(f"layer count must be a non-negative integer, got {self.layers!r}")
        if self.family == "block":
            if self.block_id not in BLOCK_CATALOG:
                raise ValueError("generic ansatz needs a block id in 0..15")
            least = BLOCK_CATALOG[self.block_id].min_qubits
            if self.total_qubits < least:
                raise ValueError(f"block {self.block_id} needs at least {least} qubits")
        else:
            if len(self.generators) != self.layers:
                raise ValueError("need one generator per layer")
            for g in self.generators:
                if g.n != self.system_qubits:
                    raise ValueError("generator qubit count must match the system register")
            if self.restriction != COMPLEX:
                raise ValueError("the GQSP-type ansatz has no real restriction")

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + 1


def build_generic_ansatz(spec: AnsatzSpec) -> Circuit:
    """M copies of the block's layer (its ``BLOCK_CATALOG`` steps) followed by
    U_s, an R on every qubit.  R is a three-slot ``grot``; the real
    restriction makes it an ``ry`` and drops every ``rx`` and ``rz``.  The
    M layers hold the first slots and U_s the last, which are fixed."""
    if spec.family != "block":
        raise ValueError("spec does not describe a generic ansatz")
    n, real = spec.total_qubits, spec.restriction == REAL
    layer = _layer(BLOCK_CATALOG[spec.block_id].steps, n, real)
    u_s = _layer((("R", "each"),), n, real)
    return _numbered(n, [], layer * spec.layers, u_s)


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
    system = tuple(range(1, n + 1))
    layers = []
    for g in gens:
        layers += [("gadget", system, 1, g, (0,)), ("grot", (0,), 2, None, ())]
    return _numbered(n + 1, [("grot", (0,), 3, None, ())], layers, [])


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
    every qubit, "ancilla_h" a single Hadamard on qubit 0.  ``c.gates`` stay
    U and V becomes the ``core``, so evaluation lowers and sweeps U once
    (see the module docstring).  A circuit that already has a core is
    refused.
    """
    if c.core is not None:
        raise ValueError("circuit is already hermitized")
    if v not in ("all_h", "ancilla_h"):
        raise ValueError(f"unknown V choice {v!r}")
    qubits = range(c.n_qubits) if v == "all_h" else (0,)
    return replace(c, core=tuple(Gate("h", (q,)) for q in qubits))


def controlled(c: Circuit) -> Circuit:
    """Add one control qubit (new qubit 0) to the whole circuit.

    Every gate gains the control, except in a circuit with a core: there
    only the core is conditioned, since U (cV) U^dagger is already the
    controlled U V U^dagger.
    """

    def shift(g: Gate, add_control: bool) -> Gate:
        return replace(
            g,
            qubits=tuple(q + 1 for q in g.qubits),
            controls=((0,) if add_control else ()) + tuple(q + 1 for q in g.controls),
        )

    whole = c.core is None
    return replace(
        c,
        n_qubits=c.n_qubits + 1,
        gates=tuple(shift(g, whole) for g in c.gates),
        core=None if whole else tuple(shift(g, True) for g in c.core),
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


def rotation_cnots(weight: int, controls: int) -> int:
    """CNOT-equivalent cost of a Pauli-string rotation under ``controls`` controls.

    A weight-w string pays its 2(w-1) basis-change CNOTs plus the central
    single-target rotation, ``mc1q(controls)``.  A weight-0 string is a
    global phase: free without controls, a phase on the controls (``mc1q``
    of one fewer) with them.
    """
    if weight:
        return 2 * (weight - 1) + mc1q(controls)
    return mc1q(controls - 1) if controls else 0


def _gadget_string_weights(g: Gate) -> list[int]:
    """The weights of a gadget's strings, refused unless they pairwise commute.

    One basis-change ladder per string compiles exp(theta G) only then.  Two
    strings commute when popcount(x_p & z_q) + popcount(z_p & x_q) is even.
    """
    gen = g.generator
    x, z = gen.keys >> gen.n, gen.keys & ((1 << gen.n) - 1)
    flips = np.bitwise_count(x[:, None] & z) + np.bitwise_count(z[:, None] & x)
    if np.any(flips & 1):
        raise ValueError("no gate count for a gadget whose strings do not pairwise commute")
    return np.bitwise_count(x | z).tolist()


def _gate_costs(c: Circuit) -> tuple[int, int]:
    """(CNOT equivalents, multi-qubit gates) of every gate the unitary applies.

    With a core the unitary applies U twice and V once.  Each gate applies
    strings of weight w conditioned on m qubits: a gadget each of its strings,
    m its controls; any other gate one weight-1 string on its last qubit, m
    every other qubit it touches.  A string costs ``rotation_cnots(w, m)``,
    except that a ``cnot`` or ``cz`` with m = 1 is native and costs 1, and it
    is a multi-qubit gate when w + m >= 2.  A gadget whose strings do not
    pairwise commute raises ``ValueError``, so an encode or a search over
    such a circuit raises once it builds a report.
    """
    cnots = multi = 0
    for g in c.gates if c.core is None else c.gates + c.core + c.gates:
        if g.kind == "gadget":
            m, weights = len(g.controls), _gadget_string_weights(g)
        else:
            m, weights = len(g.qubits) - 1 + len(g.controls), (1,)
        native = m == 1 and g.kind in ("cnot", "cz")
        for w in weights:
            cnots += 1 if native else rotation_cnots(w, m)
            multi += w + m >= 2
    return cnots, multi


def count_nonlocal_gates(c: Circuit) -> int:
    """Entangling cost in CNOT equivalents, by the rule of :func:`_gate_costs`."""
    return _gate_costs(c)[0]


def count_multiqubit_gates(c: Circuit) -> int:
    """Multi-qubit strings applied, by the rule of :func:`_gate_costs`."""
    return _gate_costs(c)[1]

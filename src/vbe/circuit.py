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
factor's fold prefix.  Per theta, every factor, window embedding, fold and
conjugation comes from a few batched array calls, and the gadget
exponentials from a few per generator.  The ops act on the reshaped axes
of a ``(b,) + (2,)*N + (cols,)`` tensor, so no gate is ever embedded in a
2^N x 2^N matrix.  ``evaluate`` applies them to the identity.
``evaluate_with_gradients`` also returns a pullback: for a cotangent w of
shape (r, s) it gives the gradient of Re <w, U[:r, :s]>_F from one backward
sweep over the same ops (the adjoint method of Jones & Gacon,
arXiv:2009.02823), with O(d s 2^k) work per op and O(d s) extra memory.
For a (B, r, s) stack of cotangents the same sweep carries one prefix row
and B adjoint rows, so it gives B gradients for the cost of B + 1 rows, not
2B; a single cotangent is the stack of one.  The block Jacobian, one row per
unit cotangent, so costs a few sweeps.  The window ops' 2^k x 2^k
environments are kept in one array, and the gradients are one contraction
of them with the slots' generators and one ``bincount`` over the slots per
cotangent.  No (param_count, d, d) derivative tensor is ever formed.

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
from typing import Callable

import numpy as np

from vbe.pauli import PauliSum, to_dense

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

        Built on first evaluation, so circuits with gadgets too wide for a
        dense matrix can still be built and counted.
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


def _embedding(t: int, ctl: bool) -> tuple[np.ndarray, list[int], list[int]]:
    """Where a 2 x 2 m on window qubit ``t`` (0 or 1) sits in its 4 x 4 window matrix.

    Returns the window matrix for m = 0 and the flat positions that take
    m's flat entries ``src``.  With ``ctl`` the other window qubit controls m
    (P0 x I + P1 x m); otherwise m acts whatever that qubit holds, which in
    a one-qubit window is a phantom.
    """

    def index(a: int, b: int) -> int:  # a on qubit t, b on the other
        return 2 * a + b if t == 0 else 2 * b + a

    zero = np.zeros((4, 4), dtype=np.complex128)
    if ctl:
        zero[[index(0, 0), index(1, 0)], [index(0, 0), index(1, 0)]] = 1.0
    pairs = [
        (4 * index(a, b) + index(a2, b), 2 * a + a2)
        for b in ((1,) if ctl else (0, 1))
        for a in (0, 1)
        for a2 in (0, 1)
    ]
    return zero, [p for p, _ in pairs], [k for _, k in pairs]


_EMBEDDINGS = {(t, ctl): _embedding(t, ctl) for t in (0, 1) for ctl in (False, True)}


def _embed(m: np.ndarray, t: int, ctl: bool) -> np.ndarray:
    """The 4 x 4 window matrix of m (see :func:`_embedding`)."""
    zero, dst, src = _EMBEDDINGS[t, ctl]
    out = zero.copy()
    out.reshape(-1)[dst] = m.reshape(-1)[src]
    return out


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
    :meth:`lower` builds every factor with one batched kernel, folds the
    runs by prefix products and conjugates each K by its factor's prefix P.
    """

    def __init__(self, c: Circuit):
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
        self.base = np.zeros((len(self.active), len(windows), 4, 4), dtype=np.complex128)

        # one entry per parametrized factor, unconjugated first factors first
        entries = []
        for r, (_, factors) in enumerate(windows):
            for j, (kind, slot, t, ctl) in enumerate(factors):
                if slot is None:
                    self.base[j, r] = _embed(_FIXED[kind], t, ctl)
                else:
                    self.base[j, r] = _EMBEDDINGS[t, ctl][0]
                    entries.append((j, r, slot, t, ctl, *_GENERATORS[kind]))
        entries.sort(key=lambda e: e[0] > 0)
        self.n_first = sum(e[0] == 0 for e in entries)
        slots = [e[2] for e in entries]
        self.angle_slots = np.array(slots, dtype=int)
        self.angle_scale = np.array([s for *_, s in entries])
        # the kernel a0 + cos(s x) a1 + sin(s x) a2 of exp(x K): a2 = K/s, a1 = Pi
        a2 = np.array([k / s for *_, k, s in entries], dtype=np.complex128).reshape(-1, 2, 2)
        a1 = -a2 @ a2
        self.kernel = (np.eye(2) - a1, a1, a2)
        self.kbase = np.array(
            [_embed(k, t, ctl) - _EMBEDDINGS[t, ctl][0] for *_, t, ctl, k, _ in entries],
            dtype=np.complex128,
        ).reshape(-1, 4, 4)
        scatter = [
            (16 * (j * len(windows) + r) + pos, 4 * e + k)
            for e, (j, r, _, t, ctl, *_) in enumerate(entries)
            for pos, k in zip(*_EMBEDDINGS[t, ctl][1:])
        ]
        self.dst, self.src = np.array(scatter, dtype=int).reshape(-1, 2).T
        later = [(j - 1, r) for j, r, *_ in entries[self.n_first :]]
        self.conj_at = tuple(np.array(later, dtype=int).reshape(-1, 2).T)
        self.entry_run = np.array([e[1] for e in entries], dtype=int)

        # gadgets: the eigenpairs of iG once per generator, their ops batched
        groups: dict[PauliSum, list[int]] = {}
        window_of = {id(run): k for k, (run, _) in enumerate(windows)}
        self.ops = []
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
            sel = (slice(None),) + tuple(1 if q in ctl else slice(None) for q in range(c.n_qubits))
            lead = 1 << (lo - sum(q < lo for q in ctl))
            self.ops.append((where, sel if ctl else None, lead, any(c.gates[i].slots for i in idx)))
        self.gadgets = []
        for gen, members in groups.items():
            gd = to_dense(gen)
            w, v = np.linalg.eigh(1j * gd)
            # the group's entries start at len(slots)
            self.gadgets.append((w, v, v.conj().T, gd.ravel(), np.array(members), len(slots)))
            slots += members
        self.entry_slots = np.array(slots, dtype=int)

    def lower(self, theta: np.ndarray) -> tuple[list, list, np.ndarray]:
        """Each op's matrix and its adjoint at ``theta``, and the window
        entries' generators P^dagger K P as an (entries, 4, 4) array."""
        x = self.angle_scale * theta[self.angle_slots]
        a0, a1, a2 = self.kernel
        local = a0 + np.cos(x)[:, None, None] * a1 + np.sin(x)[:, None, None] * a2
        emb = self.base.copy()
        emb.reshape(-1)[self.dst] = local.reshape(-1)[self.src]
        for j, n in enumerate(self.active[1:], 1):
            np.matmul(emb[j, :n], emb[j - 1, :n], out=emb[j, :n])
        kw, p = self.kbase.copy(), emb[self.conj_at]
        kw[self.n_first :] = p.conj().swapaxes(1, 2) @ kw[self.n_first :] @ p
        ops = emb[self.last]
        mats, adjs = [ops], [ops.conj().swapaxes(1, 2)]
        for w, v, vh, _, slots, _ in self.gadgets:
            m = (v * np.exp(-1j * np.multiply.outer(theta[slots], w))[:, None, :]) @ vh
            mats.append(m)
            adjs.append(m.conj().swapaxes(1, 2))
        for a in (mats, adjs):
            a.insert(1, a[0][:, ::2, ::2])
        return (
            [mats[a][i] for (a, i), *_ in self.ops],
            [adjs[a][i] for (a, i), *_ in self.ops],
            kw,
        )


def _apply(m: np.ndarray, sel: tuple | None, lead: int, state: np.ndarray) -> np.ndarray:
    """Multiply ``m`` into the target axes of ``state`` in place.

    ``state`` has shape ``(b,) + (2,)*N + (cols,)`` and only its subspace
    ``sel``, where every outer control qubit is |1>, is written (all of it
    for ``sel`` None).  Returns that subspace after the product as a
    ``(b, lead, 2^k, rest)`` array.
    """
    sub = state if sel is None else state[sel]
    view = sub.reshape(state.shape[0], lead, m.shape[0], -1)
    out = m @ view
    if sel is None:
        view[...] = out
    else:
        state[sel] = out.reshape(sub.shape)
    return out


def _forward(c: Circuit, mats: list[np.ndarray]) -> np.ndarray:
    """All ops applied to the identity, as a dim x dim matrix."""
    psi = np.eye(c.dim, dtype=np.complex128).reshape((1,) + (2,) * c.n_qubits + (c.dim,))
    for m, (_, sel, lead, _) in zip(mats, c._plan.ops):
        _apply(m, sel, lead, psi)
    return psi.reshape(c.dim, c.dim)


def evaluate(c: Circuit, theta) -> np.ndarray:
    """Dense unitary of the circuit at the given parameter vector."""
    return evaluate_with_gradients(c, theta)[0]


def _pullback_sweep(
    plan: _Plan, adjs: list, kw: np.ndarray, u: np.ndarray, w: np.ndarray, n_params: int
) -> list[np.ndarray]:
    """Gradients of Re <w_b, U[:r, :s]>_F over the slots of the plan's ops.

    ``u`` is the product of the ops (U = O_L ... O_1), ``adjs`` their
    adjoints and ``w`` a (B, r, s) stack of cotangents; the result is a
    list of B gradients, one per cotangent.  One backward sweep carries a
    (1 + B, d, s) state: the prefix U[:, :s], un-computed by each
    O_j^dagger (every op is unitary) into P_j = O_{j-1} ... O_1 [:, :s],
    and B adjoint rows lambda_b, each ``w_b`` embedded in rows :r and moved
    back by the same O_j^dagger, so the prefix is shared by the whole
    stack.  After O_j is undone, its 2^k x 2^k environments
    E_b = sum conj(lambda_b) P^T over the op's controlled subspace come
    from one product of the B adjoint rows, stacked, with the prefix; a
    slot of O_j with generator K = O_j^dagger dO_j adds Re sum(K * E_b).
    Window environments go into one array, contracted with every window
    slot's K at the end; a gadget's, as large as its generator, is
    contracted at once, so only its sums are kept.  One ``bincount`` per
    cotangent then adds its sums up by slot, over slots used more than once
    too.  The work per op is O((1 + B) d s 2^k) and the extra memory
    O((1 + B) d s).  For a circuit with a core ``adjs`` are U's and ``w``
    holds the cotangents G of :func:`evaluate_with_gradients`, which have d
    columns, so the state is (1 + B, d, d).
    """
    b, r, s = w.shape
    d = u.shape[0]
    state = np.zeros((1 + b, d, s), dtype=np.complex128)
    state[0] = u[:, :s]
    state[1:, :r] = w
    state = state.reshape((1 + b,) + (2,) * (d.bit_length() - 1) + (s,))
    # each window's B environments stacked as one (B * 4) x 4 matrix; a
    # one-qubit window's 2 x 2 ones are every other row and column of it
    n_runs = plan.base.shape[1]
    env = np.zeros((n_runs, b * 4, 4), dtype=np.complex128)
    envs = [env, env[:, ::2, ::2]]
    sums = np.empty((len(plan.entry_slots), b), dtype=np.complex128)
    for m, ((a, i), sel, lead, has_slots) in zip(reversed(adjs), reversed(plan.ops)):
        out = _apply(m, sel, lead, state)
        if has_slots:
            # the prefix as a 2^k x (lead * rest) matrix and the adjoint rows
            # as B of them stacked, target index first; ``dot`` skips the
            # ufunc dispatch of ``@``, a visible share at these small sizes
            k_dim = m.shape[0]
            prefix = out[0].transpose(1, 0, 2).reshape(k_dim, -1)
            lam = out[1:].transpose(0, 2, 1, 3).reshape(b * k_dim, -1)
            e = lam.conj().dot(prefix.T)
            if a < 2:
                envs[a][i] = e
            else:
                _, _, _, gd, _, first = plan.gadgets[a - 2]
                sums[first + i] = e.reshape(b, -1).dot(gd)
    stacked = env.reshape(n_runs, b, 4, 4)[plan.entry_run]
    sums[: len(plan.entry_run)] = (kw[:, None] * stacked).sum((2, 3))
    return [np.bincount(plan.entry_slots, col, minlength=n_params) for col in sums.real.T]


def evaluate_with_gradients(c: Circuit, theta) -> tuple[np.ndarray, Callable]:
    """Unitary and the vector-Jacobian product of its parameter derivatives.

    Returns ``(u, pullback)``.  ``u`` is the product U of the plan's ops,
    applied to the identity in one forward sweep, or (U V) U^dagger for a
    circuit with a core.  ``pullback(w)`` takes a cotangent ``w`` of shape
    (r, s) and returns the real vector
    d/d(theta_k) Re <w, u[:r, :s]>_F of length ``param_count``, from one
    backward sweep over the ops (:func:`_pullback_sweep`, after Jones
    & Gacon, arXiv:2009.02823).  It also takes a (B, r, s) stack of
    cotangents and returns a (B, param_count) array, one row per
    cotangent, from one sweep that shares the prefix across the stack; a
    single cotangent is the stack of one.  Each call costs O((1 + B) d s 2^k)
    per op and O((1 + B) d s) extra memory; no (param_count, d, d)
    derivative tensor exists.  So the real Jacobian of u[:r, :s], whose
    rows are the pullbacks of the 2 r s unit cotangents E_ij and i E_ij,
    costs a few stacked sweeps.

    For a circuit with a core, d(U V U^dagger) = dU V U^dagger + U V dU^dagger,
    so with w zero-padded to W, Re <W, du> = Re <G, dU> for
    G = W U V^dagger + W^dagger U V: one sweep over U's ops covers both
    uses of every shared slot.  G is zero below row max(r, s).
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != c.param_count:
        raise ValueError(f"expected {c.param_count} parameters, got {theta.size}")
    mats, adjs, kw = c._plan.lower(theta)
    u = half = _forward(c, mats)
    if c.core is not None:
        uv = half @ c._dense_core
        u = uv @ half.conj().T

    def pullback(w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128)
        stack = w if w.ndim == 3 else w[None]
        b, r, s = stack.shape
        if c.core is not None:
            g = np.zeros((b, max(r, s), c.dim), dtype=np.complex128)
            g[:, :r] = stack @ (half[:s] @ c._dense_core.conj().T)
            g[:, :s] += stack.conj().swapaxes(1, 2) @ uv[:r]
            stack = g
        grads = _pullback_sweep(c._plan, adjs, kw, half, stack, c.param_count)
        if w.ndim == 2:
            return grads[0]
        return np.reshape(grads, (b, c.param_count))

    return u, pullback


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
    "gqsp" (symmetric ansatz with an explicit per-layer generator sequence).
    Both use one ancilla, qubit 0.
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
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        if self.family == "block":
            if self.block_id is None or not 0 <= self.block_id <= 15:
                raise ValueError("generic ansatz needs a block id in 0..15")
            info = BLOCK_CATALOG[self.block_id]
            if self.total_qubits < info.min_qubits:
                raise ValueError(
                    f"block {self.block_id} needs at least {info.min_qubits} qubits"
                )
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
        layer_slot_count=layer_slots,
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
        layer_slot_count=3 * len(gens),
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
    return [p.weight for p in g.generator.strings()]


def _applied_gates(c: Circuit) -> tuple[Gate, ...]:
    """Every gate the unitary applies: U twice and V once with a core."""
    return c.gates if c.core is None else c.gates + c.core + c.gates


def count_nonlocal_gates(c: Circuit) -> int:
    """Entangling cost in CNOT equivalents.

    A ``cnot`` or ``cz`` is a single-target gate on its last qubit
    conditioned on the others; with one condition it is native and counts
    1, otherwise ``mc1q``.  Each string of a Pauli gadget, and each
    single-qubit gate as a weight-1 string, costs :func:`rotation_cnots`.
    """
    total = 0
    for g in _applied_gates(c):
        extra = len(g.controls)
        if g.kind == "gadget":
            total += sum(rotation_cnots(w, extra) for w in _gadget_string_weights(g))
        elif g.kind in ("cnot", "cz"):
            m = len(g.qubits) - 1 + extra
            total += 1 if m == 1 else mc1q(m)
        else:  # single-qubit kinds
            total += rotation_cnots(1, extra)
    return total


def count_multiqubit_gates(c: Circuit) -> int:
    """Raw number of multi-qubit gate instances (no decomposition applied)."""
    total = 0
    for g in _applied_gates(c):
        extra = len(g.controls)
        if g.kind == "gadget":
            total += sum(1 for w in _gadget_string_weights(g) if w + extra >= 2)
        elif g.kind in ("cnot", "cz"):
            total += 1
        else:  # single-qubit kinds
            total += 1 if extra else 0
    return total

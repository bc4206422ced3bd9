"""Dense reference implementations the tests check the package against.

Each helper builds or compares explicit 2^n x 2^n matrices, independently of
the packed Pauli arithmetic and the circuit evaluation plan under test.
:func:`dense_unitary` multiplies gate by gate, each gate embedded with
``kron`` and control projectors.  The package itself never needs these, so
they live here, together with :func:`block_spec`, the generic ansatz spec
the tests build circuits from, the closed forms :func:`single_qubit_R`
and :func:`symmetric_a_ratio`, which no package code uses, and
:func:`lie_closure_per_element` and :func:`associative_closure_per_element`,
the closure loop with one product call and one span test per basis element,
and :func:`lower_complex`, a circuit plan's window lowering in complex
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import scipy.linalg

from vbe import linalg
from vbe.circuit import AnsatzSpec, Circuit, Gate
from vbe.pauli import PauliString, PauliSum, SpanBasis, product_packed, sum_from_packed, to_dense
from vbe.symmetry import _partition

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

# default tolerance of the dense matrix predicates
DEFAULT_TOL = 1e-10


def string_to_dense(p: PauliString) -> np.ndarray:
    """Dense matrix of one string: one nonzero per column, at row col ^ x."""
    dim = 1 << p.n
    cols = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & p.z) & 1)
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[cols ^ p.x, cols] = _I_POWERS[(p.x & p.z).bit_count() & 3] * signs
    return m


def kron(a, b, *rest) -> np.ndarray:
    """Kronecker product of two or more matrices, left factor most significant."""
    out = np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
    for m in rest:
        out = np.kron(out, np.asarray(m, dtype=np.complex128))
    return out


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = linalg.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("is_hermitian expects a square matrix")
    return np.linalg.norm(m - m.conj().T) <= tol


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    m = linalg.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("is_unitary expects a square matrix")
    return np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol


def _site_permutation_matrix(n: int, pi: list[int]) -> np.ndarray:
    """Unitary moving the state of site j to site pi[j]."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for c in range(dim):
        r = 0
        for j in range(n):
            bit = (c >> (n - 1 - j)) & 1
            r |= bit << (n - 1 - pi[j])
        m[r, c] = 1.0
    return m


def symmetry_matrix(kind: str, n: int) -> list[np.ndarray]:
    """Dense group generators of the symmetry on n system qubits.

    ``Z2`` is the global flip X^n, ``Z2xz`` the reflection of an open chain,
    ``Cn`` the one-site cyclic shift and ``Sn`` the adjacent swaps.
    """
    if n < 2:
        raise ValueError("symmetries are defined for n >= 2 sites")
    if kind == "Z2":
        return [to_dense(PauliSum.from_terms({"X" * n: 1.0}))]
    if kind == "Z2xz":
        return [_site_permutation_matrix(n, [n - 1 - j for j in range(n)])]
    if kind == "Cn":
        return [_site_permutation_matrix(n, [(j + 1) % n for j in range(n)])]
    if kind == "Sn":
        mats = []
        for i in range(n - 1):
            pi = list(range(n))
            pi[i], pi[i + 1] = pi[i + 1], pi[i]
            mats.append(_site_permutation_matrix(n, pi))
        return mats
    raise ValueError(f"unknown symmetry kind {kind!r}")


def symmetry_matrices(gs) -> list[np.ndarray]:
    """Global Z2 flip plus the geometric symmetry generators of a GeneratorSet."""
    mats = symmetry_matrix("Z2", gs.n)
    if gs.kind != "Z2":
        mats += symmetry_matrix(gs.kind, gs.n)
    return mats


def check_invariance(h: np.ndarray, s: np.ndarray) -> float:
    """Frobenius norm of [H, S]."""
    h = linalg.as_matrix(h)
    s = linalg.as_matrix(s)
    if h.shape != s.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {s.shape}")
    return np.linalg.norm(h @ s - s @ h)


def symmetric_invariance_check(b, syms: list[np.ndarray]) -> float:
    """max over basis elements and symmetries of ||S B S^-1 - B||_F."""
    worst = 0.0
    for op in b:
        dm = to_dense(op)
        for s in syms:
            worst = max(worst, np.linalg.norm(s @ dm @ s.conj().T - dm))
    return worst


def single_qubit_R(theta: float, phi: float, lam: float) -> np.ndarray:
    """R(theta, phi, lam) from its closed form."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


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


def block_spec(block_id, n, layers=1, restriction="complex", hermitian=False) -> AnsatzSpec:
    """Generic ansatz spec of block ``block_id`` on ``n`` system qubits."""
    return AnsatzSpec(
        family="block",
        system_qubits=n,
        layers=layers,
        block_id=block_id,
        restriction=restriction,
        hermitian=hermitian,
    )


def gqsp_block_expansion(generators, theta) -> np.ndarray:
    """Extracted block of the GQSP-type ansatz via the ancilla path sum.

    Contracts the bond-dimension-2 operator-valued transfer product
    F = sum over ancilla paths of the rotation-amplitude-weighted ordered
    products of the layer operators P_i = expm(t_i G_i).  This never forms
    the (n+1)-qubit unitary and takes each exponential from
    ``scipy.linalg.expm``, so it is an independent check that the block lives
    in the span of ordered generator products.
    """
    gens = list(generators)
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != 3 * len(gens) + 3:
        raise ValueError(f"expected {3 * len(gens) + 3} parameters, got {theta.size}")
    dim = 1 << gens[0].n if gens else 1
    r0 = single_qubit_R(theta[0], theta[1], theta[2])
    # operator-valued amplitudes for the ancilla being in |0> / |1>
    f = [r0[0, 0] * np.eye(dim, dtype=np.complex128), r0[1, 0] * np.eye(dim, dtype=np.complex128)]
    for i, gen in enumerate(gens):
        p_i = scipy.linalg.expm(theta[3 + 3 * i] * to_dense(gen))
        f = [f[0], p_i @ f[1]]
        r = single_qubit_R(theta[4 + 3 * i], theta[5 + 3 * i], 0.0)
        f = [r[0, 0] * f[0] + r[0, 1] * f[1], r[1, 0] * f[0] + r[1, 1] * f[1]]
    return f[0]


_P1 = np.diag([0.0, 1.0])
_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "ry": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "rz": np.diag([1.0, -1.0]).astype(np.complex128),
}
_FIXED = {
    "h": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
    "cnot": _PAULI["rx"],
    "cz": _PAULI["rz"],
}


def _gate_matrix(g: Gate, theta) -> np.ndarray:
    """The matrix of ``g`` on its target qubits, from closed forms and ``expm``."""
    if g.kind == "gadget":
        return scipy.linalg.expm(theta[g.slots[0]] * to_dense(g.generator))
    if g.kind == "grot":
        return single_qubit_R(*([theta[s] for s in g.slots] + [0.0])[:3])
    if g.kind in _PAULI:
        return scipy.linalg.expm(-0.5j * theta[g.slots[0]] * _PAULI[g.kind])
    return _FIXED[g.kind]


def _embedded_gate(g: Gate, n: int, theta) -> np.ndarray:
    """``g`` as a 2^n x 2^n matrix: its matrix kron identities, applied where
    every control is |1>.  ``cnot`` and ``cz`` act on their last qubit,
    controlled by the others."""
    fixed_target = g.kind in ("cnot", "cz")
    targets = g.qubits[-1:] if fixed_target else g.qubits
    controls = g.controls + (g.qubits[:-1] if fixed_target else ())
    first, k = targets[0], len(targets)
    full = kron(np.eye(1 << first), _gate_matrix(g, theta), np.eye(1 << (n - first - k)))
    proj = reduce(np.kron, [_P1 if q in controls else np.eye(2) for q in range(n)], np.eye(1))
    return proj @ full + np.eye(1 << n) - proj


def dense_unitary(c: Circuit, theta) -> np.ndarray:
    """The unitary of ``c`` at ``theta`` from gate-by-gate dense embeddings.

    Each gate becomes a 2^N x 2^N matrix (``kron`` with identities and
    control projectors) and the product runs gate by gate; a circuit with a
    core is U V U^dagger.  Nothing of the circuit's evaluation plan is used.
    """
    theta = np.asarray(theta, dtype=float)

    def product(gates) -> np.ndarray:
        u = np.eye(c.dim, dtype=np.complex128)
        for g in gates:
            u = _embedded_gate(g, c.n_qubits, theta) @ u
        return u

    u = product(c.gates)
    return u if c.core is None else u @ product(c.core) @ u.conj().T


def _complex_blocks(b: np.ndarray) -> np.ndarray:
    """The complex matrices B[:k, :k] + i B[k:, :k] of a stack of real 2k x 2k blocks."""
    k = b.shape[-1] // 2
    return b[..., :k, :k] + 1j * b[..., k:, :k]


def lower_complex(plan, theta) -> tuple[list, np.ndarray]:
    """What ``plan.lower(theta)`` returns, from complex 4 x 4 arithmetic.

    The plan's real 8 x 8 fixed factors, factor terms and generators are
    read back as complex matrices.  Each parametrized factor is then built
    as B0 + cos(s x) B1 + sin(s x) B2 and put in its place, and the factors
    are folded by prefix products and conjugated as P^dagger K P in
    complex128, as the plan did before its window algebra went real.
    Returns the ops and the conjugated generators.
    """
    t = theta.shape[0]
    values = theta.ravel()[plan.slot_index(t)].reshape(-1, t)
    x = plan.angle_scale[:, None] * values[: len(plan.angle_scale)]
    b0, b1, b2 = (_complex_blocks(b) for b in plan.terms)
    factors = b0 + np.cos(x)[..., None, None] * b1 + np.sin(x)[..., None, None] * b2
    emb = _complex_blocks(plan.base)[:, :, None].repeat(t, 2)
    emb.reshape(-1, t, 4, 4)[plan.entry_factor] = factors
    for j, n in enumerate(plan.active[1:], 1):
        emb[j, :n] = emb[j, :n] @ emb[j - 1, :n]
    kw = _complex_blocks(plan.kbase)[:, None].repeat(t, 1)
    p = emb[plan.conj_at]
    kw[plan.n_first :] = p.conj().mT @ kw[plan.n_first :] @ p
    ops = emb[plan.last][:, :, None, None]
    mats = [ops, ops[..., ::2, ::2]]
    for w, v, vh, _, count, first in plan.gadgets:
        phases = np.exp(-1j * np.multiply.outer(values[first : first + count], w))
        mats.append(((v * phases[..., None, :]) @ vh)[:, :, None, None])
    return [mats[a][i] for a, i in plan.where], kw


def _closure_per_element(n, seeds, multipliers, products, orbits, start=0) -> list[PauliSum]:
    """The breadth-first closure loop of :mod:`vbe.symmetry`, one basis
    element at a time: one ``products`` call multiplies the element's
    representative form by every multiplier (group m for multiplier m), and
    one :meth:`SpanBasis.add_block` call tests its candidates."""
    span = SpanBasis(n, orbits=orbits)
    basis, forms = [], []

    def accept(element):
        basis.append(element)
        forms.append(orbits.representatives(element.keys, element.coeffs))

    for s in seeds:
        s = s.normalized()
        if span.add_packed(s.keys, s.coeffs):
            accept(s)
    mults = [m.normalized() for m in multipliers]
    if not mults:
        return basis
    km = np.concatenate([m.keys for m in mults])
    cm = np.concatenate([m.coeffs for m in mults])
    ids = np.repeat(np.arange(len(mults)), [len(m) for m in mults])
    idx = start
    while idx < len(basis):
        ka, ca = forms[idx]
        cands, keys, sums = orbits.fold(*products(ka, ca, km, cm, ids))
        for j in np.flatnonzero(span.add_block(keys, sums, cands, len(mults))):
            mine = cands == j
            full, coeffs = orbits.expand(keys[mine], sums[mine])
            accept(sum_from_packed(n, full, coeffs / float(np.linalg.norm(coeffs))))
        idx += 1
    return basis


def lie_closure_per_element(gens, orbits=None) -> list[PauliSum]:
    """Reference Lie closure: nested brackets with the generators, one
    element per product call, in the partition ``lie_closure`` takes."""
    gens = list(gens)
    n = gens[0].n
    orbits = _partition(orbits, gens)

    def bracket(ka, ca, km, cm, ids):
        index = orbits.orbit_ids
        return product_packed(n, ka, ca, km, cm, index=index, bracket=True, groups=ids)

    return _closure_per_element(n, gens, gens, bracket, orbits)


def associative_closure_per_element(l, multipliers=None, orbits=None) -> list[PauliSum]:
    """Reference associative closure: left products with the multipliers,
    one element per product call, in the partition ``associative_closure``
    takes."""
    n = l[0].n
    mult = l if multipliers is None else multipliers
    orbits = _partition(orbits, [*l, *mult])

    def left(ka, ca, km, cm, ids):
        return product_packed(n, km, cm, ka, ca, index=orbits.orbit_ids, groups=ids[:, None])

    seeds = [PauliSum.identity(n), *l, *mult]
    return _closure_per_element(n, seeds, mult, left, orbits, start=1)

"""Dense reference implementations the tests check the package against.

Each helper builds or compares explicit 2^n x 2^n matrices, independently of
the packed Pauli arithmetic and the lowered circuit ops under test.  The
package itself never needs them, so they live here, together with
:func:`block_spec`, the generic ansatz spec the tests build circuits from.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from vbe import linalg
from vbe.circuit import AnsatzSpec, single_qubit_R
from vbe.pauli import PauliString, PauliSum, to_dense

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
    return linalg.frobenius_norm(m - m.conj().T) <= tol


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    m = linalg.as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError("is_unitary expects a square matrix")
    return linalg.frobenius_norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol


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
    return linalg.frobenius_norm(h @ s - s @ h)


def symmetric_invariance_check(b, syms: list[np.ndarray]) -> float:
    """max over basis elements and symmetries of ||S B S^-1 - B||_F."""
    worst = 0.0
    for op in b:
        dm = to_dense(op)
        for s in syms:
            worst = max(worst, linalg.frobenius_norm(s @ dm @ s.conj().T - dm))
    return worst


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

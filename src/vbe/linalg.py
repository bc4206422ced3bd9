"""Dense complex linear algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` dtype and
row-major semantics.  Everything here is a pure function of its inputs, so
all operations are safe to call concurrently.

Bit-order contract: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational basis index.  Ancilla qubits always
occupy the lowest qubit indices, which places the encoded block in the
top-left corner of the circuit unitary.
"""

from __future__ import annotations

import numpy as np


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array and check all entries are finite."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def spectral_norm(a) -> float:
    """Largest singular value of a square matrix.

    Computed through the eigenvalues of A†A; at the dimensions handled here
    (<= 512) this is both accurate and cheap, so no iterative scheme is used.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"spectral_norm expects a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(w[-1], 0.0)))


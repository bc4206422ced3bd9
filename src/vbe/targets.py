"""Target-matrix generation: Heisenberg Hamiltonians on a bond graph, random
matrices by class, and zero padding.

Complex matrices are stored with ``np.save`` / ``np.load``; this module
defines no file format of its own.

All randomness flows through a counter-based Philox generator so that every
target is reproducible from its seed alone.
"""

from __future__ import annotations

import numpy as np

from vbe.pauli import PauliSum


def make_rng(seed: int | np.random.Generator, *key: int) -> np.random.Generator:
    """Philox-backed generator (counter based, cheap to split deterministically).

    ``key`` names an independent child stream of ``seed``:
    ``make_rng(seed, i)`` draws what child i of ``SeedSequence(seed).spawn``
    draws.  A generator is returned as it is, whatever the key.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _letters(n: int, assignments: dict[int, str]) -> str:
    return "".join(assignments.get(j, "I") for j in range(n))


def heisenberg_graph_terms(
    n: int,
    bonds: list[tuple[int, int]],
    jx: complex,
    jy: complex,
    jz: complex,
    h: complex,
) -> PauliSum:
    """Pauli decomposition of a Heisenberg model on an arbitrary bond graph,
    with a transverse X field on every site.  Couplings may be complex: with
    imaginary ones the sum is an anti-hermitian generator."""
    terms: dict[str, complex] = {}
    for i, j in bonds:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"invalid bond ({i}, {j}) for n={n}")
        for coupling, letter in ((jx, "X"), (jy, "Y"), (jz, "Z")):
            if coupling != 0.0:
                key = _letters(n, {i: letter, j: letter})
                terms[key] = terms.get(key, 0.0) + coupling
    if h != 0.0:
        for i in range(n):
            key = _letters(n, {i: "X"})
            terms[key] = terms.get(key, 0.0) + h
    if not terms:
        return PauliSum.zero(n)
    return PauliSum.from_terms(terms)


def chain_bonds(n: int, periodic: bool = False) -> list[tuple[int, int]]:
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    return bonds


def complete_bonds(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n)]


def random_matrix(
    n: int,
    field: str = "complex",
    structure: str = "arbitrary",
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Random 2^n x 2^n matrix with i.i.d. uniform entries on [-1, 1].

    ``field`` is "complex" or "real"; ``structure`` is "arbitrary" or
    "hermitian" (hermitian applies (M + M†)/2).  Deterministic per seed.
    """
    if field not in ("complex", "real"):
        raise ValueError(f"unknown field {field!r}")
    if structure not in ("arbitrary", "hermitian"):
        raise ValueError(f"unknown structure {structure!r}")
    rng = make_rng(seed)
    dim = 1 << n
    m = rng.uniform(-1.0, 1.0, size=(dim, dim)).astype(np.complex128)
    if field == "complex":
        m = m + 1j * rng.uniform(-1.0, 1.0, size=(dim, dim))
    if structure == "hermitian":
        m = (m + m.conj().T) / 2.0
    return m


def zero_pad(a: np.ndarray) -> np.ndarray:
    """Embed into the smallest power-of-two square matrix, original top-left."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("zero_pad expects a 2-D matrix")
    side = max(a.shape) if a.size else 1
    dim = 1 << max(0, (side - 1).bit_length())
    if a.shape == (dim, dim):
        return a
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    return out

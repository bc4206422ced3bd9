"""Symmetric generator sets and the expressibility engine: Lie closure,
associative closure, and span membership of dense matrices.

The supported symmetry kinds are

* ``Z2``   - global spin flip X^n (no geometric orbit compression),
* ``Z2xz`` - reflection of an open chain about its middle,
* ``Cn``   - one-site cyclic shift of a ring,
* ``Sn``   - full site permutation.

Closure computations are deterministic: elements are visited breadth-first
in insertion order and Pauli sums are kept in canonical string order, so
the produced bases are identical across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vbe import linalg
from vbe.pauli import (
    OrbitCompression,
    PauliSum,
    SpanBasis,
    check_dense_qubits,
    product_packed,
    sum_from_packed,
    to_dense,
)
from vbe.targets import chain_bonds, complete_bonds, make_rng


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure basis outgrows its configured cap."""

    def __init__(self, message: str, dim_reached: int):
        super().__init__(message)
        self.dim_reached = dim_reached


# --------------------------------------------------------------------------
# generator sets
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorSet:
    """Anti-hermitian circuit generators respecting a declared symmetry."""

    kind: str
    n: int
    generators: tuple[PauliSum, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.labels):
            raise ValueError("one label per generator")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError("generator qubit count mismatch")
            if not g.is_antihermitian():
                raise ValueError("generators must be anti-hermitian")

    def __len__(self) -> int:
        return len(self.generators)



def _bond_sum(n: int, letter: str, bonds: list[tuple[int, int]]) -> PauliSum:
    terms: dict[str, complex] = {}
    for i, j in bonds:
        key = "".join(letter if q in (i, j) else "I" for q in range(n))
        terms[key] = terms.get(key, 0.0) + 1j
    return PauliSum.from_terms(terms)


def _field_sum(n: int, sites: list[int]) -> PauliSum:
    terms = {}
    for i in sites:
        terms["".join("X" if q == i else "I" for q in range(n))] = 1j
    return PauliSum.from_terms(terms)


def heisenberg_generator_set(kind: str, n: int) -> GeneratorSet:
    """Generators built from the terms of the symmetry-matched Heisenberg model.

    Z2xz ties reflection-paired bonds (a bond mapped onto itself appears
    once); Cn uses the full translation-invariant bond sum including the
    wraparound bond; Sn uses the all-pairs sum.  Each Pauli type contributes
    one generator per orbit, and the transverse field contributes the
    orbit-summed X terms.
    """
    if n < 2:
        raise ValueError("need n >= 2 sites")
    gens: list[PauliSum] = []
    labels: list[str] = []
    if kind == "Z2xz":
        bond_orbits: list[list[tuple[int, int]]] = []
        for i in range(n - 1):
            mirror = n - 2 - i
            if i < mirror:
                bond_orbits.append([(i, i + 1), (mirror, mirror + 1)])
            elif i == mirror:
                bond_orbits.append([(i, i + 1)])
        for letter in "XYZ":
            for orbit in bond_orbits:
                gens.append(_bond_sum(n, letter, orbit))
                labels.append(f"{letter}{letter}{sorted(b[0] for b in orbit)}")
        for j in range((n + 1) // 2):
            sites = sorted({j, n - 1 - j})
            gens.append(_field_sum(n, sites))
            labels.append(f"X{sites}")
    elif kind == "Cn":
        bonds = chain_bonds(n, periodic=True)
        for letter in "XYZ":
            gens.append(_bond_sum(n, letter, bonds))
            labels.append(f"{letter}{letter}-ring")
        gens.append(_field_sum(n, list(range(n))))
        labels.append("X-all")
    elif kind == "Sn":
        bonds = complete_bonds(n)
        for letter in "XYZ":
            gens.append(_bond_sum(n, letter, bonds))
            labels.append(f"{letter}{letter}-pairs")
        gens.append(_field_sum(n, list(range(n))))
        labels.append("X-all")
    else:
        raise ValueError(f"no Heisenberg generator set for kind {kind!r}")
    return GeneratorSet(kind=kind, n=n, generators=tuple(gens), labels=tuple(labels))


def symmetric_heisenberg_terms(
    kind: str,
    n: int,
    seed: int | np.random.Generator,
    lo: float = 0.3,
    hi: float = 1.0,
) -> PauliSum:
    """Random-coefficient Heisenberg Hamiltonian matched to the symmetry.

    Every generator orbit receives an independent coupling with magnitude
    in [lo, hi] and random sign; keeping magnitudes away from zero avoids
    accidentally degenerate targets in threshold searches.
    """
    rng = make_rng(seed)
    gs = heisenberg_generator_set(kind, n)
    out = PauliSum.zero(n)
    for g in gs.generators:
        c = float(rng.uniform(lo, hi)) * (1.0 if rng.random() < 0.5 else -1.0)
        out = out + g * (-1j * c)  # -i maps the anti-hermitian generator to its hermitian term
    return out


# --------------------------------------------------------------------------
# closures
# --------------------------------------------------------------------------
def symmetric_orbit_compression(kind: str, n: int) -> OrbitCompression | None:
    """String-orbit partition of the geometric symmetry group (None for Z2).

    Conjugation by a site permutation maps a Pauli string to a permuted
    string with no phase, so group-invariant sums carry equal coefficients
    on every orbit; the partition feeds :class:`OrbitCompression`.
    """
    if kind == "Z2":
        return None
    check_dense_qubits(n, "a string-orbit table")
    keys = np.arange(1 << (2 * n), dtype=np.int64)
    mask = (1 << n) - 1
    x, z = keys >> n, keys & mask
    if kind == "Sn":
        # bitwise_count yields uint8; widen before packing the histogram
        nx = np.bitwise_count(x & ~z).astype(np.int64)
        ny = np.bitwise_count(x & z).astype(np.int64)
        nz = np.bitwise_count(z & ~x).astype(np.int64)
        raw = (nx * (n + 1) + ny) * (n + 1) + nz
    elif kind == "Cn":
        best = keys.copy()
        rx, rz = x.copy(), z.copy()
        for _ in range(n - 1):
            rx = (rx >> 1) | ((rx & 1) << (n - 1))
            rz = (rz >> 1) | ((rz & 1) << (n - 1))
            np.minimum(best, (rx << n) | rz, out=best)
        raw = best
    elif kind == "Z2xz":
        rev = np.zeros(1 << n, dtype=np.int64)
        for v in range(1 << n):
            r = 0
            for b in range(n):
                r |= ((v >> b) & 1) << (n - 1 - b)
            rev[v] = r
        raw = np.minimum(keys, (rev[x] << n) | rev[z])
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    _, ids = np.unique(raw, return_inverse=True)
    return OrbitCompression(ids)


def _compression_for(generators: GeneratorSet | list | tuple) -> OrbitCompression | None:
    """Orbit compression for a generator set, verified against the inputs.

    Compression is a projection followed by an isometry, so it preserves a
    sum's norm exactly iff the sum is group invariant; any non-invariant
    generator disables the fast path.
    """
    if not isinstance(generators, GeneratorSet):
        return None
    orbits = symmetric_orbit_compression(generators.kind, generators.n)
    if orbits is None:
        return None
    for g in generators.generators:
        full = float(np.sum(np.abs(g.coeffs) ** 2))
        compressed = float(np.sum(np.abs(orbits.vector(g.keys, g.coeffs)) ** 2))
        if abs(full - compressed) > 1e-12 * max(full, 1.0):
            return None
    return orbits


def _span_closure(
    n: int,
    seeds: list[PauliSum],
    multipliers: list[PauliSum],
    products,
    cap: int,
    name: str,
    orbits: OrbitCompression | None,
    start: int = 0,
) -> list[PauliSum]:
    """Breadth-first closure loop shared by the Lie and associative closures.

    The seeds that extend the span start the basis.  Each basis element from
    index ``start`` on, in insertion order, is then combined with every
    multiplier by ``products(ki, ci, km, cm, add)``, which passes each packed
    product to ``add``.  A product that extends the span joins the basis at
    unit norm, until a fixpoint or until the basis outgrows ``cap``
    (:class:`ClosureCapExceeded`).
    """
    span = SpanBasis(n, orbits=orbits)
    basis: list[PauliSum] = []

    def add(keys: np.ndarray, coeffs: np.ndarray) -> None:
        if len(keys) and span.add_packed(keys, coeffs):
            basis.append(sum_from_packed(n, keys, coeffs / float(np.linalg.norm(coeffs))))
            if len(basis) > cap:
                raise ClosureCapExceeded(f"{name} closure exceeded cap {cap} (n={n})", len(basis))

    for s in seeds:
        s = s.normalized()
        if span.add_packed(s.keys, s.coeffs):
            basis.append(s)
    mults = [m.normalized() for m in multipliers]
    idx = start
    while idx < len(basis):
        b = basis[idx]
        for m in mults:
            products(b.keys, b.coeffs, m.keys, m.coeffs, add)
        idx += 1
    return basis


def lie_closure(
    generators: GeneratorSet | list[PauliSum] | tuple[PauliSum, ...],
    cap: int | None = None,
    orbits: OrbitCompression | None = None,
) -> list[PauliSum]:
    """Linearly independent basis of the dynamical Lie algebra.

    Worklist of nested commutators, breadth-first in insertion order; each
    result that extends the current span (rank test in string-coefficient
    space) joins the basis.  Brackets are taken against the original
    generators only: left-normed brackets span the generated Lie algebra,
    so a subspace containing the generators and closed under them is the
    full closure, and generator operands keep every product small.  Aborts
    with :class:`ClosureCapExceeded` when the basis outgrows ``cap``
    (default 4^n - 1, the full algebra).

    When called with a :class:`GeneratorSet` of verified-invariant
    generators, span tests run in orbit coordinates.
    """
    if orbits is None:
        orbits = _compression_for(generators)
    gens = list(generators.generators if isinstance(generators, GeneratorSet) else generators)
    if not gens:
        return []
    n = gens[0].n

    def bracket(ki, ci, kg, cg, add):
        add(*product_packed(n, ki, ci, kg, cg, anticommuting_only=True, scale=2.0))

    return _span_closure(n, gens, gens, bracket, 4**n - 1 if cap is None else cap, "Lie", orbits)


def associative_closure(
    l: list[PauliSum],
    cap: int | None = None,
    multipliers: list[PauliSum] | None = None,
    orbits: OrbitCompression | None = None,
) -> list[PauliSum]:
    """Basis of the span generated from L u {identity} under operator products.

    Products that extend the span are added until a fixpoint.  By default
    every basis element is multiplied (both sides) by the elements of L;
    when L is a Lie closure, passing the original circuit generators as
    ``multipliers`` yields the same span much faster: a subspace containing
    L that is closed under one-letter generator multiplication contains
    every word in the generators, i.e. the whole generated algebra, and
    nested commutators already are such words.
    """
    if not l:
        return []
    n = l[0].n

    def left_and_right(ki, ci, km, cm, add):
        add(*product_packed(n, ki, ci, km, cm))
        add(*product_packed(n, km, cm, ki, ci))

    cap = 4**n if cap is None else cap
    mult = l if multipliers is None else multipliers
    # start=1: products with the identity (the first seed) are trivial
    seeds = [PauliSum.identity(n), *l]
    return _span_closure(n, seeds, mult, left_and_right, cap, "associative", orbits, start=1)


@dataclass(frozen=True)
class ClosureBasis:
    lie_basis: tuple[PauliSum, ...]
    full_basis: tuple[PauliSum, ...]

    @property
    def dim_l(self) -> int:
        return len(self.lie_basis)

    @property
    def dim_b(self) -> int:
        return len(self.full_basis)


def closure_basis(
    generators: GeneratorSet | list[PauliSum],
    cap: int | None = None,
) -> ClosureBasis:
    orbits = _compression_for(generators)
    gens = list(generators.generators if isinstance(generators, GeneratorSet) else generators)
    l = lie_closure(gens, cap=cap, orbits=orbits)
    b = associative_closure(
        l, cap=None if cap is None else cap + 1, multipliers=gens, orbits=orbits
    )
    return ClosureBasis(lie_basis=tuple(l), full_basis=tuple(b))


# --------------------------------------------------------------------------
# expressibility
# --------------------------------------------------------------------------
def expressible(
    m: np.ndarray,
    b: list[PauliSum] | tuple[PauliSum, ...],
    rel_tol: float = 1e-9,
) -> tuple[bool, float]:
    """Least-squares projection of a dense matrix onto span_C(B).

    Returns (within_span, residual Frobenius norm); membership holds when
    the residual is below ``rel_tol`` times the matrix norm.
    """
    m = linalg.as_matrix(m)
    if not b:
        return linalg.frobenius_norm(m) == 0.0, linalg.frobenius_norm(m)
    dim = m.shape[0]
    cols = []
    for op in b:
        dm = to_dense(op)
        if dm.shape != m.shape:
            raise ValueError("basis/matrix dimension mismatch")
        cols.append(dm.ravel())
    a = np.array(cols).T
    coeffs, *_ = np.linalg.lstsq(a, m.ravel(), rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - m.ravel()))
    norm = linalg.frobenius_norm(m)
    return residual <= rel_tol * max(norm, 1e-300), residual

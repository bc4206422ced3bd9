"""Symmetric generator sets and the expressibility engine: Lie closure,
associative closure, and span membership of dense matrices.

The geometric symmetry kinds are

* ``Z2xz`` - reflection of an open chain about its middle,
* ``Cn``   - one-site cyclic shift of a ring,
* ``Sn``   - full site permutation.

Closure computations are deterministic: elements are visited breadth-first
in insertion order and Pauli sums are kept in canonical string order, so
the produced bases are identical across runs and platforms.  A closure
always works in the orbit coordinates of a string partition: the coarsest
Sn, Cn or Z2xz partition under which every input sum is invariant, else the
trivial partition with one orbit per string.  The partition is read off the
sums, not off how they are passed.  Each basis element multiplies as one
weighted string per orbit.  A chunk of basis elements is multiplied by all
multipliers in one product call, and each element's products are
span-tested as one block.

The associative closure is one-sided: it multiplies from the left only.
With the multipliers among its seeds, that reaches every word in them, so
it spans the whole algebra they generate, provided L lies in that algebra.
It does for :func:`closure_basis`, where L is the multipliers' Lie closure,
and for the default multipliers, L itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vbe import linalg
from vbe.pauli import (
    SPAN_TOL,
    OrbitCompression,
    PauliSum,
    SpanBasis,
    check_dense_qubits,
    product_packed,
    sum_from_packed,
    to_dense,
)
from vbe.targets import chain_bonds, complete_bonds, heisenberg_graph_terms, make_rng


# --------------------------------------------------------------------------
# generator sets
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorSet:
    """Anti-hermitian circuit generators respecting a declared symmetry.

    ``kind`` labels the symmetry; closures read theirs off the generators.
    """

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
    if kind == "Z2xz":
        bond_orbits: list[tuple[str, list[tuple[int, int]]]] = []
        for i in range(n - 1):
            mirror = n - 2 - i
            if i < mirror:
                bond_orbits.append((f"{[i, mirror]}", [(i, i + 1), (mirror, mirror + 1)]))
            elif i == mirror:
                bond_orbits.append((f"{[i]}", [(i, i + 1)]))
        field_orbits = {f"X{s}": s for s in (sorted({j, n - 1 - j}) for j in range((n + 1) // 2))}
    elif kind == "Cn":
        bond_orbits = [("-ring", chain_bonds(n, periodic=True))]
        field_orbits = {"X-all": list(range(n))}
    elif kind == "Sn":
        bond_orbits = [("-pairs", complete_bonds(n))]
        field_orbits = {"X-all": list(range(n))}
    else:
        raise ValueError(f"no Heisenberg generator set for kind {kind!r}")
    gens: list[PauliSum] = []
    labels: list[str] = []
    for letter in "XYZ":
        for suffix, bonds in bond_orbits:
            couplings = (1j * (l == letter) for l in "XYZ")
            gens.append(heisenberg_graph_terms(n, bonds, *couplings, 0.0))
            labels.append(f"{letter}{letter}{suffix}")
    for label, sites in field_orbits.items():
        gens.append(_field_sum(n, sites))
        labels.append(label)
    return GeneratorSet(kind=kind, n=n, generators=tuple(gens), labels=tuple(labels))


def symmetric_heisenberg_terms(kind: str, n: int, seed: int) -> PauliSum:
    """Random-coefficient Heisenberg Hamiltonian matched to the symmetry.

    Every generator orbit receives an independent coupling with magnitude
    in [0.3, 1] and random sign; keeping magnitudes away from zero avoids
    accidentally degenerate targets in threshold searches.
    """
    rng = make_rng(seed)
    gs = heisenberg_generator_set(kind, n)
    out = PauliSum.zero(n)
    for g in gs.generators:
        c = float(rng.uniform(0.3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        out = out + g * (-1j * c)  # -i maps the anti-hermitian generator to its hermitian term
    return out


# --------------------------------------------------------------------------
# closures
# --------------------------------------------------------------------------
def symmetric_orbit_compression(kind: str, n: int) -> OrbitCompression:
    """String-orbit partition of a geometric symmetry group (Z2xz, Cn or Sn).

    Conjugation by a site permutation maps a Pauli string to a permuted
    string with no phase, so group-invariant sums carry equal coefficients
    on every orbit; the partition feeds :class:`OrbitCompression`.  Each
    string is labelled by an orbit invariant computed over all 4^n packed
    keys at once: its X, Y and Z counts (Sn), the least key over its n
    cyclic shifts (Cn), or the lesser of its key and its mirror image, read
    from a bit-reversal table of the 2^n masks (Z2xz).
    """
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
        # rev[v] is v with its n bits reversed: bit b moves to bit n - 1 - b
        bits = np.arange(n)
        rev = (((np.arange(1 << n)[:, None] >> bits) & 1) << (n - 1 - bits)).sum(axis=1)
        raw = np.minimum(keys, (rev[x] << n) | rev[z])
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    _, ids = np.unique(raw, return_inverse=True)
    return OrbitCompression(ids)


def _invariant(orbits: OrbitCompression, s: PauliSum) -> bool:
    """True when ``s`` lies within SPAN_TOL (relative) of its orbit average Ps.

    Ps puts the mean of each orbit's coefficients on every string of the
    orbit, so ||s - Ps||^2 sums |c - mean|^2 over the support plus |mean|^2
    for each string of a touched orbit that the support misses.  Measuring
    the residual itself, not ||s||^2 - ||Ps||^2, keeps a part of size
    SPAN_TOL from cancelling below the rounding of the squared norms.
    """
    ids = orbits.orbit_ids[s.keys]
    touched = np.bincount(ids, minlength=orbits.count)
    mean = orbits.vector(s.keys, s.coeffs) * orbits.inv_sqrt
    missing = (orbits.sizes - touched) * np.abs(mean) ** 2
    residual = float(np.sum(np.abs(s.coeffs - mean[ids]) ** 2) + np.sum(missing))
    return residual <= SPAN_TOL**2 * float(np.sum(np.abs(s.coeffs) ** 2))


class _Detected(OrbitCompression):
    """A partition that :func:`closure_basis` read off its generators.

    The Lie closure of those generators, and its associative closure under
    them, are invariant under it by construction, so the closures take it
    without re-checking their inputs.  It shares the arrays of the
    partition it wraps.
    """

    def __init__(self, orbits: OrbitCompression):
        self.__dict__.update(vars(orbits))


def _compression_for(sums: list[PauliSum]) -> OrbitCompression:
    """The coarsest Sn, Cn or Z2xz partition under which every sum is
    invariant, else the trivial partition with one orbit per string."""
    n = sums[0].n
    for kind in ("Sn", "Cn", "Z2xz"):  # coarsest first
        orbits = symmetric_orbit_compression(kind, n)
        if all(_invariant(orbits, s) for s in sums):
            return orbits
    return OrbitCompression.trivial(n)


def _partition(orbits: OrbitCompression | None, sums: list[PauliSum]) -> OrbitCompression:
    """The partition a closure of ``sums`` runs in: detected when none is
    given; a caller's is refused when some input is not invariant under it.
    Sums on different qubit counts are refused."""
    counts = sorted({s.n for s in sums})
    if len(counts) > 1:
        raise ValueError(f"closure inputs mix qubit counts {counts}")
    if orbits is None:
        return _compression_for(sums)
    if not isinstance(orbits, _Detected):
        for i, s in enumerate(sums):
            if not _invariant(orbits, s):
                raise ValueError(f"closure input {i} is not invariant under the orbit partition")
    return orbits


# Term pairs per product call of the closure loop: a chunk of basis elements
# is expanded by one call while its product grid stays within this budget,
# which keeps the pair arrays small and the calls few.
_CHUNK_PAIRS = 4096


def _span_closure(
    n: int,
    seeds: list[PauliSum],
    multipliers: list[PauliSum],
    orbits: OrbitCompression,
    *,
    bracket: bool,
    start: int = 0,
) -> list[PauliSum]:
    """Breadth-first closure loop shared by the Lie and associative closures.

    The seeds that extend the span start the basis.  Each basis element from
    index ``start`` on, in insertion order, is then multiplied by all the
    multipliers, and each product that extends the span joins the basis at
    unit norm, until a fixpoint.  The span holds at most 4^n elements, so
    the loop always ends.

    The elements are expanded in chunks: the longest run of unexpanded
    elements, at least one, whose product grid (element terms x multiplier
    terms) stays within :data:`_CHUNK_PAIRS` term pairs.  The loop makes one
    :func:`product_packed` call per chunk, of the chunk's elements
    concatenated and the multipliers concatenated, over a grid of groups:
    element e of the chunk times multiplier m is group
    e * len(multipliers) + m.  With ``bracket`` group (e, m) holds the
    bracket [A_e, G_m]; without it, the left product G_m A_e, for which the
    operands and the group grid are swapped.  Each bin sums the same pairs
    in the same order as a call on element e alone would, so the candidates
    are bitwise those of one call per element.  The span tests stay per
    element: the candidates of element e are folded and tested as one block
    (:meth:`SpanBasis.add_block`) in multiplier order, against the basis as
    it stands after the acceptances of the elements before e.

    Every input is invariant under the orbit partition, so every basis
    element A is too, and it enters the products in representative form:
    A_rep = sum_o a_o |o| rep(o), one weighted string per orbit.  For an
    invariant multiplier G, A G is the group average of A_rep G (and G A,
    [A, G] likewise), so the coefficient A G puts on a string is the sum of
    A_rep G over that string's orbit divided by the orbit size.
    :func:`product_packed` bins the pair products straight into orbit ids
    (``index``), which gives A G's representative form with orbits-in-support
    x terms(G) pairs and no 4^n combine.  Only accepted products are
    expanded into full sums.  Under the trivial partition the representative
    form is the sum itself and the orbit ids are the packed keys.
    """
    span = SpanBasis(n, orbits=orbits)
    basis: list[PauliSum] = []
    forms: list[tuple[np.ndarray, np.ndarray]] = []  # what each basis element multiplies as

    def accept(element: PauliSum) -> None:
        basis.append(element)
        forms.append(orbits.representatives(element.keys, element.coeffs))

    for s in seeds:
        s = s.normalized()
        if span.add_packed(s.keys, s.coeffs):
            accept(s)
    mults = [m.normalized() for m in multipliers]
    if not mults:  # nothing multiplies the seeds, so their span is closed
        return basis
    km = np.concatenate([m.keys for m in mults])
    cm = np.concatenate([m.coeffs for m in mults])
    ids = np.repeat(np.arange(len(mults)), [len(m) for m in mults])
    index = orbits.orbit_ids
    idx = start
    while idx < len(basis):
        stop, terms = idx + 1, len(forms[idx][0])
        while stop < len(basis) and (terms + len(forms[stop][0])) * len(km) <= _CHUNK_PAIRS:
            terms += len(forms[stop][0])
            stop += 1
        chunk = forms[idx:stop]
        ka = np.concatenate([k for k, _ in chunk])
        ca = np.concatenate([c for _, c in chunk])
        owner = np.repeat(np.arange(len(chunk)), [len(k) for k, _ in chunk])
        grid = owner[:, None] * len(mults) + ids
        if bracket:
            out = product_packed(n, ka, ca, km, cm, index=index, bracket=True, groups=grid)
        else:  # the left product G_m A_e: operands and group grid swapped
            out = product_packed(n, km, cm, ka, ca, index=index, groups=grid.T)
        groups, keys, sums = orbits.fold(*out)
        element, cands = np.divmod(groups, len(mults))
        bounds = np.searchsorted(element, np.arange(len(chunk) + 1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            keys_e, sums_e, cands_e = keys[lo:hi], sums[lo:hi], cands[lo:hi]
            for j in np.flatnonzero(span.add_block(keys_e, sums_e, cands_e, len(mults))):
                mine = cands_e == j
                full, coeffs = orbits.expand(keys_e[mine], sums_e[mine])
                accept(sum_from_packed(n, full, coeffs / float(np.linalg.norm(coeffs))))
        idx = stop
    return basis


def lie_closure(
    generators: GeneratorSet | list[PauliSum] | tuple[PauliSum, ...],
    orbits: OrbitCompression | None = None,
) -> list[PauliSum]:
    """Linearly independent basis of the dynamical Lie algebra.

    Worklist of nested commutators, breadth-first in insertion order; each
    result that extends the current span (rank test in string-coefficient
    space) joins the basis.  Brackets are taken against the original
    generators only: left-normed brackets span the generated Lie algebra,
    so a subspace containing the generators and closed under them is the
    full closure, and generator operands keep every product small.  The
    closure may be the full algebra u(2^n), with 4^n elements (when the
    generators include the identity, say).  One product call brackets a
    chunk of basis elements with every generator, and the span tests run
    element by element (:func:`_span_closure`), so the basis is bitwise
    that of one call per element.

    The closure runs in the orbit coordinates of ``orbits``, by default
    the partition detected from the generators; a partition under which
    some generator is not invariant raises ``ValueError``.  A list and a
    :class:`GeneratorSet` of the same generators give the same basis.
    """
    gens = list(generators.generators if isinstance(generators, GeneratorSet) else generators)
    if not gens:
        return []
    n = gens[0].n
    orbits = _partition(orbits, gens)
    return _span_closure(n, gens, gens, orbits, bracket=True)


def associative_closure(
    l: list[PauliSum],
    multipliers: list[PauliSum] | None = None,
    orbits: OrbitCompression | None = None,
) -> list[PauliSum]:
    """Basis of the span generated from L u {identity} under operator products.

    The identity, L and the multipliers seed the span.  Every basis element
    A is then multiplied from the left by each multiplier G, and each
    product G A that extends the span is added, until a fixpoint.  The span
    is then closed under left multiplication, so it holds every word in the
    multipliers: the algebra they generate.  This one-sided rule has a
    precondition: L lies in that algebra, or the span may miss products
    A G.  It holds for the default multipliers, L itself, and when L is the
    Lie closure of the ``multipliers`` (as in :func:`closure_basis`), since
    nested commutators are words in the generators; passing the circuit
    generators there gives the same span much faster.  As in
    :func:`lie_closure`, one product call multiplies a chunk of basis
    elements and the span tests run element by element.

    The closure runs in the orbit coordinates of ``orbits``, by default
    the partition detected from L and the multipliers; a partition under
    which some element of L or some multiplier is not invariant raises
    ``ValueError``.
    """
    if not l:
        return []
    n = l[0].n
    mult = l if multipliers is None else multipliers
    orbits = _partition(orbits, [*l, *mult])
    # start=1: the identity (the first seed) is not expanded, its products
    # are the multipliers, which are seeds
    seeds = [PauliSum.identity(n), *l, *mult]
    return _span_closure(n, seeds, mult, orbits, bracket=False, start=1)


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


def closure_basis(generators: GeneratorSet | list[PauliSum]) -> ClosureBasis:
    """Lie closure L of the generators and associative closure B of L, in
    the orbit coordinates of the partition detected from the generators."""
    gens = list(generators.generators if isinstance(generators, GeneratorSet) else generators)
    if not gens:
        return ClosureBasis(lie_basis=(), full_basis=())
    orbits = _Detected(_partition(None, gens))
    l = lie_closure(gens, orbits=orbits)
    b = associative_closure(l, multipliers=gens, orbits=orbits)
    return ClosureBasis(lie_basis=tuple(l), full_basis=tuple(b))


# --------------------------------------------------------------------------
# expressibility
# --------------------------------------------------------------------------
def expressible(m: np.ndarray, b: list[PauliSum] | tuple[PauliSum, ...]) -> tuple[bool, float]:
    """Least-squares projection of a dense matrix onto span_C(B).

    Returns (within_span, residual Frobenius norm); membership holds when
    the residual is below :data:`~vbe.pauli.SPAN_TOL` times the matrix norm.
    """
    m = linalg.as_matrix(m)
    norm = float(np.linalg.norm(m))
    if not b:
        return norm == 0.0, norm
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
    return residual <= SPAN_TOL * max(norm, 1e-300), residual

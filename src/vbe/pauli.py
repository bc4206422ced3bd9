"""Exact symbolic algebra over n-qubit Pauli strings and weighted Pauli sums.

A Pauli string is stored as a pair of n-bit masks (X part, Z part).  Bit j of
a mask corresponds to qubit j through position ``n-1-j``, which makes the
integer masks read like computational basis indices and keeps ``to_dense``
consistent with the ancilla-first tensor ordering used everywhere else.

A :class:`PauliSum` is a complex-weighted combination of strings over a fixed
qubit count, held in one representation: ascending packed keys
``(x << n) | z`` and their coefficients as two arrays.  Coefficients with
magnitude at most :data:`PRUNE_TOL` are dropped after every arithmetic
operation (:func:`sum_from_packed`) so that cancellation residue cannot blow
up the term count inside closure loops.

Equal keys are summed in one place, :func:`_combine`, a sort of the keys
and one ``bincount`` per real and imaginary part.  Sums go through it, so
``+`` and ``-`` work up to :data:`MAX_KEY_QUBITS`, where the packed keys
fill int64.  Every product has one path: ``@``, :func:`commutator`,
:func:`mul_strings` and the closure loops all call :func:`product_packed`,
which multiplies all term pairs as arrays, puts each pair in a bin (its
packed key, or an orbit id per key for the orbit-coordinate closures of
:mod:`vbe.symmetry`, with an optional group per pair above the key range)
and combines equal bins through :func:`_combine`, at a cost set by the pair
count alone.  One call thus multiplies a chunk of closure elements by all
their multipliers at once.  Like dense conversion, the 4^n key range caps
products and string partitions at :data:`MAX_DENSE_QUBITS` qubits.

:class:`OrbitCompression` is a partition of the strings into orbits: those
of a symmetry group, or the trivial one with one orbit per string.  It gives
the representative form of invariant sums (one weighted string per orbit),
and the orbit coordinates, the only coordinates in which :class:`SpanBasis`
tests a block of candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRUNE_TOL = 1e-13
SPAN_TOL = 1e-9  # relative linear-independence tolerance
MAX_DENSE_QUBITS = 9
MAX_KEY_QUBITS = 31  # a packed key (x << n) | z must fit in int64

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex128)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis over n qubits."""

    n: int
    x: int
    z: int

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        n = len(letters)
        x = z = 0
        for j, ch in enumerate(letters):
            try:
                bx, bz = _LETTER_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            pos = n - 1 - j
            x |= bx << pos
            z |= bz << pos
        return cls(n, x, z)

    @classmethod
    def from_key(cls, n: int, key: int) -> "PauliString":
        return cls(n, key >> n, key & ((1 << n) - 1))

    @property
    def key(self) -> int:
        """Packed key ``(x << n) | z``."""
        return (self.x << self.n) | self.z

    @property
    def letters(self) -> str:
        return "".join(
            _BITS_TO_LETTER[((self.x >> (self.n - 1 - j)) & 1, (self.z >> (self.n - 1 - j)) & 1)]
            for j in range(self.n)
        )

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x | self.z).bit_count()

    def __str__(self) -> str:
        return self.letters


def mul_strings(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Product of two strings: p*q == phase * r with phase in {1, i, -1, -i}."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} vs {q.n}")
    one = np.ones(1, dtype=np.complex128)
    (key,), (phase,) = product_packed(p.n, np.array([p.key]), one, np.array([q.key]), one)
    return complex(phase), PauliString.from_key(p.n, int(key))


class PauliSum:
    """Complex-weighted combination of Pauli strings on a fixed qubit count.

    ``keys`` holds the packed strings ``(x << n) | z`` in ascending order
    (int64) and ``coeffs`` their coefficients (complex128), each larger than
    :data:`PRUNE_TOL` in magnitude.  The constructor takes the arrays as
    they are; :func:`sum_from_packed` prunes and wraps unchecked arrays.
    """

    __slots__ = ("n", "keys", "coeffs")

    def __init__(self, n: int, keys: np.ndarray, coeffs: np.ndarray):
        self.n = n
        self.keys = keys
        self.coeffs = coeffs

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "PauliSum":
        return cls(n, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128))

    @classmethod
    def from_terms(cls, terms: dict[str, complex]) -> "PauliSum":
        """Build from a {letters: coeff} mapping, e.g. {"ZZI": 1j}.

        A NaN or infinite coefficient raises ``ValueError`` naming its string.
        """
        if not terms:
            raise ValueError("cannot infer qubit count from an empty mapping")
        lengths = {len(s) for s in terms}
        if len(lengths) != 1:
            raise ValueError("all strings must share the same length")
        n = lengths.pop()
        if n > MAX_KEY_QUBITS:
            raise ValueError(f"packed keys hold at most {MAX_KEY_QUBITS} qubits, got {n}")
        # distinct letter strings are distinct keys, so sorting is all the combining
        keys = np.array([PauliString.from_letters(s).key for s in terms], dtype=np.int64)
        coeffs = np.array([complex(c) for c in terms.values()], dtype=np.complex128)
        for s, c in zip(terms, coeffs):
            if not np.isfinite(c):
                raise ValueError(f"coefficient of {s} is not finite: {c}")
        order = np.argsort(keys)
        return sum_from_packed(n, keys[order], coeffs[order])

    # ---- basic structure ----------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    def is_zero(self) -> bool:
        return len(self.keys) == 0

    def strings(self) -> list[PauliString]:
        return [PauliString.from_key(self.n, k) for k in self.keys.tolist()]

    def items(self) -> list[tuple[PauliString, complex]]:
        """Terms in canonical (lexicographic letters) order."""
        out = [(p, complex(c)) for p, c in zip(self.strings(), self.coeffs)]
        out.sort(key=lambda t: t[0].letters)
        return out

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_antihermitian(self) -> bool:
        """True when every coefficient is purely imaginary (strings are hermitian),
        to 1e-12 relative to the coefficient norm."""
        scale = max(self.coeff_norm(), 1.0)
        return bool(np.all(np.abs(self.coeffs.real) <= 1e-12 * scale))

    # ---- algebra -------------------------------------------------------
    def _check(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")

    def _merge(self, other: "PauliSum", sign: float) -> "PauliSum":
        """self + sign * other, combining equal strings through :func:`_combine`."""
        self._check(other)
        keys = np.concatenate((self.keys, other.keys))
        coeffs = np.concatenate((self.coeffs, sign * other.coeffs))
        return sum_from_packed(self.n, *_combine(keys, coeffs))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return self._merge(other, 1.0)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self._merge(other, -1.0)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, self.keys, -self.coeffs)

    def __mul__(self, scalar: complex) -> "PauliSum":
        if not np.isfinite(scalar):
            raise ValueError(f"scalar is not finite: {scalar}")
        return sum_from_packed(self.n, self.keys, self.coeffs * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Exact operator product."""
        self._check(other)
        keys, coeffs = product_packed(self.n, self.keys, self.coeffs, other.keys, other.coeffs)
        return sum_from_packed(self.n, keys, coeffs)

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n, self.keys, self.coeffs.conj())

    def normalized(self) -> "PauliSum":
        nrm = self.coeff_norm()
        if nrm == 0.0:
            return self
        return self * (1.0 / nrm)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"PauliSum(0, n={self.n})"
        parts = [f"({c:.6g})*{p.letters}" for p, c in self.items()]
        return " + ".join(parts)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Exact [a, b] = ab - ba.

    Two Pauli strings either commute (zero contribution) or anticommute
    (contribution 2ab), so only the anticommuting term pairs are multiplied.
    """
    a._check(b)
    keys, coeffs = product_packed(a.n, a.keys, a.coeffs, b.keys, b.coeffs, bracket=True)
    return sum_from_packed(a.n, keys, coeffs)


def check_dense_qubits(n: int, what: str) -> None:
    """Refuse work whose tables grow as 2^n x 2^n or 4^n beyond MAX_DENSE_QUBITS."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing {what} for n={n} > {MAX_DENSE_QUBITS} qubits")


def to_dense(s: PauliSum) -> np.ndarray:
    """Dense 2^n matrix of the sum.

    A string has one nonzero per column, at row ``col ^ x``, so the matrix
    is one term-major scatter-add of every string's 2^n entries at the flat
    indices ``row * 2^n + col``: O(terms * 2^n) work.
    """
    check_dense_qubits(s.n, "dense conversion")
    dim = 1 << s.n
    cols = np.arange(dim)
    x, z = (s.keys >> s.n)[:, None], (s.keys & (dim - 1))[:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    phases = _I_POWERS[np.bitwise_count(x & z) & 3]
    amps = (s.coeffs[:, None] * (phases * signs)).ravel()
    flat = (((cols ^ x) << s.n) | cols).ravel()
    out = np.empty(dim * dim, dtype=np.complex128)
    out.real = np.bincount(flat, amps.real, dim * dim)
    out.imag = np.bincount(flat, amps.imag, dim * dim)
    return out.reshape(dim, dim)


def sum_from_packed(n: int, keys: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Sum over ascending unique packed keys, dropping coefficients at or below PRUNE_TOL."""
    keep = np.abs(coeffs) > PRUNE_TOL
    return PauliSum(n, keys[keep], coeffs[keep])


def _combine(bins: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bins, ascending, and each bin's summed coefficient.

    This is the one sum by key of the package.  The inverse that
    ``np.unique`` returns is each term's rank among the distinct bins, and
    one ``bincount`` per real and imaginary part adds the terms of a bin in
    input order, so the sums do not depend on how the sort orders them.  The
    cost depends only on the term count, not on the range of the bins.
    Nothing is pruned.
    """
    keys, inverse = np.unique(bins, return_inverse=True)
    re = np.bincount(inverse, weights=coeffs.real, minlength=len(keys))
    im = np.bincount(inverse, weights=coeffs.imag, minlength=len(keys))
    return keys, re + 1j * im


def product_packed(
    n: int,
    k1: np.ndarray,
    c1: np.ndarray,
    k2: np.ndarray,
    c2: np.ndarray,
    index: np.ndarray | None = None,
    *,
    bracket: bool = False,
    groups: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Product of two string sums given as packed (keys, coeffs) arrays.

    This is the only Pauli product in the package.  All term pairs are
    multiplied at once as outer arrays.  With ``bracket`` it is the
    commutator instead: the commuting pairs are dropped and every
    anticommuting pair counts twice (ab - ba = 2ab).  Each pair lands in a
    bin: its packed key by default, or ``index[key]`` when an ``index``
    array maps every packed key to a bin (an :class:`OrbitCompression`'s
    orbit ids, say).  ``groups``, integers
    that broadcast over the (len(k1), len(k2)) pair grid, split one call
    into several products: a pair's bin becomes ``(group << 2n) | bin``, so
    one call multiplies several sums, concatenated, by several others, each
    pair of sums in its own group.  A group's bins sum the same pairs in the
    same order as a call on its two sums alone, so they equal that call's
    bitwise.

    Equal bins are combined by :func:`_combine`, so each bin sums its pairs
    in the order they were formed and the cost depends only on the pair
    count, not on the 4^n key range.  The key range still caps n at
    :data:`MAX_DENSE_QUBITS`, as ``index`` tables do.  Returns (bins,
    coeffs) with bins ascending and combined coefficients of magnitude at
    most :data:`PRUNE_TOL` dropped.
    """
    check_dense_qubits(n, "a Pauli product")
    mask = (1 << n) - 1
    x1, z1 = k1 >> n, k1 & mask
    x2, z2 = k2 >> n, k2 & mask
    y1 = np.bitwise_count(x1 & z1)[:, None]
    y2 = np.bitwise_count(x2 & z2)[None, :]
    xr = x1[:, None] ^ x2[None, :]
    zr = z1[:, None] ^ z2[None, :]
    reorder = np.bitwise_count(z1[:, None] & x2[None, :])
    coeff = c1[:, None] * c2[None, :]
    grid = coeff.shape
    if bracket:
        keep = ((np.bitwise_count(x1[:, None] & z2[None, :]) + reorder) & 1) == 1

        def pick(a):
            return a[keep]

    else:
        pick = np.ravel
    xr, zr = pick(xr), pick(zr)
    # bitwise_count arithmetic happens in uint8; wraparound is harmless here
    # because 256 is a multiple of 4 and only the value mod 4 matters
    k = (pick(y1 + y2) - np.bitwise_count(xr & zr) + 2 * pick(reorder)) & 3
    coeff = pick(coeff) * (2.0 * _I_POWERS if bracket else _I_POWERS)[k]
    bins = (xr << n) | zr
    if index is not None:
        bins = index[bins]
    if groups is not None:
        group = np.broadcast_to(np.asarray(groups, dtype=np.int64), grid)
        bins = (pick(group) << (2 * n)) | bins
    bins, sums = _combine(bins, coeff)
    keep = sums.real * sums.real + sums.imag * sums.imag > PRUNE_TOL * PRUNE_TOL
    return bins[keep], sums[keep]


class OrbitCompression:
    """A partition of the strings into orbits and the coordinates it gives invariant sums.

    ``orbit_ids`` maps every packed key to its orbit, ``sizes`` counts each
    orbit's strings and ``reps`` holds each orbit's smallest key.  The orbits
    are those of a symmetry group, or one per string (:meth:`trivial`),
    under which every sum is invariant.  An invariant sum has one
    coefficient a_o per orbit, so it is fixed by its *representative form*:
    the representatives rep(o), weighted by the orbit sums a_o * |o|.
    :meth:`representatives` and :meth:`fold` give that form, :meth:`expand`
    turns it back into the full sum, and :mod:`vbe.symmetry` multiplies it
    by invariant sums.

    As span coordinates, a sum maps to (sum over each orbit) / sqrt(size).
    That map preserves inner products exactly on the invariant subspace,
    which makes span tests independent of how many strings the sums touch.
    """

    def __init__(self, orbit_ids: np.ndarray):
        self.orbit_ids = np.ascontiguousarray(orbit_ids, dtype=np.int64)
        self.sizes = np.bincount(self.orbit_ids)
        self.count = len(self.sizes)
        # packed keys grouped by orbit, ascending within each orbit
        self._members = np.argsort(self.orbit_ids, kind="stable")
        self._starts = np.cumsum(self.sizes) - self.sizes
        self.reps = self._members[self._starts]
        self.inv_sqrt = 1.0 / np.sqrt(self.sizes.astype(np.float64))

    @classmethod
    def trivial(cls, n: int) -> "OrbitCompression":
        """One orbit per string: orbit ids are the packed keys themselves."""
        check_dense_qubits(n, "a string-indexed span")
        return cls(np.arange(1 << (2 * n), dtype=np.int64))

    def _sums(self, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        ids = self.orbit_ids[keys]
        re = np.bincount(ids, weights=coeffs.real, minlength=self.count)
        im = np.bincount(ids, weights=coeffs.imag, minlength=self.count)
        return re + 1j * im

    def vector(self, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Span coordinates of a sum: its orbit sums over sqrt(size)."""
        return self._sums(keys, coeffs) * self.inv_sqrt

    def fold(
        self, bins: np.ndarray, sums: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Representative forms from orbit bins and orbit sums.

        A bin is ``(group << 2n) | orbit id``, as :func:`product_packed`
        returns them with ``groups``; the result is (groups, representative
        keys, sums), so one call folds the products of several sums.
        Orbits whose per-string coefficient sum / size is at most
        :data:`PRUNE_TOL` in magnitude are dropped, as a full sum would drop
        those strings.
        """
        groups, ids = np.divmod(bins, len(self.orbit_ids))
        keep = np.abs(sums) > PRUNE_TOL * self.sizes[ids]
        return groups[keep], self.reps[ids[keep]], sums[keep]

    def representatives(self, keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representative form of an invariant sum."""
        sums = self._sums(keys, coeffs)
        ids = np.flatnonzero(sums)
        _, reps, sums = self.fold(ids, sums[ids])
        return reps, sums

    def expand(self, keys: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full sum (ascending keys, coefficients) of a representative form."""
        ids = self.orbit_ids[keys]
        lengths = self.sizes[ids]
        offsets = np.repeat(self._starts[ids] - (np.cumsum(lengths) - lengths), lengths)
        full = self._members[offsets + np.arange(len(offsets))]
        order = np.argsort(full)
        return full[order], np.repeat(sums / lengths, lengths)[order]


class _Rows:
    """Span coordinates: one row per orbit of an :class:`OrbitCompression`,
    assigned the first time a block touches it.

    A direct-index table over the orbit ids maps each orbit to its row, and
    a sum's row holds its orbit sum over sqrt(size), as in
    :meth:`OrbitCompression.vector`.  So ``block`` maps the terms of a whole
    block of sums, each tagged with its column, by one gather and one
    scatter-add; the rows stay proportional to the support seen so far, and
    a new row is zero in every vector mapped before it, which keeps earlier
    vectors' coordinates valid as the row count grows.
    """

    def __init__(self, orbits: OrbitCompression):
        self._orbits = orbits
        self._table = np.full(orbits.count, -1, dtype=np.int32)
        self.count = 0

    def block(
        self, keys: np.ndarray, coeffs: np.ndarray, cols: np.ndarray, count: int
    ) -> np.ndarray:
        """Coordinates of ``count`` sums given as terms and the column each term belongs to."""
        bins = self._orbits.orbit_ids[keys]
        coeffs = coeffs * self._orbits.inv_sqrt[bins]
        rows = self._table[bins]
        new = rows < 0
        if np.any(new):
            fresh = np.sort(bins[new])
            # distinct bins by hand: np.unique imports numpy.ma (about 1 MB) on first use
            fresh = fresh[np.diff(fresh, prepend=-1) > 0]
            self._table[fresh] = self.count + np.arange(len(fresh))
            self.count += len(fresh)
            rows = self._table[bins]
        flat = rows * count + cols
        out = np.empty(self.count * count, dtype=np.complex128)
        out.real = np.bincount(flat, weights=coeffs.real, minlength=len(out))
        out.imag = np.bincount(flat, weights=coeffs.imag, minlength=len(out))
        return out.reshape(self.count, count)


class SpanBasis:
    """Incrementally orthonormalized span of Pauli sums in string-coefficient space.

    :meth:`add_block` tests candidates in order and keeps each one whose
    Gram-Schmidt residual exceeds :data:`SPAN_TOL` relative to its norm;
    :meth:`add_packed` and :meth:`add` are its one-column case.  The residual
    is taken in the orbit coordinates of an :class:`OrbitCompression`, one
    row per orbit, which is sound when every sum passed in is invariant
    under the partition.  By default the partition is
    :meth:`OrbitCompression.trivial`, one row per string, under which every
    sum is.  Rows are assigned on first sight, so the projection cost stays
    proportional to the support of the span and the candidates seen so far.
    """

    def __init__(self, n: int, orbits: OrbitCompression | None = None):
        self.n = n
        self._coords = _Rows(orbits or OrbitCompression.trivial(n))
        self.size = 0
        self._q = np.zeros((0, 16), dtype=np.complex128)

    def _reserve(self, rows: int, cols: int) -> None:
        if rows > self._q.shape[0]:
            # Rows are C-order and added at the end, so growing them in place
            # (one realloc, the new rows zeroed) keeps every column valid and
            # never holds two copies of Q.  No view of Q outlives add_block,
            # so none can point at the old buffer.
            self._q.resize((rows, self._q.shape[1]), refcheck=False)
        if cols > self._q.shape[1]:
            grown = np.zeros((self._q.shape[0], 2 * self._q.shape[1]), dtype=np.complex128)
            grown[:, : self.size] = self._q[:, : self.size]
            self._q = grown

    def add_block(
        self, keys: np.ndarray, coeffs: np.ndarray, cols: np.ndarray, count: int
    ) -> np.ndarray:
        """Add ``count`` sums in column order; returns one flag per sum, True
        where it extended the basis.

        The sums arrive as one packed (keys, coeffs) array of all their terms
        and ``cols``, the column (0 .. count-1) of each term; a column with
        no terms is a zero sum.  The answers are those of one
        :meth:`add_packed` call per sum, in column order.  A basis as large
        as the row count, the block's rows counted, spans every coordinate
        vector, so it rejects the whole block without projecting.  Otherwise
        the block is projected off the basis held before the call by one
        pass of (I - QQ^H), a pair of matrix products.  A projection never
        lengthens a vector, so a candidate already within tolerance there is
        dropped; the rest take a second (re-orthogonalization) pass as one
        block, and then, one at a time, two passes against the columns
        accepted earlier in this block.
        """
        v = self._coords.block(keys, coeffs, cols, count)
        rows = v.shape[0]
        accepted = np.zeros(count, dtype=bool)
        if self.size == rows:  # Q spans every row, so it holds every candidate
            return accepted
        floor = (SPAN_TOL**2) * np.sum(np.abs(v) ** 2, axis=0)
        self._reserve(rows, self.size)
        q = self._q[:, : self.size]
        # (V^H Q)^H equals Q^H V without copying a conjugate of Q
        r = v - q @ (v.conj().T @ q).conj().T
        live = np.flatnonzero(np.sum(np.abs(r) ** 2, axis=0) > floor)
        r = r[:, live]
        r -= q @ (r.conj().T @ q).conj().T
        first = self.size
        for j, rj in zip(live, r.T):
            if self.size > first:
                q = self._q[:, first : self.size]
                rj = rj - q @ (rj.conj() @ q).conj()
                rj -= q @ (rj.conj() @ q).conj()
            # a zero candidate has a zero residual and is never kept
            if float(np.sum(np.abs(rj) ** 2)) <= floor[j]:
                continue
            self._reserve(rows, self.size + 1)
            self._q[:, self.size] = rj / float(np.linalg.norm(rj))
            self.size += 1
            accepted[j] = True
        return accepted

    def add_packed(self, keys: np.ndarray, coeffs: np.ndarray) -> bool:
        """Add the sum to the span; returns True when it extended the basis."""
        return bool(self.add_block(keys, coeffs, np.zeros(len(keys), dtype=np.int64), 1)[0])

    def add(self, s: PauliSum) -> bool:
        """Add ``s`` to the span; returns True when it extended the basis."""
        if s.n != self.n:
            raise ValueError(f"qubit count mismatch: {s.n} vs {self.n}")
        return self.add_packed(s.keys, s.coeffs)


# ---- text format -------------------------------------------------------
def format_pauli_sum(s: PauliSum) -> str:
    """One term per line: ``<coeff_re> <coeff_im> <letters>``.

    A zero sum is the single line ``0 0 I...I``, which keeps its qubit count.
    """
    lines = [f"{c.real:.17g} {c.imag:.17g} {p.letters}" for p, c in s.items()]
    return "\n".join(lines) or f"0 0 {'I' * s.n}"


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the text format produced by :func:`format_pauli_sum`."""
    terms: dict[str, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected '<re> <im> <letters>', got {raw!r}")
        re_s, im_s, letters = fields
        coeff = complex(float(re_s), float(im_s))
        terms[letters] = terms.get(letters, 0.0) + coeff
    return PauliSum.from_terms(terms)


def parse_generator_file(text: str) -> list[PauliSum]:
    """Parse a set of Pauli sums separated by blank lines; '#' starts a comment."""
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append(line)
    sums = [parse_pauli_sum("\n".join(b)) for b in blocks if b]
    if not sums:
        raise ValueError("no Pauli sums found")
    ns = {s.n for s in sums}
    if len(ns) != 1:
        raise ValueError("all generators must share one qubit count")
    return sums

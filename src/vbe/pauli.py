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

Sums combine equal strings by sort, so ``+`` and ``-`` work up to
:data:`MAX_KEY_QUBITS`, where the packed keys fill int64.  Every product has
one path: ``@``, :func:`commutator`, :func:`mul_strings` and the closure
loops all call :func:`product_packed`, which multiplies all term pairs as
arrays and combines equal result strings over the 4^n packed keys.  Like
dense conversion, that key range caps products and the plain
:class:`SpanBasis` at :data:`MAX_DENSE_QUBITS` qubits.
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

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


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


def _string_dense(n: int, x: int, z: int) -> np.ndarray:
    dim = 1 << n
    cols = np.arange(dim)
    rows = cols ^ x
    ny = (x & z).bit_count()
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    amps = _I_POWERS[ny & 3] * signs
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[rows, cols] = amps
    return m


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
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        keys = np.zeros(1, dtype=np.int64)
        return sum_from_packed(n, keys, np.array([coeff], dtype=np.complex128))

    @classmethod
    def from_terms(cls, terms: dict[str, complex]) -> "PauliSum":
        """Build from a {letters: coeff} mapping, e.g. {"ZZI": 1j}."""
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

    def is_antihermitian(self, tol: float = 1e-12) -> bool:
        """True when every coefficient is purely imaginary (strings are hermitian)."""
        scale = max(self.coeff_norm(), 1.0)
        return bool(np.all(np.abs(self.coeffs.real) <= tol * scale))

    # ---- algebra -------------------------------------------------------
    def _check(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")

    def _merge(self, other: "PauliSum", sign: float) -> "PauliSum":
        """self + sign * other, combining equal strings by sort."""
        self._check(other)
        keys, inverse = np.unique(np.concatenate((self.keys, other.keys)), return_inverse=True)
        coeffs = np.concatenate((self.coeffs, sign * other.coeffs))
        re = np.bincount(inverse, weights=coeffs.real, minlength=len(keys))
        im = np.bincount(inverse, weights=coeffs.imag, minlength=len(keys))
        return sum_from_packed(self.n, keys, re + 1j * im)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return self._merge(other, 1.0)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self._merge(other, -1.0)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, self.keys, -self.coeffs)

    def __mul__(self, scalar: complex) -> "PauliSum":
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
    keys, coeffs = product_packed(
        a.n, a.keys, a.coeffs, b.keys, b.coeffs, anticommuting_only=True, scale=2.0
    )
    return sum_from_packed(a.n, keys, coeffs)


def pairwise_commuting(s: PauliSum) -> bool:
    """True iff every pair of constituent strings commutes."""
    x, z = s.keys >> s.n, s.keys & ((1 << s.n) - 1)
    odd = np.bitwise_count(x[:, None] & z[None, :]) + np.bitwise_count(z[:, None] & x[None, :])
    return not np.any(odd & 1)


def check_dense_qubits(n: int, what: str) -> None:
    """Refuse work whose tables grow as 2^n x 2^n or 4^n beyond MAX_DENSE_QUBITS."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing {what} for n={n} > {MAX_DENSE_QUBITS} qubits")


def to_dense(s: PauliSum) -> np.ndarray:
    """Dense 2^n matrix of the sum."""
    check_dense_qubits(s.n, "dense conversion")
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for p, c in zip(s.strings(), s.coeffs):
        out += c * _string_dense(s.n, p.x, p.z)
    return out


def string_to_dense(p: PauliString) -> np.ndarray:
    return _string_dense(p.n, p.x, p.z)


def sum_from_packed(n: int, keys: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Sum over ascending unique packed keys, dropping coefficients at or below PRUNE_TOL."""
    keep = np.abs(coeffs) > PRUNE_TOL
    return PauliSum(n, keys[keep], coeffs[keep])


def product_packed(
    n: int,
    k1: np.ndarray,
    c1: np.ndarray,
    k2: np.ndarray,
    c2: np.ndarray,
    anticommuting_only: bool = False,
    scale: complex = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Product of two string sums given as packed (keys, coeffs) arrays.

    This is the only Pauli product in the package.  All term pairs are
    multiplied at once as outer arrays; with ``anticommuting_only`` the
    commuting pairs are dropped, which together with ``scale=2`` yields the
    commutator.  Equal result strings are combined with ``bincount`` over
    the whole 4^n packed key range (no sort), so the cost is linear in term
    pairs plus 4^n, and n is capped at :data:`MAX_DENSE_QUBITS`.  Returns
    pruned (keys, coeffs) with keys ascending.
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
    coeff = np.outer(c1, c2)
    if anticommuting_only:
        keep = ((np.bitwise_count(x1[:, None] & z2[None, :]) + reorder) & 1) == 1
        if not np.any(keep):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128)
        xr, zr = xr[keep], zr[keep]
        y_sum = np.broadcast_to(y1 + y2, keep.shape)[keep]
        reorder = reorder[keep]
        coeff = coeff[keep]
    else:
        y_sum = (y1 + y2).ravel()
        xr, zr = xr.ravel(), zr.ravel()
        reorder = reorder.ravel()
        coeff = coeff.ravel()
    # bitwise_count arithmetic happens in uint8; wraparound is harmless here
    # because 256 is a multiple of 4 and only the value mod 4 matters
    k = (y_sum - np.bitwise_count(xr & zr) + 2 * reorder) & 3
    coeff = coeff * (scale * np.asarray(_I_POWERS, dtype=np.complex128))[k]
    keys = (xr << n) | zr
    span = 1 << (2 * n)
    acc_re = np.bincount(keys, weights=coeff.real, minlength=span)
    acc_im = np.bincount(keys, weights=coeff.imag, minlength=span)
    nz = np.flatnonzero(acc_re * acc_re + acc_im * acc_im > PRUNE_TOL * PRUNE_TOL)
    return nz.astype(np.int64), acc_re[nz] + 1j * acc_im[nz]


class OrbitCompression:
    """Isometric compression of string-coefficient vectors onto string orbits.

    For sums known to be invariant under a symmetry group, coefficients are
    constant on each group orbit of strings, so the vector is determined by
    one amplitude per orbit.  Mapping v to (sum over the orbit) / sqrt(size)
    preserves inner products exactly on the invariant subspace, which makes
    span tests independent of how many strings the sums touch.
    """

    def __init__(self, orbit_ids: np.ndarray):
        self.orbit_ids = np.ascontiguousarray(orbit_ids, dtype=np.int64)
        sizes = np.bincount(self.orbit_ids)
        self.count = len(sizes)
        self._inv_sqrt = 1.0 / np.sqrt(sizes.astype(np.float64))

    def vector(self, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        ids = self.orbit_ids[keys]
        re = np.bincount(ids, weights=coeffs.real, minlength=self.count)
        im = np.bincount(ids, weights=coeffs.imag, minlength=self.count)
        return (re + 1j * im) * self._inv_sqrt


class _StringRows:
    """One coordinate per string, assigned the first time a vector touches it.

    A direct-index table over the 4^n packed keys maps each string to its
    row, so ``vector`` is one gather and one scatter.  A new row is zero in
    every vector mapped before it, which keeps earlier vectors' coordinates
    valid as the row count grows.
    """

    def __init__(self, n: int):
        check_dense_qubits(n, "a string-indexed span")
        self._table = np.full(1 << (2 * n), -1, dtype=np.int32)
        self.count = 0

    def vector(self, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        rows = self._table[keys]
        new = rows < 0
        if np.any(new):
            fresh = self.count + np.arange(np.count_nonzero(new), dtype=np.int32)
            rows[new] = self._table[keys[new]] = fresh
            self.count += len(fresh)
        v = np.zeros(self.count, dtype=np.complex128)
        v[rows] = coeffs
        return v


class SpanBasis:
    """Incrementally orthonormalized span of Pauli sums in string-coefficient space.

    Membership is a Gram-Schmidt residual test (two classical passes) with a
    drop tolerance relative to the candidate norm.  Both :meth:`add_packed`
    and :meth:`contains_packed` go through one residual path over one of two
    coordinate maps:

    * by default, one row per string, assigned on first sight, so the
      projection cost stays proportional to the support of the span and the
      candidates seen so far;
    * with an :class:`OrbitCompression`, one row per string orbit; this is
      only sound when every sum passed in is invariant under the
      compressing group.
    """

    def __init__(self, n: int, tol: float = SPAN_TOL, orbits: OrbitCompression | None = None):
        self.n = n
        self.tol = tol
        self._coords = _StringRows(n) if orbits is None else orbits
        self._q = np.zeros((max(64, self._coords.count), 16), dtype=np.complex128)
        self.size = 0

    def _reserve(self, rows: int, cols: int) -> None:
        cap_rows, cap_cols = self._q.shape
        if rows > cap_rows or cols > cap_cols:
            grown = np.zeros(
                (
                    max(rows, 2 * cap_rows) if rows > cap_rows else cap_rows,
                    2 * cap_cols if cols > cap_cols else cap_cols,
                ),
                dtype=np.complex128,
            )
            grown[:cap_rows, : self.size] = self._q[:, : self.size]
            self._q = grown

    def _residual(self, keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray | None:
        """Part of the candidate orthogonal to the span, or None when it lies in the span."""
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if norm_sq == 0.0:
            return None
        v = self._coords.vector(keys, coeffs)
        self._reserve(len(v), self.size)
        q = self._q[: len(v), : self.size]
        # (x^H Q)^H equals Q^H x without copying a conjugate of Q
        r = v - q @ (v.conj() @ q).conj()
        r -= q @ (r.conj() @ q).conj()  # re-orthogonalization pass
        if float(np.sum(np.abs(r) ** 2)) <= (self.tol**2) * norm_sq:
            return None
        return r

    def contains_packed(self, keys: np.ndarray, coeffs: np.ndarray) -> bool:
        return self._residual(keys, coeffs) is None

    def add_packed(self, keys: np.ndarray, coeffs: np.ndarray) -> bool:
        """Add the sum to the span; returns True when it extended the basis."""
        r = self._residual(keys, coeffs)
        if r is None:
            return False
        self._reserve(len(r), self.size + 1)
        self._q[: len(r), self.size] = r / float(np.linalg.norm(r))
        self.size += 1
        return True

    # -- PauliSum convenience ----------------------------------------------
    def _check(self, s: PauliSum) -> None:
        if s.n != self.n:
            raise ValueError(f"qubit count mismatch: {s.n} vs {self.n}")

    def contains(self, s: PauliSum) -> bool:
        self._check(s)
        return self.contains_packed(s.keys, s.coeffs)

    def add(self, s: PauliSum) -> bool:
        """Add ``s`` to the span; returns True when it extended the basis."""
        self._check(s)
        return self.add_packed(s.keys, s.coeffs)


def rank_extend(basis: list[PauliSum], candidate: PauliSum) -> bool:
    """True iff ``candidate`` is NOT in the complex linear span of ``basis``."""
    if candidate.is_zero():
        return False
    n = candidate.n
    span = SpanBasis(n)
    for b in basis:
        span.add(b)
    return not span.contains(candidate)


# ---- text format -------------------------------------------------------
def format_pauli_sum(s: PauliSum) -> str:
    """One term per line: ``<coeff_re> <coeff_im> <letters>``."""
    lines = [f"{c.real:.17g} {c.imag:.17g} {p.letters}" for p, c in s.items()]
    return "\n".join(lines)


def parse_pauli_sum(text: str, n: int | None = None) -> PauliSum:
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
    if not terms:
        if n is None:
            raise ValueError("empty Pauli sum without an explicit qubit count")
        return PauliSum.zero(n)
    out = PauliSum.from_terms(terms)
    if n is not None and out.n != n:
        raise ValueError(f"expected {n}-qubit strings, found {out.n}-qubit strings")
    return out


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

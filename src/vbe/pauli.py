"""Exact symbolic algebra over n-qubit Pauli strings and weighted Pauli sums.

A Pauli string is stored as a pair of n-bit masks (X part, Z part).  Bit j of
a mask corresponds to qubit j through position ``n-1-j``, which makes the
integer masks read like computational basis indices and keeps ``to_dense``
consistent with the ancilla-first tensor ordering used everywhere else.

A :class:`PauliSum` is a complex-weighted combination of strings over a fixed
qubit count.  Coefficients with magnitude below :data:`PRUNE_TOL` are dropped
after every arithmetic operation so that cancellation residue cannot blow up
the term count inside closure loops.

Every product has one path: ``@``, :func:`commutator`, :func:`mul_strings`
and the closure loops all call :func:`product_packed`, which multiplies all
term pairs as arrays and combines equal result strings over the 4^n packed
keys.  Like dense conversion, that key range caps products and the plain
:class:`SpanBasis` at :data:`MAX_DENSE_QUBITS` qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRUNE_TOL = 1e-13
SPAN_TOL = 1e-9  # relative linear-independence tolerance
MAX_DENSE_QUBITS = 9

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

    def commutes_with(self, other: "PauliString") -> bool:
        return _keys_commute(self.x, self.z, other.x, other.z)

    def __str__(self) -> str:
        return self.letters


def _keys_commute(x1: int, z1: int, x2: int, z2: int) -> bool:
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


def mul_strings(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """Product of two strings: p*q == phase * r with phase in {1, i, -1, -i}."""
    product = PauliSum(p.n, {(p.x, p.z): 1.0}) @ PauliSum(q.n, {(q.x, q.z): 1.0})
    ((x, z), phase), = product.terms.items()
    return phase, PauliString(p.n, x, z)


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
    """Complex-weighted combination of Pauli strings on a fixed qubit count."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, int], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for key, coeff in terms.items():
                if abs(coeff) > PRUNE_TOL:
                    self.terms[key] = complex(coeff)

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, {(0, 0): coeff})

    @classmethod
    def from_terms(cls, terms: dict[str, complex]) -> "PauliSum":
        """Build from a {letters: coeff} mapping, e.g. {"ZZI": 1j}."""
        if not terms:
            raise ValueError("cannot infer qubit count from an empty mapping")
        lengths = {len(s) for s in terms}
        if len(lengths) != 1:
            raise ValueError("all strings must share the same length")
        n = lengths.pop()
        out = cls(n)
        for letters, coeff in terms.items():
            p = PauliString.from_letters(letters)
            out.terms[(p.x, p.z)] = out.terms.get((p.x, p.z), 0.0) + complex(coeff)
        out._prune()
        return out

    # ---- basic structure ----------------------------------------------
    def _prune(self) -> None:
        drop = [k for k, c in self.terms.items() if abs(c) <= PRUNE_TOL]
        for k in drop:
            del self.terms[k]

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def strings(self) -> list[PauliString]:
        return [PauliString(self.n, x, z) for (x, z) in self.terms]

    def items(self) -> list[tuple[PauliString, complex]]:
        """Terms in canonical (lexicographic letters) order."""
        out = [(PauliString(self.n, x, z), c) for (x, z), c in self.terms.items()]
        out.sort(key=lambda t: t[0].letters)
        return out

    def coeff_norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.terms.values())))

    def is_antihermitian(self, tol: float = 1e-12) -> bool:
        """True when every coefficient is purely imaginary (strings are hermitian)."""
        scale = max(self.coeff_norm(), 1.0)
        return all(abs(c.real) <= tol * scale for c in self.terms.values())

    # ---- algebra -------------------------------------------------------
    def _check(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return PauliSum(self.n, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) - c
        return PauliSum(self.n, terms)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Exact operator product."""
        self._check(other)
        keys, coeffs = product_packed(self.n, *packed_terms(self), *packed_terms(other))
        return sum_from_packed(self.n, keys, coeffs)

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n, {k: c.conjugate() for k, c in self.terms.items()})

    def normalized(self) -> "PauliSum":
        nrm = self.coeff_norm()
        if nrm == 0.0:
            return self
        return self * (1.0 / nrm)

    def __repr__(self) -> str:
        if not self.terms:
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
        a.n, *packed_terms(a), *packed_terms(b), anticommuting_only=True, scale=2.0
    )
    return sum_from_packed(a.n, keys, coeffs)


def pairwise_commuting(s: PauliSum) -> bool:
    """True iff every pair of constituent strings commutes."""
    keys = list(s.terms)
    for i in range(len(keys)):
        x1, z1 = keys[i]
        for j in range(i + 1, len(keys)):
            x2, z2 = keys[j]
            if not _keys_commute(x1, z1, x2, z2):
                return False
    return True


def check_dense_qubits(n: int, what: str) -> None:
    """Refuse work whose tables grow as 2^n x 2^n or 4^n beyond MAX_DENSE_QUBITS."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"refusing {what} for n={n} > {MAX_DENSE_QUBITS} qubits")


def to_dense(s: PauliSum) -> np.ndarray:
    """Dense 2^n matrix of the sum."""
    check_dense_qubits(s.n, "dense conversion")
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for (x, z), c in s.terms.items():
        out += c * _string_dense(s.n, x, z)
    return out


def string_to_dense(p: PauliString) -> np.ndarray:
    return _string_dense(p.n, p.x, p.z)


def packed_terms(s: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """(sorted packed keys (x<<n)|z, coefficients) arrays of a sum."""
    n = s.n
    keys = np.fromiter(((x << n) | z for (x, z) in s.terms), dtype=np.int64, count=len(s.terms))
    coeffs = np.fromiter(s.terms.values(), dtype=np.complex128, count=len(s.terms))
    order = np.argsort(keys)
    return keys[order], coeffs[order]


def sum_from_packed(n: int, keys: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    out = PauliSum(n)
    mask = (1 << n) - 1
    for k, c in zip(keys, coeffs):
        if abs(c) > PRUNE_TOL:
            out.terms[(int(k) >> n, int(k) & mask)] = complex(c)
    return out


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


class SpanBasis:
    """Incrementally orthonormalized span of Pauli sums in string-coefficient space.

    Membership is a Gram-Schmidt residual test with a drop tolerance
    relative to the candidate norm.  Only strings appearing in accepted
    basis vectors are registered (direct-index table over the 4^n packed
    keys); weight on unregistered strings proves independence immediately,
    which keeps the projection cost proportional to the basis support.

    An optional :class:`OrbitCompression` switches the vector space to
    orbit coordinates; this is only sound when every inserted sum is
    invariant under the compressing group.
    """

    def __init__(self, n: int, tol: float = SPAN_TOL, orbits: OrbitCompression | None = None):
        self.n = n
        self.tol = tol
        self.orbits = orbits
        if orbits is None:
            check_dense_qubits(n, "a string-indexed span")
            self._table = np.full(1 << (2 * n), -1, dtype=np.int32)
            self._rows = 0
        else:
            self._table = None
            self._rows = orbits.count
        self._q = np.zeros((max(64, self._rows), 16), dtype=np.complex128)
        self.size = 0

    # -- packed-array core -------------------------------------------------
    def _known_projection(self, keys: np.ndarray, coeffs: np.ndarray):
        rows = self._table[keys]
        known = rows >= 0
        unknown_sq = float(np.sum(np.abs(coeffs[~known]) ** 2))
        v = np.zeros(self._rows, dtype=np.complex128)
        v[rows[known]] = coeffs[known]
        return v, unknown_sq, rows, known

    def _residual_known(self, v: np.ndarray) -> np.ndarray:
        q = self._q[: self._rows, : self.size]
        r = v - q @ (q.conj().T @ v)
        r -= q @ (q.conj().T @ r)  # re-orthogonalization pass
        return r

    def contains_packed(self, keys: np.ndarray, coeffs: np.ndarray) -> bool:
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if norm_sq == 0.0:
            return True
        budget = (self.tol**2) * norm_sq
        if self.orbits is not None:
            r = self._residual_known(self.orbits.vector(keys, coeffs))
            return float(np.sum(np.abs(r) ** 2)) <= budget
        v, unknown_sq, _, _ = self._known_projection(keys, coeffs)
        if unknown_sq > budget:
            return False
        r = self._residual_known(v)
        return unknown_sq + float(np.sum(np.abs(r) ** 2)) <= budget

    def _append_column(self, full: np.ndarray) -> None:
        rows = self._q.shape[0]
        cols = self._q.shape[1]
        if len(full) > rows or self.size == cols:
            new_rows = max(rows, len(full), 2 * rows if len(full) > rows else rows)
            new_cols = 2 * cols if self.size == cols else cols
            grown = np.zeros((new_rows, new_cols), dtype=np.complex128)
            grown[:rows, : self.size] = self._q[:, : self.size]
            self._q = grown
        col = np.zeros(self._q.shape[0], dtype=np.complex128)
        col[: len(full)] = full
        self._q[:, self.size] = col / float(np.linalg.norm(full))
        self.size += 1

    def add_packed(self, keys: np.ndarray, coeffs: np.ndarray) -> bool:
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if norm_sq == 0.0:
            return False
        budget = (self.tol**2) * norm_sq
        if self.orbits is not None:
            r = self._residual_known(self.orbits.vector(keys, coeffs))
            if float(np.sum(np.abs(r) ** 2)) <= budget:
                return False
            self._append_column(r)
            return True
        v, unknown_sq, rows, known = self._known_projection(keys, coeffs)
        r = self._residual_known(v)
        if unknown_sq + float(np.sum(np.abs(r) ** 2)) <= budget:
            return False
        # register the new strings and append the orthonormalized column;
        # the unknown block is orthogonal to every existing column by
        # construction, so only the known block needed projecting
        new_keys = keys[~known]
        self._table[new_keys] = self._rows + np.arange(len(new_keys), dtype=np.int32)
        total_rows = self._rows + len(new_keys)
        full = np.zeros(total_rows, dtype=np.complex128)
        full[: self._rows] = r
        full[self._table[new_keys]] = coeffs[~known]
        self._rows = total_rows
        self._append_column(full)
        return True

    # -- PauliSum convenience ----------------------------------------------
    def _packed(self, s: PauliSum):
        if s.n != self.n:
            raise ValueError(f"qubit count mismatch: {s.n} vs {self.n}")
        return packed_terms(s)

    def contains(self, s: PauliSum) -> bool:
        return self.contains_packed(*self._packed(s))

    def add(self, s: PauliSum) -> bool:
        """Add ``s`` to the span; returns True when it extended the basis."""
        return self.add_packed(*self._packed(s))


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

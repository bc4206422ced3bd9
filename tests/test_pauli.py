import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import string_to_dense
from vbe.pauli import (
    MAX_DENSE_QUBITS,
    MAX_KEY_QUBITS,
    PRUNE_TOL,
    SPAN_TOL,
    PauliString,
    PauliSum,
    SpanBasis,
    commutator,
    format_pauli_sum,
    mul_strings,
    parse_generator_file,
    parse_pauli_sum,
    product_packed,
    to_dense,
)
from vbe.symmetry import symmetric_heisenberg_terms

# fixed examples and no example database, so every run checks the same cases
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_pauli_sum(n, n_terms, rng):
    terms = {}
    for _ in range(n_terms):
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        terms[letters] = complex(rng.standard_normal(), rng.standard_normal())
    return PauliSum.from_terms(terms)


class TestPauliString:
    def test_letters_roundtrip(self):
        for s in ["I", "XYZ", "ZZIX", "YIYI"]:
            assert PauliString.from_letters(s).letters == s

    def test_weight(self):
        assert PauliString.from_letters("IXYI").weight == 2
        assert PauliString.from_letters("III").weight == 0

    def test_dense_matches_kron(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        got = string_to_dense(PauliString.from_letters("XZ"))
        assert np.allclose(got, np.kron(x, z))


class TestMulStrings:
    def test_xy(self):
        phase, r = mul_strings(PauliString.from_letters("X"), PauliString.from_letters("Y"))
        assert phase == 1j
        assert r.letters == "Z"

    def test_zz(self):
        phase, r = mul_strings(PauliString.from_letters("Z"), PauliString.from_letters("Z"))
        assert phase == 1
        assert r.letters == "I"

    def test_xz_zx_two_qubits(self):
        # oracle: dense 4x4 multiplication
        p = PauliString.from_letters("XZ")
        q = PauliString.from_letters("ZX")
        phase, r = mul_strings(p, q)
        dense = string_to_dense(p) @ string_to_dense(q)
        assert np.allclose(dense, phase * string_to_dense(r))
        assert r.letters == "YY"
        assert phase == pytest.approx(1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mul_strings(PauliString.from_letters("X"), PauliString.from_letters("XX"))

    def test_dense_agreement_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = "".join(rng.choice(list("IXYZ"), size=n))
            b = "".join(rng.choice(list("IXYZ"), size=n))
            p, q = PauliString.from_letters(a), PauliString.from_letters(b)
            phase, r = mul_strings(p, q)
            assert np.allclose(
                string_to_dense(p) @ string_to_dense(q), phase * string_to_dense(r)
            )

    def test_associative_up_to_dense(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            strs = [
                PauliString.from_letters("".join(rng.choice(list("IXYZ"), size=n)))
                for _ in range(3)
            ]
            dense = [string_to_dense(s) for s in strs]
            p1, r1 = mul_strings(strs[0], strs[1])
            p2, r2 = mul_strings(r1, strs[2])
            assert np.allclose(dense[0] @ dense[1] @ dense[2], p1 * p2 * string_to_dense(r2))


class TestCommutator:
    def test_iz_ix(self):
        # [iZ, iX] = -[Z, X] = -2iY
        a = PauliSum.from_terms({"Z": 1j})
        b = PauliSum.from_terms({"X": 1j})
        got = commutator(a, b)
        assert got.keys.tolist() == [PauliString.from_letters("Y").key]
        assert got.coeffs.tolist() == [-2j]

    def test_with_identity(self):
        a = PauliSum.from_terms({"ZZ": 1.0})
        b = PauliSum.identity(2)
        assert commutator(a, b).is_zero()

    def test_self_commutator(self):
        g = PauliSum.from_terms({"ZZI": 1j, "ZIZ": 1j, "IZZ": 1j})
        assert commutator(g, g).is_zero()

    def test_dense_oracle_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, int(rng.integers(1, 5)), rng)
            b = random_pauli_sum(n, int(rng.integers(1, 5)), rng)
            da, db = to_dense(a), to_dense(b)
            assert np.max(np.abs(to_dense(commutator(a, b)) - (da @ db - db @ da))) < 1e-12

    def test_product_dense_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = random_pauli_sum(n, 3, rng)
            b = random_pauli_sum(n, 3, rng)
            assert np.max(np.abs(to_dense(a @ b) - to_dense(a) @ to_dense(b))) < 1e-12


def letters(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


def pauli_sums(n):
    """Sums of 1..16 strings, so term-pair counts of a product range over 1..256."""
    coeff = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    return st.dictionaries(letters(n), coeff, min_size=1, max_size=16).map(PauliSum.from_terms)


@st.composite
def sum_tuples(draw, count):
    n = draw(st.integers(1, 4))
    return tuple(draw(pauli_sums(n)) for _ in range(count))


class TestProductProperties:
    @PROPERTY
    @given(sum_tuples(3))
    def test_product_associative(self, abc):
        a, b, c = abc
        assert np.allclose(to_dense((a @ b) @ c), to_dense(a @ (b @ c)), atol=1e-10)

    @PROPERTY
    @given(sum_tuples(2))
    def test_commutator_antisymmetric(self, ab):
        a, b = ab
        assert np.allclose(to_dense(commutator(a, b)), -to_dense(commutator(b, a)), atol=1e-12)

    @PROPERTY
    @given(sum_tuples(2))
    def test_to_dense_is_homomorphism(self, ab):
        a, b = ab
        assert np.allclose(to_dense(a @ b), to_dense(a) @ to_dense(b), atol=1e-12)

    @PROPERTY
    @given(sum_tuples(2), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
    def test_linear_ops_are_homomorphisms(self, ab, scalar):
        a, b = ab
        da, db = to_dense(a), to_dense(b)
        assert np.allclose(to_dense(a + b), da + db, atol=1e-12)
        assert np.allclose(to_dense(a - b), da - db, atol=1e-12)
        assert np.allclose(to_dense(a * scalar), scalar * da, atol=1e-12)
        assert np.allclose(to_dense(a.dagger()), da.conj().T, atol=1e-12)

    @PROPERTY
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(letters(n), letters(n))))
    def test_mul_strings_matches_dense(self, pq):
        p, q = (PauliString.from_letters(s) for s in pq)
        phase, r = mul_strings(p, q)
        assert phase in (1, 1j, -1, -1j)
        assert np.array_equal(
            string_to_dense(p) @ string_to_dense(q), phase * string_to_dense(r)
        )


    @PROPERTY
    @given(sum_tuples(2), st.integers(1, 7), st.booleans())
    def test_index_map_bins_the_product(self, ab, modulus, bracket):
        # combining by an index map equals combining by key, then binning
        a, b = ab
        index = np.arange(1 << (2 * a.n)) % modulus
        kw = dict(bracket=bracket)
        keys, coeffs = product_packed(a.n, a.keys, a.coeffs, b.keys, b.coeffs, **kw)
        want = np.zeros(modulus, dtype=complex)
        np.add.at(want, index[keys], coeffs)
        bins, sums = product_packed(a.n, a.keys, a.coeffs, b.keys, b.coeffs, index=index, **kw)
        assert np.all(np.diff(bins) > 0)
        got = np.zeros(modulus, dtype=complex)
        got[bins] = sums
        assert np.allclose(got, want, atol=1e-12)
        assert np.all(np.abs(sums) > PRUNE_TOL)

class TestKeyRangeCap:
    def test_refuses_beyond_max_dense_qubits(self):
        n = MAX_DENSE_QUBITS + 1
        big = PauliSum.from_terms({"X" * n: 1.0, "Z" * n: 1.0})
        with pytest.raises(ValueError, match="Pauli product"):
            product_packed(n, big.keys, big.coeffs, big.keys, big.coeffs)
        with pytest.raises(ValueError):
            big @ big
        with pytest.raises(ValueError):
            commutator(big, big)
        with pytest.raises(ValueError):
            mul_strings(PauliString.from_letters("X" * n), PauliString.from_letters("Y" * n))
        with pytest.raises(ValueError, match="span"):
            SpanBasis(n)

    def test_sums_refuse_keys_beyond_int64(self):
        n = MAX_KEY_QUBITS
        assert len(PauliSum.from_terms({"X" * n: 1.0, "Z" * n: 1.0})) == 2
        with pytest.raises(ValueError, match="packed keys"):
            PauliSum.from_terms({"X" * (n + 1): 1.0})

    def test_cap_itself_is_allowed(self):
        n = MAX_DENSE_QUBITS
        s = PauliSum.from_terms({"X" * n: 1.0, "Z" * n: 1.0})
        # X^9 and Z^9 anticommute, so the cross terms cancel
        assert (s @ s - 2.0 * PauliSum.identity(n)).is_zero()
        assert SpanBasis(n).add(s)


class TestToDense:
    def test_identity(self):
        assert np.allclose(to_dense(PauliSum.from_terms({"I": 1.0})), np.eye(2))

    def test_scaled_z(self):
        assert np.allclose(to_dense(PauliSum.from_terms({"Z": 2.0})), np.diag([2.0, -2.0]))

    def test_too_large(self):
        with pytest.raises(ValueError):
            to_dense(PauliSum.identity(10))

    @staticmethod
    def per_term_sum(s):
        # the oracle: one dense matrix per string, added in term order
        out = np.zeros((1 << s.n, 1 << s.n), dtype=complex)
        for p, c in zip(s.strings(), s.coeffs):
            out += c * string_to_dense(p)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_scatter_add_equals_per_term_sum(self, rng, n):
        for n_terms in (0, 1, 3, 4**n):
            s = random_pauli_sum(n, n_terms, rng) if n_terms else PauliSum.zero(n)
            assert np.array_equal(to_dense(s), self.per_term_sum(s))

    def test_symmetric_heisenberg_n8(self):
        h = symmetric_heisenberg_terms("Sn", 8, 0)
        assert np.array_equal(to_dense(h), self.per_term_sum(h))

    def test_trace_orthogonality(self, rng):
        n = 3
        seen = set()
        strings = []
        while len(strings) < 6:
            s = "".join(rng.choice(list("IXYZ"), size=n))
            if s not in seen:
                seen.add(s)
                strings.append(PauliString.from_letters(s))
        for i in range(len(strings)):
            for j in range(len(strings)):
                tr = np.trace(string_to_dense(strings[i]).conj().T @ string_to_dense(strings[j]))
                if i == j:
                    assert tr == pytest.approx(2**n)
                else:
                    assert abs(tr) < 1e-12


def extends(basis, candidate):
    """True when ``candidate`` is not in the span of ``basis``, by SpanBasis.add."""
    span = SpanBasis(candidate.n)
    for b in basis:
        span.add(b)
    return span.add(candidate)


class TestRankExtend:
    def test_scalar_multiple(self):
        z = PauliSum.from_terms({"Z": 1.0})
        assert not extends([z], PauliSum.from_terms({"Z": 3j}))

    def test_orthogonal_string(self):
        z = PauliSum.from_terms({"Z": 1.0})
        assert extends([z], PauliSum.from_terms({"X": 1.0}))

    def test_plus_minus_combination(self):
        plus = PauliSum.from_terms({"ZZ": 1.0, "XX": 1.0})
        minus = PauliSum.from_terms({"ZZ": 1.0, "XX": -1.0})
        assert extends([plus], minus)
        assert not extends([plus, minus], PauliSum.from_terms({"XX": 5.0}))

    def test_zero_never_extends(self):
        assert not extends([], PauliSum.zero(2))

    def test_against_dense_rank(self, rng):
        # oracle: numpy matrix rank over vectorized dense representations
        for _ in range(10):
            n = int(rng.integers(1, 4))
            basis = [random_pauli_sum(n, int(rng.integers(1, 4)), rng) for _ in range(int(rng.integers(1, 8)))]
            cand = random_pauli_sum(n, int(rng.integers(1, 4)), rng)
            if rng.random() < 0.4 and basis:
                # force a dependent candidate
                cand = sum((b * complex(rng.standard_normal()) for b in basis[1:]), basis[0])
            rows = [to_dense(b).ravel() for b in basis]
            r0 = np.linalg.matrix_rank(np.array(rows)) if rows else 0
            r1 = np.linalg.matrix_rank(np.array(rows + [to_dense(cand).ravel()]))
            # add() on sums with strings the span has not seen yet must answer
            # like the dense rank, and grow the basis only when it says so
            span = SpanBasis(n)
            for i, b in enumerate(basis):
                independent = np.linalg.matrix_rank(np.array(rows[: i + 1])) > span.size
                size = span.size
                assert span.add(b) == independent
                assert span.size == size + independent
            assert span.size == r0
            assert span.add(cand) == (r1 > r0)
            assert span.size == r1

    def test_block_matches_one_at_a_time(self, rng):
        # exact duplicates, scalar multiples, a near-dependent vector (residual
        # about 1e-8, above the 1e-9 drop tolerance) and a sum of earlier
        # candidates, tested as one block against a span that already holds
        # some of them
        n = 3
        held = [random_pauli_sum(n, 3, rng) for _ in range(3)]
        a, b = random_pauli_sum(n, 4, rng), random_pauli_sum(n, 2, rng)
        fresh = random_pauli_sum(n, 3, rng)
        tilt = PauliSum.from_terms({"XYZ": 1e-8 * a.coeff_norm()})
        cands = [
            a, a, b * 2.5j, held[1], a + tilt, a + b, fresh, PauliSum.zero(n),
            held[0] * -1.0, fresh, b, a + tilt * 1e-3,
        ]
        one, block = SpanBasis(n), SpanBasis(n)
        for h in held:
            one.add(h)
            block.add(h)
        flags = [one.add(c) for c in cands]
        assert flags == [True, False, True, False, True, False, True, False, False, False,
                         False, False]
        keys = np.concatenate([c.keys for c in cands])
        coeffs = np.concatenate([c.coeffs for c in cands])
        cols = np.repeat(np.arange(len(cands)), [len(c) for c in cands])
        assert block.add_block(keys, coeffs, cols, len(cands)).tolist() == flags
        assert block.size == one.size == 7
        # a term's column, not its position, says which sum it belongs to
        shuffled = SpanBasis(n)
        for h in held:
            shuffled.add(h)
        order = rng.permutation(len(keys))
        got = shuffled.add_block(keys[order], coeffs[order], cols[order], len(cands))
        assert got.tolist() == flags
        # the block left the span in the same state
        rows = [to_dense(h).ravel() for h in [*held, a, b, a + tilt, fresh]]
        assert np.linalg.matrix_rank(np.array(rows)) == block.size
        probe = random_pauli_sum(n, 5, rng)
        assert block.add(probe) == one.add(probe)

    def test_saturated_span(self, rng):
        # once the basis spans every row seen, candidates on those rows are
        # rejected without a projection; the answers match an explicit one,
        # and a candidate that touches a new row is still accepted
        n = 2
        held = [
            PauliSum.from_terms({"XX": 1.0, "ZZ": 0.5}),
            PauliSum.from_terms({"XX": 1j, "YI": 0.25}),
            PauliSum.from_terms({"YI": 2.0, "ZZ": -1.0}),
        ]
        span = SpanBasis(n)
        for h in held:
            assert span.add(h)

        def on_rows(*letters):
            return PauliSum.from_terms({p: complex(*rng.standard_normal(2)) for p in letters})

        def explicit(basis, cands):
            # Gram-Schmidt on dense matrices, one candidate at a time
            q = np.linalg.qr(np.array([to_dense(b).ravel() for b in basis]).T)[0]
            flags = []
            for c in cands:
                v = to_dense(c).ravel()
                r = v - q @ (q.conj().T @ v)
                flags.append(bool(np.sum(np.abs(r) ** 2) > SPAN_TOL**2 * np.sum(np.abs(v) ** 2)))
                if flags[-1]:
                    q = np.column_stack([q, r / np.linalg.norm(r)])
            return flags

        def block(cands):
            keys = np.concatenate([c.keys for c in cands])
            coeffs = np.concatenate([c.coeffs for c in cands])
            cols = np.repeat(np.arange(len(cands)), [len(c) for c in cands])
            return span.add_block(keys, coeffs, cols, len(cands)).tolist()

        old = [on_rows("XX", "ZZ", "YI"), on_rows("XX"), PauliSum.zero(n), on_rows("YI", "ZZ")]
        assert span.size == span._coords.count == 3  # three rows, three basis vectors
        assert block(old) == explicit(held, old) == [False] * 4
        assert span.size == 3
        # a new row: the basis no longer spans every row, so the block projects
        fresh = [old[0], on_rows("XX", "IZ"), on_rows("IZ")]
        assert block(fresh) == explicit(held, fresh) == [False, True, False]
        assert span.size == span._coords.count == 4

    def test_span_basis_incremental(self):
        span = SpanBasis(2)
        assert span.add(PauliSum.from_terms({"ZZ": 1.0, "XX": 1.0}))
        assert not span.add(PauliSum.from_terms({"ZZ": -2.0, "XX": -2.0}))
        assert span.add(PauliSum.from_terms({"XX": 1.0}))
        assert not span.add(PauliSum.from_terms({"ZZ": 7.0}))
        assert span.size == 2


class TestTextFormat:
    def test_roundtrip(self, rng):
        s = random_pauli_sum(3, 4, rng)
        assert_same(parse_pauli_sum(format_pauli_sum(s)), s)

    def test_parse_example(self):
        s = parse_pauli_sum("0 1 ZZI\n0 1 ZIZ\n0 1 IZZ")
        assert s.n == 3
        assert len(s) == 3
        assert s.is_antihermitian()

    def test_generator_file(self):
        text = """
        # bond generators
        0 1 ZZ

        0 1 XX
        0 1 YY
        """
        gens = parse_generator_file(text)
        assert len(gens) == 2
        assert len(gens[1]) == 2

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_pauli_sum("1 ZZ")

    @pytest.mark.parametrize("line", ["nan 0 XX", "1 nan ZZ", "inf 0 XX", "1e400 0 XY"])
    def test_non_finite_coefficient_is_refused(self, line):
        letters = line.split()[-1]
        with pytest.raises(ValueError, match=f"coefficient of {letters} is not finite"):
            parse_pauli_sum(line)
        with pytest.raises(ValueError, match=f"coefficient of {letters} is not finite"):
            parse_generator_file("0 1 ZZ\n\n" + line)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_sum_roundtrip(self, n):
        text = format_pauli_sum(PauliSum.zero(n))
        assert text == "0 0 " + "I" * n
        back = parse_pauli_sum(text)
        assert back.n == n and back.is_zero()

    def test_generator_file_zero_block(self):
        # a block of only zero lines parses to a zero sum that writes back
        gens = parse_generator_file("0 0 XX\n0 0 ZZ\n\n0 1 YY")
        assert gens[0].is_zero()
        for g in gens:
            assert_same(parse_pauli_sum(format_pauli_sum(g)), g)


def assert_same(a: PauliSum, b: PauliSum):
    assert a.n == b.n
    assert len((a - b).keys) == 0


class TestArithmetic:
    def test_prune_cancellation(self):
        a = PauliSum.from_terms({"XX": 1.0})
        assert (a - a).is_zero()

    def test_antihermitian_check(self):
        assert PauliSum.from_terms({"XZ": 2j, "YY": -0.5j}).is_antihermitian()
        assert not PauliSum.from_terms({"XZ": 1.0 + 1j}).is_antihermitian()

    def test_dagger_dense(self, rng):
        s = random_pauli_sum(2, 4, rng)
        assert np.allclose(to_dense(s.dagger()), to_dense(s).conj().T)

    @pytest.mark.parametrize("scalar", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_scalar_is_refused(self, scalar):
        a = PauliSum.from_terms({"X": 1})
        with pytest.raises(ValueError, match="scalar is not finite"):
            a * scalar
        with pytest.raises(ValueError, match="scalar is not finite"):
            scalar * a

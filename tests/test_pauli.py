import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbe.pauli import (
    MAX_DENSE_QUBITS,
    MAX_KEY_QUBITS,
    PauliString,
    PauliSum,
    SpanBasis,
    commutator,
    format_pauli_sum,
    mul_strings,
    pairwise_commuting,
    parse_generator_file,
    parse_pauli_sum,
    product_packed,
    rank_extend,
    string_to_dense,
    to_dense,
)

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
        assert (s @ s - PauliSum.identity(n, 2.0)).is_zero()
        assert SpanBasis(n).add(s)


class TestToDense:
    def test_identity(self):
        assert np.allclose(to_dense(PauliSum.from_terms({"I": 1.0})), np.eye(2))

    def test_scaled_z(self):
        assert np.allclose(to_dense(PauliSum.from_terms({"Z": 2.0})), np.diag([2.0, -2.0]))

    def test_too_large(self):
        with pytest.raises(ValueError):
            to_dense(PauliSum.identity(10))

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


class TestRankExtend:
    def test_scalar_multiple(self):
        z = PauliSum.from_terms({"Z": 1.0})
        assert not rank_extend([z], PauliSum.from_terms({"Z": 3j}))

    def test_orthogonal_string(self):
        z = PauliSum.from_terms({"Z": 1.0})
        assert rank_extend([z], PauliSum.from_terms({"X": 1.0}))

    def test_plus_minus_combination(self):
        plus = PauliSum.from_terms({"ZZ": 1.0, "XX": 1.0})
        minus = PauliSum.from_terms({"ZZ": 1.0, "XX": -1.0})
        assert rank_extend([plus], minus)
        assert not rank_extend([plus, minus], PauliSum.from_terms({"XX": 5.0}))

    def test_zero_never_extends(self):
        assert not rank_extend([], PauliSum.zero(2))

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
            assert rank_extend(basis, cand) == (r1 > r0)
            # contains() on sums with strings the span has not seen yet must
            # answer like the dense rank and leave the basis alone
            span = SpanBasis(n)
            for i, b in enumerate(basis):
                size = span.size
                independent = np.linalg.matrix_rank(np.array(rows[: i + 1])) > span.size
                assert span.contains(b) == (not independent)
                assert span.size == size
                assert span.add(b) == independent
            assert span.contains(cand) == (r1 == r0)
            assert span.size == r0

    def test_span_basis_incremental(self):
        span = SpanBasis(2)
        assert span.add(PauliSum.from_terms({"ZZ": 1.0, "XX": 1.0}))
        assert not span.add(PauliSum.from_terms({"ZZ": -2.0, "XX": -2.0}))
        assert span.add(PauliSum.from_terms({"XX": 1.0}))
        assert span.contains(PauliSum.from_terms({"ZZ": 7.0}))
        assert span.size == 2


class TestPairwiseCommuting:
    def test_commuting_generator(self):
        g = PauliSum.from_terms({"ZZI": 1j, "ZIZ": 1j, "IZZ": 1j})
        assert pairwise_commuting(g)

    def test_noncommuting_generator(self):
        g = PauliSum.from_terms(
            {"ZYI": 1j, "YZI": 1j, "ZIY": 1j, "YIZ": 1j, "IZY": 1j, "IYZ": 1j}
        )
        assert not pairwise_commuting(g)

    def test_single_string(self):
        assert pairwise_commuting(PauliSum.from_terms({"XYZ": 1.0}))


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

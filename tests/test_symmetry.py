import hashlib

import numpy as np
import pytest

from oracles import (
    associative_closure_per_element,
    check_invariance,
    lie_closure_per_element,
    string_to_dense,
    symmetric_invariance_check,
    symmetry_matrices,
    symmetry_matrix,
)
from vbe import targets
from vbe.pauli import (
    OrbitCompression,
    PauliString,
    PauliSum,
    SpanBasis,
    commutator,
    product_packed,
    to_dense,
)
from vbe.symmetry import (
    GeneratorSet,
    _compression_for,
    associative_closure,
    closure_basis,
    expressible,
    heisenberg_generator_set,
    lie_closure,
    symmetric_heisenberg_terms,
    symmetric_orbit_compression,
)
from vbe.tables import BDIM_TABLE
from vbe.targets import chain_bonds, heisenberg_graph_terms


def heisenberg_chain(n, jx, jy, jz, h, periodic=False):
    """Dense transverse-field Heisenberg chain, open or periodic."""
    return to_dense(heisenberg_graph_terms(n, chain_bonds(n, periodic), jx, jy, jz, h))


def same_partition(a, b):
    """True when two orbit partitions group the strings alike, whatever their ids."""
    return np.array_equal(a.reps[a.orbit_ids], b.reps[b.orbit_ids])


HEAVY_CLOSURES = {("Z2xz", 6)}  # several seconds

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestSymmetryMatrix:
    def test_z2_is_global_flip(self):
        (s,) = symmetry_matrix("Z2", 2)
        assert np.allclose(s, string_to_dense(PauliString.from_letters("XX")))

    def test_cn_two_sites_is_swap(self):
        (s,) = symmetry_matrix("Cn", 2)
        assert np.allclose(s, SWAP)

    def test_reflection_three_sites(self):
        # oracle: action on computational basis states |b0 b1 b2> -> |b2 b1 b0>
        (s,) = symmetry_matrix("Z2xz", 3)
        for c in range(8):
            b = [(c >> 2) & 1, (c >> 1) & 1, c & 1]
            r = (b[2] << 2) | (b[1] << 1) | b[0]
            assert s[r, c] == 1.0

    def test_sn_generators_are_adjacent_swaps(self):
        mats = symmetry_matrix("Sn", 3)
        assert len(mats) == 2
        assert np.allclose(mats[0], np.kron(SWAP, np.eye(2)))
        assert np.allclose(mats[1], np.kron(np.eye(2), SWAP))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            symmetry_matrix("E8", 3)


class TestCheckInvariance:
    def test_heisenberg_global_flip(self, rng):
        (s,) = symmetry_matrix("Z2", 3)
        for _ in range(3):
            jx, jy, jz, h = rng.uniform(-2, 2, size=4)
            m = heisenberg_chain(3, jx, jy, jz, h)
            assert check_invariance(m, s) < 1e-12

    def test_open_chain_not_cyclic(self):
        (s,) = symmetry_matrix("Cn", 3)
        m = heisenberg_chain(3, 1.3, 0.7, -0.4, 0.2)
        assert check_invariance(m, s) > 0.1

    def test_open_chain_reflection_symmetric(self):
        (s,) = symmetry_matrix("Z2xz", 4)
        m = heisenberg_chain(4, 1.3, 0.7, -0.4, 0.2)
        assert check_invariance(m, s) < 1e-12

    def test_periodic_chain_cyclic(self):
        (s,) = symmetry_matrix("Cn", 4)
        m = heisenberg_chain(4, 1.3, 0.7, -0.4, 0.2, periodic=True)
        assert check_invariance(m, s) < 1e-12

    def test_identity_commutes(self):
        for kind in ("Z2", "Z2xz", "Cn", "Sn"):
            for s in symmetry_matrix(kind, 3):
                assert check_invariance(np.eye(8), s) == 0.0


class TestGeneratorSets:
    def test_s4_listing(self):
        gs = heisenberg_generator_set("Sn", 4)
        assert len(gs) == 4
        want = PauliSum.from_terms(
            {"ZZII": 1j, "IZZI": 1j, "IIZZ": 1j, "ZIIZ": 1j, "IZIZ": 1j, "ZIZI": 1j}
        )
        assert (gs.generators[2] - want).is_zero()

    def test_c4_listing(self):
        gs = heisenberg_generator_set("Cn", 4)
        assert len(gs) == 4
        want = PauliSum.from_terms({"XXII": 1j, "IXXI": 1j, "IIXX": 1j, "XIIX": 1j})
        assert (gs.generators[0] - want).is_zero()

    def test_z2xz_n4_listing(self):
        gs = heisenberg_generator_set("Z2xz", 4)
        assert len(gs) == 8
        outer = PauliSum.from_terms({"XXII": 1j, "IIXX": 1j})
        middle = PauliSum.from_terms({"IXXI": 1j})
        assert any((g - outer).is_zero() for g in gs.generators)
        assert any((g - middle).is_zero() for g in gs.generators)

    def test_all_generators_commute_with_symmetries(self):
        for kind in ("Z2xz", "Cn", "Sn"):
            for n in (2, 3, 4):
                gs = heisenberg_generator_set(kind, n)
                for g in gs.generators:
                    gd = to_dense(g)
                    for s in symmetry_matrices(gs):
                        assert check_invariance(gd, s) < 1e-12, (kind, n)

    def test_z2xz_middle_bond_counts(self):
        assert len(heisenberg_generator_set("Z2xz", 2)) == 4
        assert len(heisenberg_generator_set("Z2xz", 3)) == 5
        assert len(heisenberg_generator_set("Z2xz", 5)) == 9


def brute_force_lie_dim(gens, max_rounds=8):
    """Dense-matrix oracle: nested commutators + numpy rank."""
    mats = [to_dense(g) for g in gens]
    basis = []
    for m in mats:
        basis.append(m.ravel())
    rank = np.linalg.matrix_rank(np.array(basis), tol=1e-9)
    basis = basis[:]
    current = [to_dense(g) for g in gens]
    pool = [to_dense(g) for g in gens]
    for _ in range(max_rounds):
        new = []
        for a in current:
            for b in pool:
                c = a @ b - b @ a
                if np.max(np.abs(c)) < 1e-12:
                    continue
                stacked = np.array(basis + [c.ravel()])
                r = np.linalg.matrix_rank(stacked, tol=1e-9)
                if r > rank:
                    rank = r
                    basis.append(c.ravel())
                    new.append(c)
        if not new:
            break
        current = new
    return rank


def brute_force_algebra_dim(gens):
    """Dense-matrix oracle: from {I}, add g s and s g until the rank stops growing."""
    mats = [to_dense(g) for g in gens]
    current = [np.eye(mats[0].shape[0], dtype=complex)]
    basis = [current[0].ravel()]
    while current:
        new = []
        for s in current:
            for g in mats:
                for c in (g @ s, s @ g):
                    if np.max(np.abs(c)) < 1e-12:
                        continue
                    stacked = np.array(basis + [c.ravel() / np.linalg.norm(c)])
                    if np.linalg.matrix_rank(stacked, tol=1e-9) > len(basis):
                        basis.append(stacked[-1])
                        new.append(c)
        current = new
    return len(basis)


def random_generators(n, seed, count=2, terms=3):
    """Anti-hermitian sums of random strings with random real weights: no symmetry."""
    rng = np.random.default_rng(seed)

    def term():
        return "".join(rng.choice(list("IXYZ"), size=n)), 1j * rng.uniform(0.5, 1.5)

    return [PauliSum.from_terms(dict(term() for _ in range(terms))) for _ in range(count)]


ORACLE_SETS = [(kind, n) for kind in ("Sn", "Cn", "Z2xz") for n in (2, 3)]
ORACLE_SETS += [("random", n, seed) for n in (2, 3) for seed in (1, 2)]


def case_id(case):
    return "".join(map(str, case))


def oracle_generators(case):
    if case[0] == "random":
        _, n, seed = case
        gens = random_generators(n, seed)
        assert same_partition(_compression_for(gens), OrbitCompression.trivial(n))
        return gens
    return list(heisenberg_generator_set(*case).generators)


def asymmetric_generators():
    """Sn 3 generators with a 1e-7 asymmetric part on the first: no symmetric
    partition holds them."""
    gens = list(heisenberg_generator_set("Sn", 3).generators)
    return [gens[0] + PauliSum.from_terms({"ZII": 1e-7j}), *gens[1:]]


def open_chain5_generators():
    """XX, YY and ZZ bond sums and an X field sum on an open 5-site chain,
    each term weighted 1j * uniform(0.5, 1.5) from ``default_rng(7)``."""
    n, rng = 5, np.random.default_rng(7)

    def term(letter, sites):
        return "".join(letter if q in sites else "I" for q in range(n)), 1j * rng.uniform(0.5, 1.5)

    gens = [dict(term(p, (i, i + 1)) for i in range(n - 1)) for p in "XYZ"]
    gens.append(dict(term("X", (i,)) for i in range(n)))
    return [PauliSum.from_terms(g) for g in gens]


def basis_digest(basis):
    """sha256 over the bytes of each element's keys, then its coefficients, in order."""
    h = hashlib.sha256()
    for e in basis:
        h.update(e.keys.tobytes())
        h.update(e.coeffs.tobytes())
    return h.hexdigest()


def assert_same_bases(got, want):
    """Bit for bit: the same elements in the same order, keys and coefficients."""
    assert len(got) == len(want)
    for e, f in zip(got, want):
        assert e.keys.tobytes() == f.keys.tobytes()
        assert e.coeffs.tobytes() == f.coeffs.tobytes()


class TestLieClosure:
    def test_single_qubit_full_algebra(self):
        gens = [PauliSum.from_terms({"Z": 1j}), PauliSum.from_terms({"X": 1j})]
        l = lie_closure(gens)
        assert len(l) == 3

    def test_single_generator(self):
        g = PauliSum.from_terms({"ZZ": 1j, "XX": 1j})
        l = lie_closure([g])
        assert len(l) == 1
        assert (l[0] - g.normalized()).is_zero()

    def test_matches_dense_oracle(self, rng):
        for kind, n in [("Sn", 2), ("Sn", 3), ("Cn", 3), ("Z2xz", 3)]:
            gs = heisenberg_generator_set(kind, n)
            assert len(lie_closure(gs)) == brute_force_lie_dim(gs.generators)

    def test_nested_commutators_stay_in_span(self, rng):
        gs = heisenberg_generator_set("Cn", 3)
        l = lie_closure(gs)
        basis = np.array([to_dense(e).ravel() for e in l]).T
        for _ in range(10):
            i, j = rng.integers(0, len(l), size=2)
            a, b = to_dense(l[i]), to_dense(l[j])
            c = (a @ b - b @ a).ravel()
            coeffs, *_ = np.linalg.lstsq(basis, c, rcond=None)
            assert np.linalg.norm(basis @ coeffs - c) < 1e-10

    @pytest.mark.parametrize(
        "terms",
        [["I", "X", "Z"], ["II", "XI", "ZI", "IX", "IZ", "ZZ"]],
        ids=["n1", "n2"],
    )
    def test_full_algebra_with_identity(self, terms):
        # with the identity among the generators the closure is all of u(2^n),
        # 4^n elements
        gens = [PauliSum.from_terms({t: 1j}) for t in terms]
        full = 4 ** len(terms[0])
        assert len(lie_closure(gens)) == full
        cb = closure_basis(gens)
        assert (cb.dim_l, cb.dim_b) == (full, full)


class TestAssociativeClosure:
    def test_single_qubit_spans_everything(self):
        l = [PauliSum.from_terms({p: 1j}) for p in "XYZ"]
        b = associative_closure(l)
        assert len(b) == 4

    def test_identity_is_included(self):
        l = [PauliSum.from_terms({"ZZ": 1j})]
        b = associative_closure(l)
        assert any((e - PauliSum.identity(2)).is_zero() for e in b)

    @pytest.mark.parametrize("case", ORACLE_SETS, ids=case_id)
    def test_matches_two_sided_dense_oracle(self, case):
        # the closure multiplies from the left only; the oracle from both sides
        gens = oracle_generators(case)
        want = brute_force_algebra_dim(gens)
        assert closure_basis(gens).dim_b == want
        assert len(associative_closure(lie_closure(gens))) == want

    def test_multipliers_outside_span_of_l(self):
        # L = {E11} lies in the algebra of E12 and E21, which is all 2 x 2
        # matrices, but E12 is no left product G A: it is reached only
        # because the multipliers are seeds
        e11 = PauliSum.from_terms({"I": 0.5, "Z": 0.5})
        e12 = PauliSum.from_terms({"X": 0.5, "Y": 0.5j})
        e21 = PauliSum.from_terms({"X": 0.5, "Y": -0.5j})
        want = brute_force_algebra_dim([e12, e21])
        assert want == 4
        assert len(associative_closure([e11], multipliers=[e12, e21])) == want

    @pytest.mark.parametrize(
        "case", [("Sn", 4), ("Cn", 4), ("Z2xz", 4), ("random", 3, 1)], ids=case_id
    )
    @pytest.mark.parametrize("budget", [None, 64], ids=["default", "small"])
    def test_one_product_call_per_chunk(self, case, budget, monkeypatch):
        # each call expands a run of basis elements, in order, within the
        # pair budget unless the run is one element; every element is
        # expanded once, except the identity (the first seed), whose
        # products are the multipliers themselves
        from vbe import symmetry

        if budget is not None:
            monkeypatch.setattr(symmetry, "_CHUNK_PAIRS", budget)
        gens = oracle_generators(case)
        calls = []  # (term pairs, elements) of each call
        product = symmetry.product_packed

        def record(n, k1, c1, k2, c2, *args, groups, **kwargs):
            elements = np.unique(np.asarray(groups) // len(gens))
            assert np.array_equal(elements, np.arange(len(elements)))
            calls.append((len(k1) * len(k2), len(elements)))
            return product(n, k1, c1, k2, c2, *args, groups=groups, **kwargs)

        monkeypatch.setattr(symmetry, "product_packed", record)
        l = lie_closure(gens)
        lie_calls = list(calls)
        calls.clear()
        b = associative_closure(l, multipliers=gens)
        for got, expanded in [(lie_calls, len(l)), (calls, len(b) - 1)]:
            assert sum(elements for _, elements in got) == expanded
            for pairs, elements in got:
                assert pairs <= symmetry._CHUNK_PAIRS or elements == 1
            if budget is None:  # the default budget merges elements into chunks
                assert len(got) < expanded
        # the budget changes the calls, never the bases
        monkeypatch.undo()
        assert_same_bases(l, lie_closure_per_element(gens))
        assert_same_bases(b, associative_closure_per_element(l, multipliers=gens))

    def test_generator_multipliers_give_same_span(self):
        for kind, n in [("Sn", 3), ("Cn", 4), ("Z2xz", 3)]:
            gs = heisenberg_generator_set(kind, n)
            l = lie_closure(gs)
            slow = associative_closure(l)
            fast = associative_closure(l, multipliers=list(gs.generators))
            assert len(slow) == len(fast), (kind, n)

    def test_compression_agrees_with_plain(self):
        # orbit coordinates and representative products against the trivial
        # partition (one orbit per string), element by element
        rows = [("Sn", 4), ("Sn", 5), ("Sn", 6), ("Cn", 4), ("Cn", 5), ("Z2xz", 3), ("Z2xz", 4)]
        for kind, n in rows:
            gs = heisenberg_generator_set(kind, n)
            cb = closure_basis(gs)
            gens = list(gs.generators)
            trivial = OrbitCompression.trivial(n)
            l = lie_closure(gens, orbits=trivial)
            b = associative_closure(l, multipliers=gens, orbits=trivial)
            for orbit_basis, plain_basis in [(cb.lie_basis, l), (cb.full_basis, b)]:
                assert len(orbit_basis) == len(plain_basis), (kind, n)
                for e, f in zip(orbit_basis, plain_basis):
                    assert np.array_equal(e.keys, f.keys), (kind, n)
                    assert np.max(np.abs(e.coeffs - f.coeffs)) <= 1e-12, (kind, n)
            if n == 4:
                # the default multipliers (all of L) give the same span
                assert len(associative_closure(l)) == cb.dim_b, (kind, n)

    @pytest.mark.parametrize(
        "kind,n",
        [
            pytest.param(kind, n, marks=pytest.mark.heavy if (kind, n) in HEAVY_CLOSURES else ())
            for kind in ("Sn", "Cn", "Z2xz")
            for n in range(2, 7)
        ],
    )
    def test_list_and_generator_set_agree(self, kind, n):
        # the partition comes from the sums, not from how they are passed
        gs = heisenberg_generator_set(kind, n)
        as_set, as_list = closure_basis(gs), closure_basis(list(gs.generators))
        for a, b in [(as_set.lie_basis, as_list.lie_basis), (as_set.full_basis, as_list.full_basis)]:
            assert len(a) == len(b)
            for e, f in zip(a, b):
                assert np.array_equal(e.keys, f.keys) and np.array_equal(e.coeffs, f.coeffs)

    @pytest.mark.parametrize("kind", ["Sn", "Cn", "Z2xz"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_detects_declared_kind_or_coarser(self, kind, n):
        gens = list(heisenberg_generator_set(kind, n).generators)
        declared = symmetric_orbit_compression(kind, n)
        found = _compression_for(gens)
        # each declared orbit lies inside one detected orbit
        pairs = {(d, f) for d, f in zip(declared.orbit_ids.tolist(), found.orbit_ids.tolist())}
        assert len(pairs) == declared.count
        sn = symmetric_orbit_compression("Sn", n)
        if n == 2:
            # the reflection and the shift of two sites are both the swap
            assert same_partition(declared, sn) and same_partition(found, sn)
        elif (kind, n) == ("Cn", 3):
            # a three-site ring is the complete graph
            assert same_partition(found, sn)
        else:
            assert same_partition(found, declared)

    def test_cn3_closes_like_sn3(self):
        cb = closure_basis(heisenberg_generator_set("Cn", 3))
        assert cb.dim_b == BDIM_TABLE[("Cn", 3)] == BDIM_TABLE[("Sn", 3)]
        assert cb.dim_l == closure_basis(heisenberg_generator_set("Sn", 3)).dim_l

    def test_slightly_asymmetric_input_gets_trivial_partition(self):
        # a 1e-7 asymmetric part is far above SPAN_TOL, so no symmetric
        # partition may hold it; the dims must match the trivial partition's
        gs = heisenberg_generator_set("Sn", 3)
        g0 = gs.generators[0] + PauliSum.from_terms({"ZII": 1e-7j})
        bad = GeneratorSet("Sn", 3, (g0, *gs.generators[1:]), gs.labels)
        gens = list(bad.generators)
        trivial = OrbitCompression.trivial(3)
        l = lie_closure(gens, orbits=trivial)
        want = (len(l), len(associative_closure(l, multipliers=gens, orbits=trivial)))
        assert want == (40, 42)
        for arg in (bad, gens):
            cb = closure_basis(arg)
            assert (cb.dim_l, cb.dim_b) == want
        assert same_partition(_compression_for(gens), trivial)
        with pytest.raises(ValueError, match="not invariant"):
            lie_closure(gens, orbits=symmetric_orbit_compression("Sn", 3))

    def test_empty_input(self):
        assert lie_closure([]) == []
        assert associative_closure([]) == []
        cb = closure_basis([])
        assert (cb.dim_l, cb.dim_b) == (0, 0)
        # no multipliers: the identity and L span a closed set as they are
        gens = list(heisenberg_generator_set("Sn", 3).generators)
        assert len(associative_closure(gens, multipliers=[])) == len(gens) + 1

    def test_refuses_partition_the_inputs_break(self):
        orbits = symmetric_orbit_compression("Sn", 3)
        field = PauliSum.from_terms({"XII": 1j})  # one site: not permutation invariant
        gens = list(heisenberg_generator_set("Sn", 3).generators)
        with pytest.raises(ValueError, match="not invariant"):
            lie_closure([*gens, field], orbits=orbits)
        l = lie_closure(gens, orbits=orbits)
        with pytest.raises(ValueError, match="not invariant"):
            associative_closure(l, multipliers=[*gens, field], orbits=orbits)
        with pytest.raises(ValueError, match="not invariant"):
            associative_closure([*l, field], multipliers=gens, orbits=orbits)
        assert len(associative_closure(l, multipliers=gens, orbits=orbits)) == BDIM_TABLE[("Sn", 3)]

    def test_refuses_mixed_qubit_counts(self):
        three = PauliSum.from_terms({"ZZZ": 1j, "XII": 1j})
        two = PauliSum.from_terms({"XX": 1j})
        for sums in ([three, two], [two, three]):
            with pytest.raises(ValueError, match=r"qubit counts \[2, 3\]"):
                closure_basis(sums)
            with pytest.raises(ValueError, match=r"qubit counts \[2, 3\]"):
                lie_closure(sums)
            with pytest.raises(ValueError, match=r"qubit counts \[2, 3\]"):
                associative_closure(sums)
        with pytest.raises(ValueError, match=r"qubit counts \[2, 3\]"):
            associative_closure([three], multipliers=[two])

    @pytest.mark.parametrize("kind", ["Sn", "Z2xz"])
    def test_closure_basis_checks_only_while_detecting(self, kind, monkeypatch):
        # closure_basis reads its partition off the generators and hands it to
        # both closures, whose inputs are then invariant by construction: every
        # _invariant call it makes is one of the detection's
        from vbe import symmetry

        checked = []
        invariant = symmetry._invariant
        monkeypatch.setattr(
            symmetry, "_invariant", lambda orbits, s: checked.append(s) or invariant(orbits, s)
        )
        gens = list(heisenberg_generator_set(kind, 4).generators)
        _compression_for(gens)
        detecting = len(checked)
        checked.clear()
        cb = closure_basis(gens)
        assert len(checked) == detecting
        assert cb.dim_b == BDIM_TABLE[(kind, 4)]
        # the same partition from a caller is checked against every input
        checked.clear()
        orbits = symmetric_orbit_compression(kind, 4)
        b = associative_closure(list(cb.lie_basis), multipliers=gens, orbits=orbits)
        assert len(checked) == cb.dim_l + len(gens)
        assert len(b) == cb.dim_b


class TestPerElementOracle:
    """The chunked closures equal the loop of one product call and one span
    test per basis element (``tests/oracles.py``) bit for bit."""

    @pytest.mark.parametrize(
        "case",
        [(kind, n) for kind in ("Sn", "Cn", "Z2xz") for n in range(2, 6)] + [("random", 3, 1)],
        ids=case_id,
    )
    def test_closures_match(self, case):
        gens = oracle_generators(case)
        l = lie_closure(gens)
        assert_same_bases(l, lie_closure_per_element(gens))
        b = associative_closure(l, multipliers=gens)
        assert_same_bases(b, associative_closure_per_element(l, multipliers=gens))
        cb = closure_basis(gens)
        assert_same_bases(cb.lie_basis, l)
        assert_same_bases(cb.full_basis, b)

    @pytest.mark.parametrize("kind,n", [("Sn", 3), ("Z2xz", 4)])
    def test_plain_list_in_trivial_partition(self, kind, n):
        gens = list(heisenberg_generator_set(kind, n).generators)
        trivial = OrbitCompression.trivial(n)
        l = lie_closure(gens, orbits=trivial)
        assert_same_bases(l, lie_closure_per_element(gens, orbits=trivial))
        b = associative_closure(l, multipliers=gens, orbits=trivial)
        assert_same_bases(b, associative_closure_per_element(l, multipliers=gens, orbits=trivial))

    def test_slightly_asymmetric_generators(self):
        gens = asymmetric_generators()
        l = lie_closure(gens)
        assert_same_bases(l, lie_closure_per_element(gens))
        b = associative_closure(l, multipliers=gens)
        assert_same_bases(b, associative_closure_per_element(l, multipliers=gens))
        assert (len(l), len(b)) == (40, 42)

    def test_default_multipliers(self):
        # L multiplies itself: more multipliers per chunk than generators
        l = lie_closure(heisenberg_generator_set("Cn", 4))
        assert_same_bases(associative_closure(l), associative_closure_per_element(l))


class TestClosureDimsTable:
    @pytest.mark.parametrize(
        "kind,n,dim_b",
        [
            pytest.param(
                kind, n, dim_b, marks=pytest.mark.heavy if (kind, n) in HEAVY_CLOSURES else ()
            )
            for (kind, n), dim_b in BDIM_TABLE.items()
        ],
    )
    def test_pinned_dims(self, kind, n, dim_b):
        cb = closure_basis(heisenberg_generator_set(kind, n))
        assert cb.dim_b == dim_b

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sn_closed_form(self, n):
        # total-spin sectors: each spin-J block, of size d = 2J+1, splits into
        # two halves under the global flip, so dim B = sum_J ceil(d/2)^2 + floor(d/2)^2
        dims = [two_j + 1 for two_j in range(n % 2, n + 1, 2)]
        want = sum(((d + 1) // 2) ** 2 + (d // 2) ** 2 for d in dims)
        # n = 9 (dim B 110) is an extension beyond the paper's table
        assert want == (BDIM_TABLE[("Sn", n)] if n <= 8 else 110)
        assert closure_basis(heisenberg_generator_set("Sn", n)).dim_b == want

    def test_open_chain5(self):
        # no symmetry: the trivial partition, 4^5 strings
        gens = open_chain5_generators()
        assert same_partition(_compression_for(gens), OrbitCompression.trivial(5))
        cb = closure_basis(gens)
        assert (cb.dim_l, cb.dim_b) == (510, 512)
        # the bases recorded in BENCH_one_sided_closure.json
        assert basis_digest(cb.lie_basis) == (
            "9f7b769aadf4762d33c9ddc73c7f84a71d45ef655016d92b23fd585a424458e3"
        )
        assert basis_digest(cb.full_basis) == (
            "186663a44eb4a50fbcfd1f15fbf949f8dea38bc804cf0786bd904d2f7ee55d26"
        )

    def test_l_subset_of_b(self):
        cb = closure_basis(heisenberg_generator_set("Cn", 3))
        span = SpanBasis(3)
        for e in cb.full_basis:
            span.add(e)
        for e in cb.lie_basis:
            assert not span.add(e)


class TestExpressible:
    def test_identity_always_in_span(self):
        cb = closure_basis(heisenberg_generator_set("Sn", 3))
        ok, _ = expressible(np.eye(8), list(cb.full_basis))
        assert ok

    def test_cyclic_hamiltonian_in_span(self, rng):
        cb = closure_basis(heisenberg_generator_set("Cn", 4))
        jx, jy, jz, h = rng.uniform(-2, 2, size=4)
        m = heisenberg_chain(4, jx, jy, jz, h, periodic=True)
        ok, res = expressible(m, list(cb.full_basis))
        assert ok, res

    def test_random_hermitian_not_in_small_span(self, rng):
        cb = closure_basis(heisenberg_generator_set("Sn", 4))
        m = targets.random_matrix(4, "complex", "hermitian", seed=3)
        ok, res = expressible(m, list(cb.full_basis))
        assert not ok
        assert res > 0.1


class TestInvarianceOfBasis:
    def test_sn_basis_invariant(self):
        gs = heisenberg_generator_set("Sn", 4)
        cb = closure_basis(gs)
        assert symmetric_invariance_check(list(cb.full_basis), symmetry_matrices(gs)) < 1e-12

    def test_z2xz_basis_invariant(self):
        gs = heisenberg_generator_set("Z2xz", 3)
        cb = closure_basis(gs)
        assert symmetric_invariance_check(list(cb.full_basis), symmetry_matrices(gs)) < 1e-12

    def test_corrupted_element_detected(self):
        gs = heisenberg_generator_set("Sn", 3)
        cb = closure_basis(gs)
        bad = list(cb.full_basis) + [PauliSum.from_terms({"XYZ": 1.0})]
        assert symmetric_invariance_check(bad, symmetry_matrices(gs)) > 0.1


class TestSymmetricHeisenberg:
    def test_terms_match_fixed_geometry(self):
        # uniform couplings through the generator route equal the graph builder
        gs = heisenberg_generator_set("Cn", 4)
        uniform = PauliSum.zero(4)
        for g in gs.generators:
            uniform = uniform + g * (-1j)
        fixed = heisenberg_graph_terms(4, chain_bonds(4, periodic=True), 1, 1, 1, 1)
        assert (uniform - fixed).is_zero()

    def test_random_target_is_invariant(self):
        for kind in ("Z2xz", "Cn", "Sn"):
            gs = heisenberg_generator_set(kind, 3)
            h = to_dense(symmetric_heisenberg_terms(kind, 3, seed=5))
            for s in symmetry_matrices(gs):
                assert check_invariance(h, s) < 1e-12

    def test_random_target_in_span(self):
        cb = closure_basis(heisenberg_generator_set("Sn", 3))
        h = to_dense(symmetric_heisenberg_terms("Sn", 3, seed=11))
        ok, _ = expressible(h, list(cb.full_basis))
        assert ok

    def test_coupling_magnitudes_bounded_away_from_zero(self):
        terms = symmetric_heisenberg_terms("Sn", 2, seed=3)
        for _, c in terms.items():
            assert 0.3 - 1e-12 <= abs(c) <= 1.0 + 1e-12


class TestOrbitCompression:
    def test_tables_group_true_orbits(self):
        orb = symmetric_orbit_compression("Sn", 4)
        k1 = PauliString.from_letters("XYZI")
        k2 = PauliString.from_letters("IZXY")
        k3 = PauliString.from_letters("XXZI")
        key = lambda p: (p.x << 4) | p.z
        assert orb.orbit_ids[key(k1)] == orb.orbit_ids[key(k2)]
        assert orb.orbit_ids[key(k1)] != orb.orbit_ids[key(k3)]

    def test_isometry_on_invariant_sums(self):
        gs = heisenberg_generator_set("Sn", 4)
        orb = symmetric_orbit_compression("Sn", 4)
        for g in gs.generators:
            v = orb.vector(g.keys, g.coeffs)
            assert float(np.sum(np.abs(v) ** 2)) == pytest.approx(g.coeff_norm() ** 2)

    @pytest.mark.parametrize("kind", ["Sn", "Cn", "Z2xz", "trivial"])
    def test_representative_products_equal_full_products(self, kind, rng):
        # A G, G A and [A, G] from one weighted string per orbit of A, binned
        # by orbit id, expand to the full products; one grouped call over all
        # generators gives each generator's product in its own group
        n = 4
        if kind == "trivial":
            gs, orb = heisenberg_generator_set("Z2xz", n), OrbitCompression.trivial(n)
        else:
            gs, orb = heisenberg_generator_set(kind, n), symmetric_orbit_compression(kind, n)
        a = PauliSum.zero(n)
        for e in closure_basis(gs).full_basis:
            a = a + e * complex(*rng.standard_normal(2))
        ka, ca = orb.representatives(a.keys, a.coeffs)
        assert len(ka) < len(a) or kind == "trivial"
        keys, coeffs = orb.expand(ka, ca)
        assert np.array_equal(keys, a.keys) and np.allclose(coeffs, a.coeffs, atol=1e-14)
        bracket = dict(bracket=True)
        gens = gs.generators
        km = np.concatenate([g.keys for g in gens])
        cm = np.concatenate([g.coeffs for g in gens])
        ids = np.repeat(np.arange(len(gens)), [len(g) for g in gens])

        def operands(kg, cg, left):
            return (kg, cg, ka, ca) if left else (ka, ca, kg, cg)

        for left, kw, full in [
            (False, {}, lambda g: a @ g),
            (True, {}, lambda g: g @ a),
            (False, bracket, lambda g: commutator(a, g)),
        ]:
            groups = ids[:, None] if left else ids
            block = operands(km, cm, left)
            bins, sums = product_packed(n, *block, index=orb.orbit_ids, groups=groups, **kw)
            assert np.all(np.diff(bins) > 0)
            group, orbit = np.divmod(bins, 1 << (2 * n))
            for m, g in enumerate(gens):
                one = operands(g.keys, g.coeffs, left)
                binned = product_packed(n, *one, index=orb.orbit_ids, **kw)
                assert np.array_equal(orbit[group == m], binned[0]), kind
                assert np.array_equal(sums[group == m], binned[1]), kind
                _, reps, folded = orb.fold(*binned)
                keys, coeffs = orb.expand(reps, folded)
                assert np.array_equal(keys, full(g).keys), kind
                assert np.allclose(coeffs, full(g).coeffs, atol=1e-12), kind
        # with no index the bins are the packed keys, grouped the same way
        keys, sums = product_packed(n, a.keys, a.coeffs, km, cm, groups=ids)
        group, keys = np.divmod(keys, 1 << (2 * n))
        for m, g in enumerate(gens):
            want = product_packed(n, a.keys, a.coeffs, g.keys, g.coeffs)
            assert np.array_equal(keys[group == m], want[0])
            assert np.array_equal(sums[group == m], want[1])

    def test_refuses_beyond_max_dense_qubits(self):
        from vbe.pauli import MAX_DENSE_QUBITS

        with pytest.raises(ValueError, match="orbit"):
            symmetric_orbit_compression("Sn", MAX_DENSE_QUBITS + 1)

    def test_contractive_on_noninvariant(self):
        orb = symmetric_orbit_compression("Sn", 2)
        s = PauliSum.from_terms({"XI": 1.0})  # not permutation invariant
        assert float(np.sum(np.abs(orb.vector(s.keys, s.coeffs)) ** 2)) < s.coeff_norm() ** 2 - 0.1

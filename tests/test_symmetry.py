import numpy as np
import pytest

from vbe import linalg, targets
from vbe.pauli import PauliString, PauliSum, string_to_dense, to_dense
from vbe.symmetry import (
    ClosureCapExceeded,
    GeneratorSet,
    associative_closure,
    check_invariance,
    closure_basis,
    expressibility_by_sequence,
    expressible,
    heisenberg_generator_set,
    lie_closure,
    symmetric_heisenberg_fixed,
    symmetric_heisenberg_terms,
    symmetric_invariance_check,
    symmetric_orbit_compression,
    symmetry_matrix,
)
from vbe.tables import BDIM_TABLE
from vbe.targets import HeisenbergParams

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
            m = targets.heisenberg(HeisenbergParams(3, jx, jy, jz, h))
            assert check_invariance(m, s) < 1e-12

    def test_open_chain_not_cyclic(self):
        (s,) = symmetry_matrix("Cn", 3)
        m = targets.heisenberg(HeisenbergParams(3, 1.3, 0.7, -0.4, 0.2))
        assert check_invariance(m, s) > 0.1

    def test_open_chain_reflection_symmetric(self):
        (s,) = symmetry_matrix("Z2xz", 4)
        m = targets.heisenberg(HeisenbergParams(4, 1.3, 0.7, -0.4, 0.2))
        assert check_invariance(m, s) < 1e-12

    def test_periodic_chain_cyclic(self):
        (s,) = symmetry_matrix("Cn", 4)
        m = targets.heisenberg(HeisenbergParams(4, 1.3, 0.7, -0.4, 0.2, periodic=True))
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
                    for s in gs.symmetry_matrices():
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

    def test_cap_aborts(self):
        gens = [PauliSum.from_terms({"ZZ": 1j}), PauliSum.from_terms({"XI": 1j}),
                PauliSum.from_terms({"IY": 1j})]
        with pytest.raises(ClosureCapExceeded):
            lie_closure(gens, cap=4)


class TestAssociativeClosure:
    def test_single_qubit_spans_everything(self):
        l = [PauliSum.from_terms({p: 1j}) for p in "XYZ"]
        b = associative_closure(l)
        assert len(b) == 4

    def test_identity_is_included(self):
        l = [PauliSum.from_terms({"ZZ": 1j})]
        b = associative_closure(l)
        assert any((e - PauliSum.identity(2)).is_zero() for e in b)

    def test_generator_multipliers_give_same_span(self):
        for kind, n in [("Sn", 3), ("Cn", 4), ("Z2xz", 3)]:
            gs = heisenberg_generator_set(kind, n)
            l = lie_closure(gs)
            slow = associative_closure(l)
            fast = associative_closure(l, multipliers=list(gs.generators))
            assert len(slow) == len(fast), (kind, n)

    def test_compression_agrees_with_plain(self):
        for kind, n in [("Sn", 4), ("Cn", 4), ("Z2xz", 4)]:
            gs = heisenberg_generator_set(kind, n)
            plain_l = lie_closure(list(gs.generators))  # list input: no compression
            cb = closure_basis(gs)
            assert len(plain_l) == cb.dim_l, (kind, n)
            assert len(associative_closure(plain_l)) == cb.dim_b, (kind, n)


HEAVY_CLOSURES = {("Z2xz", 5), ("Cn", 6), ("Sn", 8)}  # several seconds each


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

    def test_l_subset_of_b(self):
        cb = closure_basis(heisenberg_generator_set("Cn", 3))
        from vbe.pauli import rank_extend

        for e in cb.lie_basis:
            assert not rank_extend(list(cb.full_basis), e)


class TestExpressible:
    def test_identity_always_in_span(self):
        cb = closure_basis(heisenberg_generator_set("Sn", 3))
        ok, _ = expressible(np.eye(8), list(cb.full_basis))
        assert ok

    def test_cyclic_hamiltonian_in_span(self, rng):
        cb = closure_basis(heisenberg_generator_set("Cn", 4))
        jx, jy, jz, h = rng.uniform(-2, 2, size=4)
        m = targets.heisenberg(HeisenbergParams(4, jx, jy, jz, h, periodic=True))
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
        assert symmetric_invariance_check(list(cb.full_basis), gs.symmetry_matrices()) < 1e-12

    def test_z2xz_basis_invariant(self):
        gs = heisenberg_generator_set("Z2xz", 3)
        cb = closure_basis(gs)
        assert symmetric_invariance_check(list(cb.full_basis), gs.symmetry_matrices()) < 1e-12

    def test_corrupted_element_detected(self):
        gs = heisenberg_generator_set("Sn", 3)
        cb = closure_basis(gs)
        bad = list(cb.full_basis) + [PauliSum.from_terms({"XYZ": 1.0})]
        assert symmetric_invariance_check(bad, gs.symmetry_matrices()) > 0.1


class TestSequenceExpressibility:
    def test_single_z_powers(self):
        basis = expressibility_by_sequence([PauliSum.from_terms({"Z": 1j})])
        assert len(basis) == 2  # Z^2 = I

    def test_repeated_generator_matches_closure(self):
        g = PauliSum.from_terms({"ZZ": 1j})
        seq_basis = expressibility_by_sequence([g, g])
        closure = associative_closure(lie_closure([g]))
        assert len(seq_basis) == len(closure)
        dense_a = np.array([to_dense(e).ravel() for e in seq_basis])
        dense_b = np.array([to_dense(e).ravel() for e in closure])
        stacked = np.concatenate([dense_a, dense_b])
        assert np.linalg.matrix_rank(stacked, tol=1e-9) == len(closure)

    def test_s3_single_sweep_bounded_by_dim_b(self):
        gs = heisenberg_generator_set("Sn", 3)
        basis = expressibility_by_sequence(list(gs.generators))
        assert len(basis) <= 10

    def test_sequence_span_inside_closure_span(self, rng):
        gs = heisenberg_generator_set("Cn", 3)
        seq = [gs.generators[int(k)] for k in rng.integers(0, len(gs), size=4)]
        seq_basis = expressibility_by_sequence(seq)
        cb = closure_basis(gs)
        for e in seq_basis:
            ok, _ = expressible(to_dense(e), list(cb.full_basis))
            assert ok

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            expressibility_by_sequence([])


class TestSymmetricHeisenberg:
    def test_terms_match_fixed_geometry(self):
        # uniform couplings through the generator route equal the graph builder
        gs = heisenberg_generator_set("Cn", 4)
        uniform = PauliSum.zero(4)
        for g in gs.generators:
            uniform = uniform + g * (-1j)
        fixed = symmetric_heisenberg_fixed("Cn", 4, 1, 1, 1, 1)
        assert (uniform - fixed).is_zero()

    def test_random_target_is_invariant(self):
        for kind in ("Z2xz", "Cn", "Sn"):
            gs = heisenberg_generator_set(kind, 3)
            h = to_dense(symmetric_heisenberg_terms(kind, 3, seed=5))
            for s in gs.symmetry_matrices():
                assert check_invariance(h, s) < 1e-12

    def test_random_target_in_span(self):
        cb = closure_basis(heisenberg_generator_set("Sn", 3))
        h = to_dense(symmetric_heisenberg_terms("Sn", 3, seed=11))
        ok, _ = expressible(h, list(cb.full_basis))
        assert ok

    def test_coupling_magnitudes_bounded_away_from_zero(self):
        terms = symmetric_heisenberg_terms("Sn", 2, seed=3, lo=0.3, hi=1.0)
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

    def test_refuses_beyond_max_dense_qubits(self):
        from vbe.pauli import MAX_DENSE_QUBITS

        with pytest.raises(ValueError, match="orbit"):
            symmetric_orbit_compression("Sn", MAX_DENSE_QUBITS + 1)

    def test_contractive_on_noninvariant(self):
        orb = symmetric_orbit_compression("Sn", 2)
        s = PauliSum.from_terms({"XI": 1.0})  # not permutation invariant
        assert float(np.sum(np.abs(orb.vector(s.keys, s.coeffs)) ** 2)) < s.coeff_norm() ** 2 - 0.1

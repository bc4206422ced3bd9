import math
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import block_spec, symmetric_a_ratio
from vbe.circuit import (
    BLOCK_CATALOG,
    COMPLEX,
    REAL,
    build_ansatz,
    build_generic_ansatz,
    build_gqsp_ansatz,
    hermitize,
    mc1q,
)
from vbe.optimize import GqspFamily
from vbe.pauli import MAX_DENSE_QUBITS, PauliSum
from vbe.resources import (
    a_ratio,
    estimate_generic_threshold,
    free_parameter_bound,
    lcu_estimate,
    nonlocal_gate_bound,
    threshold_layers,
    tlb_cnot,
)
from vbe.symmetry import heisenberg_generator_set, symmetric_heisenberg_terms
from vbe.tables import BDIM_TABLE, FREE_PARAMS_N4
from vbe.targets import chain_bonds, heisenberg_graph_terms


class TestFreeParameterBound:
    def test_pinned_table_n4(self):
        for (field, structure), count in FREE_PARAMS_N4.items():
            assert free_parameter_bound(4, field, structure) == count, (field, structure)

    def test_unitary_rows(self):
        assert free_parameter_bound(1, "complex", "unitary") == 3
        assert free_parameter_bound(2, "real", "unitary") == 5

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            free_parameter_bound(2, "complex", "diagonal")


class TestTlb:
    def test_pinned_values(self):
        assert tlb_cnot(4) == 125
        assert tlb_cnot(2) == 6
        assert tlb_cnot(1) == 1

    def test_formula_oracle(self):
        for n in range(1, 7):
            assert tlb_cnot(n) == math.ceil((2 * 4**n - 3 * (n + 1)) / 4)


def block2_layer(n: int, field: str = COMPLEX):
    """Block 2's one-layer circuit on n system qubits, before hermitization."""
    return build_generic_ansatz(block_spec(2, n=n, restriction=field))


class TestNonlocalGateBound:
    def test_real_hermitian_paper_value(self):
        assert nonlocal_gate_bound(block2_layer(4, REAL), 136) == 66

    def test_complex_hermitian_paper_value(self):
        assert nonlocal_gate_bound(block2_layer(4), 256) == 61

    def test_real_arbitrary_paper_value(self):
        assert nonlocal_gate_bound(block2_layer(4, REAL), 256) == 126

    def test_consistency_with_tlb(self):
        for n in range(1, 7):
            class_dim = free_parameter_bound(n, COMPLEX, "arbitrary")
            assert nonlocal_gate_bound(block2_layer(n), class_dim) == tlb_cnot(n)

    def test_clamped_at_zero(self):
        # the 15 fixed parameters of U_s on 5 qubits exceed the 4 of a 1-qubit
        # hermitian class by more than one layer's a-ratio of 4
        class_dim = free_parameter_bound(1, COMPLEX, "hermitian")
        assert nonlocal_gate_bound(block2_layer(4), class_dim) == 0

    def test_layer_without_entangler_is_refused(self):
        # block 0's layer is single-qubit rotations only, so it has no a-ratio
        one_layer = build_generic_ansatz(block_spec(0, n=2))
        with pytest.raises(ValueError, match="no entangling gates"):
            nonlocal_gate_bound(one_layer, free_parameter_bound(2, COMPLEX, "hermitian"))


class TestARatio:
    def test_rcn_layer_is_four(self):
        c = build_generic_ansatz(block_spec(2, n=3, layers=4))
        assert a_ratio(c) == Fraction(4)

    def test_ccz_layer_is_six(self):
        c = build_generic_ansatz(block_spec(12, n=3, layers=2))
        assert a_ratio(c) == Fraction(6)

    def test_hermitization_halves_ratio(self):
        c = build_generic_ansatz(block_spec(2, n=3, layers=4))
        assert a_ratio(hermitize(c)) == Fraction(2)

    def test_catalog_ratios(self):
        # N=4 total qubits; non-optimal blocks have their own documented ratios
        expected = {
            1: Fraction(12, 3),
            2: Fraction(4),
            3: Fraction(4),
            4: Fraction(8, 3),
            5: Fraction(4),
            6: Fraction(6),
            7: Fraction(3),
            8: Fraction(4),
            9: Fraction(4),
            10: Fraction(4),
            11: Fraction(4),
            12: Fraction(6),
            13: Fraction(8, 1),
            14: Fraction(4),
            15: Fraction(4),
        }
        for bid, want in expected.items():
            c = build_generic_ansatz(block_spec(bid, n=3, layers=1))
            assert a_ratio(c) == want, f"block {bid}"

    def test_block0_has_no_ratio(self):
        c = build_generic_ansatz(block_spec(0, n=3, layers=1))
        with pytest.raises(ValueError):
            a_ratio(c)

    def test_symmetric_values(self):
        for n in (3, 4, 5):
            assert symmetric_a_ratio("Z2xz", n) == Fraction(1, 6 * (n - 1))
            assert symmetric_a_ratio("Cn", n) == Fraction(1, 6 * n)
            assert symmetric_a_ratio("Sn", n) == Fraction(1, 3 * n * (n - 1))


class TestThresholdGeneric:
    def test_paper_n4(self):
        assert estimate_generic_threshold(block_spec(2, n=4)) == 32

    def test_paper_hermitian(self):
        assert estimate_generic_threshold(block_spec(2, n=4, hermitian=True)) == 16

    def test_degenerate(self):
        # the appended layer alone covers the 4 free parameters of a 2x2 hermitian
        assert estimate_generic_threshold(block_spec(2, n=1, hermitian=True)) == 0

    def test_real_hermitian_with_us_override(self):
        # the real appended layer has N = 5 parameters, not 3N; 17 layers of
        # 8 reach the 136-parameter bound
        spec = block_spec(2, n=4, restriction="real", hermitian=True)
        assert estimate_generic_threshold(spec) == 17

    def test_estimate_from_spec(self):
        assert estimate_generic_threshold(block_spec(2, n=2)) == 3
        assert estimate_generic_threshold(block_spec(2, n=3)) == 10
        assert estimate_generic_threshold(block_spec(2, n=4, restriction="real")) == 32


def one_gqsp_layer(kind: str, n: int, hermitian: bool = True):
    """The one-layer circuit of the GQSP family on ``kind``'s Heisenberg set."""
    family = GqspFamily(heisenberg_generator_set(kind, n), hermitian)
    return build_ansatz(family.spec_for_sequence((0,)))


class TestThresholdSymmetric:
    def test_param_inversion_matches_table(self):
        # 3M + 3 parameters reach q * dimB: Sn 4, 2 and 5 at q = 1
        assert threshold_layers(one_gqsp_layer("Sn", 4), 19) == 6
        assert threshold_layers(one_gqsp_layer("Sn", 2), 6) == 1
        assert threshold_layers(one_gqsp_layer("Sn", 5), 28) == 9


class TestThresholdLayers:
    @pytest.mark.parametrize("q", [1, 2])
    def test_every_gqsp_cell(self, q):
        for (kind, n), dim_b in BDIM_TABLE.items():
            one_layer = one_gqsp_layer(kind, n, hermitian=q == 1)
            want = max(0, math.ceil(Fraction(q * dim_b - 3, 3)))
            assert threshold_layers(one_layer, q * dim_b) == want, (kind, n)

    def test_every_generic_block(self):
        # P(M) parameters at M layers: the estimate is the smallest M with
        # P(M) >= the class dimension, read off P(0) and P(1)
        for block_id, info in BLOCK_CATALOG.items():
            for n in range(max(1, info.min_qubits - 1), 5):
                for field in (COMPLEX, REAL):
                    for hermitian in (False, True):
                        spec = block_spec(block_id, n, restriction=field, hermitian=hermitian)
                        p0, p1 = (
                            build_generic_ansatz(replace(spec, layers=m)).param_count
                            for m in (0, 1)
                        )
                        structure = "hermitian" if hermitian else "arbitrary"
                        class_dim = free_parameter_bound(n, field, structure)
                        want = max(0, math.ceil(Fraction(class_dim - p0, p1 - p0)))
                        got = estimate_generic_threshold(spec)
                        assert got == want, (block_id, n, field, hermitian)

    def test_layer_without_parameters_is_refused(self):
        for one_layer in (
            build_gqsp_ansatz([], 2),
            build_generic_ansatz(block_spec(2, n=2, layers=0)),
        ):
            with pytest.raises(ValueError, match="no parameters"):
                threshold_layers(one_layer, 16)


class TestLcu:
    def test_single_term(self):
        h = PauliSum.from_terms({"XZX": 0.5})
        est = lcu_estimate(h)
        assert est.ancillas == 0
        assert est.prepare_cnots == 0
        assert est.cnot_count == 2 * (3 - 1)

    def test_heisenberg_n4_terms(self):
        h = heisenberg_graph_terms(4, chain_bonds(4), 1, 1, 1, 1)
        est = lcu_estimate(h)
        assert est.term_count == 13
        assert est.ancillas == 4
        # oracle: recompute from the stated per-term model
        want_select = sum(16 * 3 + 2 * (p.weight - 1) for p, _ in h.items())
        assert est.select_cnots == want_select
        assert est.prepare_cnots == 2 * (2**4 - 2)

    def test_sums_beyond_max_dense_qubits(self):
        # sums combine by sort, so they stay valid where products and dense
        # tables refuse the qubit count
        h = symmetric_heisenberg_terms("Sn", 12, 0)
        assert h.n > MAX_DENSE_QUBITS
        assert len(h) == 210
        assert lcu_estimate(h).cnot_count == 24424
        assert (h - h).is_zero()

    def test_identity_term_is_a_phase_on_the_controls(self):
        # II is mc1q(0) = 0 under one control, as count_nonlocal_gates charges
        # a weight-0 string; ZZ is mc1q(1) = 2 plus a 2-CNOT ladder
        est = lcu_estimate(PauliSum.from_terms({"II": 1.0, "ZZ": 0.5}))
        assert est.ancillas == 1
        assert est.select_cnots == 4
        # alone, the identity needs no control and costs nothing
        assert lcu_estimate(PauliSum.identity(2)).cnot_count == 0
        # three controls: the identity is a doubly controlled phase
        terms = {"III": 1.0, "ZZI": 0.5, "IZZ": 0.5, "XXI": 0.5, "IXX": 0.5}
        est = lcu_estimate(PauliSum.from_terms(terms))
        assert est.ancillas == 3
        assert est.select_cnots == mc1q(2) + 4 * (mc1q(3) + 2)

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError):
            lcu_estimate(PauliSum.from_terms({"XX": 1j}))

    def test_gqsp_ansatz_much_cheaper(self):
        # directional check at n=4: permutation-symmetric VBE vs LCU
        from vbe.symmetry import heisenberg_generator_set
        from vbe.circuit import count_nonlocal_gates

        gs = heisenberg_generator_set("Sn", 4)
        seq = (gs.generators[0], gs.generators[1], gs.generators[2],
               gs.generators[3], gs.generators[3], gs.generators[3])
        vbe_count = count_nonlocal_gates(build_gqsp_ansatz(seq, 4))
        h = PauliSum.zero(4)
        for g in gs.generators:
            h = h + g * (-1j)
        lcu = lcu_estimate(h)
        assert lcu.cnot_count >= 10 * vbe_count

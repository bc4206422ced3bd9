import math
from fractions import Fraction

import pytest

from vbe.circuit import AnsatzSpec, build_generic_ansatz, build_gqsp_ansatz, hermitize
from vbe.pauli import MAX_DENSE_QUBITS, PauliSum
from vbe.resources import (
    BoundQuery,
    LITERAL_FORMULA,
    PARAM_INVERSION,
    a_ratio,
    estimate_generic_threshold,
    free_parameter_bound,
    lcu_estimate,
    nonlocal_gate_bound,
    symmetric_a_ratio,
    threshold_layers_symmetric,
    tlb_cnot,
)
from vbe.symmetry import symmetric_heisenberg_terms
from vbe.tables import FREE_PARAMS_N4
from vbe.targets import HeisenbergParams, heisenberg_terms


def block_spec(block_id, n, m=1, layers=1, restriction="complex", hermitian=False):
    return AnsatzSpec(
        family="block",
        system_qubits=n,
        ancillas=m,
        layers=layers,
        block_id=block_id,
        restriction=restriction,
        hermitian=hermitian,
    )


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


class TestNonlocalGateBound:
    def test_real_hermitian_paper_value(self):
        q = BoundQuery(n=4, total_qubits=5, field="real", structure="hermitian", a=Fraction(2))
        assert nonlocal_gate_bound(q) == 66

    def test_complex_hermitian_paper_value(self):
        q = BoundQuery(n=4, total_qubits=5, field="complex", structure="hermitian", a=Fraction(4))
        assert nonlocal_gate_bound(q) == 61

    def test_real_arbitrary_paper_value(self):
        q = BoundQuery(n=4, total_qubits=5, field="real", structure="arbitrary", a=Fraction(2))
        assert nonlocal_gate_bound(q) == 126

    def test_consistency_with_tlb(self):
        for n in range(1, 7):
            q = BoundQuery(n=n, total_qubits=n + 1, field="complex", structure="arbitrary", a=Fraction(4))
            assert nonlocal_gate_bound(q) == tlb_cnot(n)

    def test_rejects_unitary(self):
        with pytest.raises(ValueError):
            nonlocal_gate_bound(BoundQuery(n=2, total_qubits=3, structure="unitary"))


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


class TestThresholdSymmetric:
    def test_param_inversion_matches_table(self):
        assert threshold_layers_symmetric(19, 1, PARAM_INVERSION) == 6
        assert threshold_layers_symmetric(6, 1, PARAM_INVERSION) == 1
        assert threshold_layers_symmetric(28, 1, PARAM_INVERSION) == 9

    def test_literal_formula(self):
        assert threshold_layers_symmetric(19, 1, LITERAL_FORMULA) == 4

    def test_modes_disagree(self):
        assert threshold_layers_symmetric(19, 1, LITERAL_FORMULA) != threshold_layers_symmetric(
            19, 1, PARAM_INVERSION
        )

    def test_q_validation(self):
        with pytest.raises(ValueError):
            threshold_layers_symmetric(10, 3)


class TestLcu:
    def test_single_term(self):
        h = PauliSum.from_terms({"XZX": 0.5})
        est = lcu_estimate(h)
        assert est.ancillas == 0
        assert est.prepare_cnots == 0
        assert est.cnot_count == 2 * (3 - 1)

    def test_heisenberg_n4_terms(self):
        h = heisenberg_terms(HeisenbergParams(4, 1, 1, 1, 1))
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

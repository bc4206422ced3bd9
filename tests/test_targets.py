import numpy as np
import pytest

from oracles import string_to_dense
from vbe import targets
from vbe.pauli import MAX_DENSE_QUBITS, PauliString, to_dense
from vbe.targets import chain_bonds, heisenberg_graph_terms

X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def chain_terms(n, jx, jy, jz, h, periodic=False):
    return heisenberg_graph_terms(n, chain_bonds(n, periodic), jx, jy, jz, h)


def chain(n, jx, jy, jz, h, periodic=False):
    return to_dense(chain_terms(n, jx, jy, jz, h, periodic))


class TestHeisenberg:
    def test_two_site_swap_identity(self):
        # oracle: dense Kronecker sum built by hand
        h = chain(2, 1, 1, 1, 0)
        assert np.allclose(h, 2 * SWAP - np.eye(4))

    def test_field_only(self):
        h = chain(2, 0, 0, 0, 1)
        assert np.allclose(h, np.kron(X, np.eye(2)) + np.kron(np.eye(2), X))

    def test_periodic_minus_open_is_wraparound(self):
        p = dict(n=3, jx=0.7, jy=-0.3, jz=1.1, h=0.35)
        open_h = chain(**p, periodic=False)
        ring_h = chain(**p, periodic=True)
        wrap = heisenberg_graph_terms(3, [(2, 0)], p["jx"], p["jy"], p["jz"], 0.0)
        assert np.allclose(ring_h - open_h, to_dense(wrap))

    def test_hermitian_and_real(self, rng):
        for _ in range(5):
            jx, jy, jz, h = rng.uniform(-2, 2, size=4)
            m = chain(3, jx, jy, jz, h)
            assert np.max(np.abs(m - m.conj().T)) < 1e-15
            assert np.max(np.abs(m.imag)) < 1e-15

    def test_commutes_with_global_x_flip(self, rng):
        flip = string_to_dense(PauliString.from_letters("XXX"))
        for _ in range(5):
            jx, jy, jz, h = rng.uniform(-2, 2, size=4)
            m = chain(3, jx, jy, jz, h, periodic=bool(rng.integers(2)))
            assert np.max(np.abs(m @ flip - flip @ m)) < 1e-12

    def test_term_count_open_chain(self):
        terms = chain_terms(4, 1, 1, 1, 1)
        assert len(terms) == 3 * 3 + 4

    def test_rejects_invalid_bond(self):
        for bond in [(0, 2), (1, 1), (-1, 0)]:
            with pytest.raises(ValueError, match="invalid bond"):
                heisenberg_graph_terms(2, [bond], 1, 1, 1, 0)


class TestRandomMatrix:
    def test_real_hermitian_symmetric(self):
        m = targets.random_matrix(2, "real", "hermitian", seed=5)
        assert np.max(np.abs(m - m.T)) == 0.0
        assert np.max(np.abs(m.imag)) == 0.0

    def test_complex_hermitian(self):
        m = targets.random_matrix(3, "complex", "hermitian", seed=5)
        assert np.max(np.abs(m - m.conj().T)) < 1e-15

    def test_deterministic(self):
        a = targets.random_matrix(2, "complex", "arbitrary", seed=123)
        b = targets.random_matrix(2, "complex", "arbitrary", seed=123)
        assert np.array_equal(a, b)

    def test_range(self):
        m = targets.random_matrix(3, "complex", "arbitrary", seed=9)
        assert np.max(np.abs(m.real)) <= 1.0
        assert np.max(np.abs(m.imag)) <= 1.0

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            targets.random_matrix(2, "quaternionic", "arbitrary", 0)

    def test_too_many_qubits_is_refused_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(targets, "make_rng", lambda *a: drawn.append(a))
        with pytest.raises(ValueError, match=f"n={MAX_DENSE_QUBITS + 1}"):
            targets.random_matrix(MAX_DENSE_QUBITS + 1)
        assert drawn == []


class TestMakeRng:
    def test_key_names_a_spawned_child(self):
        child = np.random.SeedSequence(7).spawn(3)[2]
        want = np.random.Generator(np.random.Philox(child)).uniform(size=4)
        assert np.array_equal(targets.make_rng(7, 2).uniform(size=4), want)

    def test_generator_is_no_seed(self):
        # a generator seed would drop the key, so every child stream would be one
        with pytest.raises(TypeError):
            targets.make_rng(np.random.default_rng(0), 1)


class TestZeroPad:
    def test_3x3(self):
        m = targets.zero_pad(np.ones((3, 3)))
        assert m.shape == (4, 4)
        assert np.all(m[3, :] == 0) and np.all(m[:, 3] == 0)
        assert np.all(m[:3, :3] == 1)

    def test_noop_on_power_of_two(self):
        m = np.arange(16, dtype=float).reshape(4, 4)
        assert np.array_equal(targets.zero_pad(m), m.astype(complex))

    def test_5x2(self):
        assert targets.zero_pad(np.ones((5, 2))).shape == (8, 8)

import numpy as np
import pytest
from scipy.stats import unitary_group

from oracles import is_hermitian, is_unitary, kron
from vbe import linalg

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


# self-checks of the dense oracles the other tests rely on
class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_z_x_blocks(self):
        zx = kron(Z, X)
        expected = np.block([[X, np.zeros((2, 2))], [np.zeros((2, 2)), -X]])
        assert np.allclose(zx, expected)

    def test_xy_squares_to_identity(self):
        # oracle: direct dense multiplication
        m = kron(X, Y)
        assert np.allclose(m @ m, np.eye(4), atol=1e-14)

    def test_associativity(self, rng):
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) < 1e-12


class TestSpectralNorm:
    def test_pauli_z(self):
        assert linalg.spectral_norm(Z) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_heisenberg_two_sites(self):
        # H = XX + YY + ZZ = 2*SWAP - I; eigenvalues {1, 1, 1, -3}
        h = kron(X, X) + kron(Y, Y) + kron(Z, Z)
        ev = np.linalg.eigvalsh(h)
        assert linalg.spectral_norm(h) == pytest.approx(max(abs(ev)), abs=1e-10)
        assert linalg.spectral_norm(h) == pytest.approx(3.0, abs=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.spectral_norm(np.ones((2, 3)))

    def test_unitary_invariance(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for seed in range(5):
            u, v = unitary_group.rvs(8, size=2, random_state=seed)
            assert linalg.spectral_norm(u @ a @ v) == pytest.approx(
                linalg.spectral_norm(a), abs=1e-9
            )


# self-checks of the dense oracles the other tests rely on
class TestPredicates:
    def test_identity(self):
        assert is_unitary(np.eye(4))
        assert is_hermitian(np.eye(4))

    def test_x(self):
        assert is_unitary(X)
        assert is_hermitian(X)

    def test_diag12(self):
        d = np.diag([1.0, 2.0])
        assert not is_unitary(d)
        assert is_hermitian(d)

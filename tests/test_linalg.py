import numpy as np
import pytest

from povm_lab import linalg
from povm_lab.errors import ContractViolation, SingularDesign

from conftest import random_hermitian, random_unitary


def char_poly_roots_3x3(H):
    """Independent eigenvalue oracle: roots of the characteristic cubic."""
    H = np.asarray(H, dtype=complex)
    c2 = -H.trace().real
    minors = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            minors += (H[i, i] * H[j, j] - H[i, j] * H[j, i]).real
    c1 = minors
    c0 = -np.linalg.det(H).real
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(roots.real)[::-1]


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(linalg.hermitian_eigenvalues(np.eye(3)), [1, 1, 1], atol=1e-12)

    def test_diagonal(self):
        ev = linalg.hermitian_eigenvalues(np.diag([0.5, 0.3, 0.2]))
        assert np.allclose(ev, [0.5, 0.3, 0.2], atol=1e-12)

    def test_qutrit_rank_one_element(self):
        e1 = np.full((3, 3), 1 / 7, dtype=complex)
        ev = linalg.hermitian_eigenvalues(e1)
        assert np.abs(ev - np.array([3 / 7, 0.0, 0.0])).max() < 1e-12
        # cross-check against the characteristic polynomial of the matrix
        assert np.abs(ev - char_poly_roots_3x3(e1)).max() < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sorted_descending(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ev = linalg.hermitian_eigenvalues(random_hermitian(rng, 4))
            assert np.all(np.diff(ev) <= 1e-12)


class TestHsInner:
    def test_identity_pair(self):
        assert linalg.hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            linalg.hs_inner(np.eye(2), np.eye(3))

    def test_qutrit_csic_cross_overlap(self, qutrit_csic):
        # independent oracle: explicit entrywise complex arithmetic
        a, b = qutrit_csic.elements[0], qutrit_csic.elements[1]
        direct = sum(
            (a[i, j] * b[j, i]).real for i in range(3) for j in range(3)
        )
        assert abs(direct - 2 / 49) < 1e-12
        assert linalg.hs_inner(a, b) == pytest.approx(2 / 49, abs=1e-12)
        # value equals (3/7)^2 |1 + eps + eps^5|^2 / 9 with |1 + eps + eps^5|^2 = 2
        eps = np.exp(2j * np.pi / 7)
        assert abs(abs(1 + eps + eps**5) ** 2 - 2.0) < 1e-12


class TestDeterminant:
    def test_identity(self):
        assert linalg.determinant(np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    def test_2x2_closed_form(self):
        assert linalg.determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)

    def test_repeated_row(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        assert linalg.determinant(m) == pytest.approx(0.0, abs=1e-12)

    def test_non_square(self):
        with pytest.raises(ContractViolation):
            linalg.determinant(np.ones((2, 3)))


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(linalg.solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = linalg.solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_singular(self):
        with pytest.raises(SingularDesign):
            linalg.solve_linear(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_trine_recovery(self, trine, qubit_pattern, basis2):
        # forward-compute probabilities for a known state, then invert
        from povm_lab import objective
        from povm_lab.basis import assemble_full_vector, bloch_to_state

        theta = np.array([0.3, 0.0])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        p = objective.outcome_probabilities(trine, rho)
        design = objective.design_matrix(trine.coords, qubit_pattern)
        x = linalg.solve_linear(design.T, p[:2] - design.a0s)
        assert np.abs(x - theta).max() < 1e-9


@pytest.mark.invariants
class TestInvariants:
    def test_spectrum_invariance_under_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n)
            u = random_unitary(rng, n)
            ev1 = linalg.hermitian_eigenvalues(h)
            ev2 = linalg.hermitian_eigenvalues(u @ h @ u.conj().T)
            assert np.abs(ev1 - ev2).max() < 1e-9

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n)
            ev = linalg.hermitian_eigenvalues(h)
            assert abs(ev.sum() - h.trace().real) < 1e-10 * n

    def test_hs_inner_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a, b, c = (random_hermitian(rng, n) for _ in range(3))
            assert linalg.hs_inner(a, b) == linalg.hs_inner(b, a)
            lhs = linalg.hs_inner(a, 0.7 * b + 1.3 * c)
            rhs = 0.7 * linalg.hs_inner(a, b) + 1.3 * linalg.hs_inner(a, c)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_determinant_product_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            # well-conditioned pairs: identity plus a modest random part
            a = np.eye(6) + 0.5 * rng.normal(size=(6, 6))
            b = np.eye(6) + 0.5 * rng.normal(size=(6, 6))
            lhs = linalg.determinant(a @ b)
            rhs = linalg.determinant(a) * linalg.determinant(b)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

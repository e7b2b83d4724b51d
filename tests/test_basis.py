import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from povm_lab import basis as bs
from povm_lab.errors import ContractViolation

from conftest import hs_inner, random_state, state_to_bloch


def scratch_gell_mann(n):
    """The loop builder the one-array `gell_mann_basis` replaced, the oracle:
    each generator from its own `np.zeros` or `np.kron`, and the entry map
    from `np.triu_indices` gathers of their stack, as
    (elements, entry_map, labels)."""
    pauli = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    elems, labels = [], []
    if n in (2, 3):
        for j in range(n - 1):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = m[k, j] = 1 / np.sqrt(2)
                elems.append(m)
                labels.append(f"sym({j + 1},{k + 1})")
        for j in range(n - 1):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = -1j / np.sqrt(2)
                m[k, j] = 1j / np.sqrt(2)
                elems.append(m)
                labels.append(f"asym({j + 1},{k + 1})")
        for l in range(1, n):
            d = np.zeros(n)
            d[:l] = 1.0
            d[l] = -l
            elems.append(np.diag(d).astype(complex) / np.sqrt(l * (l + 1)))
            labels.append(f"diag({l})")
    else:
        for i in range(4):
            for j in range(4):
                if i == j == 0:
                    continue
                elems.append(np.kron(pauli[i], pauli[j]) / 2.0)
                labels.append(f"pauli({i},{j})")
    stack = np.stack(elems)
    p, q = np.triu_indices(n, 1)
    off = stack[:, p, q]
    diagonal = stack[:, range(n), range(n)].real
    entry_map = np.ascontiguousarray(np.concatenate([diagonal, off.real, off.imag], axis=1).T)
    return stack, entry_map, tuple(labels)


class TestGellMannBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_array_matches_loop_builder(self, n):
        elements, entry_map, labels = scratch_gell_mann(n)
        b = bs.gell_mann_basis(n)
        assert b.elements.shape == elements.shape and b.elements.dtype == complex
        assert b.elements.tobytes() == elements.tobytes()
        assert b.entry_map.shape == entry_map.shape
        assert b.entry_map.tobytes() == entry_map.tobytes()
        assert b.labels == labels
        assert b.stack is b.elements

    @pytest.mark.parametrize("n, diagonal", [(2, (3,)), (3, (7, 8)), (4, (3, 12, 15))])
    def test_diagonal_indices(self, n, diagonal):
        # the known indices `refine` accepts, as README's refine bullet states:
        # exactly the generators that are diagonal matrices
        b = bs.gell_mann_basis(n)
        off = ~np.eye(n, dtype=bool)
        assert tuple(i + 1 for i, e in enumerate(b.elements) if not e[off].any()) == diagonal
        assert b.diagonal_indices == diagonal

    @pytest.mark.parametrize("shape", [(7, 3, 3), (8, 3, 2), (9, 9), (3,)])
    def test_rejects_a_stack_not_sized_by_its_dimension(self, shape):
        with pytest.raises(ContractViolation, match="expected"):
            bs.OrthonormalBasis(np.zeros(shape, dtype=complex), ())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dim_is_read_off_the_array(self, n):
        source = bs.gell_mann_basis(n)
        b = bs.OrthonormalBasis(source.elements.copy(), source.labels)
        assert b.dim == n
        assert "dim" not in {f.name for f in dataclasses.fields(b) if f.init}
        with pytest.raises(TypeError):
            bs.OrthonormalBasis(n, source.elements, source.labels)
        # compared by identity, as array fields make == ambiguous
        assert b == b and b != source


    def test_qubit_normalization(self, basis2):
        assert len(basis2.elements) == 3
        for e in basis2.elements:
            assert hs_inner(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_diagonal_generators(self, basis3):
        assert len(basis3.elements) == 8
        d1 = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
        d2 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6)
        assert np.abs(basis3.elements[6] - d1).max() < 1e-15
        assert np.abs(basis3.elements[7] - d2).max() < 1e-15

    def test_dim4_tensor_element(self, basis4):
        assert len(basis4.elements) == 15
        expected = 0.5 * np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.abs(basis4.elements[14] - expected).max() < 1e-15
        assert basis4.labels[14] == "pauli(3,3)"

    def test_unsupported_dim(self):
        # a raise is not cached: every call raises again
        bs.gell_mann_basis.cache_clear()
        for _ in range(3):
            with pytest.raises(ContractViolation):
                bs.gell_mann_basis(5)
        assert bs.gell_mann_basis.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_read_only_build_per_dimension(self, n):
        bs.gell_mann_basis.cache_clear()
        b = bs.gell_mann_basis(n)
        assert bs.gell_mann_basis(n) is b
        assert bs.gell_mann_basis.cache_info().currsize == 1
        arrays = [*b.elements, b.stack, b.entry_map, b.identity]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 7.0
        assert np.array_equal(b.stack, np.stack(b.elements))

    def test_stack_built_once_read_only(self, basis3):
        # stays a plain property so callers can wrap its getter
        assert isinstance(vars(bs.OrthonormalBasis)["stack"], property)
        assert basis3.stack is basis3.stack
        assert np.array_equal(basis3.stack, np.stack(basis3.elements))
        with pytest.raises(ValueError):
            basis3.stack[0, 0, 0] = 1.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 6, 12, 343])
    def test_expand_rows_alone_or_stacked(self, n, rows):
        basis = bs.gell_mann_basis(n)
        coords = np.random.default_rng([n, rows]).normal(size=(rows, n * n - 1))
        stacked = basis.expand(coords)
        assert stacked.shape == (rows, n, n)
        for a, got in zip(coords, stacked):
            alone = basis.expand(a)
            assert np.array_equal(got, alone)
            assert np.array_equal(alone, np.tensordot(a, basis.stack, axes=1))
        shaped = basis.expand(coords.reshape(rows, 1, n * n - 1))
        assert shaped.shape == (rows, 1, n, n)
        assert np.array_equal(shaped[:, 0], stacked)


class TestBlochConversion:
    def test_zero_vector(self, basis3):
        rho = bs.bloch_to_state(np.zeros(8), basis3)
        assert np.abs(rho - np.eye(3) / 3).max() < 1e-15

    def test_qubit_pure_z(self, basis2):
        rho = bs.bloch_to_state(np.array([0.0, 0.0, 1 / np.sqrt(2)]), basis2)
        assert np.abs(rho - np.diag([1.0, 0.0])).max() < 1e-12

    def test_qutrit_offdiagonal_only(self, basis3):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=8)
        theta[6] = theta[7] = 0.0
        rho = bs.bloch_to_state(theta, basis3)
        assert np.abs(np.diag(rho) - 1 / 3).max() < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_matches_single_rows(self, dim):
        basis = bs.gell_mann_basis(dim)
        thetas = np.random.default_rng(dim).uniform(-0.3, 0.3, (7, dim**2 - 1))
        stacked = bs.bloch_to_state(thetas, basis)
        assert stacked.shape == (7, dim, dim)
        for theta, rho in zip(thetas, stacked):
            assert np.array_equal(bs.bloch_to_state(theta, basis), rho)
        with pytest.raises(ContractViolation):
            bs.bloch_to_state(thetas[:, 1:], basis)

    def test_state_to_bloch_mixed(self, basis3):
        assert np.abs(state_to_bloch(np.eye(3) / 3, basis3)).max() < 1e-14

    def test_state_to_bloch_pure_z(self, basis2):
        theta = state_to_bloch(np.diag([1.0, 0.0]), basis2)
        assert np.abs(theta - np.array([0.0, 0.0, 1 / np.sqrt(2)])).max() < 1e-12

    def test_round_trip_random_theta(self, basis2):
        rng = np.random.default_rng(3)
        for _ in range(100):
            theta = rng.uniform(-0.3, 0.3, 3)
            back = state_to_bloch(bs.bloch_to_state(theta, basis2), basis2)
            assert np.abs(back - theta).max() < 1e-12

    def test_trace_violation(self, basis2):
        with pytest.raises(ContractViolation):
            state_to_bloch(np.eye(2), basis2)


class TestParameterPattern:
    def test_identity_mapping_without_knowns(self):
        pattern = bs.ParameterPattern(2)
        u = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(bs.assemble_full_vector(pattern, u), u)

    def test_qutrit_diagonal_known(self, qutrit_pattern):
        u = np.arange(1.0, 7.0)
        full = bs.assemble_full_vector(qutrit_pattern, u)
        assert full[6] == 0.0 and full[7] == 0.0
        assert np.array_equal(full[:6], u)

    def test_qubit_insertion_order(self):
        pattern = bs.ParameterPattern.from_known(2, {3: 0.2})
        full = bs.assemble_full_vector(pattern, np.array([0.1, 0.3]))
        assert np.allclose(full, [0.1, 0.3, 0.2])

    def test_bad_partition(self):
        with pytest.raises(ContractViolation):
            bs.ParameterPattern(2, (2, 4), (0.0, 0.0))

    def test_patterns_compare_and_hash_by_value(self):
        a = bs.ParameterPattern.from_known(3, {8: 0.2, 7: 0.1})
        b = bs.ParameterPattern.from_known(3, {7: 0.1, 8: 0.2})
        assert a == b and hash(a) == hash(b)
        assert a.known_values == (0.1, 0.2) and a.unknown_indices == (1, 2, 3, 4, 5, 6)
        assert a != bs.ParameterPattern.from_known(3, {7: 0.1, 8: 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_known_value_rejected(self, value):
        with pytest.raises(ContractViolation, match="known_values must be finite"):
            bs.ParameterPattern.from_known(3, {7: 0.0, 8: value})

    def test_all_known_rejected(self):
        with pytest.raises(ContractViolation):
            bs.ParameterPattern.from_known(2, {1: 0.0, 2: 0.0, 3: 0.0})

    def test_length_mismatch(self, qutrit_pattern):
        with pytest.raises(ContractViolation):
            bs.assemble_full_vector(qutrit_pattern, np.zeros(5))

    @pytest.mark.parametrize(
        "dim, known", [(2, ()), (2, (3,)), (3, (7, 8)), (4, (1, 5, 15)), (3, (8, 2))]
    )
    def test_positions_are_the_indices_zero_based(self, dim, known):
        pattern = bs.ParameterPattern.from_known(dim, {i: 0.5 for i in known})
        for indices, positions in (
            (pattern.unknown_indices, pattern.unknown_positions),
            (pattern.known_indices, pattern.known_positions),
        ):
            assert positions.dtype == np.intp
            assert positions.tolist() == [i - 1 for i in indices]
            with pytest.raises(ValueError):
                positions[...] = 0
        # unlisted in repr and equality, like the basis's derived arrays
        assert "positions" not in repr(pattern)


@pytest.mark.invariants
class TestInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gram_matrix_identity(self, n):
        b = bs.gell_mann_basis(n)
        k = len(b.elements)
        gram = np.array(
            [[hs_inner(b.elements[i], b.elements[j]) for j in range(k)] for i in range(k)]
        )
        assert np.abs(gram - np.eye(k)).max() < 1e-12
        for e in b.elements:
            assert abs(e.trace()) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_physical_states(self, n):
        rng = np.random.default_rng(40 + n)
        b = bs.gell_mann_basis(n)
        for _ in range(50):
            rho = random_state(rng, n)
            back = bs.bloch_to_state(state_to_bloch(rho, b), b)
            assert np.abs(back - rho).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_norm_purity_identity(self, n):
        rng = np.random.default_rng(50 + n)
        b = bs.gell_mann_basis(n)
        for _ in range(50):
            rho = random_state(rng, n)
            theta = state_to_bloch(rho, b)
            purity = hs_inner(rho, rho)
            assert abs(theta @ theta - (purity - 1 / n)) < 1e-10


def test_importing_basis_loads_only_its_own_imports():
    """The package root re-exports nothing, so `import povm_lab.basis` loads
    neither the annealer, the catalog, rankone nor the CLI; the root still
    gives the version."""
    code = (
        "import sys\n"
        "import povm_lab.basis\n"
        "import povm_lab\n"
        "others = {'povm_lab.annealer', 'povm_lab.catalog', 'povm_lab.rankone', 'povm_lab.cli'}\n"
        "print(povm_lab.__version__, sorted(others & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 []\n"

import itertools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_lab import basis as bs
from povm_lab import linalg, statespace
from povm_lab.errors import ConfigurationError, ContractViolation, EmptyClusterSelection

from conftest import random_unitary


class TestGenerateGrid:
    def test_qubit_hand_enumeration(self, qubit_pattern):
        # g = 3, bound = 0.7: center and the four axis points survive the
        # qubit radius rule |theta| <= 1/sqrt(2); the diagonals at 0.99 fail
        spec = statespace.GridSpec(3, 0.7, qubit_pattern)
        states = statespace.generate_grid(spec)
        assert states.shape == (5, 3)
        norms = np.linalg.norm(states, axis=1)
        assert np.all(norms <= 1 / np.sqrt(2) + 1e-12)
        assert any(np.array_equal(s, np.zeros(3)) for s in states)

    def test_impossible_known_values_empty(self):
        pattern = bs.ParameterPattern.from_known(2, {3: 1.5})
        spec = statespace.GridSpec(3, 0.5, pattern)
        states = statespace.generate_grid(spec)
        assert states.shape[0] == 0

    def test_no_psd_point_gives_empty_rows(self):
        # |theta_3|^2 = 2.25 leaves the Bloch ball (radius^2 1/2) on its own, so
        # every prefix is dropped and no eigvalsh call is made
        pattern = bs.ParameterPattern.from_known(2, {3: 1.5})
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(2), pattern)
        states = statespace.generate_grid(spec)
        assert states.shape == (0, 3)

    def test_info_line_counts(self, qutrit_pattern, caplog):
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(3), qutrit_pattern)
        with caplog.at_level(logging.INFO, logger="povm_lab"):
            statespace.generate_grid(spec)
        assert caplog.messages == [
            "grid: 361 PSD states of 117649 points "
            "(4197 inside the Bloch ball, 0 decided by eigvalsh)"
        ]

    @pytest.mark.parametrize(
        "dim, pattern_name, sent",
        [(3, "qutrit_pattern", 0), (4, "dim4_diag_unknown_pattern", 123)],
    )
    def test_rows_sent_to_eigvalsh(self, request, monkeypatch, dim, pattern_name, sent):
        # the minors decide all 4197 in-ball qutrit points; for n = 4 all 123
        # in-ball points are in their band
        pattern = request.getfixturevalue(pattern_name)
        spectra, rows = linalg.spectra, []

        def counting(rho):
            rows.append(rho.shape[0])
            return spectra(rho)

        monkeypatch.setattr(linalg, "spectra", counting)
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(dim), pattern)
        statespace.generate_grid(spec)
        assert sum(rows) == sent

    def test_oversized_bound_warns_nothing(self, qutrit_pattern):
        # axis**2 overflows to inf, which leaves the ball: only the center stays
        spec = statespace.GridSpec(7, 1e200, qutrit_pattern)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = statespace.generate_grid(spec)
        assert np.array_equal(states, np.zeros((1, 8)))

    def test_center_included_with_odd_g(self, qutrit_pattern):
        spec = statespace.GridSpec(3, bs.bloch_radius_bound(3), qutrit_pattern)
        states = statespace.generate_grid(spec)
        assert any(np.array_equal(s, np.zeros(8)) for s in states)

    def test_budget_guard(self, basis3, qutrit_pattern):
        with pytest.raises(ConfigurationError):
            statespace.GridSpec(20, 0.8, qutrit_pattern)

    def test_bad_axis_count(self, qubit_pattern):
        with pytest.raises(ConfigurationError):
            statespace.GridSpec(1, 0.5, qubit_pattern)


class TestClusterStates:
    def test_single_mixed_state(self, basis3):
        clusters = statespace.cluster_states(np.zeros((1, 8)), 10, basis3)
        assert set(clusters) == {(3, 3, 3)}
        assert clusters[(3, 3, 3)].size == 1

    def test_nearby_radii_share_key(self, basis2):
        states = np.array([[0.2, 0.0, 0.0], [0.21, 0.0, 0.0]])
        clusters = statespace.cluster_states(states, 10, basis2)
        assert set(clusters) == {(6, 3)}

    def test_rejects_wrong_width(self, basis2):
        with pytest.raises(ContractViolation):
            statespace.cluster_states(np.zeros((2, 8)), 10, basis2)

    def test_empty_states(self, basis2):
        assert statespace.cluster_states(np.zeros((0, 3)), 10, basis2) == {}

    def test_top_cell_clamp(self, basis2):
        # pure state: eigenvalues exactly (1, 0)
        states = np.array([[0.0, 0.0, 1 / np.sqrt(2)]])
        clusters = statespace.cluster_states(states, 10, basis2)
        assert set(clusters) == {(9, 0)}


class TestSelectCluster:
    def test_single_cluster_largest(self, basis3):
        clusters = statespace.cluster_states(np.zeros((1, 8)), 10, basis3)
        assert statespace.select_cluster(clusters).key == (3, 3, 3)

    def test_reference_policy(self, basis2, qubit_pattern):
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(2), qubit_pattern)
        clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis2)
        picked = statespace.select_cluster(clusters, np.array([0.2, 0.0]), qubit_pattern)
        assert picked.key == (6, 3)

    def test_reference_missing_key(self, basis2, qubit_pattern):
        clusters = statespace.cluster_states(np.zeros((1, 3)), 10, basis2)
        with pytest.raises(EmptyClusterSelection):
            statespace.select_cluster(clusters, np.array([0.7, 0.0]), qubit_pattern)

    def test_reference_not_a_state(self, basis2, qubit_pattern):
        # rho has eigenvalues 5.5 and -4.5; its cells would be clamped to (9, 0)
        clusters = statespace.cluster_states(np.array([[0.0, 0.0, 1 / np.sqrt(2)]]), 10, basis2)
        assert set(clusters) == {(9, 0)}
        with pytest.raises(ConfigurationError, match="-4.5"):
            statespace.select_cluster(clusters, np.array([5.0, 5.0]), qubit_pattern)

    def test_tie_break_lexicographic(self, basis2):
        states = np.array([[0.2, 0.0, 0.0], [0.45, 0.0, 0.0]])
        clusters = statespace.cluster_states(states, 10, basis2)
        sizes = {k: c.size for k, c in clusters.items()}
        assert set(sizes.values()) == {1}
        picked = statespace.select_cluster(clusters)
        assert picked.key == min(clusters)

    def test_theta_ref_needs_the_pattern(self, basis2):
        clusters = statespace.cluster_states(np.zeros((1, 3)), 10, basis2)
        with pytest.raises(ContractViolation, match="needs the pattern"):
            statespace.select_cluster(clusters, np.array([0.0, 0.0]))

    def test_empty_input(self):
        with pytest.raises(EmptyClusterSelection):
            statespace.select_cluster({})


@pytest.fixture(scope="module")
def qubit_grid(qubit_pattern):
    spec = statespace.GridSpec(7, bs.bloch_radius_bound(2), qubit_pattern)
    return statespace.generate_grid(spec)


@pytest.mark.invariants
class TestInvariants:

    def test_partition_property(self, qubit_grid, basis2):
        clusters = statespace.cluster_states(qubit_grid, 10, basis2)
        assert sum(c.size for c in clusters.values()) == qubit_grid.shape[0]

    def test_members_psd_and_known_values_exact(self, basis3, qutrit_pattern):
        pattern = bs.ParameterPattern.from_known(3, {7: 0.1, 8: -0.05})
        spec = statespace.GridSpec(3, bs.bloch_radius_bound(3), pattern)
        states = statespace.generate_grid(spec)
        assert states.shape[0] > 0
        clusters = statespace.cluster_states(states, 10, basis3)
        for cl in clusters.values():
            for theta in cl.members:
                assert theta[6] == 0.1 and theta[7] == -0.05
                rho = bs.bloch_to_state(theta, basis3)
                assert linalg.min_eigenvalue(rho) >= -1e-10

    def test_membership_invariant_under_permutation(self, qubit_grid, basis2):
        rng = np.random.default_rng(21)
        ref = statespace.cluster_states(qubit_grid, 10, basis2)
        shuffled = qubit_grid[rng.permutation(qubit_grid.shape[0])]
        other = statespace.cluster_states(shuffled, 10, basis2)
        assert set(ref) == set(other)
        for key in ref:
            a = {tuple(m) for m in ref[key].members}
            b = {tuple(m) for m in other[key].members}
            assert a == b


def oracle_grid(spec, basis):
    """Per-point grid walk on the scalar Jacobi path, in itertools.product order."""
    axis = np.linspace(-spec.bound, spec.bound, spec.points_per_axis)
    rows = []
    for combo in itertools.product(axis, repeat=spec.pattern.unknown_count):
        full = bs.assemble_full_vector(spec.pattern, combo)
        if linalg.min_eigenvalue(bs.bloch_to_state(full, basis)) >= -statespace.GRID_PSD_TOL:
            rows.append(full)
    return np.array(rows).reshape(-1, basis.dim**2 - 1)


def oracle_clusters(states, cells, basis):
    """Per-state cell keys from the scalar Jacobi path: {key: members in input order}."""
    groups = {}
    for theta in states:
        evals = linalg.hermitian_eigenvalues(bs.bloch_to_state(theta, basis))
        key = tuple(min(max(int(np.floor(ev * cells)), 0), cells - 1) for ev in evals)
        groups.setdefault(key, []).append(theta)
    return groups


def assert_matches_oracle(spec, basis):
    states = statespace.generate_grid(spec)
    expected = oracle_grid(spec, basis)
    assert states.shape == expected.shape
    assert np.array_equal(states, expected)
    clusters = statespace.cluster_states(states, 10, basis)
    groups = oracle_clusters(expected, 10, basis)
    assert list(clusters) == list(groups)
    for key, members in groups.items():
        assert clusters[key].key == key
        assert np.array_equal(clusters[key].members, np.array(members))
    return states, clusters


class TestBatchedAgainstOracle:
    def test_qubit_g7(self, basis2, qubit_pattern):
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(2), qubit_pattern)
        assert_matches_oracle(spec, basis2)

    def test_qutrit_g5(self, basis3, qutrit_pattern):
        spec = statespace.GridSpec(5, bs.bloch_radius_bound(3), qutrit_pattern)
        states, _ = assert_matches_oracle(spec, basis3)
        assert states.shape[0] > 0

    def test_no_known_indices(self, basis2):
        pattern = bs.ParameterPattern(2)
        spec = statespace.GridSpec(5, bs.bloch_radius_bound(2), pattern)
        states, _ = assert_matches_oracle(spec, basis2)
        assert states.shape[0] > 0

    def test_dim4_diag_unknown_g7(self, basis4, dim4_diag_unknown_pattern):
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(4), dim4_diag_unknown_pattern)
        states, _ = assert_matches_oracle(spec, basis4)
        assert states.shape[0] > 0

    @pytest.mark.parametrize("block", [7, 10, 100])
    def test_partial_last_block(self, monkeypatch, basis2, qubit_pattern, block):
        # 25^2 = 625 points: none of the block sizes divides it
        monkeypatch.setattr(statespace, "GRID_BLOCK", block)
        spec = statespace.GridSpec(25, bs.bloch_radius_bound(2), qubit_pattern)
        states, _ = assert_matches_oracle(spec, basis2)
        assert 625 % block != 0 and states.shape[0] > 2 * block

    def test_known_value_shrinks_ball(self, basis2):
        # theta_3 = 0.3 leaves 0.5 - 0.09 = 0.41 of the squared radius to the
        # unknowns, and the axis ends +-sqrt(0.41) put four pure states on it
        pattern = bs.ParameterPattern.from_known(2, {3: 0.3})
        spec = statespace.GridSpec(5, np.sqrt(0.5 - 0.09), pattern)
        states, _ = assert_matches_oracle(spec, basis2)
        assert states.shape == (13, 3)
        assert np.isclose((states[:, :2] ** 2).sum(axis=1), 0.41).sum() == 4

    def test_golden_qutrit_g7(self, basis3, qutrit_pattern):
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(3), qutrit_pattern)
        states = statespace.generate_grid(spec)
        assert states.shape == (361, 8)
        clusters = statespace.cluster_states(states, 10, basis3)
        assert len(clusters) == 6
        largest = statespace.select_cluster(clusters)
        assert largest.key == (6, 3, 0)
        assert largest.size == 188


class TestEigenvalueCells:
    def test_edges_within_tolerance(self):
        # (0.6, 0.4) as eigvalsh computes it for two states of the qubit g = 11 grid, and exactly
        evals = np.array([[0.6000000000000001, 0.39999999999999997], [0.6, 0.4]])
        assert evals[0, 1] * 10 < 4
        assert statespace.eigenvalue_cells(evals, 10).tolist() == [[6, 4], [6, 4]]
        tol = statespace.CELL_EDGE_TOL
        evals = np.array([[0.5 + tol / 2, 0.5 - tol / 2], [0.5 + 2 * tol, 0.5 - 2 * tol]])
        assert statespace.eigenvalue_cells(evals, 10).tolist() == [[5, 5], [5, 4]]

    def test_qubit_g11_edge_keys(self, basis2, qubit_pattern):
        """I/2 and the spectra (0.6, 0.4) and (0.8, 0.2) lie on cell edges;
        every state of one spectrum gets the same key, as does theta_ref."""
        spec = statespace.GridSpec(11, bs.bloch_radius_bound(2), qubit_pattern)
        clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis2)
        assert {key: c.size for key, c in clusters.items()} == {
            (5, 5): 1, (6, 3): 4, (6, 4): 4, (7, 2): 12, (7, 3): 4,
            (8, 1): 16, (8, 2): 4, (9, 0): 32, (9, 1): 4,
        }
        picked = statespace.select_cluster(clusters, theta_ref=np.zeros(2), pattern=qubit_pattern)
        assert picked.key == (5, 5)

    def test_dim4_tensor_pattern_keys(self, basis4):
        """With every index but 4, 8 and 12 known to be 0 (the tensor SIC's
        pattern, g = 7), the largest cluster is the 12 states of spectrum
        cells (4, 4, 0, 0), and they sum to exactly 0.  Keyed without the
        edge tolerance, rounding moved four (5, 5, 0, 0) states into it: 16
        members whose sum is not 0."""
        pattern = bs.ParameterPattern.from_known(
            4, {i: 0.0 for i in range(1, 16) if i not in (4, 8, 12)}
        )
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(4), pattern)
        clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis4)
        assert {key: c.size for key, c in clusters.items()} == {
            (5, 5, 0, 0): 8, (4, 4, 0, 0): 12, (3, 3, 1, 1): 6, (2, 2, 2, 2): 1,
        }
        largest = statespace.select_cluster(clusters)
        assert largest.key == (4, 4, 0, 0) and largest.size == 12
        assert np.array_equal(largest.members.sum(axis=0), np.zeros(15))

    def test_floor_and_clamp(self):
        evals = np.array([[1.0, 0.5, 0.0], [0.7, 0.3 + 1e-15, -1e-12], [1 + 1e-12, 0.0, -0.0]])
        cells = statespace.eigenvalue_cells(evals, 10)
        assert cells.tolist() == [[9, 5, 0], [7, 3, 0], [9, 0, 0]]

    @pytest.mark.parametrize("dim, pattern_name", [(2, "qubit_pattern"), (3, "qutrit_pattern")])
    def test_reference_finds_own_cluster(self, request, dim, pattern_name):
        basis = request.getfixturevalue(f"basis{dim}")
        pattern = request.getfixturevalue(pattern_name)
        spec = statespace.GridSpec(7, bs.bloch_radius_bound(dim), pattern)
        clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis)
        for key, cl in clusters.items():
            for theta in cl.members:
                picked = statespace.select_cluster(
                    clusters, theta[pattern.unknown_positions], pattern
                )
                assert picked.key == key


def _boundary_points(basis, seed, support, offsets):
    """A random direction with `support` nonzero coordinates, scaled so that
    the lowest eigenvalue of rho = I/n + theta . sigma is each of `offsets`."""
    rng = np.random.default_rng(seed)
    k = basis.dim**2 - 1
    u = np.zeros(k)
    pos = rng.choice(k, size=support, replace=False)
    u[pos] = rng.normal(size=support)
    lowest = np.linalg.eigvalsh(np.tensordot(u, basis.stack, axes=1))[0]  # < 0: traceless
    # lambda_min(rho(t u)) = 1/n + t * lowest for t >= 0
    return np.array([(1.0 / basis.dim - off) / -lowest * u for off in offsets])


def _in_ball(points, n):
    """The grid's prefilter on full Bloch vectors: |theta|^2 <= (n-1)/n + BALL_MARGIN."""
    return (points**2).sum(axis=1) <= (n - 1) / n + statespace.BALL_MARGIN


@pytest.mark.invariants
class TestBallPrefilter:
    """The Bloch-ball test never drops a point that `eigvalsh` would keep."""

    OFFSETS = (
        0.0, 1e-12, -1e-12, -statespace.GRID_PSD_TOL, -statespace.GRID_PSD_TOL + 1e-12,
        -statespace.GRID_PSD_TOL - 1e-12, 1e-3, -1e-3,
    )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 15),
    )
    def test_keeps_every_eigvalsh_kept_point(self, dim, seed, support):
        basis = bs.gell_mann_basis(dim)
        points = _boundary_points(basis, seed, min(support, dim**2 - 1), self.OFFSETS)
        kept = linalg.spectra(bs.bloch_to_state(points, basis))[:, -1] >= -statespace.GRID_PSD_TOL
        assert np.all(_in_ball(points, dim)[kept])
        assert kept[:3].all()  # the boundary and 1e-12 either side of it

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_extremal_state_inside(self, dim):
        # eigenvalues (1 + (n-1)t, -t, ..., -t) give the largest |theta|^2 of
        # any state whose lowest eigenvalue is -t, in any eigenbasis
        basis = bs.gell_mann_basis(dim)
        t = statespace.GRID_PSD_TOL
        spectrum = np.diag([1 + (dim - 1) * t] + [-t] * (dim - 1))
        u = random_unitary(np.random.default_rng(dim), dim)
        for rho in (spectrum, u @ spectrum @ u.conj().T):
            theta = np.einsum("ij,kji->k", rho, basis.stack).real
            assert _in_ball(theta[None], dim)[0]

    def test_qubit_ball_is_the_psd_set(self, basis2):
        # for n = 2 the bound is exact: lambda_min = 1/2 - |theta| / sqrt(2), so
        # away from the margin the two tests agree on every point
        rng = np.random.default_rng(5)
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        for excess in (-1e-3, -1e-8, 1e-8, 1e-3):
            points = np.sqrt(0.5 + excess) * u
            kept = linalg.spectra(bs.bloch_to_state(points, basis2))[:, -1] >= -statespace.GRID_PSD_TOL
            assert np.array_equal(_in_ball(points, 2), kept)
            assert kept.all() == (excess < 0)


@pytest.mark.invariants
class TestPsdRows:
    """The minors-first grid test keeps exactly the rows `eigvalsh` keeps."""

    OFFSETS = (
        0.0, -statespace.GRID_PSD_TOL,
        -statespace.GRID_PSD_TOL + 1e-13, -statespace.GRID_PSD_TOL - 1e-13,
        -statespace.GRID_PSD_TOL + linalg.PSD_MARGIN, -statespace.GRID_PSD_TOL - linalg.PSD_MARGIN,
        -statespace.GRID_PSD_TOL + 2 * linalg.PSD_MARGIN,
        -statespace.GRID_PSD_TOL - 2 * linalg.PSD_MARGIN,
        linalg.PSD_MARGIN, -linalg.PSD_MARGIN, 1e-3, -1e-3,
    )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 15),
    )
    def test_mask_matches_eigvalsh(self, dim, seed, support):
        basis = bs.gell_mann_basis(dim)
        points = _boundary_points(basis, seed, min(support, dim**2 - 1), self.OFFSETS)
        mask, decided = statespace._psd_rows(points, basis)
        expected = linalg.spectra(bs.bloch_to_state(points, basis))[:, -1] >= -statespace.GRID_PSD_TOL
        assert np.array_equal(mask, expected)
        # for n = 4 every row is in the minors' band
        assert decided == len(self.OFFSETS) if dim == 4 else decided <= len(self.OFFSETS)

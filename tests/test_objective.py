import re

import numpy as np
import pytest

from povm_lab import catalog, linalg, objective, statespace
from povm_lab.annealer import random_initial_povm
from povm_lab.basis import ParameterPattern, assemble_full_vector, bloch_to_state, gell_mann_basis
from povm_lab.errors import ContractViolation, NonPositiveObjective, SingularDesign
from povm_lab.povm import Povm, element_rows

from conftest import coordinate_element, multinomial_covariance, solve_linear

# golden master: W0 of the analytic qutrit measurement summed over the
# largest cluster (key (6,3,0), 188 members) of the default g = 7 grid
GOLDEN_QUTRIT_W0 = np.array(
    [
        (22.258503401360578, -3.7097505668934256, -3.7097505668934265, -3.7097505668934256, -3.7097505668934265, -3.7097505668934265),
        (-3.7097505668934256, 22.258503401360546, -3.709750566893427, -3.709750566893425, -3.709750566893429, -3.709750566893427),
        (-3.7097505668934265, -3.709750566893427, 22.258503401360546, -3.7097505668934265, -3.709750566893426, -3.7097505668934274),
        (-3.7097505668934256, -3.709750566893425, -3.7097505668934265, 22.25850340136055, -3.7097505668934265, -3.7097505668934274),
        (-3.7097505668934265, -3.709750566893429, -3.709750566893426, -3.7097505668934265, 22.25850340136055, -3.709750566893427),
        (-3.7097505668934265, -3.709750566893427, -3.7097505668934274, -3.7097505668934274, -3.709750566893427, 22.258503401360542),
    ]
)


def assembled_dacm(design, averaged):
    """Independent oracle: determinant of the explicitly assembled matrix
    T^{-1} W0 (T^{-1})^t, built column by column with linear solves."""
    T, W0 = design.T, averaged.W0
    n = T.shape[0]
    x = np.column_stack([solve_linear(T, W0[:, j]) for j in range(n)])
    v = np.column_stack([solve_linear(T, x.T[:, j]) for j in range(n)]).T
    return linalg.determinant(v)


class TestOutcomeProbabilities:
    def test_qutrit_analytic_mixed(self, qutrit_csic):
        p = objective.outcome_probabilities(qutrit_csic, np.eye(3) / 3)
        assert np.abs(p - 1 / 7).max() < 1e-12

    def test_diag_units_projective(self):
        q = np.array([0.4, 0.3, 0.2, 0.1])
        p = objective.outcome_probabilities(catalog.diag_units_dim4(), np.diag(q))
        assert np.abs(p - q).max() < 1e-12

    def test_trine_overlap_formula(self, trine, basis2):
        rho = bloch_to_state(np.array([1 / np.sqrt(2), 0.0, 0.0]), basis2)
        p = objective.outcome_probabilities(trine, rho)
        assert np.abs(p - np.array([2 / 3, 1 / 6, 1 / 6])).max() < 1e-12

    def test_rejects_non_state(self):
        with pytest.raises(ContractViolation):
            objective.outcome_probabilities(
                catalog.diag_units_dim4(), np.diag([2.0, -1.0, 0.0, 0.0])
            )


class TestCheckSimplex:
    """One check for every table of outcome probabilities: the first row
    with an entry outside [0, 1] or a sum off 1 is named."""

    @staticmethod
    def message(name, low, high, dev):
        return f"for {name}: min {low:.3e}, max {high:.3e}, max |sum - 1| {dev:.3e}"

    @pytest.mark.parametrize(
        "row, value, low, high, dev",
        [
            (1, [1.5, -0.5], -0.5, 1.5, 0.0),
            (2, [0.5, 0.6], 0.5, 0.6, 0.1),
            (1, [np.nan, 0.5], np.nan, np.nan, np.nan),
        ],
        ids=["range", "sum", "nan"],
    )
    def test_names_first_bad_row(self, row, value, low, high, dev):
        p = np.full((4, 2, 2), 0.5)
        p[row:, 1] = value
        message = self.message(f"row {row}", low, high, dev)
        with pytest.raises(ContractViolation, match=re.escape(message)):
            objective.check_simplex(p, lambda i: f"row {i}")

    def test_tolerances(self):
        p = np.array([[-objective.PROB_RANGE_TOL, 1.0 + objective.PROB_RANGE_TOL]])
        objective.check_simplex(p, str)
        with pytest.raises(ContractViolation, match="for 0: "):
            objective.check_simplex(p + [[-1e-9, 0.0]], str)


class TestDesignMatrix:
    def test_zero_directions(self, qubit_pattern):
        P = Povm([0.3 * np.eye(2), 0.3 * np.eye(2), 0.4 * np.eye(2)])
        design = objective.design_matrix(P, qubit_pattern)
        assert np.abs(design.T).max() == 0.0

    def test_trine_rows(self, trine, qubit_pattern):
        design = objective.design_matrix(trine, qubit_pattern)
        for j, ang in enumerate((0.0, 2 * np.pi / 3)):
            row = np.array([np.cos(ang), np.sin(ang)]) * np.sqrt(2) / 3
            assert np.abs(design.T[j] - row).max() < 1e-12
        assert abs(linalg.determinant(design.T)) > 0.1
        assert np.allclose(design.a0s, [1 / 3, 1 / 3])

    def test_single_unknown(self, basis2):
        pattern = ParameterPattern.from_known(2, {2: 0.0, 3: 0.0})
        P = Povm([coordinate_element(0.5, np.array([0.4, 0.0, 0.0]), basis2)])
        design = objective.design_matrix(P, pattern)
        assert design.T.shape == (1, 1)
        assert design.T[0, 0] == pytest.approx(0.2)

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_wrong_length_rejected(self, basis2, qubit_pattern, change):
        """Elements one row and column short or long for the basis are rejected."""
        n = basis2.dim + change
        P = Povm([np.eye(n) / 3.0] * 3)
        with pytest.raises(ContractViolation, match="expected a stack of 2 x 2 elements"):
            objective.design_matrix(P, qubit_pattern)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_per_row_formula(self, dim):
        """Row j of T is a0_j a_j[unknown] for E_j = a0_j (I + a_j . sigma),
        and its offset a0_j, within one rounding of the element matrix."""
        basis = gell_mann_basis(dim)
        rng = np.random.default_rng(dim)
        pattern = ParameterPattern.from_known(dim, {dim**2 - 1: 0.0})
        unknown = [i - 1 for i in pattern.unknown_indices]
        coords = [
            (rng.uniform(0.01, 0.3), rng.normal(0.0, 0.5, dim**2 - 1))
            for _ in range(pattern.unknown_count + 1)
        ]
        P = Povm([coordinate_element(a0, a, basis) for a0, a in coords])
        design = objective.design_matrix(P, pattern)
        rows = coords[: pattern.unknown_count]
        assert np.abs(design.T - np.array([a0 * a[unknown] for a0, a in rows])).max() < 1e-15
        assert np.abs(design.a0s - np.array([a0 for a0, _ in rows])).max() < 1e-15

    def test_for_povm_matches_coords(self, trine, qubit_pattern):
        """Read off the matrices, T and the a0s are the trine's coordinate
        rows a0 a = sqrt(2) (cos, sin) / 3 and a0 = 1/3."""
        design = objective.design_matrix(trine, qubit_pattern)
        angles = 2 * np.pi * np.arange(2) / 3
        rows = np.sqrt(2) * np.stack([np.cos(angles), np.sin(angles)], axis=1) / 3
        assert np.abs(design.T - rows).max() < 1e-15
        assert np.abs(design.a0s - 1 / 3).max() < 1e-15

    def test_tiny_first_element_is_singular(self, trine, qubit_pattern, qubit_cluster):
        """A first element 1e-13 I has the zero design row Tr(E sigma) = 0."""
        eps = 1e-13
        P = Povm([eps * np.eye(2)] + [(1 - eps) * e for e in trine.elements])
        design = objective.design_matrix(P, qubit_pattern)
        averaged = objective.averaged_covariance(P, qubit_cluster, qubit_pattern)
        with pytest.raises(SingularDesign):
            objective.dacm(design, averaged)


class TestMultinomialCovariance:
    def test_uniform_three(self):
        w = multinomial_covariance(np.array([1 / 3, 1 / 3, 1 / 3]), 2)
        assert np.abs(w - np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])).max() < 1e-12

    def test_degenerate_outcome(self):
        w = multinomial_covariance(np.array([0.0, 0.6, 0.4]), 2)
        assert np.abs(w[0]).max() == 0.0 and np.abs(w[:, 0]).max() == 0.0

    def test_uniform_seven(self):
        w = multinomial_covariance(np.full(7, 1 / 7), 6)
        assert np.abs(np.diag(w) - 6 / 49).max() < 1e-12
        off = w[~np.eye(6, dtype=bool)]
        assert np.abs(off + 1 / 49).max() < 1e-12

    def test_n_too_large(self):
        with pytest.raises(ContractViolation):
            multinomial_covariance(np.array([0.5, 0.5]), 2)


class TestAveragedCovariance:
    def test_empty_cluster_rejected(self, trine, qubit_pattern):
        cluster = statespace.Cluster((0, 0), np.zeros((0, 3)), 10)
        with pytest.raises(ContractViolation, match="cluster has no members"):
            objective.averaged_covariance(trine, cluster, qubit_pattern)

    def test_single_member_equals_w(self, trine, basis2, qubit_pattern):
        theta = np.array([0.3, 0.1])
        cluster = statespace.Cluster(
            (0, 0), assemble_full_vector(qubit_pattern, theta)[None, :], 10
        )
        av = objective.averaged_covariance(trine, cluster, qubit_pattern)
        rho = bloch_to_state(cluster.members[0], basis2)
        w = multinomial_covariance(
            objective.outcome_probabilities(trine, rho), 2
        )
        assert np.abs(av.W0 - w).max() < 1e-14
        assert av.member_count == 1

    def test_additivity_over_symmetric_pair(self, trine, basis2, qubit_pattern):
        pair = np.array([[0.3, 0.1], [-0.3, -0.1]])
        members = np.array([assemble_full_vector(qubit_pattern, u) for u in pair])
        cluster = statespace.Cluster((0, 0), members, 10)
        av = objective.averaged_covariance(trine, cluster, qubit_pattern)
        parts = []
        for u in pair:
            rho = bloch_to_state(assemble_full_vector(qubit_pattern, u), basis2)
            parts.append(
                multinomial_covariance(
                    objective.outcome_probabilities(trine, rho), 2
                )
            )
        assert np.abs(av.W0 - (parts[0] + parts[1])).max() < 1e-13

    def test_nan_member_is_a_typed_failure(self, trine, qubit_pattern, qubit_cluster):
        """Not a W0 and log DACM of NaN."""
        members = qubit_cluster.members.copy()
        members[1, 0] = np.nan
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        with pytest.raises(ContractViolation, match=re.escape("cluster member 1: min nan")):
            objective.averaged_covariance(trine, cluster, qubit_pattern)

    def test_names_offending_member(self, trine, qubit_pattern):
        good = assemble_full_vector(qubit_pattern, np.array([0.2, 0.0]))
        bad = assemble_full_vector(qubit_pattern, np.array([2.0, 0.0]))
        cluster = statespace.Cluster((0, 0), np.array([good, bad]), 10)
        with pytest.raises(ContractViolation, match="member 1"):
            objective.averaged_covariance(trine, cluster, qubit_pattern)

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_wrong_length_rejected(self, basis2, qubit_pattern, qubit_cluster, change):
        """W0 is read off the element matrices, so elements one row and column
        short or long for the basis are rejected."""
        n = basis2.dim + change
        P = Povm([np.eye(n) / 3.0] * 3)
        with pytest.raises(ContractViolation, match="expected a stack of 2 x 2 elements"):
            objective.averaged_covariance(P, qubit_cluster, qubit_pattern)

    def test_tiny_closing_weight(self, trine, qubit_pattern, qubit_cluster):
        """A valid POVM whose closing element is 1e-13 I, the rest the trine
        scaled by 1 - 1e-13, has the trine's W0 within 1e-12."""
        eps = 1e-13
        P = Povm([(1 - eps) * e for e in trine.elements] + [eps * np.eye(2)])
        got = objective.averaged_covariance(P, qubit_cluster, qubit_pattern).W0
        want = objective.averaged_covariance(trine, qubit_cluster, qubit_pattern).W0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_golden_qutrit_default_cluster(
        self, qutrit_csic, qutrit_pattern, qutrit_default_cluster
    ):
        av = objective.averaged_covariance(qutrit_csic, qutrit_default_cluster, qutrit_pattern)
        assert av.member_count == 188
        assert qutrit_default_cluster.key == (6, 3, 0)
        assert np.abs(av.W0 - GOLDEN_QUTRIT_W0).max() < 1e-9 * np.abs(GOLDEN_QUTRIT_W0).max()


class TestDacm:
    def test_identity_case(self):
        design = objective.DesignMatrix(np.eye(2), np.zeros(2))
        av = objective.AveragedCovariance(np.eye(2), 1)
        assert objective.dacm(design, av) == pytest.approx(1.0)

    def test_homogeneity_in_w0(self):
        rng = np.random.default_rng(33)
        t = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        w = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        w = (w + w.T) / 2 + 3 * np.eye(3)
        design = objective.DesignMatrix(t, np.zeros(3))
        base = objective.dacm(design, objective.AveragedCovariance(w, 1))
        for k in (0.5, 2.0, 7.0):
            scaled = objective.dacm(design, objective.AveragedCovariance(k * w, 1))
            assert scaled == pytest.approx(k**3 * base, rel=1e-10)

    def test_equality_oracle_random(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            t = rng.normal(size=(n, n)) + 2 * np.eye(n)
            a = rng.normal(size=(n, n))
            w = a @ a.T + 0.5 * np.eye(n)
            design = objective.DesignMatrix(t, np.zeros(n))
            av = objective.AveragedCovariance(w, 1)
            direct = objective.dacm(design, av)
            assert direct == pytest.approx(assembled_dacm(design, av), rel=1e-10)

    def test_singular_design(self):
        design = objective.DesignMatrix(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(SingularDesign):
            objective.dacm(design, objective.AveragedCovariance(np.eye(2), 1))

    def test_underflowing_square_is_inf(self):
        # |det T| = 1e-180 passes the relative floor 1e-12 * (1e-30)^6, but
        # det T^2 underflows to 0: the DACM is past the float range
        design = objective.DesignMatrix(1e-30 * np.eye(6), np.zeros(6))
        assert objective.dacm(design, objective.AveragedCovariance(np.eye(6), 1)) == np.inf

    def test_nonpositive_objective(self):
        design = objective.DesignMatrix(np.eye(2), np.zeros(2))
        degenerate = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NonPositiveObjective):
            objective.dacm(design, objective.AveragedCovariance(degenerate, 1))


class TestLogDacm:
    def test_log_of_dacm_random(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            t = rng.normal(size=(n, n)) + 2 * np.eye(n)
            a = rng.normal(size=(n, n))
            av = objective.AveragedCovariance(a @ a.T + 0.5 * np.eye(n), 1)
            design = objective.DesignMatrix(t, np.zeros(n))
            got = objective.log_dacm(design, av)
            assert got == pytest.approx(np.log(objective.dacm(design, av)), abs=1e-12)

    def test_finite_where_dacm_overflows(self):
        # the case `dacm` reports as inf: log det W0 - 2 log (1e-30)^6
        design = objective.DesignMatrix(1e-30 * np.eye(6), np.zeros(6))
        got = objective.log_dacm(design, objective.AveragedCovariance(np.eye(6), 1))
        assert got == pytest.approx(-12 * np.log(1e-30), rel=1e-14)

    def test_same_failures_as_dacm(self):
        singular = objective.DesignMatrix(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(SingularDesign):
            objective.log_dacm(singular, objective.AveragedCovariance(np.eye(2), 1))
        degenerate = objective.AveragedCovariance(np.diag([1.0, 0.0]), 1)
        with pytest.raises(NonPositiveObjective):
            objective.log_dacm(objective.DesignMatrix(np.eye(2), np.zeros(2)), degenerate)


class TestEstimateState:
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
    def test_wrong_shape_frequencies_rejected(self, trine, qubit_pattern, shape):
        design = objective.design_matrix(trine, qubit_pattern)
        message = re.escape(f"frequencies shape {shape} != (2,)")
        with pytest.raises(ContractViolation, match=message):
            objective.estimate_state(np.full(shape, 0.5), design)

    def test_noiseless_inversion(self, trine, basis2, qubit_pattern):
        theta = np.array([0.25, -0.15])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        p = objective.outcome_probabilities(trine, rho)
        design = objective.design_matrix(trine, qubit_pattern)
        est = objective.estimate_state(p[:2], design)
        assert np.abs(est - theta).max() < 1e-9

    def test_stack_gives_each_row_its_own_bits(self, trine, qubit_pattern):
        design = objective.design_matrix(trine, qubit_pattern)
        nus = np.random.default_rng(3).uniform(0.0, 1.0, (4, 5, 2))
        rows = [[objective.estimate_state(nu, design) for nu in block] for block in nus]
        assert objective.estimate_state(nus, design).tobytes() == np.array(rows).tobytes()

    def test_offset_maps_to_zero(self, trine, qubit_pattern):
        design = objective.design_matrix(trine, qubit_pattern)
        est = objective.estimate_state(design.a0s, design)
        assert np.abs(est).max() < 1e-12

    def test_monte_carlo_unbiased(self, trine, basis2, qubit_pattern):
        theta = np.array([0.3, 0.1])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        p = objective.outcome_probabilities(trine, rho)
        design = objective.design_matrix(trine, qubit_pattern)
        rng = np.random.default_rng(42)
        counts = rng.multinomial(100_000, p, size=1000)
        nus = counts[:, :2] / 100_000
        ests = objective.estimate_state(nus, design)
        mean = ests.mean(axis=0)
        assert np.abs(mean - theta).max() <= 0.02


class TestSimulatedTomography:
    """log_dacm is the log determinant of the linear-inversion estimator's error
    covariance summed over the cluster, times R^N for R shots per state."""

    SAMPLES, SHOTS = 1000, 1000
    # five standard errors: log det of the simulated sum spread by 0.0085 (SD
    # over seeds 0-29 for the catalog SIC; 0.0072 for the random start), as
    # sqrt(2N / (k S)) = 0.008 predicts for N = 6 and k S = 188 * 1000 draws
    TOL = 0.045

    def simulated_log_det(self, P, pattern, cluster, seed):
        """Draw SAMPLES multinomial frequency vectors of SHOTS outcomes at each
        member, invert them with one `estimate_state` call, and return log det of
        the members' summed error covariances plus N log SHOTS."""
        design = objective.design_matrix(P, pattern)
        rhos = bloch_to_state(cluster.members, gell_mann_basis(pattern.dim))
        probs = np.einsum("jab,kba->kj", P.elements, rhos).real.clip(0.0, None)
        counts = np.random.default_rng(seed).multinomial(
            self.SHOTS, probs, size=(self.SAMPLES, len(probs))
        )
        nu = counts[..., : pattern.unknown_count] / self.SHOTS
        est = objective.estimate_state(nu, design)
        err = est - cluster.members[:, pattern.unknown_positions]
        cov = np.einsum("ski,skj->ij", err, err) / self.SAMPLES
        return np.linalg.slogdet(cov)[1] + pattern.unknown_count * np.log(self.SHOTS)

    def test_matches_log_dacm_and_ranks_the_sic_first(
        self, qutrit_csic, qutrit_pattern, qutrit_default_cluster
    ):
        start = random_initial_povm(qutrit_pattern, np.random.default_rng(3), 0.3)
        simulated = []
        for P, want in ((qutrit_csic, 31.21671), (start, 49.71687)):
            design = objective.design_matrix(P, qutrit_pattern)
            averaged = objective.averaged_covariance(P, qutrit_default_cluster, qutrit_pattern)
            log_dacm = objective.log_dacm(design, averaged)
            assert log_dacm == pytest.approx(want, abs=1e-5)
            got = self.simulated_log_det(P, qutrit_pattern, qutrit_default_cluster, seed=0)
            assert got == pytest.approx(log_dacm, abs=self.TOL)
            simulated.append(got)
        assert simulated[0] < simulated[1]


@pytest.mark.invariants
class TestInvariants:
    def test_simplex_on_random_pairs(self, basis2, qubit_pattern):
        from povm_lab.annealer import random_initial_povm

        rng = np.random.default_rng(60)
        for _ in range(20):
            pov = random_initial_povm(qubit_pattern, rng, scale=0.15)
            theta = rng.uniform(-0.4, 0.4, 2)
            full = assemble_full_vector(qubit_pattern, theta)
            if np.linalg.norm(full) > 1 / np.sqrt(2):
                continue
            p = objective.outcome_probabilities(pov, bloch_to_state(full, basis2))
            assert abs(p.sum() - 1.0) < 1e-9

    def test_w0_symmetric_psd(self, trine, basis2, qubit_pattern, qubit_cluster):
        av = objective.averaged_covariance(trine, qubit_cluster, qubit_pattern)
        assert np.abs(av.W0 - av.W0.T).max() < 1e-10
        assert linalg.hermitian_eigenvalues(av.W0.astype(complex))[-1] >= -1e-9
        theta = np.array([0.3, 0.1])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        w = multinomial_covariance(
            objective.outcome_probabilities(trine, rho), 2
        )
        assert np.abs(w - w.T).max() == 0.0
        assert linalg.hermitian_eigenvalues(w.astype(complex))[-1] >= -1e-9

    def test_dacm_equality_oracle_on_povms(self, trine, qubit_pattern, qubit_cluster):
        design = objective.design_matrix(trine, qubit_pattern)
        av = objective.averaged_covariance(trine, qubit_cluster, qubit_pattern)
        assert objective.dacm(design, av) == pytest.approx(
            assembled_dacm(design, av), rel=1e-10
        )

    def test_dacm_invariant_under_member_permutation(self, trine, qubit_pattern, qubit_cluster):
        design = objective.design_matrix(trine, qubit_pattern)
        base = objective.dacm(
            design, objective.averaged_covariance(trine, qubit_cluster, qubit_pattern)
        )
        rng = np.random.default_rng(61)
        for _ in range(5):
            perm = rng.permutation(qubit_cluster.size)
            shuffled = statespace.Cluster(
                qubit_cluster.key, qubit_cluster.members[perm], qubit_cluster.cell_count
            )
            val = objective.dacm(
                design, objective.averaged_covariance(trine, shuffled, qubit_pattern)
            )
            assert val == pytest.approx(base, rel=1e-12)

    def test_batched_probabilities_match_per_state(
        self, trine, basis2, qubit_pattern, qubit_cluster
    ):
        X = element_rows(trine.elements, basis2)
        probs = X[:, 0] + qubit_cluster.members @ X[:, 1:].T
        for i in range(qubit_cluster.size):
            rho = bloch_to_state(qubit_cluster.members[i], basis2)
            direct = objective.outcome_probabilities(trine, rho)
            assert np.abs(probs[i] - direct).max() < 1e-13

    def test_unbiasedness_five_sigma(self, trine, basis2, qubit_pattern):
        theta = np.array([0.3, 0.1])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        p = objective.outcome_probabilities(trine, rho)
        design = objective.design_matrix(trine, qubit_pattern)
        rng = np.random.default_rng(42)
        counts = rng.multinomial(100_000, p, size=1000)
        ests = np.array(
            [objective.estimate_state(nu, design) for nu in counts[:, :2] / 100_000]
        )
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / np.sqrt(ests.shape[0])
        assert np.all(np.abs(mean - theta) <= 5 * se)

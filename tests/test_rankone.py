import random

import numpy as np
import pytest

from povm_lab import povm, rankone
from povm_lab.annealer import AnnealConfig
from povm_lab.errors import ContractViolation

from conftest import hs_inner, qutrit_csic_phases


RESIDUAL_SHAPES = [(2, 3), (3, 7), (4, 5)]


def residuals(phases):
    """Residuals r and their Jacobian over phases[1:, 1:], as refine builds them."""
    r, parts = rankone._residual_parts(phases)
    return r, rankone._jacobian(*parts)


def scratch_residuals(phases, dim, m, off_mask):
    """The oracle for `residuals`: its residuals and Jacobian built
    through an (m, m, m, n) zero tensor of overlap derivatives and two
    `einsum` products with the identity for the completeness derivatives."""
    H = rankone._vectors(phases, dim)
    c = dim / m
    g = H.conj()[:, None, :] * H[None, :, :]
    G = g.sum(axis=2)
    off = ((c * c) * (G.real**2 + G.imag**2))[off_mask]
    D = (-2.0 * c * c) * (G.conj()[:, :, None] * g).imag
    idx = np.arange(m)
    d_overlaps = np.zeros((m, m, m, dim))
    d_overlaps[:, idx, idx, :] = D
    d_overlaps[idx, :, idx, :] -= D
    d_off = d_overlaps[off_mask][:, 1:, 1:].reshape(off.size, -1)
    s = c * H[:, :, None] * H.conj()[:, None, :]
    S = s.sum(axis=0) - np.eye(dim)
    eye = np.eye(dim)
    dS = 1j * (np.einsum("akl,jk->klaj", s, eye) - np.einsum("akl,jl->klaj", s, eye))
    dS = dS[:, :, 1:, 1:].reshape(dim * dim, -1)
    residuals = [off - off.mean(), S.real.ravel(), S.imag.ravel()]
    jacobian = [d_off - d_off.mean(axis=0), dS.real, dS.imag]
    return np.concatenate(residuals), np.vstack(jacobian)


# refine does not read its config; this is the one the CLI passes
REFINE_CONFIG = AnnealConfig(total_steps=0)


class TestPhasesToPovm:
    def test_analytic_matches_printed_matrices(self, qutrit_csic):
        phi = qutrit_csic_phases()
        pov, violations = rankone.phases_to_povm(phi)
        assert violations == []
        for got, want in zip(pov.elements, qutrit_csic.elements):
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    def test_elements_equal_per_vector_outer_products(self, n, m):
        phi = rankone.random_phases(n, m, np.random.default_rng([n, m, 3]))
        pov, _ = rankone.phases_to_povm(phi)
        H = rankone._vectors(phi.phases, n)
        assert len(pov.elements) == m
        for got, h in zip(pov.elements, H):
            assert np.array_equal(got, (n / m) * np.outer(h, h.conj()))

    def test_all_zero_phases_fail_completeness(self):
        phi = rankone.PhaseConfiguration(np.zeros((3, 3)))
        pov, violations = rankone.phases_to_povm(phi)
        for a, b in zip(pov.elements[:-1], pov.elements[1:]):
            assert np.abs(a - b).max() == 0.0
        assert any(v.name == "completeness" for v in violations)

    def test_diagonal_always_uniform(self):
        rng = np.random.default_rng(1)
        phi = rankone.random_phases(3, 7, rng)
        pov, _ = rankone.phases_to_povm(phi)
        for e in pov.elements:
            assert np.abs(np.diag(e) - 1 / 7).max() < 1e-15

    def test_gauge_fix_wraps_tiny_negative_phase(self):
        raw = np.zeros((3, 3))
        raw[1, 2] = -1e-17
        fixed = rankone.gauge_fix(raw)
        assert fixed[1, 2] == 0.0
        rankone.PhaseConfiguration(fixed)

    def test_gauge_validation(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 0.3
        with pytest.raises(ContractViolation):
            rankone.PhaseConfiguration(bad)

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 3, 3), (0, 3), (3, 0)], ids=["1-D", "3-D", "no-rows", "no-columns"]
    )
    def test_not_a_nonempty_matrix_rejected(self, shape):
        # the matrix is the one source of m and n
        with pytest.raises(ContractViolation, match=r"nonempty \(m, n\) matrix"):
            rankone.PhaseConfiguration(np.zeros(shape))

    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "phases must be finite"),
            (7.0, r"phases must lie in \[0, 2pi\)"),
            (-1.0, r"phases must lie in \[0, 2pi\)"),
        ],
        ids=["nan", "above-2pi", "negative"],
    )
    def test_bad_phase_value_rejected(self, value, message):
        phases = np.zeros((2, 2))
        phases[1, 1] = value
        with pytest.raises(ContractViolation, match=message):
            rankone.PhaseConfiguration(phases)

    def test_compares_by_identity_and_hashes(self):
        # a field-wise == on the phase array would raise numpy's ambiguous-truth error
        a = rankone.random_phases(3, 7, random.Random(1))
        copy = rankone.PhaseConfiguration(a.phases.copy())
        assert a == a and a != copy
        assert len({a, copy}) == 2 and hash(a) == hash(a)


class TestRandomPhases:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, [4, 2]])
    def test_generator_draws_match_uniform(self, n, seed):
        """With a numpy Generator the row-by-row draws are, bit for bit, the
        Generator's uniform(0, 2pi) block the phases were once drawn as."""
        for m in range(2, 9):
            got = rankone.random_phases(n, m, np.random.default_rng(seed)).phases
            want = np.random.default_rng(seed).uniform(0.0, rankone.TWO_PI, (m - 1, n - 1))
            assert got[1:, 1:].tobytes() == want.tobytes()
            assert not got[0].any() and not got[:, 0].any()

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 7), (4, 5)])
    def test_standard_library_draws(self, n, m):
        for r in range(5):
            one = rankone.random_phases(n, m, random.Random(f"3,{r}")).phases
            two = rankone.random_phases(n, m, random.Random(f"3,{r}")).phases
            assert one.tobytes() == two.tobytes()
            assert not one[0].any() and not one[:, 0].any()
            assert one.min() >= 0.0 and one.max() < rankone.TWO_PI
            assert np.unique(one[1:, 1:]).size == (m - 1) * (n - 1)


class TestRefineObjective:
    def test_analytic_solution_is_zero(self):
        assert rankone.refine_objective(qutrit_csic_phases()) < 1e-12

    def test_zero_phases_dominated_by_completeness(self):
        phi = rankone.PhaseConfiguration(np.zeros((7, 3)))
        delta_only = povm.metrics(rankone.phases_to_povm(phi)[0]).Delta
        with_penalty = rankone.refine_objective(phi)
        gamma = with_penalty - delta_only
        assert with_penalty > 0
        assert gamma > delta_only


class TestRefine:
    def test_analytic_start_is_fixed_point(self):
        phi = qutrit_csic_phases()
        res = rankone.refine(phi, REFINE_CONFIG)
        assert res.objective < 1e-20
        assert np.abs(res.phases.phases - phi.phases).max() < 1e-9

    def test_random_start_converges(self):
        rng = np.random.default_rng(0)
        initial = rankone.random_phases(3, 7, rng)
        res = rankone.refine(initial, REFINE_CONFIG)
        assert res.objective < 1e-10
        pov, violations = rankone.phases_to_povm(res.phases)
        assert violations == []
        overlaps = [
            hs_inner(pov.elements[i], pov.elements[j])
            for i in range(7)
            for j in range(7)
            if i != j
        ]
        assert max(abs(o - 2 / 49) for o in overlaps) < 1e-6
        total = sum(pov.elements)
        assert np.abs(total - np.eye(3)).max() < 1e-9

    def test_path_at_a_fixed_start(self):
        # the LM trajectory from the first CLI start of seed 0: its iteration
        # count, every trace value above the float floor and the final phases
        initial = rankone.random_phases(3, 7, random.Random("0,0"))
        res = rankone.refine(initial, REFINE_CONFIG)
        assert len(res.objective_trace) - 1 == 6
        above_floor = [f for f in res.objective_trace if f > 1e-20]
        assert above_floor == pytest.approx(
            [
                0.22264491272626324,
                0.0944426377169396,
                0.0034655715329667035,
                1.591318949372174e-05,
                1.1234896417369848e-09,
                2.207262337956388e-18,
            ],
            rel=1e-9,
        )
        want = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, 3.5903916041026216, 5.385587406153933],
                [0.0, 5.385587406153933, 1.7951958020513121],
                [0.0, 4.487989505128277, 3.590391604102622],
                [0.0, 1.7951958020513115, 2.692793703076967],
                [0.0, 2.692793703076967, 0.8975979010256571],
                [0.0, 0.8975979010256571, 4.487989505128278],
            ]
        )
        assert np.abs(res.phases.phases - want).max() <= 1e-12

    @pytest.mark.parametrize("restart", range(3))
    @pytest.mark.parametrize("n", [4, 5])
    def test_reaches_floor_beyond_the_qutrit(self, n, restart):
        # n^2 - n + 1 elements, as the conditional SIC of dimension n needs
        initial = rankone.random_phases(n, n * n - n + 1, random.Random(f"0,{restart}"))
        res = rankone.refine(initial, REFINE_CONFIG)
        assert res.objective <= rankone.LM_FLOOR

    def test_config_is_not_read(self):
        initial = rankone.random_phases(3, 7, np.random.default_rng(7))
        a = rankone.refine(initial, AnnealConfig(total_steps=0))
        b = rankone.refine(initial, AnnealConfig(total_steps=3000, rng_seed=9))
        assert np.array_equal(a.phases.phases, b.phases.phases)
        assert a.objective_trace == b.objective_trace


class TestResiduals:
    """The LM polish's residuals and Jacobian against the objective they square."""

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    def test_sum_of_squares_is_objective(self, n, m):
        # the objective from the POVM's own diagnostics: Delta plus the
        # squared Frobenius norm of the completeness residual
        rng = np.random.default_rng([n, m, 1])
        for _ in range(3):
            phi = rankone.random_phases(n, m, rng)
            P = rankone.phases_to_povm(phi)[0]
            completeness = np.linalg.norm(sum(P.elements) - np.eye(n), "fro") ** 2
            want = povm.metrics(P).Delta + completeness
            r, _ = residuals(phi.phases)
            assert abs(r @ r - want) <= 1e-12 * want
            assert abs(rankone.refine_objective(phi) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", range(3, 10))
    def test_equal_to_scratch_tensor_oracle(self, n, m):
        rng = np.random.default_rng([n, m, 2])
        mask = ~np.eye(m, dtype=bool)
        for _ in range(3):
            phases = rankone.random_phases(n, m, rng).phases
            for got, want in zip(residuals(phases), scratch_residuals(phases, n, m, mask)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    def test_equal_to_scratch_tensor_oracle_at_the_qutrit_solution(self):
        phases = qutrit_csic_phases().phases
        want = scratch_residuals(phases, 3, 7, ~np.eye(7, dtype=bool))
        for got, expected in zip(residuals(phases), want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    def test_tables_are_built_once_and_read_only(self, n, m):
        tables = rankone._jacobian_tables(n, m)
        assert rankone._jacobian_tables(n, m) is tables
        assert tables.off_mask.shape == (m, m)
        assert tables.identity.shape == (n, n)
        for array in tables:
            with pytest.raises(ValueError):
                array[...] = 0

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    def test_jacobian_matches_central_differences(self, n, m):
        rng = np.random.default_rng([n, m, 1])
        h = 1e-6
        for _ in range(3):
            phi = rankone.random_phases(n, m, rng)
            _, J = residuals(phi.phases)
            assert J.shape[1] == (m - 1) * (n - 1)
            free = [(i, k) for i in range(1, m) for k in range(1, n)]
            for col, (i, k) in enumerate(free):
                plus, minus = phi.phases.copy(), phi.phases.copy()
                plus[i, k] += h
                minus[i, k] -= h
                r_plus, _ = residuals(plus)
                r_minus, _ = residuals(minus)
                assert np.abs(J[:, col] - (r_plus - r_minus) / (2 * h)).max() < 1e-8


class TestPolish:
    @pytest.mark.parametrize(
        "n,m,old_polish_floor",
        # objectives the golden-section coordinate-descent polish reached
        [(2, 4, 0.04166666666666674), (3, 5, 0.013131282035425646), (3, 6, 0.022222222399260538)],
    )
    def test_nonzero_floor_no_worse_than_coordinate_descent(self, n, m, old_polish_floor):
        initial = rankone.random_phases(n, m, np.random.default_rng([0, 0]))
        res = rankone.refine(initial, REFINE_CONFIG)
        assert res.objective <= old_polish_floor

    @pytest.mark.parametrize(
        "n,m,floors",
        # the non-zero minima every measured start of these shapes ends at;
        # (3, 6) has two
        [(2, 4, [1 / 24]), (3, 5, [0.0131312820354242]), (3, 6, [0.0202664967409118, 0.0222222222222225])],
    )
    def test_nonzero_floor_reached_from_every_seed(self, n, m, floors):
        for seed in range(10):
            initial = rankone.random_phases(n, m, np.random.default_rng([seed, 0]))
            res = rankone.refine(initial, REFINE_CONFIG)
            assert min(abs(res.objective - f) for f in floors) < 1e-12, (seed, res.objective)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_stationary_start_reports_its_phases(self, steps):
        # phases of 0 and pi make the gradient J^T r vanish to about 1e-17, so
        # no step lowers the objective
        phases = np.zeros((4, 2))
        phases[1, 1] = phases[3, 1] = np.pi
        initial = rankone.PhaseConfiguration(phases)
        res = rankone.refine(initial, AnnealConfig(total_steps=steps))
        assert np.array_equal(res.phases.phases, initial.phases)
        assert res.objective == rankone.refine_objective(initial)
        # refine does not read its config, so an anneal length changes nothing
        assert res.objective == rankone.refine(initial, REFINE_CONFIG).objective

    def test_singular_damped_system_raises_lambda(self, monkeypatch):
        # every column of J has nonzero completeness entries, so the damped
        # matrix is positive definite; a solve that raises LinAlgError anyway,
        # here the first one, is retried at ten times lambda
        phases = np.zeros((4, 3))
        phases[1:, 1:] = np.pi * np.array([[0.0, 1.5], [1.0, 0.0], [1.0, 0.5]])
        initial = rankone.PhaseConfiguration(phases)
        solve, systems = np.linalg.solve, []

        def failing_first_solve(a, b):
            systems.append(a)
            if len(systems) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_first_solve)
        res = rankone.refine(initial, REFINE_CONFIG)
        _, J = residuals(initial.phases)
        JtJ = J.T @ J
        damping = np.diag(np.diag(JtJ))
        lam = rankone.LM_LAMBDA_START
        assert np.array_equal(systems[0], JtJ + lam * damping)
        assert np.array_equal(systems[1], JtJ + (lam * 10.0) * damping)
        assert res.objective < 1e-20
        assert rankone.refine_objective(res.phases) == pytest.approx(res.objective, rel=1e-12)

    def test_iteration_count_on_acceptance_seeds(self):
        for seed in range(5):
            initial = rankone.random_phases(3, 7, np.random.default_rng(seed))
            res = rankone.refine(initial, REFINE_CONFIG)
            iterations = len(res.objective_trace) - 1
            assert 1 <= iterations <= 20
            assert res.objective < 1e-20


@pytest.mark.invariants
class TestInvariants:
    def test_gauge_invariance_per_row(self):
        rng = np.random.default_rng(3)
        phi = rankone.random_phases(3, 7, rng)
        base, _ = rankone.phases_to_povm(phi)
        for i in range(7):
            raw = phi.phases.copy()
            raw[i, :] += 1.234
            refixed = rankone.PhaseConfiguration(rankone.gauge_fix(raw))
            pov, _ = rankone.phases_to_povm(refixed)
            assert np.abs(pov.elements[i] - base.elements[i]).max() < 1e-12

    def test_quasi_orthogonal_to_diagonals_always(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = rankone.random_phases(3, 7, rng)
            pov, _ = rankone.phases_to_povm(phi)
            d = np.diag(rng.normal(size=3)).astype(complex)
            for e in pov.elements:
                assert abs(hs_inner(e, d) - d.trace().real / 7) < 1e-14

    def test_polish_monotone(self):
        rng = np.random.default_rng(5)
        initial = rankone.random_phases(3, 7, rng)
        res = rankone.refine(initial, REFINE_CONFIG)
        trace = res.objective_trace
        assert trace[0] == rankone.refine_objective(initial)
        assert len(trace) >= 2
        assert all(a >= b - 1e-30 for a, b in zip(trace, trace[1:]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        phi = rankone.random_phases(3, 7, rng)
        path = tmp_path / "phases.csv"
        rankone.write_phases(phi, path)
        # plain CSV: any CSV reader gets the phases back exactly
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        assert back.shape == (7, 3)
        assert np.array_equal(back, phi.phases)

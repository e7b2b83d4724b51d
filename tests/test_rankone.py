from dataclasses import replace

import numpy as np
import pytest

from povm_lab import catalog, linalg, rankone
from povm_lab.annealer import AnnealConfig
from povm_lab.errors import ContractViolation


RESIDUAL_SHAPES = [(2, 3), (3, 7), (4, 5)]
RESIDUAL_WEIGHTS = [0.0, 1.0, 10.0]


def residuals(phases, weight):
    m, n = phases.shape
    return rankone._residuals(phases, n, m, weight, ~np.eye(m, dtype=bool))


def refine_config(seed, steps=1500):
    return AnnealConfig(
        total_steps=steps,
        s0=0.7,
        s_decay=0.999,
        T0=0.02,
        T_decay=0.998,
        reheat_every=600,
        reheat_factor=8.0,
        rng_seed=seed,
        trace_every=100,
    )


class TestPhasesToPovm:
    def test_analytic_matches_printed_matrices(self, qutrit_csic):
        phi = catalog.qutrit_csic_phases()
        pov, violations = rankone.phases_to_povm(phi)
        assert violations == []
        for got, want in zip(pov.elements, qutrit_csic.elements):
            assert np.abs(got - want).max() < 1e-12

    def test_all_zero_phases_fail_completeness(self):
        phi = rankone.PhaseConfiguration(3, 3, np.zeros((3, 3)))
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
        rankone.PhaseConfiguration(3, 3, fixed)

    def test_gauge_validation(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 0.3
        with pytest.raises(ContractViolation):
            rankone.PhaseConfiguration(3, 3, bad)


class TestRefineObjective:
    def test_analytic_solution_is_zero(self):
        phi = catalog.qutrit_csic_phases()
        for w in (0.0, 1.0, 10.0):
            assert rankone.refine_objective(phi, w) < 1e-12

    def test_zero_phases_dominated_by_completeness(self):
        phi = rankone.PhaseConfiguration(3, 7, np.zeros((7, 3)))
        delta_only = rankone.refine_objective(phi, 0.0)
        with_penalty = rankone.refine_objective(phi, 1.0)
        gamma = with_penalty - delta_only
        assert with_penalty > 0
        assert gamma > delta_only

    def test_weight_zero_equals_metrics_delta(self):
        from povm_lab.povm import metrics

        rng = np.random.default_rng(2)
        for _ in range(5):
            phi = rankone.random_phases(3, 7, rng)
            pov, _ = rankone.phases_to_povm(phi)
            assert rankone.refine_objective(phi, 0.0) == pytest.approx(
                metrics(pov).Delta, abs=1e-12
            )


class TestRefine:
    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_bad_weight_rejected(self, weight):
        phi = catalog.qutrit_csic_phases()
        with pytest.raises(ContractViolation, match="weight"):
            rankone.refine(phi, refine_config(0, steps=5), weight)
        with pytest.raises(ContractViolation, match="weight"):
            rankone.refine_objective(phi, weight)

    def test_analytic_start_is_fixed_point(self):
        phi = catalog.qutrit_csic_phases()
        res = rankone.refine(phi, refine_config(0, steps=50), 1.0)
        assert res.objective < 1e-20
        assert np.abs(res.phases.phases - phi.phases).max() < 1e-9

    def test_random_start_converges(self):
        rng = np.random.default_rng(0)
        initial = rankone.random_phases(3, 7, rng)
        res = rankone.refine(initial, refine_config(0), 1.0)
        assert res.objective < 1e-10
        pov, violations = rankone.phases_to_povm(res.phases)
        assert violations == []
        overlaps = [
            linalg.hs_inner(pov.elements[i], pov.elements[j])
            for i in range(7)
            for j in range(7)
            if i != j
        ]
        assert max(abs(o - 2 / 49) for o in overlaps) < 1e-6
        total = sum(pov.elements)
        assert np.abs(total - np.eye(3)).max() < 1e-9


class TestResiduals:
    """The LM polish's residuals and Jacobian against the objective they square."""

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    @pytest.mark.parametrize("weight", RESIDUAL_WEIGHTS)
    def test_sum_of_squares_is_objective(self, n, m, weight):
        rng = np.random.default_rng([n, m, int(weight)])
        for _ in range(3):
            phi = rankone.random_phases(n, m, rng)
            r, _ = residuals(phi.phases, weight)
            want = rankone.refine_objective(phi, weight)
            assert abs(r @ r - want) <= 1e-12 * want

    @pytest.mark.parametrize("n,m", RESIDUAL_SHAPES)
    @pytest.mark.parametrize("weight", RESIDUAL_WEIGHTS)
    def test_jacobian_matches_central_differences(self, n, m, weight):
        rng = np.random.default_rng([n, m, int(weight)])
        h = 1e-6
        for _ in range(3):
            phi = rankone.random_phases(n, m, rng)
            _, J = residuals(phi.phases, weight)
            assert J.shape[1] == (m - 1) * (n - 1)
            free = [(i, k) for i in range(1, m) for k in range(1, n)]
            for col, (i, k) in enumerate(free):
                plus, minus = phi.phases.copy(), phi.phases.copy()
                plus[i, k] += h
                minus[i, k] -= h
                r_plus, _ = residuals(plus, weight)
                r_minus, _ = residuals(minus, weight)
                assert np.abs(J[:, col] - (r_plus - r_minus) / (2 * h)).max() < 1e-8


class TestPolish:
    @pytest.mark.parametrize(
        "n,m,old_polish_floor",
        # objectives the golden-section coordinate-descent polish reached
        [(2, 4, 0.04166666666666674), (3, 5, 0.013131282035425646), (3, 6, 0.022222222399260538)],
    )
    def test_nonzero_floor_no_worse_than_coordinate_descent(self, n, m, old_polish_floor):
        initial = rankone.random_phases(n, m, np.random.default_rng([0, 0]))
        res = rankone.refine(initial, refine_config(0, steps=3000), 1.0)
        assert res.objective <= old_polish_floor

    @pytest.mark.parametrize("steps", [0, 1])
    def test_stationary_start_reports_its_phases(self, steps):
        # phases of 0 and pi make every overlap derivative (nearly) vanish, so
        # the first Gauss-Newton step is huge
        phases = np.zeros((4, 2))
        phases[1, 1] = phases[3, 1] = np.pi
        initial = rankone.PhaseConfiguration(2, 4, phases)
        res = rankone.refine(initial, replace(refine_config(0, steps=steps), s0=1e-200), 0.0)
        assert res.objective <= rankone.refine_objective(initial, 0.0)
        assert rankone.refine_objective(res.phases, 0.0) == pytest.approx(res.objective, rel=1e-12)

    def test_iteration_count_on_acceptance_seeds(self):
        for seed in range(5):
            initial = rankone.random_phases(3, 7, np.random.default_rng(seed))
            cfg = refine_config(seed, steps=3000)
            res = rankone.refine(initial, cfg, 1.0)
            anneal_records = 1 + len(range(0, cfg.total_steps, cfg.trace_every))
            iterations = len(res.objective_trace) - anneal_records
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
            refixed = rankone.from_raw(3, raw)
            pov, _ = rankone.phases_to_povm(refixed)
            assert np.abs(pov.elements[i] - base.elements[i]).max() < 1e-12

    def test_quasi_orthogonal_to_diagonals_always(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            phi = rankone.random_phases(3, 7, rng)
            pov, _ = rankone.phases_to_povm(phi)
            d = np.diag(rng.normal(size=3)).astype(complex)
            for e in pov.elements:
                assert abs(linalg.hs_inner(e, d) - d.trace().real / 7) < 1e-14

    def test_polish_monotone(self):
        rng = np.random.default_rng(5)
        initial = rankone.random_phases(3, 7, rng)
        cfg = refine_config(5, steps=400)
        res = rankone.refine(initial, cfg, 1.0)
        anneal_records = 1 + len(
            [t for t in range(cfg.total_steps) if t % cfg.trace_every == 0]
        )
        polish = res.objective_trace[anneal_records:]
        assert len(polish) >= 1
        assert all(a >= b - 1e-30 for a, b in zip(polish, polish[1:]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        phi = rankone.random_phases(3, 7, rng)
        path = tmp_path / "phases.csv"
        rankone.write_phases(phi, path)
        back = rankone.read_phases(path)
        assert back.dim == 3 and back.element_count == 7
        assert np.array_equal(back.phases, phi.phases)

    @pytest.mark.parametrize(
        "text, message",
        [("\n", "no phase rows"), ("0,0,0\n0,1\n", "line 2: 2 phases, not 3"), ("0,0\n0,x\n", "line 2")],
        ids=["empty", "ragged", "not-a-number"],
    )
    def test_malformed_file_is_a_typed_failure(self, tmp_path, text, message):
        path = tmp_path / "phases.csv"
        path.write_text(text)
        with pytest.raises(ContractViolation, match=message):
            rankone.read_phases(path)

    def test_from_raw_takes_a_list_and_checks_dim(self):
        raw = [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]
        assert rankone.from_raw(3, raw).phases.shape == (2, 3)
        with pytest.raises(ContractViolation, match=r"shape \(2, 3\)"):
            rankone.from_raw(2, raw)
        with pytest.raises(ContractViolation, match=r"shape \(3,\)"):
            rankone.from_raw(3, raw[1])

    def test_from_raw_ragged_rows_are_a_typed_failure(self):
        with pytest.raises(ContractViolation, match=r"not an \(m, 3\) array"):
            rankone.from_raw(3, [[0, 0, 0], [1, 2]])

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from povm_lab import annealer, catalog, linalg, objective, rankone, statespace
from povm_lab import povm as pv
from povm_lab.basis import assemble_full_vector, bloch_to_state, gell_mann_basis
from povm_lab.errors import ClosureNotPositive

from conftest import hs_inner
from test_objective import assembled_dacm


def report(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


@pytest.mark.acceptance
def test_criterion_1_catalog_algebra(qutrit_csic, trine, qutrit_pattern, qubit_pattern):
    t0 = time.perf_counter()
    checks = []
    checks.append(np.abs(sum(qutrit_csic.elements) - np.eye(3)).max() < 1e-12)
    for e in qutrit_csic.elements:
        ev = linalg.hermitian_eigenvalues(e)
        checks.append(np.abs(ev - np.array([3 / 7, 0, 0])).max() < 1e-12)
        checks.append(np.abs(np.diag(e) - 1 / 7).max() < 1e-12)
    for i in range(7):
        for j in range(7):
            if i != j:
                got = hs_inner(qutrit_csic.elements[i], qutrit_csic.elements[j])
                checks.append(abs(got - 2 / 49) < 1e-12)
    rep3 = catalog.conditional_sic_report(qutrit_csic, qutrit_pattern)
    checks.append(rep3.max_quasi_orthogonality_violation < 1e-12)

    projections = [1.5 * e for e in trine.elements]
    checks.append(np.abs(sum(projections) - 1.5 * np.eye(2)).max() < 1e-12)
    b2 = gell_mann_basis(2)
    for i in range(3):
        checks.append(abs(hs_inner(trine.elements[i], b2.element(3))) < 1e-12)
        for j in range(3):
            if i != j:
                checks.append(
                    abs(hs_inner(projections[i], projections[j]) - 0.25) < 1e-12
                )
    # SIC constants for the dim-2 tetrahedron: mu = 1/(n+1) = 1/3
    sic = catalog.qubit_sic()
    for i in range(4):
        for j in range(4):
            if i != j:
                checks.append(abs(4 * hs_inner(sic[i], sic[j]) - 1 / 3) < 1e-12)
    elapsed = time.perf_counter() - t0
    report(1, "catalog algebra", all(checks), elapsed, 1.0, f"{len(checks)} exact checks")


@pytest.mark.acceptance
def test_criterion_2_dacm_oracle_equivalence(
    basis2, basis3, qubit_pattern, qutrit_pattern, qubit_cluster, qutrit_small_cluster
):
    t0 = time.perf_counter()
    cases = [
        (basis2, qubit_pattern, qubit_cluster, 50),
        (basis3, qutrit_pattern, qutrit_small_cluster, 50),
    ]
    worst = 0.0
    for b, pattern, cluster, count in cases:
        for k in range(count):
            rng = np.random.default_rng([1000 + b.dim, k])
            pov = annealer.random_initial_povm(pattern, rng, scale=0.12)
            design = objective.design_matrix(pov, pattern)
            averaged = objective.averaged_covariance(pov, cluster, pattern)
            direct = objective.dacm(design, averaged)
            oracle = assembled_dacm(design, averaged)
            worst = max(worst, abs(direct - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    report(2, "DACM oracle equivalence", worst <= 1e-10, elapsed, 30.0,
           f"worst relative deviation {worst:.2e} over 100 POVMs")


@pytest.mark.acceptance
def test_criterion_3_estimator_unbiasedness(trine, basis2, qubit_pattern):
    t0 = time.perf_counter()
    theta = np.array([0.3, 0.1])
    rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
    p = objective.outcome_probabilities(trine, rho)
    design = objective.design_matrix(trine, qubit_pattern)
    rng = np.random.default_rng(42)
    counts = rng.multinomial(100_000, p, size=1000)
    estimates = np.array(
        [objective.estimate_state(nu, design) for nu in counts[:, :2] / 100_000]
    )
    bias = np.abs(estimates.mean(axis=0) - theta)
    elapsed = time.perf_counter() - t0
    report(3, "estimator unbiasedness", bool(np.all(bias <= 0.02)), elapsed, 30.0,
           f"|mean - theta| = {bias}")


@pytest.mark.acceptance
def test_criterion_4_qubit_annealing_reproduces_trine(
    basis2, qubit_pattern, qubit_cluster, trine
):
    t0 = time.perf_counter()
    design = objective.design_matrix(trine, qubit_pattern)
    averaged = objective.averaged_covariance(trine, qubit_cluster, qubit_pattern)
    dacm_trine = objective.dacm(design, averaged)
    successes = []
    for seed in (101, 202, 303):
        rng = np.random.default_rng([seed, 1])
        initial = annealer.random_initial_povm(qubit_pattern, rng, 0.05)
        cfg = annealer.AnnealConfig(total_steps=20000, rng_seed=seed)
        result = annealer.anneal(cfg, initial, qubit_cluster, qubit_pattern)
        mk = pv.metrics(result.best)
        z = basis2.element(3)
        z_overlap = max(abs(hs_inner(e, z)) for e in result.best.elements)
        ok = (
            mk.sigma < 0.05
            and mk.delta < 1e-3
            and mk.Delta < 1e-3
            and z_overlap < 0.05
            and abs(result.best_dacm - dacm_trine) <= 0.05 * dacm_trine
            and result.trace[-1].log_dacm <= result.trace[0].log_dacm
        )
        successes.append(ok)
    elapsed = time.perf_counter() - t0
    report(4, "qubit annealing reproduces the trine", any(successes), elapsed, 600.0,
           f"per-seed outcomes {successes}, trine DACM {dacm_trine:.4f}")


@pytest.mark.acceptance
def test_criterion_5_qutrit_refinement_reproduces_csic(
    qutrit_pattern, qutrit_default_cluster, qutrit_csic
):
    t0 = time.perf_counter()
    analytic_design = objective.design_matrix(qutrit_csic, qutrit_pattern)
    analytic_av = objective.averaged_covariance(qutrit_csic, qutrit_default_cluster, qutrit_pattern)
    dacm_analytic = objective.dacm(analytic_design, analytic_av)
    success = False
    details = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        initial = rankone.random_phases(3, 7, rng)
        res = rankone.refine(initial, annealer.AnnealConfig(total_steps=0))
        pov, _ = rankone.phases_to_povm(res.phases)
        completeness = np.abs(sum(pov.elements) - np.eye(3)).max()
        overlaps = [
            hs_inner(pov.elements[i], pov.elements[j])
            for i in range(7)
            for j in range(7)
            if i != j
        ]
        overlap_dev = max(abs(o - 2 / 49) for o in overlaps)
        d = objective.dacm(
            objective.design_matrix(pov, qutrit_pattern),
            objective.averaged_covariance(pov, qutrit_default_cluster, qutrit_pattern),
        )
        rel = abs(d - dacm_analytic) / dacm_analytic
        ok = (
            res.objective < 1e-10
            and overlap_dev < 1e-6
            and completeness < 1e-9
            and rel < 1e-6
        )
        details.append((seed, res.objective, overlap_dev, completeness, rel))
        if ok:
            success = True
            break
    elapsed = time.perf_counter() - t0
    report(5, "qutrit rank-one refinement reproduces the analytic solution",
           success, elapsed, 300.0, f"restarts tried: {details}")


@pytest.mark.acceptance
def test_criterion_6_dim4_local_optimality(basis4, dim4_diag_unknown_pattern):
    t0 = time.perf_counter()
    pattern = dim4_diag_unknown_pattern
    spec = statespace.GridSpec(7, pattern)
    clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis4)
    cluster = statespace.select_cluster(clusters)
    units = catalog.diag_units_dim4()
    coords = [(x[0], x[1:] / x[0]) for x in pv.element_rows(units.elements, basis4)]
    base = objective.dacm(
        objective.design_matrix(units, pattern),
        objective.averaged_covariance(units, cluster, pattern),
    )
    unknown_pos = [i - 1 for i in pattern.unknown_indices]
    rng = np.random.default_rng(2024)

    def perturbed_element(c, s):
        # noise on the element weight and the unknown-direction coordinates;
        # the objective is flat in the known directions (known values are 0),
        # and full-coordinate kicks off this corner of the positive region
        # are essentially never jointly valid
        for _ in range(100_000):
            a = c[1].copy()
            a[unknown_pos] += rng.normal(0.0, s, len(unknown_pos))
            m = np.tensordot(a, basis4.stack, axes=1) + np.eye(4)
            if linalg.min_eigenvalue_trusted(m) >= -1e-10:
                while True:
                    a0 = c[0] + rng.normal(0.0, s)
                    if a0 > 0:
                        return a0, a
        raise RuntimeError("perturbation sampling failed")

    worse = 0
    total = 0
    while total < 100:
        news = [perturbed_element(c, 0.01) for c in coords[:3]]
        try:
            cand = pv.complete_povm(
                [a0 * (basis4.expand(a) + np.eye(4)) for a0, a in news]
            )
        except ClosureNotPositive:
            continue
        d = objective.dacm(
            objective.design_matrix(cand, pattern),
            objective.averaged_covariance(cand, cluster, pattern),
        )
        total += 1
        if d >= base:
            worse += 1
    elapsed = time.perf_counter() - t0
    report(6, "dim-4 diagonal units local optimality", worse >= 99, elapsed, 300.0,
           f"{worse}/100 perturbations not better, base DACM {base:.6g}")


@pytest.mark.acceptance
def test_criterion_7_invariant_suites():
    t0 = time.perf_counter()
    tests_dir = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "invariants", "-q", str(tests_dir)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr[:200]
    report(7, "module invariant suites", proc.returncode == 0, elapsed, 300.0, tail)

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from povm_lab import catalog, linalg, rankone
from povm_lab import povm as pv
from povm_lab.annealer import random_initial_povm
from povm_lab.basis import ParameterPattern, gell_mann_basis
from povm_lab.errors import ContractViolation

from conftest import hs_inner, reference_overlaps

TENSOR_PATTERN = ParameterPattern.from_known(
    4, {i: 0.0 for i in range(1, 16) if i not in (4, 8, 12)}
)
# eigvalsh and the Jacobi iteration, and two summation orders of an overlap,
# differ by a few ulps of n^2 times the entry scales (at most 1 here)
REPORT_TOL = 1e-14


# the diagonal directions, the known ones of each frame's conditional-SIC pattern
DIAGONAL_INDICES = {2: (3,), 3: (7, 8), 4: (3, 12, 15)}
# the printed qutrit solution's exponents (units of 2*pi/7), row i the phases of h_i
QUTRIT_PHASE_UNITS = (
    (0, 0, 0),
    (0, 1, 5),
    (0, 5, 4),
    (0, 3, 1),
    (0, 6, 2),
    (0, 2, 3),
    (0, 4, 6),
)


def reference_qutrit_csic():
    """The qutrit solution from its exponent table: four elements from powers
    of e^{2 pi i/7}, then the entrywise conjugates of elements 1-3."""
    eps = np.exp(2j * math.pi / 7.0)
    elements = []
    for row in QUTRIT_PHASE_UNITS[:4]:
        h = np.array([eps**k for k in row]) / math.sqrt(3.0)
        elements.append((3.0 / 7.0) * np.outer(h, h.conj()))
    return elements + [elements[1].conj(), elements[2].conj(), elements[3].conj()]


def reference_trine():
    """The trine from Bloch coordinates: (I + a_k . sigma) / 3 with a_k at
    120 degrees in the xy plane."""
    b = gell_mann_basis(2)
    elements = []
    for k in range(3):
        ang = 2.0 * math.pi * k / 3.0
        a = np.array([math.sqrt(2.0) * math.cos(ang), math.sqrt(2.0) * math.sin(ang), 0.0])
        elements.append((b.expand(a) + np.eye(2)) / 3.0)
    return elements


def reference_report(P, pattern):
    """(rank_constant_multiple, ranks, verdict, c, d, max overlap deviation,
    max quasi-orthogonality violation) from per-element Jacobi eigenvalues
    and pairwise `hs_inner`."""
    evals = [linalg.hermitian_eigenvalues(e) for e in P.elements]
    c = float(np.mean([ev[0] for ev in evals]))
    ranks, multiple_ok = [], True
    for ev in evals:
        significant = ev[ev > catalog.RANK_TOL * max(ev[0], 0.0)]
        ranks.append(int(significant.size))
        if significant.size == 0 or np.abs(significant - c).max() > catalog.RANK_TOL:
            multiple_ok = False
    m = P.m
    cross = reference_overlaps(P.elements)[~np.eye(m, dtype=bool)]
    d = float(cross.mean()) if cross.size else 0.0
    dev = float(np.abs(cross - d).max()) if cross.size else 0.0
    b = gell_mann_basis(pattern.dim)
    quasi = max(
        abs(hs_inner(e, b.element(k))) for k in pattern.known_indices for e in P.elements
    )
    complete = np.abs(sum(P.elements) - np.eye(P.dim)).max() <= catalog.RANK_TOL
    verdict = all((multiple_ok, dev <= catalog.RANK_TOL, quasi <= catalog.RANK_TOL, complete,
                   m == pattern.unknown_count + 1))
    return multiple_ok, tuple(ranks), verdict, c, d, dev, quasi


class TestQutritCsic:
    def test_sum_to_identity(self, qutrit_csic):
        total = sum(qutrit_csic.elements)
        assert np.abs(total - np.eye(3)).max() < 1e-12
        # forced entrywise by sum_k eps^k = 0
        eps = np.exp(2j * np.pi / 7)
        assert abs(sum(eps**k for k in range(7))) < 1e-12

    def test_eigenvalues(self, qutrit_csic):
        for e in qutrit_csic.elements:
            ev = linalg.hermitian_eigenvalues(e)
            assert np.abs(ev - np.array([3 / 7, 0.0, 0.0])).max() < 1e-12

    def test_cross_overlaps(self, qutrit_csic):
        # resolution of identity with equal overlaps: 9/49 + 6 d = 3/7
        d = (3 / 7 - 9 / 49) / 6
        assert d == pytest.approx(2 / 49)
        for i in range(7):
            for j in range(7):
                if i != j:
                    got = hs_inner(qutrit_csic.elements[i], qutrit_csic.elements[j])
                    assert abs(got - 2 / 49) < 1e-12

    def test_conjugation_structure(self, qutrit_csic):
        for a, b in ((4, 1), (5, 2), (6, 3)):
            assert np.abs(qutrit_csic.elements[a] - qutrit_csic.elements[b].conj()).max() == 0.0


class TestHarmonicFrames:
    def test_matches_reference_constructions(self, qutrit_csic, trine):
        for got, want in ((qutrit_csic, reference_qutrit_csic()), (trine, reference_trine())):
            assert len(got.elements) == len(want)
            for e, w in zip(got.elements, want):
                assert np.abs(e - w).max() <= 1e-15

    def test_phases_match_exponent_table(self):
        want = np.array(QUTRIT_PHASE_UNITS, dtype=float) * (2.0 * math.pi / 7.0)
        assert np.array_equal(catalog.qutrit_csic_phases().phases, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_k_and_v_minus_k_are_exact_conjugates(self, n):
        elements = catalog.harmonic_csic(n).elements
        v = n * n - n + 1
        assert len(elements) == v
        for k in range(1, v):
            assert np.array_equal(elements[v - k], elements[k].conj())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singer_set_is_a_difference_set(self, n):
        """The n(n - 1) differences d_i - d_j mod v (i != j) of the Singer set
        are the nonzero residues mod v = n^2 - n + 1, each exactly once."""
        D, v = catalog.SINGER_SETS[n], n * n - n + 1
        differences = sorted((a - b) % v for a, b in itertools.permutations(D, 2))
        assert differences == list(range(1, v))

    def test_no_difference_set_is_a_contract_violation(self):
        with pytest.raises(ContractViolation, match="n = 5"):
            catalog.harmonic_csic(5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conditional_sic_on_diagonal_known_pattern(self, n):
        P = catalog.harmonic_csic(n)
        v = n * n - n + 1
        assert pv.validate(P, 1e-12) == []
        pattern = ParameterPattern.from_known(n, dict.fromkeys(DIAGONAL_INDICES[n], 0.0))
        rep = catalog.conditional_sic_report(P, pattern)
        assert rep.verdict
        assert rep.ranks == (1,) * v
        assert rep.c == pytest.approx(n / v, abs=1e-12)
        assert rep.d == pytest.approx((n - 1) / v**2, abs=1e-12)


class TestTheorem1Qubit:
    def test_projection_sum(self, trine):
        projections = [1.5 * e for e in trine.elements]
        assert np.abs(sum(projections) - 1.5 * np.eye(2)).max() < 1e-12

    def test_projection_overlaps(self, trine):
        projections = [1.5 * e for e in trine.elements]
        for i in range(3):
            assert hs_inner(projections[i], projections[i]) == pytest.approx(1.0, abs=1e-12)
            for j in range(3):
                if i != j:
                    assert hs_inner(projections[i], projections[j]) == pytest.approx(
                        0.25, abs=1e-12
                    )

    def test_complementary_to_z(self, trine, basis2):
        for e in trine.elements:
            assert abs(hs_inner(e, basis2.element(3))) < 1e-12


class TestDim4Catalog:
    def test_diag_units(self):
        p = catalog.diag_units_dim4()
        assert np.abs(sum(p.elements) - np.eye(4)).max() == 0.0
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert hs_inner(p.elements[i], p.elements[j]) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_diag_units_quasi_orthogonal_offdiagonal(self, basis4):
        p = catalog.diag_units_dim4()
        offdiag = [i for i in range(1, 16) if i not in (3, 12, 15)]
        for idx in offdiag:
            for e in p.elements:
                assert abs(hs_inner(e, basis4.element(idx))) < 1e-14

    def test_sic_tensor_identity(self):
        p = catalog.sic_tensor_identity_dim4()
        assert np.abs(sum(p.elements) - np.eye(4)).max() < 1e-12
        for e in p.elements:
            ev = linalg.hermitian_eigenvalues(e)
            assert np.abs(ev - np.array([0.5, 0.5, 0.0, 0.0])).max() < 1e-12
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert hs_inner(p.elements[i], p.elements[j]) == pytest.approx(
                        1 / 6, abs=1e-12
                    )

    def test_qubit_sic_tetrahedron(self):
        fs = catalog.qubit_sic()
        assert np.abs(sum(fs) - np.eye(2)).max() < 1e-12
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert hs_inner(fs[i], fs[j]) == pytest.approx(1 / 12, abs=1e-12)

    def test_qubit_sic_is_the_per_direction_sum(self):
        """One `tensordot` gives the bits of each direction summed in Python
        over the Pauli matrices, one at a time."""
        pauli = (
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        )
        directions = [
            sum(t[i] * pauli[i] for i in range(3)) / math.sqrt(3.0) for t in catalog.TETRAHEDRON
        ]
        expected = (np.eye(2) + np.array(directions)) / 4.0
        assert catalog.qubit_sic().tobytes() == expected.tobytes()


class TestClaims:
    def test_patterns_match_the_written_out_ones(self):
        def diagonal_known(n):
            return ParameterPattern.from_known(n, dict.fromkeys(DIAGONAL_INDICES[n], 0.0))

        # the diag units know every direction but the diagonal ones
        off_diagonal = [i for i in range(1, 16) if i not in DIAGONAL_INDICES[4]]
        want = {
            "qutrit": (diagonal_known(3), True),
            "trine": (diagonal_known(2), True),
            "qubit SIC": (None, False),
            "diag units": (ParameterPattern.from_known(4, dict.fromkeys(off_diagonal, 0.0)), True),
            "tensor SIC": (TENSOR_PATTERN, False),
        }
        got = {claim.name: (claim.pattern, claim.default) for claim in catalog.CLAIMS}
        assert list(got) == list(want)
        assert got == want

    def test_one_default_per_dimension(self):
        defaults = [claim.pattern.dim for claim in catalog.CLAIMS if claim.default]
        assert sorted(defaults) == [2, 3, 4]
        for claim in catalog.CLAIMS:
            if claim.default:
                assert catalog.DEFAULT_PATTERNS[claim.pattern.dim] is claim.pattern

    def test_every_kind_is_documented_and_evaluated(self):
        # Claim's docstring names each kind CLAIMS uses, and "valid", which
        # claim_checks adds; claim_residual evaluates each of them
        documented = set(re.findall(r'"(\w+)"', catalog.Claim.__doc__))
        used = {kind for claim in catalog.CLAIMS for _, kind, _, _ in claim.checks}
        assert documented == used | {"valid"}
        for claim in catalog.CLAIMS:
            built = getattr(catalog, claim.builder)()
            for _, kind, scale, target in claim.checks:
                residual = catalog.claim_residual(kind, scale, built, claim.pattern, target)
                assert 0.0 <= residual <= catalog.VERIFY_TOL
            if isinstance(built, pv.Povm):
                assert catalog.claim_residual("valid", 1.0, built, claim.pattern, None) == 0.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ContractViolation, match="unknown check kind 'kkt'"):
            catalog.claim_residual("kkt", 1.0, catalog.qubit_trine(), None, None)


class TestConditionalSicReport:
    def test_qutrit_positive(self, qutrit_csic, qutrit_pattern):
        rep = catalog.conditional_sic_report(qutrit_csic, qutrit_pattern)
        assert rep.verdict
        assert rep.ranks == (1,) * 7
        assert rep.c == pytest.approx(3 / 7, abs=1e-12)
        assert rep.d == pytest.approx(2 / 49, abs=1e-12)
        assert rep.max_pairwise_overlap_deviation < 1e-12
        assert rep.max_quasi_orthogonality_violation < 1e-12

    def test_trine_positive(self, trine, qubit_pattern):
        rep = catalog.conditional_sic_report(trine, qubit_pattern)
        assert rep.verdict
        assert rep.c == pytest.approx(2 / 3, abs=1e-12)
        assert rep.d == pytest.approx(1 / 9, abs=1e-12)

    def test_dim4_positive_cases(self, dim4_diag_unknown_pattern):
        units = catalog.conditional_sic_report(
            catalog.diag_units_dim4(), dim4_diag_unknown_pattern
        )
        assert units.verdict and units.c == pytest.approx(1.0) and units.d == 0.0
        tensor = catalog.conditional_sic_report(
            catalog.sic_tensor_identity_dim4(), TENSOR_PATTERN
        )
        assert tensor.verdict
        assert tensor.ranks == (2, 2, 2, 2)
        assert tensor.c == pytest.approx(0.5, abs=1e-12)
        assert tensor.d == pytest.approx(1 / 6, abs=1e-12)

    def test_mixed_spectrum_fails(self, dim4_diag_unknown_pattern):
        # one element with eigenvalues (2/7, 1/7, 1/7, 0) is not a projection multiple
        e1 = np.diag([2 / 7, 1 / 7, 1 / 7, 0.0]).astype(complex)
        rest = (np.eye(4) - e1) / 3.0
        p = pv.Povm([e1, rest, rest.copy(), rest.copy()])
        rep = catalog.conditional_sic_report(p, dim4_diag_unknown_pattern)
        assert not rep.is_rank_constant_multiple
        assert not rep.verdict

    def test_incomplete_measurement_fails(self, trine, qubit_pattern):
        # two trine elements pass the three conditional-SIC conditions, but sum
        # to I - E_3, so they are not a POVM
        rep = catalog.conditional_sic_report(pv.Povm(trine.elements[:2]), qubit_pattern)
        assert rep.is_rank_constant_multiple
        assert rep.max_pairwise_overlap_deviation <= catalog.RANK_TOL
        assert rep.max_quasi_orthogonality_violation <= catalog.RANK_TOL
        assert not rep.verdict

    def test_too_few_elements_fail(self, qubit_pattern):
        # the projections onto |+> and |-> meet the three conditions and sum to
        # I, but two outcomes give one frequency for the two unknowns x and y
        plus = np.full((2, 2), 0.5, dtype=complex)
        rep = catalog.conditional_sic_report(pv.Povm([plus, np.eye(2) - plus]), qubit_pattern)
        assert rep.is_rank_constant_multiple
        assert rep.max_pairwise_overlap_deviation <= catalog.RANK_TOL
        assert rep.max_quasi_orthogonality_violation <= catalog.RANK_TOL
        assert not rep.verdict

    def test_one_element_warns_nothing(self, qubit_pattern):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = catalog.conditional_sic_report(pv.Povm([np.eye(2)]), qubit_pattern)
        assert rep.d == 0.0 and rep.max_pairwise_overlap_deviation == 0.0
        assert not rep.verdict

    def test_given_spectra_and_overlap_are_the_ones_it_computes(self, trine, qubit_pattern):
        evals = linalg.spectra(trine.elements)
        overlap = catalog.report_overlap(trine, qubit_pattern)
        assert overlap.shape == (4, 4)
        given = catalog.conditional_sic_report(trine, qubit_pattern, evals, overlap)
        assert given == catalog.conditional_sic_report(trine, qubit_pattern)
        # the elements' own overlap matrix lacks the known directions' block,
        # which would certify quasi-orthogonality vacuously
        with pytest.raises(ContractViolation, match="report overlap"):
            catalog.conditional_sic_report(
                trine, qubit_pattern, evals, pv.overlap_matrix(trine.elements)
            )

    def test_text_and_csv_rendering(self, trine, qubit_pattern):
        rep = catalog.conditional_sic_report(trine, qubit_pattern)
        text = catalog.report_to_text(rep)
        assert "verdict" in text and "True" in text


@pytest.mark.invariants
class TestInvariants:
    def test_catalog_povms_validate_clean(self, qutrit_csic, trine):
        for p in (
            qutrit_csic,
            trine,
            catalog.diag_units_dim4(),
            catalog.sic_tensor_identity_dim4(),
        ):
            assert pv.validate(p, 1e-12) == []

    def test_report_verdicts_match_classification(
        self, qutrit_csic, trine, qutrit_pattern, qubit_pattern, dim4_diag_unknown_pattern
    ):
        cases = [
            (qutrit_csic, qutrit_pattern, 3 / 7, 2 / 49),
            (trine, qubit_pattern, 2 / 3, 1 / 9),
            (catalog.diag_units_dim4(), dim4_diag_unknown_pattern, 1.0, 0.0),
            (catalog.sic_tensor_identity_dim4(), TENSOR_PATTERN, 0.5, 1 / 6),
        ]
        for pov, pattern, c, d in cases:
            rep = catalog.conditional_sic_report(pov, pattern)
            assert rep.verdict
            assert rep.c == pytest.approx(c, abs=1e-12)
            assert rep.d == pytest.approx(d, abs=1e-12)

    def test_quasi_orthogonality_is_max_hs_inner(
        self, qutrit_csic, trine, qutrit_pattern, qubit_pattern, dim4_diag_unknown_pattern
    ):
        cases = [
            (qutrit_csic, qutrit_pattern),
            (trine, qubit_pattern),
            (catalog.diag_units_dim4(), dim4_diag_unknown_pattern),
            (catalog.sic_tensor_identity_dim4(), TENSOR_PATTERN),
        ]
        rng = np.random.default_rng(72)
        for pattern in (qubit_pattern, qutrit_pattern, dim4_diag_unknown_pattern):
            cases += [(random_initial_povm(pattern, rng, 0.1), pattern) for _ in range(3)]
        for pov, pattern in cases:
            b = gell_mann_basis(pattern.dim)
            oracle = max(
                abs(hs_inner(e, b.element(k)))
                for k in pattern.known_indices
                for e in pov.elements
            )
            rep = catalog.conditional_sic_report(pov, pattern)
            assert abs(rep.max_quasi_orthogonality_violation - oracle) <= REPORT_TOL

    def test_report_matches_jacobi_reference(
        self, qutrit_csic, trine, qutrit_pattern, qubit_pattern, dim4_diag_unknown_pattern
    ):
        """Every field within REPORT_TOL of (or equal to) the per-element Jacobi
        and pairwise `hs_inner` computation the stacked report replaced."""
        cases = [
            (qutrit_csic, qutrit_pattern),
            (trine, qubit_pattern),
            (catalog.diag_units_dim4(), dim4_diag_unknown_pattern),
            (catalog.sic_tensor_identity_dim4(), TENSOR_PATTERN),
        ]
        rng = np.random.default_rng(73)
        for pattern in (qubit_pattern, qutrit_pattern, dim4_diag_unknown_pattern):
            cases += [(random_initial_povm(pattern, rng, 0.1), pattern) for _ in range(3)]
        cases += [(rankone.phases_to_povm(rankone.random_phases(3, 7, rng))[0], qutrit_pattern)]
        for pov, pattern in cases:
            rep = catalog.conditional_sic_report(pov, pattern)
            want = reference_report(pov, pattern)
            assert (rep.is_rank_constant_multiple, rep.ranks, rep.verdict) == want[:3]
            got = (rep.c, rep.d, rep.max_pairwise_overlap_deviation,
                   rep.max_quasi_orthogonality_violation)
            assert np.abs(np.subtract(got, want[3:])).max() <= REPORT_TOL

    def test_report_invariant_under_permutation(self, qutrit_csic, qutrit_pattern):
        base = catalog.conditional_sic_report(qutrit_csic, qutrit_pattern)
        rng = np.random.default_rng(70)
        for _ in range(5):
            perm = rng.permutation(7)
            shuffled = pv.Povm([qutrit_csic.elements[i] for i in perm])
            rep = catalog.conditional_sic_report(shuffled, qutrit_pattern)
            assert rep.verdict == base.verdict
            assert rep.c == pytest.approx(base.c, abs=1e-12)
            assert rep.d == pytest.approx(base.d, abs=1e-12)

    def test_report_invariant_under_diagonal_phase_conjugation(
        self, qutrit_csic, qutrit_pattern
    ):
        rng = np.random.default_rng(71)
        for _ in range(5):
            u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
            conj = pv.Povm([u @ e @ u.conj().T for e in qutrit_csic.elements])
            rep = catalog.conditional_sic_report(conj, qutrit_pattern)
            assert rep.verdict
            assert rep.c == pytest.approx(3 / 7, abs=1e-12)
            assert rep.d == pytest.approx(2 / 49, abs=1e-12)
            assert rep.max_quasi_orthogonality_violation < 1e-12

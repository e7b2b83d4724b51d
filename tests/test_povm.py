import math
import warnings

import numpy as np
import pytest

from povm_lab import catalog, linalg, rankone
from povm_lab import povm as pv
from povm_lab.annealer import (
    AnnealChain,
    AnnealConfig,
    coordinate_elements,
    coordinate_povm,
    random_initial_povm,
)
from povm_lab.basis import ParameterPattern, gell_mann_basis
from povm_lab.errors import ClosureNotPositive, ContractViolation

from conftest import hs_inner, overlap_tolerance, reference_overlaps

# eigvalsh and the Jacobi iteration, and two summation orders of an overlap,
# differ by a few ulps of the element scale (at most 1 here)
METRICS_TOL = 1e-14


def free_element(a0, a, basis):
    """a0 (I + a . sigma) from the element matrices of one coordinate row (a0, a)."""
    return coordinate_elements(np.concatenate([[a0], a])[None], basis)[0]


class TestCoordsToElement:
    """The map from a weight a0 and direction a to a0 (I + a . sigma)."""

    def test_maximally_mixed(self, basis3):
        assert np.abs(free_element(1 / 3, np.zeros(8), basis3) - np.eye(3) / 3).max() < 1e-15

    def test_zero_weight(self, basis2):
        assert np.abs(free_element(0.0, np.ones(3), basis2)).max() == 0.0

    def test_trine_element(self, basis2):
        e = free_element(1 / 3, np.array([np.sqrt(2), 0.0, 0.0]), basis2)
        assert e.trace().real == pytest.approx(2 / 3, abs=1e-12)
        ev = linalg.hermitian_eigenvalues(e)
        assert np.abs(ev - np.array([2 / 3, 0.0])).max() < 1e-12


class TestElementCoords:
    def test_round_trip(self, basis3):
        """(a0, a) read off an element's `element_rows` row as a0 = x[0] and
        a = x[1:] / a0 are the element's own."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            a0, a = rng.uniform(0.05, 0.5), rng.normal(0, 0.2, 8)
            x = pv.element_rows([free_element(a0, a, basis3)], basis3)[0]
            assert x[0] == pytest.approx(a0, abs=1e-12)
            assert np.abs(x[1:] / x[0] - a).max() < 1e-10


class TestElementRows:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rows_are_coordinates(self, dim):
        """Row j is (a0_j, a0_j a_j) for a free element a0_j (I + a_j . sigma),
        and the closing row is (1 - sum a0, -sum a0 a)."""
        basis = gell_mann_basis(dim)
        rng = np.random.default_rng(dim)
        count = dim**2 - 2
        a0 = np.full(count, 1.0 / (count + 1))
        A = rng.normal(0.0, 0.1, (count, dim**2 - 1))
        P = coordinate_povm(np.column_stack([a0, A]), basis)
        X = pv.element_rows(P.elements, basis)
        assert X.shape == (count + 1, dim**2)
        assert np.abs(X[:-1, 0] - a0).max() < 1e-15
        assert np.abs(X[:-1, 1:] - a0[:, None] * A).max() < 1e-15
        assert abs(X[-1, 0] - (1.0 - a0.sum())) < 1e-15
        assert np.abs(X[-1, 1:] + (a0[:, None] * A).sum(axis=0)).max() < 1e-15

    def test_element_coords_is_one_row(
        self, qutrit_csic, basis3, qutrit_pattern, qutrit_small_cluster
    ):
        """A chain started from the matrices alone holds each free element's
        `element_rows` row x as a0 = x[0] and a = x[1:] / x[0], bit for bit."""
        chain = AnnealChain(
            AnnealConfig(total_steps=0), qutrit_csic, qutrit_small_cluster, qutrit_pattern
        )
        X = pv.element_rows(qutrit_csic.elements, basis3)
        for j, x in enumerate(X[:-1]):
            assert chain.state[j, 0] == x[0]
            assert np.array_equal(chain.state[j, 1:], x[1:] / x[0])

    @pytest.mark.parametrize("entry", [1j, np.nan, np.inf], ids=["non_hermitian", "nan", "inf"])
    def test_bad_element_rejected(self, basis2, entry):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 1] = entry
        with pytest.raises(ContractViolation):
            pv.element_rows([np.eye(2) / 2, bad], basis2)

    def test_wrong_dimension_rejected(self, basis2):
        with pytest.raises(ContractViolation, match="2 x 2"):
            pv.element_rows([np.eye(3) / 3], basis2)


class TestCompletePovm:
    def test_two_scaled_identities(self):
        out = pv.complete_povm([np.eye(2) / 2, np.eye(2) / 4])
        assert out.m == 3
        assert np.abs(out.elements[2] - np.eye(2) / 4).max() < 1e-15

    def test_identity_residual_zero(self):
        out = pv.complete_povm([np.eye(2, dtype=complex)])
        assert np.abs(out.elements[1]).max() < 1e-15

    def test_qutrit_analytic_residual(self, qutrit_csic):
        out = pv.complete_povm(qutrit_csic.elements[:6])
        assert np.abs(out.elements[6] - qutrit_csic.elements[6]).max() < 1e-12

    def test_closure_not_positive(self):
        with pytest.raises(ClosureNotPositive):
            pv.complete_povm([np.eye(2) * 0.8, np.eye(2) * 0.5])


class TestMetrics:
    def test_qutrit_analytic(self, qutrit_csic):
        mk = pv.metrics(qutrit_csic)
        assert mk.sigma < 1e-12
        assert mk.delta < 1e-12
        assert mk.Delta < 1e-12

    def test_diag_units(self):
        mk = pv.metrics(catalog.diag_units_dim4())
        assert mk.sigma == 0.0 and mk.delta == 0.0 and mk.Delta == 0.0

    def test_one_element_has_no_cross_overlap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mk = pv.metrics(pv.Povm(2, [np.eye(2)]))
        assert mk.sigma == 1.0 and mk.delta == 0.0 and mk.Delta == 0.0

    def test_mixed_rank_povm(self):
        p = pv.Povm(2, [np.eye(2) / 2, np.eye(2) / 4, np.eye(2) / 4])
        mk = pv.metrics(p)
        assert mk.sigma == pytest.approx(1.0, abs=1e-12)
        # self-overlaps (1/2, 1/8, 1/8): sum of squared deviations = 3/32
        assert mk.delta == pytest.approx(3 / 32, abs=1e-12)
        assert mk.Delta == pytest.approx(1 / 48, abs=1e-12)
        assert mk.delta > 0

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_jacobi_and_pairwise_reference(self, dim):
        """sigma, delta and Delta within METRICS_TOL of the per-element Jacobi
        and pairwise `hs_inner` computation the stacked one replaced."""
        pattern = ParameterPattern.from_known(dim, {dim * dim - 1: 0.0})
        rng = np.random.default_rng(dim)
        povms = [random_initial_povm(pattern, rng, scale) for scale in (0.02, 0.05, 0.1)]
        povms += [catalog.qubit_trine(), catalog.qutrit_csic(), catalog.diag_units_dim4()]
        for p in povms:
            mk = pv.metrics(p)
            sigma = sum(max(float(linalg.hermitian_eigenvalues(e)[1]), 0.0) for e in p.elements)
            overlap = reference_overlaps(p.elements)
            selfs = np.diag(overlap)
            cross = overlap[~np.eye(p.m, dtype=bool)]
            assert abs(mk.sigma - sigma) <= METRICS_TOL
            assert abs(mk.delta - np.sum((selfs - selfs.mean()) ** 2)) <= METRICS_TOL
            assert abs(mk.Delta - np.sum((cross - cross.mean()) ** 2)) <= METRICS_TOL


class TestOverlapMatrix:
    def test_entries_are_ordered_pair_overlaps(self, qutrit_csic):
        overlaps = pv.overlap_matrix(qutrit_csic.elements)
        assert overlaps.shape == (7, 7)
        assert np.array_equal(overlaps, overlaps.T)
        want = reference_overlaps(qutrit_csic.elements)
        assert np.all(np.abs(overlaps - want) <= overlap_tolerance(qutrit_csic.elements))

    def test_noisy_elements_match_pairwise_hs_inner(self, qutrit_csic):
        # each element carries anti-Hermitian noise of about 1e-15, which
        # symmetrize removes
        rng = np.random.default_rng(4)
        noisy = []
        for e in qutrit_csic.elements:
            x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            noisy.append(e + 1e-15 * (x - x.conj().T))
        assert any(not np.array_equal(e, e.conj().T) for e in noisy)
        overlaps = pv.overlap_matrix(noisy)
        assert np.all(np.abs(overlaps - reference_overlaps(noisy)) <= overlap_tolerance(noisy))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_stacks_match_pairwise_hs_inner(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 2, 5, 9):
            x = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
            elements = list(x + x.conj().swapaxes(1, 2))
            overlaps = pv.overlap_matrix(elements)
            assert np.array_equal(overlaps, overlaps.T)
            want = reference_overlaps(elements)
            assert np.all(np.abs(overlaps - want) <= overlap_tolerance(elements))

    def test_non_hermitian_member_rejected(self, qutrit_csic):
        elements = list(qutrit_csic.elements)
        elements[3] = elements[3] + 1e-9 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ContractViolation, match="not Hermitian"):
            pv.overlap_matrix(elements)

    def test_mixed_shapes_rejected(self, qutrit_csic, trine):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            pv.overlap_matrix([*qutrit_csic.elements, *trine.elements])


class TestValidate:
    def test_catalog_povms_clean(self, qutrit_csic, trine):
        for p in (qutrit_csic, trine, catalog.diag_units_dim4(), catalog.sic_tensor_identity_dim4()):
            assert pv.validate(p, 1e-12) == []

    def test_scaled_elements_break_completeness(self, trine):
        scaled = pv.Povm(2, [1.01 * e for e in trine.elements])
        violations = pv.validate(scaled, 1e-9)
        names = [v.name for v in violations]
        assert "completeness" in names
        mag = next(v.magnitude for v in violations if v.name == "completeness")
        assert 0.005 <= mag <= 0.01 * 2 * 1.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_element_reported(self, trine, bad):
        elements = [e.astype(complex) for e in trine.elements]
        elements[1][0, 0] = bad
        violations = pv.validate(pv.Povm(2, elements))
        assert [v.name for v in violations] == ["finite", "completeness"]
        assert violations[0].detail == "element 1 has non-finite entries"

    @pytest.mark.parametrize("asymmetry, names", [(1e-10, []), (1e-8, ["hermiticity"])])
    def test_asymmetry_is_judged_at_tol(self, trine, asymmetry, names):
        # within tol the element passes on its Hermitian part; beyond it is a
        # reported violation (with its weight out of the sum), never an exception
        elements = [e.astype(complex) for e in trine.elements]
        elements[2] = elements[2] + asymmetry * np.triu(np.ones((2, 2)), 1)
        violations = pv.validate(pv.Povm(2, elements), 1e-9)
        assert [v.name for v in violations if v.name != "completeness"] == names

    def test_negative_eigenvalue_flagged(self):
        p = pv.Povm(2, [np.diag([1.0, -1e-3]), np.diag([0.0, 1.0 + 1e-3])])
        names = [v.name for v in pv.validate(p, 1e-9)]
        assert "positivity" in names


def scratch_validate(P, tol=pv.COMPLETENESS_TOL):
    """The per-element `validate` that the stacked one replaced, the oracle:
    each element's finiteness, Hermiticity and Hermitian part one at a time,
    the elements that pass summed by Python's `sum`."""
    out = []
    checked = []
    for i, e in enumerate(P.elements):
        if not np.all(np.isfinite(e)):
            out.append(pv.Violation("finite", math.inf, f"element {i} has non-finite entries"))
        elif (herm := float(np.abs(e - e.conj().T).max())) > tol:
            out.append(pv.Violation("hermiticity", herm, f"element {i}"))
        else:
            checked.append(i)
    parts = [(P.elements[i] + P.elements[i].conj().T) / 2.0 for i in checked]
    lows = linalg.spectra(parts)[:, -1].tolist() if parts else []
    for i, lo in zip(checked, lows):
        if lo < -tol:
            out.append(pv.Violation("positivity", -lo, f"element {i} min eigenvalue {lo:.3e}"))
    total = sum((P.elements[i] for i in checked), np.zeros((P.dim, P.dim), dtype=complex))
    comp = float(np.abs(total - np.eye(P.dim)).max())
    if comp > tol:
        out.append(pv.Violation("completeness", comp, f"max |sum E - I| = {comp:.3e}"))
    return out


def damaged_copies(P):
    """Copies of P with one element non-finite, asymmetric (within and beyond
    1e-9), negative or scaled off completeness, with several at once, and
    with every element non-finite: each edit adds matrices to elements."""
    n = P.dim
    upper = np.triu(np.ones((n, n)), 1)
    nan_entry, inf_entry = np.zeros((n, n)), np.zeros((n, n))
    nan_entry[0, 0], inf_entry[0, n - 1] = np.nan, np.inf
    edits = [
        {1: nan_entry},
        {0: inf_entry},
        {2: 1e-11 * upper},
        {2: 1e-6 * upper},
        {0: -1e-3 * np.eye(n)},
        {i: 0.01 * e for i, e in enumerate(P.elements)},
        {2: nan_entry, 0: -1e-3 * np.eye(n), 1: 1e-6 * upper},
        {i: inf_entry for i in range(P.m)},
    ]
    for edit in edits:
        E = P.elements.copy()
        for i, delta in edit.items():
            E[i] += delta
        yield pv.Povm(n, E)


class TestValidateOracle:
    """The stacked `validate` returns the per-element oracle's violations:
    same names, magnitudes, details and order."""

    def povms(self):
        rng = np.random.default_rng(21)
        pattern = ParameterPattern.from_known(2, {3: 0.0})
        start = rankone.random_phases(3, 7, rng)
        refined = rankone.refine(start, AnnealConfig(total_steps=1)).phases
        return [
            catalog.qubit_trine(),
            catalog.qutrit_csic(),
            catalog.diag_units_dim4(),
            catalog.sic_tensor_identity_dim4(),
            catalog.harmonic_csic(4),
            rankone.phases_to_povm(refined)[0],
            rankone.phases_to_povm(start)[0],
            random_initial_povm(pattern, rng, scale=0.1),
        ]

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_equals_per_element_loop(self, tol):
        for P in self.povms():
            for Q in (P, *damaged_copies(P)):
                assert pv.validate(Q, tol) == scratch_validate(Q, tol)

    def test_every_kind_of_violation_is_seen(self):
        names = {
            v.name
            for P in self.povms()
            for Q in damaged_copies(P)
            for v in pv.validate(Q, 1e-9)
        }
        assert names == {"finite", "hermiticity", "positivity", "completeness"}


class TestPovmConstruction:
    @pytest.mark.parametrize(
        "dim, elements",
        [
            (2, [np.eye(2), np.eye(3)]),
            (2, [np.eye(2), np.ones(2)]),
            (2, np.eye(2)),
            (3, [np.eye(2) / 2, np.eye(2) / 2]),
            (2, np.zeros((0, 2, 2))),
            (2, []),
            (2, np.zeros((2, 2, 3))),
            (2, "not a stack"),
        ],
        ids=["ragged", "ragged-row", "2-D", "dim-mismatch", "empty", "empty-list",
             "not-square", "text"],
    )
    def test_rejected_with_contract_violation(self, dim, elements):
        with pytest.raises(ContractViolation):
            pv.Povm(dim, elements)

    def test_elements_are_one_complex_stack(self):
        P = pv.Povm(2, [np.eye(2) / 2, np.diag([0.5, 0.5])])
        assert isinstance(P.elements, np.ndarray)
        assert P.elements.dtype == complex and P.elements.shape == (2, 2, 2)
        assert np.array_equal(P.elements, np.stack([np.eye(2) / 2] * 2))
        assert P.m == 2

    def test_compares_by_identity(self, trine):
        # array fields would make a field-wise == ambiguous
        copy = pv.Povm(trine.dim, trine.elements.copy())
        assert trine == trine and trine != copy

    def test_every_builder_holds_an_array(self, tmp_path, basis2, qubit_pattern):
        rng = np.random.default_rng(22)
        pov = random_initial_povm(qubit_pattern, rng)
        path = tmp_path / "povm.txt"
        pv.write_povm(pov, path)
        built = [
            catalog.qubit_trine(),
            catalog.qutrit_csic(),
            catalog.harmonic_csic(4),
            catalog.diag_units_dim4(),
            catalog.sic_tensor_identity_dim4(),
            pv.complete_povm([np.eye(2) / 2, np.eye(2) / 4]),
            pov,
            pv.read_povm(path),
            coordinate_povm(np.array([[0.3, 0.0, 0.0, 0.0]] * 2), basis2),
            rankone.phases_to_povm(rankone.random_phases(3, 7, rng))[0],
        ]
        for P in built:
            assert type(P.elements) is np.ndarray and P.elements.dtype == complex
            assert P.elements.shape == (P.m, P.dim, P.dim)


class TestFileFormat:
    def test_round_trip_bitwise(self, qutrit_csic, tmp_path):
        path = tmp_path / "povm.txt"
        pv.write_povm(qutrit_csic, path)
        back = pv.read_povm(path)
        assert back.dim == 3 and back.m == 7
        for a, b in zip(qutrit_csic.elements, back.elements):
            assert np.array_equal(a, b)

    def test_text_equals_entry_by_entry_formatting(self, trine, tmp_path):
        # the oracle formats every entry from its own numpy scalar; a real
        # element and a signed zero keep their text
        elements = [*catalog.qutrit_csic().elements[:2], np.diag([1.0, -0.0, 2.0])]
        for P in (trine, catalog.diag_units_dim4(), pv.Povm(3, elements)):
            path = tmp_path / "povm.txt"
            pv.write_povm(P, path)
            want = [f"{P.dim} {P.m}"] + [
                ";".join(
                    f"{float(e[r, c].real)!r} {float(e[r, c].imag)!r}" for c in range(P.dim)
                )
                for e in P.elements
                for r in range(P.dim)
            ]
            assert path.read_text() == "\n".join(want) + "\n"

    def test_header_line(self, trine, tmp_path):
        path = tmp_path / "povm.txt"
        pv.write_povm(trine, path)
        assert path.read_text().splitlines()[0] == "2 3"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0;0 0\n")
        with pytest.raises(ContractViolation):
            pv.read_povm(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1\n1.0\n", "row 2: cell '1.0'"),
            ("1 1\nx 0\n", "row 2"),
            ("a b\n", "header"),
            ("2 1\n1 0;0 0\n0 0;nan 0.0\n", "row 3: cell 'nan 0.0' is not finite"),
            ("1 1\n0.0 -inf\n", "row 2: cell '0.0 -inf' is not finite"),
        ],
        ids=["one-number", "not-a-number", "header", "nan", "inf"],
    )
    def test_malformed_text_is_a_typed_failure(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ContractViolation, match=message):
            pv.read_povm(path)

    @pytest.mark.parametrize("header", ["0 0", "2 0", "0 3"])
    def test_empty_header_is_a_typed_failure(self, tmp_path, header):
        # a zeroed header would otherwise read as a valid empty measurement
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ContractViolation, match=f"header '{header}'"):
            pv.read_povm(path)


@pytest.mark.invariants
class TestInvariants:
    def _random_valid_povm(self, rng, basis, m):
        from povm_lab.annealer import random_initial_povm
        from povm_lab.basis import ParameterPattern

        n = basis.dim
        known = tuple(range(m, n**2))
        pattern = ParameterPattern(n, known, (0.0,) * len(known))
        return random_initial_povm(pattern, rng, scale=0.1)

    def test_total_trace_is_dimension(self, basis2, basis3, qutrit_csic, trine):
        rng = np.random.default_rng(11)
        povms = [qutrit_csic, trine]
        povms += [self._random_valid_povm(rng, basis2, 3) for _ in range(5)]
        povms += [self._random_valid_povm(rng, basis3, 7) for _ in range(3)]
        for p in povms:
            total = sum(e.trace().real for e in p.elements)
            assert abs(total - p.dim) < 1e-9

    def test_resolution_of_identity_overlaps(self, basis2, qutrit_csic, trine):
        rng = np.random.default_rng(12)
        povms = [qutrit_csic, trine] + [self._random_valid_povm(rng, basis2, 3) for _ in range(5)]
        for p in povms:
            for i, ei in enumerate(p.elements):
                total = sum(hs_inner(ei, ej) for ej in p.elements)
                assert abs(total - ei.trace().real) < 1e-9

    def test_metrics_permutation_invariant(self, qutrit_csic, trine, basis2):
        rng = np.random.default_rng(13)
        for p in (trine, self._random_valid_povm(rng, basis2, 3)):
            mk = pv.metrics(p)
            for _ in range(5):
                perm = rng.permutation(p.m)
                shuffled = pv.Povm(p.dim, [p.elements[i] for i in perm])
                mk2 = pv.metrics(shuffled)
                assert mk2.sigma == pytest.approx(mk.sigma, abs=1e-12)
                assert mk2.delta == pytest.approx(mk.delta, abs=1e-12)
                assert mk2.Delta == pytest.approx(mk.Delta, abs=1e-12)

    def test_coords_linear_in_a0(self, basis3):
        rng = np.random.default_rng(14)
        a = rng.normal(0, 0.2, 8)
        base = free_element(0.25, a, basis3)
        for k in (0.5, 2.0, 3.7):
            scaled = free_element(0.25 * k, a, basis3)
            assert np.abs(scaled - k * base).max() < 1e-12

import numpy as np
import pytest

from povm_lab import catalog, linalg
from povm_lab import povm as pv
from povm_lab.errors import ClosureNotPositive, ContractViolation


class TestCoordsToElement:
    def test_maximally_mixed(self, basis3):
        c = pv.PovmElementCoords(1 / 3, np.zeros(8))
        assert np.abs(pv.coords_to_element(c, basis3) - np.eye(3) / 3).max() < 1e-15

    def test_zero_weight(self, basis2):
        c = pv.PovmElementCoords(0.0, np.ones(3))
        assert np.abs(pv.coords_to_element(c, basis2)).max() == 0.0

    def test_trine_element(self, basis2):
        c = pv.PovmElementCoords(1 / 3, np.array([np.sqrt(2), 0.0, 0.0]))
        e = pv.coords_to_element(c, basis2)
        assert e.trace().real == pytest.approx(2 / 3, abs=1e-12)
        ev = linalg.hermitian_eigenvalues(e)
        assert np.abs(ev - np.array([2 / 3, 0.0])).max() < 1e-12

    def test_negative_a0_rejected(self):
        with pytest.raises(ContractViolation):
            pv.PovmElementCoords(-0.1, np.zeros(3))

    @pytest.mark.parametrize("a0", [np.nan, np.inf])
    def test_non_finite_a0_rejected(self, a0):
        with pytest.raises(ContractViolation, match="a0 must be finite"):
            pv.PovmElementCoords(a0, np.zeros(3))


class TestElementCoords:
    def test_round_trip(self, basis3):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = pv.PovmElementCoords(rng.uniform(0.05, 0.5), rng.normal(0, 0.2, 8))
            back = pv.element_coords(pv.coords_to_element(c, basis3), basis3)
            assert back.a0 == pytest.approx(c.a0, abs=1e-12)
            assert np.abs(back.a - c.a).max() < 1e-10

    def test_zero_trace_rejected(self, basis2):
        with pytest.raises(ContractViolation):
            pv.element_coords(np.zeros((2, 2)), basis2)


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

    def test_mixed_rank_povm(self):
        p = pv.Povm(2, [np.eye(2) / 2, np.eye(2) / 4, np.eye(2) / 4])
        mk = pv.metrics(p)
        assert mk.sigma == pytest.approx(1.0, abs=1e-12)
        # self-overlaps (1/2, 1/8, 1/8): sum of squared deviations = 3/32
        assert mk.delta == pytest.approx(3 / 32, abs=1e-12)
        assert mk.Delta == pytest.approx(1 / 48, abs=1e-12)
        assert mk.delta > 0


class TestOverlapMatrix:
    def test_entries_are_ordered_pair_overlaps(self, qutrit_csic):
        overlaps = pv.overlap_matrix(qutrit_csic.elements)
        assert overlaps.shape == (7, 7)
        for i, a in enumerate(qutrit_csic.elements):
            for j, b in enumerate(qutrit_csic.elements):
                assert overlaps[i, j] == linalg.hs_inner(a, b)


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

    def test_negative_eigenvalue_flagged(self):
        p = pv.Povm(2, [np.diag([1.0, -1e-3]), np.diag([0.0, 1.0 + 1e-3])])
        names = [v.name for v in pv.validate(p, 1e-9)]
        assert "positivity" in names


class TestFileFormat:
    def test_round_trip_bitwise(self, qutrit_csic, tmp_path):
        path = tmp_path / "povm.txt"
        pv.write_povm(qutrit_csic, path)
        back = pv.read_povm(path)
        assert back.dim == 3 and back.m == 7
        for a, b in zip(qutrit_csic.elements, back.elements):
            assert np.array_equal(a, b)

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
        unknown = tuple(range(1, m))
        known = tuple(range(m, n**2))
        pattern = ParameterPattern(n, unknown, known, np.zeros(len(known)))
        return random_initial_povm(pattern, basis, rng, scale=0.1)

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
                total = sum(linalg.hs_inner(ei, ej) for ej in p.elements)
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
        base = pv.coords_to_element(pv.PovmElementCoords(0.25, a), basis3)
        for k in (0.5, 2.0, 3.7):
            scaled = pv.coords_to_element(pv.PovmElementCoords(0.25 * k, a), basis3)
            assert np.abs(scaled - k * base).max() < 1e-12

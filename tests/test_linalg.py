import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_lab import linalg
from povm_lab.basis import bloch_to_state, gell_mann_basis
from povm_lab.errors import ContractViolation, NumericalError, SingularDesign

from conftest import boundary_points, hs_inner, random_hermitian, random_unitary, solve_linear


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
        assert hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            hs_inner(np.eye(2), np.eye(3))

    def test_qutrit_csic_cross_overlap(self, qutrit_csic):
        # independent oracle: explicit entrywise complex arithmetic
        a, b = qutrit_csic.elements[0], qutrit_csic.elements[1]
        direct = sum(
            (a[i, j] * b[j, i]).real for i in range(3) for j in range(3)
        )
        assert abs(direct - 2 / 49) < 1e-12
        assert hs_inner(a, b) == pytest.approx(2 / 49, abs=1e-12)
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
        assert np.allclose(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_singular(self):
        with pytest.raises(SingularDesign):
            solve_linear(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_trine_recovery(self, trine, qubit_pattern, basis2):
        # forward-compute probabilities for a known state, then invert
        from povm_lab import objective
        from povm_lab.basis import assemble_full_vector, bloch_to_state

        theta = np.array([0.3, 0.0])
        rho = bloch_to_state(assemble_full_vector(qubit_pattern, theta), basis2)
        p = objective.outcome_probabilities(trine, rho)
        design = objective.design_matrix(trine, qubit_pattern)
        x = solve_linear(design.T, p[:2] - design.a0s)
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
            assert hs_inner(a, b) == hs_inner(b, a)
            lhs = hs_inner(a, 0.7 * b + 1.3 * c)
            rhs = 0.7 * hs_inner(a, b) + 1.3 * hs_inner(a, c)
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


def _entry_columns(H):
    """The (n^2, V) real entry columns `psd_verdict` reads, of a (V, n, n) stack."""
    n = H.shape[-1]
    p, q = np.triu_indices(n, 1)
    off = H[:, p, q]
    return np.concatenate([H[:, range(n), range(n)].real.T, off.real.T, off.imag.T])


def _from_spectra(rng, spectra):
    """U diag(spectrum) U† for each spectrum, each with its own random unitary."""
    out = []
    for spectrum in spectra:
        u = random_unitary(rng, len(spectrum))
        h = (u * np.asarray(spectrum)) @ u.conj().T
        out.append((h + h.conj().T) / 2.0)
    return np.array(out)


@pytest.mark.invariants
class TestPsdVerdict:
    """Wherever `psd_verdict` decides, it agrees with `eigvalsh(H)[0] >= -tol`."""

    TOL = 1e-10
    M = linalg.PSD_MARGIN
    OFFSETS = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, M, -M, 2 * M, -2 * M, 1e-3, -1e-3)

    def verdicts(self, H):
        """(yes, no, eigvalsh verdict) of a stack, after the agreement checks."""
        n = H.shape[-1]
        entries = _entry_columns(H)
        yes, no = linalg.psd_verdict(entries, n, self.TOL)
        psd = np.linalg.eigvalsh(H)[:, 0] >= -self.TOL
        assert not (yes & no).any()
        assert psd[yes].all()
        assert not psd[no].any()
        # the same body on one matrix's Python floats gives the same verdict
        for v in range(H.shape[0]):
            one = linalg.psd_verdict(entries[:, v].tolist(), n, self.TOL)
            assert one == (yes[v], no[v])
        return yes, no, psd

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 10.0, 100.0]),
    )
    def test_directions_scaled_onto_the_boundary(self, n, seed, scale):
        # H = scale (I + t A), A a random traceless direction, t putting the
        # lowest eigenvalue of H at -tol + offset
        rng = np.random.default_rng(seed)
        A = random_hermitian(rng, n)
        A -= np.eye(n) * A.trace().real / n
        lowest = np.linalg.eigvalsh(A)[0]
        t = [((-self.TOL + off) / scale - 1.0) / lowest for off in self.OFFSETS]
        H = np.array([scale * (np.eye(n) + ti * A) for ti in t])
        yes, no, _ = self.verdicts(H)
        # lowest eigenvalue at -tol: H + (tol - margin) I is not positive
        # definite and H + (tol + margin) I is, so no minor test can decide
        assert not (yes[0] or no[0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 10.0, 100.0]),
    )
    def test_two_eigenvalues_near_zero(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        small = rng.uniform(-1e-8, 1e-8, (40, 2))
        big = scale * rng.uniform(0.2, 1.0, (40, n - 2))
        spectra = np.concatenate([big, small], axis=1)
        yes, no, _ = self.verdicts(_from_spectra(rng, spectra))
        if n == 2:
            # the slack is relative: a matrix of entries below 1e-8 whose
            # eigenvalues are 1e-9 or more from -tol is still decided
            far = (np.abs(spectra + self.TOL) >= 1e-9).all(axis=1)
            assert (yes | no)[far].all()

    def test_diagonal_matrices_at_every_scale(self):
        for scale in (1e-6, 1.0, 1e3):
            d = scale * np.array([[1.0, 0.5, 0.25], [1.0, -0.5, 0.25], [1.0, 0.5, -1e-3]])
            H = np.array([np.diag(row).astype(complex) for row in d])
            yes, no, psd = self.verdicts(H)
            assert yes.tolist() == [True, False, False]
            assert no.tolist() == [False, True, True]

    def test_every_4x4_matrix_is_in_the_band(self):
        rng = np.random.default_rng(3)
        H = np.array([random_hermitian(rng, 4) for _ in range(5)])
        yes, no = linalg.psd_verdict(_entry_columns(H), 4, self.TOL)
        assert not yes.any() and not no.any()
        assert linalg.psd_verdict(_entry_columns(H)[:, 0].tolist(), 4, self.TOL) == (False, False)


def _grid_mask(points, basis, calls):
    """`psd_mask` on grid points, as `generate_grid` calls it, recording each
    call of its band builder."""

    def band_matrices(band):
        calls.append(band.copy())
        return bloch_to_state(points[band], basis)

    return linalg.psd_mask(basis.entry_map @ points.T, 1.0 / basis.dim, basis.dim, band_matrices)


@pytest.mark.invariants
class TestPsdMask:
    """`psd_mask` keeps exactly the matrices `eigvalsh` keeps, and builds
    matrices only for its band."""

    TOL = linalg.PSD_TOL
    M = linalg.PSD_MARGIN
    OFFSETS = (
        0.0, -TOL, -TOL + 1e-13, -TOL - 1e-13, -TOL + M, -TOL - M, -TOL + 2 * M, -TOL - 2 * M,
        M, -M, 1e-3, -1e-3,
    )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 15),
    )
    def test_mask_matches_eigvalsh(self, dim, seed, support):
        basis = gell_mann_basis(dim)
        points = boundary_points(basis, seed, min(support, dim**2 - 1), self.OFFSETS)
        mask, band = _grid_mask(points, basis, [])
        decided = band.size
        expected = linalg.spectra(bloch_to_state(points, basis))[:, -1] >= -linalg.PSD_TOL
        assert np.array_equal(mask, expected)
        # for n = 4 every row is in the minors' band
        assert decided == len(self.OFFSETS) if dim == 4 else decided <= len(self.OFFSETS)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_band_builds_nothing(self, dim):
        # lowest eigenvalues far from -PSD_TOL: `psd_verdict` decides them all
        calls = []
        points = boundary_points(gell_mann_basis(dim), dim, dim, (0.1, 1e-3, -1e-3, -0.1))
        mask, band = _grid_mask(points, gell_mann_basis(dim), calls)
        assert mask.tolist() == [True, True, False, False]
        assert band.size == 0 and calls == []

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_one_build_for_exactly_the_band(self, dim):
        basis = gell_mann_basis(dim)
        calls = []
        points = boundary_points(basis, dim, dim**2 - 1, self.OFFSETS)
        mask, band = _grid_mask(points, basis, calls)
        entries = basis.entry_map @ points.T
        entries[:dim] += 1.0 / dim
        yes, no = linalg.psd_verdict(entries, dim, linalg.PSD_TOL)
        assert band.tolist() == np.flatnonzero(~(yes | no)).tolist()
        assert self.OFFSETS.index(-self.TOL) in band.tolist()
        assert len(calls) == 1 and calls[0].tolist() == band.tolist()


def _exact_lowest_2x2(entries):
    """The lowest eigenvalue of each 2x2 matrix of (4, V) entry columns, in
    60-digit decimal arithmetic on the floats' exact values."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        out = []
        for d0, d1, r, i in (map(decimal.Decimal, col) for col in entries.T.tolist()):
            half = (d0 - d1) / 2
            out.append((d0 + d1) / 2 - (half * half + r * r + i * i).sqrt())
        return out


@pytest.mark.invariants
class TestTwoByTwoVerdict:
    """The n = 2 verdict, the closed-form lowest eigenvalue against
    -tol +- (PSD_MARGIN + MINOR_SLACK * w), w = |d0| + |d1| + |r| + |i|:
    it agrees with `eigvalsh` wherever it decides, decides with PSD_MARGIN to
    spare in exact arithmetic, gives floats and arrays the same verdict, and
    leaves a matrix undecided only within its slack of -tol."""

    M = linalg.PSD_MARGIN

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e2, 1e3]),
        tol=st.sampled_from([0.0, 1e-10, 1.0 + 1e-10]),
    )
    def test_verdict_near_and_far_from_the_boundary(self, seed, scale, tol):
        rng = np.random.default_rng(seed)
        slack = self.M + linalg.MINOR_SLACK * 2.0 * scale
        offsets = [0.0, 1e-16, 1e-14, 1e-13, 1e-11, 1e-10, 1.5e-10, 1e-9, 1e-6, 1e-3]
        offsets += [self.M + d for d in (-1e-13, -1e-14, 0.0, 1e-14, 1e-13)]
        offsets += [c * slack for c in (0.5, 0.9, 1.1, 2.0)]
        offsets = offsets + [-x for x in offsets]
        # lowest eigenvalue at -tol + offset, the other up to `scale` above it
        low = -tol + np.array(offsets)
        gaps = scale * rng.uniform(0.0, 1.0, low.size)
        H = _from_spectra(rng, np.stack([low, low + gaps], axis=1))
        entries = _entry_columns(H)
        yes, no = linalg.psd_verdict(entries, 2, tol)
        assert not (yes & no).any()

        psd = np.linalg.eigvalsh(H)[:, 0] >= -tol
        assert psd[yes].all() and not psd[no].any()

        exact = _exact_lowest_2x2(entries)
        w = np.abs(entries).sum(axis=0)
        t, m = decimal.Decimal(tol), decimal.Decimal(self.M)
        eps = np.finfo(float).eps
        for v, lam in enumerate(exact):
            if yes[v]:
                assert lam > -t + m, v
            elif no[v]:
                assert lam < -t - m, v
            else:
                # within the slack, and the closed form's own rounding of a few ulps of w
                bound = self.M + linalg.MINOR_SLACK * w[v] + 8 * eps * (w[v] + tol)
                assert abs(lam + t) <= decimal.Decimal(bound), v
            assert linalg.psd_verdict(entries[:, v].tolist(), 2, tol) == (yes[v], no[v])

    def test_overflowed_root_is_left_in_the_band(self):
        # ((d0 - d1)/2)^2 overflows, so the computed lowest eigenvalue is -inf
        # although diag(1e200, 1e160) is positive definite; it and its
        # negation are left to an eigensolver
        entries = np.array([[1e200, -1e200], [1e160, -1e160], [0.0, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            yes, no = linalg.psd_verdict(entries, 2, 1e-10)
        assert not yes.any() and not no.any()
        assert linalg.psd_verdict(entries[:, 0].tolist(), 2, 1e-10) == (False, False)


def _member(rng, n, kind, scale):
    """(H, its descending spectrum or None) for one Hermitian test matrix:
    generic, rank one, with an eigenvalue repeated n - 1 times, or a multiple
    of I; `scale` sets its entry size."""
    if kind == "generic":
        return scale * random_hermitian(rng, n), None
    if kind == "rank_one":
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = np.outer(v, v.conj())
        spectrum = np.zeros(n)
        spectrum[0] = scale * (v.conj() @ v).real
        return scale * (h + h.conj().T) / 2.0, spectrum
    if kind == "degenerate":
        spectrum = scale * np.repeat(rng.normal(size=2), [n - 1, 1])
        return _from_spectra(rng, [spectrum])[0], np.sort(spectrum)[::-1]
    spectrum = np.full(n, scale * rng.normal())
    return spectrum[0] * np.eye(n, dtype=complex), spectrum


@pytest.mark.invariants
class TestSpectra:
    """`spectra` and the stacked `symmetrize` against the per-matrix Jacobi
    oracle: each row within SPECTRA_TOL of the matrix's scale."""

    # eigvalsh and the Jacobi iteration are both backward stable, so they
    # agree with each other, and with a spectrum the matrix was built from,
    # to a few ulps of n max|H_ij|
    SPECTRA_TOL = 16 * np.finfo(float).eps

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["generic", "rank_one", "degenerate", "scalar"]),
            min_size=1,
            max_size=6,
        ),
        scale=st.sampled_from([1e-3, 1.0, 1e2]),
    )
    def test_stack_matches_jacobi(self, n, seed, kinds, scale):
        rng = np.random.default_rng(seed)
        members = [_member(rng, n, kind, scale) for kind in kinds]
        stack = np.array([h for h, _ in members])
        # anti-Hermitian noise well inside each member's own tolerance
        x = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
        peaks = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))[:, None, None]
        noisy = stack + 1e-14 * peaks * (x - x.conj().swapaxes(-1, -2))
        averaged = linalg.symmetrize(noisy)
        ev = linalg.spectra(noisy)
        assert ev.shape == (len(kinds), n)
        for i, (h, known) in enumerate(zip(noisy, (k for _, k in members))):
            # each member gets the bits it gets alone, for both operations
            assert np.array_equal(averaged[i], linalg.symmetrize(h))
            assert np.array_equal(ev[i], linalg.spectra(h))
            assert np.all(np.diff(ev[i]) <= 0.0)
            want = sorted(linalg._jacobi_eigenvalues(averaged[i]), reverse=True)
            bound = self.SPECTRA_TOL * n * max(1.0, float(np.abs(h).max()))
            assert np.abs(ev[i] - want).max() <= bound
            if known is not None:
                assert np.abs(ev[i] - known).max() <= bound

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 6),
        bad=st.integers(0, 5),
    )
    def test_one_non_hermitian_member_is_rejected(self, n, seed, size, bad):
        # the other members are large, so the bad one fails only at its own scale
        rng = np.random.default_rng(seed)
        stack = np.array([1e6 * random_hermitian(rng, n) for _ in range(size)])
        bad %= size
        stack[bad] = random_hermitian(rng, n)
        stack[bad, 0, n - 1] += 1e-9
        for operation in (linalg.symmetrize, linalg.spectra):
            with pytest.raises(ContractViolation, match="not Hermitian"):
                operation(stack)
        stack[bad, 0, n - 1] -= 1e-9
        assert linalg.spectra(stack).shape == (size, n)

    def test_non_finite_and_non_square_stacks_are_rejected(self):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ContractViolation, match="non-finite"):
            linalg.spectra(stack)
        with pytest.raises(ContractViolation, match="square"):
            linalg.spectra(np.zeros((2, 2, 3)))

    def test_lapack_failure_is_a_numerical_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="LAPACK failure"):
            linalg.spectra(np.eye(3))


class TestSlogdetContract:
    """The anneal step's `np.linalg.slogdet` on its (Vc, 2, N, N) stack of T
    and W0 runs unguarded: on a square stack numpy raises no LinAlgError."""

    def test_singular_stack_has_sign_zero(self):
        stack = np.zeros((4, 2, 3, 3))
        stack[:, 1] = np.eye(3)
        sign, log_det = np.linalg.slogdet(stack)
        assert np.array_equal(sign, np.tile([0.0, 1.0], (4, 1)))
        assert np.isneginf(log_det[:, 0]).all() and (log_det[:, 1] == 0.0).all()

    def test_nan_stack_is_nan(self):
        stack = np.full((4, 2, 3, 3), np.nan)
        with np.errstate(invalid="ignore"):
            _, log_det = np.linalg.slogdet(stack)
        assert np.isnan(log_det).all()

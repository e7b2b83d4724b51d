"""Dense complex linear algebra for small matrices (n = 2..4).

`spectra` is the one production eigenvalue path: the descending eigenvalues
of each matrix of a Hermitian (..., n, n) stack (one matrix, the elements of
a measurement, the grid, the closing elements of an anneal step) from one
numpy `eigvalsh` call on `symmetrize`'s average; it re-raises a LAPACK
failure as `NumericalError`.

Positivity has one rule, lowest eigenvalue >= -PSD_TOL, for the grid's
states, every closing element and `statespace.select_cluster`'s reference.
`psd_mask` decides a stack: `psd_verdict` in closed form (the lowest
eigenvalue of a 2x2 matrix, the principal minors of a 3x3 one) wherever the
lowest eigenvalue is farther than PSD_MARGIN plus a rounding slack from
-PSD_TOL, and one `spectra` call on the rest, the band; for n = 4 the band is
every matrix.  `psd_verdict` runs on numpy arrays for a large stack and on
Python floats, one matrix at a time, for a stack of at most FLOAT_STACK_MAX
matrices (a qubit anneal step's four closing elements) and for each draw of
`annealer.perturb_element`: there the fixed cost of about 1 us per numpy
operation outweighs the arithmetic.  The tests keep `eigvalsh` as its oracle.

The pure-Python cyclic Jacobi iteration (`hermitian_eigenvalues`,
`min_eigenvalue`, `min_eigenvalue_trusted`) is the tests' oracle for the
stacked eigenvalue paths; production determinants come from `slogdet` in
`objective`, with the pivoted elimination of `determinant` as their oracle.
The tests keep their other oracles (the pairwise Hilbert-Schmidt pairing and a
pivoted linear solve) in `tests/conftest.py`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, NumericalError

HERMITIAN_TOL = 1e-12
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
PSD_TOL = 1e-10  # the one positivity rule: lowest eigenvalue >= -PSD_TOL
# `psd_verdict` decides only matrices whose lowest eigenvalue is farther than
# PSD_MARGIN from -tol, which covers `eigvalsh`'s error (a few ulps of |H|)
# for entries up to a few hundred.  A 3x3 principal minor of order k is
# trusted beyond MINOR_SLACK * w**k, w the sum of the shifted entries'
# magnitudes: its computed value is within about 9 ulps of the sum of its
# expansion's products' magnitudes, and that sum is at most w**k.  The
# closed-form lowest eigenvalue of a 2x2 matrix is trusted beyond
# MINOR_SLACK * w, w the sum of its entries' magnitudes.
PSD_MARGIN = 1e-12
MINOR_SLACK = 4e-15
# `psd_mask` decides a stack of at most this many matrices on Python floats
FLOAT_STACK_MAX = 16


def symmetrize(H) -> np.ndarray:
    """Check each matrix of a (..., n, n) stack for Hermiticity within
    HERMITIAN_TOL of its own scale and return (H + H†)/2.

    Downstream code never sees asymmetry noise: every operation that requires
    a Hermitian input routes through this.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ContractViolation(f"expected square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ContractViolation("matrix has non-finite entries")
    adjoint = A.conj().swapaxes(-1, -2)
    dev = np.abs(A - adjoint).max(axis=(-2, -1))
    bad = dev > HERMITIAN_TOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    if bad.any():
        raise ContractViolation(f"matrix is not Hermitian: max |A - A†| = {dev[bad].max():g}")
    return (A + adjoint) / 2.0


def spectra(H) -> np.ndarray:
    """Eigenvalues, descending along the last axis, of each matrix of a
    Hermitian (..., n, n) stack: one `eigvalsh` on `symmetrize`'s average.
    A LAPACK failure there is re-raised as NumericalError."""
    A = symmetrize(H)
    try:
        return np.linalg.eigvalsh(A)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failure: {exc}") from exc


def _jacobi_eigenvalues(A: np.ndarray) -> list:
    """Cyclic Jacobi on an exactly Hermitian n x n array, run on a nested-list
    copy; returns the unsorted diagonal after convergence of the off-diagonal
    Frobenius mass (for n = 1, the one real entry)."""
    n = A.shape[0]
    if n == 1:
        return [float(A[0, 0].real)]
    a = [[complex(A[i, j]) for j in range(n)] for i in range(n)]
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            x = a[i][j]
            fro2 += x.real * x.real + x.imag * x.imag
    thresh = JACOBI_OFF_TOL * max(1.0, math.sqrt(fro2))
    thresh2 = 0.5 * thresh * thresh
    for _ in range(JACOBI_MAX_SWEEPS):
        off2 = 0.0
        for p in range(n - 1):
            row = a[p]
            for q in range(p + 1, n):
                x = row[q]
                off2 += x.real * x.real + x.imag * x.imag
        if off2 <= thresh2:
            return [a[i][i].real for i in range(n)]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                r = abs(apq)
                if r == 0.0:
                    continue
                u = apq / r
                theta = 0.5 * math.atan2(2.0 * r, a[p][p].real - a[q][q].real)
                c = math.cos(theta)
                su = math.sin(theta) * u
                su_bar = su.conjugate()
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp + su_bar * akq
                    a[k][q] = c * akq - su * akp
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk + su * aqk
                    a[q][k] = c * aqk - su_bar * apk
    raise NumericalError(
        f"Jacobi eigenvalue iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def hermitian_eigenvalues(H) -> np.ndarray:
    """Eigenvalues of one Hermitian matrix, sorted descending.

    Cyclic Jacobi rotations; converged when the off-diagonal Frobenius mass
    drops below JACOBI_OFF_TOL relative to the matrix scale.  The tests'
    oracle for `spectra`.
    """
    return np.array(sorted(_jacobi_eigenvalues(symmetrize(H)), reverse=True))


def min_eigenvalue(H) -> float:
    return float(hermitian_eigenvalues(H)[-1])


def min_eigenvalue_trusted(A: np.ndarray) -> float:
    """Min eigenvalue of a matrix already known to be exactly Hermitian.

    Skips the Hermiticity check and the array round trips of the public
    operation; same Jacobi core.
    """
    return min(_jacobi_eigenvalues(A))


def psd_verdict(entries, n: int, tol: float):
    """Decide lambda_min(H) >= -tol for Hermitian n x n H in closed form.

    `entries` holds H's real entry columns: the n diagonals, then Re of each
    upper off-diagonal entry (row-major), then Im of each, as
    `OrthonormalBasis.entry_map` lays them out.  A column is a float (one
    matrix) or a numpy array (one value per matrix); the body uses only
    arithmetic operators, `abs` and &/|, so it serves both.

    Returns masks (yes, no) for tol >= 0, each decided with PSD_MARGIN to
    spare beyond a rounding slack.  For n = 2 the lowest eigenvalue is
    (d0 + d1)/2 - sqrt(((d0 - d1)/2)^2 + r^2 + i^2); the root is at most
    w = |d0| + |d1| + |r| + |i| and every operation rounds by at most an ulp
    of w, so the computed value is within a few ulps of w of the exact one,
    well inside MINOR_SLACK * w (18 ulps).  yes: it exceeds -tol + PSD_MARGIN +
    MINOR_SLACK * w; no: it is below -tol - PSD_MARGIN - MINOR_SLACK * w.
    For n = 3, yes: every leading principal minor of H + (tol - PSD_MARGIN) I
    exceeds its slack, so by Sylvester's criterion that matrix is positive
    definite and lambda_min(H) > -tol + PSD_MARGIN; no: some principal minor
    of H + (tol + PSD_MARGIN) I is below minus its slack, so
    lambda_min(H) < -tol - PSD_MARGIN.  Neither: the band, which an
    eigensolver must decide; for n >= 4 every matrix is in the band.
    """
    if n == 2:
        d0, d1, r, i = entries
        half = (d0 - d1) / 2.0
        root = (half * half + r * r + i * i) ** 0.5
        low = (d0 + d1) / 2.0 - root
        slack = MINOR_SLACK * (abs(d0) + abs(d1) + abs(r) + abs(i))
        yes = low - slack > PSD_MARGIN - tol
        # a root that overflowed (entries past about 1e154) decides nothing
        no = (low + slack < -tol - PSD_MARGIN) & (root < math.inf)
        return yes, no
    lo, hi = tol - PSD_MARGIN, tol + PSD_MARGIN
    if n == 3:
        d0, d1, d2, r01, r02, r12, i01, i02, i12 = entries
        w = abs(d0) + abs(d1) + abs(d2) + abs(r01) + abs(r02) + abs(r12)
        w = w + abs(i01) + abs(i02) + abs(i12) + 3.0 * hi
        s1 = MINOR_SLACK * w
        s2 = s1 * w
        s3 = s2 * w
        m01, m02, m12 = r01 * r01 + i01 * i01, r02 * r02 + i02 * i02, r12 * r12 + i12 * i12
        # 2 Re(H_01 H_12 conj(H_02))
        triple = 2.0 * ((r01 * r12 - i01 * i12) * r02 + (r01 * i12 + i01 * r12) * i02)
        x0, x1, x2 = d0 + lo, d1 + lo, d2 + lo
        det = x0 * (x1 * x2 - m12) - x1 * m02 - x2 * m01 + triple
        yes = (x0 > s1) & (x0 * x1 - m01 > s2) & (det > s3)
        x0, x1, x2 = d0 + hi, d1 + hi, d2 + hi
        minor12 = x1 * x2 - m12
        det = x0 * minor12 - x1 * m02 - x2 * m01 + triple
        no = (x0 < -s1) | (x1 < -s1) | (x2 < -s1) | (x0 * x1 - m01 < -s2)
        no = no | (x0 * x2 - m02 < -s2) | (minor12 < -s2) | (det < -s3)
        return yes, no
    # False, for a float or per matrix
    return entries[0] < -math.inf, entries[0] < -math.inf


def psd_mask(entries, shift, n: int, band_matrices):
    """(mask, band): which matrices of a stack have lowest eigenvalue >=
    -PSD_TOL, and the indices of those `spectra` decided.

    `entries` is the (n^2, V) array of the stack's real entry columns, as
    `psd_verdict` reads them, before `shift` is added in place to its n
    diagonal rows.  `psd_verdict` decides each matrix; `band_matrices(band)`
    builds the (len(band), n, n) matrices of the undecided indices for one
    `spectra` call, and is not called when there are none.

    A stack of at most FLOAT_STACK_MAX matrices is decided one matrix at a
    time on the Python floats of its columns, a larger one by one call on the
    arrays; both give the same verdicts, so the same mask and band.  The
    float path costs under 1 us per matrix and the array path a fixed 7-8 us
    (n = 2) or 21-22 us (n = 3) whatever the stack's size, so floats win up
    to about 16-18 matrices for n = 2 and about 28 for n = 3 (timeit).
    """
    entries[:n] += shift
    if entries.shape[1] <= FLOAT_STACK_MAX:
        verdicts = [psd_verdict(column, n, PSD_TOL) for column in entries.T.tolist()]
        mask = np.array([yes for yes, _ in verdicts], dtype=bool)
        band = np.array(
            [v for v, (yes, no) in enumerate(verdicts) if not (yes or no)], dtype=np.intp
        )
    else:
        mask, no = psd_verdict(entries, n, PSD_TOL)
        band = (~(mask | no)).nonzero()[0]
    if band.size:
        mask[band] = spectra(band_matrices(band))[:, -1] >= -PSD_TOL
    return mask, band


def determinant(M) -> float:
    """Determinant of a real square matrix via pivoted elimination."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation(f"determinant needs a square matrix, got {A.shape}")
    n = A.shape[0]
    a = [list(map(float, row)) for row in A]
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            return 0.0
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f != 0.0:
                for c in range(col + 1, n):
                    a[r][c] -= f * a[col][c]
    return det

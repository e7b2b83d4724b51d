"""Closed-form measurements and the conditional-SIC certification report.

The known closed-form optima are the qubit trine and the qutrit
seven-element measurement, the n = 2 and n = 3 harmonic frames of Singer
difference sets (`harmonic_csic`; the 13-element n = 4 frame is library-only),
and the dim-4 diagonal matrix units.  The dim-4 tensor extension of the qubit
tetrahedron is a conditional SIC; `verify` checks its conditions, not its
optimality.  The report checks the three defining
conditions of a conditional SIC-POVM: every element a common multiple of a
projection, constant cross-overlaps, and quasi-orthogonality to the known
parameter directions; its verdict also requires the elements to sum to I
and to number N + 1 for the pattern's N unknowns.  The report reads those
conditions off the elements' spectra and `report_overlap`, one overlap matrix
of the elements and the known directions of the dimension's one cached basis;
the CLI computes the two once per written POVM and passes them to both the
report and `povm.metrics`, while `verify` lets the report compute them.  Every
constructor builds one (m, n, n) element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import PAULI, ParameterPattern, gell_mann_basis
from .errors import ContractViolation
from .povm import Povm, overlap_matrix
from .rankone import PhaseConfiguration

RANK_TOL = 1e-8

# Singer (v, n, 1) difference sets mod v = n^2 - n + 1, keyed by n
SINGER_SETS = {2: (0, 1), 3: (0, 1, 5), 4: (0, 1, 3, 9)}
# rows k of the n = 3 frame in the printed qutrit solution's element order
_QUTRIT_ROWS = (0, 1, 5, 3, 6, 2, 4)


def harmonic_csic(n: int) -> Povm:
    """The v = n^2 - n + 1 elements E_k = (n/v) h_k h_k^dagger, k = 0..v-1, of
    the harmonic frame h_k = (e^{2 pi i k d/v})_{d in D} / sqrt n on the Singer
    difference set D mod v, for n = 2, 3 and 4.  Each frame is a conditional
    SIC with the diagonal directions known, c = n/v and d = (n - 1)/v^2.

    Each exponent k d is reduced to its symmetric residue, so rows k and v - k
    are exact entrywise conjugates.
    """
    if n not in SINGER_SETS:
        raise ContractViolation(f"no Singer difference set for n = {n}")
    D, v = SINGER_SETS[n], n * n - n + 1
    r = np.outer(np.arange(v), D) % v
    r = np.where(r > v // 2, r - v, r)  # symmetric residue
    h = np.exp(2j * math.pi * r / v) / math.sqrt(n)  # (v, n), row k is h_k
    return Povm((n / v) * h[:, :, None] * h[:, None, :].conj())


def qutrit_csic_phases() -> PhaseConfiguration:
    """Phase matrix of the analytic qutrit solution, (2 pi/7)(k d mod 7)."""
    units = np.outer(_QUTRIT_ROWS, SINGER_SETS[3]) % 7
    return PhaseConfiguration(units.astype(float) * (2.0 * math.pi / 7.0))


def qutrit_csic() -> Povm:
    """The seven-element qutrit solution: the n = 3 harmonic frame in rows
    0, 1, 5, 3, 6, 2, 4, so elements 4-6 are the entrywise conjugates of 1-3."""
    return Povm(harmonic_csic(3).elements.take(_QUTRIT_ROWS, axis=0))


def qubit_trine() -> Povm:
    """The qubit trine E_k = (2/3) P_k, projections at 120 degrees in the xy
    plane: the n = 2 harmonic frame."""
    return harmonic_csic(2)


def diag_units_dim4() -> Povm:
    """The four diagonal matrix units of dimension 4."""
    units = np.zeros((4, 4, 4), dtype=complex)
    units[range(4), range(4), range(4)] = 1.0
    return Povm(units)


TETRAHEDRON = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)


def qubit_sic() -> np.ndarray:
    """The (4, 2, 2) fixed tetrahedron qubit SIC F_i = (I + t_i . pauli/sqrt3)/4."""
    return (np.eye(2) + np.tensordot(TETRAHEDRON, PAULI[1:], 1) / math.sqrt(3.0)) / 4.0


def sic_tensor_identity_dim4() -> Povm:
    """E_i = F_i (x) I with F_i the qubit SIC: four rank-two multiples of 1/2."""
    return Povm(np.kron(qubit_sic(), np.eye(2)))


@dataclass(frozen=True)
class ConditionalSicReport:
    """Certification of the three conditional-SIC conditions at RANK_TOL."""

    is_rank_constant_multiple: bool
    ranks: tuple
    c: float
    d: float
    max_pairwise_overlap_deviation: float
    max_quasi_orthogonality_violation: float
    verdict: bool


def report_overlap(P: Povm, pattern: ParameterPattern) -> np.ndarray:
    """One overlap matrix of P's m elements followed by the pattern's known
    basis directions: its leading m x m block holds the cross-overlaps, its
    block [:m, m:] the pairings with the known directions."""
    known = gell_mann_basis(pattern.dim).stack.take(pattern.known_positions, axis=0)
    return overlap_matrix(np.concatenate([P.elements, known]))


def conditional_sic_report(
    P: Povm, pattern: ParameterPattern, evals=None, overlap=None
) -> ConditionalSicReport:
    """Check conditions: common-multiple-of-projection elements, constant
    cross-overlaps and zero pairing with every known basis direction.  The
    verdict also needs max |sum E - I| <= RANK_TOL (a conditional SIC-POVM is
    a POVM first) and m = N + 1 elements for the N unknowns (fewer outcomes
    cannot determine them; d is 0.0 when m = 1 leaves no pair).

    The conditions are read off two arrays: `evals`, the descending spectra
    of the elements from `linalg.spectra`, and `overlap`, `report_overlap`'s
    matrix.  A caller that already has them (the CLI's report pass, which
    also reads sigma, delta and Delta off them) passes them in; otherwise
    they are computed here."""
    m = P.m
    if evals is None:
        evals = linalg.spectra(P.elements)  # (m, n), descending
    if overlap is None:
        overlap = report_overlap(P, pattern)
    size = m + len(pattern.known_indices)
    if overlap.shape != (size, size):
        raise ContractViolation(
            f"report overlap has shape {overlap.shape}, expected ({size}, {size})"
        )
    c = float(evals[:, 0].mean())
    significant = evals > RANK_TOL * np.maximum(evals[:, :1], 0.0)
    ranks = tuple(significant.sum(axis=1).tolist())
    multiple_ok = all(ranks) and bool(np.abs(evals - c)[significant].max() <= RANK_TOL)
    cross = overlap[:m, :m][~np.eye(m, dtype=bool)]
    d = float(cross.mean()) if cross.size else 0.0
    overlap_dev = float(np.abs(cross - d).max()) if cross.size else 0.0
    quasi = float(np.abs(overlap[:m, m:]).max(initial=0.0))
    complete = np.abs(P.elements.sum(axis=0) - np.eye(P.dim)).max() <= RANK_TOL
    sized = m == pattern.unknown_count + 1
    verdict = all((multiple_ok, overlap_dev <= RANK_TOL, quasi <= RANK_TOL, complete, sized))
    return ConditionalSicReport(multiple_ok, ranks, c, d, overlap_dev, quasi, verdict)


def report_to_text(report: ConditionalSicReport) -> str:
    rows = [
        ("rank_constant_multiple", str(report.is_rank_constant_multiple)),
        ("ranks", " ".join(str(r) for r in report.ranks)),
        ("c", repr(report.c)),
        ("d", repr(report.d)),
        ("max_pairwise_overlap_deviation", repr(report.max_pairwise_overlap_deviation)),
        ("max_quasi_orthogonality_violation", repr(report.max_quasi_orthogonality_violation)),
        ("verdict", str(report.verdict)),
        ("tol", repr(RANK_TOL)),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


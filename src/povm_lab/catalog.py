"""Closed-form measurements and the conditional-SIC certification report.

The constructors return the known closed-form optima (the qutrit seven-element
measurement built from 7th roots of unity, the qubit trine and the dim-4
diagonal matrix units) and the dim-4 tensor extension of the qubit
tetrahedron, a conditional SIC with no optimality claim: on its known pattern
a descent reaches a lower DACM.  The report checks the three defining
conditions of a conditional SIC-POVM: every element a common multiple of a
projection, constant cross-overlaps, and quasi-orthogonality to the known
parameter directions; its verdict also requires the elements to sum to I
and to number N + 1 for the pattern's N unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import ParameterPattern, gell_mann_basis
from .povm import Povm, overlap_matrix
from .rankone import PhaseConfiguration

RANK_TOL = 1e-8

# exponent tables (units of 2*pi/7) for the upper triangle structure of the
# printed qutrit solution; row i gives the phases of the vector h_i
_QUTRIT_PHASE_UNITS = (
    (0, 0, 0),
    (0, 1, 5),
    (0, 5, 4),
    (0, 3, 1),
    (0, 6, 2),
    (0, 2, 3),
    (0, 4, 6),
)


def qutrit_csic_phases() -> PhaseConfiguration:
    """Phase matrix of the analytic qutrit solution (multiples of 2*pi/7)."""
    ph = np.array(_QUTRIT_PHASE_UNITS, dtype=float) * (2.0 * math.pi / 7.0)
    return PhaseConfiguration(3, 7, ph)


def qutrit_csic() -> Povm:
    """Seven qutrit elements (1/7-diagonal, 7th-root phases) summing to I.

    The last three are the entrywise conjugates of elements 2-4.
    """
    eps = np.exp(2j * math.pi / 7.0)
    elements = []
    for row in _QUTRIT_PHASE_UNITS[:4]:
        h = np.array([eps**k for k in row]) / math.sqrt(3.0)
        elements.append((3.0 / 7.0) * np.outer(h, h.conj()))
    elements += [elements[1].conj(), elements[2].conj(), elements[3].conj()]
    return Povm(3, elements)


def qubit_trine() -> Povm:
    """The qubit trine: E_i = (2/3) P_i, projections at 120 degrees in the xy plane."""
    b = gell_mann_basis(2)
    elements = []
    for k in range(3):
        ang = 2.0 * math.pi * k / 3.0
        a = np.array([math.sqrt(2.0) * math.cos(ang), math.sqrt(2.0) * math.sin(ang), 0.0])
        e = b.expand(a) + np.eye(2)
        elements.append(e / 3.0)
    return Povm(2, elements)


def diag_units_dim4() -> Povm:
    """The four diagonal matrix units of dimension 4."""
    elements = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        elements.append(e)
    return Povm(4, elements)


TETRAHEDRON = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)


def qubit_sic() -> list:
    """The fixed tetrahedron qubit SIC elements F_i = (I + t_i . pauli/sqrt3)/4."""
    from .basis import PAULI

    out = []
    for t in TETRAHEDRON:
        direction = sum(t[i] * PAULI[i + 1] for i in range(3)) / math.sqrt(3.0)
        out.append((np.eye(2) + direction) / 4.0)
    return out


def sic_tensor_identity_dim4() -> Povm:
    """E_i = F_i (x) I with F_i the qubit SIC: four rank-two multiples of 1/2."""
    elements = [np.kron(f, np.eye(2)) for f in qubit_sic()]
    return Povm(4, elements)


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


def conditional_sic_report(P: Povm, pattern: ParameterPattern) -> ConditionalSicReport:
    """Check conditions: common-multiple-of-projection elements, constant
    cross-overlaps and zero pairing with every known basis direction.  The
    verdict also needs max |sum E - I| <= RANK_TOL (a conditional SIC-POVM is
    a POVM first) and m = N + 1 elements for the N unknowns (fewer outcomes
    cannot determine them; d is 0.0 when m = 1 leaves no pair)."""
    evals = linalg.spectra(P.elements)  # (m, n), descending
    c = float(evals[:, 0].mean())
    significant = evals > RANK_TOL * np.maximum(evals[:, :1], 0.0)
    ranks = tuple(significant.sum(axis=1).tolist())
    multiple_ok = all(ranks) and bool(np.abs(evals - c)[significant].max() <= RANK_TOL)
    # one overlap matrix of the elements and the known directions: the
    # element block gives the cross-overlaps, the off-diagonal block the pairings
    b = gell_mann_basis(pattern.dim)
    m = P.m
    overlap = overlap_matrix(list(P.elements) + [b.element(i) for i in pattern.known_indices])
    cross = overlap[:m, :m][~np.eye(m, dtype=bool)]
    d = float(cross.mean()) if cross.size else 0.0
    overlap_dev = float(np.abs(cross - d).max()) if cross.size else 0.0
    quasi = float(np.abs(overlap[:m, m:]).max(initial=0.0))
    complete = np.abs(sum(P.elements) - np.eye(P.dim)).max() <= RANK_TOL
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


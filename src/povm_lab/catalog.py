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
conditions, and `povm.metrics`' sigma, delta and Delta, off one
`linalg.spectra` of the elements and one `report_overlap`, one overlap matrix
of the elements and the known directions of the dimension's one cached basis,
so a certified POVM is decomposed once; `report_to_text` renders it as the
block `report.txt` starts with.  Every constructor builds one (m, n, n)
element array.  `CLAIMS` states each claim `verify` checks once, one `Claim`
row per measurement in `verify`'s order; its rows marked `default` give each
dimension's default pattern, `DEFAULT_PATTERNS`.
The checks are evaluated here too: `claim_residual` has one branch per check
kind and `claim_checks` builds `verify`'s suite from the rows, so the CLI only
prints the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .basis import PAULI, ParameterPattern, gell_mann_basis
from .errors import ContractViolation
from .povm import Povm, PovmMetrics, metrics, overlap_matrix, validate

RANK_TOL = 1e-8
# every `verify` residual passes at or below this
VERIFY_TOL = 1e-12

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
class Claim:
    """A measurement's claims: `builder` names its constructor here, `pattern`
    the knowns it is a conditional SIC for (None: bare elements) and `default`
    marks it as its dimension's default.  A check (label, kind, scale, target)
    claims `target` for the "sum" (a multiple of I), "spectrum" (descending),
    "diagonal" entries or "overlap" Tr(E_i E_j), i != j, of `scale` times the
    elements, or the report's "quasi"-orthogonality or "verdict", with (c, d) =
    target where given.  `claim_checks` adds a "valid" check (`povm.validate`
    at VERIFY_TOL) for every row whose builder returns a Povm."""

    name: str
    builder: str
    pattern: ParameterPattern | None
    default: bool
    checks: tuple


def _zeros_except(dim: int, unknown) -> ParameterPattern:
    """The pattern of `dim` with every index but the `unknown` ones known at 0."""
    return ParameterPattern.from_known(dim, {i: 0.0 for i in range(1, dim**2) if i not in unknown})


CLAIMS = (
    Claim("qutrit", "qutrit_csic", _zeros_except(3, range(1, 7)), True, (
        ("qutrit sum = I", "sum", 1.0, 1.0),
        ("qutrit eigenvalues (3/7, 0, 0)", "spectrum", 1.0, (3 / 7, 0, 0)),
        ("qutrit diagonals 1/7", "diagonal", 1.0, 1 / 7),
        ("qutrit cross-overlaps 2/49", "overlap", 1.0, 2 / 49),
        ("qutrit quasi-orthogonal to diagonal directions", "quasi", 1.0, None),
        ("qutrit report verdict (c = 3/7, d = 2/49)", "verdict", 1.0, (3 / 7, 2 / 49)),
    )),
    # scale 3/2: the projections P_i = (3/2) E_i
    Claim("trine", "qubit_trine", _zeros_except(2, (1, 2)), True, (
        ("trine sum P = (3/2) I", "sum", 1.5, 1.5),
        ("trine Tr P_i P_j = 1/4", "overlap", 1.5, 0.25),
        ("trine complementary to z", "quasi", 1.0, None),
        ("trine report verdict (c = 2/3, d = 1/9)", "verdict", 1.0, (2 / 3, 1 / 9)),
    )),
    # scale 2: Tr(2F_i 2F_j) = 4 Tr(F_i F_j) = mu
    Claim("qubit SIC", "qubit_sic", None, False, (
        ("qubit SIC constants (mu = 1/3 tetrahedron)", "overlap", 2.0, 1 / 3),
    )),
    Claim("diag units", "diag_units_dim4", _zeros_except(4, (3, 12, 15)), True, (
        ("diag units sum = I", "sum", 1.0, 1.0),
        ("diag units pairwise overlaps 0", "overlap", 1.0, 0.0),
        ("diag units report verdict", "verdict", 1.0, None),
    )),
    Claim("tensor SIC", "sic_tensor_identity_dim4", _zeros_except(4, (4, 8, 12)), False, (
        ("tensor SIC eigenvalues (1/2, 1/2, 0, 0)", "spectrum", 1.0, (0.5, 0.5, 0, 0)),
        ("tensor SIC cross-overlaps 1/6", "overlap", 1.0, 1 / 6),
        ("tensor SIC sum = I", "sum", 1.0, 1.0),
        ("tensor SIC report verdict", "verdict", 1.0, None),
    )),
)
DEFAULT_PATTERNS = {claim.pattern.dim: claim.pattern for claim in CLAIMS if claim.default}


@dataclass(frozen=True)
class ConditionalSicReport:
    """The three conditional-SIC conditions at RANK_TOL, and the POVM's `metrics`."""

    is_rank_constant_multiple: bool
    ranks: tuple
    c: float
    d: float
    max_pairwise_overlap_deviation: float
    max_quasi_orthogonality_violation: float
    verdict: bool
    metrics: PovmMetrics


def report_overlap(P: Povm, pattern: ParameterPattern) -> np.ndarray:
    """One overlap matrix of P's m elements followed by the pattern's known
    basis directions: its leading m x m block holds the cross-overlaps, its
    block [:m, m:] the pairings with the known directions."""
    known = gell_mann_basis(pattern.dim).stack.take(pattern.known_positions, axis=0)
    return overlap_matrix(np.concatenate([P.elements, known]))


def conditional_sic_report(P: Povm, pattern: ParameterPattern) -> ConditionalSicReport:
    """Check conditions: common-multiple-of-projection elements, constant
    cross-overlaps and zero pairing with every known basis direction.  The
    verdict also needs max |sum E - I| <= RANK_TOL (a conditional SIC-POVM is
    a POVM first) and m = N + 1 elements for the N unknowns (fewer outcomes
    cannot determine them; d is 0.0 when m = 1 leaves no pair).

    The conditions and `povm.metrics` are read off one `linalg.spectra` of the
    elements and one `report_overlap` matrix."""
    m = P.m
    evals = linalg.spectra(P.elements)  # (m, n), descending
    overlap = report_overlap(P, pattern)
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
    mk = metrics(P, evals, overlap)
    return ConditionalSicReport(multiple_ok, ranks, c, d, overlap_dev, quasi, verdict, mk)


def report_to_text(report: ConditionalSicReport) -> str:
    """The aligned report rows, a blank line, then sigma, delta and Delta."""
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
    mk = report.metrics
    lines = [f"{k.ljust(width)}  {v}" for k, v in rows]
    lines += ["", f"sigma  {mk.sigma!r}", f"delta  {mk.delta!r}", f"Delta  {mk.Delta!r}"]
    return "\n".join(lines)


def claim_residual(kind, scale, built, pattern, target) -> float:
    """The residual of a `Claim` check on `scale` times the elements of `built`
    (a Povm or their array), or of its validity or report (0 if it holds)."""
    elements = scale * (built.elements if isinstance(built, Povm) else built)
    if kind == "sum":
        return float(np.abs(elements.sum(axis=0) - target * np.eye(elements.shape[-1])).max())
    if kind == "spectrum":
        return float(np.abs(linalg.spectra(elements) - target).max())
    if kind == "diagonal":
        return float(np.abs(np.diagonal(elements, axis1=1, axis2=2) - target).max())
    if kind == "overlap":
        cross = overlap_matrix(elements)[~np.eye(len(elements), dtype=bool)]
        return float(np.abs(cross - target).max())
    if kind == "valid":
        return 1.0 if validate(built, VERIFY_TOL) else 0.0
    if kind not in ("quasi", "verdict"):
        raise ContractViolation(f"unknown check kind {kind!r}")
    rep = conditional_sic_report(built, pattern)
    if kind == "quasi":
        return rep.max_quasi_orthogonality_violation
    pairs = zip((rep.c, rep.d), target or (None, None))
    ok = rep.verdict and all(t is None or abs(v - t) < VERIFY_TOL for v, t in pairs)
    return 0.0 if ok else 1.0


def claim_checks():
    """`verify`'s suite: (name, callable) pairs, each callable returning a
    residual that passes at or below VERIFY_TOL.  Every `CLAIMS` row's checks
    in order, on what its builder (looked up in this module now) returns, then
    one "valid" check per claimed Povm."""
    checks, valid = [], []
    for claim in CLAIMS:
        built = globals()[claim.builder]()
        for label, kind, scale, target in claim.checks:
            residual = partial(claim_residual, kind, scale, built, claim.pattern, target)
            checks.append((label, residual))
        if isinstance(built, Povm):
            residual = partial(claim_residual, "valid", 1.0, built, claim.pattern, None)
            valid.append((f"{claim.name} povm valid at {VERIFY_TOL:g}", residual))
    return checks + valid

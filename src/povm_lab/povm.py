"""POVM representation, completeness closure, validity checks and diagnostics.

A POVM is its element matrices, one complex (m, n, n) array checked once when
built and validated in one stacked pass.  `element_rows` is the one map from element
matrices to their rows (Tr E / n, Tr(E sigma)) in the orthonormal basis of
:mod:`povm_lab.basis`, which read a weight a0 = Tr E / n and a direction
a = Tr(E sigma) / a0 off an element E = a0 (I + a . sigma).  The diagnostics
sigma/delta/Delta track rank-one-ness and overlap symmetry of a candidate
measurement during optimization.  Every set of overlaps Tr(E_i E_j) comes
from one product, `overlap_matrix`.  `metrics` reads the diagnostics off the
elements' spectra and overlap matrix; the anneal trace lets it compute both,
while the conditional-SIC report hands it the spectra and the one overlap
matrix that it reads too, so a certified POVM is decomposed once.  That
matrix also holds the known directions, so its product rounds differently:
the report's delta and Delta can differ from `metrics(P)` alone in the last
bits (within 1e-15 absolute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import OrthonormalBasis
from .errors import ClosureNotPositive, ContractViolation

COMPLETENESS_TOL = 1e-9


@dataclass(eq=False)
class Povm:
    """m PSD elements summing to identity, one complex (m, dim, dim) array with
    m >= 1 (`element_stack`) that `m` and `dim` read; m = N + 1 for an N-unknown
    design.  A Povm compares by identity, since `==` on an array is ambiguous."""

    elements: np.ndarray

    def __post_init__(self):
        self.elements = element_stack(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def m(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class PovmMetrics:
    """sigma = sum of 2nd largest eigenvalues; delta/Delta = overlap variances."""

    sigma: float
    delta: float
    Delta: float


def element_stack(elements) -> np.ndarray:
    """The elements as one complex (m, n, n) array with m >= 1, else
    ContractViolation (a ragged list included)."""
    try:
        E = np.asarray(elements, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"dimension mismatch: not one stack of matrices: {exc}") from exc
    if E.ndim != 3 or E.shape[0] < 1 or E.shape[1] != E.shape[2]:
        raise ContractViolation(f"expected an (m >= 1, n, n) element stack, got shape {E.shape}")
    return E


def element_rows(elements, basis: OrthonormalBasis) -> np.ndarray:
    """X (m, n^2) of m element matrices: row j is (Tr E_j / n, Tr(E_j sigma_1),
    ..., Tr(E_j sigma_{n^2-1})), so p_j = X[j, 0] + theta . X[j, 1:].

    One `linalg.symmetrize` checks the stack (Hermitian, finite); one real
    product of its entries with the generators' gives every Tr(E sigma) =
    sum Re E Re sigma + Im E Im sigma.
    """
    mats = linalg.symmetrize(elements)
    n = basis.dim
    if mats.ndim != 3 or mats.shape[-1] != n:
        raise ContractViolation(f"expected a stack of {n} x {n} elements, got shape {mats.shape}")
    m = mats.shape[0]
    X = np.empty((m, n * n))
    X[:, 0] = np.trace(mats, axis1=1, axis2=2).real / n
    X[:, 1:] = mats.view(float).reshape(m, -1) @ basis.stack.view(float).reshape(n * n - 1, -1).T
    return X


def closing_elements(chosen: np.ndarray) -> np.ndarray:
    """I - E_1 - ... - E_N for a (..., N, n, n) stack of element lists.

    The elements are subtracted from I one at a time in element order, then
    the result is Hermitian-averaged, so every caller gets the closing element
    of `complete_povm` bit for bit, one list or a stack of them at once.
    """
    residual = np.eye(chosen.shape[-1], dtype=complex)
    for i in range(chosen.shape[-3]):
        residual = residual - chosen[..., i, :, :]
    return (residual + residual.conj().swapaxes(-1, -2)) / 2.0


def complete_povm(first_elements) -> Povm:
    """Append E_m = I - sum of the given elements; fails if it is not PSD."""
    chosen = element_stack(first_elements)
    residual = closing_elements(chosen)
    lo = linalg.spectra(residual)[-1]
    if lo < -linalg.PSD_TOL:
        raise ClosureNotPositive(f"closure element has eigenvalue {lo:.3e} < -{linalg.PSD_TOL:g}")
    return Povm(np.concatenate([chosen, residual[None]]))


def overlap_matrix(elements) -> np.ndarray:
    """The symmetric m x m matrix of Hilbert-Schmidt overlaps Tr(E_i E_j).

    The elements are symmetrized as one `element_stack`, and one product of their
    flattened rows with the conjugates gives every Tr(E_i E_j†) = Tr(E_i E_j);
    one check rejects an imaginary residue beyond
    1e-12 * max(1, n^2 max|E_i| max|E_j|) for the pair (i, j).
    The product's rounding differs between (i, j) and (j, i), so the real part
    is averaged with its transpose.
    """
    mats = linalg.symmetrize(element_stack(elements))
    rows = mats.reshape(mats.shape[0], -1)
    z = rows @ rows.conj().T
    peaks = np.abs(rows).max(axis=1)
    bound = 1e-12 * np.maximum(1.0, np.outer(peaks, peaks) * rows.shape[1])
    if (np.abs(z.imag) > bound).any():
        raise ContractViolation(f"trace pairing has imaginary residue {np.abs(z.imag).max():g}")
    return (z.real + z.real.T) / 2.0


def metrics(P: Povm, evals=None, overlap=None) -> PovmMetrics:
    """The rank-one and symmetry diagnostics of a measurement.

    sigma sums the second largest eigenvalue of each element (clamped at 0 so
    PSD rounding noise cannot push it negative), from the descending spectra
    `evals` of the element stack.  delta and Delta are sums of squared
    deviations of the self- and cross-overlaps Tr(E_i E_j) from their
    arithmetic means, cross terms over ordered pairs i != j (Delta is 0.0 for
    a one-element measurement, which has no pair), read off the leading
    m x m block of `overlap`.  A caller that already has them (the
    conditional-SIC report) passes `linalg.spectra(P.elements)` and an
    overlap matrix of the elements followed by other operators; otherwise
    they are computed here, with `overlap_matrix(P.elements)`.
    """
    m = P.m
    if evals is None:
        evals = linalg.spectra(P.elements)
    if overlap is None:
        overlap = overlap_matrix(P.elements)
    sig = float(np.maximum(evals[:, 1], 0.0).sum())
    block = overlap[:m, :m]
    selfs = np.diag(block)
    delta = float(np.sum((selfs - selfs.mean()) ** 2))
    cross = block[~np.eye(m, dtype=bool)]
    big_delta = float(np.sum((cross - cross.mean()) ** 2)) if cross.size else 0.0
    return PovmMetrics(sig, delta, big_delta)


@dataclass(frozen=True)
class Violation:
    name: str
    magnitude: float
    detail: str


def validate(P: Povm, tol: float = COMPLETENESS_TOL):
    """Return a list of named invariant violations (empty iff P is valid at tol).

    One pass over the stack: a finiteness mask, each element's deviation
    max |E - E†|, one `linalg.spectra` of the Hermitian parts of the elements
    that pass both and one sum of them.  Violations come in element order,
    non-finite and asymmetric elements first, then non-positive ones, then
    completeness; an asymmetry within tol is tolerated, not raised.
    """
    E = P.elements
    adjoint = E.conj().swapaxes(1, 2)
    finite = np.isfinite(E).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite element
        herm = np.abs(E - adjoint).max(axis=(1, 2))
    ok = finite & (herm <= tol)
    out = []
    for i in np.flatnonzero(~ok).tolist():
        if not finite[i]:
            out.append(Violation("finite", math.inf, f"element {i} has non-finite entries"))
        else:
            out.append(Violation("hermiticity", float(herm[i]), f"element {i}"))
    checked = E[ok]
    lows = linalg.spectra((checked + adjoint[ok]) / 2.0)[:, -1]
    for i, lo in zip(np.flatnonzero(ok).tolist(), lows.tolist()):
        if lo < -tol:
            out.append(Violation("positivity", -lo, f"element {i} min eigenvalue {lo:.3e}"))
    comp = float(np.abs(checked.sum(axis=0) - np.eye(P.dim)).max())
    if comp > tol:
        out.append(Violation("completeness", comp, f"max |sum E - I| = {comp:.3e}"))
    return out


def write_povm(P: Povm, path) -> None:
    """Text format: line 1 `n m`; then n rows per element, entries `re im` joined by `;`."""
    lines = [f"{P.dim} {P.m}"]
    for row in P.elements.reshape(-1, P.dim).tolist():
        lines.append(";".join(f"{z.real!r} {z.imag!r}" for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_povm(path) -> Povm:
    """Parse the text format written by :func:`write_povm`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ContractViolation("empty POVM file")
    head = lines[0].split()
    if len(head) != 2:
        raise ContractViolation(f"bad header line {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ContractViolation(f"bad header line {lines[0]!r}") from exc
    if n < 1 or m < 1:
        raise ContractViolation(f"header {lines[0]!r} needs n >= 1 and m >= 1")
    if len(lines) != 1 + n * m:
        raise ContractViolation(f"expected {1 + n * m} lines, found {len(lines)}")
    rows = np.zeros((m * n, n), dtype=complex)  # element k's row r is row k * n + r
    for r, line in enumerate(lines[1:]):
        cells = line.split(";")
        if len(cells) != n:
            raise ContractViolation(f"row {r + 2} has {len(cells)} entries, expected {n}")
        for c, cell in enumerate(cells):
            try:
                re_s, im_s = cell.split()
                real, imag = float(re_s), float(im_s)
            except ValueError as exc:
                raise ContractViolation(f"row {r + 2}: cell {cell!r} is not `re im`") from exc
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise ContractViolation(f"row {r + 2}: cell {cell!r} is not finite")
            rows[r, c] = real + 1j * imag
    return Povm(rows.reshape(m, n, n))

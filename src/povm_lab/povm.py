"""POVM representation, completeness closure, validity checks and diagnostics.

Elements are carried both as matrices and, where available, in the coordinate
form E = a0 (I + a . sigma) with `a` expanded in the orthonormal basis of
:mod:`povm_lab.basis`.  The diagnostics sigma/delta/Delta track rank-one-ness
and overlap symmetry of a candidate measurement during optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .basis import OrthonormalBasis
from .errors import ClosureNotPositive, ContractViolation

PSD_CONSTRUCTION_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
A0_FLOOR = 1e-12


@dataclass(frozen=True)
class PovmElementCoords:
    """Coordinate form of one element: E = a0 (I + a . sigma)."""

    a0: float
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if not (math.isfinite(self.a0) and self.a0 >= 0):
            raise ContractViolation(f"a0 must be finite and nonnegative, got {self.a0}")
        if not np.all(np.isfinite(self.a)):
            raise ContractViolation("coordinate vector has non-finite entries")


@dataclass
class Povm:
    """m PSD elements summing to identity; m = N + 1 for an N-unknown design."""

    dim: int
    elements: list
    coords: Optional[list] = None

    @property
    def m(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class PovmMetrics:
    """sigma = sum of 2nd largest eigenvalues; delta/Delta = overlap variances."""

    sigma: float
    delta: float
    Delta: float


def coords_to_element(c: PovmElementCoords, basis: OrthonormalBasis) -> np.ndarray:
    """E = a0 (I + sum_i a_i sigma_i); Tr E = a0 * n."""
    if c.a.shape != (basis.dim**2 - 1,):
        raise ContractViolation(
            f"coordinate length {c.a.shape} does not match basis dim {basis.dim}"
        )
    e = expand(c.a, basis.stack)
    e += np.eye(basis.dim)
    return c.a0 * e


def expand(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i a_i stack_i for one real coordinate vector and a (k, n, n) stack.

    The same `dot` that `np.tensordot(a, stack, axes=1)` makes, without its
    axis bookkeeping, so the result is bit-identical to it.
    """
    k, n, _ = stack.shape
    return np.dot(a.reshape(1, k), stack.reshape(k, n * n)).reshape(n, n)


def element_coords(E, basis: OrthonormalBasis) -> PovmElementCoords:
    """Recover (a0, a) from a matrix element: a0 = Tr E / n, a_i = <E, sigma_i>/a0."""
    E = linalg.symmetrize(E)
    a0 = E.trace().real / basis.dim
    if a0 <= A0_FLOOR:
        raise ContractViolation(f"element has a0 = {a0:g}; coordinate form undefined")
    a = np.real(np.einsum("aij,ji->a", basis.stack, E)) / a0
    return PovmElementCoords(a0, a)


def complete_povm(first_elements, coords=None) -> Povm:
    """Append E_m = I - sum of the given elements; fails if it is not PSD."""
    if len(first_elements) < 1:
        raise ContractViolation("need at least one element to complete")
    dim = first_elements[0].shape[0]
    residual = np.eye(dim, dtype=complex)
    for e in first_elements:
        if e.shape != (dim, dim):
            raise ContractViolation("mixed element dimensions")
        residual = residual - e
    residual = (residual + residual.conj().T) / 2.0
    lo = linalg.min_eigenvalue_trusted(residual)
    if lo < -PSD_CONSTRUCTION_TOL:
        raise ClosureNotPositive(
            f"closure element has eigenvalue {lo:.3e} < -{PSD_CONSTRUCTION_TOL:g}"
        )
    return Povm(dim, list(first_elements) + [residual], coords)


def overlap_matrix(elements) -> np.ndarray:
    """The symmetric m x m matrix of Hilbert-Schmidt overlaps Tr(E_i E_j)."""
    m = len(elements)
    overlap = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            overlap[i, j] = overlap[j, i] = linalg.hs_inner(elements[i], elements[j])
    return overlap


def metrics(P: Povm) -> PovmMetrics:
    """The rank-one and symmetry diagnostics of a measurement.

    sigma sums the second largest eigenvalue of each element (clamped at 0 so
    PSD rounding noise cannot push it negative).  delta and Delta are sums of
    squared deviations of the self- and cross-overlaps Tr(E_i E_j) from their
    arithmetic means, cross terms over ordered pairs i != j.
    """
    sig = 0.0
    for e in P.elements:
        evals = linalg.hermitian_eigenvalues(e)
        sig += max(float(evals[1]), 0.0)
    m = P.m
    overlap = overlap_matrix(P.elements)
    selfs = np.diag(overlap)
    delta = float(np.sum((selfs - selfs.mean()) ** 2))
    mask = ~np.eye(m, dtype=bool)
    cross = overlap[mask]
    big_delta = float(np.sum((cross - cross.mean()) ** 2))
    return PovmMetrics(sig, delta, big_delta)


@dataclass(frozen=True)
class Violation:
    name: str
    magnitude: float
    detail: str


def validate(P: Povm, tol: float = COMPLETENESS_TOL):
    """Return a list of named invariant violations (empty iff P is valid at tol)."""
    out = []
    total = np.zeros((P.dim, P.dim), dtype=complex)
    for i, e in enumerate(P.elements):
        if e.shape != (P.dim, P.dim):
            out.append(Violation("shape", 0.0, f"element {i} has shape {e.shape}"))
            continue
        if not np.all(np.isfinite(e)):
            out.append(Violation("finite", math.inf, f"element {i} has non-finite entries"))
            continue
        herm = float(np.abs(e - e.conj().T).max())
        if herm > tol:
            out.append(Violation("hermiticity", herm, f"element {i}"))
            continue
        lo = linalg.min_eigenvalue(e)
        if lo < -tol:
            out.append(Violation("positivity", -lo, f"element {i} min eigenvalue {lo:.3e}"))
        total += e
    comp = float(np.abs(total - np.eye(P.dim)).max())
    if comp > tol:
        out.append(Violation("completeness", comp, f"max |sum E - I| = {comp:.3e}"))
    return out


def write_povm(P: Povm, path) -> None:
    """Text format: line 1 `n m`; then n rows per element, entries `re im` joined by `;`."""
    lines = [f"{P.dim} {P.m}"]
    for e in P.elements:
        for r in range(P.dim):
            lines.append(
                ";".join(
                    f"{float(e[r, c].real)!r} {float(e[r, c].imag)!r}" for c in range(P.dim)
                )
            )
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
    elements = []
    pos = 1
    for _ in range(m):
        e = np.zeros((n, n), dtype=complex)
        for r in range(n):
            cells = lines[pos].split(";")
            if len(cells) != n:
                raise ContractViolation(f"row {pos + 1} has {len(cells)} entries, expected {n}")
            for c, cell in enumerate(cells):
                try:
                    re_s, im_s = cell.split()
                    real, imag = float(re_s), float(im_s)
                except ValueError as exc:
                    raise ContractViolation(f"row {pos + 1}: cell {cell!r} is not `re im`") from exc
                if not (math.isfinite(real) and math.isfinite(imag)):
                    raise ContractViolation(f"row {pos + 1}: cell {cell!r} is not finite")
                e[r, c] = real + 1j * imag
            pos += 1
        elements.append(e)
    return Povm(n, elements)

"""Orthonormal Hermitian operator bases, Bloch-vector conversions and the parameter pattern.

The basis is the generalized Gell-Mann family for n = 2, 3 and the tensor
Pauli family {sigma_i (x) sigma_j / 2} for n = 4, scaled so that
Tr(sigma_i sigma_j) = delta_ij.  States expand as rho = I/n + theta . sigma
with theta the generalized Bloch vector.

Index map (1-based, used by configs and the CLI `gridinfo` echo):

  n = 2, 3: symmetric off-diagonal generators first, lexicographic by
  (row, col), then antisymmetric in the same order, then diagonal.
      n=2:  1 sym(1,2)=x  2 asym(1,2)=y  3 diag(1)=z   (each Pauli/sqrt(2))
      n=3:  1..3 sym(1,2),(1,3),(2,3); 4..6 asym same order;
            7 diag(1,-1,0)/sqrt(2); 8 diag(1,1,-2)/sqrt(6)
  n = 4: pauli(i,j) = sigma_i (x) sigma_j / 2 in (i,j) lexicographic order
  skipping (0,0), so index = 4*i + j.

The generators are one read-only (n^2-1, n, n) array, filled by one formula
per family and built once per process: every caller (the grid, the anneal,
refine's diagonal check, the report's known directions) gets the one cached
`gell_mann_basis(n)`, whose derived arrays are read-only too.  `stack` stays a
property returning that array so that wrapping its getter counts its reads.

A `ParameterPattern` states the whole problem, a dimension and the known
indices with their values; it determines its unknowns and its basis, so a
function given a pattern takes no basis and reads `gell_mann_basis(pattern.dim)`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ContractViolation

# sigma_0 = I, sigma_x, sigma_y, sigma_z
PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def _upper_pairs(n: int) -> list:
    """The (row, col) pairs above the diagonal of an n x n matrix, row-major."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Traceless orthonormal generators sigma_1..sigma_{n^2-1} as one read-only
    (n^2-1, n, n) complex array; `dim` is read off its shape.

    `entry_map` is the (n^2, n^2-1) real map from coordinates a to the entries
    of a . sigma that `linalg.psd_verdict` reads: the n diagonals, then Re and
    then Im of the upper off-diagonal entries (row-major).  `identity` is the
    (n, n) real identity.  Both are built once and read-only.
    `diagonal_indices` holds the 1-based indices of the diagonal generators,
    those with no off-diagonal entry, read off `entry_map` once.
    """

    elements: np.ndarray
    labels: tuple

    dim: int = field(init=False)
    entry_map: np.ndarray = field(init=False, repr=False)
    identity: np.ndarray = field(init=False, repr=False)
    diagonal_indices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        elements = np.asarray(self.elements, dtype=complex)
        n = elements.shape[-1] if elements.ndim == 3 else 0
        if elements.shape != (n * n - 1, n, n):
            raise ContractViolation(
                f"basis elements have shape {elements.shape}, expected (n^2 - 1, n, n)"
            )
        # column r of the flattened generators is entry r of every a . sigma;
        # the diagonal entries sit every n + 1 places
        rows = elements.reshape(n * n - 1, n * n).T
        off = rows[[j * n + k for j, k in _upper_pairs(n)]]
        entry_map = np.concatenate([rows[:: n + 1].real, off.real, off.imag])
        identity = np.eye(n)
        for array in (elements, entry_map, identity):
            array.setflags(write=False)
        diagonal = tuple((np.flatnonzero(~entry_map[n:].any(axis=0)) + 1).tolist())
        built = {"elements": elements, "dim": n, "entry_map": entry_map, "identity": identity}
        built["diagonal_indices"] = diagonal
        for name, value in built.items():
            object.__setattr__(self, name, value)

    @property
    def stack(self) -> np.ndarray:
        """The (n^2-1, n, n) read-only generator array, `elements`."""
        return self.elements

    def expand(self, a) -> np.ndarray:
        """a . sigma for real coordinate rows a of shape (..., n^2-1), as an
        (..., n, n) array: one product of the rows with the flattened
        generators, so a row gives the same bits alone or stacked."""
        a = np.asarray(a, dtype=float)
        n = self.dim
        rows = a.reshape(-1, n * n - 1) @ self.elements.reshape(n * n - 1, n * n)
        return rows.reshape(a.shape[:-1] + (n, n))


@functools.lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> OrthonormalBasis:
    """Orthonormal Hermitian basis for dimension n in {2, 3, 4}, built on the
    first call for n; later calls return that same read-only object.  An
    unsupported n raises on every call (a raise is not cached)."""
    if n in (2, 3):
        pairs = _upper_pairs(n)
        k = len(pairs)
        p, q = [j for j, _ in pairs], [l for _, l in pairs]
        sym, asym = list(range(k)), list(range(k, 2 * k))
        elements = np.zeros((n * n - 1, n, n), dtype=complex)
        elements[sym, p, q] = elements[sym, q, p] = 1 / np.sqrt(2)
        elements[asym, p, q] = -1j / np.sqrt(2)
        elements[asym, q, p] = 1j / np.sqrt(2)
        # diag(l): 1 on the first l diagonal entries and -l on entry l, over sqrt(l (l + 1))
        levels = np.arange(1, n)
        diagonal = np.array([[1.0] * l + [-l] + [0.0] * (n - 1 - l) for l in range(1, n)])
        scale = np.sqrt(levels * (levels + 1))[:, None]
        elements[2 * k :, range(n), range(n)] = diagonal.astype(complex) / scale
        labels = [f"{kind}({j + 1},{l + 1})" for kind in ("sym", "asym") for j, l in pairs]
        labels += [f"diag({l})" for l in range(1, n)]
    elif n == 4:
        elements = (PAULI[:, None, :, None, :, None] * PAULI[None, :, None, :, None, :]).reshape(
            16, 4, 4
        )[1:] / 2.0
        labels = [f"pauli({i},{j})" for i in range(4) for j in range(4)][1:]
    else:
        raise ContractViolation(f"unsupported dimension {n}; expected 2, 3 or 4")
    return OrthonormalBasis(elements, tuple(labels))


def bloch_radius_bound(n: int) -> float:
    """sqrt((n-1)/n), the Bloch norm of a pure state: the half-width of the
    state grid on every unknown axis."""
    return float(np.sqrt((n - 1) / n))


def bloch_to_state(theta, basis: OrthonormalBasis) -> np.ndarray:
    """rho = I/n + theta . sigma for each row of a (..., n^2-1) stack, from one
    `expand`: a row gives the same bits alone or stacked.  Positivity is not enforced."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (basis.dim**2 - 1,):
        raise ContractViolation(
            f"theta has shape {theta.shape}, expected (..., {basis.dim**2 - 1})"
        )
    rho = basis.expand(theta)
    rho += np.eye(basis.dim) / basis.dim
    return rho


@dataclass(frozen=True)
class ParameterPattern:
    """The problem: a dimension and the basis indices (1-based) whose values
    are known, paired with those values and sorted by index.

    The unknowns are every other index in 1..n^2-1, in increasing order, and
    the basis is `gell_mann_basis(dim)`, so a function given a pattern needs
    neither.  `unknown_positions` and `known_positions` are the indices
    0-based, as read-only index arrays built once.  Patterns compare and hash
    by (dim, known_indices, known_values).
    """

    dim: int
    known_indices: tuple = ()
    known_values: tuple = ()

    unknown_indices: tuple = field(init=False, compare=False)
    unknown_positions: np.ndarray = field(init=False, repr=False, compare=False)
    known_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = self.dim**2 - 1
        if len(self.known_values) != len(self.known_indices):
            raise ContractViolation("known_values must align with known_indices")
        pairs = sorted(zip(self.known_indices, self.known_values), key=lambda p: p[0])
        known = tuple(int(i) for i, _ in pairs)
        values = tuple(float(v) for _, v in pairs)
        unknown = tuple(i for i in range(1, total + 1) if i not in known)
        if len(unknown) < 1:
            raise ContractViolation("at least one unknown parameter is required")
        if sorted(unknown + known) != list(range(1, total + 1)):
            raise ContractViolation(
                f"unknown {unknown} and known {known} must partition 1..{total}"
            )
        if not all(math.isfinite(v) for v in values):
            raise ContractViolation("known_values must be finite")
        derived = {"known_indices": known, "known_values": values, "unknown_indices": unknown}
        for name, indices in (("unknown_positions", unknown), ("known_positions", known)):
            positions = np.array(indices, dtype=np.intp) - 1
            positions.setflags(write=False)
            derived[name] = positions
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def unknown_count(self) -> int:
        return len(self.unknown_indices)

    @classmethod
    def from_known(cls, dim: int, known: Mapping[int, float]) -> "ParameterPattern":
        return cls(dim, tuple(known), tuple(known.values()))


def assemble_full_vector(pattern: ParameterPattern, unknown_coords) -> np.ndarray:
    """Insert known values into their slots around the unknown coordinates."""
    u = np.asarray(unknown_coords, dtype=float)
    if u.shape != (pattern.unknown_count,):
        raise ContractViolation(
            f"unknown coords have shape {u.shape}, expected ({pattern.unknown_count},)"
        )
    full = np.empty(pattern.dim**2 - 1)
    full[pattern.unknown_positions] = u
    full[pattern.known_positions] = pattern.known_values
    return full

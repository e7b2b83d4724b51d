"""Orthonormal Hermitian operator bases and Bloch-vector conversions.

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

`gell_mann_basis` builds each dimension's basis once per process and hands
every caller (the anneal's setup, refine's diagonal check, the certification
report's known directions) that one object; every array it exposes is
read-only, so no caller can change what the others read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import linalg
from .errors import ContractViolation

PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class OrthonormalBasis:
    """Traceless orthonormal generators sigma_1..sigma_{n^2-1}; the element
    arrays are made read-only, like every array derived from them."""

    dim: int
    elements: tuple
    labels: tuple

    _stack: np.ndarray = field(init=False, repr=False, compare=False)
    _entry_map: np.ndarray = field(init=False, repr=False, compare=False)
    _flat_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _identity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.elements) != self.dim**2 - 1:
            raise ContractViolation("basis must have n^2 - 1 traceless elements")
        for e in self.elements:
            e.setflags(write=False)
        stack = np.stack(self.elements)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        n = self.dim
        object.__setattr__(self, "_flat_stack", stack.reshape(stack.shape[0], n * n))
        p, q = np.triu_indices(n, 1)
        off = stack[:, p, q]
        diagonal = stack[:, range(n), range(n)].real
        entry_map = np.ascontiguousarray(np.concatenate([diagonal, off.real, off.imag], axis=1).T)
        entry_map.setflags(write=False)
        object.__setattr__(self, "_entry_map", entry_map)
        identity = np.eye(n)
        identity.setflags(write=False)
        object.__setattr__(self, "_identity", identity)

    @property
    def stack(self) -> np.ndarray:
        """(n^2-1, n, n) read-only array of the traceless elements, built once."""
        return self._stack

    @property
    def entry_map(self) -> np.ndarray:
        """(n^2, n^2-1) read-only real map from coordinates a to the entries
        of a . sigma that `linalg.psd_verdict` reads: the n diagonals, then Re
        and then Im of the upper off-diagonal entries (row-major); built once."""
        return self._entry_map

    @property
    def identity(self) -> np.ndarray:
        """(n, n) read-only real identity, built once."""
        return self._identity

    def expand(self, a) -> np.ndarray:
        """a . sigma for real coordinate rows a of shape (..., n^2-1), as an
        (..., n, n) array: one product of the rows with the flattened
        generators, so a row gives the same bits alone or stacked."""
        a = np.asarray(a, dtype=float)
        n = self.dim
        rows = a.reshape(-1, n * n - 1) @ self._flat_stack
        return rows.reshape(a.shape[:-1] + (n, n))

    def element(self, index: int) -> np.ndarray:
        """sigma_index for a 1-based basis index."""
        if not 1 <= index <= len(self.elements):
            raise ContractViolation(f"basis index {index} out of range")
        return self.elements[index - 1]


@functools.lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> OrthonormalBasis:
    """Orthonormal Hermitian basis for dimension n in {2, 3, 4}, built on the
    first call for n; later calls return that same read-only object.  An
    unsupported n raises on every call (a raise is not cached)."""
    if n in (2, 3):
        elems = []
        labels = []
        for j in range(n - 1):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = m[k, j] = 1 / np.sqrt(2)
                elems.append(m)
                labels.append(f"sym({j + 1},{k + 1})")
        for j in range(n - 1):
            for k in range(j + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[j, k] = -1j / np.sqrt(2)
                m[k, j] = 1j / np.sqrt(2)
                elems.append(m)
                labels.append(f"asym({j + 1},{k + 1})")
        for l in range(1, n):
            d = np.zeros(n)
            d[:l] = 1.0
            d[l] = -l
            elems.append(np.diag(d).astype(complex) / np.sqrt(l * (l + 1)))
            labels.append(f"diag({l})")
    elif n == 4:
        elems = []
        labels = []
        for i in range(4):
            for j in range(4):
                if i == j == 0:
                    continue
                elems.append(np.kron(PAULI[i], PAULI[j]) / 2.0)
                labels.append(f"pauli({i},{j})")
    else:
        raise ContractViolation(f"unsupported dimension {n}; expected 2, 3 or 4")
    return OrthonormalBasis(n, tuple(elems), tuple(labels))


def bloch_radius_bound(n: int) -> float:
    """Per-axis half-width sqrt((n-1)/n): the pure-state norm bound."""
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


def state_to_bloch(rho, basis: OrthonormalBasis) -> np.ndarray:
    """Coordinates theta_i = Tr(rho sigma_i); requires unit trace."""
    rho = linalg.symmetrize(rho)
    tr = rho.trace().real
    if abs(tr - 1.0) > 1e-9:
        raise ContractViolation(f"state trace {tr:.12g} is not 1")
    coords = np.einsum("aij,ji->a", basis.stack, rho)
    return np.real(coords).copy()


@dataclass(frozen=True)
class ParameterPattern:
    """Split of the basis indices (1-based) into unknown and known-with-value.

    `unknown_positions` and `known_positions` are the same indices 0-based, as
    read-only index arrays built once.
    """

    dim: int
    unknown_indices: tuple
    known_indices: tuple = ()
    known_values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    unknown_positions: np.ndarray = field(init=False, repr=False, compare=False)
    known_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = self.dim**2 - 1
        unknown = tuple(int(i) for i in self.unknown_indices)
        known = tuple(int(i) for i in self.known_indices)
        object.__setattr__(self, "unknown_indices", unknown)
        object.__setattr__(self, "known_indices", known)
        object.__setattr__(
            self, "known_values", np.asarray(self.known_values, dtype=float)
        )
        if len(unknown) < 1:
            raise ContractViolation("at least one unknown parameter is required")
        if sorted(unknown + known) != list(range(1, total + 1)):
            raise ContractViolation(
                f"unknown {unknown} and known {known} must partition 1..{total}"
            )
        if self.known_values.shape != (len(known),):
            raise ContractViolation("known_values must align with known_indices")
        if not np.all(np.isfinite(self.known_values)):
            raise ContractViolation("known_values must be finite")
        for name, indices in (("unknown_positions", unknown), ("known_positions", known)):
            positions = np.array(indices, dtype=np.intp) - 1
            positions.setflags(write=False)
            object.__setattr__(self, name, positions)

    @property
    def unknown_count(self) -> int:
        return len(self.unknown_indices)

    @classmethod
    def from_known(cls, dim: int, known: Mapping[int, float]) -> "ParameterPattern":
        known_idx = tuple(sorted(known))
        unknown = tuple(
            i for i in range(1, dim**2) if i not in set(known_idx)
        )
        values = np.array([known[i] for i in known_idx], dtype=float)
        return cls(dim, unknown, known_idx, values)


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

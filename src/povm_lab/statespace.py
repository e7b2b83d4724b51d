"""Finite-grid realization of the constrained state set and eigenvalue clustering.

The states compatible with the known parameters form a continuum; we place a
symmetric grid on the unknown coordinates, keep the positive semidefinite
points, and group them by which cell of a B-way partition of [0, 1] each
(descending) eigenvalue falls into.  One cluster stands in for a unitary
orbit of states with fixed spectrum, and the averaged covariance is a raw
(unnormalized) sum over its members.

Grid positivity and cluster keys come from numpy's stacked `eigvalsh`; the
scalar Jacobi solver in `linalg` stays the per-matrix path and the test oracle
for this batched one.  Only grid points inside the Bloch ball reach `eigvalsh`:
a state whose lowest eigenvalue is -t or more has |theta|^2 = Tr rho^2 - 1/n
<= (n-1)/n + 2(n-1)t + n(n-1)t^2, a slack that BALL_MARGIN covers at
t = GRID_PSD_TOL, and `eigvalsh` decides every point inside the ball.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import OrthonormalBasis, ParameterPattern, assemble_full_vector
from .errors import ConfigurationError, ContractViolation, EmptyClusterSelection

GRID_PSD_TOL = 1e-10
POINT_BUDGET = 10**7
GRID_BLOCK = 343  # grid points built and passed to eigvalsh per slice
BALL_MARGIN = 1e-9  # slack of the Bloch-ball prefilter beyond (n-1)/n

log = logging.getLogger("povm_lab")


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid: g points per unknown axis over [-bound, +bound]."""

    points_per_axis: int
    bound: float
    pattern: ParameterPattern

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ConfigurationError("points_per_axis must be >= 2")
        if not (self.bound > 0 and np.isfinite(self.bound)):
            raise ConfigurationError("bound must be positive and finite")
        if self.points_per_axis ** self.pattern.unknown_count > POINT_BUDGET:
            raise ConfigurationError(
                f"grid budget exceeded: {self.points_per_axis}^{self.pattern.unknown_count} "
                f"> {POINT_BUDGET}"
            )


@dataclass(frozen=True)
class Cluster:
    """Grid states sharing an eigenvalue cell signature."""

    key: tuple
    members: np.ndarray  # (k, n^2 - 1) full Bloch vectors
    cell_count: int

    @property
    def size(self) -> int:
        return self.members.shape[0]


def _spectra(thetas: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Descending eigenvalues of rho = I/n + theta . sigma for each row of thetas.

    One stacked `eigvalsh` per GRID_BLOCK rows, on the Hermitian average
    (A + A†)/2 that `linalg.symmetrize` forms for a single matrix.
    """
    out = np.empty((thetas.shape[0], basis.dim))
    for lo in range(0, thetas.shape[0], GRID_BLOCK):
        rho = np.tensordot(thetas[lo : lo + GRID_BLOCK], basis.stack, axes=1)
        rho += np.eye(basis.dim) / basis.dim
        rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
        out[lo : lo + GRID_BLOCK] = np.linalg.eigvalsh(rho)[:, ::-1]
    return out


def eigenvalue_cells(evals: np.ndarray, cells: int) -> np.ndarray:
    """Cell indices floor(lambda * B) of descending eigenvalue rows, clamped to [0, B-1]."""
    return np.clip(np.floor(evals * cells), 0, cells - 1).astype(int)


def generate_grid(spec: GridSpec, basis: OrthonormalBasis) -> np.ndarray:
    """All PSD grid states as rows of full Bloch vectors, in axis-lexicographic order.

    The grid grows one unknown axis at a time as flat grid indices with their
    running sums of squares; a prefix whose sum already leaves the Bloch ball
    (beyond BALL_MARGIN) is dropped with all of its completions, since a float
    sum of squares never decreases as terms are added.  The points that remain
    are built and tested GRID_BLOCK at a time, so memory stays bounded.
    """
    pattern = spec.pattern
    g = spec.points_per_axis
    axis = np.linspace(-spec.bound, spec.bound, g)
    template = np.zeros(basis.dim**2 - 1)
    template[[i - 1 for i in pattern.known_indices]] = pattern.known_values
    room = (basis.dim - 1) / basis.dim - template @ template + BALL_MARGIN
    index, norm = np.zeros(1, dtype=np.int64), np.zeros(1)
    for _ in range(pattern.unknown_count):
        index = (index[:, None] * g + np.arange(g)).ravel()
        norm = (norm[:, None] + axis**2).ravel()
        inside = norm <= room
        index, norm = index[inside], norm[inside]
    unknown_pos = [i - 1 for i in pattern.unknown_indices]
    kept = [np.empty((0, template.size))]
    for lo in range(0, index.size, GRID_BLOCK):
        digits = np.unravel_index(index[lo : lo + GRID_BLOCK], (g,) * pattern.unknown_count)
        block = np.tile(template, (digits[0].size, 1))
        block[:, unknown_pos] = axis[np.stack(digits, axis=1)]
        kept.append(block[_spectra(block, basis)[:, -1] >= -GRID_PSD_TOL])
    states = np.concatenate(kept)
    log.info(
        "grid: %d PSD states of %d points (%d inside the Bloch ball)",
        states.shape[0], g**pattern.unknown_count, index.size,
    )
    return states


def cluster_states(states, cells: int, basis: OrthonormalBasis) -> dict:
    """Partition Bloch vectors into clusters keyed by their eigenvalue cells.

    Clusters appear in the order of their first member and keep their members
    in input order.
    """
    if cells < 1:
        raise ContractViolation("cells must be >= 1")
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != basis.dim**2 - 1:
        raise ContractViolation(
            f"states have shape {states.shape}, expected (k, {basis.dim**2 - 1})"
        )
    if not np.all(np.isfinite(states)):
        raise ContractViolation("states have non-finite entries")
    keys = eigenvalue_cells(_spectra(states, basis), cells)
    groups: dict = {}
    for row, key in enumerate(map(tuple, keys.tolist())):
        groups.setdefault(key, []).append(row)
    return {key: Cluster(key, states[rows], cells) for key, rows in groups.items()}


def select_cluster(
    clusters: dict,
    policy: str = "largest",
    theta_ref=None,
    basis: OrthonormalBasis | None = None,
    pattern: ParameterPattern | None = None,
) -> Cluster:
    """Pick the cluster to average over.

    `reference` maps theta_ref (unknown coordinates; knowns filled from the
    pattern) to its eigenvalue cell key and selects that cluster.  `largest`
    takes the biggest cluster, ties broken by lexicographically smallest key.
    """
    if not clusters:
        raise EmptyClusterSelection("no clusters to select from")
    if policy == "largest":
        return min(clusters.values(), key=lambda c: (-c.size, c.key))
    if policy == "reference":
        if theta_ref is None or basis is None or pattern is None:
            raise ConfigurationError("reference policy needs theta_ref, basis and pattern")
        cells = next(iter(clusters.values())).cell_count
        full = assemble_full_vector(pattern, theta_ref)
        key = tuple(eigenvalue_cells(_spectra(full[None], basis), cells)[0].tolist())
        if key not in clusters:
            raise EmptyClusterSelection(f"no cluster with key {key}")
        return clusters[key]
    raise ConfigurationError(f"unknown cluster policy {policy!r}")

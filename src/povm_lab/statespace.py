"""Finite-grid realization of the constrained state set and eigenvalue clustering.

The states compatible with the known parameters form a continuum; we place a
symmetric grid on the unknown coordinates, keep the positive semidefinite
points, and group them by which cell of a B-way partition of [0, 1] each
(descending) eigenvalue falls into.  One cluster stands in for a unitary
orbit of states with fixed spectrum, and the averaged covariance is a raw
(unnormalized) sum over its members.

Only grid points inside the Bloch ball are tested for positivity: a state
whose lowest eigenvalue is -t or more has |theta|^2 = Tr rho^2 - 1/n
<= (n-1)/n + 2(n-1)t + n(n-1)t^2, a slack that BALL_MARGIN covers at
t = GRID_PSD_TOL.  The closed-form test of `linalg.psd_verdict`, the one the
anneal uses, decides the points inside the ball; the stacked `linalg.spectra`
decides only those in its thin band around the tolerance, which for n = 4 is
every point.  Cluster keys come from the same stacked `linalg.spectra` of
`basis.bloch_to_state`'s states, whose tests keep the scalar Jacobi solver in
`linalg` as their oracle.  Both passes take GRID_BLOCK points at a time, so
memory stays bounded whatever the grid's size.  An eigenvalue within
CELL_EDGE_TOL of a cell edge k/B is in cell k, so last-bit rounding does not
split the states of one spectrum (on the 11-point qubit grid an eigenvalue 0.4
computes as 0.39999999999999997, just below the edge 4/10).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import (
    OrthonormalBasis,
    ParameterPattern,
    assemble_full_vector,
    bloch_to_state,
    gell_mann_basis,
)
from .errors import ConfigurationError, ContractViolation, EmptyClusterSelection

GRID_PSD_TOL = 1e-10
POINT_BUDGET = 10**7
GRID_BLOCK = 4096  # points built, tested or keyed per block (about 4 MB of work arrays at n = 4)
BALL_MARGIN = 1e-9  # slack of the Bloch-ball prefilter beyond (n-1)/n
CELL_EDGE_TOL = 1e-10  # an eigenvalue this close to a cell edge k/B is in cell k

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


@dataclass(frozen=True, eq=False)
class Cluster:
    """Grid states sharing an eigenvalue cell signature; compared by identity."""

    key: tuple
    members: np.ndarray  # (k, n^2 - 1) full Bloch vectors
    cell_count: int

    @property
    def size(self) -> int:
        return self.members.shape[0]


def _psd_rows(thetas: np.ndarray, basis: OrthonormalBasis) -> tuple[np.ndarray, int]:
    """(mask, count): which rows give lambda_min(I/n + theta . sigma) >=
    -GRID_PSD_TOL, and how many of them `eigvalsh` decided.

    `linalg.psd_verdict` decides each row in closed form from rho's entries;
    only the rows in its band go to `linalg.spectra`.  Outside the band the
    two tests agree, so the mask is `linalg.spectra`'s own verdict bit for bit.
    """
    entries = basis.entry_map @ thetas.T
    entries[: basis.dim] += 1.0 / basis.dim
    keep, no = linalg.psd_verdict(entries, basis.dim, GRID_PSD_TOL)
    band = np.flatnonzero(~(keep | no))
    keep[band] = linalg.spectra(bloch_to_state(thetas[band], basis))[:, -1] >= -GRID_PSD_TOL
    return keep, band.size


def eigenvalue_cells(evals: np.ndarray, cells: int) -> np.ndarray:
    """Cell indices floor(lambda * B) of descending eigenvalues, clamped to
    [0, B-1]; a lambda within CELL_EDGE_TOL of an edge k/B is in cell k."""
    scaled = evals * cells
    edge = np.rint(scaled)
    scaled = np.where(np.abs(scaled - edge) <= CELL_EDGE_TOL * cells, edge, scaled)
    return np.clip(np.floor(scaled), 0, cells - 1).astype(int)


def generate_grid(spec: GridSpec) -> np.ndarray:
    """All PSD grid states of the spec's pattern as rows of full Bloch vectors,
    in axis-lexicographic order.

    The grid grows one unknown axis at a time as flat grid indices with their
    running sums of squares; a prefix whose sum already leaves the Bloch ball
    (beyond BALL_MARGIN) is dropped with all of its completions, since a float
    sum of squares never decreases as terms are added.  The points that remain
    are built GRID_BLOCK at a time, so memory stays bounded, and `_psd_rows`
    keeps the PSD ones.
    """
    pattern = spec.pattern
    basis = gell_mann_basis(pattern.dim)
    g = spec.points_per_axis
    axis = np.linspace(-spec.bound, spec.bound, g)
    template = np.zeros(basis.dim**2 - 1)
    template[pattern.known_positions] = pattern.known_values
    room = (basis.dim - 1) / basis.dim - template @ template + BALL_MARGIN
    # a square past the float range is inf, which leaves the ball as it should
    with np.errstate(over="ignore"):
        squares = axis**2
    index, norm = np.zeros(1, dtype=np.int64), np.zeros(1)
    for _ in range(pattern.unknown_count):
        index = (index[:, None] * g + np.arange(g)).ravel()
        norm = (norm[:, None] + squares).ravel()
        inside = norm <= room
        index, norm = index[inside], norm[inside]
    kept = [np.empty((0, template.size))]
    by_eigvalsh = 0
    for lo in range(0, index.size, GRID_BLOCK):
        digits = np.unravel_index(index[lo : lo + GRID_BLOCK], (g,) * pattern.unknown_count)
        block = np.tile(template, (digits[0].size, 1))
        block[:, pattern.unknown_positions] = axis[np.stack(digits, axis=1)]
        psd, decided = _psd_rows(block, basis)
        kept.append(block[psd])
        by_eigvalsh += decided
    states = np.concatenate(kept)
    log.info(
        "grid: %d PSD states of %d points (%d inside the Bloch ball, %d decided by eigvalsh)",
        states.shape[0], g**pattern.unknown_count, index.size, by_eigvalsh,
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
    keys = np.empty((states.shape[0], basis.dim), dtype=int)
    for lo in range(0, states.shape[0], GRID_BLOCK):
        rho = bloch_to_state(states[lo : lo + GRID_BLOCK], basis)
        keys[lo : lo + GRID_BLOCK] = eigenvalue_cells(linalg.spectra(rho), cells)
    groups: dict = {}
    for row, key in enumerate(map(tuple, keys.tolist())):
        groups.setdefault(key, []).append(row)
    return {key: Cluster(key, states[rows], cells) for key, rows in groups.items()}


def select_cluster(
    clusters: dict, theta_ref=None, pattern: ParameterPattern | None = None
) -> Cluster:
    """Pick the cluster to average over.

    Without theta_ref, the biggest cluster, ties broken by lexicographically
    smallest key.  With theta_ref (unknown coordinates; knowns filled from the
    pattern), the cluster of its eigenvalue cell key; a theta_ref whose rho has
    an eigenvalue below -GRID_PSD_TOL is a ConfigurationError.
    """
    if not clusters:
        raise EmptyClusterSelection("no clusters to select from")
    if theta_ref is None:
        return min(clusters.values(), key=lambda c: (-c.size, c.key))
    if pattern is None:
        raise ContractViolation("selecting by theta_ref needs the pattern")
    cells = next(iter(clusters.values())).cell_count
    theta = assemble_full_vector(pattern, theta_ref)
    evals = linalg.spectra(bloch_to_state(theta, gell_mann_basis(pattern.dim)))
    if evals[-1] < -GRID_PSD_TOL:
        raise ConfigurationError(
            f"theta_ref is not a state: rho has eigenvalue {evals[-1]:.6g} < -{GRID_PSD_TOL:g}"
        )
    key = tuple(eigenvalue_cells(evals, cells).tolist())
    if key not in clusters:
        raise EmptyClusterSelection(f"no cluster with key {key}")
    return clusters[key]

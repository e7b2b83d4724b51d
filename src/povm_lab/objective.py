"""Estimator pipeline and the determinant objective.

Outcome probabilities p_j = Tr(E_j rho) are affine in the Bloch coordinates,
p_j = x_j0 + theta . x_j for the `element_rows` row (x_j0, x_j) = (Tr E_j / n,
Tr(E_j sigma)), which the cluster sum exploits: the covariance of the first N
outcome frequencies is the multinomial W (repetition count set to 1; it only
rescales the objective), W0 sums W over the cluster members and the objective
is DACM = det(W0) / det(T)^2 for the design matrix T, whose rows are the
x_j restricted to the unknown directions.
Every table of outcome probabilities, one state's, a cluster's or an anneal
step's, passes the one check `check_simplex`.
Production determinants come from `slogdet`, judged by the one rule
`singular_design` (in `log_determinants`, shared with `annealer.score_variants`,
in `annealer.random_initial_povm` and in the linear-inversion estimate
`estimate_state`).  The objective is computed as
`log_dacm`, so it stays finite where DACM leaves the float range (an anneal
start drawn at a tiny scale); `dacm` is its exponential, and
`linalg.determinant`'s pivoted elimination remains as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ParameterPattern, gell_mann_basis
from .errors import ContractViolation, NonPositiveObjective, SingularDesign
from .povm import Povm, element_rows, overlap_matrix
from .statespace import Cluster

PROB_RANGE_TOL = 1e-10
PROB_SUM_TOL = 1e-9
# |det T| <= DESIGN_DET_FLOOR * max|T_ij|^N counts as singular
DESIGN_DET_FLOOR = 1e-12
LOG_DESIGN_DET_FLOOR = math.log(DESIGN_DET_FLOOR)


@dataclass(frozen=True)
class DesignMatrix:
    """Rows Tr(E_j sigma) of the first N elements over the unknown directions,
    plus the offsets a0_j = Tr E_j / n: for E_j = a0_j (I + a_j . sigma), the
    rows a0_j a_j restricted to the unknown indices."""

    T: np.ndarray
    a0s: np.ndarray


@dataclass(frozen=True)
class AveragedCovariance:
    W0: np.ndarray
    member_count: int


def outcome_probabilities(P: Povm, rho) -> np.ndarray:
    """p_j = Tr(E_j rho), the last row of one `overlap_matrix` of the elements
    and rho, passed through `check_simplex`."""
    p = overlap_matrix([*P.elements, rho])[-1, :-1]
    check_simplex(p[None], lambda i: "state")
    return p


def check_simplex(p: np.ndarray, name) -> None:
    """ContractViolation naming `name(i)` for the first row i of an (R, ..., m)
    table of outcome probabilities with an entry outside [0, 1] by more than
    PROB_RANGE_TOL or a sum over m off 1 by more than PROB_SUM_TOL, or a NaN."""
    axes = tuple(range(1, p.ndim))
    low, high = p.min(axis=axes), p.max(axis=axes)
    sum_dev = np.abs(p.sum(axis=-1) - 1.0).max(axis=axes[:-1])
    bad = np.flatnonzero(
        ~((low >= -PROB_RANGE_TOL) & (high <= 1 + PROB_RANGE_TOL) & (sum_dev <= PROB_SUM_TOL))
    )
    if bad.size:
        i = int(bad[0])
        raise ContractViolation(
            f"probability invariant violated for {name(i)}: "
            f"min {low[i]:.3e}, max {high[i]:.3e}, max |sum - 1| {sum_dev[i]:.3e}"
        )


def design_matrix(P: Povm, pattern: ParameterPattern) -> DesignMatrix:
    """Design matrix of a Povm, read off the `element_rows` of its first N elements."""
    X = element_rows(P.elements[: pattern.unknown_count], gell_mann_basis(pattern.dim))
    return DesignMatrix(X[:, 1 + pattern.unknown_positions], X[:, 0])


def averaged_covariance(P: Povm, cluster: Cluster, pattern: ParameterPattern) -> AveragedCovariance:
    """W0 = sum over cluster members of the multinomial covariance at that state."""
    members = cluster.members
    if members.shape[0] == 0:
        raise ContractViolation("cluster has no members")
    X = element_rows(P.elements, gell_mann_basis(pattern.dim))
    probs = X[:, 0] + members @ X[:, 1:].T  # (k, m)
    check_simplex(probs, lambda i: f"cluster member {i}")
    n_unknown = pattern.unknown_count
    head = probs[:, :n_unknown]
    W0 = np.diag(head.sum(axis=0)) - head.T @ head
    W0 = (W0 + W0.T) / 2.0
    return AveragedCovariance(W0, members.shape[0])


def singular_design(T: np.ndarray, log_abs_det) -> np.ndarray:
    """The one singularity rule for a (..., N, N) stack of design matrices T:
    singular where log |det T| <= log(DESIGN_DET_FLOOR) + N log max|T_ij|, a
    relative floor (1 added to an all-zero T's max keeps it finite)."""
    t_max = np.abs(T).max(axis=(-2, -1))
    floor = LOG_DESIGN_DET_FLOOR + T.shape[-1] * np.log(t_max + (t_max == 0.0))
    return log_abs_det <= floor


def log_determinants(tw: np.ndarray):
    """(log_det, singular, nonpositive) of a (..., 2, N, N) stack of (T, W0)
    pairs from one `slogdet` (no LAPACK error on a square stack), shared by
    `log_dacm` and `annealer.score_variants`: T is singular by `singular_design`,
    W0 where det W0 <= 0."""
    sign, log_det = np.linalg.slogdet(tw)
    return log_det, singular_design(tw[..., 0, :, :], log_det[..., 0]), sign[..., 1] <= 0


def log_dacm(design: DesignMatrix, averaged: AveragedCovariance) -> float:
    """log det(W0) - 2 log |det T| from `log_determinants`; SingularDesign or
    NonPositiveObjective where the objective is undefined."""
    log_det, singular, nonpositive = log_determinants(np.stack([design.T, averaged.W0]))
    if singular:
        raise SingularDesign(f"log |det T| = {log_det[0]:.6g} at or below the design floor")
    if nonpositive:
        raise NonPositiveObjective("det W0 <= 0: cluster does not determine all parameters")
    return float(log_det[1] - 2.0 * log_det[0])


def dacm(design: DesignMatrix, averaged: AveragedCovariance) -> float:
    """det(W0) / det(T)^2, the scalar minimized over measurements, or inf past the float range."""
    return _exp(log_dacm(design, averaged))


def _exp(log_value: float) -> float:
    """exp(log_value), or inf past the float range instead of OverflowError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def estimate_state(nu, design: DesignMatrix) -> np.ndarray:
    """theta_hat = T^{-1} (nu - a0s) from observed outcome frequencies;
    SingularDesign where `singular_design` finds T singular, as `log_dacm` does."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != design.a0s.shape:
        raise ContractViolation(f"frequencies shape {nu.shape} != {design.a0s.shape}")
    log_abs_det = np.linalg.slogdet(design.T)[1]
    if singular_design(design.T, log_abs_det):
        raise SingularDesign(f"log |det T| = {log_abs_det:.6g} at or below the design floor")
    return np.linalg.solve(design.T, nu - design.a0s)

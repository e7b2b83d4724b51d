"""Estimator pipeline and the determinant objective.

Outcome probabilities p_j = Tr(E_j rho) are affine in the Bloch coordinates,
p_j = x_j0 + theta . x_j for the `element_rows` row (x_j0, x_j) = (Tr E_j / n,
Tr(E_j sigma)), which the cluster sum exploits: the covariance of the first N
outcome frequencies is the multinomial W (repetition count set to 1; it only
rescales the objective), W0 sums W over the cluster members and the objective
is DACM = det(W0) / det(T)^2 for the design matrix T, whose rows are the
x_j restricted to the unknown directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import OrthonormalBasis, ParameterPattern
from .errors import ContractViolation, NonPositiveObjective, SingularDesign
from .povm import Povm, element_rows, overlap_matrix
from .statespace import Cluster

PROB_RANGE_TOL = 1e-10
PROB_SUM_TOL = 1e-9
# |det T| <= DESIGN_DET_FLOOR * max|T_ij|^N counts as singular
DESIGN_DET_FLOOR = 1e-12


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
    and rho; validates the probability simplex invariants."""
    p = overlap_matrix([*P.elements, rho])[-1, :-1]
    _check_simplex(p, "state")
    return p


def _check_simplex(p: np.ndarray, label: str) -> None:
    if p.min() < -PROB_RANGE_TOL or p.max() > 1 + PROB_RANGE_TOL:
        raise ContractViolation(
            f"probability out of range for {label}: min {p.min():.3e}, max {p.max():.3e}"
        )
    s = p.sum()
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise ContractViolation(f"probabilities sum to {s:.12g} for {label}")


def design_matrix(P: Povm, pattern: ParameterPattern, basis: OrthonormalBasis) -> DesignMatrix:
    """Design matrix of a Povm, read off the `element_rows` of its first N elements."""
    X = element_rows(P.elements[: pattern.unknown_count], basis)
    return DesignMatrix(X[:, 1 + pattern.unknown_positions], X[:, 0])


def multinomial_covariance(p, n_unknown: int) -> np.ndarray:
    """Covariance of the first N outcome frequencies (single repetition)."""
    p = np.asarray(p, dtype=float)
    if n_unknown > p.shape[0] - 1:
        raise ContractViolation(f"N = {n_unknown} exceeds m - 1 = {p.shape[0] - 1}")
    head = p[:n_unknown]
    return np.diag(head) - np.outer(head, head)


def averaged_covariance(
    P: Povm,
    cluster: Cluster,
    basis: OrthonormalBasis,
    pattern: ParameterPattern,
) -> AveragedCovariance:
    """W0 = sum over cluster members of the multinomial covariance at that state."""
    members = cluster.members
    if members.shape[0] == 0:
        raise ContractViolation("cluster has no members")
    X = element_rows(P.elements, basis)
    probs = X[:, 0] + members @ X[:, 1:].T  # (k, m)
    bad = np.where(
        (probs.min(axis=1) < -PROB_RANGE_TOL)
        | (probs.max(axis=1) > 1 + PROB_RANGE_TOL)
        | (np.abs(probs.sum(axis=1) - 1.0) > PROB_SUM_TOL)
    )[0]
    if bad.size:
        i = int(bad[0])
        raise ContractViolation(
            f"probability invariant violated at cluster member {i}: p = {probs[i]}"
        )
    n_unknown = pattern.unknown_count
    head = probs[:, :n_unknown]
    W0 = np.diag(head.sum(axis=0)) - head.T @ head
    W0 = (W0 + W0.T) / 2.0
    return AveragedCovariance(W0, members.shape[0])


def _checked_determinants(design: DesignMatrix, averaged: AveragedCovariance):
    """(det T, det W0), or SingularDesign / NonPositiveObjective when the
    objective is undefined."""
    T = design.T
    det_t = linalg.determinant(T)
    n = T.shape[0]
    # relative floor: a well-conditioned T has |det| ~ (entry scale)^N, so the
    # singularity test must not punish small but healthy coordinate scales
    floor = DESIGN_DET_FLOOR * float(np.abs(T).max()) ** n
    if abs(det_t) <= floor:
        raise SingularDesign(f"|det T| = {abs(det_t):.3e} below floor {floor:.3e}")
    det_w = linalg.determinant(averaged.W0)
    if det_w <= 0.0:
        raise NonPositiveObjective(
            f"det W0 = {det_w:.3e} <= 0: cluster does not determine all parameters"
        )
    return det_t, det_w


def dacm(design: DesignMatrix, averaged: AveragedCovariance) -> float:
    """det(W0) / det(T)^2, or inf past the float range; the scalar minimized over measurements."""
    det_t, det_w = _checked_determinants(design, averaged)
    # |det T| passed the floor, but its square can underflow to 0
    det_t_sq = det_t**2
    return det_w / det_t_sq if det_t_sq else np.inf


def log_dacm(design: DesignMatrix, averaged: AveragedCovariance) -> float:
    """log det(W0) - 2 log |det T|, finite where `dacm` overflows to inf."""
    det_t, det_w = _checked_determinants(design, averaged)
    return math.log(det_w) - 2.0 * math.log(abs(det_t))


def estimate_state(nu, design: DesignMatrix) -> np.ndarray:
    """theta_hat = T^{-1} (nu - a0s) from observed outcome frequencies."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != design.a0s.shape:
        raise ContractViolation(f"frequencies shape {nu.shape} != {design.a0s.shape}")
    return linalg.solve_linear(design.T, nu - design.a0s)

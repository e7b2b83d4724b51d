"""Rank-one fast path: optimize phases of equi-modular measurement vectors.

Each element is E_i = (n/m) |h_i><h_i| with every entry of h_i of modulus
1/sqrt(n), so the elements automatically have constant diagonal 1/m and are
quasi-orthogonal to the diagonal subalgebra.  Only the entry phases remain
free; the first vector and every first component are pinned to phase zero.
The search minimizes the cross-overlap variance Delta plus a completeness
penalty by Levenberg-Marquardt from the given phases.  The objective is a
plain sum of squares -- the centred off-diagonal overlaps and sqrt(weight)
times the real and imaginary parts of the completeness residual -- so the
search works on those residuals and their analytic Jacobian with respect to
the free phases.  Uniform random starts reach the qutrit conditional SIC in a
handful of iterations; the CLI runs several seeded starts and keeps the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# logistic_accept is unused here; perfbench/tracing.py still wraps
# rankone.logistic_accept, so the import stays until ROADMAP item 4 unpins it
from .annealer import AnnealConfig, logistic_accept
from .errors import ContractViolation
from .povm import Povm, validate

TWO_PI = 2.0 * math.pi
POLISH_IMPROVEMENT_TOL = 1e-14
POLISH_FLOOR = 1e-26
POLISH_MAX_ITERATIONS = 200
LM_LAMBDA_START = 1e-3
LM_LAMBDA_MAX = 1e16


@dataclass(frozen=True)
class PhaseConfiguration:
    """m x n phase matrix in [0, 2pi); row 1 and column 1 are gauge-fixed to 0."""

    dim: int
    element_count: int
    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "phases", p)
        if p.shape != (self.element_count, self.dim):
            raise ContractViolation(
                f"phases shape {p.shape} != ({self.element_count}, {self.dim})"
            )
        if not np.all(np.isfinite(p)):
            raise ContractViolation("phases must be finite")
        if np.any(p[0, :] != 0.0) or np.any(p[:, 0] != 0.0):
            raise ContractViolation("gauge entries (row 1, column 1) must be exactly zero")
        if p.min() < 0.0 or p.max() >= TWO_PI:
            raise ContractViolation("phases must lie in [0, 2pi)")


def gauge_fix(raw) -> np.ndarray:
    """Remove per-vector global phases: subtract each row's first entry, wrap."""
    raw = np.asarray(raw, dtype=float)
    out = np.mod(raw - raw[:, :1], TWO_PI)
    # np.mod rounds a tiny negative phase up to exactly 2pi
    out[out >= TWO_PI] = 0.0
    out[:, 0] = 0.0
    return out


def from_raw(dim: int, raw) -> PhaseConfiguration:
    """Gauge-fix a raw m x dim phase matrix; row 1 must come out all zero."""
    try:
        raw = np.asarray(raw, dtype=float)
    except ValueError as exc:
        raise ContractViolation(f"raw phases are not an (m, {dim}) array: {exc}") from exc
    if raw.ndim != 2 or raw.shape[1] != dim:
        raise ContractViolation(f"raw phases have shape {raw.shape}, expected (m, {dim})")
    fixed = gauge_fix(raw)
    if np.abs(fixed[0]).max() > 0.0:
        raise ContractViolation("first vector must have uniform phases (row 1 gauge)")
    return PhaseConfiguration(dim, raw.shape[0], fixed)


def random_phases(dim: int, element_count: int, rng) -> PhaseConfiguration:
    p = np.zeros((element_count, dim))
    p[1:, 1:] = rng.uniform(0.0, TWO_PI, (element_count - 1, dim - 1))
    return PhaseConfiguration(dim, element_count, p)


def _vectors(phases: np.ndarray, dim: int) -> np.ndarray:
    return np.exp(1j * phases) / math.sqrt(dim)


def phases_to_povm(phi: PhaseConfiguration):
    """Build the measurement and report its validity (completeness may fail).

    Returns (povm, violations); arbitrary phases give perfectly valid rank-one
    PSD elements but need not sum to the identity.
    """
    n, m = phi.dim, phi.element_count
    H = _vectors(phi.phases, n)
    c = n / m
    elements = [c * np.outer(H[i], H[i].conj()) for i in range(m)]
    pov = Povm(n, elements)
    return pov, validate(pov)


def _objective(phases: np.ndarray, dim: int, m: int, weight: float, off_mask) -> float:
    H = _vectors(phases, dim)
    G = H.conj() @ H.T
    c = dim / m
    overlaps = (c * c) * (G.real**2 + G.imag**2)
    off = overlaps[off_mask]
    delta = off - off.mean()
    val = float(delta @ delta)
    if weight != 0.0:
        S = c * (H.T @ H.conj()) - np.eye(dim)
        val += weight * float(np.sum(S.real**2 + S.imag**2))
    return val


def _residuals(phases: np.ndarray, dim: int, m: int, weight: float, off_mask):
    """Residuals r with r @ r == _objective(...), and their Jacobian over phases[1:, 1:].

    r stacks the centred off-diagonal overlaps and sqrt(weight) times the real
    and imaginary parts of the completeness residual S.
    """
    H = _vectors(phases, dim)
    c = dim / m
    g = H.conj()[:, None, :] * H[None, :, :]  # G_ab = sum_k g_abk
    G = g.sum(axis=2)
    off = ((c * c) * (G.real**2 + G.imag**2))[off_mask]
    # d|G_ab|^2 / d phi_jk = 2 Re(conj(G_ab) i g_abk) (delta_bj - delta_aj)
    D = (-2.0 * c * c) * (G.conj()[:, :, None] * g).imag
    idx = np.arange(m)
    d_overlaps = np.zeros((m, m, m, dim))
    d_overlaps[:, idx, idx, :] = D
    d_overlaps[idx, :, idx, :] -= D
    d_off = d_overlaps[off_mask][:, 1:, 1:].reshape(off.size, -1)
    residuals = [off - off.mean()]
    jacobian = [d_off - d_off.mean(axis=0)]
    if weight != 0.0:
        s = c * H[:, :, None] * H.conj()[:, None, :]  # S_kl = sum_a s_akl - delta_kl
        S = s.sum(axis=0) - np.eye(dim)
        # d S_kl / d phi_aj = i s_akl (delta_jk - delta_jl)
        eye = np.eye(dim)
        dS = 1j * (np.einsum("akl,jk->klaj", s, eye) - np.einsum("akl,jl->klaj", s, eye))
        dS = dS[:, :, 1:, 1:].reshape(dim * dim, -1)
        root_w = math.sqrt(weight)
        residuals += [root_w * S.real.ravel(), root_w * S.imag.ravel()]
        jacobian += [root_w * dS.real, root_w * dS.imag]
    return np.concatenate(residuals), np.vstack(jacobian)


def _check_weight(weight: float) -> None:
    if not (math.isfinite(weight) and weight >= 0):
        raise ContractViolation(f"weight must be finite and nonnegative, got {weight}")


def refine_objective(phi: PhaseConfiguration, weight: float = 1.0) -> float:
    """Cross-overlap variance plus `weight` times the squared completeness residual."""
    _check_weight(weight)
    m = phi.element_count
    return _objective(phi.phases, phi.dim, m, weight, ~np.eye(m, dtype=bool))


@dataclass
class RefineResult:
    phases: PhaseConfiguration
    objective_trace: list
    objective: float


def refine(initial: PhaseConfiguration, config: AnnealConfig, weight: float = 1.0) -> RefineResult:
    """Minimize the objective over the free phases by Levenberg-Marquardt from `initial`.

    Each iteration solves the damped Gauss-Newton system
    (J^T J + lam diag(J^T J)) d = -J^T r on the residuals of `_residuals` and
    keeps the step only if it lowers the objective; otherwise (or when the
    system is singular) lam rises tenfold and the step is retried.  The search
    stops at POLISH_FLOOR, at a relative gain below POLISH_IMPROVEMENT_TOL,
    when lam passes LM_LAMBDA_MAX, or after POLISH_MAX_ITERATIONS, so a start
    that is already stationary is returned as it is.  `objective_trace` holds
    the initial objective followed by one value per accepted iteration.

    `config` is not read.  perfbench/tracing.py still calls refine with the
    shape (initial, config, weight) and counts iterations from
    config.total_steps, so the parameter goes once ROADMAP item 4 unpins it.
    """
    _check_weight(weight)
    n, m = initial.dim, initial.element_count
    off_mask = ~np.eye(m, dtype=bool)
    phases = initial.phases
    f = _objective(phases, n, m, weight, off_mask)
    trace = [f]
    # A step is kept only if it lowers the objective, so the trace is
    # monotone.  The gain threshold is relative to the iteration's starting
    # value so the descent runs to the floating-point floor instead of
    # parking at ~1e-13.
    lam = LM_LAMBDA_START
    for _ in range(POLISH_MAX_ITERATIONS):
        if f <= POLISH_FLOOR:
            break
        r, J = _residuals(phases, n, m, weight, off_mask)
        JtJ = J.T @ J
        grad = J.T @ r
        damping = np.diag(np.diag(JtJ))
        while lam <= LM_LAMBDA_MAX:
            try:
                step = np.linalg.solve(JtJ + lam * damping, -grad)
            except np.linalg.LinAlgError:
                # a singular damped system counts as a step that does not improve
                lam *= 10.0
                continue
            trial = phases.copy()
            trial[1:, 1:] += step.reshape(m - 1, n - 1)
            # wrap before evaluating, so f_trial is the objective of the phases
            # returned even after a huge step from a near-stationary start
            trial = gauge_fix(trial)
            f_trial = _objective(trial, n, m, weight, off_mask)
            if f_trial < f:
                break
            lam *= 10.0
        else:
            break
        f_start = f
        phases, f = trial, f_trial
        trace.append(f)
        lam /= 10.0
        if f_start - f < POLISH_IMPROVEMENT_TOL * f_start:
            break
    return RefineResult(PhaseConfiguration(n, m, gauge_fix(phases)), trace, f)


def write_phases(phi: PhaseConfiguration, path) -> None:
    """CSV, one row per vector, entries in radians."""
    with open(path, "w") as fh:
        for row in phi.phases:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_phases(path) -> PhaseConfiguration:
    rows = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln:
                continue
            try:
                row = [float(x) for x in ln.split(",")]
            except ValueError as exc:
                raise ContractViolation(f"{path} line {lineno}: {exc}") from exc
            if rows and len(row) != len(rows[0]):
                raise ContractViolation(
                    f"{path} line {lineno}: {len(row)} phases, not {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ContractViolation(f"{path} has no phase rows")
    arr = np.array(rows)
    return PhaseConfiguration(arr.shape[1], arr.shape[0], arr)

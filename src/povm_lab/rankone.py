"""Rank-one fast path: optimize phases of equi-modular measurement vectors.

Each element is E_i = (n/m) |h_i><h_i| with every entry of h_i of modulus
1/sqrt(n), so the elements automatically have constant diagonal 1/m and are
quasi-orthogonal to the diagonal subalgebra.  Only the entry phases remain
free; the first vector and every first component are pinned to phase zero.
The search minimizes the cross-overlap variance Delta plus the squared
completeness residual by Levenberg-Marquardt from the given phases.  The
objective is a plain sum of squares -- the centred off-diagonal overlaps and
the real and imaginary parts of the completeness residual -- evaluated in two
parts: `_residual_parts` gives the residuals r and the intermediates they are
built from, and `_jacobian` turns those intermediates into the analytic
Jacobian with respect to the free phases.  The constant tables that both read
(the off-diagonal mask, the pair and entry shifts, the identity) are built
once per shape (n, m) and cached read-only.  `refine_objective` and every LM
trial point take the objective as r @ r and build no Jacobian; `refine`
builds one only at a point an iteration steps from.

Uniform random starts (`random_phases`) reach the qutrit conditional SIC at
the LM_FLOOR objective in 6-10 iterations (every start of seeds 0-9, five
restarts each).  With n^2 - n + 1 elements, starts `random.Random(f"0,{r}")`,
r = 0-4, reach LM_FLOOR in every dimension n = 2-6; at n = 7 and 8 they stop
at 2.2-2.5e-3, at the LM_MAX_ITERATIONS cap (ROADMAP item 21).  The CLI
runs several starts, restart r seeded by `random.Random(f"{seed},{r}")`, and
keeps the best.  `random` hashes a str seed with SHA-512, so a seed gives the
same starts on every supported Python.  Because the ansatz is
quasi-orthogonal to the diagonal generators only, the CLI runs it only when
those are exactly the known directions.  The tests check the objective
against `povm.metrics`' Delta plus the squared completeness residual, and take
the catalog's closed-form qutrit solution as the oracle for where the search
ends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# logistic_accept is unused here; perfbench/tracing.py still wraps
# rankone.logistic_accept, so the import stays until ROADMAP item 4 unpins it
from .annealer import AnnealConfig, logistic_accept
from .errors import ContractViolation
from .povm import Povm, validate

TWO_PI = 2.0 * math.pi
LM_IMPROVEMENT_TOL = 1e-14
LM_FLOOR = 1e-26
LM_MAX_ITERATIONS = 200
LM_LAMBDA_START = 1e-3
LM_LAMBDA_MAX = 1e16


@dataclass(frozen=True, eq=False)
class PhaseConfiguration:
    """m x n phase matrix in [0, 2pi), one row per element and one column per
    entry; row 1 and column 1 are gauge-fixed to 0.  Compares by identity."""

    phases: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "phases", p)
        if p.ndim != 2 or not p.size:
            raise ContractViolation(f"phases must be a nonempty (m, n) matrix, got {p.shape}")
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


def random_phases(dim: int, element_count: int, rng) -> PhaseConfiguration:
    """Uniform phases in [0, 2pi) off the gauge row and column, drawn row by
    row as TWO_PI * rng.random().  `rng` is a `random.Random` or a numpy
    `Generator`; for a Generator the phases equal, bit for bit, its
    `uniform(0.0, TWO_PI, (m - 1, n - 1))`, which draws the same doubles in
    the same order."""
    p = np.zeros((element_count, dim))
    p[1:, 1:] = [
        [TWO_PI * rng.random() for _ in range(dim - 1)] for _ in range(element_count - 1)
    ]
    return PhaseConfiguration(p)


def _vectors(phases: np.ndarray, dim: int) -> np.ndarray:
    return np.exp(1j * phases) / math.sqrt(dim)


def phases_to_povm(phi: PhaseConfiguration):
    """Build the measurement and report its validity (completeness may fail).

    Returns (povm, violations); arbitrary phases give perfectly valid rank-one
    PSD elements but need not sum to the identity.
    """
    m, n = phi.phases.shape
    H = _vectors(phi.phases, n)
    pov = Povm((n / m) * (H[:, :, None] * H.conj()[:, None, :]))
    return pov, validate(pov)


class _JacobianTables(NamedTuple):
    off_mask: np.ndarray  # (m, m) bool, True off the diagonal
    pair_shift: np.ndarray  # (m(m-1), m-1, 1): delta_bj - delta_aj on the free rows j
    identity: np.ndarray  # (n, n)
    entry_shift: np.ndarray  # (n, n, 1, n-1): delta_jk - delta_jl on the free columns j


@functools.lru_cache(maxsize=None)
def _jacobian_tables(dim: int, m: int) -> _JacobianTables:
    """The constant tables of the residuals and their Jacobian for m vectors
    in dimension `dim`, built on the first call for (dim, m); later calls
    return the same read-only arrays."""
    off_mask = ~np.eye(m, dtype=bool)
    eye_m = np.eye(m)
    pair_shift = (eye_m[None, :, :] - eye_m[:, None, :])[off_mask][:, 1:, None]
    identity = np.eye(dim)
    entry_shift = (identity[:, None, :] - identity[None, :, :])[:, :, None, 1:]
    tables = _JacobianTables(off_mask, pair_shift, identity, entry_shift)
    for array in tables:
        array.setflags(write=False)
    return tables


def _residual_parts(phases: np.ndarray):
    """Residuals r, whose sum of squares r @ r is the objective, and the
    intermediates (g, G, s) that `_jacobian` builds the Jacobian from.

    r stacks the centred off-diagonal overlaps (n/m)^2 |G_ab|^2, with
    G_ab = sum_k g_abk, and the real and imaginary parts of the completeness
    residual S_kl = sum_a s_akl - delta_kl.
    """
    m, n = phases.shape
    tables = _jacobian_tables(n, m)
    H = _vectors(phases, n)
    c = n / m
    g = H.conj()[:, None, :] * H[None, :, :]
    G = g.sum(axis=2)
    off = ((c * c) * (G.real**2 + G.imag**2))[tables.off_mask]
    s = c * H[:, :, None] * H.conj()[:, None, :]
    S = s.sum(axis=0) - tables.identity
    r = np.concatenate([off - np.add.reduce(off) / off.size, S.real.ravel(), S.imag.ravel()])
    return r, (g, G, s)


def _jacobian(g: np.ndarray, G: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Jacobian of `_residual_parts`' r over phases[1:, 1:], from its
    intermediates.  Each block is one broadcast product of the per-entry
    derivatives with the cached Kronecker differences."""
    m, n = s.shape[:2]
    tables = _jacobian_tables(n, m)
    c = n / m
    # d|G_ab|^2 / d phi_jk = 2 Re(conj(G_ab) i g_abk) (delta_bj - delta_aj)
    D = ((-2.0 * c * c) * (G.conj()[:, :, None] * g).imag)[tables.off_mask]
    d_off = (tables.pair_shift * D[:, None, 1:]).reshape(D.shape[0], -1)
    # d S_kl / d phi_aj = i s_akl (delta_jk - delta_jl)
    dS = 1j * (s.transpose(1, 2, 0)[:, :, 1:, None] * tables.entry_shift)
    dS = dS.reshape(n * n, -1)
    d_off_mean = np.add.reduce(d_off, axis=0) / d_off.shape[0]
    return np.concatenate([d_off - d_off_mean, dS.real, dS.imag])


def refine_objective(phi: PhaseConfiguration) -> float:
    """Cross-overlap variance plus the squared completeness residual."""
    r, _ = _residual_parts(phi.phases)
    return float(r @ r)


@dataclass
class RefineResult:
    phases: PhaseConfiguration
    objective_trace: list
    objective: float


def refine(initial: PhaseConfiguration, config: AnnealConfig) -> RefineResult:
    """Minimize the objective over the free phases by Levenberg-Marquardt from `initial`.

    Each iteration solves the damped Gauss-Newton system
    (J^T J + lam diag(J^T J)) d = -J^T r and keeps the step only if it lowers
    the objective r @ r; otherwise (or when the system is singular) lam rises
    tenfold and the step is retried.  A trial point gets only its residuals
    and their intermediates (`_residual_parts`); the next iteration builds J
    from a kept point's intermediates, so a rejected trial and the final point
    never get a Jacobian.  The search stops at LM_FLOOR, at a relative gain
    below LM_IMPROVEMENT_TOL, when lam passes LM_LAMBDA_MAX, or after
    LM_MAX_ITERATIONS, so a start that is already stationary is returned as
    it is.  `objective_trace` holds the initial objective followed by one
    value per accepted iteration.

    `config` is not read.  perfbench/tracing.py still calls refine with the
    shape (initial, config) and counts iterations from config.total_steps,
    so the parameter goes once ROADMAP item 4 unpins it.
    """
    m, n = initial.phases.shape
    phases = initial.phases
    r, parts = _residual_parts(phases)
    f = float(r @ r)
    trace = [f]
    # A step is kept only if it lowers the objective, so the trace is
    # monotone.  The gain threshold is relative to the iteration's starting
    # value so the descent runs to the floating-point floor instead of
    # parking at ~1e-13.
    lam = LM_LAMBDA_START
    for _ in range(LM_MAX_ITERATIONS):
        if f <= LM_FLOOR:
            break
        J = _jacobian(*parts)
        JtJ = J.T @ J
        grad = J.T @ r
        damping = JtJ.diagonal()
        while lam <= LM_LAMBDA_MAX:
            damped = JtJ.copy()
            damped.flat[:: JtJ.shape[0] + 1] += lam * damping
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                # kept as safety: `solve` can raise, though finite phases never reach it
                # a singular damped system counts as a step that does not improve
                lam *= 10.0
                continue
            trial = phases.copy()
            trial[1:, 1:] += step.reshape(m - 1, n - 1)
            # wrap before evaluating, so f_trial is the objective of the phases
            # returned even after a huge step from a near-stationary start
            trial = gauge_fix(trial)
            r_trial, parts_trial = _residual_parts(trial)
            f_trial = float(r_trial @ r_trial)
            if f_trial < f:
                break
            lam *= 10.0
        else:
            break
        f_start = f
        phases, r, parts, f = trial, r_trial, parts_trial, f_trial
        trace.append(f)
        lam /= 10.0
        if f_start - f < LM_IMPROVEMENT_TOL * f_start:
            break
    return RefineResult(PhaseConfiguration(gauge_fix(phases)), trace, f)


def write_phases(phi: PhaseConfiguration, path) -> None:
    """CSV, one row per vector, entries in radians."""
    with open(path, "w") as fh:
        for row in phi.phases:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")

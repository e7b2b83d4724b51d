"""Stochastic search over POVMs with Glauber acceptance.

Each step perturbs the coordinate form of all N free elements with Gaussian
noise (resampling any draw that leaves the positive region), enumerates the
2^N old/new combinations, keeps those whose closing element is PSD, and walks
the valid candidates with the logistic acceptance rule at the current
temperature.  The perturbation scale and temperature decay geometrically; the
temperature gets a multiplicative boost every `reheat_every` steps to help the
chain escape local optima.  The best measurement seen (by raw objective) is
tracked separately from the fluctuating chain state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import OrthonormalBasis, ParameterPattern
from .errors import (
    ClosureNotPositive,
    ConfigurationError,
    ContractViolation,
    NonPositiveObjective,
    NumericalError,
    ResampleExhausted,
    SingularDesign,
)
from .objective import averaged_covariance, dacm, design_matrix
from .povm import Povm, PovmElementCoords, complete_povm, coords_to_element, metrics, validate
from .statespace import Cluster

TRACE_HEADER = "step,log_dacm,sigma,delta,Delta,temperature,s"
PERTURB_PSD_TOL = 1e-10
MAX_ALL_SKIPPED_STEPS = 100


@dataclass(frozen=True)
class AnnealConfig:
    total_steps: int
    s0: float = 0.2
    s_decay: float = 0.9995
    T0: float = 1.0
    T_decay: float = 0.999
    reheat_every: int = 1000
    reheat_factor: float = 5.0
    max_resample: int = 100
    rng_seed: int = 0
    trace_every: int = 50
    perturb_a0: bool = True

    def __post_init__(self):
        if self.total_steps < 0:
            raise ConfigurationError("total_steps must be >= 0")
        for name in ("s0", "T0", "reheat_factor"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("s_decay", "T_decay"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ConfigurationError(f"{name} must be in (0, 1]")
        if self.reheat_every < 1:
            raise ConfigurationError("reheat_every must be >= 1")
        if self.reheat_factor < 1:
            raise ConfigurationError("reheat_factor must be >= 1")
        if self.max_resample < 1 or self.trace_every < 1:
            raise ConfigurationError("max_resample and trace_every must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    log_dacm: float
    sigma: float
    delta: float
    Delta: float
    temperature: float
    s: float


@dataclass
class AnnealResult:
    best: Povm
    final: Povm
    trace: list
    best_dacm: float
    final_dacm: float
    skipped_variants: int = 0


def logistic_probability(delta: float, temperature: float) -> float:
    """1 / (1 + exp(delta / temperature)), overflow-safe.

    The negative branch is 1 - p(|x|), which makes p(x) + p(-x) = 1 hold
    exactly in floating point, not just algebraically.
    """
    if temperature <= 0 or not math.isfinite(temperature):
        raise ContractViolation(f"temperature must be positive, got {temperature}")
    x = delta / temperature
    e = math.exp(-min(abs(x), 745.0))
    p = e / (1.0 + e)
    return p if x >= 0 else 1.0 - p


def logistic_accept(delta: float, temperature: float, rng) -> bool:
    """True with probability 1 / (1 + exp(delta / temperature)); one uniform draw."""
    return rng.random() < logistic_probability(delta, temperature)


def glauber_accept(dacm_new: float, dacm_old: float, temperature: float, rng) -> bool:
    """Accept the candidate with probability 1/(1 + exp((log new - log old)/T))."""
    for v in (dacm_new, dacm_old):
        if v <= 0 or not math.isfinite(v):
            raise ContractViolation(f"objective values must be positive finite, got {v}")
    return logistic_accept(math.log(dacm_new) - math.log(dacm_old), temperature, rng)


def perturb_element(
    c: PovmElementCoords,
    s: float,
    rng,
    basis: OrthonormalBasis,
    max_resample: int = 100,
    perturb_a0: bool = True,
) -> PovmElementCoords:
    """Gaussian move of one element's coordinates, resampled into the PSD region.

    The direction vector `a` is redrawn until I + a.sigma is PSD; a0 gets the
    same noise truncated to stay positive.  Raises ResampleExhausted when the
    attempt budget runs out (callers keep the old element in that case).
    """
    if s <= 0:
        raise ContractViolation("perturbation scale must be positive")
    eye = np.eye(basis.dim)
    stack = basis.stack
    new_a = None
    for _ in range(max_resample):
        cand = c.a + rng.normal(0.0, s, c.a.shape[0])
        # real coefficients on Hermitian generators: m is exactly Hermitian
        m = np.tensordot(cand, stack, axes=1) + eye
        if min(m[i, i].real for i in range(basis.dim)) < -PERTURB_PSD_TOL:
            continue
        if linalg.min_eigenvalue_trusted(m) >= -PERTURB_PSD_TOL:
            new_a = cand
            break
    if new_a is None:
        raise ResampleExhausted(f"no PSD draw for a in {max_resample} attempts")
    new_a0 = c.a0
    if perturb_a0:
        new_a0 = None
        for _ in range(max_resample):
            cand = c.a0 + rng.normal(0.0, s)
            if cand > 0:
                new_a0 = cand
                break
        if new_a0 is None:
            raise ResampleExhausted(f"no positive a0 draw in {max_resample} attempts")
    return PovmElementCoords(new_a0, new_a)


def enumerate_variants(old, new, basis: OrthonormalBasis):
    """All valid POVMs from old/new element choices, choice vectors lexicographic.

    A bit value 1 takes the perturbed element.  Positions where the perturbed
    element *is* the old one (resampling exhausted upstream) are pinned to 0,
    which deduplicates the otherwise identical candidates.
    """
    n_free = len(old)
    if len(new) != n_free:
        raise ContractViolation("old and new element lists must align")
    mats_old = [coords_to_element(c, basis) for c in old]
    mats_new = [
        mats_old[i] if new[i] is old[i] else coords_to_element(new[i], basis)
        for i in range(n_free)
    ]
    out = []
    for bits in itertools.product((0, 1), repeat=n_free):
        if any(b == 1 and new[i] is old[i] for i, b in enumerate(bits)):
            continue
        coords = [new[i] if b else old[i] for i, b in enumerate(bits)]
        elems = [mats_new[i] if b else mats_old[i] for i, b in enumerate(bits)]
        try:
            out.append(complete_povm(elems, coords))
        except ClosureNotPositive:
            continue
    return out


def random_initial_povm(
    pattern: ParameterPattern,
    basis: OrthonormalBasis,
    rng,
    scale: float = 0.05,
    max_tries: int = 1000,
) -> Povm:
    """A valid interior starting POVM with m = N + 1 equal-weight elements."""
    n_free = pattern.unknown_count
    m = n_free + 1
    dim_coords = basis.dim**2 - 1
    eye = np.eye(basis.dim)
    for _ in range(max_tries):
        coords = [
            PovmElementCoords(1.0 / m, rng.normal(0.0, scale, dim_coords))
            for _ in range(n_free)
        ]
        ok = all(
            linalg.min_eigenvalue(np.tensordot(c.a, basis.stack, axes=1) + eye) > 1e-8
            for c in coords
        )
        if not ok:
            continue
        try:
            pov = complete_povm([coords_to_element(c, basis) for c in coords], coords)
        except ClosureNotPositive:
            continue
        design = design_matrix(coords, pattern)
        scale = float(np.abs(design.T).max())
        if scale > 0 and abs(linalg.determinant(design.T)) > 1e-9 * scale**n_free:
            return pov
    raise NumericalError(f"could not draw a valid initial POVM in {max_tries} tries")


def anneal(
    config: AnnealConfig,
    initial: Povm,
    cluster: Cluster,
    basis: OrthonormalBasis,
    pattern: ParameterPattern,
    check_validity: bool = False,
) -> AnnealResult:
    """Run the annealing chain; fixed seed gives a bit-identical trace."""
    rng = np.random.default_rng(config.rng_seed)
    if initial.coords is None or len(initial.coords) != pattern.unknown_count:
        raise ContractViolation("initial POVM must carry coordinates for its free elements")
    cur_dacm = dacm(
        design_matrix(initial.coords, pattern),
        averaged_covariance(initial, cluster, basis, pattern),
    )
    current = initial
    best, best_dacm = current, cur_dacm
    trace = []
    skipped = 0
    all_skipped_streak = 0
    for t in range(config.total_steps):
        s = config.s0 * config.s_decay**t
        temp = config.T0 * config.T_decay**t
        if t > 0 and t % config.reheat_every == 0:
            temp *= config.reheat_factor
        news = []
        for c in current.coords:
            try:
                news.append(
                    perturb_element(
                        c, s, rng, basis,
                        max_resample=config.max_resample,
                        perturb_a0=config.perturb_a0,
                    )
                )
            except ResampleExhausted:
                news.append(c)
        evaluated = 0
        for cand in enumerate_variants(current.coords, news, basis):
            try:
                d = dacm(
                    design_matrix(cand.coords, pattern),
                    averaged_covariance(cand, cluster, basis, pattern),
                )
            except (SingularDesign, NonPositiveObjective):
                skipped += 1
                continue
            evaluated += 1
            if d < best_dacm:
                best, best_dacm = cand, d
            if glauber_accept(d, cur_dacm, temp, rng):
                current, cur_dacm = cand, d
        if evaluated == 0:
            all_skipped_streak += 1
            if all_skipped_streak >= MAX_ALL_SKIPPED_STEPS:
                raise NumericalError(
                    f"every variant skipped for {MAX_ALL_SKIPPED_STEPS} consecutive steps"
                )
        else:
            all_skipped_streak = 0
        if check_validity:
            for label, pov in (("current", current), ("best", best)):
                bad = validate(pov, 1e-9)
                if bad:
                    raise ContractViolation(f"{label} POVM invalid at step {t}: {bad[0]}")
        if t % config.trace_every == 0:
            mk = metrics(current)
            trace.append(
                TraceRecord(t, math.log(cur_dacm), mk.sigma, mk.delta, mk.Delta, temp, s)
            )
    return AnnealResult(best, current, trace, best_dacm, cur_dacm, skipped)


def write_trace(records, path) -> None:
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            f"{r.step},{float(r.log_dacm)!r},{float(r.sigma)!r},{float(r.delta)!r},"
            f"{float(r.Delta)!r},{float(r.temperature)!r},{float(r.s)!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ContractViolation(f"bad trace header in {path}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append(
            TraceRecord(
                int(cells[0]), *(float(c) for c in cells[1:])
            )
        )
    return out

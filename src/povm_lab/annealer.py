"""Stochastic search over POVMs with Glauber acceptance.

Each step perturbs the coordinate form of all N free elements with Gaussian
noise (resampling any draw that leaves the positive region) and then scores
all 2^N old/new combinations at once: `evaluate_variants` stacks their closing
elements for one batched `eigvalsh` closure check and computes the log DACM of
every closable combination with two stacked `slogdet` calls, the covariance
coming from the Gram matrix of the 2N old/new probability columns.  Only the
walk over the scored candidates is sequential: one logistic (Glauber) draw per
evaluated candidate at the current temperature.  The perturbation scale and
temperature decay geometrically; the temperature gets a multiplicative boost
every `reheat_every` steps to help the chain escape local optima.  The best
measurement seen (by raw objective) is tracked separately from the fluctuating
chain state.

`enumerate_variants`, `complete_povm` and the scalar `dacm` are the
per-candidate path; the tests use them as the oracle for the stacked step.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import OrthonormalBasis, ParameterPattern
from .errors import (
    ClosureNotPositive,
    ConfigurationError,
    ContractViolation,
    NumericalError,
    ResampleExhausted,
)
from .objective import (
    DESIGN_DET_FLOOR,
    PROB_RANGE_TOL,
    PROB_SUM_TOL,
    averaged_covariance,
    dacm,
    design_matrix,
)
from .povm import (
    PSD_CONSTRUCTION_TOL,
    Povm,
    PovmElementCoords,
    complete_povm,
    coords_to_element,
    expand,
    metrics,
    validate,
)
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
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ConfigurationError(f"{name} must be positive and finite, got {v}")
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
    """The chain's best and final POVMs, its trace and what its steps did.

    Every enumerated variant is closure-rejected, skipped (singular T or
    det W0 <= 0) or evaluated, so variants_enumerated = closure_rejected +
    skipped_variants + evaluated; `accepted` counts evaluated variants that
    became the current state, `resample_exhausted` the perturbations that kept
    the old element because no positive draw was found.
    """

    best: Povm
    final: Povm
    trace: list
    best_dacm: float
    final_dacm: float
    best_log_dacm: float
    skipped_variants: int = 0
    variants_enumerated: int = 0
    closure_rejected: int = 0
    resample_exhausted: int = 0
    accepted: int = 0


@dataclass(frozen=True)
class VariantTable:
    """One step's old/new variants, scored as stacked arrays.

    Rows are the choice vectors of `enumerate_variants`, in the same order:
    lexicographic, bit 1 taking the perturbed element, rows that select a
    pinned position dropped.  `log_dacm` is NaN on rows that are not closed or
    are skipped.
    """

    bits: np.ndarray  # (V, N) choice vectors
    elements: np.ndarray  # (2, N, n, n) old and perturbed element matrices
    closing: np.ndarray  # (V, n, n) closing elements I - sum of the chosen E_j
    closed: np.ndarray  # (V,) closing element PSD at -PSD_CONSTRUCTION_TOL
    skipped: np.ndarray  # (V,) closed, but T singular or det W0 <= 0
    log_dacm: np.ndarray  # (V,) log det W0 - 2 log |det T|
    coords: tuple  # (old, new) coordinate lists

    def povm(self, row: int) -> Povm:
        """The POVM of one row: the chosen elements, then its closing element."""
        bits = self.bits[row]
        elements = [self.elements[b, i] for i, b in enumerate(bits)]
        coords = [self.coords[b][i] for i, b in enumerate(bits)]
        return Povm(self.closing.shape[1], elements + [self.closing[row]], coords)


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


@contextmanager
def _typed_lapack_errors():
    """Re-raise numpy's LinAlgError (a LAPACK routine failed) as NumericalError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK failure: {exc}") from exc


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
    if not 0 < s < math.inf:
        raise ContractViolation(f"perturbation scale must be positive and finite, got {s}")
    eye = np.eye(basis.dim)
    stack = basis.stack
    new_a = None
    for _ in range(max_resample):
        cand = c.a + rng.normal(0.0, s, c.a.shape[0])
        # real coefficients on Hermitian generators: m is exactly Hermitian
        m = expand(cand, stack) + eye
        if min(m[i, i].real for i in range(basis.dim)) < -PERTURB_PSD_TOL:
            continue
        with _typed_lapack_errors():
            lowest = np.linalg.eigvalsh(m)[0]
        if lowest >= -PERTURB_PSD_TOL:
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


def evaluate_variants(
    old,
    new,
    basis: OrthonormalBasis,
    cluster: Cluster,
    pattern: ParameterPattern,
) -> VariantTable:
    """Closure check and log DACM of every old/new variant, as stacked arrays.

    The closing elements are formed by subtracting the chosen elements from I
    in element order and Hermitian-averaging, exactly as `complete_povm` does,
    so they are bit-identical to its output.  Closed rows get the three
    probability-simplex checks of `averaged_covariance` (ContractViolation on
    a failure), T from a table of the 2N design rows and W0 = diag(colsum) -
    G restricted to the row's columns, where G is the Gram matrix of the 2N
    old/new probability columns over the cluster.  A row is skipped when
    log |det T| <= log(DESIGN_DET_FLOOR) + N log max|T_ij| or det W0 <= 0.
    """
    n_free = len(old)
    if len(new) != n_free:
        raise ContractViolation("old and new element lists must align")
    if n_free != pattern.unknown_count:
        raise ContractViolation(f"{n_free} free elements for {pattern.unknown_count} unknowns")
    members = cluster.members
    if members.shape[0] == 0:
        raise ContractViolation("cluster has no members")
    choices = [(0,) if n is o else (0, 1) for n, o in zip(new, old)]
    # lexicographic over the unpinned positions, the first most significant
    free = np.flatnonzero([len(c) == 2 for c in choices])
    bits = np.zeros((2**free.size, n_free), dtype=np.intp)
    bits[:, free] = np.arange(2**free.size)[:, None] >> np.arange(free.size)[::-1] & 1
    sides = (list(old), list(new))
    elements = np.array([[coords_to_element(c, basis) for c in side] for side in sides])
    positions = np.arange(n_free)

    # I - E_1 - ... - E_N in element order, branching on each position's
    # choices: every row sees the subtractions of `complete_povm`, in its order
    dim = basis.dim
    closing = np.eye(dim, dtype=complex)[None]
    for i, options in enumerate(choices):
        closing = (closing[:, None] - elements[list(options), i][None]).reshape(-1, dim, dim)
    closing = (closing + closing.conj().transpose(0, 2, 1)) / 2.0
    with _typed_lapack_errors():
        closed = np.linalg.eigvalsh(closing)[:, 0] >= -PSD_CONSTRUCTION_TOL

    # column c = b * N + j of the 2N tables is element j of side b (0 old, 1 new)
    sel = bits[closed] * n_free + positions
    choose = np.zeros((2 * n_free, sel.shape[0]))  # one-hot: column v picks row v's columns
    choose[sel, np.arange(sel.shape[0])[:, None]] = 1.0
    a0 = np.array([c.a0 for side in sides for c in side])
    A = np.array([c.a for side in sides for c in side])
    probs = (1.0 + members @ A.T) * a0  # (k, 2N)
    # closing coordinates as objective._coordinate_table derives them; a
    # closing weight at or below 1e-14 gives a zero probability column
    a0_last = 1.0 - a0 @ choose
    nonzero = a0_last > 1e-14
    A_last = -((a0[:, None] * A).T @ choose) / np.where(nonzero, a0_last, 1.0)  # (n^2-1, Vc)
    last = (1.0 + members @ A_last) * np.where(nonzero, a0_last, 0.0)  # (k, Vc)
    low = np.minimum(probs.min(axis=0)[sel].min(axis=1), last.min(axis=0))
    high = np.maximum(probs.max(axis=0)[sel].max(axis=1), last.max(axis=0))
    sum_dev = np.abs(probs @ choose + last - 1.0).max(axis=0)
    # written so that a NaN probability fails the check too
    bad = np.flatnonzero(
        ~((low >= -PROB_RANGE_TOL) & (high <= 1 + PROB_RANGE_TOL) & (sum_dev <= PROB_SUM_TOL))
    )
    if bad.size:
        v = int(bad[0])
        raise ContractViolation(
            f"probability invariant violated for variant {tuple(bits[closed][v].tolist())}: "
            f"min {low[v]:.3e}, max {high[v]:.3e}, max |sum - 1| {sum_dev[v]:.3e}"
        )

    unknown_pos = [i - 1 for i in pattern.unknown_indices]
    T = (a0[:, None] * A[:, unknown_pos])[sel]  # (Vc, N, N)
    gram = probs.T @ probs
    gram = (gram + gram.T) / 2.0
    W0 = -gram[sel[:, :, None], sel[:, None, :]]
    W0[:, positions, positions] += probs.sum(axis=0)[sel]
    with _typed_lapack_errors():
        _, log_det_t = np.linalg.slogdet(T)
        sign_w, log_det_w = np.linalg.slogdet(W0)
    with np.errstate(divide="ignore"):
        floor = math.log(DESIGN_DET_FLOOR) + n_free * np.log(np.abs(T).max(axis=(1, 2)))
    skip = (log_det_t <= floor) | (sign_w <= 0)

    skipped = np.zeros(bits.shape[0], dtype=bool)
    skipped[closed] = skip
    log_dacm = np.full(bits.shape[0], np.nan)
    log_dacm[np.flatnonzero(closed)[~skip]] = (log_det_w - 2.0 * log_det_t)[~skip]
    return VariantTable(bits, elements, closing, closed, skipped, log_dacm, sides)


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
    cur_log = math.log(
        dacm(
            design_matrix(initial.coords, pattern),
            averaged_covariance(initial, cluster, basis, pattern),
        )
    )
    current = initial
    best, best_log = current, cur_log
    trace = []
    skipped = enumerated = rejected = exhausted = accepted = 0
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
                exhausted += 1
                news.append(c)
        table = evaluate_variants(current.coords, news, basis, cluster, pattern)
        enumerated += table.bits.shape[0]
        rejected += int(np.count_nonzero(~table.closed))
        row_skipped = table.skipped.tolist()
        row_log = table.log_dacm.tolist()
        evaluated = 0
        for v in np.flatnonzero(table.closed).tolist():
            if row_skipped[v]:
                skipped += 1
                continue
            evaluated += 1
            cand_log = row_log[v]
            cand = None
            if cand_log < best_log:
                cand = table.povm(v)
                best, best_log = cand, cand_log
            if logistic_accept(cand_log - cur_log, temp, rng):
                current = cand if cand is not None else table.povm(v)
                cur_log = cand_log
                accepted += 1
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
            trace.append(TraceRecord(t, cur_log, mk.sigma, mk.delta, mk.Delta, temp, s))
    return AnnealResult(
        best,
        current,
        trace,
        _exp(best_log),
        _exp(cur_log),
        best_log,
        skipped_variants=skipped,
        variants_enumerated=enumerated,
        closure_rejected=rejected,
        resample_exhausted=exhausted,
        accepted=accepted,
    )


def _exp(log_value: float) -> float:
    """exp(log_value), or inf past the float range instead of OverflowError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


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

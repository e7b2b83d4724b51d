"""Stochastic search over POVMs with Glauber acceptance.

Each step perturbs the coordinate form of all N free elements with Gaussian
noise (resampling any draw that leaves the positive region) and then scores
all 2^N old/new combinations at once: `score_variants` decides every
combination's closure from the closing element's coordinates and computes the
log DACM of every closable combination with one `slogdet` call on its stacked
design matrices and covariances, the covariances gathered from one table
built on the Gram matrix of the 2N old/new probability columns.
Both PSD tests, a perturbation attempt's and a closing element's, are decided
in closed form from principal minors (`linalg.psd_verdict`); `eigvalsh` runs
only on the matrices in the thin band around the tolerance, and on every
matrix for n = 4.  Only the walk over the scored candidates is sequential: one
logistic (Glauber) draw per evaluated candidate at the current temperature.
The perturbation scale and temperature decay geometrically; the temperature
gets a multiplicative boost every `reheat_every` steps to help the chain
escape local optima.  The best measurement seen (by raw objective) is tracked
separately from the fluctuating chain state.

The old side of a step's table is the chain's current state, which changes
only on an accepted move, so `AnnealChain` carries it between steps as
`FreeElements` (coordinates, element matrices, a0, the direction rows and the
probability columns over the cluster).  A step builds N perturbed
coordinates (without re-validating them), the `FreeElements` of those N,
and one `VariantTable`; an accepted move other than the all-old row takes
the accepted row's columns of that table.  No `Povm` is built in a step:
the chain's `current` and `best` are built when read, from the carried state
and from the best row's table.  The row tables (`VariantRows`) depend only
on which positions are pinned and are built once per pinned mask in a run.
`evaluate_variants` builds both sides from coordinates and scores them the
same way.

`enumerate_variants`, `complete_povm` and the scalar `dacm` are the
per-candidate path; the tests use them as the oracle for the stacked step.
"""

from __future__ import annotations

import functools
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
    closing_elements,
    complete_povm,
    coords_to_element,
    expand,
    metrics,
)
from .statespace import Cluster

TRACE_HEADER = "step,log_dacm,sigma,delta,Delta,temperature,s"
PERTURB_PSD_TOL = 1e-10
MAX_ALL_SKIPPED_STEPS = 100
INIT_MAX_TRIES = 1000
LOG_DESIGN_DET_FLOOR = math.log(DESIGN_DET_FLOOR)


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
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.total_steps > 0:
            # s and the temperature only decay (a reheat scales a nonzero value),
            # so one that reaches 0.0 at any step is 0.0 at the last
            last = self.total_steps - 1
            s, temp = self.schedule(last)
            if s == 0.0 or temp == 0.0:
                raise ConfigurationError(
                    f"schedule underflows: s = {s}, temperature = {temp} at step {last}"
                )

    def schedule(self, t: int) -> tuple[float, float]:
        """(s, temperature) at step t: both decay geometrically, and every
        `reheat_every`-th step after the first multiplies the temperature by
        `reheat_factor`."""
        s = self.s0 * self.s_decay**t
        temp = self.T0 * self.T_decay**t
        if t > 0 and t % self.reheat_every == 0:
            temp *= self.reheat_factor
        return s, temp


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
    the old element because no positive draw was found.  `accepted_unchanged`
    counts the acceptances, included in `accepted`, of a step's all-old row
    while the current state was still the step's old state: moves that
    changed nothing.
    """

    best: Povm
    final: Povm
    trace: list
    best_dacm: float
    best_log_dacm: float
    skipped_variants: int = 0
    variants_enumerated: int = 0
    closure_rejected: int = 0
    resample_exhausted: int = 0
    accepted: int = 0
    accepted_unchanged: int = 0


@dataclass(frozen=True)
class FreeElements:
    """The N free elements of a POVM as stacked arrays.

    `anneal` carries these for its current state from step to step, so a step
    builds them only for the perturbed elements; a step's 2N old/new table is
    the two sides joined, and a row's free elements are columns of that table.
    """

    coords: list  # N PovmElementCoords
    elements: np.ndarray  # (N, n, n) a0 (I + a . sigma)
    a0: np.ndarray  # (N,)
    A: np.ndarray  # (N, n^2 - 1)
    probs: np.ndarray  # (k, N) probability columns (1 + members . a) a0 over the cluster

    @classmethod
    def build(cls, coords, basis: OrthonormalBasis, members: np.ndarray) -> "FreeElements":
        """One stacked product for the element matrices, which are bit-identical
        to `coords_to_element`'s, and one for the probability columns."""
        dim, k = basis.dim, basis.flat_stack.shape[0]
        for c in coords:
            if c.a.shape != (k,):
                raise ContractViolation(
                    f"coordinate length {c.a.shape} does not match basis dim {dim}"
                )
        A = np.array([c.a for c in coords]).reshape(len(coords), k)
        a0 = np.array([c.a0 for c in coords], dtype=float)
        elements = (A @ basis.flat_stack).reshape(-1, dim, dim)
        elements += basis.identity
        probs = (1.0 + members @ A.T) * a0
        return cls(list(coords), a0[:, None, None] * elements, a0, A, probs)

    def join(self, other: "FreeElements") -> "FreeElements":
        """The 2N table: this side's columns, then the other's."""
        return FreeElements(
            self.coords + other.coords,
            np.concatenate([self.elements, other.elements]),
            np.concatenate([self.a0, other.a0]),
            np.concatenate([self.A, other.A]),
            np.concatenate([self.probs, other.probs], axis=1),
        )

    def take(self, cols: np.ndarray) -> "FreeElements":
        """The free elements in columns `cols`, in that order."""
        return FreeElements(
            [self.coords[c] for c in cols.tolist()],
            self.elements[cols],
            self.a0[cols],
            self.A[cols],
            self.probs[:, cols],
        )

    def povm(self) -> Povm:
        """The POVM of these free elements, then their closing element."""
        elements = list(self.elements) + [closing_elements(self.elements)]
        return Povm(self.elements.shape[-1], elements, list(self.coords))


@dataclass(frozen=True)
class VariantRows:
    """The variant rows of a step, which depend only on the pinned positions.

    Rows are lexicographic over the unpinned positions, the first most
    significant, bit 1 taking the perturbed element; `cols` holds each row's
    columns b * N + j of the 2N old/new table, `choose` their one-hot (2N, V)
    form and `pairs` the flat indices of a row's N x N block in a 2N x 2N
    table.
    """

    bits: np.ndarray  # (V, N) choice vectors
    cols: np.ndarray  # (V, N)
    choose: np.ndarray  # (2N, V)
    pairs: np.ndarray  # (V, N, N)

    @classmethod
    def for_pinned(cls, pinned) -> "VariantRows":
        n_free = len(pinned)
        free = np.flatnonzero(np.logical_not(pinned))
        bits = np.zeros((2**free.size, n_free), dtype=np.intp)
        bits[:, free] = np.arange(2**free.size)[:, None] >> np.arange(free.size)[::-1] & 1
        cols = bits * n_free + np.arange(n_free)
        choose = np.zeros((2 * n_free, bits.shape[0]))
        choose[cols, np.arange(bits.shape[0])[:, None]] = 1.0
        pairs = cols[:, :, None] * (2 * n_free) + cols[:, None, :]
        return cls(bits, cols, choose, pairs)


@dataclass(frozen=True)
class VariantTable:
    """One step's old/new variants, scored as stacked arrays.

    Rows are the choice vectors of `enumerate_variants`, in the same order:
    lexicographic, bit 1 taking the perturbed element, rows that select a
    pinned position dropped.  `log_dacm` is NaN on rows that are not closed or
    are skipped.
    """

    rows: VariantRows
    columns: FreeElements  # the 2N old and perturbed elements, old first
    closed: np.ndarray  # (V,) closing element PSD at -PSD_CONSTRUCTION_TOL
    skipped: np.ndarray  # (V,) closed, but T singular or det W0 <= 0
    log_dacm: np.ndarray  # (V,) log det W0 - 2 log |det T|

    @property
    def bits(self) -> np.ndarray:
        """(V, N) choice vectors."""
        return self.rows.bits

    @functools.cached_property
    def closing(self) -> np.ndarray:
        """(V, n, n) closing elements I - sum of the chosen E_j, built on first read."""
        return closing_elements(self.columns.elements[self.rows.cols])

    def free_elements(self, row: int) -> FreeElements:
        """The chosen free elements of one row."""
        return self.columns.take(self.rows.cols[row])

    def povm(self, row: int) -> Povm:
        """The POVM of one row: the chosen elements, then its closing element."""
        return self.free_elements(row).povm()


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


class _typed_lapack_errors:
    """Re-raise numpy's LinAlgError (a LAPACK routine failed) as NumericalError.

    A class rather than a generator context manager: it wraps every step's
    `slogdet`, where entering a generator costs more than the call it guards.
    """

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, np.linalg.LinAlgError):
            raise NumericalError(f"LAPACK failure: {exc}") from exc
        return False


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

    An attempt is decided from the principal minors of a.sigma, since
    I + a.sigma >= -tol I exactly when a.sigma >= -(1 + tol) I; only an
    attempt in the band around the tolerance builds I + a.sigma for the
    diagonal check and `eigvalsh`.  A draw that overflows at an extreme scale
    is outside the region and is redrawn, so the result is finite and is
    built without the constructor's checks.
    """
    if not 0 < s < math.inf:
        raise ContractViolation(f"perturbation scale must be positive and finite, got {s}")
    dim, entry_map = basis.dim, basis.entry_map
    new_a = None
    for _ in range(max_resample):
        cand = c.a + rng.normal(0.0, s, c.a.shape[0])
        entries = (entry_map @ cand).tolist()
        yes, no = linalg.psd_verdict(entries, dim, 1.0 + PERTURB_PSD_TOL)
        if no:
            continue
        if not yes:
            # every entry of a.sigma in the region has modulus below n; this
            # also sends back a draw that overflowed, which gets no yes
            if not all(abs(x) <= dim for x in entries):
                continue
            # real coefficients on Hermitian generators: m is exactly Hermitian
            m = expand(cand, basis.stack) + basis.identity
            if min(m[i, i].real for i in range(dim)) < -PERTURB_PSD_TOL:
                continue
            with _typed_lapack_errors():
                if np.linalg.eigvalsh(m)[0] < -PERTURB_PSD_TOL:
                    continue
        new_a = cand
        break
    if new_a is None:
        raise ResampleExhausted(f"no PSD draw for a in {max_resample} attempts")
    new_a0 = c.a0
    if perturb_a0:
        new_a0 = None
        for _ in range(max_resample):
            cand = c.a0 + rng.normal(0.0, s)
            if 0 < cand < math.inf:
                new_a0 = cand
                break
        if new_a0 is None:
            raise ResampleExhausted(f"no positive a0 draw in {max_resample} attempts")
    return PovmElementCoords.unchecked(new_a0, new_a)


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

    Builds both sides' free elements and row table, then scores them as an
    anneal step does (`score_variants`).
    """
    n_free = len(old)
    if len(new) != n_free:
        raise ContractViolation("old and new element lists must align")
    if n_free != pattern.unknown_count:
        raise ContractViolation(f"{n_free} free elements for {pattern.unknown_count} unknowns")
    members = cluster.members
    if members.shape[0] == 0:
        raise ContractViolation("cluster has no members")
    rows = VariantRows.for_pinned([n is o for n, o in zip(new, old)])
    sides = (FreeElements.build(old, basis, members), FreeElements.build(new, basis, members))
    return score_variants(*sides, rows, basis, members, pattern)


def score_variants(
    old: FreeElements,
    new: FreeElements,
    rows: VariantRows,
    basis: OrthonormalBasis,
    members: np.ndarray,
    pattern: ParameterPattern,
) -> VariantTable:
    """Score the rows of one step from its old and perturbed free elements.

    A row is closed when its closing element (1 - sum a0) I - (sum a0 a) . sigma
    is PSD at -PSD_CONSTRUCTION_TOL, decided for all rows at once from those
    coordinates by `linalg.psd_verdict`.  Only rows in its band get their
    closing matrices, built as `complete_povm` builds its closing element
    (`closing_elements`), and one stacked `eigvalsh`.  Closed rows get the three
    probability-simplex checks of `averaged_covariance` (ContractViolation on
    a failure), T from a table of the 2N design rows and W0 as the row's block
    of diag(colsum) - G, where G is the Gram matrix of the 2N old/new
    probability columns over the cluster.  A row is skipped when
    log |det T| <= log(DESIGN_DET_FLOOR) + N log max|T_ij| or det W0 <= 0.
    """
    n_free = len(old.coords)
    columns = old.join(new)
    a0, A, probs = columns.a0, columns.A, columns.probs  # (2N,), (2N, n^2-1), (k, 2N)
    log_dacm = np.full(rows.bits.shape[0], np.nan)
    skipped = np.zeros(rows.bits.shape[0], dtype=bool)

    # sum a0 and sum a0 a over every row's chosen elements
    weighted = a0[:, None] * A  # (2N, n^2-1)
    a0_sum = a0 @ rows.choose  # (V,)
    a_sum = weighted.T @ rows.choose  # (n^2-1, V)
    entries = basis.entry_map @ -a_sum  # (n^2, V) entries of every row's closing element
    entries[: basis.dim] += 1.0 - a0_sum
    closed, no = linalg.psd_verdict(entries, basis.dim, PSD_CONSTRUCTION_TOL)
    band = ~(closed | no)
    if band.any():
        band = np.flatnonzero(band)
        closing = closing_elements(columns.elements[rows.cols[band]])
        with _typed_lapack_errors():
            closed[band] = np.linalg.eigvalsh(closing)[:, 0] >= -PSD_CONSTRUCTION_TOL
    if not closed.any():
        return VariantTable(rows, columns, closed, skipped, log_dacm)

    # the closing probability column (1 - sum a0) - members . (sum a0 a); a
    # closing weight at or below 1e-14 gives a zero column, as
    # objective._coordinate_table derives it
    a0_last = 1.0 - a0_sum[closed]
    last = np.where(a0_last > 1e-14, a0_last - members @ a_sum[:, closed], 0.0)  # (k, Vc)
    sums = probs @ rows.choose[:, closed] + last
    sel = rows.cols[closed]  # (Vc, N) columns of the 2N tables
    # the whole table's extremes bound every row's, so rows are compared one by
    # one only when they fail; written so that a NaN probability fails too
    if not (
        probs.min() >= -PROB_RANGE_TOL
        and probs.max() <= 1 + PROB_RANGE_TOL
        and last.min() >= -PROB_RANGE_TOL
        and last.max() <= 1 + PROB_RANGE_TOL
        and np.abs(sums - 1.0).max() <= PROB_SUM_TOL
    ):
        low = np.minimum(probs.min(axis=0)[sel].min(axis=1), last.min(axis=0))
        high = np.maximum(probs.max(axis=0)[sel].max(axis=1), last.max(axis=0))
        # each row's sum from its own columns, so that a NaN fails only the
        # rows that take it
        sum_dev = np.abs(probs[:, sel].sum(axis=2) + last - 1.0).max(axis=0)
        bad = np.flatnonzero(
            ~((low >= -PROB_RANGE_TOL) & (high <= 1 + PROB_RANGE_TOL) & (sum_dev <= PROB_SUM_TOL))
        )
        if bad.size:
            v = int(bad[0])
            raise ContractViolation(
                f"probability invariant violated for variant {tuple(rows.bits[closed][v].tolist())}: "
                f"min {low[v]:.3e}, max {high[v]:.3e}, max |sum - 1| {sum_dev[v]:.3e}"
            )

    unknown_pos = [i - 1 for i in pattern.unknown_indices]
    T = weighted[:, unknown_pos][sel]  # (Vc, N, N)
    gram = probs.T @ probs
    W0 = (np.diag(probs.sum(axis=0)) - (gram + gram.T) / 2.0).take(rows.pairs[closed])
    with _typed_lapack_errors():
        sign, log_det = np.linalg.slogdet(np.concatenate([T, W0]))
    n_closed = sel.shape[0]
    log_det_t, sign_w, log_det_w = log_det[:n_closed], sign[n_closed:], log_det[n_closed:]
    # an all-zero T has log |det T| = -inf, below any floor; adding 1 to its
    # zero max keeps the log finite without a warning
    t_max = np.abs(T).max(axis=(1, 2))
    floor = LOG_DESIGN_DET_FLOOR + n_free * np.log(t_max + (t_max == 0.0))
    skip = (log_det_t <= floor) | (sign_w <= 0)
    skipped[closed] = skip
    log_dacm[closed] = np.where(skip, np.nan, log_det_w - 2.0 * log_det_t)
    return VariantTable(rows, columns, closed, skipped, log_dacm)


def random_initial_povm(
    pattern: ParameterPattern,
    basis: OrthonormalBasis,
    rng,
    scale: float = 0.05,
) -> Povm:
    """A valid interior starting POVM with m = N + 1 equal-weight elements."""
    n_free = pattern.unknown_count
    m = n_free + 1
    dim_coords = basis.dim**2 - 1
    eye = np.eye(basis.dim)
    for _ in range(INIT_MAX_TRIES):
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
        design_scale = float(np.abs(design.T).max())
        if design_scale > 0 and abs(linalg.determinant(design.T)) > 1e-9 * design_scale**n_free:
            return pov
    raise NumericalError(f"could not draw a valid initial POVM in {INIT_MAX_TRIES} tries")


class AnnealChain:
    """The chain between steps: its current and best POVMs with their log DACM,
    the run counters, and the current state's free elements (`state`), which
    each step reuses as the old side of its table.

    `state` changes only when a move is accepted, and then to the accepted
    row's columns of the step's table; a step builds free elements only for
    its perturbed elements, and row tables once per pinned-position mask.
    `current` and `best` are built as `Povm`s only when read: `current` from
    `state`, `best` from the table row it was found in.
    """

    def __init__(
        self,
        config: AnnealConfig,
        initial: Povm,
        cluster: Cluster,
        basis: OrthonormalBasis,
        pattern: ParameterPattern,
    ):
        self.config, self.cluster, self.basis, self.pattern = config, cluster, basis, pattern
        self.rng = np.random.default_rng(config.rng_seed)
        if initial.coords is None or len(initial.coords) != pattern.unknown_count:
            raise ContractViolation("initial POVM must carry coordinates for its free elements")
        self.cur_log = math.log(
            dacm(
                design_matrix(initial.coords, pattern),
                averaged_covariance(initial, cluster, basis, pattern),
            )
        )
        self.best_log = self.cur_log
        self.state = FreeElements.build(initial.coords, basis, cluster.members)
        # the POVMs last built; None until the next read rebuilds one
        self._current = self._best = initial
        self._best_at = None  # (table, row) the best POVM is built from
        self.rows = {}  # pinned-position mask -> VariantRows
        self.skipped = self.enumerated = self.rejected = self.exhausted = 0
        self.accepted = self.accepted_unchanged = 0
        self.all_skipped_streak = 0

    @property
    def current(self) -> Povm:
        """The current POVM, built from `state` on the first read after a move."""
        if self._current is None:
            self._current = self.state.povm()
        return self._current

    @property
    def best(self) -> Povm:
        """The best POVM seen, built from its table row on the first read."""
        if self._best is None:
            table, row = self._best_at
            self._best = table.povm(row)
        return self._best

    def step(self, s: float, temp: float) -> None:
        """Perturb every free element at scale s, score the variants and walk
        them at temperature temp: one logistic draw per evaluated variant."""
        cfg, rng, basis, members = self.config, self.rng, self.basis, self.cluster.members
        olds = self.state.coords
        news = []
        for c in olds:
            try:
                news.append(
                    perturb_element(
                        c, s, rng, basis,
                        max_resample=cfg.max_resample,
                        perturb_a0=cfg.perturb_a0,
                    )
                )
            except ResampleExhausted:
                self.exhausted += 1
                news.append(c)
        pinned = tuple(n is c for n, c in zip(news, olds))
        rows = self.rows.get(pinned)
        if rows is None:
            rows = self.rows[pinned] = VariantRows.for_pinned(pinned)
        new = FreeElements.build(news, basis, members)
        table = score_variants(self.state, new, rows, basis, members, self.pattern)
        closed_rows = [v for v, c in enumerate(table.closed.tolist()) if c]
        n_skipped = int(np.count_nonzero(table.skipped))
        self.enumerated += table.closed.shape[0]
        self.rejected += table.closed.shape[0] - len(closed_rows)
        self.skipped += n_skipped
        row_log = table.log_dacm.tolist()
        moved_to = best_row = None
        for v in closed_rows:
            cand_log = row_log[v]
            if math.isnan(cand_log):  # skipped
                continue
            if cand_log < self.best_log:
                self.best_log, best_row = cand_log, v
            if logistic_accept(cand_log - self.cur_log, temp, rng):
                self.cur_log = cand_log
                self.accepted += 1
                # row 0 takes every old element and is walked first, while the
                # current state is still the step's old state
                if v == 0:
                    self.accepted_unchanged += 1
                moved_to = v
        # only the step's last best and last accepted rows outlive it
        if best_row is not None:
            self._best, self._best_at = None, (table, best_row)
        if moved_to is not None:
            if moved_to:  # row 0's columns are the state's own
                self.state = table.free_elements(moved_to)
            self._current = None
        if len(closed_rows) == n_skipped:  # no row evaluated
            self.all_skipped_streak += 1
            if self.all_skipped_streak >= MAX_ALL_SKIPPED_STEPS:
                raise NumericalError(
                    f"every variant skipped for {MAX_ALL_SKIPPED_STEPS} consecutive steps"
                )
        else:
            self.all_skipped_streak = 0


def anneal(
    config: AnnealConfig,
    initial: Povm,
    cluster: Cluster,
    basis: OrthonormalBasis,
    pattern: ParameterPattern,
) -> AnnealResult:
    """Run the annealing chain; fixed seed gives a bit-identical trace."""
    chain = AnnealChain(config, initial, cluster, basis, pattern)
    trace = []
    for t in range(config.total_steps):
        s, temp = config.schedule(t)
        chain.step(s, temp)
        if t % config.trace_every == 0:
            mk = metrics(chain.current)
            trace.append(TraceRecord(t, chain.cur_log, mk.sigma, mk.delta, mk.Delta, temp, s))
    return AnnealResult(
        chain.best,
        chain.current,
        trace,
        _exp(chain.best_log),
        chain.best_log,
        skipped_variants=chain.skipped,
        variants_enumerated=chain.enumerated,
        closure_rejected=chain.rejected,
        resample_exhausted=chain.exhausted,
        accepted=chain.accepted,
        accepted_unchanged=chain.accepted_unchanged,
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
    width = len(TRACE_HEADER.split(","))
    out = []
    for lineno, ln in enumerate(lines[1:], 2):
        cells = ln.split(",")
        if len(cells) != width:
            raise ContractViolation(f"{path} line {lineno}: {len(cells)} cells, expected {width}")
        try:
            out.append(TraceRecord(int(cells[0]), *(float(c) for c in cells[1:])))
        except ValueError as exc:
            raise ContractViolation(f"{path} line {lineno}: {exc}") from exc
    return out

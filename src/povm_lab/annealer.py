"""Stochastic search over POVMs with Glauber acceptance.

A chain starts from any POVM that `povm.validate` passes and that has
m = N + 1 elements for the pattern's N unknowns: the `element_rows` of its
first N elements give each free element's weight a0 and direction a in
E = a0 (I + a . sigma), and the last element closes the measurement.  Each
step perturbs (a0, a) of all N free elements with Gaussian noise (resampling
any draw that leaves the positive region) and then scores all 2^N old/new
combinations at once: `score_variants` decides every combination's closure
from the closing element's coordinates and computes the log DACM of every
closable combination with one `slogdet` call on its design matrix and
covariance, both gathered by one `take` from one flat array: the
2N old/new design rows, then a table built on the Gram matrix of the 2N
old/new probability columns.  Positivity is `linalg`'s one rule: the closing
elements' by `linalg.psd_mask`, a perturbation attempt's by the scalar
`linalg.psd_verdict` on Python floats.  Only the walk over the scored
candidates is sequential: one logistic (Glauber) draw per evaluated candidate
at the current temperature; `schedule` sets each step's perturbation scale
and temperature.  The best measurement seen (by raw objective) is tracked
separately from the fluctuating chain state.

The old side of a step's table is the chain's current state, which changes
only on an accepted move, so `AnnealChain` carries it between steps as one
(N, n^2) array of coordinate rows (a0, a), which does not depend on the
cluster.  A step perturbs the rows of a copy and scores the (2N, n^2) table
of the old rows, then the perturbed ones: `score_variants` computes all 2N
probability columns and returns every row's `closed`, `skipped` and
`log_dacm`.  An accepted move other than the all-old row takes the accepted
row's columns of that table, and a new best takes the best row's columns as
the chain's second state.  A step builds no `Povm`, and element matrices
(`coordinate_elements`) only for the closing matrices of rows in the PSD
band: the chain's `current` and `best` are built by `coordinate_povm` on
every read from its two states (a trace record every `trace_every` steps,
and the result).  A step's cost is mostly the fixed cost of its numpy calls,
not arithmetic, so the scoring makes few: one product gives every row's
closing coordinates for both the closure test and the closing probability
column.  The row tables (`VariantRows`) depend only on which positions are
pinned and are built once per pinned mask in a run.  Every free element
matrix comes from `OrthonormalBasis.expand`, the one map from coordinates to
a . sigma.

`enumerate_variants`, `complete_povm` and the scalar `design_matrix` and
`dacm` are the per-candidate path on element matrices; the tests use them as
the oracle for the stacked step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .basis import OrthonormalBasis, ParameterPattern, gell_mann_basis
from .errors import (
    ClosureNotPositive,
    ConfigurationError,
    ContractViolation,
    NumericalError,
    ResampleExhausted,
)
from .objective import (
    PROB_RANGE_TOL,
    PROB_SUM_TOL,
    DesignMatrix,
    _exp,
    averaged_covariance,
    check_simplex,
    # no longer called here: kept because the benchmark's tracer wraps
    # `annealer.dacm` (ROADMAP item 4 unpins it)
    dacm,  # noqa: F401
    # nor is design_matrix: the tracer wraps `annealer.design_matrix` too
    design_matrix,  # noqa: F401
    log_dacm,
    log_determinants,
    singular_design,
)
from .povm import Povm, closing_elements, complete_povm, element_rows, metrics, validate
from .statespace import Cluster

TRACE_HEADER = "step,log_dacm,sigma,delta,Delta,temperature,s"
MAX_ALL_SKIPPED_STEPS = 100
INIT_MAX_TRIES = 1000
MAX_RESAMPLE = 100  # attempts per perturbation draw, for a and for a0
INIT_SCALE = 0.05  # `random_initial_povm`'s default spread, that of every CLI anneal's start
# a start is strictly inside the positive region: each unit element I + a . sigma
# has lowest eigenvalue above this margin, where the `linalg.PSD_TOL` rule
# would admit an element on the boundary or 1e-10 past it
INIT_MIN_EIGENVALUE = 1e-8
# what a run's steps did, in report order: `AnnealChain.counts` keys, `AnnealResult` fields
RUN_COUNTERS = (
    "skipped_variants",
    "variants_enumerated",
    "closure_rejected",
    "resample_exhausted",
    "accepted",
    "accepted_unchanged",
)


# the one anneal schedule, read only by `schedule`
S0 = 0.2
S_DECAY = 0.9995
T0 = 1.0
T_DECAY = 0.999
REHEAT_EVERY = 1000
REHEAT_FACTOR = 5.0


def schedule(t: int) -> tuple[float, float]:
    """(s, temperature) at step t: the perturbation scale s = S0 * S_DECAY**t
    and the temperature T0 * T_DECAY**t decay geometrically, and every
    REHEAT_EVERY-th step after the first multiplies the temperature by
    REHEAT_FACTOR to help the chain escape local optima.  The hottest step is
    the first reheat, at about 1.84."""
    s = S0 * S_DECAY**t
    temp = T0 * T_DECAY**t
    if t > 0 and t % REHEAT_EVERY == 0:
        temp *= REHEAT_FACTOR
    return s, temp


@dataclass(frozen=True)
class AnnealConfig:
    total_steps: int = 20000
    rng_seed: int = 0
    trace_every: int = 50

    def __post_init__(self):
        if self.total_steps < 0:
            raise ConfigurationError("total_steps must be >= 0")
        if self.trace_every < 1:
            raise ConfigurationError("trace_every must be >= 1")
        if self.rng_seed < 0:
            raise ConfigurationError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.total_steps > 0:
            # s and the temperature only decay (a reheat scales a nonzero value),
            # so one that reaches 0.0 at any step is 0.0 at the last
            last = self.total_steps - 1
            s, temp = schedule(last)
            if s == 0.0 or temp == 0.0:
                raise ConfigurationError(
                    f"schedule underflows: s = {s}, temperature = {temp} at step {last}"
                )


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

    The six counter fields are named, in report order, by `RUN_COUNTERS` and
    filled from the chain's `counts`.  Every enumerated variant is
    closure-rejected, skipped (singular T or det W0 <= 0) or evaluated, so
    variants_enumerated = closure_rejected + skipped_variants + evaluated;
    `accepted` counts evaluated variants that became the current state,
    `resample_exhausted` the perturbations that kept the old element because
    no positive draw was found.  `accepted_unchanged` counts the acceptances,
    included in `accepted`, of a step's all-old row while the current state
    was still the step's old state: moves that changed nothing.
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


def coordinate_elements(coords: np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """(N, n, n) element matrices a0 (I + a . sigma) of (N, n^2) coordinate rows
    (a0, a), from one stacked `basis.expand`."""
    return coords[:, 0, None, None] * (basis.expand(coords[:, 1:]) + basis.identity)


def coordinate_povm(coords: np.ndarray, basis: OrthonormalBasis) -> Povm:
    """The POVM of the free elements of (N, n^2) coordinate rows, then their
    closing element."""
    elements = coordinate_elements(coords, basis)
    return Povm(np.concatenate([elements, closing_elements(elements)[None]]))


@dataclass(frozen=True)
class VariantRows:
    """The variant rows of a step, which depend only on the pinned positions.

    Rows are lexicographic over the unpinned positions, the first most
    significant, bit 1 taking the perturbed element; `cols` holds each row's
    columns b * N + j of the 2N old/new table and `choose` their one-hot
    (2N, V) form.  `tw` holds the flat indices of each row's T and W0 in the
    table `score_variants` gathers them from: the 2N x N design rows, then the
    2N x 2N covariance table, both row-major.
    """

    bits: np.ndarray  # (V, N) choice vectors
    cols: np.ndarray  # (V, N)
    choose: np.ndarray  # (2N, V)
    tw: np.ndarray  # (V, 2, N, N)

    @classmethod
    def for_pinned(cls, pinned) -> "VariantRows":
        n_free = len(pinned)
        free = np.flatnonzero(np.logical_not(pinned))
        bits = np.zeros((2**free.size, n_free), dtype=np.intp)
        bits[:, free] = np.arange(2**free.size)[:, None] >> np.arange(free.size)[::-1] & 1
        cols = bits * n_free + np.arange(n_free)
        choose = np.zeros((2 * n_free, bits.shape[0]))
        choose[cols, np.arange(bits.shape[0])[:, None]] = 1.0
        t = cols[:, :, None] * n_free + np.arange(n_free)
        w0 = 2 * n_free * n_free + cols[:, :, None] * (2 * n_free) + cols[:, None, :]
        return cls(bits, cols, choose, np.stack([t, w0], axis=1))


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
    a0: float,
    a: np.ndarray,
    s: float,
    rng,
    basis: OrthonormalBasis,
) -> tuple[float, np.ndarray]:
    """Gaussian move (a0, a) -> (a0', a') of one element's coordinates,
    resampled into the PSD region.

    The direction vector `a` is redrawn until I + a.sigma is PSD; a0 gets the
    same noise truncated to stay positive.  Raises ResampleExhausted when the
    attempt budget, MAX_RESAMPLE draws for a and as many for a0, runs out
    (callers keep the old element in that case).

    An attempt is decided by the `linalg.PSD_TOL` rule, in closed form by
    `linalg.psd_verdict` on the Python floats of a.sigma's entries, since
    I + a.sigma >= -PSD_TOL I exactly when a.sigma >= -(1 + PSD_TOL) I; only
    an attempt in its band builds I + a.sigma for `linalg.spectra`.  A draw
    that overflows at an extreme scale is outside the region and is redrawn,
    so the result is finite: a0' is a positive float and a' a new float64
    vector.
    """
    if not 0 < s < math.inf:
        raise ContractViolation(f"perturbation scale must be positive and finite, got {s}")
    dim, entry_map = basis.dim, basis.entry_map
    new_a = None
    for _ in range(MAX_RESAMPLE):
        cand = a + rng.normal(0.0, s, a.shape[0])
        entries = (entry_map @ cand).tolist()
        yes, no = linalg.psd_verdict(entries, dim, 1.0 + linalg.PSD_TOL)
        if no:
            continue
        if not yes:
            # every entry of a.sigma in the region has modulus below n; this
            # also sends back a draw that overflowed, which gets no yes
            if not all(abs(x) <= dim for x in entries):
                continue
            if linalg.spectra(basis.expand(cand) + basis.identity)[-1] < -linalg.PSD_TOL:
                continue
        new_a = cand
        break
    if new_a is None:
        raise ResampleExhausted(f"no PSD draw for a in {MAX_RESAMPLE} attempts")
    for _ in range(MAX_RESAMPLE):
        cand = a0 + rng.normal(0.0, s)
        if 0 < cand < math.inf:
            return cand, new_a
    raise ResampleExhausted(f"no positive a0 draw in {MAX_RESAMPLE} attempts")


def enumerate_variants(old, new):
    """All valid POVMs from old/new element matrix choices, choice vectors
    lexicographic.

    A bit value 1 takes the perturbed element.  Positions where the perturbed
    element *is* the old one (resampling exhausted upstream) are pinned to 0,
    which deduplicates the otherwise identical candidates.
    """
    n_free = len(old)
    if len(new) != n_free:
        raise ContractViolation("old and new element lists must align")
    out = []
    for bits in itertools.product((0, 1), repeat=n_free):
        if any(b == 1 and new[i] is old[i] for i, b in enumerate(bits)):
            continue
        try:
            out.append(complete_povm([new[i] if b else old[i] for i, b in enumerate(bits)]))
        except ClosureNotPositive:
            continue
    return out


def score_variants(
    columns: np.ndarray,
    rows: VariantRows,
    members: np.ndarray,
    pattern: ParameterPattern,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(closed, skipped, log_dacm) of the rows of one step, from its (2N, n^2)
    table of coordinate rows (a0, a): the N old rows, then the N perturbed.

    Rows are the choice vectors of `enumerate_variants`, in the same order:
    lexicographic, bit 1 taking the perturbed element, rows that select a
    pinned position dropped.  The three arrays are (V,): `closed` marks the
    closed rows, `skipped` the closed rows whose T is singular or whose
    det W0 <= 0, and `log_dacm` holds log det W0 - 2 log |det T|, NaN on rows
    that are not closed or are skipped.

    A row is closed when its closing element (1 - sum a0) I - (sum a0 a) . sigma
    is PSD by `linalg.psd_mask` on those coordinates; the band's matrices are
    built as `complete_povm` builds its closing element (`closing_elements`).
    Closed rows pass `check_simplex` on their N probability columns and
    closing column, run only when a column they take leaves [0, 1] or a sum
    leaves 1.  Their T and W0 come from one flat array by one `take` through
    `rows.tw`: the 2N x N design rows a0 a over the unknown directions, then
    the 2N x 2N table diag(colsum) - (G + G^T)/2, where G is the Gram matrix
    of the 2N old/new probability columns (1 + members . a) a0, computed here
    with one product, and the table is formed as (G + G^T) / -2.0 with the
    column sums added on its diagonal (the same bits as the difference).  One
    `objective.log_determinants` of the (Vc, 2, N, N) stack gives both
    determinants of every closed row and skips a row where `log_dacm` raises:
    log |det T| <= log(DESIGN_DET_FLOOR) + N log max|T_ij| or det W0 <= 0.
    """
    n_free = columns.shape[0] // 2
    basis = gell_mann_basis(pattern.dim)
    a0, A = columns[:, 0], columns[:, 1:]  # (2N,), (2N, n^2-1)
    probs = (1.0 + members @ A.T) * a0  # (k, 2N) probability columns over the cluster
    log_dacm = np.full(rows.bits.shape[0], np.nan)
    skipped = np.zeros(rows.bits.shape[0], dtype=bool)

    # sum a0 and sum a0 a over every row's chosen elements
    weighted = a0[:, None] * A  # (2N, n^2-1)
    a0_sum = a0 @ rows.choose  # (V,)
    a_sum = weighted.T @ rows.choose  # (n^2-1, V)
    # the (n^2, V) entries of every row's closing element decide its closure
    closed, _ = linalg.psd_mask(
        basis.entry_map @ -a_sum, 1.0 - a0_sum, basis.dim,
        lambda band: closing_elements(coordinate_elements(columns, basis)[rows.cols[band]]),
    )
    idx = closed.nonzero()[0]
    if not idx.size:
        return closed, skipped, log_dacm

    # the closing probability column (1 - sum a0) - members . (sum a0 a), the
    # closing element's `element_rows` row read off the free elements' sums
    last = (1.0 - a0_sum.take(idx)) - members @ a_sum.take(idx, axis=1)  # (k, Vc)
    choose = rows.choose.take(idx, axis=1)  # (2N, Vc)
    sums = probs @ choose + last
    # the extremes of the whole table, or else of the columns closed rows take, bound
    # every closed row's, so rows are compared one by one only when both fail
    # (closed rows sum to 1 up to rounding; the sum check stays as an invariant)
    if not (
        (_in_range(probs) or _in_range(probs.compress(choose.any(axis=1), axis=1)))
        and _in_range(last)
        and np.abs(sums - 1.0).max() <= PROB_SUM_TOL
    ):
        # each closed row's (k, N + 1) table: its N columns, then its closing column
        chosen = probs[:, rows.cols.take(idx, axis=0)].transpose(1, 0, 2)
        check_simplex(
            np.concatenate([chosen, last.T[:, :, None]], axis=2),
            lambda v: f"variant {tuple(rows.bits[idx[v]].tolist())}",
        )

    # x / -2.0 and x / -2.0 + colsum are 0 - x/2 and colsum - x/2 bit for bit,
    # up to the sign of a zero
    gram = probs.T @ probs
    design = weighted.take(pattern.unknown_positions, axis=1)
    flat = np.concatenate([design.ravel(), ((gram + gram.T) / -2.0).ravel()])
    flat[2 * n_free * n_free :: 2 * n_free + 1] += probs.sum(axis=0)
    tw = flat.take(rows.tw.take(idx, axis=0))  # (Vc, 2, N, N): T, W0
    log_det, singular, nonpositive = log_determinants(tw)
    skip = singular | nonpositive
    skipped[idx] = skip
    log_dacm[idx] = np.where(skip, np.nan, log_det[:, 1] - 2.0 * log_det[:, 0])
    return closed, skipped, log_dacm


def _in_range(p: np.ndarray) -> bool:
    """Every probability within PROB_RANGE_TOL of [0, 1]; False on a NaN."""
    return p.min() >= -PROB_RANGE_TOL and p.max() <= 1 + PROB_RANGE_TOL


def random_initial_povm(pattern: ParameterPattern, rng, scale: float = INIT_SCALE) -> Povm:
    """A valid interior starting POVM with m = N + 1 equal-weight elements:
    the N free elements (1 + a . sigma) / m with every a drawn from
    N(0, scale^2), redrawn until the design matrix passes the objective's own
    `singular_design` rule; ContractViolation unless 0 < scale < inf."""
    if not 0 < scale < math.inf:
        raise ContractViolation(f"initial scale must be positive and finite, got {scale}")
    basis = gell_mann_basis(pattern.dim)
    n_free = pattern.unknown_count
    m = n_free + 1
    for _ in range(INIT_MAX_TRIES):
        # one draw of N rows takes the same stream as N draws of a row
        A = rng.normal(0.0, scale, (n_free, basis.dim**2 - 1))
        # I + a . sigma of every element, tested here and scaled by 1/m below
        units = basis.expand(A) + basis.identity
        if not (linalg.spectra(units)[:, -1] > INIT_MIN_EIGENVALUE).all():
            continue
        try:
            pov = complete_povm((1.0 / m) * units)
        except ClosureNotPositive:
            continue
        # the design rows are a / m over the unknown directions; the rule is scale-free
        T = A[:, pattern.unknown_positions]
        if not singular_design(T, np.linalg.slogdet(T)[1]):
            return pov
    raise NumericalError(f"could not draw a valid initial POVM in {INIT_MAX_TRIES} tries")


class AnnealChain:
    """The chain between steps: its current and best states as (N, n^2) float
    arrays of coordinate rows (a0, a) (`state`, `best_state`; column 0 is the
    weight Tr E_j / n, columns 1: the direction a_j = Tr(E_j sigma) / a0_j)
    with their log DACM (`cur_log`, `best_log`), the run
    counters (`counts`, keyed by `RUN_COUNTERS`) and the row tables of each
    pinned-position mask (`rows`).  `basis` is the pattern's
    `gell_mann_basis`, kept for the helpers that take a basis and no pattern.

    Each step reuses `state` as the old side of its table.  `state` changes
    only when a move is accepted, and `best_state` only when a step lowers
    `best_log`; each then takes a copy of a row's columns of the step's table,
    an array that owns its data, so no table outlives its step.  `current` and
    `best` build their `Povm` from `state` and `best_state` on every read.
    """

    def __init__(
        self, config: AnnealConfig, initial: Povm, cluster: Cluster, pattern: ParameterPattern
    ):
        self.cluster, self.pattern = cluster, pattern
        self.basis = basis = gell_mann_basis(pattern.dim)
        self.rng = np.random.default_rng(config.rng_seed)
        n_free = pattern.unknown_count
        if initial.m != n_free + 1:
            raise ContractViolation(
                f"initial POVM has {initial.m} elements; {n_free} unknowns need {n_free + 1}"
            )
        # the chain keeps only the free elements and recomputes the closing
        # one, so an incomplete start would silently become another POVM
        violations = validate(initial)
        if violations:
            v = violations[0]
            raise ContractViolation(f"initial POVM is not valid: {v.name}, {v.detail}")
        # the start's rows give both its design matrix and its free elements;
        # a zero free element has a zero design row and raises SingularDesign
        # here, before its weight divides its row below into (a0, a); the log
        # domain keeps a start whose det T^2 underflows finite
        X = element_rows(initial.elements[:n_free], basis)
        self.cur_log = log_dacm(
            DesignMatrix(X[:, 1 + pattern.unknown_positions], X[:, 0]),
            averaged_covariance(initial, cluster, pattern),
        )
        self.best_log = self.cur_log
        X[:, 1:] /= X[:, :1]
        self.state = self.best_state = X
        self.rows = {}  # pinned-position mask -> VariantRows
        self.counts = dict.fromkeys(RUN_COUNTERS, 0)
        self.all_skipped_streak = 0

    @property
    def current(self) -> Povm:
        """The current POVM, built from `state`."""
        return coordinate_povm(self.state, self.basis)

    @property
    def best(self) -> Povm:
        """The best POVM seen, built from `best_state`."""
        return coordinate_povm(self.best_state, self.basis)

    def step(self, s: float, temp: float) -> None:
        """Perturb every free element at scale s, score the variants and walk
        them at temperature temp: one logistic draw per evaluated variant."""
        rng, basis, members = self.rng, self.basis, self.cluster.members
        counts = self.counts
        old = self.state
        new = old.copy()
        pinned = [False] * old.shape[0]
        for i, (c0, c) in enumerate(zip(old[:, 0].tolist(), old[:, 1:])):
            try:
                new[i, 0], new[i, 1:] = perturb_element(c0, c, s, rng, basis)
            except ResampleExhausted:  # keep the old element at a pinned position
                counts["resample_exhausted"] += 1
                pinned[i] = True
        pinned = tuple(pinned)
        rows = self.rows.get(pinned)
        if rows is None:
            rows = self.rows[pinned] = VariantRows.for_pinned(pinned)
        columns = np.concatenate([old, new])
        closed, skipped, log_dacm = score_variants(columns, rows, members, self.pattern)
        counts["variants_enumerated"] += closed.shape[0]
        counts["closure_rejected"] += closed.size - int(np.count_nonzero(closed))
        counts["skipped_variants"] += int(np.count_nonzero(skipped))
        moved_to = best_row = None
        evaluated = 0
        for v, cand_log in enumerate(log_dacm.tolist()):
            if cand_log != cand_log:  # NaN: not closed, or skipped
                continue
            evaluated += 1
            if cand_log < self.best_log:
                self.best_log, best_row = cand_log, v
            if logistic_accept(cand_log - self.cur_log, temp, rng):
                self.cur_log = cand_log
                counts["accepted"] += 1
                # row 0 takes every old element and is walked first, while the
                # current state is still the step's old state
                if v == 0:
                    counts["accepted_unchanged"] += 1
                moved_to = v
        # one gather per state: the step's last best and last accepted rows;
        # row 0's columns are already the state's own
        if best_row is not None:
            self.best_state = columns[rows.cols[best_row]]
        if moved_to:
            self.state = columns[rows.cols[moved_to]]
        self.all_skipped_streak = 0 if evaluated else self.all_skipped_streak + 1
        if self.all_skipped_streak >= MAX_ALL_SKIPPED_STEPS:
            raise NumericalError(
                f"every variant skipped for {MAX_ALL_SKIPPED_STEPS} consecutive steps"
            )


def anneal(
    config: AnnealConfig, initial: Povm, cluster: Cluster, pattern: ParameterPattern
) -> AnnealResult:
    """Run the annealing chain; fixed seed gives a bit-identical trace."""
    chain = AnnealChain(config, initial, cluster, pattern)
    trace = []
    for t in range(config.total_steps):
        s, temp = schedule(t)
        chain.step(s, temp)
        if t % config.trace_every == 0:
            mk = metrics(chain.current)
            trace.append(TraceRecord(t, chain.cur_log, mk.sigma, mk.delta, mk.Delta, temp, s))
    return AnnealResult(
        chain.best, chain.current, trace, _exp(chain.best_log), chain.best_log, **chain.counts
    )


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

"""Stochastic search over POVMs with Glauber acceptance.

Each step perturbs the coordinate form of all N free elements with Gaussian
noise (resampling any draw that leaves the positive region) and then scores
all 2^N old/new combinations at once: `score_variants` stacks their closing
elements for one batched `eigvalsh` closure check and computes the log DACM of
every closable combination with two stacked `slogdet` calls, the covariance
coming from the Gram matrix of the 2N old/new probability columns.  Only the
walk over the scored candidates is sequential: one logistic (Glauber) draw per
evaluated candidate at the current temperature.  The perturbation scale and
temperature decay geometrically; the temperature gets a multiplicative boost
every `reheat_every` steps to help the chain escape local optima.  The best
measurement seen (by raw objective) is tracked separately from the fluctuating
chain state.

The old side of a step's table is the chain's current state, which changes
only on an accepted move, so `AnnealChain` carries it between steps as
`FreeElements` (coordinates, element matrices, a0, the direction rows and the
probability columns over the cluster).  A step builds these arrays only for
the N perturbed elements, and an accepted move takes the accepted row's
columns of the step's table.  The row tables (`VariantRows`) depend only on
which positions are pinned and are built once per pinned mask in a run.
`evaluate_variants` builds both sides from coordinates and scores them the
same way.

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
)
from .statespace import Cluster

TRACE_HEADER = "step,log_dacm,sigma,delta,Delta,temperature,s"
PERTURB_PSD_TOL = 1e-10
MAX_ALL_SKIPPED_STEPS = 100
INIT_MAX_TRIES = 1000


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
    the old element because no positive draw was found.
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
        dim, k = basis.dim, basis.stack.shape[0]
        for c in coords:
            if c.a.shape != (k,):
                raise ContractViolation(
                    f"coordinate length {c.a.shape} does not match basis dim {dim}"
                )
        A = np.array([c.a for c in coords]).reshape(len(coords), k)
        a0 = np.array([c.a0 for c in coords], dtype=float)
        elements = (A @ basis.stack.reshape(k, dim * dim)).reshape(-1, dim, dim)
        elements += np.eye(dim)
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


@dataclass(frozen=True)
class VariantRows:
    """The variant rows of a step, which depend only on the pinned positions.

    Rows are lexicographic over the unpinned positions, the first most
    significant, bit 1 taking the perturbed element; `cols` holds each row's
    columns b * N + j of the 2N old/new table and `choose` their one-hot
    (2N, V) form.
    """

    choices: tuple  # per position (0,) when pinned, else (0, 1)
    bits: np.ndarray  # (V, N) choice vectors
    cols: np.ndarray  # (V, N)
    choose: np.ndarray  # (2N, V)

    @classmethod
    def for_pinned(cls, pinned) -> "VariantRows":
        n_free = len(pinned)
        free = np.flatnonzero(np.logical_not(pinned))
        bits = np.zeros((2**free.size, n_free), dtype=np.intp)
        bits[:, free] = np.arange(2**free.size)[:, None] >> np.arange(free.size)[::-1] & 1
        cols = bits * n_free + np.arange(n_free)
        choose = np.zeros((2 * n_free, bits.shape[0]))
        choose[cols, np.arange(bits.shape[0])[:, None]] = 1.0
        return cls(tuple((0,) if p else (0, 1) for p in pinned), bits, cols, choose)


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
    closing: np.ndarray  # (V, n, n) closing elements I - sum of the chosen E_j
    closed: np.ndarray  # (V,) closing element PSD at -PSD_CONSTRUCTION_TOL
    skipped: np.ndarray  # (V,) closed, but T singular or det W0 <= 0
    log_dacm: np.ndarray  # (V,) log det W0 - 2 log |det T|

    @property
    def bits(self) -> np.ndarray:
        """(V, N) choice vectors."""
        return self.rows.bits

    def free_elements(self, row: int) -> FreeElements:
        """The chosen free elements of one row."""
        return self.columns.take(self.rows.cols[row])

    def povm(self, row: int) -> Povm:
        """The POVM of one row: the chosen elements, then its closing element."""
        cols = self.rows.cols[row]
        elements = list(self.columns.elements[cols]) + [self.closing[row]]
        coords = [self.columns.coords[c] for c in cols.tolist()]
        return Povm(self.closing.shape[1], elements, coords)


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

    The closing elements are formed by subtracting the chosen elements from I
    in element order and Hermitian-averaging, exactly as `complete_povm` does,
    so they are bit-identical to its output.  Closed rows get the three
    probability-simplex checks of `averaged_covariance` (ContractViolation on
    a failure), T from a table of the 2N design rows and W0 = diag(colsum) -
    G restricted to the row's columns, where G is the Gram matrix of the 2N
    old/new probability columns over the cluster.  A row is skipped when
    log |det T| <= log(DESIGN_DET_FLOOR) + N log max|T_ij| or det W0 <= 0.
    """
    n_free = len(old.coords)
    columns = old.join(new)
    bits = rows.bits
    positions = np.arange(n_free)

    # I - E_1 - ... - E_N in element order, branching on each position's
    # choices: every row sees the subtractions of `complete_povm`, in its order
    dim = basis.dim
    closing = np.eye(dim, dtype=complex)[None]
    for i, options in enumerate(rows.choices):
        chosen = columns.elements[[b * n_free + i for b in options]]
        closing = (closing[:, None] - chosen[None]).reshape(-1, dim, dim)
    closing = (closing + closing.conj().transpose(0, 2, 1)) / 2.0
    with _typed_lapack_errors():
        closed = np.linalg.eigvalsh(closing)[:, 0] >= -PSD_CONSTRUCTION_TOL

    sel = rows.cols[closed]  # (Vc, N) columns of the 2N tables
    choose = rows.choose[:, closed]  # one-hot: column v picks row v's columns
    a0, A, probs = columns.a0, columns.A, columns.probs  # (2N,), (2N, n^2-1), (k, 2N)
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
    return VariantTable(rows, columns, closing, closed, skipped, log_dacm)


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
        self.current = initial
        self.best, self.best_log = initial, self.cur_log
        self.state = FreeElements.build(initial.coords, basis, cluster.members)
        self.rows = {}  # pinned-position mask -> VariantRows
        self.skipped = self.enumerated = self.rejected = self.exhausted = self.accepted = 0
        self.all_skipped_streak = 0

    def step(self, s: float, temp: float) -> None:
        """Perturb every free element at scale s, score the variants and walk
        them at temperature temp: one logistic draw per evaluated variant."""
        cfg = self.config
        news = []
        for c in self.current.coords:
            try:
                news.append(
                    perturb_element(
                        c, s, self.rng, self.basis,
                        max_resample=cfg.max_resample,
                        perturb_a0=cfg.perturb_a0,
                    )
                )
            except ResampleExhausted:
                self.exhausted += 1
                news.append(c)
        pinned = tuple(n is c for n, c in zip(news, self.current.coords))
        if pinned not in self.rows:
            self.rows[pinned] = VariantRows.for_pinned(pinned)
        new = FreeElements.build(news, self.basis, self.cluster.members)
        table = score_variants(
            self.state, new, self.rows[pinned], self.basis, self.cluster.members, self.pattern
        )
        self.enumerated += table.bits.shape[0]
        self.rejected += int(np.count_nonzero(~table.closed))
        row_skipped = table.skipped.tolist()
        row_log = table.log_dacm.tolist()
        evaluated = 0
        moved_to = None
        for v in np.flatnonzero(table.closed).tolist():
            if row_skipped[v]:
                self.skipped += 1
                continue
            evaluated += 1
            cand_log = row_log[v]
            cand = None
            if cand_log < self.best_log:
                cand = table.povm(v)
                self.best, self.best_log = cand, cand_log
            if logistic_accept(cand_log - self.cur_log, temp, self.rng):
                self.current = cand if cand is not None else table.povm(v)
                self.cur_log = cand_log
                self.accepted += 1
                moved_to = v
        if moved_to is not None:
            self.state = table.free_elements(moved_to)
        if evaluated == 0:
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

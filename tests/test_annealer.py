import itertools
import math
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from povm_lab import annealer, catalog, cli, linalg, objective, povm as pv, statespace
from povm_lab.basis import ParameterPattern, gell_mann_basis
from povm_lab.errors import (
    ConfigurationError,
    ContractViolation,
    NonPositiveObjective,
    NumericalError,
    ResampleExhausted,
    SingularDesign,
)
from povm_lab.objective import averaged_covariance, dacm, design_matrix

from conftest import coordinate_element, free_coordinates

# (a0, a) of each trine element (2/3) P_k = (1 + a_k . sigma) / 3
TRINE_COORDS = [
    (
        1 / 3,
        np.array(
            [np.sqrt(2) * np.cos(2 * np.pi * k / 3), np.sqrt(2) * np.sin(2 * np.pi * k / 3), 0.0]
        ),
    )
    for k in range(3)
]


def coordinate_rows(coords, basis):
    """The (N, n^2) coordinate rows (a0, a) of a list of (a0, a) pairs."""
    a0 = np.array([c[0] for c in coords], dtype=float)
    A = np.array([c[1] for c in coords], dtype=float).reshape(len(coords), basis.dim**2 - 1)
    return np.column_stack([a0, A])


def perturbed(coords, s, rng, basis):
    """`perturb_element` of each (a0, a) pair."""
    return [annealer.perturb_element(a0, a, s, rng, basis) for a0, a in coords]


def element_matrices(old, new, basis):
    """The element matrices of two aligned (a0, a) lists, one row at a time; a
    position where `new` is `old` gets the old matrix itself, which
    `enumerate_variants` pins."""
    mats_old = [coordinate_element(a0, a, basis) for a0, a in old]
    mats_new = [
        e if n is o else coordinate_element(*n, basis) for e, n, o in zip(mats_old, new, old)
    ]
    return mats_old, mats_new


def small_config(**kw):
    defaults = dict(total_steps=200, rng_seed=5, trace_every=10)
    defaults.update(kw)
    return annealer.AnnealConfig(**defaults)


def run_steps(chain, steps, s=None, temp=None):
    """`steps` steps of `chain` on `annealer.schedule`, at the fixed scale s
    or temperature temp where given."""
    for t in range(steps):
        scale, temperature = annealer.schedule(t)
        chain.step(scale if s is None else s, temperature if temp is None else temp)
    return chain


class TestAnnealConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="rng_seed"):
            small_config(rng_seed=-1)

    def test_schedule_underflow_rejected(self):
        # the temperature 0.999**t is 0.0 from t = 744761 on
        assert small_config(total_steps=744_761).total_steps == 744_761
        with pytest.raises(ConfigurationError, match="schedule underflows.*at step 744761"):
            small_config(total_steps=744_762)

    def test_schedule_decays_and_reheats(self):
        # s0 0.2, T0 1.0, reheat every 1000 steps by 5
        for t in (0, 1, 999, 1001):
            assert annealer.schedule(t) == (0.2 * 0.9995**t, 1.0 * 0.999**t)
        for t in (1000, 2000):
            assert annealer.schedule(t) == (0.2 * 0.9995**t, 1.0 * 0.999**t * 5.0)

    def test_trace_records_the_schedule(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(19)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=170), initial, qubit_cluster, qubit_pattern)
        assert [(r.s, r.temperature) for r in res.trace] == [
            annealer.schedule(r.step) for r in res.trace
        ]


class TestPerturbElement:
    @pytest.mark.parametrize("s", [0.0, -0.1, math.inf, math.nan])
    def test_bad_scale_rejected(self, basis2, s):
        c = np.array([0.2, 0.1, 0.0])
        with pytest.raises(ContractViolation, match="scale must be positive and finite"):
            annealer.perturb_element(0.3, c, s, np.random.default_rng(0), basis2)

    def test_vanishing_noise(self, basis2):
        rng = np.random.default_rng(0)
        c0, c = 0.3, np.array([0.2, 0.1, 0.0])
        a0, a = annealer.perturb_element(c0, c, 1e-12, rng, basis2)
        assert abs(a0 - c0) < 1e-10
        assert np.abs(a - c).max() < 1e-10

    def test_fixed_seed_determinism(self, basis2):
        c0, c = 0.3, np.array([0.2, 0.1, 0.0])
        one = annealer.perturb_element(c0, c, 0.1, np.random.default_rng(7), basis2)
        two = annealer.perturb_element(c0, c, 0.1, np.random.default_rng(7), basis2)
        assert one[0] == two[0]
        assert np.array_equal(one[1], two[1])

    def test_boundary_acceptance_fraction(self, basis2, monkeypatch):
        # element on the boundary of the positive region; success frequency of
        # single-draw direction perturbations must match an independent
        # estimate of the PSD acceptance region measured with a different seed
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 1)
        c0, c = TRINE_COORDS[0]
        s = 0.5
        successes = 0
        trials = 1000
        rng = np.random.default_rng(123)
        for _ in range(trials):
            try:
                annealer.perturb_element(c0, c, s, rng, basis2)
            except ResampleExhausted as exc:
                if "no PSD draw for a" in str(exc):
                    continue
            successes += 1  # the direction passed, whether or not a0 did
        observed = successes / trials
        oracle_rng = np.random.default_rng(456)
        draws = c + oracle_rng.normal(0.0, s, (20000, 3))
        # qubit closed form: I + a.sigma is PSD iff |a| <= sqrt(2)
        expected = float(np.mean(np.linalg.norm(draws, axis=1) <= np.sqrt(2.0)))
        assert abs(observed - expected) <= 0.05

    def test_resample_exhausted(self, basis2, monkeypatch):
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 3)
        rng = np.random.default_rng(1)
        with pytest.raises(ResampleExhausted):
            annealer.perturb_element(0.3, np.array([np.sqrt(2), 0.0, 0.0]), 50.0, rng, basis2)


    def test_minor_verdict_keeps_every_draw(self, basis2, basis3, monkeypatch):
        """Every result and the RNG stream are those of a run that sends every
        attempt to the diagonal check and `eigvalsh`."""
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 4)
        verdict = linalg.psd_verdict
        band = [0]

        def counting_verdict(entries, n, tol):
            yes, no = verdict(entries, n, tol)
            band[0] += not (yes or no)
            return yes, no

        starts = [(basis2, c) for c in TRINE_COORDS[:2]]
        starts += [(basis2, (0.3, np.array([0.2, 0.1, 0.0])))]
        starts += [(basis3, c) for c in _interior_qutrit_coords(0.0, 4, basis3)[:2]]
        starts += [(basis3, c) for c in _interior_qutrit_coords(0.3, 5, basis3)[:1]]

        def outcomes():
            out = []
            for basis, (c0, c) in starts:
                for s in (1e-12, 1e-6, 0.05, 0.5, 3.0):
                    for seed in range(8):
                        rng = np.random.default_rng(seed)
                        try:
                            a0, a = annealer.perturb_element(c0, c, s, rng, basis)
                            out.append((a0, tuple(a.tolist())))
                        except ResampleExhausted:
                            out.append("exhausted")
                        out.append(rng.random())  # where the stream stands
            return out

        monkeypatch.setattr(linalg, "psd_verdict", counting_verdict)
        decided = outcomes()
        assert band[0] > 0  # draws within 1e-12 of a rank-one element
        assert "exhausted" in decided
        monkeypatch.setattr(linalg, "psd_verdict", lambda entries, n, tol: (False, False))
        assert outcomes() == decided


@pytest.mark.invariants
class TestPerturbedCoordinates:
    """`perturb_element` returns bare (a0, a): every pair it returns has a
    positive finite a0 and a finite float64 direction of the input's shape."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3]),
        data=st.data(),
        a0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_checked_constructor_accepts_every_result(self, basis2, basis3, dim, data, a0, s, seed):
        basis = basis2 if dim == 2 else basis3
        a = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=dim**2 - 1,
                max_size=dim**2 - 1,
            )
        )
        a = np.array(a)
        rng = np.random.default_rng(seed)
        try:
            # near the float range the draws overflow on the way to being redrawn
            with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
                mp.setattr(annealer, "MAX_RESAMPLE", 5)
                out_a0, out_a = annealer.perturb_element(a0, a, s, rng, basis)
        except ResampleExhausted:
            return
        assert out_a.dtype == np.float64 and out_a.shape == a.shape
        assert 0 < out_a0 < math.inf and np.isfinite(out_a).all()

    def test_overflowing_draws_are_redrawn(self, basis2):
        """At a scale near the float range every draw is far outside the
        region or overflows; none is returned."""
        for seed in range(20):
            with pytest.raises(ResampleExhausted):
                with np.errstate(over="ignore", invalid="ignore"):
                    annealer.perturb_element(
                        0.3, np.zeros(3), 1e308, np.random.default_rng(seed), basis2
                    )


class TestEnumerateVariants:
    def test_degenerate_dedup(self, basis2):
        mats = element_matrices(TRINE_COORDS[:2], TRINE_COORDS[:2], basis2)
        out = annealer.enumerate_variants(*mats)
        assert len(out) == 1

    def test_closure_filter(self):
        big = [0.8 * np.eye(2), 0.8 * np.eye(2)]
        small = [0.25 * np.eye(2), 0.25 * np.eye(2)]
        out = annealer.enumerate_variants(small, big)
        # (0,0) keeps both small; any bit taking a 0.8-weight element breaks closure
        assert len(out) == 1
        assert out[0].m == 3

    def test_qutrit_variant_count(self, basis3, qutrit_pattern):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, rng, scale=0.03)
        olds = free_coordinates(initial, basis3)
        news = perturbed(olds, 0.005, rng, basis3)
        out = annealer.enumerate_variants(*element_matrices(olds, news, basis3))
        assert len(out) <= 64
        assert len(out) == 64  # tiny noise: every combination stays closable

    def test_all_valid_povms(self, basis2):
        rng = np.random.default_rng(4)
        news = perturbed(TRINE_COORDS[:2], 0.02, rng, basis2)
        for cand in annealer.enumerate_variants(*element_matrices(TRINE_COORDS[:2], news, basis2)):
            assert pv.validate(cand, 1e-9) == []

    def test_only_closure_failures_are_skipped(self, basis2, monkeypatch):
        def failing_completion(elements):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(annealer, "complete_povm", failing_completion)
        rng = np.random.default_rng(5)
        news = perturbed(TRINE_COORDS[:2], 0.02, rng, basis2)
        with pytest.raises(NumericalError):
            annealer.enumerate_variants(*element_matrices(TRINE_COORDS[:2], news, basis2))


class TestRandomInitialPovm:
    @pytest.mark.parametrize("scale", [-0.1, 0.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, qubit_pattern, scale):
        with pytest.raises(ContractViolation, match="initial scale must be positive and finite"):
            annealer.random_initial_povm(qubit_pattern, np.random.default_rng(0), scale)

    def test_retry_after_failed_design_check_keeps_scale(self, qubit_pattern, monkeypatch):
        class RecordingRng:
            def __init__(self):
                self.rng = np.random.default_rng(22)
                self.scales = []
                self.rows = 0

            def normal(self, loc, scale, size=None):
                self.scales.append(scale)
                draw = self.rng.normal(loc, scale, size)
                self.rows += draw.size // 3  # direction rows of n^2 - 1 = 3 coordinates
                return draw

        singular_design = annealer.singular_design
        calls = []

        def fail_first(T, log_abs_det):
            calls.append(T)
            return True if len(calls) == 1 else singular_design(T, log_abs_det)

        monkeypatch.setattr(annealer, "singular_design", fail_first)
        rng = RecordingRng()
        initial = annealer.random_initial_povm(qubit_pattern, rng, scale=0.03)
        assert len(calls) == 2  # one failed design check, then the retry passes
        assert rng.rows >= 2 * qubit_pattern.unknown_count
        assert rng.scales == [0.03] * len(rng.scales)
        assert pv.validate(initial, 1e-9) == []

    def test_gives_up_after_max_tries(self, qubit_pattern, monkeypatch):
        calls = []

        def always_singular(T, log_abs_det):
            calls.append(T)
            return True

        monkeypatch.setattr(annealer, "singular_design", always_singular)
        monkeypatch.setattr(annealer, "INIT_MAX_TRIES", 3)
        with pytest.raises(NumericalError, match="could not draw a valid initial POVM in 3 tries"):
            annealer.random_initial_povm(qubit_pattern, np.random.default_rng(0))
        assert len(calls) == 3


class TestGlauberAccept:
    def test_probability_half_at_equal(self):
        rng = np.random.default_rng(8)
        hits = sum(annealer.glauber_accept(3.0, 3.0, 0.7, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_saturation_accepts_much_better(self):
        rng = np.random.default_rng(9)
        assert annealer.logistic_probability(-10.0 / 0.01, 1.0) > 1 - 1e-6
        for _ in range(1000):
            assert annealer.glauber_accept(math.exp(-10.0), 1.0, 0.01, rng)

    def test_logistic_symmetry_exact(self):
        for delta in (0.1, 1.0, 5.0):
            total = annealer.logistic_probability(delta, 1.0) + annealer.logistic_probability(
                -delta, 1.0
            )
            assert total == 1.0

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ContractViolation):
            annealer.glauber_accept(-1.0, 1.0, 0.5, rng)
        with pytest.raises(ContractViolation):
            annealer.glauber_accept(1.0, 1.0, 0.0, rng)


class TestAnneal:
    def test_every_variant_skipped_too_long_is_a_numerical_error(
        self, qubit_pattern, qubit_cluster, monkeypatch
    ):
        score_variants = annealer.score_variants

        def all_skipped(columns, rows, members, pattern):
            closed, _, log_dacm = score_variants(columns, rows, members, pattern)
            return closed, closed.copy(), np.full_like(log_dacm, np.nan)

        monkeypatch.setattr(annealer, "score_variants", all_skipped)
        monkeypatch.setattr(annealer, "MAX_ALL_SKIPPED_STEPS", 3)
        initial = annealer.random_initial_povm(qubit_pattern, np.random.default_rng(11))
        chain = annealer.AnnealChain(small_config(), initial, qubit_cluster, qubit_pattern)
        chain.step(0.1, 1.0)
        chain.step(0.1, 1.0)
        with pytest.raises(NumericalError, match="every variant skipped for 3 consecutive steps"):
            chain.step(0.1, 1.0)

    def test_zero_steps(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(11)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=0), initial, qubit_cluster, qubit_pattern)
        assert res.trace == []
        assert_reads_start(res.best, initial)
        assert_same_povm(res.final, res.best)

    def test_fixed_seed_bit_identical(self, qubit_pattern, qubit_cluster):
        def run():
            rng = np.random.default_rng(12)
            initial = annealer.random_initial_povm(qubit_pattern, rng)
            return annealer.anneal(small_config(), initial, qubit_cluster, qubit_pattern)

        one, two = run(), run()
        assert one.best_dacm == two.best_dacm
        assert len(one.trace) == len(two.trace)
        for a, b in zip(one.trace, two.trace):
            assert a == b
        for ea, eb in zip(one.best.elements, two.best.elements):
            assert np.array_equal(ea, eb)

    @staticmethod
    def tiny_start_run(steps, pattern, cluster):
        """`cli`'s anneal at seed 0 from a start drawn at scale 1e-30: its
        |det T| is about 1e-185, above the floor, but its square underflows."""
        initial = annealer.random_initial_povm(pattern, np.random.default_rng([0, 1]), 1e-30)
        return annealer.anneal(annealer.AnnealConfig(total_steps=steps), initial, cluster, pattern)

    def test_tiny_scale_starts_from_inf(self, qutrit_pattern, qutrit_default_cluster):
        res = self.tiny_start_run(20, qutrit_pattern, qutrit_default_cluster)
        assert np.isfinite(res.trace[0].log_dacm) and np.isfinite(res.best_log_dacm)

    def test_tiny_scale_reports_the_finite_log_dacm(self, qutrit_pattern, qutrit_default_cluster):
        """A zero-step run's best is its start, whose DACM is inf:
        best_log_dacm is log det W0 - 2 log |det T| of that start."""
        res = self.tiny_start_run(0, qutrit_pattern, qutrit_default_cluster)
        assert res.best_dacm == math.inf
        assert abs(res.best_log_dacm - 865.5195577200096) <= 1e-9
        T = design_matrix(res.best, qutrit_pattern).T
        W0 = averaged_covariance(res.best, qutrit_default_cluster, qutrit_pattern).W0
        (sign_t, log_t), (sign_w, log_w) = np.linalg.slogdet(T), np.linalg.slogdet(W0)
        assert sign_t != 0 and sign_w > 0
        assert abs(res.best_log_dacm - (log_w - 2.0 * log_t)) <= 1e-9

    def test_best_improves(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(13)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=500), initial, qubit_cluster, qubit_pattern)
        first = math.exp(res.trace[0].log_dacm)
        assert res.best_dacm <= first


@pytest.mark.invariants
class TestInvariants:
    def test_every_povm_valid_along_run(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(14)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        config = small_config(total_steps=150)
        chain = annealer.AnnealChain(config, initial, qubit_cluster, qubit_pattern)
        for t in range(config.total_steps):
            chain.step(*annealer.schedule(t))
            for label, pov in (("current", chain.current), ("best", chain.best)):
                assert pv.validate(pov, 1e-9) == [], (label, t)

    def test_best_monotone_under_prefix_replay(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(15)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        values = []
        for steps in (0, 25, 50, 100, 200):
            res = annealer.anneal(
                small_config(total_steps=steps), initial, qubit_cluster, qubit_pattern
            )
            values.append(res.best_dacm)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_best_never_above_trace_minimum(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(16)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(
            small_config(total_steps=300, trace_every=1),
            initial,
            qubit_cluster,
            qubit_pattern,
        )
        assert res.best_dacm <= min(math.exp(r.log_dacm) for r in res.trace) + 1e-12

    def test_acceptance_frequency_at_fixed_temperature(self):
        rng = np.random.default_rng(17)
        hits = sum(annealer.glauber_accept(2.5, 2.5, 1.3, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_trace_quantities_finite(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(18)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=120), initial, qubit_cluster, qubit_pattern)
        assert res.trace
        for r in res.trace:
            for value in (r.log_dacm, r.sigma, r.delta, r.Delta, r.temperature, r.s):
                assert math.isfinite(value)


class TestTraceIO:
    def test_round_trip(self, tmp_path, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(19)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=60), initial, qubit_cluster, qubit_pattern)
        path = tmp_path / "trace.csv"
        annealer.write_trace(res.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == annealer.TRACE_HEADER
        assert [ln.split(",")[0] for ln in lines[1:]] == [str(r.step) for r in res.trace]
        # floats are written with repr, so a plain CSV reader recovers them exactly
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expected = [
            [r.step, r.log_dacm, r.sigma, r.delta, r.Delta, r.temperature, r.s] for r in res.trace
        ]
        assert np.array_equal(values, np.array(expected))


class Scored(NamedTuple):
    """One step's row table and (2N, n^2) coordinate table, and the three
    arrays `score_variants` returns for them."""

    rows: annealer.VariantRows
    columns: np.ndarray
    closed: np.ndarray
    skipped: np.ndarray
    log_dacm: np.ndarray


def evaluate_variants(old, new, basis, cluster, pattern):
    """The `Scored` table of two aligned (a0, a) lists, scored as an anneal
    step scores its sides: the coordinate rows of the old list, then the new,
    and the row table of the positions where `new` is `old`, then
    `score_variants`."""
    rows = annealer.VariantRows.for_pinned([n is o for n, o in zip(new, old)])
    columns = coordinate_rows(old + new, basis)
    return Scored(rows, columns, *annealer.score_variants(columns, rows, cluster.members, pattern))


def scalar_variants(old, new, basis, cluster, pattern):
    """(bits, closing element, skipped, log DACM) per closable variant, from the
    per-candidate path on element matrices: `enumerate_variants` and the scalar
    `design_matrix` and `dacm`."""
    out = []
    mats_old, mats_new = element_matrices(old, new, basis)
    for cand in annealer.enumerate_variants(mats_old, mats_new):
        # a Povm holds its own array, so a chosen old element is matched by value
        bits = tuple(int(not np.array_equal(e, o)) for e, o in zip(cand.elements, mats_old))
        try:
            d = dacm(
                design_matrix(cand, pattern),
                averaged_covariance(cand, cluster, pattern),
            )
        except (SingularDesign, NonPositiveObjective):
            out.append((bits, cand.elements[-1], True, None))
            continue
        out.append((bits, cand.elements[-1], False, math.log(d)))
    return out


def assert_matches_scalar(old, new, basis, cluster, pattern):
    table = evaluate_variants(old, new, basis, cluster, pattern)
    pinned = [n is o for n, o in zip(new, old)]
    candidates = [
        bits
        for bits in itertools.product((0, 1), repeat=len(old))
        if not any(b and p for b, p in zip(bits, pinned))
    ]
    bits = table.rows.bits
    assert [tuple(r) for r in bits.tolist()] == candidates
    expected = scalar_variants(old, new, basis, cluster, pattern)
    rows = np.flatnonzero(table.closed)
    elements = annealer.coordinate_elements(table.columns, basis)
    closing = pv.closing_elements(elements[table.rows.cols])
    for v in rows.tolist():
        chosen = list(elements[table.rows.cols[v]])
        assert np.array_equal(closing[v], pv.complete_povm(chosen).elements[-1])
    assert [tuple(bits[v].tolist()) for v in rows] == [e[0] for e in expected]
    for v, (_, want_closing, skipped, log_d) in zip(rows, expected):
        assert np.array_equal(closing[v], want_closing)
        assert table.skipped[v] == skipped
        if skipped:
            assert math.isnan(table.log_dacm[v])
        else:
            assert abs(table.log_dacm[v] - log_d) <= 1e-12
        free = table.columns[table.rows.cols[v]]
        assert np.array_equal(annealer.coordinate_povm(free, basis).elements[-1], want_closing)
        for x, o, n, b in zip(free, old, new, bits[v]):
            want = n if b else o
            assert x[0] == want[0] and np.array_equal(x[1:], want[1])
    assert not table.skipped[~table.closed].any()
    assert np.isnan(table.log_dacm[~table.closed]).all()
    return table


class TestEvaluateVariantsAgainstScalar:
    def test_qubit_trine(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(4)
        news = perturbed(TRINE_COORDS[:2], 0.02, rng, basis2)
        table = assert_matches_scalar(TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern)
        assert table.closed[0] and not table.closed.all()

    def test_qutrit_tiny_noise_all_valid(self, basis3, qutrit_pattern, qutrit_default_cluster):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, rng, scale=0.03)
        olds = free_coordinates(initial, basis3)
        news = perturbed(olds, 0.005, rng, basis3)
        table = assert_matches_scalar(olds, news, basis3, qutrit_default_cluster, qutrit_pattern)
        assert table.closed.sum() == 64 and not table.skipped.any()

    def test_qutrit_wider_noise(self, basis3, qutrit_pattern, qutrit_default_cluster):
        rng = np.random.default_rng(6)
        initial = annealer.random_initial_povm(qutrit_pattern, rng)
        olds = free_coordinates(initial, basis3)
        news = perturbed(olds, 0.1, rng, basis3)
        table = assert_matches_scalar(olds, news, basis3, qutrit_default_cluster, qutrit_pattern)
        assert 0 < table.closed.sum() < 64

    def test_pinned_positions(self, basis3, qutrit_pattern, qutrit_small_cluster):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, rng, scale=0.03)
        olds = free_coordinates(initial, basis3)
        news = perturbed(olds, 0.005, rng, basis3)
        news[1], news[4] = olds[1], olds[4]
        table = assert_matches_scalar(olds, news, basis3, qutrit_small_cluster, qutrit_pattern)
        assert table.rows.bits.shape == (16, 6)
        assert not table.rows.bits[:, [1, 4]].any()

    def test_every_position_pinned(self, basis2, qubit_pattern, qubit_cluster):
        table = assert_matches_scalar(
            TRINE_COORDS[:2], TRINE_COORDS[:2], basis2, qubit_cluster, qubit_pattern
        )
        assert table.rows.bits.tolist() == [[0, 0]]

    def test_closure_filter(self, basis2, qubit_pattern, qubit_cluster):
        big = [(0.8, np.zeros(3)), (0.8, np.zeros(3))]
        small = [(0.25, np.zeros(3)), (0.25, np.zeros(3))]
        table = assert_matches_scalar(small, big, basis2, qubit_cluster, qubit_pattern)
        assert table.closed.tolist() == [True, False, False, False]
        assert table.skipped[0]  # zero directions: T = 0

    def test_nothing_closed(self, basis2, qubit_pattern, qubit_cluster):
        big = [(0.6, np.zeros(3)), (0.6, np.zeros(3))]
        bigger = [(0.7, np.zeros(3)), (0.7, np.zeros(3))]
        table = assert_matches_scalar(big, bigger, basis2, qubit_cluster, qubit_pattern)
        assert table.rows.bits.shape == (4, 2) and not table.closed.any()

    def test_singular_design(self, basis2, qubit_pattern, qubit_cluster):
        news = [(1 / 3, np.zeros(3)), TRINE_COORDS[1]]
        table = assert_matches_scalar(TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern)
        assert table.closed[:2].all()
        assert table.skipped.tolist() == [False, True]

    @pytest.mark.parametrize("seed, s", [(6, 0.1), (7, 0.3), (8, 0.02)])  # 63, 27, 64 rows closed
    def test_minor_verdict_keeps_every_row(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch, seed, s
    ):
        """The table equals one whose closure is decided by `eigvalsh` on every row."""
        rng = np.random.default_rng(seed)
        initial = annealer.random_initial_povm(qutrit_pattern, rng)
        olds = free_coordinates(initial, basis3)
        news = perturbed(olds, s, rng, basis3)
        args = (olds, news, basis3, qutrit_small_cluster, qutrit_pattern)
        table = evaluate_variants(*args)
        mask = np.zeros(table.closed.shape, dtype=bool)
        monkeypatch.setattr(linalg, "psd_verdict", lambda e, n, tol: (mask.copy(), mask.copy()))
        forced = evaluate_variants(*args)
        assert table.closed.any()
        assert np.array_equal(forced.closed, table.closed)
        assert np.array_equal(forced.skipped, table.skipped)
        assert np.array_equal(forced.log_dacm, table.log_dacm, equal_nan=True)

    def test_member_outside_psd_region_raises(self, basis2, qubit_pattern, qubit_cluster):
        members = np.vstack([qubit_cluster.members, [[3.0, 0.0, 0.0]]])
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        rng = np.random.default_rng(4)
        news = perturbed(TRINE_COORDS[:2], 0.02, rng, basis2)
        with pytest.raises(ContractViolation):
            scalar_variants(TRINE_COORDS[:2], news, basis2, cluster, qubit_pattern)
        with pytest.raises(ContractViolation, match="probability"):
            evaluate_variants(TRINE_COORDS[:2], news, basis2, cluster, qubit_pattern)

    def test_nan_weight_is_a_typed_failure(self, basis2, qubit_pattern, qubit_cluster):
        # not a silently rejected variant
        with pytest.raises((ContractViolation, NumericalError)):
            news = [(math.nan, TRINE_COORDS[0][1]), TRINE_COORDS[1]]
            evaluate_variants(
                TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern
            )


class TestProbabilityChecks:
    """A closed row whose probabilities leave the simplex raises
    ContractViolation naming that row, whichever check it fails."""

    def interior_step(self, basis2, qubit_pattern, qubit_cluster):
        """A qubit step from an interior POVM: its coordinate table and rows,
        of which the all-old row (0, 0) is closed."""
        rng = np.random.default_rng(4)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        olds = free_coordinates(initial, basis2)
        news = perturbed(olds, 0.02, rng, basis2)
        columns = coordinate_rows(olds + news, basis2)
        rows = annealer.VariantRows.for_pinned([False, False])
        closed, _, _ = annealer.score_variants(columns, rows, qubit_cluster.members, qubit_pattern)
        assert closed[0]
        return columns, rows

    def test_closing_column_alone_out_of_range(self, basis2, qubit_pattern, qubit_cluster):
        # theta along a_1 + a_2, outside the Bloch ball (|theta| = 1 > 1/sqrt 2):
        # p_1 = p_2 = (1 + 1/sqrt 2)/3 stay in range, p_3 = (1 - sqrt 2)/3 < 0
        a1, a2 = TRINE_COORDS[0][1], TRINE_COORDS[1][1]
        theta = (a1 + a2) / np.linalg.norm(a1 + a2)
        free = [a0 * (1 + theta @ a) for a0, a in TRINE_COORDS[:2]]
        assert all(0 <= p <= 1 for p in free)
        members = np.vstack([qubit_cluster.members, theta])
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        message = f"variant (0, 0): min {(1 - np.sqrt(2)) / 3:.3e}, max"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            evaluate_variants(
                TRINE_COORDS[:2], TRINE_COORDS[:2], basis2, cluster, qubit_pattern
            )

    def test_sum_deviation(self, basis2, qubit_pattern, qubit_cluster, monkeypatch):
        # the columns come from (a0, A) in `score_variants` itself, so a row
        # sums to 1 up to rounding; a negative tolerance makes every closed
        # row fail the sum check, and the first names row (0, 0)
        columns, rows = self.interior_step(basis2, qubit_pattern, qubit_cluster)
        monkeypatch.setattr(annealer, "PROB_SUM_TOL", -1.0)
        monkeypatch.setattr(objective, "PROB_SUM_TOL", -1.0)
        with pytest.raises(ContractViolation, match=re.escape("variant (0, 0)")) as info:
            annealer.score_variants(columns, rows, qubit_cluster.members, qubit_pattern)
        dev = float(str(info.value).rsplit(" ", 1)[1])
        assert 0.0 <= dev < 1e-12

    def test_nan_probability(self, basis2, qubit_pattern, qubit_cluster):
        columns, rows = self.interior_step(basis2, qubit_pattern, qubit_cluster)
        members = qubit_cluster.members.copy()
        members[3, 0] = math.nan  # every column is NaN there: row (0, 0) is closed and takes it
        with pytest.raises(ContractViolation, match=re.escape("variant (0, 0): min nan")):
            annealer.score_variants(columns, rows, members, qubit_pattern)


    def test_unclosed_rows_columns_are_not_checked(
        self, basis2, qubit_pattern, qubit_cluster, monkeypatch
    ):
        """A perturbed column out of range (p = 1.2 at every member) that only
        unclosed rows take builds no per-row table for `check_simplex`; with a
        negative sum tolerance the same table falls back to it once."""
        old = [(0.3, [0.5, 0.0, 0.0]), (0.3, [0.0, 0.5, 0.0])]
        new = [(1.2, [0.0, 0.0, 0.0]), (0.3, [0.1, 0.0, 0.0])]
        columns = coordinate_rows(old + new, basis2)
        rows = annealer.VariantRows.for_pinned([False, False])
        calls = []

        def counted(p, name):
            calls.append(p.shape)
            return check_simplex(p, name)

        check_simplex = annealer.check_simplex
        monkeypatch.setattr(annealer, "check_simplex", counted)
        closed, _, _ = annealer.score_variants(
            columns, rows, qubit_cluster.members, qubit_pattern
        )
        assert closed.tolist() == [True, True, False, False]
        assert calls == []
        monkeypatch.setattr(annealer, "PROB_SUM_TOL", -1.0)
        monkeypatch.setattr(objective, "PROB_SUM_TOL", -1.0)
        with pytest.raises(ContractViolation, match=re.escape("variant (0, 0)")):
            annealer.score_variants(columns, rows, qubit_cluster.members, qubit_pattern)
        assert calls == [(2, qubit_cluster.size, 3)]


class TestSingularityRule:
    """`objective.log_dacm` raises exactly on the rows `score_variants` skips,
    for T and W0 gathered bit for bit as the step gathers them, and
    `objective.singular_design` on one T's own `slogdet`, as the anneal's
    start applies it, and `objective.estimate_state` find T singular exactly
    where `log_dacm` raises SingularDesign."""

    def assert_rule_shared(self, columns, members, pattern):
        rows = annealer.VariantRows.for_pinned([False] * (columns.shape[0] // 2))
        closed, skipped, _ = annealer.score_variants(columns, rows, members, pattern)
        assert closed.all()
        a0, A = columns[:, 0], columns[:, 1:]
        design = (a0[:, None] * A)[:, pattern.unknown_positions]
        probs = (1.0 + members @ A.T) * a0
        gram = probs.T @ probs
        table_w = np.diag(probs.sum(axis=0)) - (gram + gram.T) / 2.0
        for v, cols in enumerate(rows.cols):
            T = design[cols]
            W0 = table_w[np.ix_(cols, cols)]
            raised = None
            try:
                objective.log_dacm(
                    objective.DesignMatrix(T, a0[cols]),
                    objective.AveragedCovariance(W0, members.shape[0]),
                )
            except (SingularDesign, NonPositiveObjective) as exc:
                raised = type(exc)
            assert (raised is not None) == skipped[v], v
            singular = objective.singular_design(T, np.linalg.slogdet(T)[1])
            assert singular == (raised is SingularDesign), v
            design_v = objective.DesignMatrix(T, a0[cols])
            try:
                objective.estimate_state(np.zeros_like(design_v.a0s), design_v)
                estimate_raised = False
            except SingularDesign:
                estimate_raised = True
            assert estimate_raised == (raised is SingularDesign), v
        return skipped.tolist()

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_design_floor(self, basis2, qubit_pattern, qubit_cluster, side):
        """Rows (0, 1) and (1, 0) have |det T| = 0.045 y and 0.045 x, with
        max |T_ij| = 0.15: a relative 1e-9 below or above the floor
        1e-12 * 0.15^2."""
        edge = 1e-12 * 0.15**2 / 0.045
        below, above = edge * (1 - 1e-9), edge * (1 + 1e-9)
        y, x = (below, above) if side < 0 else (above, below)
        old = [(0.3, [0.5, 0.0, 0.0]), (0.3, [0.0, 0.5, 0.0])]
        new = [(0.3, [x, 0.5, 0.0]), (0.3, [0.5, y, 0.0])]
        columns = coordinate_rows(old + new, basis2)
        skipped = self.assert_rule_shared(columns, qubit_cluster.members, qubit_pattern)
        assert skipped == ([False, True, False, False] if side < 0 else [False, False, True, False])

    def test_covariance_sign(self, basis2, qubit_pattern):
        """At the one pure state theta = (1/2, 1/2, 0), element 0 of the old
        side has probability exactly 0, so det W0 = 0 on the rows that take
        it; the perturbed element 0 has probability 1.25e-7 and det W0 > 0."""
        members = np.array([[0.5, 0.5, 0.0]])
        old = [(0.25, [-1.0, -1.0, 0.0]), (0.25, [1.0, -1.0, 0.0])]
        new = [(0.25, [-1.0, -1.0 + 1e-6, 0.0]), (0.25, [1.0, -0.9, 0.0])]
        skipped = self.assert_rule_shared(coordinate_rows(old + new, basis2), members, qubit_pattern)
        assert skipped == [True, True, False, False]


def _cli_anneal(tmp_path, dim, known, steps, seed):
    cfg_path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg_path.write_text(
        f"mode = anneal\ndim = {dim}\n"
        f"pattern.known_indices = {','.join(str(i) for i in known)}\n"
        f"pattern.known_values = {','.join('0.0' for _ in known)}\n"
        f"anneal.total_steps = {steps}\nanneal.seed = {seed}\noutput.dir = {out}\n"
    )
    assert cli.main(["anneal", "--config", str(cfg_path)]) == 0
    report = {}
    for line in (out / "report.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) == 2:
            report[parts[0]] = parts[1]
    return report


_RUN_COUNTERS = ("variants_enumerated", "closure_rejected", "accepted", "accepted_unchanged")


class TestReferenceChains:
    """log_dacm_best and the run counters of fixed-seed CLI runs on the
    default grids; `closure_rejected` counts the variants whose closing element
    was decided not PSD."""

    @pytest.mark.parametrize(
        "seed, want, counters",
        [
            (0, 4.816817053001229, (12000, 3581, 2703, 1487)),
            (1, 4.795281501711681, (12000, 3524, 2755, 1513)),
        ],
        ids=["seed0", "seed1"],
    )
    def test_qubit_3000_steps(self, tmp_path, seed, want, counters):
        report = _cli_anneal(tmp_path, 2, [3], 3000, seed)
        assert abs(float(report["log_dacm_best"]) - want) <= 1e-8
        assert tuple(int(report[k]) for k in _RUN_COUNTERS) == counters

    @pytest.mark.parametrize(
        "seed, want, counters",
        [
            (0, 39.05480225974043, (32000, 25444, 1642, 260)),
            (1, 39.607308261141874, (32000, 25670, 1522, 239)),
        ],
        ids=["seed0", "seed1"],
    )
    def test_qutrit_500_steps(self, tmp_path, seed, want, counters):
        report = _cli_anneal(tmp_path, 3, [7, 8], 500, seed)
        assert abs(float(report["log_dacm_best"]) - want) <= 1e-8
        assert tuple(int(report[k]) for k in _RUN_COUNTERS) == counters
        assert counters[0] > counters[1] + int(report["skipped_variants"])

    def test_unchanged_acceptances_match_the_walk(self, tmp_path, monkeypatch):
        """`accepted_unchanged` at qutrit seed 0 over 500 steps equals the
        acceptances of the all-old row 0 as a step's first draw, counted by
        wrapping the scoring and the walk's draws."""
        score, accept = annealer.score_variants, annealer.logistic_accept
        first_draw_is_row0 = [False]
        counted = [0]

        def scoring(columns, rows, *args):
            scores = score(columns, rows, *args)
            closed, skipped, _ = scores
            assert not rows.bits[0].any()
            first_draw_is_row0[0] = bool(closed[0] and not skipped[0])
            return scores

        def drawing(delta, temperature, rng):
            accepted = accept(delta, temperature, rng)
            counted[0] += first_draw_is_row0[0] and accepted
            first_draw_is_row0[0] = False
            return accepted

        monkeypatch.setattr(annealer, "score_variants", scoring)
        monkeypatch.setattr(annealer, "logistic_accept", drawing)
        report = _cli_anneal(tmp_path, 3, [7, 8], 500, 0)
        assert abs(float(report["log_dacm_best"]) - 39.05480225974043) <= 1e-8
        assert int(report["accepted_unchanged"]) == counted[0] > 0
        assert counted[0] <= int(report["accepted"])

    def test_dim4_seed0_300_steps(self, tmp_path):
        """Every dim-4 closing element is left in `psd_verdict`'s band, so each
        closure of this chain is decided on matrices built from the 2N-row
        element product."""
        report = _cli_anneal(tmp_path, 4, [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14], 300, 0)
        assert abs(float(report["log_dacm_best"]) - 7.872349263304899) <= 1e-8
        assert int(report["closure_rejected"]) > 0


def reference_scores(columns, rows, basis, members, pattern):
    """(closed, skipped, log_dacm) of one step's rows, built the way the step
    built them before its single T/W0 gather: closure by `eigvalsh` on every
    row's closing matrix; T as `weighted[:, unknown][cols]`; W0 as the row's
    block of diag(colsum) - (G + G^T)/2, gathered through flat pair indices;
    one `slogdet` on the concatenation of the T and W0 stacks."""
    n_free = columns.shape[0] // 2
    a0, A = columns[:, 0], columns[:, 1:]
    closing = pv.closing_elements(annealer.coordinate_elements(columns, basis)[rows.cols])
    closed = np.linalg.eigvalsh(closing)[:, 0] >= -linalg.PSD_TOL
    skipped = np.zeros(closed.shape, dtype=bool)
    log_dacm = np.full(closed.shape, np.nan)
    if not closed.any():
        return closed, skipped, log_dacm
    cols = rows.cols[closed]
    weighted = a0[:, None] * A
    T = weighted[:, [i - 1 for i in pattern.unknown_indices]][cols]
    probs = (1.0 + members @ A.T) * a0
    gram = probs.T @ probs
    pairs = cols[:, :, None] * (2 * n_free) + cols[:, None, :]
    W0 = (np.diag(probs.sum(axis=0)) - (gram + gram.T) / 2.0).take(pairs)
    sign, log_det = np.linalg.slogdet(np.concatenate([T, W0]))
    n_closed = cols.shape[0]
    log_det_t, sign_w, log_det_w = log_det[:n_closed], sign[n_closed:], log_det[n_closed:]
    t_max = np.abs(T).max(axis=(1, 2))
    floor = objective.LOG_DESIGN_DET_FLOOR + n_free * np.log(t_max + (t_max == 0.0))
    skip = (log_det_t <= floor) | (sign_w <= 0)
    skipped[closed] = skip
    log_dacm[closed] = np.where(skip, np.nan, log_det_w - 2.0 * log_det_t)
    return closed, skipped, log_dacm


class TestFlatGatherOracle:
    """Every step's `closed`, `skipped` and `log_dacm` are bit-identical to
    `reference_scores` on the same inputs, on whole chains."""

    def checked(self, monkeypatch):
        """Wrap `score_variants` with the comparison; returns the list of the
        row counts of the steps it checked."""
        score = annealer.score_variants
        checked = []

        def checking_score(columns, rows, members, pattern):
            scores = score(columns, rows, members, pattern)
            basis = gell_mann_basis(pattern.dim)
            closed, skipped, log_dacm = reference_scores(columns, rows, basis, members, pattern)
            step = len(checked)
            assert np.array_equal(scores[0], closed), step
            assert np.array_equal(scores[1], skipped), step
            assert np.array_equal(scores[2], log_dacm, equal_nan=True), step
            checked.append(rows.bits.shape[0])
            return scores

        monkeypatch.setattr(annealer, "score_variants", checking_score)
        return checked

    @pytest.mark.parametrize(
        "dim, known, steps",
        [
            (2, [3], 3000),  # the benchmark's qubit-anneal config
            (3, [7, 8], 500),  # the benchmark's qutrit-anneal config
            (2, [2, 3], 1000),  # one unknown: T and W0 are 1 x 1
            # every dim-4 closing element is in the verdict's band
            (4, [i for i in range(1, 16) if i not in (3, 12, 15)], 300),
        ],
        ids=["qubit", "qutrit", "qubit-one-unknown", "dim4"],
    )
    def test_cli_chain(self, tmp_path, monkeypatch, dim, known, steps):
        checked = self.checked(monkeypatch)
        report = _cli_anneal(tmp_path, dim, known, steps, 0)
        assert len(checked) == steps
        assert int(report["closure_rejected"]) < int(report["variants_enumerated"])

    def test_pinned_masks(self, qutrit_pattern, qutrit_small_cluster, monkeypatch):
        checked = self.checked(monkeypatch)
        rng = np.random.default_rng(7)
        initial = annealer.random_initial_povm(qutrit_pattern, rng)
        chain = annealer.AnnealChain(small_config(), initial, qutrit_small_cluster, qutrit_pattern)
        # the first steps draw at the default budget, so they score all 2^N
        # rows; the rest exhaust it often and pin positions
        run_steps(chain, 5, s=0.3)
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 1)
        run_steps(chain, 55, s=0.3)
        assert len(checked) == 60 and chain.counts["resample_exhausted"] > 0
        # steps with pinned positions score fewer than 2^N rows
        assert min(checked) < 64 and max(checked) == 64


class TestRunCounters:
    def test_every_variant_accounted_for(self, qubit_pattern, qubit_cluster, monkeypatch):
        draws = []

        def counting_accept(delta, temperature, rng):
            accepted = annealer.logistic_probability(delta, temperature) > rng.random()
            draws.append(accepted)
            return accepted

        monkeypatch.setattr(annealer, "logistic_accept", counting_accept)
        rng = np.random.default_rng(20)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=150), initial, qubit_cluster, qubit_pattern)
        assert res.variants_enumerated == res.closure_rejected + res.skipped_variants + len(draws)
        assert res.accepted == sum(draws) > 0
        assert res.closure_rejected > 0
        assert res.best_log_dacm <= min(r.log_dacm for r in res.trace)
        assert res.best_dacm == math.exp(res.best_log_dacm)

    def test_unchanged_acceptances_are_accepted(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(20)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=150), initial, qubit_cluster, qubit_pattern)
        assert 0 < res.accepted_unchanged <= res.accepted

    def test_resample_exhaustion_counted(self, qubit_pattern, qubit_cluster, monkeypatch):
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 1)
        rng = np.random.default_rng(21)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        chain = annealer.AnnealChain(small_config(), initial, qubit_cluster, qubit_pattern)
        counts = run_steps(chain, 40, s=3.0).counts
        assert counts["resample_exhausted"] > 0
        # an exhausted position is pinned, so a step enumerates fewer than 2^N rows
        assert counts["variants_enumerated"] < 40 * 4

    def test_zero_steps_counts_nothing(self, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(11)
        initial = annealer.random_initial_povm(qubit_pattern, rng)
        res = annealer.anneal(small_config(total_steps=0), initial, qubit_cluster, qubit_pattern)
        assert (res.variants_enumerated, res.closure_rejected, res.accepted) == (0, 0, 0)
        assert_reads_start(res.best, initial)
        assert res.best_dacm == math.exp(res.best_log_dacm)


class TestPsdDecisions:
    @pytest.mark.parametrize("s", [0.15, 1.0])
    def test_eigvalsh_only_in_the_band(self, qutrit_pattern, qutrit_small_cluster, monkeypatch, s):
        """A qutrit anneal step calls `eigvalsh` only for matrices that
        `psd_verdict` leaves in its band."""
        eigvalsh, verdict = np.linalg.eigvalsh, linalg.psd_verdict
        calls, decided, band = [0], [0], [0]

        def counting_eigvalsh(a):
            calls[0] += 1
            return eigvalsh(a)

        def counting_verdict(entries, n, tol):
            yes, no = verdict(entries, n, tol)
            undecided = np.count_nonzero(np.logical_not(np.logical_or(yes, no)))
            band[0] += int(undecided)
            decided[0] += np.size(yes) - int(undecided)
            return yes, no

        rng = np.random.default_rng(9)
        initial = annealer.random_initial_povm(qutrit_pattern, rng)
        chain = annealer.AnnealChain(small_config(), initial, qutrit_small_cluster, qutrit_pattern)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(linalg, "psd_verdict", counting_verdict)
        run_steps(chain, 100, s=s)
        assert decided[0] > 100 * 64
        assert calls[0] <= band[0]


def assert_same_povm(pov, want):
    """Bit-for-bit equal elements."""
    assert pov.dim == want.dim and pov.m == want.m
    for e, f in zip(pov.elements, want.elements):
        assert e.dtype == f.dtype and e.shape == f.shape and e.tobytes() == f.tobytes()


def assert_reads_start(pov, initial):
    """`pov` is a chain's start read off `initial`: its free elements rebuilt
    from their `element_rows` (a0, a), equal to initial's within a few ulps."""
    assert pov.dim == initial.dim and pov.m == initial.m
    assert np.abs(np.array(pov.elements) - np.array(initial.elements)).max() <= 1e-15


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_chain_rejects_wrong_length_coords(basis2, qubit_pattern, qubit_cluster, change):
    """A start whose elements are one row and column short or long for the
    basis has no (a0, a) of the basis' length, and is rejected."""
    n = basis2.dim + change
    bad = pv.Povm([np.eye(n) / 3.0] * 3)
    with pytest.raises(ContractViolation, match="expected a stack of 2 x 2 elements"):
        annealer.AnnealChain(small_config(), bad, qubit_cluster, qubit_pattern)


class TestChainStart:
    """A chain starts from any valid POVM with m = N + 1 elements, read from
    its element matrices alone."""

    @staticmethod
    def cluster(pattern, basis):
        spec = statespace.GridSpec(7, pattern)
        return statespace.select_cluster(
            statespace.cluster_states(statespace.generate_grid(spec), 10, basis)
        )

    @pytest.mark.parametrize(
        "dim, known",
        [(2, {2: 0.0, 3: 0.0}), (4, {i: 0.0 for i in range(1, 16) if i not in (3, 15)})],
        ids=["trine-one-unknown", "diag-units-two-unknowns"],
    )
    def test_wrong_element_count_rejected(self, dim, known):
        basis = gell_mann_basis(dim)
        pattern = ParameterPattern.from_known(dim, known)
        P = catalog.qubit_trine() if dim == 2 else catalog.diag_units_dim4()
        n_free = pattern.unknown_count
        message = f"{P.m} elements; {n_free} unknowns need {n_free + 1}"
        with pytest.raises(ContractViolation, match=message):
            annealer.AnnealChain(small_config(), P, self.cluster(pattern, basis), pattern)

    def test_incomplete_start_rejected(self, basis2, qubit_pattern, qubit_cluster):
        """Elements summing to I + 0.01 sigma_z pass the cluster's probability
        checks (z is known to be 0), but are not a POVM."""
        initial = annealer.random_initial_povm(qubit_pattern, np.random.default_rng(1))
        elements = [*initial.elements[:-1], initial.elements[-1] + 0.01 * basis2.element(3)]
        bad = pv.Povm(elements)
        with pytest.raises(ContractViolation, match="not valid: completeness"):
            annealer.AnnealChain(small_config(), bad, qubit_cluster, qubit_pattern)

    def test_diag_units_start_on_default_dim4_pattern(self, basis4, dim4_diag_unknown_pattern):
        """The four diagonal units are N + 1 = 4 elements for the default
        dim-4 pattern's unknowns 3, 12, 15: a valid start at their own DACM."""
        pattern = dim4_diag_unknown_pattern
        units = catalog.diag_units_dim4()
        cluster = self.cluster(pattern, basis4)
        chain = annealer.AnnealChain(small_config(), units, cluster, pattern)
        want = dacm(
            design_matrix(units, pattern),
            averaged_covariance(units, cluster, pattern),
        )
        assert chain.cur_log == chain.best_log == math.log(want)
        assert_reads_start(chain.current, units)

    def test_nan_member_fails_at_start(self, trine, qubit_pattern, qubit_cluster):
        """Not a chain that starts from a log DACM of NaN."""
        members = qubit_cluster.members.copy()
        members[1, 0] = math.nan
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        with pytest.raises(ContractViolation, match=re.escape("cluster member 1: min nan")):
            annealer.AnnealChain(small_config(), trine, cluster, qubit_pattern)

    def test_zero_free_element_is_singular(self, trine, qubit_pattern, qubit_cluster):
        """A zero free element has the zero design row: SingularDesign from
        `dacm` before its weight divides its row, with no RuntimeWarning."""
        projection = 1.5 * trine.elements[0]
        P = pv.Povm([np.zeros((2, 2)), projection, np.eye(2) - projection])
        assert pv.validate(P) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularDesign):
                annealer.AnnealChain(small_config(), P, qubit_cluster, qubit_pattern)

    def test_catalog_qutrit_csic_keeps_its_dacm(
        self, qutrit_csic, qutrit_pattern, qutrit_default_cluster
    ):
        """From the catalog's conditional SIC, a cold chain's best stays that
        POVM's own log DACM, 31.2167096389588."""
        own = math.log(
            dacm(
                design_matrix(qutrit_csic, qutrit_pattern),
                averaged_covariance(qutrit_csic, qutrit_default_cluster, qutrit_pattern),
            )
        )
        assert abs(own - 31.2167096389588) <= 1e-9
        chain = annealer.AnnealChain(
            annealer.AnnealConfig(), qutrit_csic, qutrit_default_cluster, qutrit_pattern
        )
        run_steps(chain, 200, temp=1e-3)
        assert abs(chain.best_log - own) <= 1e-9
        assert chain.counts["accepted"] > 0

    def test_file_round_trip_start(self, tmp_path, qubit_pattern, qubit_cluster):
        """A start read back from `write_povm`'s file runs the same chain as
        the POVM itself."""
        initial = annealer.random_initial_povm(qubit_pattern, np.random.default_rng(23))
        pv.write_povm(initial, tmp_path / "start.txt")
        loaded = pv.read_povm(tmp_path / "start.txt")
        config = small_config(total_steps=150)
        one, two = (
            annealer.anneal(config, P, qubit_cluster, qubit_pattern)
            for P in (initial, loaded)
        )
        assert one.best_log_dacm == two.best_log_dacm
        counters = [(getattr(one, k), getattr(two, k)) for k in annealer.RUN_COUNTERS]
        assert all(a == b for a, b in counters) and one.accepted > 0


def test_no_table_outlives_its_step(qutrit_pattern, qutrit_small_cluster):
    """After every step neither state is a view of the step's coordinate
    table, also when the step found a new best."""
    initial = annealer.random_initial_povm(qutrit_pattern, np.random.default_rng(7))
    config = small_config(total_steps=30)
    chain = annealer.AnnealChain(config, initial, qutrit_small_cluster, qutrit_pattern)
    new_bests = 0
    for t in range(config.total_steps):
        best_log = chain.best_log
        chain.step(*annealer.schedule(t))
        new_bests += chain.best_log < best_log
        assert chain.state.base is None and chain.best_state.base is None, t
    assert new_bests > 0


class TestCarriedState:
    """The chain carries only its (N, n^2) coordinate rows from step to step,
    and the POVMs it builds on read are those of its start and of its accepted
    and best table rows."""

    def run_chain(self, monkeypatch, basis, pattern, cluster, s=None):
        """60 steps on `annealer.schedule`, at the fixed scale s when given."""
        tables, draws = [], []
        score, accept = annealer.score_variants, annealer.logistic_accept

        def recording_score(columns, rows, *args):
            tables.append((columns, rows, score(columns, rows, *args)))
            return tables[-1][2]

        def recording_accept(*args):
            draws.append(accept(*args))
            return draws[-1]

        monkeypatch.setattr(annealer, "score_variants", recording_score)
        monkeypatch.setattr(annealer, "logistic_accept", recording_accept)
        rng = np.random.default_rng(7)
        initial = annealer.random_initial_povm(pattern, rng)
        chain = annealer.AnnealChain(small_config(), initial, cluster, pattern)
        assert_reads_start(chain.current, initial)
        assert_same_povm(chain.best, chain.current)
        want_current = want_best = chain.current
        moved = stayed = 0  # steps that changed the state, steps that kept it
        shared = 0  # steps whose best row is also their last accepted row
        for t in range(60):
            before, best_log = chain.state, chain.best_log
            draws.clear()
            scale, temp = annealer.schedule(t)
            chain.step(scale if s is None else s, temp)
            state = chain.state
            changed = not np.array_equal(before, state)
            moved += changed
            stayed += not changed
            assert state.dtype == float and state.shape == (pattern.unknown_count, basis.dim**2)
            elements = annealer.coordinate_elements(state, basis)
            assert np.array_equal(elements, np.array(chain.current.elements[:-1]))

            # the walk draws once per evaluated row, in row order
            columns, rows, (_, _, log_dacm) = tables[-1]
            evaluated = np.flatnonzero(~np.isnan(log_dacm)).tolist()
            assert len(draws) == len(evaluated)
            accepted = [v for v, took in zip(evaluated, draws) if took]
            best_row = None
            if chain.best_log < best_log:
                best_row = int(np.nanargmin(log_dacm))
                assert log_dacm[best_row] == chain.best_log
                want_best = annealer.coordinate_povm(columns[rows.cols[best_row]], basis)
            if accepted:
                want_current = annealer.coordinate_povm(columns[rows.cols[accepted[-1]]], basis)
                shared += accepted[-1] == best_row
            assert_same_povm(chain.current, want_current)
            assert_same_povm(chain.best, want_best)
        return chain, moved, stayed, shared

    def test_accepted_and_rejected_moves(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch
    ):
        _, moved, stayed, shared = self.run_chain(
            monkeypatch, basis3, qutrit_pattern, qutrit_small_cluster
        )
        assert moved > 0 and stayed > 0
        assert shared > 0  # a step where the best row is the accepted row

    def test_qubit_chain(self, basis2, qubit_pattern, qubit_cluster, monkeypatch):
        _, moved, stayed, shared = self.run_chain(
            monkeypatch, basis2, qubit_pattern, qubit_cluster
        )
        assert moved > 0 and stayed > 0 and shared > 0

    # with one draw per element, at s = 3 every draw leaves the PSD region, so
    # every position is pinned on every step; at s = 0.3 the steps mix many masks
    @pytest.mark.parametrize("s, masks", [(3.0, 1), (0.3, 10)])
    def test_pinned_positions_use_cached_rows(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch, s, masks
    ):
        seen = {}  # pinned mask -> ids of the row tables a step used
        exhausted = []  # per perturbation since the last scoring: did it exhaust?
        score, perturb = annealer.score_variants, annealer.perturb_element

        def recording_perturb(*args, **kw):
            try:
                out = perturb(*args, **kw)
            except ResampleExhausted:
                exhausted.append(True)
                raise
            exhausted.append(False)
            return out

        def checking_score(columns, rows, *args):
            mask = tuple(exhausted)
            exhausted.clear()
            assert np.array_equal(rows.bits, annealer.VariantRows.for_pinned(mask).bits)
            seen.setdefault(mask, set()).add(id(rows))
            return score(columns, rows, *args)

        monkeypatch.setattr(annealer, "perturb_element", recording_perturb)
        monkeypatch.setattr(annealer, "score_variants", checking_score)
        monkeypatch.setattr(annealer, "MAX_RESAMPLE", 1)
        chain, _, _, _ = self.run_chain(
            monkeypatch, basis3, qutrit_pattern, qutrit_small_cluster, s
        )
        assert chain.counts["resample_exhausted"] > 0
        assert len(seen) >= masks and any(any(mask) for mask in seen)
        if masks == 1:
            assert list(seen) == [(True,) * qutrit_pattern.unknown_count]
        assert all(len(ids) == 1 for ids in seen.values())  # one table per mask

    def test_elements_match_coords_to_element(self, basis2, basis3, basis4):
        """In dims 2, 3 and 4, every row of a 1-row, N-row and 2N-row
        product is bit-identical to the per-row a0 (basis.expand(a) + I): the
        band rows' closing matrices are built from the 2N-row product, a read
        POVM's elements from the N-row one."""
        rng = np.random.default_rng(8)
        for basis in (basis2, basis3, basis4):
            k = basis.dim**2 - 1
            old, new = [
                [
                    (rng.uniform(0.05, 0.3), rng.normal(0.0, 0.2, k))
                    for _ in range(6)
                ]
                for _ in range(2)
            ]
            tables = [(coords, coordinate_rows(coords, basis)) for coords in (old, old + new)]
            tables += [([c], coordinate_rows([c], basis)) for c in old]
            for coords, built in tables:
                elements = annealer.coordinate_elements(built, basis)
                assert elements.shape == (len(coords), basis.dim, basis.dim)
                for e, (a0, a) in zip(elements, coords):
                    assert np.array_equal(e, coordinate_element(a0, a, basis))


def _interior_qutrit_coords(mix, seed, basis):
    """(a0, a) of the free elements of a randomly rotated qutrit conditional
    SIC mixed with I/7."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    elements = [
        (1 - mix) * (q @ e @ q.conj().T) + mix * np.eye(3) / 7
        for e in catalog.qutrit_csic().elements
    ]
    return free_coordinates(pv.Povm(elements), basis)


@pytest.mark.invariants
class TestPermutationInvariance:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        perm=st.permutations(range(6)),
        mix=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_invariant_under_permuting_free_elements(
        self, basis3, qutrit_pattern, qutrit_small_cluster, perm, mix, seed
    ):
        coords = _interior_qutrit_coords(mix, seed, basis3)
        permuted = [coords[i] for i in perm]

        def scalar(cs):
            pov = pv.complete_povm([coordinate_element(a0, a, basis3) for a0, a in cs])
            return dacm(
                design_matrix(pov, qutrit_pattern),
                averaged_covariance(pov, qutrit_small_cluster, qutrit_pattern),
            )

        def batched(cs):
            table = evaluate_variants(cs, cs, basis3, qutrit_small_cluster, qutrit_pattern)
            assume(table.closed[0] and not table.skipped[0])
            return table.log_dacm[0]

        assert abs(scalar(permuted) - scalar(coords)) <= 1e-10 * scalar(coords)
        assert abs(batched(permuted) - batched(coords)) <= 1e-12

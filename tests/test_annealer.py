import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from povm_lab import annealer, catalog, cli, linalg, povm as pv, statespace
from povm_lab.errors import (
    ConfigurationError,
    ContractViolation,
    NonPositiveObjective,
    NumericalError,
    ResampleExhausted,
    SingularDesign,
)
from povm_lab.objective import PROB_SUM_TOL, averaged_covariance, dacm, design_matrix

TRINE_COORDS = [
    pv.PovmElementCoords(
        1 / 3,
        np.array(
            [np.sqrt(2) * np.cos(2 * np.pi * k / 3), np.sqrt(2) * np.sin(2 * np.pi * k / 3), 0.0]
        ),
    )
    for k in range(3)
]


def small_config(**kw):
    defaults = dict(
        total_steps=200,
        s0=0.15,
        s_decay=0.999,
        T0=0.5,
        T_decay=0.99,
        reheat_every=80,
        reheat_factor=3.0,
        max_resample=50,
        rng_seed=5,
        trace_every=10,
    )
    defaults.update(kw)
    return annealer.AnnealConfig(**defaults)


class TestAnnealConfig:
    @pytest.mark.parametrize("name", ["s0", "T0", "reheat_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            small_config(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="rng_seed"):
            small_config(rng_seed=-1)

    @pytest.mark.parametrize("name", ["s_decay", "T_decay"])
    def test_schedule_underflow_rejected(self, name):
        # s0 0.15 and T0 0.5 times 0.001**t are 0.0 from t = 108 on
        assert small_config(total_steps=0, **{name: 0.001}).total_steps == 0
        assert small_config(total_steps=108, **{name: 0.001}).schedule(107) != (0.0, 0.0)
        with pytest.raises(ConfigurationError, match="underflows.*at step 108"):
            small_config(total_steps=109, **{name: 0.001})

    def test_schedule_decays_and_reheats(self):
        config = small_config()  # s0 0.15, T0 0.5, reheat every 80 steps by 3
        assert config.schedule(0) == (0.15, 0.5)
        for t in (1, 79, 81, 159):
            assert config.schedule(t) == (0.15 * 0.999**t, 0.5 * 0.99**t)
        for t in (80, 160):
            assert config.schedule(t) == (0.15 * 0.999**t, 0.5 * 0.99**t * 3.0)

    def test_trace_records_the_schedule(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(19)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        config = small_config(total_steps=170)
        res = annealer.anneal(config, initial, qubit_cluster, basis2, qubit_pattern)
        assert [(r.s, r.temperature) for r in res.trace] == [
            config.schedule(r.step) for r in res.trace
        ]


class TestPerturbElement:
    def test_vanishing_noise(self, basis2):
        rng = np.random.default_rng(0)
        c = pv.PovmElementCoords(0.3, np.array([0.2, 0.1, 0.0]))
        out = annealer.perturb_element(c, 1e-12, rng, basis2)
        assert abs(out.a0 - c.a0) < 1e-10
        assert np.abs(out.a - c.a).max() < 1e-10

    def test_fixed_seed_determinism(self, basis2):
        c = pv.PovmElementCoords(0.3, np.array([0.2, 0.1, 0.0]))
        one = annealer.perturb_element(c, 0.1, np.random.default_rng(7), basis2)
        two = annealer.perturb_element(c, 0.1, np.random.default_rng(7), basis2)
        assert one.a0 == two.a0
        assert np.array_equal(one.a, two.a)

    def test_boundary_acceptance_fraction(self, basis2):
        # element on the boundary of the positive region; success frequency of
        # single-draw perturbations must match an independent estimate of the
        # PSD acceptance region measured with a different seed
        c = TRINE_COORDS[0]
        s = 0.5
        successes = 0
        trials = 1000
        rng = np.random.default_rng(123)
        for _ in range(trials):
            try:
                annealer.perturb_element(c, s, rng, basis2, max_resample=1, perturb_a0=False)
                successes += 1
            except ResampleExhausted:
                pass
        observed = successes / trials
        oracle_rng = np.random.default_rng(456)
        draws = c.a + oracle_rng.normal(0.0, s, (20000, 3))
        # qubit closed form: I + a.sigma is PSD iff |a| <= sqrt(2)
        expected = float(np.mean(np.linalg.norm(draws, axis=1) <= np.sqrt(2.0)))
        assert abs(observed - expected) <= 0.05

    def test_resample_exhausted(self, basis2):
        c = pv.PovmElementCoords(0.3, np.array([np.sqrt(2), 0.0, 0.0]))
        rng = np.random.default_rng(1)
        with pytest.raises(ResampleExhausted):
            annealer.perturb_element(c, 50.0, rng, basis2, max_resample=3)


    def test_minor_verdict_keeps_every_draw(self, basis2, basis3, monkeypatch):
        """Every result and the RNG stream are those of a run that sends every
        attempt to the diagonal check and `eigvalsh`."""
        verdict = linalg.psd_verdict
        band = [0]

        def counting_verdict(entries, n, tol):
            yes, no = verdict(entries, n, tol)
            band[0] += not (yes or no)
            return yes, no

        starts = [(basis2, c) for c in TRINE_COORDS[:2]]
        starts += [(basis2, pv.PovmElementCoords(0.3, np.array([0.2, 0.1, 0.0])))]
        starts += [(basis3, c) for c in _interior_qutrit_coords(0.0, 4, basis3)[:2]]
        starts += [(basis3, c) for c in _interior_qutrit_coords(0.3, 5, basis3)[:1]]

        def outcomes():
            out = []
            for basis, c in starts:
                for s in (1e-12, 1e-6, 0.05, 0.5, 3.0):
                    for seed in range(8):
                        rng = np.random.default_rng(seed)
                        try:
                            new = annealer.perturb_element(c, s, rng, basis, max_resample=4)
                            out.append((new.a0, tuple(new.a.tolist())))
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
    """`perturb_element` builds its result without the constructor's checks;
    the checked constructor accepts every coordinate it returns."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([2, 3]),
        data=st.data(),
        a0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
        perturb_a0=st.booleans(),
    )
    def test_checked_constructor_accepts_every_result(
        self, basis2, basis3, dim, data, a0, s, seed, perturb_a0
    ):
        basis = basis2 if dim == 2 else basis3
        a = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=dim**2 - 1,
                max_size=dim**2 - 1,
            )
        )
        c = pv.PovmElementCoords(a0, np.array(a))
        rng = np.random.default_rng(seed)
        try:
            # near the float range the draws overflow on the way to being redrawn
            with np.errstate(over="ignore", invalid="ignore"):
                out = annealer.perturb_element(
                    c, s, rng, basis, max_resample=5, perturb_a0=perturb_a0
                )
        except ResampleExhausted:
            return
        checked = pv.PovmElementCoords(out.a0, out.a)
        assert out.a.dtype == np.float64 and out.a.shape == c.a.shape
        assert checked.a0 == out.a0 and np.array_equal(checked.a, out.a)

    def test_overflowing_draws_are_redrawn(self, basis2):
        """At a scale near the float range every draw is far outside the
        region or overflows; none is returned."""
        c = pv.PovmElementCoords(0.3, np.zeros(3))
        for seed in range(20):
            with pytest.raises(ResampleExhausted):
                with np.errstate(over="ignore", invalid="ignore"):
                    annealer.perturb_element(c, 1e308, np.random.default_rng(seed), basis2)


class TestEnumerateVariants:
    def test_degenerate_dedup(self, basis2):
        rng = np.random.default_rng(2)
        out = annealer.enumerate_variants(TRINE_COORDS[:2], TRINE_COORDS[:2], basis2)
        assert len(out) == 1

    def test_closure_filter(self, basis2):
        big = [
            pv.PovmElementCoords(0.8, np.zeros(3)),
            pv.PovmElementCoords(0.8, np.zeros(3)),
        ]
        small = [
            pv.PovmElementCoords(0.25, np.zeros(3)),
            pv.PovmElementCoords(0.25, np.zeros(3)),
        ]
        out = annealer.enumerate_variants(small, big, basis2)
        # (0,0) keeps both small; any bit taking a 0.8-weight element breaks closure
        assert len(out) == 1
        assert out[0].m == 3

    def test_qutrit_variant_count(self, basis3, qutrit_pattern):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng, scale=0.03)
        news = [
            annealer.perturb_element(c, 0.005, rng, basis3) for c in initial.coords
        ]
        out = annealer.enumerate_variants(initial.coords, news, basis3)
        assert len(out) <= 64
        assert len(out) == 64  # tiny noise: every combination stays closable

    def test_all_valid_povms(self, basis2):
        rng = np.random.default_rng(4)
        news = [annealer.perturb_element(c, 0.02, rng, basis2) for c in TRINE_COORDS[:2]]
        for cand in annealer.enumerate_variants(TRINE_COORDS[:2], news, basis2):
            assert pv.validate(cand, 1e-9) == []

    def test_only_closure_failures_are_skipped(self, basis2, monkeypatch):
        def failing_completion(elements, coords=None):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(annealer, "complete_povm", failing_completion)
        rng = np.random.default_rng(5)
        news = [annealer.perturb_element(c, 0.02, rng, basis2) for c in TRINE_COORDS[:2]]
        with pytest.raises(NumericalError):
            annealer.enumerate_variants(TRINE_COORDS[:2], news, basis2)


class TestRandomInitialPovm:
    def test_retry_after_failed_design_check_keeps_scale(
        self, basis2, qubit_pattern, monkeypatch
    ):
        class RecordingRng:
            def __init__(self):
                self.rng = np.random.default_rng(22)
                self.scales = []

            def normal(self, loc, scale, size=None):
                self.scales.append(scale)
                return self.rng.normal(loc, scale, size)

        determinant = linalg.determinant
        calls = []

        def fail_first(m):
            calls.append(m)
            return 0.0 if len(calls) == 1 else determinant(m)

        monkeypatch.setattr(linalg, "determinant", fail_first)
        rng = RecordingRng()
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng, scale=0.03)
        assert len(calls) == 2  # one failed design check, then the retry passes
        assert len(rng.scales) >= 2 * qubit_pattern.unknown_count
        assert rng.scales == [0.03] * len(rng.scales)
        assert pv.validate(initial, 1e-9) == []


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
    def test_zero_steps(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(11)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=0), initial, qubit_cluster, basis2, qubit_pattern
        )
        assert res.trace == []
        assert res.best is initial and res.final is initial

    def test_fixed_seed_bit_identical(self, basis2, qubit_pattern, qubit_cluster):
        def run():
            rng = np.random.default_rng(12)
            initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
            return annealer.anneal(
                small_config(), initial, qubit_cluster, basis2, qubit_pattern
            )

        one, two = run(), run()
        assert one.best_dacm == two.best_dacm
        assert len(one.trace) == len(two.trace)
        for a, b in zip(one.trace, two.trace):
            assert a == b
        for ea, eb in zip(one.best.elements, two.best.elements):
            assert np.array_equal(ea, eb)

    def test_best_improves(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(13)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=500), initial, qubit_cluster, basis2, qubit_pattern
        )
        first = math.exp(res.trace[0].log_dacm)
        assert res.best_dacm <= first


@pytest.mark.invariants
class TestInvariants:
    def test_every_povm_valid_along_run(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(14)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        config = small_config(total_steps=150)
        chain = annealer.AnnealChain(config, initial, qubit_cluster, basis2, qubit_pattern)
        for t in range(config.total_steps):
            chain.step(*config.schedule(t))
            for label, pov in (("current", chain.current), ("best", chain.best)):
                assert pv.validate(pov, 1e-9) == [], (label, t)

    def test_best_monotone_under_prefix_replay(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(15)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        values = []
        for steps in (0, 25, 50, 100, 200):
            res = annealer.anneal(
                small_config(total_steps=steps), initial, qubit_cluster, basis2, qubit_pattern
            )
            values.append(res.best_dacm)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_best_never_above_trace_minimum(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(16)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=300, trace_every=1),
            initial,
            qubit_cluster,
            basis2,
            qubit_pattern,
        )
        assert res.best_dacm <= min(math.exp(r.log_dacm) for r in res.trace) + 1e-12

    def test_acceptance_frequency_at_fixed_temperature(self):
        rng = np.random.default_rng(17)
        hits = sum(annealer.glauber_accept(2.5, 2.5, 1.3, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_trace_quantities_finite(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(18)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=120), initial, qubit_cluster, basis2, qubit_pattern
        )
        assert res.trace
        for r in res.trace:
            for value in (r.log_dacm, r.sigma, r.delta, r.Delta, r.temperature, r.s):
                assert math.isfinite(value)


class TestTraceIO:
    def test_round_trip(self, tmp_path, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(19)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=60), initial, qubit_cluster, basis2, qubit_pattern
        )
        path = tmp_path / "trace.csv"
        annealer.write_trace(res.trace, path)
        back = annealer.read_trace(path)
        assert back == res.trace

    @pytest.mark.parametrize(
        "row, message",
        [("50,1.0,0.0", "line 3: 3 cells, expected 7"), ("50,x,0,0,0,1,0.2", "line 3")],
        ids=["short", "not-a-number"],
    )
    def test_malformed_row_is_a_typed_failure(self, tmp_path, row, message):
        path = tmp_path / "trace.csv"
        path.write_text(f"{annealer.TRACE_HEADER}\n0,1.0,0.0,0.0,0.0,1.0,0.2\n{row}\n")
        with pytest.raises(ContractViolation, match=message):
            annealer.read_trace(path)


def scalar_variants(old, new, basis, cluster, pattern):
    """(bits, closing element, skipped, log DACM) per closable variant, from the
    per-candidate path: `enumerate_variants` and the scalar `dacm`."""
    out = []
    for cand in annealer.enumerate_variants(old, new, basis):
        bits = tuple(int(c is not o) for c, o in zip(cand.coords, old))
        try:
            d = dacm(
                design_matrix(cand.coords, pattern),
                averaged_covariance(cand, cluster, basis, pattern),
            )
        except (SingularDesign, NonPositiveObjective):
            out.append((bits, cand.elements[-1], True, None))
            continue
        out.append((bits, cand.elements[-1], False, math.log(d)))
    return out


def assert_matches_scalar(old, new, basis, cluster, pattern):
    table = annealer.evaluate_variants(old, new, basis, cluster, pattern)
    pinned = [n is o for n, o in zip(new, old)]
    candidates = [
        bits
        for bits in itertools.product((0, 1), repeat=len(old))
        if not any(b and p for b, p in zip(bits, pinned))
    ]
    assert [tuple(r) for r in table.bits.tolist()] == candidates
    expected = scalar_variants(old, new, basis, cluster, pattern)
    rows = np.flatnonzero(table.closed)
    # each row builds its own closing element; scoring builds no closing stack
    assert "closing" not in vars(table)
    for v in rows.tolist():
        chosen = list(table.columns.elements[table.rows.cols[v]])
        assert np.array_equal(table.povm(v).elements[-1], pv.complete_povm(chosen).elements[-1])
    assert "closing" not in vars(table)
    assert [tuple(table.bits[v].tolist()) for v in rows] == [e[0] for e in expected]
    for v, (_, closing, skipped, log_d) in zip(rows, expected):
        assert np.array_equal(table.closing[v], closing)
        assert table.skipped[v] == skipped
        if skipped:
            assert math.isnan(table.log_dacm[v])
        else:
            assert abs(table.log_dacm[v] - log_d) <= 1e-12
        cand = table.povm(v)
        assert np.array_equal(cand.elements[-1], closing)
        assert [c is n for c, n in zip(cand.coords, new)] == [
            bool(b) or p for b, p in zip(table.bits[v], pinned)
        ]
    assert not table.skipped[~table.closed].any()
    assert np.isnan(table.log_dacm[~table.closed]).all()
    return table


class TestEvaluateVariantsAgainstScalar:
    def test_qubit_trine(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(4)
        news = [annealer.perturb_element(c, 0.02, rng, basis2) for c in TRINE_COORDS[:2]]
        table = assert_matches_scalar(TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern)
        assert table.closed[0] and not table.closed.all()

    def test_qutrit_tiny_noise_all_valid(self, basis3, qutrit_pattern, qutrit_default_cluster):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng, scale=0.03)
        news = [annealer.perturb_element(c, 0.005, rng, basis3) for c in initial.coords]
        table = assert_matches_scalar(
            initial.coords, news, basis3, qutrit_default_cluster, qutrit_pattern
        )
        assert table.closed.sum() == 64 and not table.skipped.any()

    def test_qutrit_wider_noise(self, basis3, qutrit_pattern, qutrit_default_cluster):
        rng = np.random.default_rng(6)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng)
        news = [annealer.perturb_element(c, 0.1, rng, basis3) for c in initial.coords]
        table = assert_matches_scalar(
            initial.coords, news, basis3, qutrit_default_cluster, qutrit_pattern
        )
        assert 0 < table.closed.sum() < 64

    def test_pinned_positions(self, basis3, qutrit_pattern, qutrit_small_cluster):
        rng = np.random.default_rng(3)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng, scale=0.03)
        news = [annealer.perturb_element(c, 0.005, rng, basis3) for c in initial.coords]
        news[1], news[4] = initial.coords[1], initial.coords[4]
        table = assert_matches_scalar(
            initial.coords, news, basis3, qutrit_small_cluster, qutrit_pattern
        )
        assert table.bits.shape == (16, 6)
        assert not table.bits[:, [1, 4]].any()

    def test_every_position_pinned(self, basis2, qubit_pattern, qubit_cluster):
        table = assert_matches_scalar(
            TRINE_COORDS[:2], TRINE_COORDS[:2], basis2, qubit_cluster, qubit_pattern
        )
        assert table.bits.tolist() == [[0, 0]]

    def test_closure_filter(self, basis2, qubit_pattern, qubit_cluster):
        big = [pv.PovmElementCoords(0.8, np.zeros(3)), pv.PovmElementCoords(0.8, np.zeros(3))]
        small = [pv.PovmElementCoords(0.25, np.zeros(3)), pv.PovmElementCoords(0.25, np.zeros(3))]
        table = assert_matches_scalar(small, big, basis2, qubit_cluster, qubit_pattern)
        assert table.closed.tolist() == [True, False, False, False]
        assert table.skipped[0]  # zero directions: T = 0

    def test_nothing_closed(self, basis2, qubit_pattern, qubit_cluster):
        big = [pv.PovmElementCoords(0.6, np.zeros(3)), pv.PovmElementCoords(0.6, np.zeros(3))]
        bigger = [pv.PovmElementCoords(0.7, np.zeros(3)), pv.PovmElementCoords(0.7, np.zeros(3))]
        table = assert_matches_scalar(big, bigger, basis2, qubit_cluster, qubit_pattern)
        assert table.bits.shape == (4, 2) and not table.closed.any()

    def test_singular_design(self, basis2, qubit_pattern, qubit_cluster):
        news = [pv.PovmElementCoords(1 / 3, np.zeros(3)), TRINE_COORDS[1]]
        table = assert_matches_scalar(TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern)
        assert table.closed[:2].all()
        assert table.skipped.tolist() == [False, True]

    @pytest.mark.parametrize("seed, s", [(6, 0.1), (7, 0.3), (8, 0.02)])  # 63, 27, 64 rows closed
    def test_minor_verdict_keeps_every_row(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch, seed, s
    ):
        """The table equals one whose closure is decided by `eigvalsh` on every row."""
        rng = np.random.default_rng(seed)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng)
        news = [annealer.perturb_element(c, s, rng, basis3) for c in initial.coords]
        args = (initial.coords, news, basis3, qutrit_small_cluster, qutrit_pattern)
        table = annealer.evaluate_variants(*args)
        mask = np.zeros(table.closed.shape, dtype=bool)
        monkeypatch.setattr(linalg, "psd_verdict", lambda e, n, tol: (mask.copy(), mask.copy()))
        forced = annealer.evaluate_variants(*args)
        assert table.closed.any()
        assert np.array_equal(forced.closed, table.closed)
        assert np.array_equal(forced.skipped, table.skipped)
        assert np.array_equal(forced.log_dacm, table.log_dacm, equal_nan=True)

    def test_member_outside_psd_region_raises(self, basis2, qubit_pattern, qubit_cluster):
        members = np.vstack([qubit_cluster.members, [[3.0, 0.0, 0.0]]])
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        rng = np.random.default_rng(4)
        news = [annealer.perturb_element(c, 0.02, rng, basis2) for c in TRINE_COORDS[:2]]
        with pytest.raises(ContractViolation):
            scalar_variants(TRINE_COORDS[:2], news, basis2, cluster, qubit_pattern)
        with pytest.raises(ContractViolation, match="probability"):
            annealer.evaluate_variants(TRINE_COORDS[:2], news, basis2, cluster, qubit_pattern)

    def test_nan_weight_is_a_typed_failure(self, basis2, qubit_pattern, qubit_cluster):
        # not a silently rejected variant
        with pytest.raises((ContractViolation, NumericalError)):
            news = [pv.PovmElementCoords(math.nan, TRINE_COORDS[0].a), TRINE_COORDS[1]]
            annealer.evaluate_variants(
                TRINE_COORDS[:2], news, basis2, qubit_cluster, qubit_pattern
            )

    def test_misaligned_inputs(self, basis2, qubit_pattern, qubit_cluster):
        with pytest.raises(ContractViolation):
            annealer.evaluate_variants(
                TRINE_COORDS[:2], TRINE_COORDS[:1], basis2, qubit_cluster, qubit_pattern
            )
        with pytest.raises(ContractViolation):
            annealer.evaluate_variants(
                TRINE_COORDS, TRINE_COORDS, basis2, qubit_cluster, qubit_pattern
            )


class TestProbabilityChecks:
    """A closed row whose probabilities leave the simplex raises
    ContractViolation naming that row, whichever check it fails."""

    def interior_step(self, basis2, qubit_pattern, qubit_cluster):
        """A qubit step from an interior POVM: its sides, rows and the first
        closed row that takes a perturbed element."""
        rng = np.random.default_rng(4)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        news = [annealer.perturb_element(c, 0.02, rng, basis2) for c in initial.coords]
        members = qubit_cluster.members
        old = annealer.FreeElements.build(initial.coords, basis2, members)
        new = annealer.FreeElements.build(news, basis2, members)
        rows = annealer.VariantRows.for_pinned([False, False])
        table = annealer.score_variants(old, new, rows, basis2, members, qubit_pattern)
        v = next(v for v in np.flatnonzero(table.closed) if rows.bits[v].any())
        return old, new, rows, tuple(rows.bits[v].tolist())

    def test_closing_column_alone_out_of_range(self, basis2, qubit_pattern, qubit_cluster):
        # theta along a_1 + a_2, outside the Bloch ball (|theta| = 1 > 1/sqrt 2):
        # p_1 = p_2 = (1 + 1/sqrt 2)/3 stay in range, p_3 = (1 - sqrt 2)/3 < 0
        a1, a2 = TRINE_COORDS[0].a, TRINE_COORDS[1].a
        theta = (a1 + a2) / np.linalg.norm(a1 + a2)
        free = [c.a0 * (1 + theta @ c.a) for c in TRINE_COORDS[:2]]
        assert all(0 <= p <= 1 for p in free)
        members = np.vstack([qubit_cluster.members, theta])
        cluster = statespace.Cluster(qubit_cluster.key, members, qubit_cluster.cell_count)
        message = f"variant (0, 0): min {(1 - np.sqrt(2)) / 3:.3e}, max"
        with pytest.raises(ContractViolation, match=re.escape(message)):
            annealer.evaluate_variants(
                TRINE_COORDS[:2], TRINE_COORDS[:2], basis2, cluster, qubit_pattern
            )

    def test_sum_deviation(self, basis2, qubit_pattern, qubit_cluster):
        old, new, rows, bits = self.interior_step(basis2, qubit_pattern, qubit_cluster)
        # in range, but a row with a perturbed column sums to 1 + 2e-9 or more
        shifted = dataclasses.replace(new, probs=new.probs + 2e-9)
        assert shifted.probs.max() < 1.0
        with pytest.raises(ContractViolation, match=re.escape(f"variant {bits}")) as info:
            annealer.score_variants(
                old, shifted, rows, basis2, qubit_cluster.members, qubit_pattern
            )
        dev = float(str(info.value).rsplit(" ", 1)[1])
        assert PROB_SUM_TOL < dev < 1e-8

    def test_nan_probability(self, basis2, qubit_pattern, qubit_cluster):
        old, new, rows, _ = self.interior_step(basis2, qubit_pattern, qubit_cluster)
        probs = old.probs.copy()
        probs[3, 0] = math.nan  # an old column: row (0, 0) is closed and takes it
        with pytest.raises(ContractViolation, match=re.escape("variant (0, 0): min nan")):
            annealer.score_variants(
                dataclasses.replace(old, probs=probs),
                new,
                rows,
                basis2,
                qubit_cluster.members,
                qubit_pattern,
            )

    def test_nan_in_perturbed_column_names_a_row_that_takes_it(
        self, basis2, qubit_pattern, qubit_cluster
    ):
        old, new, rows, _ = self.interior_step(basis2, qubit_pattern, qubit_cluster)
        table = annealer.score_variants(old, new, rows, basis2, qubit_cluster.members, qubit_pattern)
        probs = new.probs.copy()
        probs[3, 0] = math.nan  # the perturbed first element: only rows with bit 0 set take it
        takers = [v for v in np.flatnonzero(table.closed) if rows.bits[v][0]]
        assert takers
        bits = tuple(rows.bits[takers[0]].tolist())
        with pytest.raises(ContractViolation, match=re.escape(f"variant {bits}: min nan")):
            annealer.score_variants(
                old,
                dataclasses.replace(new, probs=probs),
                rows,
                basis2,
                qubit_cluster.members,
                qubit_pattern,
            )


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


class TestReferenceChains:
    """log_dacm_best of fixed-seed CLI runs on the default grids."""

    def test_qubit_seed0_3000_steps(self, tmp_path):
        report = _cli_anneal(tmp_path, 2, [3], 3000, 0)
        assert abs(float(report["log_dacm_best"]) - 4.816817053001229) <= 1e-8

    def test_qutrit_seed0_500_steps(self, tmp_path):
        report = _cli_anneal(tmp_path, 3, [7, 8], 500, 0)
        assert abs(float(report["log_dacm_best"]) - 39.05480225974043) <= 1e-8
        counters = [
            int(report[k])
            for k in ("variants_enumerated", "closure_rejected", "skipped_variants", "accepted")
        ]
        assert counters[0] > counters[1] + counters[2] >= 0 and counters[3] > 0

    def test_unchanged_acceptances_match_the_walk(self, tmp_path, monkeypatch):
        """`accepted_unchanged` at qutrit seed 0 over 500 steps equals the
        acceptances of the all-old row 0 as a step's first draw, counted by
        wrapping the scoring and the walk's draws."""
        score, accept = annealer.score_variants, annealer.logistic_accept
        first_draw_is_row0 = [False]
        counted = [0]

        def scoring(*args):
            table = score(*args)
            assert not table.bits[0].any()
            first_draw_is_row0[0] = bool(table.closed[0] and not table.skipped[0])
            return table

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


class TestRunCounters:
    def test_every_variant_accounted_for(self, basis2, qubit_pattern, qubit_cluster, monkeypatch):
        draws = []

        def counting_accept(delta, temperature, rng):
            accepted = annealer.logistic_probability(delta, temperature) > rng.random()
            draws.append(accepted)
            return accepted

        monkeypatch.setattr(annealer, "logistic_accept", counting_accept)
        rng = np.random.default_rng(20)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=150), initial, qubit_cluster, basis2, qubit_pattern
        )
        assert res.variants_enumerated == res.closure_rejected + res.skipped_variants + len(draws)
        assert res.accepted == sum(draws) > 0
        assert res.closure_rejected > 0
        assert res.best_log_dacm <= min(r.log_dacm for r in res.trace)
        assert res.best_dacm == math.exp(res.best_log_dacm)

    def test_unchanged_acceptances_are_accepted(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(20)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=150), initial, qubit_cluster, basis2, qubit_pattern
        )
        assert 0 < res.accepted_unchanged <= res.accepted

    def test_resample_exhaustion_counted(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(21)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=40, s0=3.0, max_resample=1),
            initial,
            qubit_cluster,
            basis2,
            qubit_pattern,
        )
        assert res.resample_exhausted > 0
        # an exhausted position is pinned, so a step enumerates fewer than 2^N rows
        assert res.variants_enumerated < 40 * 4

    def test_zero_steps_counts_nothing(self, basis2, qubit_pattern, qubit_cluster):
        rng = np.random.default_rng(11)
        initial = annealer.random_initial_povm(qubit_pattern, basis2, rng)
        res = annealer.anneal(
            small_config(total_steps=0), initial, qubit_cluster, basis2, qubit_pattern
        )
        assert (res.variants_enumerated, res.closure_rejected, res.accepted) == (0, 0, 0)
        assert res.best is initial and res.best_dacm == math.exp(res.best_log_dacm)


class TestPsdDecisions:
    @pytest.mark.parametrize("s0", [0.15, 1.0])
    def test_eigvalsh_only_in_the_band(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch, s0
    ):
        """A qutrit anneal calls `eigvalsh` only for matrices that `psd_verdict`
        leaves in its band."""
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

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(linalg, "psd_verdict", counting_verdict)
        rng = np.random.default_rng(9)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng)
        config = small_config(total_steps=100, s0=s0)
        annealer.anneal(config, initial, qutrit_small_cluster, basis3, qutrit_pattern)
        assert decided[0] > 100 * 64
        assert calls[0] <= band[0]


def assert_same_povm(pov, want):
    """Bit-for-bit equal elements and the same coordinate objects."""
    assert pov.dim == want.dim and pov.m == want.m
    for e, f in zip(pov.elements, want.elements):
        assert e.dtype == f.dtype and e.shape == f.shape and e.tobytes() == f.tobytes()
    assert len(pov.coords) == len(want.coords)
    assert all(c is d for c, d in zip(pov.coords, want.coords))


class TestCarriedState:
    """The chain's carried free elements equal a fresh build from its current
    coordinates after every step, and the POVMs it builds on read are those of
    its accepted and best table rows."""

    def run_chain(self, monkeypatch, basis, pattern, cluster, **kw):
        tables, draws = [], []
        score, accept = annealer.score_variants, annealer.logistic_accept

        def recording_score(*args):
            tables.append(score(*args))
            return tables[-1]

        def recording_accept(*args):
            draws.append(accept(*args))
            return draws[-1]

        monkeypatch.setattr(annealer, "score_variants", recording_score)
        monkeypatch.setattr(annealer, "logistic_accept", recording_accept)
        rng = np.random.default_rng(7)
        initial = annealer.random_initial_povm(pattern, basis, rng)
        config = small_config(total_steps=60, **kw)
        chain = annealer.AnnealChain(config, initial, cluster, basis, pattern)
        assert chain.current is initial and chain.best is initial
        want_current = want_best = initial
        moved = stayed = 0  # steps that changed the state, steps that kept it
        shared = 0  # steps whose best row is also their last accepted row
        for t in range(config.total_steps):
            before, best_log = chain.state.coords, chain.best_log
            draws.clear()
            chain.step(*config.schedule(t))
            changed = any(a is not b for a, b in zip(before, chain.state.coords))
            moved += changed
            stayed += not changed
            fresh = annealer.FreeElements.build(chain.current.coords, basis, cluster.members)
            state = chain.state
            assert all(c is f for c, f in zip(state.coords, chain.current.coords))
            for name in ("elements", "a0", "A", "probs"):
                assert np.array_equal(getattr(state, name), getattr(fresh, name)), (t, name)
            assert np.array_equal(state.elements, np.array(chain.current.elements[:-1]))

            # the walk draws once per evaluated row, in row order
            table = tables[-1]
            evaluated = np.flatnonzero(~np.isnan(table.log_dacm)).tolist()
            assert len(draws) == len(evaluated)
            accepted = [v for v, took in zip(evaluated, draws) if took]
            best_row = None
            if chain.best_log < best_log:
                best_row = int(np.nanargmin(table.log_dacm))
                assert table.log_dacm[best_row] == chain.best_log
                want_best = table.povm(best_row)
            if accepted:
                want_current = table.povm(accepted[-1])
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

    # with one draw per element, at s0 = 3 every draw leaves the PSD region, so
    # every position is pinned on every step; at s0 = 0.3 the steps mix many masks
    @pytest.mark.parametrize("s0, masks", [(3.0, 1), (0.3, 10)])
    def test_pinned_positions_use_cached_rows(
        self, basis3, qutrit_pattern, qutrit_small_cluster, monkeypatch, s0, masks
    ):
        seen = {}  # pinned mask -> ids of the row tables a step used
        score = annealer.score_variants

        def checking_score(old, new, rows, *args):
            mask = tuple(n is o for n, o in zip(new.coords, old.coords))
            assert np.array_equal(rows.bits, annealer.VariantRows.for_pinned(mask).bits)
            seen.setdefault(mask, set()).add(id(rows))
            return score(old, new, rows, *args)

        monkeypatch.setattr(annealer, "score_variants", checking_score)
        chain, _, _, _ = self.run_chain(
            monkeypatch, basis3, qutrit_pattern, qutrit_small_cluster, max_resample=1, s0=s0
        )
        assert chain.exhausted > 0
        assert len(seen) >= masks and any(any(mask) for mask in seen)
        assert all(len(ids) == 1 for ids in seen.values())  # one table per mask

    def test_elements_match_coords_to_element(self, basis3, qutrit_pattern):
        rng = np.random.default_rng(8)
        initial = annealer.random_initial_povm(qutrit_pattern, basis3, rng)
        built = annealer.FreeElements.build(initial.coords, basis3, np.zeros((1, 8)))
        for e, c in zip(built.elements, initial.coords):
            assert np.array_equal(e, pv.coords_to_element(c, basis3))


def _interior_qutrit_coords(mix, seed, basis):
    """Coordinates of a randomly rotated qutrit conditional SIC mixed with I/7."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    elements = [
        (1 - mix) * (q @ e @ q.conj().T) + mix * np.eye(3) / 7
        for e in catalog.qutrit_csic().elements
    ]
    return [pv.element_coords(e, basis) for e in elements[:6]]


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
            pov = pv.complete_povm([pv.coords_to_element(c, basis3) for c in cs], cs)
            return dacm(
                design_matrix(cs, qutrit_pattern),
                averaged_covariance(pov, qutrit_small_cluster, basis3, qutrit_pattern),
            )

        def batched(cs):
            table = annealer.evaluate_variants(cs, cs, basis3, qutrit_small_cluster, qutrit_pattern)
            assume(table.closed[0] and not table.skipped[0])
            return table.log_dacm[0]

        assert abs(scalar(permuted) - scalar(coords)) <= 1e-10 * scalar(coords)
        assert abs(batched(permuted) - batched(coords)) <= 1e-12

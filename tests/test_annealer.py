import itertools
import math

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
from povm_lab.objective import averaged_covariance, dacm, design_matrix

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


class TestCarriedState:
    """The chain's carried free elements equal a fresh build from its current
    coordinates after every step."""

    def run_chain(self, basis, pattern, cluster, **kw):
        rng = np.random.default_rng(7)
        initial = annealer.random_initial_povm(pattern, basis, rng)
        config = small_config(total_steps=60, **kw)
        chain = annealer.AnnealChain(config, initial, cluster, basis, pattern)
        moved = stayed = 0  # steps that changed the state, steps that kept it
        for t in range(config.total_steps):
            before = chain.state.coords
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
        return chain, moved, stayed

    def test_accepted_and_rejected_moves(self, basis3, qutrit_pattern, qutrit_small_cluster):
        _, moved, stayed = self.run_chain(basis3, qutrit_pattern, qutrit_small_cluster)
        assert moved > 0 and stayed > 0

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
        chain, _, _ = self.run_chain(
            basis3, qutrit_pattern, qutrit_small_cluster, max_resample=1, s0=s0
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

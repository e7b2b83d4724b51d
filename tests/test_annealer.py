import math

import numpy as np
import pytest

from povm_lab import annealer, linalg, povm as pv
from povm_lab.errors import ContractViolation, NumericalError, ResampleExhausted

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
        annealer.anneal(
            small_config(total_steps=150),
            initial,
            qubit_cluster,
            basis2,
            qubit_pattern,
            check_validity=True,
        )

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

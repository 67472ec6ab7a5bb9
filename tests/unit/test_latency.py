"""Unit tests for the latency models."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.latency import (
    BiasedLatency,
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    PairwiseLatency,
    ParetoLatency,
    RegimeShiftLatency,
    UniformLatency,
)


def draws(model, count=2000, seed=7, src=1, dst=2):
    rng = random.Random(seed)
    return [model.sample(rng, src, dst) for _ in range(count)]


class TestConstant:
    def test_no_jitter_is_exact(self):
        assert draws(ConstantLatency(0.5), count=5) == [0.5] * 5

    def test_jitter_stays_in_band(self):
        values = draws(ConstantLatency(0.5, jitter=0.2))
        assert all(0.5 <= v <= 0.7 for v in values)

    def test_mean(self):
        assert ConstantLatency(0.5, jitter=0.2).mean() == pytest.approx(0.6)

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(0.0)


class TestUniform:
    def test_band(self):
        values = draws(UniformLatency(0.1, 0.3))
        assert all(0.1 <= v <= 0.3 for v in values)

    def test_mean(self):
        assert UniformLatency(0.1, 0.3).mean() == pytest.approx(0.2)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.3, 0.1)


class TestExponential:
    def test_empirical_mean_close_to_parameter(self):
        values = draws(ExponentialLatency(mean=0.01), count=20_000)
        assert sum(values) / len(values) == pytest.approx(0.01, rel=0.05)

    def test_floor_is_respected(self):
        values = draws(ExponentialLatency(mean=0.01, floor=0.005))
        assert all(v >= 0.005 for v in values)

    def test_mean_includes_floor(self):
        assert ExponentialLatency(0.01, floor=0.005).mean() == pytest.approx(0.015)


class TestLogNormal:
    def test_median_is_respected(self):
        values = sorted(draws(LogNormalLatency(median=0.01, sigma=1.0), count=20_000))
        empirical_median = values[len(values) // 2]
        assert empirical_median == pytest.approx(0.01, rel=0.1)

    def test_sigma_zero_degenerates_to_median(self):
        values = draws(LogNormalLatency(median=0.01, sigma=0.0), count=10)
        assert all(v == pytest.approx(0.01) for v in values)

    def test_mean_formula(self):
        model = LogNormalLatency(median=0.01, sigma=1.0)
        assert model.mean() == pytest.approx(0.01 * math.exp(0.5))


class TestPareto:
    def test_minimum_is_scale(self):
        values = draws(ParetoLatency(scale=0.002, shape=2.0))
        assert all(v >= 0.002 for v in values)

    def test_infinite_mean_below_shape_one(self):
        assert ParetoLatency(scale=1.0, shape=0.9).mean() == math.inf

    def test_finite_mean(self):
        assert ParetoLatency(scale=1.0, shape=3.0).mean() == pytest.approx(1.5)


class TestBiased:
    def test_favored_sender_is_faster(self):
        model = BiasedLatency(ConstantLatency(0.8), frozenset({1}), speedup=4.0)
        rng = random.Random(1)
        assert model.sample(rng, 1, 2) == pytest.approx(0.2)
        assert model.sample(rng, 2, 3) == pytest.approx(0.8)

    def test_bidirectional_speeds_up_inbound_too(self):
        model = BiasedLatency(
            ConstantLatency(0.8), frozenset({1}), speedup=4.0, bidirectional=True
        )
        rng = random.Random(1)
        assert model.sample(rng, 2, 1) == pytest.approx(0.2)

    def test_unidirectional_leaves_inbound_alone(self):
        model = BiasedLatency(
            ConstantLatency(0.8), frozenset({1}), speedup=4.0, bidirectional=False
        )
        rng = random.Random(1)
        assert model.sample(rng, 2, 1) == pytest.approx(0.8)

    def test_slowdown_with_speedup_below_one(self):
        model = BiasedLatency(ConstantLatency(0.8), frozenset({1}), speedup=0.5)
        rng = random.Random(1)
        assert model.sample(rng, 1, 2) == pytest.approx(1.6)

    def test_rejects_nonpositive_speedup(self):
        with pytest.raises(ConfigurationError):
            BiasedLatency(ConstantLatency(1.0), frozenset(), speedup=0.0)


class TestPairwise:
    def test_override_applies_to_directed_pair(self):
        model = PairwiseLatency(
            ConstantLatency(0.1), {(1, 2): ConstantLatency(0.9)}
        )
        rng = random.Random(1)
        assert model.sample(rng, 1, 2) == pytest.approx(0.9)
        assert model.sample(rng, 2, 1) == pytest.approx(0.1)


class TestRegimeShift:
    def test_before_shift_uses_base(self):
        model = RegimeShiftLatency(ConstantLatency(0.1), shift_at=10.0, factor=5.0)
        rng = random.Random(1)
        assert model.sample_at(rng, 1, 2, now=9.9) == pytest.approx(0.1)

    def test_after_shift_multiplies(self):
        model = RegimeShiftLatency(ConstantLatency(0.1), shift_at=10.0, factor=5.0)
        rng = random.Random(1)
        assert model.sample_at(rng, 1, 2, now=10.0) == pytest.approx(0.5)

    def test_plain_sample_is_rejected(self):
        model = RegimeShiftLatency(ConstantLatency(0.1), shift_at=10.0, factor=5.0)
        with pytest.raises(ConfigurationError):
            model.sample(random.Random(1), 1, 2)

    def test_composes_under_bias(self):
        # BiasedLatency must propagate the time-aware path to its base.
        shifted = RegimeShiftLatency(ConstantLatency(0.4), shift_at=5.0, factor=10.0)
        model = BiasedLatency(shifted, frozenset({1}), speedup=4.0)
        rng = random.Random(1)
        assert model.sample_at(rng, 1, 2, now=6.0) == pytest.approx(1.0)
        assert model.sample_at(rng, 2, 3, now=6.0) == pytest.approx(4.0)


class TestDefaultSampleAt:
    def test_stationary_models_ignore_time(self):
        model = ConstantLatency(0.3)
        rng = random.Random(1)
        assert model.sample_at(rng, 1, 2, now=999.0) == pytest.approx(0.3)


class TestSampleMany:
    """Batch sampling must consume the RNG exactly like sequential calls."""

    MODELS = [
        ConstantLatency(0.5),
        ConstantLatency(0.5, jitter=0.2),
        UniformLatency(0.1, 0.9),
        ExponentialLatency(0.001),
        ExponentialLatency(0.001, floor=0.0005),
        LogNormalLatency(0.01, 1.2, floor=0.001),
        ParetoLatency(0.002, 1.5),
        BiasedLatency(ExponentialLatency(0.001), frozenset({3}), 4.0),
        BiasedLatency(
            UniformLatency(0.1, 0.2), frozenset({1}), 2.0, bidirectional=False
        ),
        PairwiseLatency(
            ConstantLatency(0.3), {(1, 4): ConstantLatency(0.9, jitter=0.1)}
        ),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_batch_equals_sequential_sample_at(self, model):
        dsts = [2, 3, 4, 5, 6, 7]
        sequential = [
            model.sample_at(random.Random(42), 1, dst, 0.0) for dst in [2]
        ]  # warm-up sanity: model is usable
        assert sequential[0] > 0
        rng_a, rng_b = random.Random(7), random.Random(7)
        expected = [model.sample_at(rng_a, 1, dst, 5.0) for dst in dsts]
        got = model.sample_many(rng_b, 1, dsts, 5.0)
        assert got == expected
        # The two RNGs must also end in the same state (no extra draws).
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("now", [0.0, 10.0])
    def test_regime_shift_batch_matches_sequential(self, now):
        model = RegimeShiftLatency(ExponentialLatency(0.001), shift_at=5.0, factor=3.0)
        dsts = [2, 3, 4, 5]
        rng_a, rng_b = random.Random(3), random.Random(3)
        expected = [model.sample_at(rng_a, 1, dst, now) for dst in dsts]
        assert model.sample_many(rng_b, 1, dsts, now) == expected

    def test_empty_destination_list(self):
        assert ConstantLatency(0.5).sample_many(random.Random(1), 1, [], 0.0) == []
        assert ExponentialLatency(0.01).sample_many(random.Random(1), 1, [], 0.0) == []


class TestBatchDistribution:
    """The batch path (``sample_many``) is the one the cluster broadcasts
    through; its draws must follow each model's stated distribution."""

    DSTS = tuple(range(2, 12))  # 10 destinations per sample_many call
    MODELS = [
        ConstantLatency(0.002, jitter=0.004),
        UniformLatency(0.001, 0.009),
        ExponentialLatency(0.003, floor=0.001),
        LogNormalLatency(0.002, sigma=0.8, floor=0.0005),
        ParetoLatency(0.001, shape=3.0),
    ]

    def draw_batches(self, model, *, seed=7, now=0.0, rounds=4000):
        rng = random.Random(seed)
        out = []
        for _ in range(rounds):
            out.extend(model.sample_many(rng, 1, self.DSTS, now))
        return out

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_batch_mean_matches_the_analytic_mean(self, model):
        delays = self.draw_batches(model)
        # 40k draws: 5% is many standard errors for every model here.
        assert sum(delays) / len(delays) == pytest.approx(model.mean(), rel=0.05)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_batch_delays_are_positive(self, model):
        assert min(self.draw_batches(model, rounds=200)) > 0.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_same_seed_draws_identical_batches(self, model):
        assert self.draw_batches(model, rounds=50) == self.draw_batches(model, rounds=50)

    def test_lognormal_batch_median_is_the_parameter(self):
        delays = sorted(self.draw_batches(LogNormalLatency(0.002, sigma=1.0)))
        assert delays[len(delays) // 2] == pytest.approx(0.002, rel=0.08)

    def test_biased_batch_speeds_up_favored_destinations_only(self):
        model = BiasedLatency(ConstantLatency(0.004), frozenset({3}), speedup=4.0)
        delays = model.sample_many(random.Random(1), 1, (2, 3, 4), 0.0)
        assert delays == pytest.approx([0.004, 0.001, 0.004])

    def test_biased_batch_from_a_favored_sender_is_fast_everywhere(self):
        model = BiasedLatency(ConstantLatency(0.004), frozenset({1}), speedup=2.0)
        delays = model.sample_many(random.Random(1), 1, (2, 3), 0.0)
        assert delays == pytest.approx([0.002, 0.002])

    def test_regime_shift_batch_scales_from_the_shift_on(self):
        model = RegimeShiftLatency(ConstantLatency(0.002), shift_at=10.0, factor=5.0)
        before = model.sample_many(random.Random(1), 1, (2, 3), 9.9)
        after = model.sample_many(random.Random(1), 1, (2, 3), 10.0)
        assert before == pytest.approx([0.002, 0.002])
        assert after == pytest.approx([0.010, 0.010])

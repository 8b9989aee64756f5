"""Property coverage for the bounded latency reservoir.

:class:`~repro.obs.registry.Histogram` is the one reservoir every
latency reduces through (the simulator's end-to-end latency and each
record-trace stage). It keeps quantiles honest while thinning
deterministically; these tests pin that property across
thinning/stride transitions and the degenerate edges (empty, single
sample, capacity=1).
"""

import random

import pytest

from repro.obs.registry import LATENCY_CAPACITY, Histogram


def exact_quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class TestEdgeCases:
    def test_empty_sampler(self):
        sampler = Histogram()
        assert sampler.capacity == LATENCY_CAPACITY
        assert sampler.count == 0
        assert sampler.mean() == 0.0
        for q in (0.0, 0.5, 0.95, 1.0):
            assert sampler.quantile(q) == 0.0

    def test_single_sample(self):
        sampler = Histogram()
        sampler.observe(0.25)
        assert sampler.count == 1
        assert sampler.mean() == 0.25
        for q in (0.0, 0.5, 1.0):
            assert sampler.quantile(q) == 0.25

    def test_quantile_endpoints(self):
        sampler = Histogram()
        for value in range(100):
            sampler.observe(float(value))
        assert sampler.quantile(0.0) == 0.0
        assert sampler.quantile(0.5) == pytest.approx(50, abs=2)
        assert sampler.quantile(1.0) == 99.0
        assert sampler.mean() == pytest.approx(49.5)

    def test_capacity_one_survives_and_stays_bounded(self):
        sampler = Histogram(capacity=1)
        for value in range(1000):
            sampler.observe(float(value))
        assert sampler.count == 1000
        assert len(sampler._samples) <= 1
        # Whatever it kept is a real observation.
        if sampler._samples:
            assert 0.0 <= sampler.quantile(0.5) <= 999.0

    def test_invalid_capacity_and_quantile(self):
        with pytest.raises(ValueError):
            Histogram(0)
        with pytest.raises(ValueError):
            Histogram(-3)
        with pytest.raises(ValueError):
            Histogram().quantile(-0.1)
        with pytest.raises(ValueError):
            Histogram().quantile(1.1)


class TestQuantileAccuracy:
    """Sampled quantiles track exact quantiles through thinning."""

    @pytest.mark.parametrize("capacity", [64, 256, 1000])
    @pytest.mark.parametrize("n", [50, 500, 5000, 20000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_stream(self, capacity, n, seed):
        rng = random.Random(seed)
        values = [rng.random() for _ in range(n)]
        sampler = Histogram(capacity=capacity)
        for value in values:
            sampler.observe(value)
        assert sampler.count == n
        # Reservoir never exceeds its bound.
        assert len(sampler._samples) <= capacity
        # Systematic sampling of an i.i.d. stream: quantiles stay close
        # to exact. Tolerance is 4 standard errors of the q-quantile for
        # the surviving sample size (density of U(0,1) is 1) — tight
        # enough to catch a thinning bug, loose enough for small
        # reservoirs, where only a few dozen samples survive.
        kept = len(sampler._samples)
        for q in (0.5, 0.9, 0.95):
            tolerance = max(0.05, 4.0 * (q * (1 - q) / kept) ** 0.5)
            assert sampler.quantile(q) == pytest.approx(
                exact_quantile(values, q), abs=tolerance
            )

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_monotone_stream_keeps_spread(self, n):
        """A sorted stream's sampled quantiles sit near the exact ones
        even right after a thinning transition (worst case: systematic
        sampling of a monotone sequence stays uniform over rank)."""
        values = [float(i) / n for i in range(n)]
        sampler = Histogram(capacity=128)
        for value in values:
            sampler.observe(value)
        for q in (0.1, 0.5, 0.9):
            assert sampler.quantile(q) == pytest.approx(q, abs=0.1)

    def test_across_thinning_transitions(self):
        """Accuracy holds at every point where the stride doubles."""
        capacity = 100
        sampler = Histogram(capacity=capacity)
        values = []
        rng = random.Random(42)
        transitions_seen = 0
        last_stride = sampler._stride
        for i in range(20000):
            value = rng.random()
            values.append(value)
            sampler.observe(value)
            if sampler._stride != last_stride:
                transitions_seen += 1
                last_stride = sampler._stride
                assert sampler.quantile(0.5) == pytest.approx(
                    exact_quantile(values, 0.5), abs=0.2
                )
        assert transitions_seen >= 5  # the test actually crossed strides

    def test_determinism(self):
        """Two samplers fed the same stream agree exactly — the whole
        simulator's reproducibility rests on this."""
        rng = random.Random(7)
        values = [rng.expovariate(10.0) for _ in range(5000)]
        a, b = Histogram(capacity=200), Histogram(capacity=200)
        for value in values:
            a.observe(value)
            b.observe(value)
        assert a._samples == b._samples
        assert a.quantile(0.95) == b.quantile(0.95)

    def test_mean_of_samples_tracks_true_mean(self):
        """The mean is over every observation, not the thinned sample."""
        rng = random.Random(3)
        values = [rng.random() for _ in range(8000)]
        sampler = Histogram(capacity=256)
        for value in values:
            sampler.observe(value)
        assert sampler.mean() == pytest.approx(sum(values) / len(values), rel=1e-12)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cips.core import RngStream
from cips.exceptions import WeightCollapseError
from cips.kalman import kalman_bucy_run
from cips.models import make_linear_gaussian, simulate_truth_and_observations
from cips.sir import (
    WeightedEnsemble,
    bootstrap_pf_step,
    ess,
    modified_weights,
    self_normalized_estimate,
    systematic_resample,
    uniform_weighted,
)

from oracles import modified_weights_direct, self_normalized_estimate_direct

# High-precision oracle from 200k replications: MSE of the self-normalized
# static estimator at d=1, N=1000, sigma0=sigma_w=1, f(x)=x.  Frozen here to
# pin the measured level of the estimator (noticeably below the
# exact-denominator estimator's 5.5e-3 because numerator/denominator
# correlation cancels part of the error).
STANDARD_PF_MSE_D1_N1000 = 9.30e-4


class TestWeightedEnsemble:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WeightedEnsemble(particles=np.zeros((2, 1)), weights=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            WeightedEnsemble(particles=np.zeros((2, 1)), weights=np.array([1.5, -0.5]))

    def test_ess_bounds(self):
        wens = uniform_weighted(np.zeros((8, 1)))
        assert ess(wens.weights) == pytest.approx(8.0)
        spike = WeightedEnsemble(particles=np.zeros((4, 1)),
                                 weights=np.array([1.0, 0.0, 0.0, 0.0]))
        assert ess(spike.weights) == pytest.approx(1.0)

    def test_ess_hand_value(self):
        wens = WeightedEnsemble(particles=np.zeros((2, 1)),
                                weights=np.array([0.75, 0.25]))
        assert ess(wens.weights) == pytest.approx(1.6)


class TestStaticEstimators:
    def test_single_sample_returns_its_value(self):
        samples = np.array([[3.0]])
        out = self_normalized_estimate(samples, np.array([99.0]), 1.0, samples[:, 0])
        assert out == 3.0

    def test_equidistant_samples_weighted_equally(self):
        samples = np.array([[1.0], [-1.0]])
        out = self_normalized_estimate(samples, np.zeros(1), 1.0, samples[:, 0] ** 2)
        assert out == pytest.approx(1.0)

    def test_measured_level_matches_frozen_oracle(self):
        # d=1, N=1000, M=2000 replications against the exact posterior
        rng = RngStream(40)
        reps, n = 2000, 1000
        errors = np.empty(reps)
        for i in range(reps):
            sub = rng.substream(i)
            truth = sub.standard_normal(1)
            z1 = truth + sub.standard_normal(1)
            samples = sub.standard_normal((n, 1))
            est = self_normalized_estimate(samples, z1, 1.0, samples[:, 0])
            errors[i] = (est - 0.5 * z1[0]) ** 2
        mse = errors.mean()
        assert 0.7 * STANDARD_PF_MSE_D1_N1000 <= mse <= 1.3 * STANDARD_PF_MSE_D1_N1000

    def test_modified_weights_average_to_one(self):
        # E[sum W-bar] = 1: the unnormalized weights are exactly unbiased
        rng = RngStream(41)
        reps, n = 10_000, 64
        sums = np.empty(reps)
        for i in range(reps):
            sub = rng.substream(i)
            truth = sub.standard_normal(1)
            z1 = truth + sub.standard_normal(1)
            samples = sub.standard_normal((n, 1))
            sums[i] = modified_weights(samples, z1, 1.0, 1.0) @ np.ones(n)
        stderr = sums.std(ddof=1) / np.sqrt(reps)
        assert abs(sums.mean() - 1.0) <= 4 * stderr

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(d=st.integers(1, 6), batch=st.sampled_from([(), (3,), (2, 3)]),
           n=st.integers(1, 60), sigma0=st.floats(0.2, 5.0), sigma_w=st.floats(0.2, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_direct_formulas(self, d, batch, n, sigma0, sigma_w, seed):
        # the coordinates are summed in place in the order numpy sums a
        # short last axis, so nothing moves, not even in the last bit
        gen = np.random.default_rng(seed)
        samples = sigma0 * gen.standard_normal(batch + (n, d))
        z1 = gen.uniform(-3.0, 3.0) + np.hypot(sigma0, sigma_w) * gen.standard_normal(batch + (d,))
        fvals = gen.standard_normal(batch + (n,))
        assert np.array_equal(self_normalized_estimate(samples, z1, sigma_w, fvals),
                              self_normalized_estimate_direct(samples, z1, sigma_w, fvals))
        assert np.array_equal(modified_weights(samples, z1, sigma0, sigma_w),
                              modified_weights_direct(samples, z1, sigma0, sigma_w))

    def test_modified_prior_must_be_centered_gaussian(self):
        # the closed-form denominator assumes N(0, sigma0^2 I); weights for a
        # sample set drawn that way reproduce the direct formula
        rng = RngStream(42)
        samples = rng.standard_normal((16, 2))
        z1 = np.array([0.2, -0.4])
        val = modified_weights(samples, z1, 1.0, 1.0) @ samples[:, 0]
        num = np.exp(-np.sum((z1 - samples) ** 2, axis=1) / 2)
        den = 16 * 0.5 * np.exp(-np.sum(z1**2) / 4)
        assert val == pytest.approx(float((num / den) @ samples[:, 0]), rel=1e-12)


class TestResampling:
    def test_systematic_resampling_degenerate(self):
        idx = systematic_resample(np.array([1.0, 0.0]), RngStream(0))
        assert np.array_equal(idx, np.zeros(2, dtype=idx.dtype))

    def test_draw_near_one_stays_in_range(self):
        # Normalised weights can sum to just below 1 by rounding; a uniform
        # draw just below 1 then put the last position past cumsum(w)[-1].
        class NearOne:
            def random(self):
                return np.nextafter(1.0, 0.0)

        gen = np.random.default_rng(2024)
        short = 0
        for _ in range(2000):
            w = gen.random(int(gen.integers(2, 50)))
            w /= w.sum()
            short += np.cumsum(w)[-1] < 1.0
            idx = systematic_resample(w, NearOne())
            assert idx.min() >= 0 and idx.max() < w.shape[0]
        assert short > 0  # the case the pin guards against did occur

    def test_resampling_preserves_weighted_mean(self):
        particles = np.array([-2.0, -0.5, 0.3, 1.7])
        weights = np.array([0.1, 0.4, 0.3, 0.2])
        target = weights @ particles
        rng = RngStream(10)
        reps = 10_000
        means = np.empty(reps)
        for i in range(reps):
            idx = systematic_resample(weights, rng)
            means[i] = particles[idx].mean()
        stderr = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) <= 4 * max(stderr, 1e-12)


class TestBootstrapFilter:
    def test_zero_observation_function_is_pure_propagation(self):
        model = make_linear_gaussian([[-1.0]], [[0.0]], [[0.5]], [0.0], [[1.0]])
        wens = uniform_weighted(model.sample_prior(RngStream(1), 64))
        out = bootstrap_pf_step(wens, np.array([0.7]), 0.1, model, RngStream(2))
        assert np.array_equal(out.weights, wens.weights)

    def test_linear_gaussian_matches_kalman_oracle(self):
        model = make_linear_gaussian([[-0.5]], [[1.0]], [[0.6]], [0.5], [[1.0]])
        rng = RngStream(31)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(0))
        oracle = kalman_bucy_run(model, obs)
        wens = uniform_weighted(model.sample_prior(rng.substream(1), 10_000))
        step_rng = rng.substream(2)
        for k in range(obs.num_steps):
            wens = bootstrap_pf_step(wens, obs.increments[k], obs.dt, model, step_rng)
        mean = wens.weights @ wens.particles
        tol = 3 * np.sqrt(oracle.final_state.cov[0, 0] / 10_000)
        assert abs(mean[0] - oracle.final_state.mean[0]) <= 2 * tol

    def test_weight_collapse_raises(self):
        # |h|^2 overflows for every particle: all log-weights hit -inf
        model = make_linear_gaussian([[0.0]], [[1.0]], [[0.0]], [0.0], [[1.0]])
        wens = uniform_weighted(np.array([[1e200], [-1e200]]))
        with pytest.raises(WeightCollapseError):
            bootstrap_pf_step(wens, np.array([0.0]), 1.0, model, RngStream(0))

    def test_max_weight_grows_with_dimension(self):
        # weight-collapse direction: average max weight increases in d
        rng = RngStream(50)
        reps, n = 200, 1000
        avg_max = []
        for d in range(1, 11):
            sub = rng.substream(d)
            vals = np.empty(reps)
            for i in range(reps):
                r = sub.substream(i)
                truth = r.standard_normal(d)
                z1 = truth + r.standard_normal(d)
                samples = r.standard_normal((n, d))
                logw = -np.sum((z1 - samples) ** 2, axis=1) / 2
                w = np.exp(logw - logw.max())
                w /= w.sum()
                vals[i] = w.max()
            avg_max.append(vals.mean())
        diffs = np.diff(avg_max)
        assert np.all(diffs > 0)
        assert avg_max[-1] > 10 * avg_max[0]

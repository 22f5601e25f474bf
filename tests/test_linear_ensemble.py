import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cips.core import RngStream
from cips.exceptions import NotPositiveDefiniteError
from cips.fpf import Ensemble
from cips.kalman import kalman_bucy_run
from cips.linear_ensemble import empirical_moments, linear_enkf_step
from cips.models import (
    make_linear_gaussian,
    make_static_param,
    simulate_truth_and_observations,
)
from oracles import consistency_residual

STABLE_2D = dict(
    A=np.array([[-1.0, 0.5], [-0.5, -1.0]]),
    H=np.array([[1.0, 0.0]]),
    sigma_B=0.5 * np.eye(2),
    m0=np.array([1.0, -1.0]),
    Sigma0=np.eye(2),
)


def stable_model():
    return make_linear_gaussian(**STABLE_2D)


class TestEmpiricalMoments:
    def test_hand_values(self):
        mean, cov = empirical_moments(np.array([[-1.0], [1.0]]))
        assert mean[0] == 0.0
        assert cov[0, 0] == pytest.approx(2.0)  # (N-1)-normalized

    def test_identical_particles(self):
        mean, cov = empirical_moments(np.full((5, 2), 3.0))
        assert np.array_equal(mean, [3.0, 3.0])
        assert np.all(cov == 0.0)

    def test_large_sample_consistency(self):
        x = RngStream(2).standard_normal((100_000, 2))
        _, cov = empirical_moments(x)
        assert np.linalg.norm(cov - np.eye(2), "fro") <= 3.0 / np.sqrt(100_000) * 2

    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            empirical_moments(np.array([[1.0]]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 2000), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_same_bits_for_every_layout(self, n, d, seed):
        gen = np.random.default_rng(seed)
        x = gen.uniform(-5.0, 5.0, d) + gen.uniform(0.1, 10.0) * gen.standard_normal((n, d))
        strided = np.zeros((2 * n, d + 1))
        strided[::2, 1:] = x
        mean, cov = empirical_moments(x)
        for other in (np.asfortranarray(x), strided[::2, 1:]):
            other_mean, other_cov = empirical_moments(other)
            np.testing.assert_array_equal(other_mean, mean)
            np.testing.assert_array_equal(other_cov, cov)


class TestConsistencyEquation:
    def test_all_variants_satisfy_consistency(self):
        rng = RngStream(12)
        A = rng.standard_normal((3, 3))
        H = rng.standard_normal((2, 3))
        Sigma_B = np.diag([0.5, 1.0, 0.2])
        for _ in range(5):
            g = rng.standard_normal((3, 3))
            Sigma_bar = g @ g.T + 0.3 * np.eye(3)
            for tag in ("sqrt", "perturbed", "deterministic"):
                resid = consistency_residual(tag, A, H, Sigma_B, Sigma_bar)
                assert resid <= 1e-8

    def test_consistency_with_observation_noise_scale(self):
        rng = RngStream(13)
        A = rng.standard_normal((2, 2))
        H = rng.standard_normal((1, 2))
        Sigma_bar = np.eye(2)
        resid = consistency_residual(
            "sqrt", A, H, 0.2 * np.eye(2), Sigma_bar, obs_noise_var=4.0
        )
        assert resid <= 1e-8

    def test_unknown_tag_rejected(self):
        model = make_static_param(1, 1.0, 1.0)
        with pytest.raises(ValueError, match="bogus"):
            consistency_residual("bogus", np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="bogus"):
            linear_enkf_step(Ensemble(np.zeros((2, 1))), np.zeros(1), 0.1, model, "bogus",
                             RngStream(0))


class TestLinearEnkfStep:
    def test_sqrt_variant_static_scalar_update_formula(self):
        # dX^i = Sigma^(N)/sigma_w^2 (dZ - (X^i + m^(N))/2 dt), verbatim
        model = make_static_param(1, 1.0, 2.0)
        x = np.array([[-1.0], [0.5], [2.0]])
        dz = np.array([0.3])
        dt = 0.05
        out = linear_enkf_step(Ensemble(x), dz, dt, model, "sqrt", RngStream(0))
        mean, cov = empirical_moments(x)
        expected = x + cov[0, 0] / 4.0 * (dz - 0.5 * (x + mean) * dt)
        assert np.abs(out.particles - expected).max() <= 1e-14

    def test_zero_observation_matrix_ignores_observations(self):
        model = make_linear_gaussian([[-0.5]], [[0.0]], [[0.4]], [0.0], [[1.0]])
        x = RngStream(3).standard_normal((32, 1))
        for tag in ("sqrt", "perturbed", "deterministic"):
            a = linear_enkf_step(Ensemble(x), np.array([5.0]), 0.1, model,
                                 tag, RngStream(7))
            b = linear_enkf_step(Ensemble(x), np.array([-5.0]), 0.1, model,
                                 tag, RngStream(7))
            assert np.array_equal(a.particles, b.particles)

    def test_all_variants_match_kalman_oracle(self):
        model = stable_model()
        rng = RngStream(2024)
        _, obs = simulate_truth_and_observations(model, 0.01, 1.0, rng.substream(0))
        oracle = kalman_bucy_run(model, obs)
        mT, ST = oracle.final_state.mean, oracle.final_state.cov
        n = 10_000
        se_mean = np.sqrt(np.diag(ST) / n)
        se_cov = np.sqrt((np.outer(np.diag(ST), np.diag(ST)) + ST**2) / n)
        results = {}
        for i, tag in enumerate(("sqrt", "perturbed", "deterministic")):
            ens = Ensemble(model.sample_prior(rng.substream(10 + i), n))
            step_rng = rng.substream(20 + i)
            for k in range(obs.num_steps):
                ens = linear_enkf_step(ens, obs.increments[k], obs.dt, model,
                                       tag, step_rng)
            mean, cov = empirical_moments(ens.particles)
            results[tag] = (mean, cov)
            assert np.all(np.abs(mean - mT) <= 3 * se_mean), tag
            assert np.all(np.abs(cov - ST) <= 3 * se_cov), tag
        # variant equivalence in law: terminal moments agree pairwise
        for tag_a in results:
            for tag_b in results:
                assert np.all(np.abs(results[tag_a][0] - results[tag_b][0]) <= 6 * se_mean)

    def test_deterministic_variant_tracks_riccati_covariance(self):
        model = stable_model()
        rng = RngStream(88)
        _, obs = simulate_truth_and_observations(model, 0.01, 1.0, rng.substream(0))
        oracle = kalman_bucy_run(model, obs)
        n = 10_000
        ens = Ensemble(model.sample_prior(rng.substream(1), n))
        step_rng = rng.substream(2)
        worst = 0.0
        for k in range(obs.num_steps):
            ens = linear_enkf_step(ens, obs.increments[k], obs.dt, model,
                                   "deterministic", step_rng)
            _, cov = empirical_moments(ens.particles)
            rel = np.linalg.norm(cov - oracle.covs[k + 1], "fro") / np.linalg.norm(
                oracle.covs[k + 1], "fro")
            worst = max(worst, rel)
        assert worst <= 0.05

    def test_deterministic_variant_singular_covariance_raises(self):
        model = make_static_param(1, 1.0, 1.0)
        degenerate = Ensemble(np.zeros((4, 1)))
        with pytest.raises(NotPositiveDefiniteError):
            linear_enkf_step(degenerate, np.zeros(1), 0.1, model,
                             "deterministic", RngStream(0))

    def test_requires_linear_descriptor(self):
        from cips.models import FilterModel

        model = FilterModel(
            dim_obs=1,
            drift=lambda x: np.zeros_like(x),
            sigma_B=np.zeros((1, 1)),
            observation=lambda x: x,
            sample_prior=lambda r, n: r.standard_normal((n, 1)),
        )
        with pytest.raises(ValueError, match="linear descriptor"):
            linear_enkf_step(Ensemble(np.zeros((2, 1))), np.zeros(1), 0.1, model,
                             "sqrt", RngStream(0))

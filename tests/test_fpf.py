import numpy as np
import pytest

from cips.core import RngStream
from cips.exceptions import ConfigError, FilterDivergenceError
from cips.fpf import (
    ConstantGainMethod,
    DiffusionMapGainMethod,
    Ensemble,
    GalerkinGainMethod,
    fpf_estimate,
    fpf_step,
    run_fpf,
)
from cips.gain import constant_gain, coordinate_basis
from cips.kalman import kalman_bucy_run
from cips.models import (
    FilterModel,
    ObservationPath,
    make_bimodal,
    make_linear_gaussian,
    make_static_param,
    simulate_truth_and_observations,
    static_posterior,
)


def bimodal_static_model(sigma_w):
    dens = make_bimodal(0.2)
    return FilterModel(
        dim_state=1,
        dim_obs=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.zeros((1, 1)),
        observation=lambda x: x,
        sample_prior=lambda r, n: dens.sample(r, n)[:, None],
        obs_noise_scale=sigma_w,
    ), dens


class TestEnsemble:
    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Ensemble(np.array([[1.0], [np.inf]]))

    def test_1d_input_promoted(self):
        ens = Ensemble(np.array([0.0, 1.0, 2.0]))
        assert ens.particles.shape == (3, 1)


class TestFpfStep:
    def test_matches_square_root_ensemble_update(self):
        # On a deterministic linear model the constant-gain FPF step is the
        # square-root ensemble update with the 1/N-normalized covariance.
        A = np.array([[-0.4, 0.2], [0.0, -0.3]])
        H = np.array([[1.0, 0.5]])
        model = make_linear_gaussian(A, H, np.zeros((2, 2)), np.zeros(2), np.eye(2))
        rng = RngStream(3)
        x = rng.standard_normal((64, 2))
        dz = np.array([0.17])
        dt = 0.05
        stepped = fpf_step(Ensemble(x), dz, dt, model, ConstantGainMethod(), rng.substream(1))

        gain = constant_gain(x, x @ H.T).values        # d x m, 1/N-normalized
        innovation = dz - 0.5 * (x @ H.T + (x @ H.T).mean(axis=0)) * dt
        expected = x + (x @ A.T) * dt + innovation @ gain.T
        assert np.abs(stepped.particles - expected).max() <= 1e-14

    def test_zero_innovation_for_particle_at_mean(self):
        # symmetric ensemble, linear h: the particle sitting at the mean sees
        # zero error when dZ equals its own predicted increment
        model = make_static_param(1, 1.0, 1.0)
        x = np.array([[-1.0], [0.0], [1.0]])
        dt = 0.1
        dz = np.zeros(1)  # equals (h(0) + mean h) / 2 * dt for the middle one
        out = fpf_step(Ensemble(x), dz, dt, model, ConstantGainMethod(), RngStream(0))
        assert out.particles[1, 0] == 0.0

    def test_static_benchmark_matches_posterior_mean(self):
        model = make_static_param(1, 1.0, 1.0)
        rng = RngStream(31)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(0))
        run = run_fpf(model, obs, 10_000, ConstantGainMethod(), rng.substream(1))
        z1 = obs.cumulative()[-1]
        target, _ = static_posterior(1.0, 1.0, z1)
        assert abs(run.means[-1][0] - target[0]) <= 3.0 / np.sqrt(10_000)

    def test_gain_failure_is_wrapped(self):
        model = make_static_param(1, 1.0, 1.0)

        def broken(particles, h_values):
            raise RuntimeError("boom")

        with pytest.raises(FilterDivergenceError, match="gain computation failed"):
            fpf_step(Ensemble(np.array([[0.0], [1.0]])), np.zeros(1), 0.1, model, broken, RngStream(0))

    def test_config_error_is_not_wrapped(self):
        model = make_static_param(1, 1.0, 1.0)

        def misconfigured(particles, h_values):
            raise ConfigError("bad setting")

        with pytest.raises(ConfigError, match="bad setting"):
            fpf_step(Ensemble(np.array([[0.0], [1.0]])), np.zeros(1), 0.1, model,
                     misconfigured, RngStream(0))

    def test_rejects_bad_observation_shape(self):
        model = make_static_param(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            fpf_step(Ensemble(np.zeros((4, 2))), np.zeros(1), 0.1, model, ConstantGainMethod(), RngStream(0))


class TestFpfEstimate:
    def test_normalization(self):
        ens = Ensemble(np.array([[1.0], [2.0], [3.0]]))
        assert fpf_estimate(ens, lambda x: np.ones(x.shape[0])) == 1.0

    def test_hand_value(self):
        ens = Ensemble(np.array([[-1.0], [0.0], [1.0]]))
        assert fpf_estimate(ens, lambda x: x[:, 0] ** 2) == pytest.approx(2.0 / 3.0)

    def test_rejects_nonfinite_values(self):
        ens = Ensemble(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            fpf_estimate(ens, lambda x: np.where(x[:, 0] > 0.5, np.inf, 1.0))


class TestRunFpf:
    def test_zero_steps_returns_prior_ensemble(self):
        model = make_static_param(1, 1.0, 1.0)
        obs = ObservationPath(dt=0.1, increments=np.zeros((0, 1)))
        rng = RngStream(5)
        run = run_fpf(model, obs, 100, ConstantGainMethod(), rng)
        prior = model.sample_prior(RngStream(5), 100)
        assert np.array_equal(run.ensemble.particles, prior)
        assert run.means.shape == (1, 1)

    def test_linear_gaussian_matches_kalman_oracle(self):
        A = np.array([[-1.0, 0.5], [-0.5, -1.0]])
        H = np.eye(2)
        model = make_linear_gaussian(A, H, 0.4 * np.eye(2), np.array([1.0, -1.0]), np.eye(2))
        rng = RngStream(71)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(0))
        oracle = kalman_bucy_run(model, obs)
        run = run_fpf(model, obs, 10_000, ConstantGainMethod(), rng.substream(1))
        se = np.sqrt(np.diag(oracle.terminal.cov) / 10_000)
        assert np.all(np.abs(run.means[-1] - oracle.terminal.mean) <= 3 * se)

    def test_galerkin_coordinate_basis_matches_constant_gain_run(self):
        model = make_static_param(2, 1.0, 1.0)
        rng = RngStream(13)
        _, obs = simulate_truth_and_observations(model, 0.05, 0.5, rng.substream(0))
        run_a = run_fpf(model, obs, 200, ConstantGainMethod(), rng.substream(1))
        run_b = run_fpf(model, obs, 200, GalerkinGainMethod(coordinate_basis(2)), rng.substream(1))
        assert np.abs(run_a.means - run_b.means).max() <= 1e-10

    def test_seed_determinism(self):
        model = make_static_param(1, 1.0, 1.0)
        _, obs = simulate_truth_and_observations(model, 0.05, 0.5, RngStream(1))
        a = run_fpf(model, obs, 128, ConstantGainMethod(), RngStream(2))
        b = run_fpf(model, obs, 128, ConstantGainMethod(), RngStream(2))
        assert np.array_equal(a.ensemble.particles, b.ensemble.particles)

    def test_uninformative_observation_preserves_bimodality(self):
        # sigma_w large: posterior ~= prior; the particle law must keep both
        # modes, cross-checked against the grid Bayes posterior
        model, dens = bimodal_static_model(10.0)
        rng = RngStream(31)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(5))
        run = run_fpf(model, obs, 1000, DiffusionMapGainMethod("auto"), rng.substream(6))
        x = np.sort(run.ensemble.particles[:, 0])

        z1 = obs.cumulative()[-1][0]
        grid = np.linspace(-3.5, 3.5, 2001)
        log_like = (grid * z1 - 0.5 * grid**2) / 10.0**2
        post = dens.pdf(grid) * np.exp(log_like)
        post /= np.trapezoid(post, grid)
        cdf = np.cumsum(post) * (grid[1] - grid[0])
        cdf /= cdf[-1]
        ecdf_dev = np.abs(
            np.interp(x, grid, cdf) - (np.arange(1, x.size + 1) - 0.5) / x.size
        ).max()
        assert ecdf_dev <= 0.2

        hist, edges = np.histogram(x, bins=30, range=(-3, 3), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        at = lambda v: hist[np.argmin(np.abs(centers - v))]
        assert at(-1.0) > 5 * max(at(0.0), 1e-12)
        assert at(+1.0) > 5 * max(at(0.0), 1e-12)


def test_diffusion_map_gain_method_warm_start_state():
    method = DiffusionMapGainMethod(eps=0.2)
    dens = make_bimodal(0.2)
    x = dens.sample(RngStream(3), 100)[:, None]
    method(x, x[:, 0])
    assert method._phi_prev is not None
    method.reset()
    assert method._phi_prev is None


@pytest.mark.parametrize("spec, expected", [
    ("auto", "auto"), (0.1, 0.1), ("0.1", 0.1), (" 2e-1 ", 0.2), (3, 3.0),
])
def test_diffusion_map_gain_method_normalises_eps(spec, expected):
    assert DiffusionMapGainMethod(eps=spec).eps == expected


@pytest.mark.parametrize("spec", ["banana", "", "Auto", 0.0, -0.1, "-1", "nan", "inf",
                                  True, None, [0.1]])
def test_diffusion_map_gain_method_rejects_bad_eps(spec):
    with pytest.raises(ConfigError, match="eps"):
        DiffusionMapGainMethod(eps=spec)

from functools import partial

import numpy as np
import pytest

from cips.core import RngStream, empirical_moments
from cips.exceptions import ConfigError, FilterDivergenceError, GainSolveError
from cips.cli import _bandwidth
from cips.fpf import Ensemble, fpf_step, run_filter
from cips.gain import constant_gain, coordinate_basis, diffusion_map_gain, galerkin_gain
from cips.kalman import kalman_bucy_run
from cips.linear_ensemble import linear_enkf_step
from cips.models import (
    FilterModel,
    ObservationPath,
    make_bimodal,
    make_linear_gaussian,
    make_static_param,
    simulate_truth_and_observations,
)
from cips.sir import bootstrap_pf_step, uniform_weighted
from oracles import polynomial_basis_1d, static_posterior


def fpf_from_prior(model, obs, num_particles, gain_method, rng):
    """The FPF along ``obs`` from an i.i.d. prior ensemble drawn from ``rng``."""
    start = Ensemble(model.sample_prior(rng, num_particles))
    return run_filter(model, obs, start, partial(fpf_step, gain_method=gain_method), rng)


auto_dm_gain = partial(diffusion_map_gain, eps="auto")


def bimodal_static_model(sigma_w):
    dens = make_bimodal(0.2)
    return FilterModel(
        dim_obs=1,
        drift=lambda x: np.zeros_like(x),
        sigma_B=np.zeros((1, 1)),
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
        stepped = fpf_step(Ensemble(x), dz, dt, model, constant_gain, rng.substream(1))

        gain = constant_gain(x, x @ H.T)[0]            # d x m, 1/N-normalized
        innovation = dz - 0.5 * (x @ H.T + (x @ H.T).mean(axis=0)) * dt
        expected = x + (x @ A.T) * dt + innovation @ gain.T
        assert np.abs(stepped.particles - expected).max() <= 1e-14

    def test_filters_share_the_model_move(self):
        # with a zero gain the FPF step, and without resampling the bootstrap
        # step, is the model's Euler-Maruyama move, draws included
        model = make_linear_gaussian(**README_LINEAR)
        x = model.sample_prior(RngStream(5), 40)
        dt = 0.01
        moved = model.propagate(x, dt, RngStream(6))
        assert not np.array_equal(moved, x + model.drift(x) * dt)

        def zero_gain(particles, h_values):
            return np.zeros(particles.shape + h_values.shape[1:])

        fpf = fpf_step(Ensemble(x), np.zeros(1), dt, model, zero_gain, RngStream(6))
        np.testing.assert_array_equal(fpf.particles, moved)
        sir = bootstrap_pf_step(uniform_weighted(x), np.zeros(1), dt, model, RngStream(6))
        assert np.ptp(sir.weights) > 0              # weighted, not resampled
        np.testing.assert_array_equal(sir.particles, moved)

    def test_zero_innovation_for_particle_at_mean(self):
        # symmetric ensemble, linear h: the particle sitting at the mean sees
        # zero error when dZ equals its own predicted increment
        model = make_static_param(1, 1.0, 1.0)
        x = np.array([[-1.0], [0.0], [1.0]])
        dt = 0.1
        dz = np.zeros(1)  # equals (h(0) + mean h) / 2 * dt for the middle one
        out = fpf_step(Ensemble(x), dz, dt, model, constant_gain, RngStream(0))
        assert out.particles[1, 0] == 0.0

    def test_static_benchmark_matches_posterior_mean(self):
        model = make_static_param(1, 1.0, 1.0)
        rng = RngStream(31)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(0))
        run = fpf_from_prior(model, obs, 10_000, constant_gain, rng.substream(1))
        z1 = np.cumsum(obs.increments, axis=0)[-1]
        target, _ = static_posterior(1.0, 1.0, z1)
        assert abs(run.means[-1][0] - target[0]) <= 3.0 / np.sqrt(10_000)

    def test_gain_failure_is_wrapped(self):
        model = make_static_param(1, 1.0, 1.0)

        def broken(particles, h_values):
            raise RuntimeError("boom")

        with pytest.raises(FilterDivergenceError, match="gain computation failed"):
            fpf_step(Ensemble(np.array([[0.0], [1.0]])), np.zeros(1), 0.1, model, broken, RngStream(0))

    @pytest.mark.parametrize("gain_method, error", [
        (constant_gain, "particle became nonfinite"),
        (partial(galerkin_gain, basis=coordinate_basis(1)), "gain computation failed.*Galerkin"),
    ], ids=["constant", "galerkin"])
    def test_nonfinite_gain_is_a_divergence(self, gain_method, error):
        # x^T (h - hbar) overflows.  The constant gain comes out nonfinite and
        # the step's own particle check stops the run; Galerkin refuses its
        # nonfinite system.  Either way it is a numeric error (exit code 1)
        model = make_static_param(1, 1.0, 1.0)
        x = np.array([[-1e200], [1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FilterDivergenceError, match=error):
                fpf_step(Ensemble(x), np.zeros(1), 0.1, model, gain_method, RngStream(0))

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
            fpf_step(Ensemble(np.zeros((4, 2))), np.zeros(1), 0.1, model, constant_gain, RngStream(0))


def test_overflowing_galerkin_system_is_a_gain_failure(capfd):
    # monomials of degree 5 overflow at a particle at 1e80: LAPACK printed
    # "On entry to DLASCL parameter number 4 had an illegal value" to fd 2,
    # the gain came back nonfinite, and the step blamed the particle
    x = np.append(RngStream(0).standard_normal(50), 1e80)
    basis = polynomial_basis_1d([1, 2, 3, 4, 5])
    model, _ = bimodal_static_model(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GainSolveError, match="Galerkin system"):
            galerkin_gain(x, x, basis)
        with pytest.raises(FilterDivergenceError, match="gain computation failed"):
            fpf_step(Ensemble(x), np.zeros(1), 0.02, model, partial(galerkin_gain, basis=basis),
                     RngStream(1))
    assert capfd.readouterr().err == ""


class TestRunFpf:
    def test_zero_steps_returns_prior_ensemble(self):
        model = make_static_param(1, 1.0, 1.0)
        obs = ObservationPath(dt=0.1, increments=np.zeros((0, 1)))
        rng = RngStream(5)
        run = fpf_from_prior(model, obs, 100, constant_gain, rng)
        prior = model.sample_prior(RngStream(5), 100)
        assert np.array_equal(run.final_state.particles, prior)
        assert run.means.shape == (1, 1)

    def test_linear_gaussian_matches_kalman_oracle(self):
        A = np.array([[-1.0, 0.5], [-0.5, -1.0]])
        H = np.eye(2)
        model = make_linear_gaussian(A, H, 0.4 * np.eye(2), np.array([1.0, -1.0]), np.eye(2))
        rng = RngStream(71)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(0))
        oracle = kalman_bucy_run(model, obs)
        run = fpf_from_prior(model, obs, 10_000, constant_gain, rng.substream(1))
        se = np.sqrt(np.diag(oracle.final_state.cov) / 10_000)
        assert np.all(np.abs(run.means[-1] - oracle.final_state.mean) <= 3 * se)

    def test_galerkin_coordinate_basis_matches_constant_gain_run(self):
        model = make_static_param(2, 1.0, 1.0)
        rng = RngStream(13)
        _, obs = simulate_truth_and_observations(model, 0.05, 0.5, rng.substream(0))
        run_a = fpf_from_prior(model, obs, 200, constant_gain, rng.substream(1))
        run_b = fpf_from_prior(model, obs, 200, partial(galerkin_gain, basis=coordinate_basis(2)), rng.substream(1))
        assert np.abs(run_a.means - run_b.means).max() <= 1e-10

    def test_seed_determinism(self):
        model = make_static_param(1, 1.0, 1.0)
        _, obs = simulate_truth_and_observations(model, 0.05, 0.5, RngStream(1))
        a = fpf_from_prior(model, obs, 128, constant_gain, RngStream(2))
        b = fpf_from_prior(model, obs, 128, constant_gain, RngStream(2))
        assert np.array_equal(a.final_state.particles, b.final_state.particles)

    def test_uninformative_observation_preserves_bimodality(self):
        # sigma_w large: posterior ~= prior; the particle law must keep both
        # modes, cross-checked against the grid Bayes posterior
        model, dens = bimodal_static_model(10.0)
        rng = RngStream(31)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, rng.substream(5))
        run = fpf_from_prior(model, obs, 1000, auto_dm_gain, rng.substream(6))
        x = np.sort(run.final_state.particles[:, 0])

        z1 = np.cumsum(obs.increments, axis=0)[-1][0]
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


README_LINEAR = dict(
    A=np.array([[-1.0, 0.5], [-0.5, -1.0]]),
    H=np.array([[1.0, 0.0]]),
    sigma_B=0.5 * np.eye(2),
    m0=np.array([1.0, -1.0]),
    Sigma0=np.eye(2),
)


ENKF_TAGS = {"enkf-sqrt": "sqrt", "enkf-perturbed": "perturbed", "enkf-det": "deterministic"}


def reference_moments(method, model, obs, n, rng):
    """The stepping loops that ``cips filter`` ran for enkf-* and sir before run_filter.

    Kept verbatim as the reference: the same draws in the same order (the
    prior from ``rng``, then each step's draws), the moments formed by hand.
    """
    dt = obs.dt
    if method.startswith("enkf-"):
        variant = ENKF_TAGS[method]
        ens = Ensemble(model.sample_prior(rng, n))
        means = [empirical_moments(ens.particles)[0]]
        covs = [empirical_moments(ens.particles)[1]]
        for k in range(obs.num_steps):
            ens = linear_enkf_step(ens, obs.increments[k], dt, model, variant, rng)
            m, s = empirical_moments(ens.particles)
            means.append(m)
            covs.append(s)
        return np.array(means), np.array(covs)
    wens = uniform_weighted(model.sample_prior(rng, n))
    means, covs = [], []
    w_mean = wens.weights @ wens.particles
    means.append(w_mean)
    covs.append((wens.particles - w_mean).T @ (wens.weights[:, None] * (wens.particles - w_mean)))
    for k in range(obs.num_steps):
        wens = bootstrap_pf_step(wens, obs.increments[k], dt, model, rng)
        w_mean = wens.weights @ wens.particles
        means.append(w_mean)
        covs.append((wens.particles - w_mean).T @ (wens.weights[:, None] * (wens.particles - w_mean)))
    return np.array(means), np.array(covs)


def unbiased_constant_gain(particles, h_values):
    """The constant gain rescaled by N/(N-1): Sigma^(N) H^T with the (N-1)-normalized Sigma."""
    n = particles.shape[0]
    return constant_gain(particles, h_values) * (n / (n - 1))


class TestRunFilter:
    @pytest.mark.parametrize("method", ["enkf-sqrt", "enkf-perturbed", "enkf-det", "sir"])
    @pytest.mark.parametrize("linear", [True, False])
    def test_matches_reference_loops_bitwise(self, method, linear):
        model = make_linear_gaussian(**README_LINEAR) if linear else make_static_param(2, 1.0, 1.0)
        _, obs = simulate_truth_and_observations(model, 0.02, 1.0, RngStream(8).substream(0))
        ref_means, ref_covs = reference_moments(method, model, obs, 60, RngStream(8).substream(1))

        rng = RngStream(8).substream(1)
        prior = model.sample_prior(rng, 60)
        if method == "sir":
            start, step = uniform_weighted(prior), bootstrap_pf_step
        else:
            start = Ensemble(prior)
            step = partial(linear_enkf_step, variant=ENKF_TAGS[method])
        run = run_filter(model, obs, start, step, rng)
        np.testing.assert_array_equal(run.times, obs.times)
        np.testing.assert_array_equal(run.means, ref_means)
        np.testing.assert_array_equal(run.covs, ref_covs)

    def test_moments_formed_once_per_state(self, monkeypatch):
        import cips.fpf

        calls = []
        monkeypatch.setattr(cips.fpf, "empirical_moments",
                            lambda x: calls.append(1) or empirical_moments(x))
        model = make_linear_gaussian(**README_LINEAR)
        _, obs = simulate_truth_and_observations(model, 0.02, 0.2, RngStream(1))
        start = Ensemble(model.sample_prior(RngStream(2), 30))
        run_filter(model, obs, start, partial(linear_enkf_step, variant="sqrt"),
                   RngStream(3))
        assert len(calls) == obs.num_steps + 1

    @pytest.mark.parametrize("steps", [1, 50])
    def test_square_root_enkf_is_constant_gain_fpf(self, steps):
        # The paper's identity: with linear h the constant-gain FPF is the
        # square-root EnKF.  The two codes differ only in the covariance
        # normalization (1/N for constant_gain, 1/(N-1) for the EnKF), so a
        # rescaled constant gain must reproduce the EnKF to rounding, process
        # noise and its draws included.
        model = make_linear_gaussian(**README_LINEAR)
        _, obs = simulate_truth_and_observations(model, 0.02, 0.02 * steps, RngStream(9))
        start = Ensemble(model.sample_prior(RngStream(10), 200))
        fpf = run_filter(model, obs, start, partial(fpf_step, gain_method=unbiased_constant_gain),
                         RngStream(11))
        enkf = run_filter(model, obs, start, partial(linear_enkf_step, variant="sqrt"),
                          RngStream(11))
        x_fpf, x_enkf = fpf.final_state.particles, enkf.final_state.particles
        assert not np.array_equal(x_enkf, start.particles)
        assert np.abs(x_fpf - x_enkf).max() <= 1e-12 * np.abs(x_enkf).max()


# The bandwidth of the fpf-dm method is cast with the other options of
# ``cips filter``; the gain function then takes it as given.
@pytest.mark.parametrize("spec, expected", [
    ("auto", "auto"), (0.1, 0.1), ("0.1", 0.1), (" 2e-1 ", 0.2), (3, 3.0),
])
def test_diffusion_map_gain_method_normalises_eps(spec, expected):
    assert _bandwidth(spec) == expected


@pytest.mark.parametrize("spec", ["banana", "", "Auto", 0.0, -0.1, "-1", "nan", "inf",
                                  True, None, [0.1]])
def test_diffusion_map_gain_method_rejects_bad_eps(spec):
    with pytest.raises(ConfigError, match="eps"):
        _bandwidth(spec)

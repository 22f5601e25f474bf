import numpy as np
import pytest
from dataclasses import replace

from cips.core import RngStream
from cips.dual_enkf import dual_enkf_backward_step, dual_enkf_init
from cips.fpf import Ensemble, fpf_step
from cips.gain import constant_gain
from cips.linear_ensemble import linear_enkf_step
from cips.models import (
    Density1D,
    ObservationPath,
    grid_steps,
    lq_matrices,
    make_bimodal,
    make_linear_gaussian,
    make_lq_canonical,
    make_static_param,
    recover_lq_matrices,
    simulate_truth_and_observations,
)
from cips.sir import bootstrap_pf_step, uniform_weighted
from oracles import controllability_matrix, static_posterior


class TestMakeLinearGaussian:
    def test_scalar_trivial(self):
        model = make_linear_gaussian([[0.0]], [[1.0]], [[0.0]], [0.0], [[1.0]])
        x = np.array([[2.5]])
        assert model.drift(x)[0, 0] == 0.0
        assert model.observation(x)[0, 0] == 2.5

    def test_negative_identity_drift(self):
        model = make_linear_gaussian(-np.eye(2), np.eye(2), np.eye(2), np.zeros(2), np.eye(2))
        out = model.drift(np.array([[1.0, 1.0]]))
        assert np.array_equal(out, np.array([[-1.0, -1.0]]))

    def test_descriptor_agrees_with_oracles(self):
        rng = RngStream(4)
        A = rng.standard_normal((3, 3))
        H = rng.standard_normal((2, 3))
        model = make_linear_gaussian(A, H, 0.3 * np.eye(3), np.zeros(3), np.eye(3))
        x = rng.standard_normal((10, 3))
        assert np.abs(model.drift(x) - x @ A.T).max() <= 1e-12
        assert np.abs(model.observation(x) - x @ H.T).max() <= 1e-12

    def test_rejects_bad_sigma0(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_linear_gaussian([[0.0]], [[1.0]], [[1.0]], [0.0], [[0.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_linear_gaussian(np.eye(2), np.eye(2), np.eye(2), np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160, float("nan"), -1.0])
    def test_rejects_noise_scale_whose_square_leaves_the_normal_floats(self, scale):
        # 1e-160 squares to a subnormal, whose reciprocal overflows
        with pytest.raises(ValueError, match=r"^obs_noise_scale \(sigma_w\)"):
            make_linear_gaussian([[0.0]], [[1.0]], [[1.0]], [0.0], [[1.0]],
                                 obs_noise_scale=scale)


class TestStaticParam:
    def test_posterior_formula(self):
        # m_1 = sigma0^2 / (sigma0^2 + sigma_w^2) Z_1
        mean, cov = static_posterior(1.0, 1.0, np.array([1.0]))
        assert mean[0] == pytest.approx(0.5, abs=1e-15)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-15)
        mean2, _ = static_posterior(2.0, 1.0, np.array([1.0, -1.0]))
        assert np.allclose(mean2, [0.8, -0.8])

    def test_zero_observation_gives_zero_mean(self):
        for s0, sw in [(0.5, 1.0), (2.0, 0.3)]:
            mean, _ = static_posterior(s0, sw, np.zeros(3))
            assert np.array_equal(mean, np.zeros(3))

    def test_model_structure(self):
        model = make_static_param(2, 1.5, 0.7)
        x = np.array([[1.0, -2.0]])
        assert np.array_equal(model.drift(x), np.zeros((1, 2)))
        assert np.array_equal(model.observation(x), x)
        assert model.obs_noise_scale == 0.7
        assert np.array_equal(model.linear.Sigma0, 1.5**2 * np.eye(2))

    def test_state_path_is_constant(self):
        model = make_static_param(2, 1.0, 1.0)
        states, _ = simulate_truth_and_observations(model, 0.1, 1.0, RngStream(0))
        assert np.all(states == states[0])

    def test_invalid_scales(self):
        with pytest.raises(ValueError):
            make_static_param(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_static_param(1, 1.0, -1.0)
        with pytest.raises(ValueError):
            make_static_param(0, 1.0, 1.0)

    @pytest.mark.parametrize("key", ["sigma0", "sigma_w"])
    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e-200, 1e-300])
    def test_rejects_scale_whose_square_overflows_or_underflows(self, key, scale):
        # Python's 1e200**2 raises OverflowError; 1e-200**2 is 0
        scales = {"sigma0": 1.0, "sigma_w": 1.0, key: scale}
        with pytest.raises(ValueError, match=rf"^{key} must be positive"):
            make_static_param(1, scales["sigma0"], scales["sigma_w"])

    def test_accepts_extreme_scales_with_normal_squares(self):
        model = make_static_param(1, 1e150, 1e-150)
        assert model.obs_noise_scale == 1e-150


class TestBimodal:
    def test_density_at_origin(self):
        dens = make_bimodal(0.2)
        expected = np.exp(-1.0 / 0.4) / np.sqrt(0.4 * np.pi)
        assert dens.pdf(0.0) == pytest.approx(expected, rel=1e-12)

    def test_mean_zero(self):
        assert make_bimodal(0.3).mean() == 0.0

    def test_variance_formula_and_quadrature(self):
        dens = make_bimodal(0.2)
        assert dens.variance() == pytest.approx(1.2, rel=1e-12)
        # independent check by quadrature over the support grid
        grid = dens.support_grid(20001)
        rho = dens.pdf(grid)
        quad_var = np.trapezoid(grid**2 * rho, grid)
        assert quad_var == pytest.approx(1.2, rel=1e-6)

    def test_sampling_moments(self):
        dens = make_bimodal(0.2)
        x = dens.sample(RngStream(9), 200_000)
        assert abs(x.mean()) < 4 * np.sqrt(1.2 / 200_000)
        assert abs(x.var() - 1.2) < 0.02

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            make_bimodal(0.0)


class TestSimulate:
    def test_zero_noise_euler_step(self):
        model = make_linear_gaussian([[-1.0]], [[1.0]], [[0.0]], [1.0], [[1e-20]])
        states, _ = simulate_truth_and_observations(model, 0.25, 0.25, RngStream(0))
        x0 = states[0, 0]
        assert states[1, 0] == pytest.approx(x0 * (1 - 0.25), rel=1e-12)

    def test_observation_increment_mean(self):
        # E[dZ | X] = h(X) dt over many repetitions, CLT bound
        model = make_static_param(1, 1.0, 1.0)
        reps, dt = 100_000, 0.1
        rng = RngStream(12)
        increments = np.empty(reps)
        x0 = np.empty(reps)
        for i in range(0, reps, 20_000):
            n = min(20_000, reps - i)
            sub = rng.substream(i)
            x = sub.standard_normal(n)
            dw = np.sqrt(dt) * sub.standard_normal(n)
            increments[i : i + n] = x * dt + dw
            x0[i : i + n] = x
        resid = increments - x0 * dt
        assert abs(resid.mean()) < 4 * np.sqrt(dt / reps)

    def test_horizon_must_be_multiple_of_dt(self):
        model = make_static_param(1, 1.0, 1.0)
        with pytest.raises(ValueError, match="multiple"):
            simulate_truth_and_observations(model, 0.3, 1.0, RngStream(0))

    def test_monte_carlo_moments_match_odes(self):
        # dm = Am dt ; dS = AS + SA' + Sigma_B dt, checked within 3 std errors
        A = np.array([[-1.0, 0.3], [0.0, -0.5]])
        sig = np.diag([0.4, 0.8])
        model = make_linear_gaussian(A, np.eye(2), sig, np.array([1.0, 0.0]), 0.5 * np.eye(2))
        dt, horizon, reps = 0.05, 1.0, 10_000
        rng = RngStream(99)
        finals = np.empty((reps, 2))
        for i in range(reps):
            path, _ = simulate_truth_and_observations(model, dt, horizon, rng.substream(i))
            finals[i] = path[-1]
        m = np.array([1.0, 0.0])
        S = 0.5 * np.eye(2)
        for _ in range(int(horizon / dt)):
            m = m + A @ m * dt
            S = S + (A @ S + S @ A.T + sig @ sig.T) * dt
        se_mean = np.sqrt(np.diag(S) / reps)
        assert np.all(np.abs(finals.mean(axis=0) - m) < 3 * se_mean)
        emp_cov = np.cov(finals.T)
        se_cov = np.sqrt((np.outer(np.diag(S), np.diag(S)) + S**2) / reps)
        assert np.all(np.abs(emp_cov - S) < 3 * se_cov)


class TestGridSteps:
    @pytest.mark.parametrize("span, dt, steps", [
        (1.0, 0.02, 50), (0.3, 0.1, 3), (10.0, 0.02, 500), (1.0, 1 / 3, 3),
    ])
    def test_whole_step_counts(self, span, dt, steps):
        assert grid_steps(span, dt) == steps == int(round(span / dt))

    @pytest.mark.parametrize("span, dt, match", [
        (1.0, 0.0, "positive"),
        (1.0, -0.1, "positive"),
        (1.0, float("nan"), "positive"),
        (1.0, 0.3, "multiple"),
        (1.0, 0.6, "multiple"),
        (1e308, 0.02, "finite"),
        (10.0, 1e-320, "finite"),
        (float("inf"), 0.02, "finite"),
        (float("nan"), 0.02, "finite"),
        (1e-10, 0.02, "shorter than one step"),
        (0.0, 0.02, "shorter than one step"),
    ])
    def test_rejects_bad_steps(self, span, dt, match):
        with pytest.raises(ValueError, match=match):
            grid_steps(span, dt)


class TestObservationPath:
    def test_grid_consistency(self):
        path = ObservationPath(dt=0.02, increments=np.zeros((500, 1)))
        assert path.num_steps == 500
        assert path.times.shape == (501,)
        assert abs(path.times[-1] - 10.0) <= 1e-12 * 10.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ObservationPath(dt=0.1, increments=np.array([[np.nan]]))


def _nan_dt_steps():
    """Every constructor and step that takes a dt, called with dt = NaN."""
    model = make_static_param(1, 1.0, 1.0)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    dz = np.zeros(1)
    lq = make_lq_canonical(2, RngStream(0))
    return {
        "ObservationPath": lambda dt: ObservationPath(dt=dt, increments=np.zeros((3, 1))),
        "fpf_step": lambda dt: fpf_step(Ensemble(x), dz, dt, model, constant_gain, RngStream(1)),
        "linear_enkf_step": lambda dt: linear_enkf_step(Ensemble(x), dz, dt, model, "sqrt", RngStream(1)),
        "bootstrap_pf_step": lambda dt: bootstrap_pf_step(uniform_weighted(x), dz, dt, model, RngStream(1)),
        "dual_enkf_backward_step": lambda dt: dual_enkf_backward_step(
            dual_enkf_init(lq, 10, RngStream(1)), dt, lq, RngStream(2)),
    }


@pytest.mark.parametrize("name", list(_nan_dt_steps()))
def test_nan_dt_is_a_value_error(name):
    # NaN <= 0 is False, so a "dt <= 0" check lets NaN through to a numeric failure
    with pytest.raises(ValueError, match="dt must be positive"):
        _nan_dt_steps()[name](float("nan"))


class TestLQCanonical:
    def test_d1_structure(self):
        lq = make_lq_canonical(1, RngStream(0))
        assert lq.B.shape == (1, 1) and lq.B[0, 0] == 1.0
        assert lq.A.shape == (1, 1)

    def test_d2_companion_form(self):
        lq = make_lq_canonical(2, RngStream(1))
        assert lq.A[0, 0] == 0.0 and lq.A[0, 1] == 1.0
        assert np.array_equal(lq.B, np.array([[0.0], [1.0]]))
        assert np.array_equal(lq.C, np.eye(2))
        assert np.array_equal(lq.R, np.eye(1))
        assert np.array_equal(lq.P_T, np.eye(2))

    def test_controllable_up_to_d10(self):
        for d in range(1, 11):
            lq = make_lq_canonical(d, RngStream(100 + d))
            rank = np.linalg.matrix_rank(controllability_matrix(lq.A, lq.B))
            assert rank == d

    def test_oracle_recovery_matches_matrices(self):
        lq = make_lq_canonical(4, RngStream(3))
        A, B, C = recover_lq_matrices(lq)
        assert np.allclose(A, lq.A, atol=1e-12)
        assert np.allclose(B, lq.B, atol=1e-12)
        assert np.allclose(C, lq.C, atol=1e-12)
        # lq_matrices prefers the explicit matrices and probes all three when
        # any is withheld
        A2, _, _ = lq_matrices(lq)
        assert A2 is lq.A
        A3, _, _ = lq_matrices(replace(lq, C=None))
        assert A3 is not lq.A and np.allclose(A3, lq.A)

    def test_dynamics_linear_in_both_arguments(self):
        lq = make_lq_canonical(3, RngStream(5))
        rng = RngStream(6)
        for _ in range(5):
            x1, x2 = rng.standard_normal((2, 3))
            u1, u2 = rng.standard_normal((2, 1))
            lhs = lq.dynamics(2.0 * x1 - x2, 2.0 * u1 - u2)
            rhs = 2.0 * lq.dynamics(x1, u1) - lq.dynamics(x2, u2)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_density1d_validation():
    with pytest.raises(ValueError):
        Density1D(means=[0.0], variances=[1.0], weights=[0.5])
    with pytest.raises(ValueError):
        Density1D(means=[0.0], variances=[-1.0], weights=[1.0])


@pytest.mark.parametrize("field", ["means", "variances", "weights"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_density1d_rejects_nonfinite(field, bad):
    # NaN passes both "variances <= 0" and the weight-sum check
    params = dict(means=[0.0, 1.0], variances=[1.0, 1.0], weights=[0.5, 0.5])
    params[field] = [params[field][0], bad]
    with pytest.raises(ValueError, match=field):
        Density1D(**params)

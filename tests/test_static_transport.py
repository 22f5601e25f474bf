import numpy as np
import pytest
from scipy.stats import ks_2samp

from cips.core import RngStream
from cips.exceptions import NotPositiveDefiniteError
from cips.fpf import Ensemble
from cips.kalman import GaussianBelief
from cips.static_transport import JointGaussian, blue_update, ot_affine_map, perturbed_enkf_map
from oracles import heat_transport_step, static_posterior


def random_joint(rng, d=3, m=2):
    g = rng.standard_normal((d + m, d + m))
    joint = g @ g.T + 0.5 * np.eye(d + m)
    return JointGaussian(
        mean_x=rng.standard_normal(d),
        mean_y=rng.standard_normal(m),
        cov_x=joint[:d, :d],
        cov_xy=joint[:d, d:],
        cov_y=joint[d:, d:],
    )


class TestJointGaussian:
    def test_rejects_inconsistent_blocks(self):
        # cross block too large: joint covariance indefinite
        with pytest.raises(NotPositiveDefiniteError):
            JointGaussian(mean_x=[0.0], mean_y=[0.0],
                          cov_x=[[1.0]], cov_xy=[[5.0]], cov_y=[[1.0]])

    def test_rejects_singular_cov_y(self):
        with pytest.raises(NotPositiveDefiniteError):
            JointGaussian(mean_x=[0.0], mean_y=[0.0],
                          cov_x=[[1.0]], cov_xy=[[0.0]], cov_y=[[0.0]])

    def test_sampling_moments(self):
        jg = random_joint(RngStream(1))
        x, y = jg.sample(RngStream(2), 200_000)
        assert np.abs(x.mean(axis=0) - jg.mean_x).max() < 0.05
        emp = np.cov(np.hstack([x, y]).T)
        assert np.abs(emp - jg.joint_cov()).max() < 0.15


class TestBlueUpdate:
    def test_independent_blocks_return_prior(self):
        jg = JointGaussian(mean_x=[1.0], mean_y=[-2.0],
                           cov_x=[[2.0]], cov_xy=[[0.0]], cov_y=[[3.0]])
        mean, cov = blue_update(jg, np.array([10.0]))
        assert mean[0] == 1.0
        assert cov[0, 0] == 2.0

    def test_perfect_correlation_collapses_variance(self):
        jg = JointGaussian(mean_x=[0.0], mean_y=[0.0],
                           cov_x=[[1.0]], cov_xy=[[1.0]], cov_y=[[1.0]])
        mean, cov = blue_update(jg, np.array([2.0]))
        assert mean[0] == pytest.approx(2.0)
        assert abs(cov[0, 0]) <= 1e-14

    def test_recovers_static_benchmark_posterior(self):
        # Y = X + W with X ~ N(0, s0^2 I), W ~ N(0, sw^2 I)
        s0, sw = 1.3, 0.8
        d = 2
        jg = JointGaussian(
            mean_x=np.zeros(d), mean_y=np.zeros(d),
            cov_x=s0**2 * np.eye(d), cov_xy=s0**2 * np.eye(d),
            cov_y=(s0**2 + sw**2) * np.eye(d),
        )
        y = np.array([0.7, -1.1])
        mean, cov = blue_update(jg, y)
        mean_ref, cov_ref = static_posterior(s0, sw, y)
        assert np.allclose(mean, mean_ref, atol=1e-12)
        assert np.allclose(cov, cov_ref, atol=1e-12)

    def test_exact_bayes_against_grid_rule(self):
        # 1-D joint: grid Bayes posterior density vs Gaussian(blue moments)
        jg = JointGaussian(mean_x=[0.5], mean_y=[-0.2],
                           cov_x=[[1.5]], cov_xy=[[0.9]], cov_y=[[1.2]])
        y = np.array([1.0])
        mean, cov = blue_update(jg, y)
        grid = np.linspace(-8, 9, 40001)
        prior = np.exp(-((grid - 0.5) ** 2) / (2 * 1.5)) / np.sqrt(2 * np.pi * 1.5)
        cond_mean = -0.2 + 0.9 / 1.5 * (grid - 0.5)
        cond_var = 1.2 - 0.9**2 / 1.5
        like = np.exp(-((y[0] - cond_mean) ** 2) / (2 * cond_var))
        post = prior * like
        post /= np.trapezoid(post, grid)
        blue_dens = np.exp(-((grid - mean[0]) ** 2) / (2 * cov[0, 0])) / np.sqrt(
            2 * np.pi * cov[0, 0])
        l1 = np.trapezoid(np.abs(post - blue_dens), grid)
        assert l1 <= 1e-3


class TestOtAffineMap:
    def test_independent_blocks_identity(self):
        jg = JointGaussian(mean_x=[0.0, 0.0], mean_y=[0.0],
                           cov_x=np.eye(2), cov_xy=np.zeros((2, 1)), cov_y=[[1.0]])
        amap = ot_affine_map(jg)
        assert np.abs(amap.matrix - np.eye(2)).max() <= 1e-12

    def test_scalar_closed_form(self):
        jg = JointGaussian(mean_x=[0.0], mean_y=[0.0],
                           cov_x=[[1.0]], cov_xy=[[1.0]], cov_y=[[2.0]])
        amap = ot_affine_map(jg)
        assert amap.matrix[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("cov_x, cov_xy, match", [
        ([[0.0]], [[0.0]], "positive definite"),                  # singular
        ([[1.0, 0.0], [0.0, 0.0]], [[0.5], [0.0]], "positive definite"),
        ([[1e200]], [[1.0]], "nonfinite"),                         # cov_x^2 overflows
    ])
    def test_unrepresentable_cov_x_raises(self, cov_x, cov_xy, match):
        # a named refusal, and no RuntimeWarning (which this suite makes an error)
        jg = JointGaussian(mean_x=np.zeros(len(cov_x)), mean_y=[0.0],
                           cov_x=cov_x, cov_xy=cov_xy, cov_y=[[2.0]])
        with pytest.raises(NotPositiveDefiniteError, match=match):
            ot_affine_map(jg)

    def test_residual_and_symmetry_random_joints(self):
        rng = RngStream(5)
        for k in range(20):
            jg = random_joint(rng.substream(k))
            amap = ot_affine_map(jg)
            target = jg.cov_x - jg.gain() @ jg.cov_y @ jg.gain().T
            resid = np.linalg.norm(amap.matrix @ jg.cov_x @ amap.matrix - target, "fro")
            assert resid <= 1e-10
            assert np.abs(amap.matrix - amap.matrix.T).max() <= 1e-10
            assert np.linalg.eigvalsh(amap.matrix).min() >= -1e-12

    def test_map_moments_match_blue(self):
        rng = RngStream(6)
        jg = random_joint(rng.substream(0))
        y = np.array([0.3, -0.7])
        mean, cov = blue_update(jg, y)
        n = 100_000
        x0, _ = jg.sample(rng.substream(1), n)
        moved = ot_affine_map(jg)(x0, y)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(moved.mean(axis=0) - mean) <= 3 * se_mean)
        emp = np.cov(moved.T)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) <= 3 * se_cov)


class TestPerturbedMap:
    def test_independent_blocks_identity(self):
        jg = JointGaussian(mean_x=[2.0], mean_y=[0.0],
                           cov_x=[[1.0]], cov_xy=[[0.0]], cov_y=[[1.0]])
        rng = RngStream(0)
        x0, y0 = jg.sample(RngStream(1), 100)
        out = perturbed_enkf_map(jg, np.array([9.0]), RngStream(1), 100)
        assert np.array_equal(out, x0)

    def test_moments_match_blue_and_ot(self):
        rng = RngStream(7)
        jg = random_joint(rng.substream(0))
        y = np.array([-0.4, 0.9])
        mean, cov = blue_update(jg, y)
        n = 100_000
        pert = perturbed_enkf_map(jg, y, rng.substream(1), n)
        x0, _ = jg.sample(rng.substream(2), n)
        ot = ot_affine_map(jg)(x0, y)
        se_mean = np.sqrt(np.diag(cov) / n)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        for sample in (pert, ot):
            assert np.all(np.abs(sample.mean(axis=0) - mean) <= 3 * se_mean)
            assert np.all(np.abs(np.cov(sample.T) - cov) <= 3 * se_cov)


@pytest.mark.parametrize("update", [
    lambda jg, y: blue_update(jg, y),
    lambda jg, y: ot_affine_map(jg)(np.zeros((4, 3)), y),
    lambda jg, y: perturbed_enkf_map(jg, y, RngStream(0), 4),
], ids=["blue", "ot-affine", "perturbed"])
@pytest.mark.parametrize("y", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_observation_of_wrong_length_rejected(update, y):
    # with m = 2, y = [1.0] used to broadcast to the update for y = (1, 1)
    jg = random_joint(RngStream(3), d=3, m=2)
    with pytest.raises(ValueError, match=r"y has shape .*expected \(2,\)"):
        update(jg, np.array(y))


class TestHeatTransport:
    def test_mode_is_fixed_point(self):
        prior = GaussianBelief(mean=np.array([1.5]), cov=np.eye(1))
        ens = Ensemble(np.array([[1.5], [1.5]]))
        out = heat_transport_step(ens, 0.3, 0.01, prior)
        assert np.array_equal(out.particles, ens.particles)

    def test_variance_matches_heat_kernel(self):
        prior = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        n = 100_000
        ens = Ensemble(RngStream(9).standard_normal((n, 1)))
        dt, t = 1e-3, 0.0
        for _ in range(1000):
            ens = heat_transport_step(ens, t, dt, prior)
            t += dt
        var = ens.particles.var(ddof=1)
        se = np.sqrt(2.0 * 9.0 / n)  # var of sample variance of N(0, 3)
        assert abs(var - 3.0) <= 3 * se

    def test_marginal_law_matches_brownian_coupling(self):
        # deterministic transport vs Euler Brownian motion at t=1:
        # two-sample KS below the 1% critical value
        prior = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        n = 100_000
        rng = RngStream(9)
        ens = Ensemble(rng.standard_normal((n, 1)))
        dt, t = 1e-3, 0.0
        for _ in range(1000):
            ens = heat_transport_step(ens, t, dt, prior)
            t += dt
        brownian = rng.standard_normal((n, 1)) + np.sqrt(2.0) * rng.standard_normal((n, 1))
        stat = ks_2samp(ens.particles[:, 0], brownian[:, 0]).statistic
        critical_1pct = 1.628 * np.sqrt(2.0 / n)
        assert stat < critical_1pct

    def test_rejects_negative_time(self):
        prior = GaussianBelief(mean=np.zeros(1), cov=np.eye(1))
        with pytest.raises(ValueError):
            heat_transport_step(Ensemble(np.zeros((2, 1))), -0.1, 0.01, prior)

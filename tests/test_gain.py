import re
import tracemalloc
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cips import gain
from cips.core import RngStream
from cips.exceptions import GainSolveError
from cips.gain import (
    _as_matrix,
    auto_bandwidth,
    constant_gain,
    coordinate_basis,
    diffusion_map_gain,
    exact_gain_1d,
    galerkin_gain,
)
from cips.models import Density1D, make_bimodal
from oracles import empirical_objective, gaussian_bump_basis_1d, polynomial_basis_1d, validate_basis


def poisson_bvp_gain_1d(density, h, grid):
    """Independent oracle: finite-difference solve of -(rho phi')' = (h - hbar) rho.

    Conservative second-order tridiagonal discretization with zero-flux
    boundaries (the decaying solution has rho K -> 0 in the tails) and one
    Dirichlet pin at the center to remove the constant null space; the gain
    is the centered difference of phi.
    """
    from scipy.linalg import solve_banded

    rho = density.pdf(grid)
    hg = np.asarray(h(grid), dtype=float)
    step = grid[1] - grid[0]
    w = np.full_like(grid, step)
    w[0] = w[-1] = step / 2
    hbar = float((hg * rho) @ w / (rho @ w))
    rhs = (hg - hbar) * rho  # equals -(rho phi')' pointwise
    n = grid.shape[0]
    rho_half = 0.5 * (rho[1:] + rho[:-1]) / step**2
    ab = np.zeros((3, n))
    ab[1, 1:] += rho_half
    ab[1, :-1] += rho_half
    ab[0, 1:] = -rho_half
    ab[2, :-1] = -rho_half
    mid = n // 2
    ab[1, mid] = 1.0
    ab[0, mid + 1] = 0.0
    ab[2, mid - 1] = 0.0
    rhs = rhs.copy()
    rhs[mid] = 0.0
    phi = solve_banded((1, 1), ab, rhs)
    return np.gradient(phi, grid)


def dense_diffusion_map_gain(particles, h_values, eps):
    """Reference: the diffusion map with one N x N array per stage and a dense solve.

    The arithmetic of ``diffusion_map_gain`` written directly over whole
    arrays: d2 from the (N, N, d) differences, g, g s, T, eye(N), outer(1, pi)
    and the pinned matrix are separate arrays, the median reads the upper
    triangle through ``np.triu_indices``, and the fixed point is the LU solve
    of (I - T + 1 pi^T) Phi = rhs.  Returns (eps, phi, T, pi);
    ``dense_readout`` reads the gain off.  np.sum adds the d squared
    differences in order for d < 8, as the lean kernel does at every d, so
    the two agree bit for bit there.  ``textbook_markov_matrix`` anchors its
    T and pi to k = g / sqrt(row_i row_j), T = k / deg.
    """
    x = _as_matrix(particles)
    h = _as_matrix(h_values)
    n = x.shape[0]
    auto = isinstance(eps, str)

    def median_bandwidth(d2):
        med = float(np.median(d2[np.triu_indices(n, k=1)]))
        if med <= 0:
            return 1.0
        return med / (4.0 * max(np.log(n), 1.0))

    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    eps = median_bandwidth(d2) if auto else float(eps)
    g = np.exp(-d2 / (4.0 * eps))
    row = g.sum(axis=1)
    # row == 1: the off-diagonal mass is below the rounding of 1 + mass
    # (about 1.1e-16), whether or not it underflows
    isolated = np.flatnonzero(row - 1.0 < n * 1e-300)
    if isolated.size:
        first = int(isolated[0])
        nearest = float(np.min(np.delete(d2[first], first)))
        hint = "" if auto else f"; try eps around {median_bandwidth(d2):.3e}"
        raise GainSolveError(
            f"{isolated.size} of {n} particles isolated: their off-diagonal kernel mass is "
            f"below the rounding of 1 at eps={eps:.3e} (first: particle {first}, "
            f"nearest-neighbour squared distance {nearest:.3e}){hint}"
        )
    s = 1.0 / np.sqrt(row)
    gs = g * s
    c = gs.sum(axis=1)
    T = gs / c[:, None]
    deg = s * c
    pi = deg / deg.sum()

    hbar = pi @ h
    rhs = eps * (h - hbar)
    pinned = np.eye(n) - T + np.outer(np.ones(n), pi)
    phi = np.linalg.solve(pinned, rhs)
    return eps, phi, T, pi


def textbook_markov_matrix(x, eps):
    """T and pi as the diffusion map is usually written (Coifman & Lafon 2006).

    Distances in the expanded form |x_i|^2 + |x_j|^2 - 2 x_i.x_j, clipped at
    0; k = g / sqrt(row_i row_j), deg = row sums of k, T = k / deg_i and
    pi = deg / sum(deg), at a given numeric eps.
    """
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    g = np.exp(-d2 / (4.0 * eps))
    row = g.sum(axis=1)
    k = g / np.sqrt(np.outer(row, row))
    deg = k.sum(axis=1)
    return k / deg[:, None], deg / deg.sum()


def dense_readout(T, phi, eps, h, x):
    """K^i = sum_j s_ij X^j with s_ij = T_ij (r_j - sum_k T_ik r_k) / (2 eps), r = Phi + eps h."""
    r = phi + eps * _as_matrix(h)
    x = _as_matrix(x)
    Tr = T @ r
    TrX = np.einsum("ij,jm,jd->idm", T, r, x)
    TX = T @ x
    return (TrX - np.einsum("im,id->idm", Tr, TX)) / (2.0 * eps)


def readout_scale(T, phi, eps, h, x):
    """Largest sum_j T_ij |r_j| |X^j| / (2 eps), r = Phi + eps h.

    The gain is the difference of two sums of this size, so rounding in the
    readout is of order 1e-16 times this scale, whatever the gain's own size.
    """
    r = np.abs(phi + eps * _as_matrix(h))
    return np.einsum("ij,jm,jd->idm", T, r, np.abs(_as_matrix(x))).max() / (2.0 * eps)


def longdouble_fixed_point(particles, h_values, eps):
    """Phi of the diffusion map built and solved in np.longdouble.

    The kernel, T, pi and the right-hand side are formed in extended
    precision from the inputs; the fixed point is refined from the float64
    pinned LU solve with extended-precision residuals of the Laplacian form
    diag(off) - T_off, which never subtracts T_ii from 1.
    """
    x = _as_matrix(particles).astype(np.longdouble)
    h = _as_matrix(h_values).astype(np.longdouble)
    eps = np.longdouble(eps)
    g = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / (4 * eps))
    row = g.sum(axis=1)
    k = g / np.sqrt(np.outer(row, row))
    deg = k.sum(axis=1)
    T = k / deg[:, None]
    pi = deg / deg.sum()
    rhs = eps * (h - pi @ h)
    n = T.shape[0]
    pinned = (np.eye(n) - T + pi).astype(float)
    np.fill_diagonal(T, 0)
    off = T.sum(axis=1)[:, None]
    phi = np.zeros_like(rhs)
    for _ in range(8):
        res = rhs - (off * phi - T @ phi)
        phi = phi + np.linalg.solve(pinned, res.astype(float))
        phi -= pi @ phi
    return phi


@contextmanager
def traced_peak():
    """Yields a list that holds, on exit, the tracemalloc peak in bytes of the block."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def diffusion_map_stages(particles, h_values, eps):
    """T, pi, eps and the fixed point phi of ``diffusion_map_gain``, stage by stage."""
    h = _as_matrix(h_values)
    T, pi, eps = gain._markov_matrix(_as_matrix(particles), eps)
    return T, pi, eps, gain._solve_fixed_point(T, pi, eps * (h - pi @ h), eps)


def assert_matches_dense(x, h, eps):
    """The lean gain against the dense reference: eps, T and pi bitwise, phi
    by backward error and, where it is well conditioned, against the LU
    solve, and the readout to 1e-12 relative to max|K| (see the comments)."""
    try:
        eps_ref, phi_lu, T, pi = dense_diffusion_map_gain(x, h, eps)
    except GainSolveError as err:
        with pytest.raises(GainSolveError) as lean_err:
            diffusion_map_gain(x, h, eps)
        assert str(lean_err.value) == str(err)
        return
    T_lean, pi_lean, eps_lean, phi = diffusion_map_stages(x, h, eps)
    assert eps_lean == eps_ref
    np.testing.assert_array_equal(T_lean, T)
    np.testing.assert_array_equal(pi_lean, pi)
    # phi comes from an iterative solve: it must solve the fixed point to a
    # normwise backward error of 1e-13, and match the LU solve to 1e-11
    # wherever the fixed point is well conditioned.  Where max|phi| exceeds
    # 1e4 max|rhs| (a weakly connected particle), the LU's 1 - T_ii cancels
    # and the LU is the less accurate of the two (see
    # test_ill_conditioned_closer_to_extended_precision).  Rounding in hbar
    # leaves a pi-mean in rhs that no phi can change, so the residual is
    # measured without it, as the solve measures it.
    rhs = eps_ref * (_as_matrix(h) - pi @ _as_matrix(h))
    residual = rhs - (phi - T @ phi)
    residual -= pi @ residual
    assert np.abs(residual).max() <= 1e-13 * (2.0 * np.abs(phi).max() + np.abs(rhs).max())
    if np.abs(phi_lu).max() <= 1e4 * np.abs(rhs).max():
        assert np.abs(phi - phi_lu).max() <= 1e-11 * np.abs(phi_lu).max()
    # The readout, not the solver, is checked here: the reference reads the
    # gain off the lean phi.  Only the order of the readout's sums changed.
    # Where the two sums cancel (a weakly connected particle with a large
    # phi), the reference itself is off by about 1e-16 times the readout
    # scale; its deviation from the lean readout was at most 2.4e-15 of that
    # scale over 3000 random inputs.  So the gate is 1e-12 relative to
    # max|K| while the scale is at most 100 max|K|, and 1e-14 of the scale
    # above that.
    K = dense_readout(T, phi, eps_ref, h, x)
    gains = diffusion_map_gain(x, h, eps)
    scale = max(np.abs(K).max(), readout_scale(T, phi, eps_ref, h, x) / 100.0)
    assert np.abs(gains - K).max() <= 1e-12 * scale


class TestConstantGain:
    def test_hand_value(self):
        gains = constant_gain(np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0]))
        assert gains.shape == (3, 1, 1)
        assert np.all(gains == gains[0])
        assert gains[0, 0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_constant_h_gives_zero(self):
        gains = constant_gain(np.array([0.3, 1.2, -0.7]), np.full(3, 5.0))
        assert np.all(gains == 0.0)

    def test_gaussian_limit_is_kalman_gain(self):
        # particles ~ N(0, Sigma), h = Hx: K -> Sigma H^T as N grows
        rng = RngStream(15)
        n = 100_000
        Sigma = np.array([[1.0, 0.4], [0.4, 0.5]])
        H = np.array([[1.0, 0.0]])
        x = rng.standard_normal((n, 2)) @ np.linalg.cholesky(Sigma).T
        gains = constant_gain(x, x @ H.T)
        target = Sigma @ H.T
        assert np.abs(gains[0] - target).max() <= 3.0 / np.sqrt(n) * 2.0

    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            constant_gain(np.array([1.0]), np.array([1.0]))


class TestGalerkinGain:
    def test_scalar_hand_value(self):
        x = np.array([-1.0, 0.0, 1.0])
        gains = galerkin_gain(x, x, polynomial_basis_1d([1]))
        assert np.allclose(gains[:, 0, 0], 2.0 / 3.0, rtol=1e-12)

    def test_coordinate_basis_equals_constant_gain(self):
        rng = RngStream(6)
        for rep in range(10):
            x = rng.standard_normal((40, 3))
            h = x @ rng.standard_normal((3, 2))
            galerkin = galerkin_gain(x, h, coordinate_basis(3))
            constant = constant_gain(x, h)
            scale = np.abs(constant).max()
            assert np.abs(galerkin - constant).max() <= 1e-12 * scale

    def test_basis_orthogonal_to_target_gives_zero(self):
        # symmetric particles and even basis function: b = 0 exactly
        x = np.array([-1.0, 0.0, 1.0])
        gains = galerkin_gain(x, x, polynomial_basis_1d([2]))
        assert np.abs(gains).max() <= 1e-15

    def test_degenerate_basis_raises(self):
        def flat(x):
            return np.ones((x.shape[0], 1)), np.zeros((x.shape[0], 1, 1))

        with pytest.raises(GainSolveError, match="singular"):
            galerkin_gain(np.array([0.0, 1.0]), np.array([0.0, 1.0]), flat)

    def test_gradient_validation_catches_errors(self):
        def bad(x):
            return x**2, np.ones((x.shape[0], 1, 1))

        with pytest.raises(ValueError, match="finite differences"):
            validate_basis(bad, 1)


class TestVariationalGain:
    @pytest.mark.parametrize("case", ["poly-1d", "coord-2d"])
    def test_galerkin_minimises_empirical_objective(self, case):
        # Variational identity: over f = sum_l theta_l psi_l, the Galerkin
        # coefficients minimise J(f) = (1/N) sum_i [|grad f|^2/2 - f (h - hbar)],
        # so no perturbation of theta lowers J.
        rng = RngStream(30)
        if case == "poly-1d":
            x = rng.standard_normal((200, 1))
            h = np.tanh(x[:, :1])
            basis = polynomial_basis_1d([1, 2, 3])
        else:
            x = rng.standard_normal((200, 2))
            h = np.stack([np.sin(x[:, 0]), x[:, 0] * x[:, 1]], axis=1)
            basis = coordinate_basis(2)
        n, d = x.shape
        values = galerkin_gain(x, h, basis)                         # (N, d, m)
        _, grads = basis(x)                                          # (N, M, d)
        design = grads.transpose(0, 2, 1).reshape(n * d, grads.shape[1])
        theta = np.linalg.lstsq(design, values.reshape(n * d, -1), rcond=None)[0]
        best = empirical_objective(x, h, basis, theta)
        assert np.all(best < 0.0)                                    # J(0) = 0
        for scale in (1e-4, 1e-2, 1.0):
            for _ in range(20):
                delta = scale * rng.standard_normal(theta.shape)
                assert np.all(empirical_objective(x, h, basis, theta + delta) >= best)

    def test_zero_observable_gives_zero(self):
        rng = RngStream(31)
        x = rng.standard_normal((50, 1))
        gains = galerkin_gain(x, np.zeros(50), polynomial_basis_1d([1, 2]))
        assert np.abs(gains).max() == 0.0


class TestDiffusionMapGain:
    def test_two_identical_particles(self):
        x = np.array([0.7, 0.7])
        T, _, _, phi = diffusion_map_stages(x, x, 0.5)
        assert np.allclose(T, 0.5)
        assert phi[0] == phi[1]
        assert np.all(np.isfinite(diffusion_map_gain(x, x, eps=0.5)))

    def test_row_stochastic_and_stationary(self):
        dens = make_bimodal(0.2)
        x = dens.sample(RngStream(7), 150)
        for eps in (0.05, 0.2, 1.0):
            T, pi, _ = gain._markov_matrix(x[:, None], eps)
            assert np.abs(T.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.all(pi >= 0)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            # the kernel is symmetric, so T is reversible: pi_i T_ij = pi_j T_ji
            flow = pi[:, None] * T
            assert np.all(np.abs(flow - flow.T) <= 1e-15 * np.maximum(flow, flow.T))

    def test_direct_solve_equals_converged_sweeps(self):
        dens = make_bimodal(0.2)
        x = dens.sample(RngStream(7), 200)
        direct = diffusion_map_gain(x, x, 0.1)
        # the paper's fixed-point iteration Phi <- T Phi + eps (h - hbar) from 0
        T, pi, _ = gain._markov_matrix(x[:, None], 0.1)
        h = x[:, None]
        rhs = 0.1 * (h - pi @ h)
        phi = np.zeros_like(rhs)
        for _ in range(4000):
            phi = T @ phi + rhs
        swept = dense_readout(T, phi, 0.1, h, x)
        assert np.abs(direct - swept).max() <= 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps, atol, rtol", [
        (1e6, 1e-3, 0.0), (1e100, 0.0, 1e-12), (1e200, 0.0, 1e-12), (1e300, 0.0, 1e-12),
    ])
    def test_large_bandwidth_limit_is_constant_gain(self, eps, atol, rtol):
        # eps enters only the kernel, which is exactly uniform once d2 / (4 eps)
        # is below the rounding of 1: the solve and the readout then give the
        # constant gain to rounding, and no bandwidth overflows them
        dens = make_bimodal(0.2)
        x = dens.sample(RngStream(11), 200)
        gains = diffusion_map_gain(x, x, eps)
        constant = constant_gain(x, x)[0, 0, 0]
        assert np.abs(gains[:, 0, 0] - constant).max() <= atol + rtol * abs(constant)

    def test_vector_observation_linearity(self):
        dens = make_bimodal(0.2)
        x = dens.sample(RngStream(13), 80)
        h = np.stack([x, 2.0 * x], axis=1)
        gains = diffusion_map_gain(x, h, 0.2)
        assert np.abs(gains[:, :, 1] - 2.0 * gains[:, :, 0]).max() <= 1e-12

    @pytest.mark.parametrize("const", [0.0, 7.1])
    def test_constant_component_leaves_the_solve_first(self, const):
        # the constant column converges at once and leaves the batched
        # iteration; the other column goes on to its own fixed point
        x = RngStream(13).standard_normal((80, 2))
        h = np.stack([x[:, 0], np.full(80, const)], axis=1)
        gains = diffusion_map_gain(x, h, 0.3)
        single = diffusion_map_gain(x, x[:, 0], 0.3)
        scale = np.abs(single).max()
        *_, phi = diffusion_map_stages(x, h, 0.3)
        assert np.all(np.isfinite(phi))
        assert np.abs(gains[:, :, 1]).max() <= 1e-10 * scale
        assert np.abs(gains[:, :, 0] - single[:, :, 0]).max() <= 1e-12 * scale

    def test_nonfinite_gain_raises(self, monkeypatch):
        # no input is known to reach this guard, so a fixed point of inf
        # stands in for one; the readout turns it into a nonfinite gain
        monkeypatch.setattr(gain, "_solve_fixed_point", lambda T, pi, rhs, eps: np.full_like(rhs, np.inf))
        x = RngStream(2).standard_normal((20, 2))
        with np.errstate(invalid="ignore"), pytest.raises(GainSolveError, match="gain is nonfinite"):
            diffusion_map_gain(x, x[:, 0], 0.5)

    def test_invalid_bandwidth(self):
        with pytest.raises(GainSolveError):
            diffusion_map_gain(np.array([0.0, 1.0]), np.array([0.0, 1.0]), eps=-0.1)
        with pytest.raises(ValueError, match="bandwidth"):
            diffusion_map_gain(np.array([0.0, 1.0]), np.array([0.0, 1.0]), eps="bogus")

    def test_underflow_reports_suggestion(self):
        x = np.array([0.0, 2000.0])
        with pytest.raises(GainSolveError, match="try eps"):
            diffusion_map_gain(x, x, eps=1e-4)

    @pytest.mark.parametrize("eps", [0.2, "auto"])
    def test_isolated_particle_raises(self, eps):
        # one far outlier has no kernel mass off the diagonal: its row of T
        # would be an identity row and its gain silently zero
        x = np.append(make_bimodal(0.2).sample(RngStream(5), 100), 50.0)
        with pytest.raises(GainSolveError) as err:
            diffusion_map_gain(x, x, eps)
        msg = str(err.value)
        assert "1 of 101 particles isolated" in msg
        assert "first: particle 100" in msg
        assert ("try eps" in msg) == (eps != "auto")

    @pytest.mark.parametrize("x, sizes", [
        (np.concatenate([np.linspace(0.0, 1.0, 100), np.linspace(100.0, 101.0, 100)]), "[100, 100]"),
        (np.array([0.0, 0.1, 100.0, 100.1]), "[2, 2]"),
    ])
    def test_split_kernel_graph_raises(self, x, sizes):
        # no particle is isolated, but the graph T_ij > 0 has two parts: the
        # fixed point has no unique solution (the gain came out near 1e5 to 1e19)
        with pytest.raises(GainSolveError) as err:
            diffusion_map_gain(x, x, 0.01)
        msg = str(err.value)
        assert f"splits into 2 components of sizes {sizes}" in msg
        assert "eps=1.000e-02" in msg

    def test_component_sizes(self, monkeypatch):
        # a chain that links neighbours alone (exp(-400) > 0 = exp(-1600)) is
        # one component, found over 39 levels one row per block; cut in the
        # middle, it is two
        monkeypatch.setattr(gain, "_BLOCK_ELEMS", 40)
        x = np.arange(40.0)[:, None]
        T = np.exp(-400.0 * gain._pairwise_sq_dists(x))
        assert np.count_nonzero(T) == 40 + 2 * 39
        assert gain._component_sizes(T) == [40]
        T[19, 20] = T[20, 19] = 0.0
        assert gain._component_sizes(T) == [20, 20]

    def test_auto_bandwidth_from_the_gain_distances(self):
        x = RngStream(4).standard_normal((80, 2))
        _, _, eps = gain._markov_matrix(x, "auto")
        assert eps == auto_bandwidth(x)

    def test_overflowing_auto_bandwidth_raises(self):
        # every pair distance overflows, and with them the median rule: eps
        # "auto" is inf, refused before d2 / -(4 eps) turns inf / inf into NaN
        x = 1e160 * RngStream(7).standard_normal((300, 2))
        with np.errstate(over="ignore"):
            assert auto_bandwidth(x) == np.inf
            with pytest.raises(GainSolveError, match="median pair squared distance of the 300 "
                                                     "particles overflowed to inf"):
                gain._markov_matrix(x, "auto")

    @pytest.mark.parametrize("eps", ["auto", 0.3])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_particle_refused(self, eps, value):
        x = RngStream(5).standard_normal((50, 2))
        x[13, 1] = value
        with pytest.raises(ValueError, match="nonfinite"):
            diffusion_map_gain(x, x[:, :1], eps)
        with pytest.raises(ValueError, match="nonfinite"):
            auto_bandwidth(x)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 300),
        d=st.integers(1, 4),
        m=st.integers(1, 2),
        eps=st.one_of(st.just("auto"), st.floats(0.05, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, n, d, m, eps, seed):
        rng = RngStream(seed)
        x = rng.standard_normal((n, d))
        h = np.sin(x[:, :1] * np.arange(1, m + 1)) + x[:, -1:]
        assert_matches_dense(x, h, eps)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 300),
        d=st.integers(1, 4),
        eps=st.one_of(st.just("auto"), st.floats(0.05, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_textbook_arithmetic(self, n, d, eps, seed):
        # the expanded-form distances carry an absolute rounding of a few
        # u max|x|^2, which exp(-d2 / (4 eps)) turns into a relative one of
        # u max|x|^2 / (4 eps) in g; the normalisations add a few u.  The
        # worst of 1500 random inputs was 1.3 u (1 + max|x|^2 / eps) in T
        # and 1.1 u in pi, relative to their maxima, u = 2.2e-16
        x = RngStream(seed).standard_normal((n, d))
        stage = _unless_refused(gain._markov_matrix, x, eps)
        if stage is None:
            return
        T, pi, eps = stage
        T_ref, pi_ref = textbook_markov_matrix(x, eps)
        tol = 8 * np.finfo(float).eps * (1.0 + np.sum(x * x, axis=1).max() / eps)
        assert np.abs(T - T_ref).max() <= tol * T_ref.max()
        assert np.abs(pi - pi_ref).max() <= tol * pi_ref.max()

    @pytest.mark.parametrize("eps", [0.3, "auto"])
    def test_block_size_changes_no_bit(self, monkeypatch, eps):
        # at N = 300: one row per block (40 entries), 54 rows with a partial
        # last block (2**14) and one block (2**20)
        x = RngStream(23).standard_normal((300, 2))
        stages = []
        for elems in (40, 2**14, 2**20):
            monkeypatch.setattr(gain, "_BLOCK_ELEMS", elems)
            stages.append(gain._markov_matrix(x, eps))
        T, pi, eps_used = stages[0]
        for T_b, pi_b, eps_b in stages[1:]:
            assert eps_b == eps_used
            np.testing.assert_array_equal(T_b, T)
            np.testing.assert_array_equal(pi_b, pi)

    @pytest.mark.parametrize("n, d", [(2, 1), (131, 3), (300, 2), (1000, 2)])
    def test_numeric_eps_builds_the_auto_kernel(self, n, d):
        # one distance pass serves both kinds of bandwidth: given the bandwidth
        # the median rule chose, a numeric eps gives T and pi bit for bit (the
        # last row block is partial at N = 131, 300 and 1000)
        x = RngStream(n * d).standard_normal((n, d))
        T_auto, pi_auto, eps = gain._markov_matrix(x, "auto")
        T, pi, eps_used = gain._markov_matrix(x, eps)
        assert eps_used == eps
        np.testing.assert_array_equal(T, T_auto)
        np.testing.assert_array_equal(pi, pi_auto)

    def test_two_particle_solve_ignores_the_pinned_mean(self):
        # rounding in hbar leaves pi^T rhs != 0, a residual along the constant
        # vector that no conjugate-gradient step can reduce; measured with it,
        # the solve went on, divided by p^T q = 0 and ended in a NaN error
        x = np.array([0.0, 0.01])
        gains = diffusion_map_gain(x, x + 1.0, 0.5)
        const = constant_gain(x, x + 1.0)[0, 0, 0]              # 2.5e-5
        assert np.abs(gains[:, 0, 0] - const).max() <= 1e-4 * const

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5), d=st.integers(1, 2), spread=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # the dense LU solve itself left a pi-mean residual of 5.55e-17 here
    @example(n=2, d=2, spread=0.03125, seed=1)
    def test_small_ensembles_solve(self, n, d, spread, seed):
        # the inputs on which the solve failed at the pinned mean (about 1 in
        # 100).  h - hbar is small against h here, so the pi-mean rounding
        # leaves in rhs is large against rhs
        x = spread * RngStream(seed).standard_normal((n, d))
        h = x[:, :1] + 1.0
        assert_matches_dense(x, h, 0.5)
        _, _, _, phi = diffusion_map_stages(x, h, 0.5)
        _, phi_lu, _, _ = dense_diffusion_map_gain(x, h, 0.5)
        assert np.abs(phi - phi_lu).max() <= 1e-11 * np.abs(phi_lu).max()
        assert np.all(np.isfinite(diffusion_map_gain(x, h, 0.5)))

    def test_matches_dense_reference_n2000(self):
        x = RngStream(20).standard_normal((2000, 2))
        assert_matches_dense(x, x[:, :1], "auto")

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble has no extra precision here")
    def test_ill_conditioned_closer_to_extended_precision(self):
        # a particle 2 units past the rest at eps = 0.05 keeps about 1e-9 of
        # its kernel mass off the diagonal, and max|phi| is about 1e9 max|rhs|;
        # the LU works with 1 - T_ii, which has lost about 7 digits there
        x = RngStream(0).standard_normal(60)
        x = np.append(x, x.max() + 2.0)
        h = x[:, None]
        _, phi_lu, _, pi = dense_diffusion_map_gain(x, h, 0.05)
        rhs = 0.05 * (h - pi @ h)
        _, _, _, phi = diffusion_map_stages(x, h, 0.05)
        ref = longdouble_fixed_point(x, h, 0.05)
        scale = float(np.abs(ref).max())
        assert scale > 1e8 * np.abs(rhs).max()
        err_cg = float(np.abs(phi - ref).max()) / scale
        err_lu = float(np.abs(phi_lu - ref).max()) / scale
        assert err_cg < err_lu
        assert err_cg <= 1e-12

    def test_iteration_cap_raises_and_restores_t(self, monkeypatch):
        x = RngStream(22).standard_normal((200, 2))
        h = x[:, :1]
        T, pi, eps = gain._markov_matrix(x, "auto")
        monkeypatch.setattr(gain, "CG_MAXITER", 2)
        with pytest.raises(GainSolveError) as err:
            diffusion_map_gain(x, h, "auto")
        msg = str(err.value)
        assert f"eps={eps:.3e}" in msg and "N=200" in msg
        assert "backward error" in msg and "after 2 conjugate-gradient iterations" in msg
        # the solve zeroes T's diagonal in place; a raise must restore it
        T_solved = T.copy()
        with pytest.raises(GainSolveError):
            gain._solve_fixed_point(T_solved, pi, eps * (h - pi @ h), eps)
        np.testing.assert_array_equal(T_solved, T)

    def test_traced_peak_two_arrays(self):
        # one N x N array either way: with a numeric eps, T and one row block
        # of about 128 KB (1.02-1.04 N^2 at N = 1000); with eps "auto" also
        # the pair sample and the entries between the median's pivots, about
        # 3% of the triangle (1.06 N^2; the copy of the whole triangle it
        # once selected in made 1.5 N^2).  The solve holds only T (the dense
        # reference peaked at about 6 N^2)
        n = 1000
        x = RngStream(21).standard_normal((n, 2))
        for eps, bound in (("auto", 1.1), (0.3, 1.1)):
            diffusion_map_gain(x, x[:, :1], eps)
            with traced_peak() as peak:
                diffusion_map_gain(x, x[:, :1], eps)
            assert peak[0] <= bound * n * n * 8, eps

    @pytest.mark.parametrize("eps", [0.3, "auto"])
    def test_traced_peak_refused_call(self, eps):
        # the refusal reads the nearest neighbour from one row of distances,
        # and a numeric eps's hint builds its distances and median (about
        # 1.06 N^2) only after T is released (the two arrays together peaked
        # at 2.5 N^2)
        n = 1000
        x = np.append(RngStream(21).standard_normal((n - 1, 2)), [[50.0, 50.0]], axis=0)
        refused = partial(pytest.raises, GainSolveError, match=f"1 of {n} particles isolated")
        with refused():
            diffusion_map_gain(x, x[:, :1], eps)
        with traced_peak() as peak, refused():
            diffusion_map_gain(x, x[:, :1], eps)
        assert peak[0] <= 1.1 * n * n * 8

    def test_auto_bandwidth_positive(self):
        x = make_bimodal(0.2).sample(RngStream(3), 50)
        eps = auto_bandwidth(x)
        assert eps > 0
        assert gain._markov_matrix(x[:, None], "auto")[2] == pytest.approx(eps)
        assert np.all(np.isfinite(diffusion_map_gain(x, x, "auto")))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), d=st.integers(1, 3), decimals=st.sampled_from([None, 0, 1]),
           far=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_auto_bandwidth_is_the_numpy_median_rule(self, n, d, decimals, far, seed):
        # bit for bit, odd and even pair counts, tied distances and a particle
        # so far out that its distances overflow to inf
        x = RngStream(seed).standard_normal((n, d))
        if decimals is not None:
            x = np.round(x, decimals)
        if far:
            x[0, 0] = 1e160
        with np.errstate(over="ignore"):
            d2 = gain._pairwise_sq_dists(x)
        assert gain._median_bandwidth(d2) == numpy_median_rule(d2)

    @pytest.mark.parametrize("n, decimals", [(500, None), (502, 1), (1000, 1), (1000, None)])
    def test_auto_bandwidth_is_the_numpy_median_rule_large(self, n, decimals):
        # the single-kth select at sizes past the hypothesis cases: even
        # (500, 1000) and odd (502) pair counts, ties (points on a coarse
        # grid) and a particle whose distances overflow to inf
        x = RngStream(n).standard_normal((n, 2))
        if decimals is not None:
            x = np.round(x, decimals)
        for far in (False, True):
            if far:
                x[n // 3, 0] = 1e160
            with np.errstate(over="ignore"):
                d2 = gain._pairwise_sq_dists(x)
            assert gain._median_bandwidth(d2) == numpy_median_rule(d2)

    @pytest.mark.parametrize("n, d", [(2, 1), (131, 3), (1000, 2), (2000, 1)])
    def test_pairwise_sq_dists_exactly_symmetric(self, n, d):
        # one row block or several, the last one partial at N = 2000
        x = RngStream(n + d).standard_normal((n, d))
        d2 = gain._pairwise_sq_dists(x)
        np.testing.assert_array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)

    def test_first_calls_import_nothing(self):
        # a module imported inside a timed gain call (np.median's numpy.ma,
        # say) leaves objects that can pin the heap above later calls' N x N
        # buffers, and the process's peak RSS then depends on heap layout.
        # The first calls of a process at eps "auto", at a numeric eps and at
        # a refused one (whose hint runs the median rule) import nothing
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = "\n".join([
            "import sys",
            "import numpy as np",
            "from cips.exceptions import GainSolveError",
            "from cips.gain import diffusion_map_gain",
            "x = np.random.default_rng(0).standard_normal((50, 2))",
            "far = np.append(x, [[50.0, 50.0]], axis=0)",
            "before = set(sys.modules)",
            "diffusion_map_gain(x, x, 'auto')",
            "diffusion_map_gain(x, x, 0.3)",
            "try:",
            "    diffusion_map_gain(far, far, 0.3)",
            "except GainSolveError as err:",
            "    assert 'try eps around' in str(err)",
            "print(sorted(set(sys.modules) - before))",
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def numpy_median_rule(d2):
    """The median rule as np.median of the strict upper triangle through np.triu_indices."""
    n = d2.shape[0]
    med = np.median(d2[np.triu_indices(n, 1)])
    return 1.0 if med <= 0 else med / (4.0 * max(np.log(n), 1.0))


def assert_median_rule(x):
    """The median rule, on the built distances and through ``auto_bandwidth``, is np.median's, bit for bit.

    Returns the bandwidth.
    """
    d2 = gain._pairwise_sq_dists(x)
    got = gain._median_bandwidth(d2)
    expected = numpy_median_rule(d2)
    assert got == expected and auto_bandwidth(x) == expected, (got, expected)
    return got


def two_clusters(p, q):
    """p particles near 0 and q near 100 on a line, shuffled.

    With (p - q)^2 = p + q there are as many pairs within the clusters as
    between them: the even count's two middle entries are the largest
    distance within a cluster and the smallest across the gap.
    """
    rng = RngStream(p)
    x = np.concatenate([rng.uniform(0.0, 1.0, p), rng.uniform(100.0, 101.0, q)])
    return rng.permutation(x)[:, None]


class TestMedianSelection:
    """The median bandwidth from sampled pivots and one classing pass, against np.median."""

    @pytest.mark.parametrize("x", [
        np.eye(20),                                       # every distance 2.0: lo == hi
        np.eye(21),                                       # the same with an odd pair count
        np.ones((50, 3)),                                 # every distance 0: the rule's 1.0
        two_clusters(21, 15),                             # 36 particles, 630 pairs
        two_clusters(210, 190),                           # 400 particles, 79800 pairs
        RngStream(2).standard_normal((2, 2)),             # one pair
        RngStream(3).standard_normal((3, 1)),             # three pairs, odd
        RngStream(4).standard_normal((4, 2)),             # six pairs, even
        RngStream(6).standard_normal((6, 3)),             # 15 pairs, odd
        RngStream(999).standard_normal((999, 2)),         # 498501 pairs, odd
        RngStream(1000).standard_normal((1000, 2)),       # 499500 pairs, even
        1e160 * RngStream(7).standard_normal((300, 2)),   # every distance overflows to inf
        np.concatenate([1e160 * RngStream(8).standard_normal((51, 1)),
                        RngStream(9).standard_normal((250, 1))]),  # 31% inf, above the median
        np.concatenate([1e160 * RngStream(10).standard_normal((150, 1)),
                        RngStream(11).standard_normal((151, 1))]),  # 75% inf: an inf median
        np.round(RngStream(12).standard_normal((700, 2)), 1),      # many ties at the pivots
    ], ids=["tied-even", "tied-odd", "all-zero", "gap-36", "gap-400", "n2", "n3", "n4", "n6",
            "n999-odd", "n1000-even", "inf-all", "inf-half", "inf-median", "coarse-grid"])
    def test_matches_numpy_median(self, x):
        with np.errstate(over="ignore"):
            assert_median_rule(x)

    def test_gap_median_straddles_the_clusters(self):
        # the two middle entries are the gap's two sides, and the rule takes their mean
        x = two_clusters(210, 190)
        d2 = gain._pairwise_sq_dists(x)
        upper = d2[np.triu_indices(400, 1)]
        within, across = upper[upper < 50.0**2], upper[upper > 50.0**2]
        assert within.size == across.size
        expected = (within.max() + across.min()) / 2.0 / (4.0 * np.log(400))
        assert assert_median_rule(x) == expected

    @pytest.mark.parametrize("decimals", [None, 0])
    @pytest.mark.parametrize("n, elems", [(7, 2**14), (40, 2**14), (40, 120), (300, 2**14)])
    def test_every_position_is_classed(self, monkeypatch, n, elems, decimals):
        # one entry of the strict upper triangle moved across the median, in a
        # block's rectangle or its diagonal square, the last block's included,
        # moves the median as it moves np.median's (at N = 40 and 120 entries
        # a block, three rows each); rounded particles tie at the pivots
        monkeypatch.setattr(gain, "_BLOCK_ELEMS", elems)
        x = RngStream(n).standard_normal((n, 2))
        if decimals is not None:
            x = np.round(x, decimals)
        d2 = gain._pairwise_sq_dists(x)
        assert gain._median_bandwidth(d2) == numpy_median_rule(d2)
        med = np.median(d2[np.triu_indices(n, 1)])
        step = max(1, n // 7)
        for i in range(0, n - 1, step):
            for j in range(i + 1, n, step):
                moved = d2.copy()
                moved[i, j] = moved[j, i] = 0.0 if d2[i, j] > med else 1e6
                assert gain._median_bandwidth(moved) == numpy_median_rule(moved), (i, j)

    def test_pivots_that_miss_are_widened(self, monkeypatch):
        # the sample's offsets are 2, 6, ..., 62 at N = 128, all even, so with
        # the odd-numbered particles 100 away from the even ones it holds
        # only pairs within a cluster, while the median lies across the gap
        widths = []

        def spy(d2, ranks, widen):
            widths.append(widen)
            return pivots(d2, ranks, widen)

        pivots = gain._pivots
        monkeypatch.setattr(gain, "_pivots", spy)
        x = (100.0 * (np.arange(128) % 2) + RngStream(13).uniform(0.0, 1.0, 128))[:, None]
        assert_median_rule(x)
        assert widths[0] == 0 and max(widths) >= 1


def closed_form_twin(density, x):
    """The exact gain for h(x) = x written with scipy.special.ndtr for Phi."""
    from scipy.special import ndtr

    sd = np.sqrt(density.variances)
    hbar = density.weights @ density.means
    z = (x[:, None] - density.means) / sd
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    left = (sd * phi + (hbar - density.means) * ndtr(z)) @ density.weights
    right = (sd * phi - (hbar - density.means) * ndtr(-z)) @ density.weights
    return np.where(x <= hbar, left, right) / density.pdf(x)


ORACLE_DENSITIES = pytest.mark.parametrize("dens", [
    make_bimodal(0.2),
    make_bimodal(0.05),
    Density1D(means=[-3.0, 0.5, 2.0], variances=[0.1, 2.0, 0.7], weights=[0.2, 0.5, 0.3]),
    Density1D(means=[0.0], variances=[1.0], weights=[1.0]),
], ids=["bimodal-0.2", "bimodal-0.05", "three-component", "standard-normal"])


class TestExactGain1D:
    def test_standard_normal_unit_gain(self):
        dens = Density1D(means=[0.0], variances=[1.0], weights=[1.0])
        pts = np.linspace(-3.0, 3.0, 25)
        vals = exact_gain_1d(dens, pts)
        assert np.abs(vals - 1.0).max() <= 1e-6

    def test_bimodal_peak_at_origin_and_bvp_cross_check(self):
        dens = make_bimodal(0.2)
        pts = np.linspace(-2.5, 2.5, 201)
        vals = exact_gain_1d(dens, pts)
        assert np.argmax(vals) == 100  # peak exactly at the density trough x=0
        grid = np.linspace(-9.0, 9.0, 24001)
        bvp = poisson_bvp_gain_1d(dens, lambda y: y, grid)
        bvp_at = np.interp(pts, grid, bvp)
        assert np.abs(vals - bvp_at).max() <= 1e-4

    def test_rejects_out_of_range_queries(self):
        # far out the density underflows, so no gain can be divided out
        dens = make_bimodal(0.2)
        with pytest.raises(ValueError, match="underflows"):
            exact_gain_1d(dens, np.array([100.0]))

    @ORACLE_DENSITIES
    def test_matches_ndtr_twin(self, dens):
        # erfc keeps Phi's relative accuracy in both tails, as ndtr does
        grid = dens.support_grid(4001, num_sigmas=7.5)
        assert dens.pdf(grid).min() >= 1e-300
        twin = closed_form_twin(dens, grid)
        assert np.max(np.abs(exact_gain_1d(dens, grid) - twin) / twin) <= 1e-13

    @ORACLE_DENSITIES
    def test_mean_gain_is_the_variance(self, dens):
        # E_rho[K] = E_rho[(h - hbar) X], which is Var_rho(X) for h = x
        grid = dens.support_grid(4001, num_sigmas=7.5)
        mean_gain = np.trapezoid(exact_gain_1d(dens, grid) * dens.pdf(grid), grid)
        assert mean_gain == pytest.approx(dens.variance(), rel=1e-10)


def _gain_method(kind, d):
    """The gain function of one method, as the FPF step calls it."""
    if kind == "constant":
        return constant_gain
    if kind == "galerkin":
        return partial(galerkin_gain, basis=coordinate_basis(d))
    return partial(diffusion_map_gain, eps=kind)


def _rounding_scale(kind, x, h, gains):
    """The scale the rounding of ``gains`` is relative to.

    The diffusion map's readout is a difference of two sums of size
    ``readout_scale``, which can exceed max|K| by orders of magnitude at a
    weakly connected particle, so its rounding is judged against that.
    """
    if kind in ("constant", "galerkin"):
        return np.abs(gains).max()
    T, _, eps, phi = diffusion_map_stages(x, h, kind)
    return max(np.abs(gains).max(), readout_scale(T, phi, eps, h, x))


# The constant gain, Galerkin on the coordinate basis, and the diffusion map
# at a numeric eps and at "auto", on random ensembles.
GAIN_CASES = dict(
    kind=st.one_of(st.sampled_from(["constant", "galerkin", "auto"]), st.floats(0.05, 2.0)),
    n=st.integers(2, 60),
    d=st.integers(1, 3),
    m=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)


# The kernel's own refusals: an isolated particle or a kernel graph in several
# parts leaves the fixed point without a unique solution.
KERNEL_REFUSAL = "particles isolated|kernel graph splits"


def _unless_refused(fn, *args):
    """``fn(*args)``, or None where the kernel refuses the ensemble.

    Any other ``GainSolveError`` propagates, so a property test cannot pass
    by skipping the cases that a broken solve or normalisation fails on.
    """
    try:
        return fn(*args)
    except GainSolveError as err:
        if re.search(KERNEL_REFUSAL, str(err)) is None:
            raise
        return None


def _gain_case(n, d, m, seed):
    """Particles (N, d), h at them (N, m) and the stream they were drawn from."""
    rng = RngStream(seed)
    x = rng.standard_normal((n, d))
    return rng, x, np.sin(x[:, :1] * np.arange(1, m + 1)) + x[:, -1:]


class TestGainContract:
    """Every gain is one finite float array of shape (N, d, m)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**GAIN_CASES)
    def test_gains_are_a_finite_n_d_m_array(self, kind, n, d, m, seed):
        _, x, h = _gain_case(n, d, m, seed)
        gains = _unless_refused(_gain_method(kind, d), x, h)
        if gains is None:
            return
        assert isinstance(gains, np.ndarray) and gains.dtype == np.float64
        assert gains.shape == (n, d, m)
        assert np.all(np.isfinite(gains))


class TestReversibility:
    """The kernel is symmetric, so T is reversible: pi_i T_ij = pi_j T_ji."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**{**GAIN_CASES, "kind": st.one_of(st.just("auto"), st.floats(0.05, 2.0))})
    def test_detailed_balance(self, kind, n, d, m, seed):
        # the gate of test_row_stochastic_and_stationary; the worst of 3000
        # random inputs was 5.3e-16.  The property is one of the kernel stage
        # alone, read before any solve
        _, x, _ = _gain_case(n, d, m, seed)
        stage = _unless_refused(gain._markov_matrix, x, kind)
        if stage is None:
            return
        T, pi, _ = stage
        flow = pi[:, None] * T
        assert np.all(np.abs(flow - flow.T) <= 1e-15 * np.maximum(flow, flow.T))


class TestPermutationEquivariance:
    """Permuting the particles permutes the gains, to rounding.

    Only the order of the sums changes, so the gains agree to 1e-13 of their
    scale; the diffusion map measured at most 2.1e-15 over 3000 random inputs.
    An ensemble the kernel refuses is refused in any order.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**GAIN_CASES)
    def test_permuting_particles_permutes_gains(self, kind, n, d, m, seed):
        rng, x, h = _gain_case(n, d, m, seed)
        perm = rng.permutation(n)
        gain_method = _gain_method(kind, d)
        values = _unless_refused(gain_method, x, h)
        permuted = _unless_refused(gain_method, x[perm], h[perm])
        assert (values is None) == (permuted is None)
        if values is None:
            return
        scale = _rounding_scale(kind, x, h, values)
        assert np.abs(permuted - values[perm]).max() <= 1e-13 * scale


def _sum_scale(kind, x, h, gains):
    """The sum of magnitudes each gain is read off from, at the particles x.

    The constant gain, and Galerkin on the coordinate basis, are
    (1/N) sum_j X^j (h_j - hbar); the diffusion map's readout is
    ``_rounding_scale``'s.  Both grow with |X|, so with a translation.
    """
    if kind in ("constant", "galerkin"):
        return (np.abs(x).T @ np.abs(h - h.mean(axis=0))).max() / x.shape[0]
    return _rounding_scale(kind, x, h, gains)


class TestTranslationEquivariance:
    """Translating the particles leaves the gains unchanged, to the rounding
    of the shifted coordinates.

    x + c rounds each coordinate to the grid of c, so the gains are compared
    with those of (x + c) - c, the particles the shifted ones represent
    exactly; the conditioning of the gain in its input then drops out.
    What is left is rounding at coordinates of size up to c: in the sums the
    gains are read off from (``_sum_scale``), and, in the diffusion map, in
    the kernel's distances.  Differences of coordinates are exact there, so
    its T is that of (x + c) - c and only the readout rounds differently.
    The worst of 9000 random inputs was 9.8 u of that scale, u = 2.2e-16;
    distances in the expanded form |x_i|^2 + |x_j|^2 - 2 x_i.x_j reached
    1e4 u at c = 1e4 and 62 u at c = 100.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**GAIN_CASES, shift=st.sampled_from([1.0, 1e2, 1e4]))
    def test_translating_particles_leaves_gains(self, kind, n, d, m, seed, shift):
        _, x, h = _gain_case(n, d, m, seed)
        shifted = x + shift
        gain_method = _gain_method(kind, d)
        values = _unless_refused(gain_method, shifted - shift, h)
        moved = _unless_refused(gain_method, shifted, h)
        assert (values is None) == (moved is None)
        if values is None:
            return
        scale = _sum_scale(kind, shifted, h, moved)
        assert np.abs(moved - values).max() <= 1e-14 * scale


def test_bump_basis_gradients_validate():
    basis = gaussian_bump_basis_1d([-1.0, 0.0, 1.0], 0.5)
    validate_basis(basis, 1)
    psi, grads = basis(np.zeros((4, 1)))
    assert psi.shape == (4, 3) and grads.shape == (4, 3, 1)

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cips.core import RngStream, symmetrize
from cips.exceptions import ConvergenceError, FilterDivergenceError
from cips.kalman import (
    _integrate_backward,
    control_riccati_rhs,
    kalman_bucy_run,
    riccati_weights,
    solve_are,
    solve_dre_backward,
)
from cips.models import (
    LQProblem,
    ObservationPath,
    make_linear_gaussian,
    make_lq_canonical,
    make_static_param,
)
from oracles import lqr_gain, solve_dual_dre


def lq_from_matrices(A, B, C, R=None, P_T=None, horizon=10.0):
    """LQ problem with row-wise oracles and the matrices attached."""
    d, m = B.shape
    return LQProblem(
        dynamics=lambda x, u: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
        cost_output=lambda x: np.asarray(x) @ C.T,
        R=np.eye(m) if R is None else R,
        P_T=np.eye(d) if P_T is None else P_T,
        horizon=horizon,
        A=A,
        B=B,
        C=C,
    )


def scalar_lq(a, b, c, r=1.0, p_T=1.0, horizon=10.0):
    return lq_from_matrices(
        np.array([[float(a)]]), np.array([[float(b)]]), np.array([[float(c)]]),
        R=np.array([[float(r)]]), P_T=np.array([[float(p_T)]]), horizon=horizon,
    )


class TestKalmanBucy:
    def test_static_posterior_small_dt(self):
        # Z_1 = 1 with sigma0 = sigma_w = 1 gives m_1 = Sigma_1 = 1/2
        model = make_static_param(1, 1.0, 1.0)
        dt = 1e-4
        obs = ObservationPath(dt=dt, increments=np.full((int(1 / dt), 1), dt))
        path = kalman_bucy_run(model, obs)
        assert path.final_state.mean[0] == pytest.approx(0.5, abs=1e-3)
        assert path.final_state.cov[0, 0] == pytest.approx(0.5, abs=1e-3)

    def test_zero_observation_matrix_reduces_to_moment_odes(self):
        # H = 0: gain vanishes, moments follow dm = Am dt, dS = 2aS + q dt
        a, q = -1.0, 0.36
        model = make_linear_gaussian([[a]], [[0.0]], [[0.6]], [2.0], [[1.0]])
        dt = 1e-4
        obs = ObservationPath(dt=dt, increments=RngStream(0).standard_normal((10_000, 1)))
        path = kalman_bucy_run(model, obs)
        t = 1.0
        mean_exact = 2.0 * np.exp(a * t)
        var_exact = -q / (2 * a) + (1.0 + q / (2 * a)) * np.exp(2 * a * t)
        assert path.final_state.mean[0] == pytest.approx(mean_exact, rel=1e-3)
        assert path.final_state.cov[0, 0] == pytest.approx(var_exact, rel=1e-3)

    def test_scalar_riccati_closed_form(self):
        # A=0, H=1, sigma_B=0, Sigma_0=1: Sigma_t = 1/(1+t)
        model = make_linear_gaussian([[0.0]], [[1.0]], [[0.0]], [0.0], [[1.0]])
        dt = 1e-4
        obs = ObservationPath(dt=dt, increments=np.zeros((int(2 / dt), 1)))
        path = kalman_bucy_run(model, obs)
        for k in (5000, 10000, 20000):
            t = k * dt
            assert path.covs[k][0, 0] == pytest.approx(1.0 / (1.0 + t), abs=1e-3)

    def test_covariance_pd_loss_reports_step(self):
        model = make_linear_gaussian([[0.0]], [[1.0]], [[0.0]], [0.0], [[1.0]])
        obs = ObservationPath(dt=3.0, increments=np.zeros((2, 1)))
        with pytest.raises(FilterDivergenceError, match="step 1"):
            kalman_bucy_run(model, obs)

    def test_requires_linear_descriptor(self):
        from cips.models import FilterModel

        model = FilterModel(
            dim_obs=1,
            drift=lambda x: np.zeros_like(x),
            sigma_B=np.zeros((1, 1)),
            observation=lambda x: x,
            sample_prior=lambda r, n: r.standard_normal((n, 1)),
        )
        obs = ObservationPath(dt=0.1, increments=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="linear descriptor"):
            kalman_bucy_run(model, obs)


class TestValueRiccati:
    def test_scalar_stationary_point(self):
        # A=0, B=C=R=P_T=1: 1 - P^2 = 0 and P_T = 1, so P stays exactly 1
        path = solve_dre_backward(scalar_lq(0, 1, 1), dt=0.02)
        assert np.abs(path.values - 1.0).max() <= 1e-12

    def test_zero_cost_zero_terminal(self):
        lq = scalar_lq(0.5, 1.0, 0.0, p_T=1e-12)
        path = solve_dre_backward(lq, dt=0.02)
        assert np.abs(path.values).max() <= 1e-6

    def test_canonical_d2_converges_to_are(self):
        lq = make_lq_canonical(2, RngStream(0))
        path = solve_dre_backward(lq, dt=0.01)
        P_inf = solve_are(lq)
        assert np.linalg.norm(path.values[0] - P_inf, "fro") <= 1e-6

    def test_grid_checks(self):
        lq = scalar_lq(0, 1, 1, horizon=1.0)
        for solve in (solve_dre_backward, solve_dual_dre):
            with pytest.raises(ValueError, match="positive"):
                solve(lq, dt=0.0)
            with pytest.raises(ValueError, match="multiple"):
                solve(lq, dt=0.3)

    def test_oracle_only_matches_explicit(self):
        # withholding A, B and C solves through the oracles; the unit-vector
        # probes recover the matrices exactly, so every solver agrees bitwise,
        # on the canonical problem and on random ones with m > 1 and p != d
        problems = [make_lq_canonical(3, RngStream(2))]
        gen = np.random.default_rng(2)
        for d, m, p in [(1, 2, 1), (2, 3, 1), (3, 2, 4), (4, 3, 2), (5, 2, 5)]:
            L = gen.uniform(-0.5, 0.5, (m, m))
            problems.append(lq_from_matrices(
                gen.uniform(-1.0, 1.0, (d, d)), gen.uniform(-1.0, 1.0, (d, m)),
                gen.uniform(-1.0, 1.0, (p, d)), R=L @ L.T + 0.5 * np.eye(m), horizon=0.4))
        for lq in problems:
            withheld = replace(lq, A=None, B=None, C=None)
            for solve in (solve_dre_backward, solve_dual_dre):
                np.testing.assert_array_equal(solve(lq, 0.02).values,
                                              solve(withheld, 0.02).values)
            P = solve_are(lq)
            np.testing.assert_array_equal(P, solve_are(withheld))
            np.testing.assert_array_equal(lqr_gain(lq, P), lqr_gain(withheld, P))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("withhold", [False, True])
    def test_weights_formed_once_match_per_stage(self, d, withhold):
        # reference right-hand sides that form G = B R^{-1} B^T and Q = C^T C
        # again in every RK4 stage; forming them once must change no bit
        lq = replace(make_lq_canonical(d, RngStream(300 + d)), horizon=1.0)
        A, B, C, R = lq.A, lq.B, lq.C, lq.R
        if withhold:
            lq = replace(lq, A=None, B=None, C=None)

        def value_rhs(P):
            G = B @ np.linalg.solve(R, B.T)
            return A.T @ P + P @ A + C.T @ C - P @ G @ P

        def dual_rhs(S):
            G = B @ np.linalg.solve(R, B.T)
            return -(A @ S + S @ A.T - G + S @ (C.T @ C) @ S)

        S_T = symmetrize(np.linalg.inv(lq.P_T))
        np.testing.assert_array_equal(
            solve_dre_backward(lq, 0.02).values,
            _integrate_backward(lq, 0.02, lq.P_T, value_rhs, "Riccati").values)
        np.testing.assert_array_equal(
            solve_dual_dre(lq, 0.02).values,
            _integrate_backward(lq, 0.02, S_T, dual_rhs, "dual Riccati").values)


class TestARE:
    def test_scalar_unit(self):
        P = solve_are(scalar_lq(0, 1, 1))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_stable_zero_cost(self):
        P = solve_are(scalar_lq(-1, 1, 0))
        assert abs(P[0, 0]) <= 1e-8

    def test_residual_canonical_d2(self):
        lq = make_lq_canonical(2, RngStream(42))
        P = solve_are(lq)
        resid = control_riccati_rhs(P, *riccati_weights(lq))
        assert np.linalg.norm(resid, "fro") <= 1e-8

    def test_closed_loop_stable(self):
        for d in (2, 3, 5):
            lq = make_lq_canonical(d, RngStream(50 + d))
            P = solve_are(lq)
            K = lqr_gain(lq, P)
            eigs = np.linalg.eigvals(lq.A + lq.B @ K)
            assert np.max(eigs.real) < 0

    def test_uncontrollable_stable_mode(self):
        # decoupled modes: -1 (no input, Lyapunov p = 1/2) and +1 (scalar
        # LQR p = 1 + sqrt 2)
        lq = lq_from_matrices(np.diag([-1.0, 1.0]), np.array([[0.0], [1.0]]), np.eye(2))
        P = solve_are(lq)
        assert np.abs(P - np.diag([0.5, 1.0 + np.sqrt(2.0)])).max() <= 1e-12

    def test_unstabilizable_raises(self):
        # unstable and uncontrollable: no stabilizing solution exists
        lq = scalar_lq(1.0, 0.0, 1.0)
        with pytest.raises(ConvergenceError):
            solve_are(lq)


@st.composite
def stabilizable_lq(draw):
    """Random (A, B, C, R) with every unstable mode of A controllable.

    C is square and well conditioned, so the problem is observable.  The
    PBH margin and the bound on |P| keep the problem well conditioned: the
    relative sensitivity of P grows with |P|, and beyond about 1e3 two
    backward-stable solvers differ by more than the 1e-10 asserted below.
    """
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2.0, 2.0, (d, d))
    B = rng.uniform(-2.0, 2.0, (d, m))
    C = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))
    L = rng.uniform(-0.5, 0.5, (m, m))
    R = L @ L.T + 0.5 * np.eye(m)
    for lam in np.linalg.eigvals(A):
        if lam.real >= -1e-3:
            pencil = np.hstack([A - lam * np.eye(d), B])
            assume(np.linalg.svd(pencil, compute_uv=False)[-1] >= 0.1)
    assume(np.linalg.svd(C, compute_uv=False)[-1] >= 0.3)
    return A, B, C, R


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stabilizable_lq())
def test_solve_are_matches_scipy_care(problem):
    from scipy.linalg import solve_continuous_are

    A, B, C, R = problem
    care = solve_continuous_are(A, B, C.T @ C, R)
    assume(np.linalg.norm(care) <= 1e3)
    P = solve_are(lq_from_matrices(A, B, C, R=R))
    assert np.linalg.norm(P - care) <= 1e-10 * np.linalg.norm(care)
    closed = A - B @ np.linalg.solve(R, B.T) @ P
    assert np.max(np.linalg.eigvals(closed).real) < 0


def _e(d, i):
    """The i-th unit column of length d, as a (d, 1) input matrix."""
    return np.eye(d)[:, [i]]


# Stabilizable, detectable problems whose Hamiltonian is defective or has
# repeated eigenvalues, which uniform random matrices never give.
_STRUCTURED_ARE = {
    # an uncontrollable stable 3x3 Jordan block coupled into an unstable input
    "jordan3-coupled": (np.array([[-1.0, 1.0, 0.0, 0.25], [0.0, -1.0, 1.0, -0.5],
                                  [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.5]]),
                        _e(4, 3), np.eye(4)),
    "jordan2-no-input": (np.array([[-1.0, 1.0], [0.0, -1.0]]), np.zeros((2, 1)), np.eye(2)),
    "jordan2-e2": (np.array([[-1.0, 1.0], [0.0, -1.0]]), _e(2, 1), np.eye(2)),
    "double-integrator": (np.eye(2, k=1), _e(2, 1), np.array([[1.0, 0.0]])),
    "unstable-jordan3": (np.eye(3) + np.eye(3, k=1), _e(3, 2), np.eye(3)),
    "integrator-chain6": (np.eye(6, k=1), _e(6, 5), np.eye(1, 6)),
    "rotation": (np.array([[0.0, 1.0], [-1.0, 0.0]]), _e(2, 1), np.eye(2)),
    "saddle": (np.diag([-1.0, 1.0]), np.ones((2, 1)), np.array([[0.0, 1.0]])),
}


@pytest.mark.parametrize("case", list(_STRUCTURED_ARE))
def test_solve_are_structured_cases_match_scipy_care(case):
    from scipy.linalg import solve_continuous_are

    A, B, C = _STRUCTURED_ARE[case]
    lq = lq_from_matrices(A, B, C)
    care = solve_continuous_are(A, B, C.T @ C, lq.R)
    P = solve_are(lq)
    A, G, Q = riccati_weights(lq)
    assert np.linalg.norm(P - care) <= 1e-12 * np.linalg.norm(care)
    assert np.linalg.norm(control_riccati_rhs(P, A, G, Q)) <= 1e-12 * np.linalg.norm(P)
    assert np.max(np.linalg.eigvals(A - G @ P).real) < 0


class TestDualRiccati:
    def test_scalar_stationary(self):
        path = solve_dual_dre(scalar_lq(0, 1, 1), dt=0.02)
        assert np.abs(path.values - 1.0).max() <= 1e-12

    def test_constant_when_uncoupled(self):
        # A = 0, B = 0, C = 0, P_T = 2I: S stays exactly at 1/2
        lq = scalar_lq(0.0, 0.0, 0.0, p_T=2.0)
        path = solve_dual_dre(lq, dt=0.02)
        assert np.abs(path.values - 0.5).max() <= 1e-12

    def test_duality_with_value_riccati(self):
        for d in (2, 4, 6):
            lq = make_lq_canonical(d, RngStream(200 + d))
            dt = 0.01
            S = solve_dual_dre(lq, dt)
            P = solve_dre_backward(lq, dt)
            worst = max(
                np.linalg.norm(S.values[k] @ P.values[k] - np.eye(d), "fro")
                for k in range(0, S.values.shape[0], 50)
            )
            assert worst <= 1e-6

    def test_exponential_forgetting_of_terminal_condition(self):
        # ||P_t - P_inf|| decreases in T - t beyond a transient; with complex
        # closed-loop poles the decay can ripple, so strict monotonicity is
        # asserted on instances with monotone decay and the decay magnitude
        # on all of them.
        for seed, strict in ((9, True), (42, True), (7, False)):
            lq = make_lq_canonical(3, RngStream(seed))
            path = solve_dre_backward(lq, dt=0.01)
            P_inf = solve_are(lq)
            dev = np.linalg.norm(path.values - P_inf, axis=(1, 2))
            assert dev[0] <= 1e-2 * dev[-1]
            if strict:
                assert np.all(np.diff(dev[: int(0.8 * len(dev))]) >= -1e-12)

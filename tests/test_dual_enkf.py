import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cips.core import RngStream
from cips.dual_enkf import (
    _LQOps,
    dual_enkf_backward_step,
    dual_enkf_init,
    extract_gain,
    relative_value_mse,
    run_dual_enkf,
    value_matrix,
)
from cips.exceptions import NotPositiveDefiniteError
from cips.fpf import Ensemble
from cips.kalman import solve_dre_backward
from cips.models import LQProblem, make_lq_canonical
from oracles import hamiltonian_policy, solve_dual_dre


def scalar_unit_lq(horizon=10.0):
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    return LQProblem(
        dynamics=lambda x, u: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
        cost_output=lambda x: np.asarray(x) @ C.T,
        R=np.eye(1), P_T=np.eye(1), horizon=horizon,
        A=A, B=B, C=C,
    )


class TestInit:
    def test_rejects_too_few_particles(self):
        lq = make_lq_canonical(3, RngStream(0))
        with pytest.raises(ValueError):
            dual_enkf_init(lq, 3, RngStream(1))

    def test_identity_terminal_weight_gives_standard_normal(self):
        lq = make_lq_canonical(2, RngStream(0))
        st = dual_enkf_init(lq, 200_000, RngStream(1))
        assert st.time == lq.horizon
        mean, cov = st.moments
        assert np.abs(mean).max() <= 3.0 / np.sqrt(200_000) * 1.5
        assert np.abs(cov - np.eye(2)).max() <= 0.02

    def test_terminal_covariance_is_inverse_weight(self):
        lq = make_lq_canonical(2, RngStream(0))
        lq = replace(lq, P_T=np.diag([4.0, 0.25]))
        st = dual_enkf_init(lq, 100_000, RngStream(2))
        target = np.diag([0.25, 4.0])
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / 100_000)
        assert np.all(np.abs(st.moments[1] - target) <= 3 * se)

    def test_scalar_quarter_variance(self):
        lq = scalar_unit_lq()
        lq = replace(lq, P_T=np.array([[4.0]]))
        st = dual_enkf_init(lq, 50_000, RngStream(3))
        assert st.moments[1][0, 0] == pytest.approx(0.25, rel=0.05)


class TestBackwardStep:
    def test_uncoupled_flow_is_deterministic_linear(self):
        # C = 0 and B = 0: pure reverse-Euler of the drift
        A = np.array([[0.3, -0.2], [0.1, 0.0]])
        lq = LQProblem(
            dynamics=lambda x, u: np.asarray(x) @ A.T,
            cost_output=lambda x: 0.0 * np.asarray(x),
            R=np.eye(1), P_T=np.eye(2), horizon=1.0,
            A=A, B=np.zeros((2, 1)), C=np.zeros((2, 2)),
        )
        st = dual_enkf_init(lq, 50, RngStream(4))
        out = dual_enkf_backward_step(st, 0.1, lq, RngStream(5))
        expected = st.particles - (st.particles @ A.T) * 0.1
        assert np.abs(out.particles - expected).max() <= 1e-14
        assert out.time == pytest.approx(st.time - 0.1)

    def test_scalar_stationary_covariance(self):
        # A=0, B=C=R=P_T=1: empirical covariance hovers at the fixed point 1
        lq = scalar_unit_lq()
        run = run_dual_enkf(lq, 1000, 0.02, RngStream(123))
        assert abs(run.cov_path[0, 0, 0] - 1.0) <= 3.0 / np.sqrt(1000)
        assert np.abs(run.cov_path[:, 0, 0] - 1.0).max() <= 0.3


class TestGainExtraction:
    def test_scalar_stationary_gain(self):
        lq = scalar_unit_lq()
        run = run_dual_enkf(lq, 2000, 0.02, RngStream(7))
        assert run.gains[0][0, 0] == pytest.approx(-1.0, abs=0.1)

    def test_zero_cost_matches_lyapunov_oracle(self):
        # C = 0: the value matrix follows a linear equation; compare K_t
        rng = RngStream(11)
        A = np.array([[-0.4, 0.2], [0.0, -0.6]])
        B = np.array([[0.0], [1.0]])
        lq = LQProblem(
            dynamics=lambda x, u: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
            cost_output=lambda x: 0.0 * np.asarray(x),
            R=np.eye(1), P_T=np.eye(2), horizon=2.0,
            A=A, B=B, C=np.zeros((2, 2)),
        )
        oracle = solve_dre_backward(lq, 0.02)
        run = run_dual_enkf(lq, 10_000, 0.02, rng)
        K_exact = -(B.T @ oracle.values[0])
        assert np.abs(run.gains[0] - K_exact).max() <= 0.05

    def test_closed_loop_stability_canonical_d2(self):
        rng = RngStream(123)
        lq = make_lq_canonical(2, rng.substream(0))
        run = run_dual_enkf(lq, 1000, 0.02, rng.substream(1))
        closed = lq.A + lq.B @ run.gains[0]
        assert np.max(np.linalg.eigvals(closed).real) < 0


class TestHamiltonianPolicy:
    def test_zero_state_zero_control(self):
        lq = scalar_unit_lq()
        st = dual_enkf_init(lq, 500, RngStream(8))
        assert hamiltonian_policy(st, np.zeros(1), lq)[0] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_gain_extraction(self):
        lq = make_lq_canonical(3, RngStream(14))
        st = dual_enkf_init(lq, 500, RngStream(15))
        for _ in range(20):
            st = dual_enkf_backward_step(st, 0.02, lq, RngStream(16))
        K = extract_gain(st, lq)
        rng = RngStream(17)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert np.abs(hamiltonian_policy(st, x, lq) - K @ x).max() <= 1e-8

    def test_scalar_stationary_example(self):
        lq = scalar_unit_lq()
        run = run_dual_enkf(lq, 2000, 0.02, RngStream(19))
        alpha = hamiltonian_policy(run.final_state, np.array([2.0]), lq)
        assert alpha[0] == pytest.approx(-2.0, abs=0.2)


class TestRunDualEnkf:
    def test_grid_length_and_single_pass(self):
        lq = make_lq_canonical(2, RngStream(1))
        lq = replace(lq, horizon=0.2)
        run = run_dual_enkf(lq, 100, 0.02, RngStream(2))
        assert run.times.shape == (11,)
        assert run.gains.shape == (11, 1, 2)
        assert run.cov_path.shape == (11, 2, 2)
        assert run.final_state.time == pytest.approx(0.0, abs=1e-12)

    def test_oracle_only_matches_explicit(self):
        # the row-wise drift x @ A.T + 0 @ B.T is bitwise the explicit drift,
        # and the probes recover B and C exactly: withholding the matrices
        # changes no bit, on the canonical problem and on random ones with
        # m > 1 and p != d
        problems = [make_lq_canonical(3, RngStream(8))]
        gen = np.random.default_rng(8)
        for d, m, p in [(1, 2, 1), (2, 3, 1), (3, 2, 4), (4, 3, 2)]:
            A, B, C = (gen.uniform(-1.0, 1.0, shape) for shape in [(d, d), (d, m), (p, d)])
            L = gen.uniform(-0.5, 0.5, (m, m))
            problems.append(LQProblem(
                dynamics=lambda x, u, A=A, B=B: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
                cost_output=lambda x, C=C: np.asarray(x) @ C.T,
                R=L @ L.T + 0.5 * np.eye(m), P_T=np.eye(d), horizon=1.0, A=A, B=B, C=C,
            ))
        for lq in problems:
            a = run_dual_enkf(lq, 200, 0.02, RngStream(55))
            withheld = replace(lq, A=None, B=None, C=None)
            b = run_dual_enkf(withheld, 200, 0.02, RngStream(55))
            np.testing.assert_array_equal(a.cov_path, b.cov_path)
            np.testing.assert_array_equal(a.gains, b.gains)
            np.testing.assert_array_equal(a.final_state.particles, b.final_state.particles)

    def test_oracle_only_calls_dynamics_once_per_step(self):
        lq = make_lq_canonical(2, RngStream(9))
        lq = replace(lq, horizon=0.2)
        calls = []

        def counted(x, u):
            calls.append(np.shape(x))
            return lq.dynamics(x, u)

        withheld = replace(lq, dynamics=counted, A=None, B=None, C=None)
        run_dual_enkf(withheld, 100, 0.02, RngStream(10))
        # one batched probe for B, then one (N, d) drift call per step
        assert len(calls) == 1 + 10
        assert calls[1:] == [(100, 2)] * 10

    def test_one_solve_per_step(self, monkeypatch):
        # R's factors are formed once per sweep; each step solves only for
        # S^{-1}.  Fixed per sweep: the terminal draw, R^{-1} B^T and the
        # terminal S^{-1}
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
        lq = make_lq_canonical(2, RngStream(9))
        for horizon, steps in [(0.2, 10), (0.4, 20)]:
            calls.clear()
            run_dual_enkf(replace(lq, horizon=horizon), 100, 0.02, RngStream(10))
            assert len(calls) == steps + 3

    def test_per_point_oracle_rejected(self):
        # written for one point: x[1] is a row of the batch, not a coordinate
        lq = LQProblem(
            dynamics=lambda x, u: np.array([x[1], -x[0] + u[0]]),
            cost_output=lambda x: np.asarray(x),
            R=np.eye(1), P_T=np.eye(2), horizon=0.1,
        )
        with pytest.raises(ValueError, match=r"dynamics oracle returned shape \(2, 2\) "
                                             r"for inputs of shape \(4, 2\), \(4, 1\)"):
            run_dual_enkf(lq, 50, 0.02, RngStream(3))

    def test_drift_checks_oracle_shape(self):
        lq = make_lq_canonical(2, RngStream(4))
        ops = _LQOps(replace(lq, A=None, B=None, C=None))
        ops.lq = replace(ops.lq, dynamics=lambda x, u: lq.dynamics(x, u)[:-1])
        with pytest.raises(ValueError, match=r"dynamics oracle returned shape \(49, 2\) "
                                             r"for inputs of shape \(50, 2\), \(50, 1\)"):
            ops.drift(np.ones((50, 2)))

    def test_covariance_tracks_dual_riccati(self):
        rng = RngStream(123)
        lq = make_lq_canonical(2, rng.substream(0))
        oracle = solve_dre_backward(lq, 0.02)
        run = run_dual_enkf(lq, 1000, 0.02, rng.substream(1))
        rel = relative_value_mse(run.cov_path, oracle.values, 0.02, lq.horizon)
        assert rel < 0.05
        dual = solve_dual_dre(lq, 0.02)
        mid = len(dual.values) // 2
        rel_mid = np.linalg.norm(run.cov_path[mid] - dual.values[mid], "fro") / np.linalg.norm(
            dual.values[mid], "fro")
        assert rel_mid < 0.2

    def test_ensemble_mean_decays_with_n(self):
        lq = make_lq_canonical(2, RngStream(3))
        norms = {}
        for n in (100, 400, 1600):
            vals = []
            for rep in range(12):
                run = run_dual_enkf(lq, n, 0.05, RngStream(60).substream(n).substream(rep))
                vals.append(np.linalg.norm(run.final_state.moments[0]))
            norms[n] = np.mean(vals)
        assert norms[1600] < norms[400] < norms[100]
        assert norms[1600] < 3.0 / np.sqrt(1600) * 2.0

    def test_terminal_error_not_amplified(self):
        # forgetting: error at t=0 no worse than the terminal sampling error
        rng = RngStream(123)
        lq = make_lq_canonical(2, rng.substream(0))
        dual = solve_dual_dre(lq, 0.02)
        err0, errT = [], []
        for rep in range(10):
            run = run_dual_enkf(lq, 500, 0.02, rng.substream(100 + rep))
            err0.append(np.linalg.norm(run.cov_path[0] - dual.values[0], "fro"))
            errT.append(np.linalg.norm(run.cov_path[-1] - dual.values[-1], "fro"))
        assert np.mean(err0) <= np.mean(errT)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 6),
    m=st.integers(1, 3),
    extra=st.integers(0, 300),
    steps=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_matrix_is_inverse_covariance(d, m, extra, steps, seed):
    # reference: the transformed particles X = (Y - n) S^{-1} and their
    # second moment (1/(N-1)) X^T X, which equals S^{-1} exactly
    gen = np.random.default_rng(seed)
    A = gen.uniform(-1.0, 1.0, (d, d))
    B = gen.uniform(-1.0, 1.0, (d, m))
    L = gen.uniform(-0.5, 0.5, (m, m))
    lq = LQProblem(
        dynamics=lambda x, u: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
        cost_output=lambda x: np.asarray(x),
        R=L @ L.T + 0.5 * np.eye(m), P_T=np.eye(d), horizon=1.0,
        A=A, B=B, C=np.eye(d),
    )
    rng = RngStream(seed)
    ens = dual_enkf_init(lq, 4 * d + 2 + extra, rng)
    for _ in range(steps):
        ens = dual_enkf_backward_step(ens, 0.02, lq, rng)
    n_mean, S = ens.moments
    x = np.linalg.solve(S, (ens.particles - n_mean).T).T
    ref = x.T @ x / (ens.particles.shape[0] - 1)

    P = value_matrix(ens)
    assert np.abs(P - P.T).max() <= 1e-12
    assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)
    K = extract_gain(ens, lq)
    K_ref = -np.linalg.solve(lq.R, B.T @ np.linalg.inv(S))
    assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)


def test_value_matrix_singular_covariance_raises():
    # identical particles: S = 0, and the jitter retry (scaled by tr S) is 0 too
    ens = Ensemble(np.ones((5, 2)))
    with pytest.raises(NotPositiveDefiniteError):
        value_matrix(ens)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_exploration_noise_has_covariance_r_inverse(m, seed):
    # z @ noise has covariance noise^T noise = R^{-1}; the transposed factor
    # inv(L).T would give (L^T L)^{-1} instead, which differs for a
    # non-diagonal R
    gen = np.random.default_rng(seed)
    G = gen.uniform(-1.0, 1.0, (m, m))
    R = G @ G.T + 0.5 * np.eye(m)
    lq = replace(make_lq_canonical(2, RngStream(1)), R=R,
                 B=gen.uniform(-1.0, 1.0, (2, m)))
    ops = _LQOps(lq)
    R_inv = np.linalg.inv(R)
    assert np.linalg.norm(ops.noise.T @ ops.noise - R_inv) <= 1e-12 * np.linalg.norm(R_inv)
    z = gen.standard_normal((50, m))
    ref = np.linalg.solve(np.linalg.cholesky(R).T, z.T).T
    assert np.linalg.norm(z @ ops.noise - ref) <= 1e-13 * np.linalg.norm(ref)

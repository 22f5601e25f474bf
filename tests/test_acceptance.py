"""Acceptance suite: one test per exit criterion, printed as PASS lines.

Every tolerance is pinned here, not tuned at runtime.  Measurements whose
plain Monte-Carlo estimate is statistically unreliable (the exact-denominator
importance estimator has a heavy-tailed squared error) use the stratified
measurement of ``tests/oracles.py``, whose closed-form ingredients are verified
against independent quadrature in this file and in test_bench_cli.py.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import numpy as np

from cips.core import RngStream
from cips.bench import static_fpf_mse
from cips.dual_enkf import relative_value_mse, run_dual_enkf
from cips.fpf import Ensemble
from cips.gain import (
    constant_gain,
    coordinate_basis,
    diffusion_map_gain,
    exact_gain_1d,
    galerkin_gain,
)
from cips.kalman import kalman_bucy_run, solve_are, solve_dre_backward
from cips.linear_ensemble import empirical_moments, linear_enkf_step
from cips.models import (
    make_bimodal,
    make_linear_gaussian,
    make_lq_canonical,
    simulate_truth_and_observations,
)
from cips.static_transport import JointGaussian, blue_update, ot_affine_map, perturbed_enkf_map
from oracles import (
    gaussian_bump_basis_1d,
    modified_pf_mse_exact,
    polynomial_basis_1d,
    solve_dual_dre,
    static_modified_pf_mse_hybrid,
)


def report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion}: {message}  PASS")


# ---------------------------------------------------------------------------
# 1. Exact-denominator importance estimator matches the closed-form MSE law
# ---------------------------------------------------------------------------

def test_criterion_1_modified_pf_mse_formula():
    n, total_runs = 1000, 2000
    lines = []
    for d in (1, 2, 3):
        formula = (3 * 2**d - 0.5) / n
        # independent oracle: closed-form conditional variance integrated by
        # quadrature must reproduce the formula
        exact = modified_pf_mse_exact(d, n)
        assert abs(exact - formula) <= 0.005 * formula
        # stratified estimator-run measurement (2000 runs)
        mse, measured_frac = static_modified_pf_mse_hybrid(
            d, n, RngStream(101).substream(d), total_runs=total_runs
        )
        rel = mse / formula - 1.0
        lines.append(f"d={d}: mse={mse:.3e} vs {formula:.3e} ({rel:+.1%}, "
                     f"{measured_frac:.0%} from estimator runs)")
        assert abs(rel) <= 0.15
    report(1, "modified-PF MSE matches (sigma^2/N)(3*2^d - 1/2) within 15% "
              "for d=1,2,3 [" + "; ".join(lines) + "]")


# ---------------------------------------------------------------------------
# 2. Feedback-particle estimator MSE within the quadratic bound
# ---------------------------------------------------------------------------

def test_criterion_2_fpf_mse_bound():
    n, reps = 1000, 2000
    rng = RngStream(102)
    worst = 0.0
    for d in range(1, 11):
        mse, se = static_fpf_mse(d, n, reps, rng.substream(d))
        bound = (3 * d**2 + 2 * d) / n
        assert mse <= bound + 3 * se, f"d={d}: {mse} > {bound}"
        worst = max(worst, mse / bound)
    report(2, f"FPF MSE <= (sigma^2/N)(3d^2+2d) for every d=1..10 "
              f"(largest mse/bound ratio {worst:.3f})")


# ---------------------------------------------------------------------------
# 3. Level-set trend: N required to hold the d=1 error level
# ---------------------------------------------------------------------------

def test_criterion_3_levelset_growth():
    n_ref, runs = 1000, 2000
    rng = RngStream(103)

    # --- importance-sampling branch (exact-denominator estimator) --------
    # conditional MSE is exactly proportional to 1/N, so the required N at
    # each d follows from the measured MSE at the reference size
    pf_mse = {}
    for d in range(1, 7):
        pf_mse[d], _ = static_modified_pf_mse_hybrid(
            d, n_ref, rng.substream(d), total_runs=runs
        )
    pf_target = pf_mse[1]
    pf_req = {d: n_ref * pf_mse[d] / pf_target for d in range(1, 7)}
    ratios = [pf_req[d + 1] / pf_req[d] for d in range(1, 6)]
    # exact law: ratios (3*2^(d+1)-.5)/(3*2^d-.5) in (2.0, 2.1); allow 5%
    # measurement tolerance on each
    assert all(r >= 1.9 for r in ratios), ratios
    assert pf_req[6] / pf_req[1] >= 2**5
    # spot check: at the implied N the measured level is back at the target
    spot_n = int(round(pf_req[3]))
    spot_mse, _ = static_modified_pf_mse_hybrid(3, spot_n, rng.substream(30),
                                                total_runs=runs)
    assert abs(spot_mse - pf_target) <= 0.25 * pf_target

    # --- feedback-particle branch ----------------------------------------
    fpf_reps = 600
    fpf_mse = {}
    for d in range(1, 7):
        fpf_mse[d], _ = static_fpf_mse(d, n_ref, fpf_reps, rng.substream(100 + d))
    fpf_target = fpf_mse[1]
    fpf_req = {1: float(n_ref)}
    for d in range(2, 7):
        # predict by 1/N scaling, then verify the level is achieved there
        n_pred = max(int(round(n_ref * fpf_mse[d] / fpf_target)), 2)
        achieved, _ = static_fpf_mse(d, n_pred, fpf_reps, rng.substream(200 + d))
        assert abs(achieved - fpf_target) <= 0.25 * fpf_target, (d, n_pred)
        fpf_req[d] = n_pred * achieved / fpf_target

    dims = np.arange(1, 7)
    growth = np.polyfit(np.log(dims), np.log([fpf_req[d] for d in dims]), 1)[0]
    assert growth < 2.0  # sub-quadratic
    assert fpf_req[6] / fpf_req[1] < 36.0

    report(3, "required N doubles per unit d for the importance estimator "
              f"(ratios {[f'{r:.2f}' for r in ratios]}) and grows "
              f"sub-quadratically for the FPF (exponent {growth:.2f}, "
              f"N_req {[int(fpf_req[d]) for d in dims]})")


# ---------------------------------------------------------------------------
# 4. Linear-Gaussian exactness of the three ensemble variants
# ---------------------------------------------------------------------------

def _stable_2d_model():
    return make_linear_gaussian(
        np.array([[-1.0, 0.5], [-0.5, -1.0]]),
        np.array([[1.0, 0.0]]),
        0.5 * np.eye(2),
        np.array([1.0, -1.0]),
        np.eye(2),
    )


def _run_variant(model, obs, tag, n, rng):
    ens = Ensemble(model.sample_prior(rng.substream(0), n))
    step = rng.substream(1)
    for k in range(obs.num_steps):
        ens = linear_enkf_step(ens, obs.increments[k], obs.dt, model,
                               tag, step)
    return empirical_moments(ens.particles)


def test_criterion_4_linear_exactness_and_rate():
    model = _stable_2d_model()
    rng = RngStream(104)
    _, obs = simulate_truth_and_observations(model, 0.01, 1.0, rng.substream(0))
    oracle = kalman_bucy_run(model, obs)
    mT, ST = oracle.final_state.mean, oracle.final_state.cov
    n = 10_000
    se_mean = np.sqrt(np.diag(ST) / n)
    se_cov = np.sqrt((np.outer(np.diag(ST), np.diag(ST)) + ST**2) / n)
    for i, tag in enumerate(("sqrt", "perturbed", "deterministic")):
        mean, cov = _run_variant(model, obs, tag, n, rng.substream(10 + i))
        assert np.all(np.abs(mean - mT) <= 3 * se_mean), tag
        assert np.all(np.abs(cov - ST) <= 3 * se_cov), tag

    # MSE-vs-N rate for the square-root variant
    sizes = (100, 1000, 10_000)
    reps = {100: 300, 1000: 100, 10_000: 36}
    errs = []
    for size in sizes:
        acc = []
        for rep in range(reps[size]):
            sub = rng.substream(1000 + size + rep)
            _, obs_r = simulate_truth_and_observations(model, 0.01, 1.0, sub.substream(0))
            oracle_r = kalman_bucy_run(model, obs_r)
            mean, cov = _run_variant(model, obs_r, "sqrt", size, sub.substream(1))
            acc.append(np.sum((mean - oracle_r.final_state.mean) ** 2)
                       + np.sum((cov - oracle_r.final_state.cov) ** 2))
        errs.append(np.mean(acc))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -1.2 <= slope <= -0.8
    report(4, f"all three linear ensemble variants within 3 SE of the "
              f"Kalman-Bucy oracle at N=1e4; MSE~N slope {slope:.2f}")


# ---------------------------------------------------------------------------
# 5. Galerkin with coordinate basis reproduces the constant gain
# ---------------------------------------------------------------------------

def test_criterion_5_galerkin_constant_identity():
    rng = RngStream(105)
    worst = 0.0
    for rep in range(100):
        sub = rng.substream(rep)
        d = int(sub.integers(1, 5))
        n = int(sub.integers(5, 60))
        x = sub.standard_normal((n, d)) * float(sub.uniform(0.5, 2.0))
        h = x @ sub.standard_normal((d, 2)) + np.sin(x[:, :1])
        basis = coordinate_basis(d)
        galerkin = galerkin_gain(x, h, basis)
        constant = constant_gain(x, h)
        scale = max(np.abs(constant).max(), 1e-30)
        worst = max(worst, np.abs(galerkin - constant).max() / scale)
    assert worst <= 1e-12
    report(5, f"coordinate-basis Galerkin equals the constant gain on 100 "
              f"random ensembles (worst relative deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. Diffusion-map bias/variance behavior on the bimodal benchmark
# ---------------------------------------------------------------------------

def _dm_mse(density, exact_table, n, eps, rng):
    x = density.sample(rng, n)
    gains = diffusion_map_gain(x, x, eps)
    grid, vals = exact_table
    exact = np.interp(x, grid, vals)
    return float(np.mean((gains[:, 0, 0] - exact) ** 2))


def test_criterion_6_diffusion_map_properties():
    density = make_bimodal(0.2)
    grid = density.support_grid(4001, num_sigmas=7.5)
    exact_table = (grid, exact_gain_1d(density, grid))
    rng = RngStream(106)

    # (a) eps -> infinity limit equals the constant gain
    x = density.sample(rng.substream(0), 200)
    limit_gains = diffusion_map_gain(x, x, 1e6)
    const = constant_gain(x, x)[0, 0, 0]
    dev_inf = np.abs(limit_gains[:, 0, 0] - const).max()
    assert dev_inf <= 1e-3

    # (b) interior minimum of MSE over eps at N=200
    eps_grid = np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 10.0])
    reps = 50
    curve = []
    for ei, eps in enumerate(eps_grid):
        sub = rng.substream(10 + ei)
        curve.append(np.mean([
            _dm_mse(density, exact_table, 200, eps, sub.substream(r))
            for r in range(reps)
        ]))
    curve = np.array(curve)
    k_min = int(np.argmin(curve))
    assert 0 < k_min < len(eps_grid) - 1
    eps_star = float(eps_grid[k_min])

    # (c) at the minimizing eps the MSE decreases monotonically in N
    sizes = (100, 200, 500, 1000)
    by_n = []
    for ni, size in enumerate(sizes):
        sub = rng.substream(50 + ni)
        by_n.append(np.mean([
            _dm_mse(density, exact_table, size, eps_star, sub.substream(r))
            for r in range(30)
        ]))
    assert all(b < a for a, b in zip(by_n, by_n[1:])), by_n

    # (d) squared L2(rho) error at N=2000 and tuned eps below 0.1
    final = np.mean([
        _dm_mse(density, exact_table, 2000, eps_star, rng.substream(90 + r))
        for r in range(6)
    ])
    assert final < 0.1
    report(6, f"diffusion-map gain: eps->inf matches constant gain "
              f"({dev_inf:.1e}); eps curve has interior minimum at "
              f"{eps_star}; MSE falls monotonically in N {np.round(by_n, 4).tolist()}; "
              f"L2(rho)^2 error at N=2000 is {final:.3f} < 0.1")


# ---------------------------------------------------------------------------
# 7. Optimization-gap bound for basis gains
# ---------------------------------------------------------------------------

def test_criterion_7_j_stability_bound():
    density = make_bimodal(0.2)
    grid = density.support_grid(8001, num_sigmas=7.5)
    rho = density.pdf(grid)
    w = np.gradient(grid)
    exact = exact_gain_1d(density, grid)
    j_star = -0.5 * float((exact**2 * rho) @ w)
    hbar = float((grid * rho) @ w) / float(rho @ w)

    x = density.sample(RngStream(107), 2000)[:, None]
    h = x[:, 0]
    bases = {
        "coordinate": coordinate_basis(1),
        "poly-12": polynomial_basis_1d([1, 2]),
        "poly-123": polynomial_basis_1d([1, 2, 3]),
        "poly-13": polynomial_basis_1d([1, 3]),
        "bumps": gaussian_bump_basis_1d([-1.5, -0.75, 0.0, 0.75, 1.5], 0.6),
    }
    gaps = []
    for name, basis in bases.items():
        psi, grads = basis(x)
        grads = grads[:, :, 0]
        normal = grads.T @ grads / x.shape[0]
        rhs = psi.T @ (h - h.mean()) / x.shape[0]
        theta = np.linalg.solve(normal, rhs)
        psi_g, grad_g = basis(grid[:, None])
        grad_g = grad_g[:, :, 0]
        gain_theta = grad_g @ theta
        f_theta = psi_g @ theta
        j_theta = float(((0.5 * gain_theta**2 - f_theta * (grid - hbar)) * rho) @ w)
        lhs = float(((gain_theta - exact) ** 2 * rho) @ w)
        bound = 2.0 * (j_theta - j_star)
        assert lhs <= bound * (1 + 1e-3) + 1e-8, name
        gaps.append(f"{name}:{lhs:.3f}<={bound:.3f}")
    report(7, "||K_theta - K||^2_L2(rho) <= 2 (J(theta) - J*) for 5 bases "
              "[" + ", ".join(gaps) + "]")


# ---------------------------------------------------------------------------
# 8. Static Gaussian transport maps
# ---------------------------------------------------------------------------

def test_criterion_8_static_transport_maps():
    rng = RngStream(108)
    worst_resid = 0.0
    for rep in range(20):
        sub = rng.substream(rep)
        g = sub.standard_normal((5, 5))
        joint = g @ g.T + 0.5 * np.eye(5)
        jg = JointGaussian(mean_x=sub.standard_normal(3), mean_y=sub.standard_normal(2),
                           cov_x=joint[:3, :3], cov_xy=joint[:3, 3:], cov_y=joint[3:, 3:])
        amap = ot_affine_map(jg)
        target = jg.cov_x - jg.gain() @ jg.cov_y @ jg.gain().T
        worst_resid = max(worst_resid, np.linalg.norm(
            amap.matrix @ jg.cov_x @ amap.matrix - target, "fro"))
    assert worst_resid <= 1e-10

    jg = JointGaussian(
        mean_x=rng.substream(100).standard_normal(3),
        mean_y=rng.substream(101).standard_normal(2),
        **(lambda j: dict(cov_x=j[:3, :3], cov_xy=j[:3, 3:], cov_y=j[3:, 3:]))(
            (lambda g: g @ g.T + 0.5 * np.eye(5))(rng.substream(102).standard_normal((5, 5)))
        ),
    )
    y = np.array([0.3, -0.7])
    mean, cov = blue_update(jg, y)
    n = 100_000
    x0, _ = jg.sample(rng.substream(103), n)
    ot_samples = ot_affine_map(jg)(x0, y)
    pert_samples = perturbed_enkf_map(jg, y, rng.substream(104), n)
    se_mean = np.sqrt(np.diag(cov) / n)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    for name, sample in (("ot", ot_samples), ("perturbed", pert_samples)):
        assert np.all(np.abs(sample.mean(axis=0) - mean) <= 3 * se_mean), name
        assert np.all(np.abs(np.cov(sample.T) - cov) <= 3 * se_cov), name
    report(8, f"transport-map residual <= 1e-10 on 20 random joints (worst "
              f"{worst_resid:.1e}); both update maps match the exact posterior "
              f"moments at N=1e5 within 3 SE")


# ---------------------------------------------------------------------------
# 9. Backward ensemble LQ solver against the Riccati oracles
# ---------------------------------------------------------------------------

def test_criterion_9_dual_enkf_benchmarks():
    rng = RngStream(123)
    lq2 = make_lq_canonical(2, rng.substream(0))
    oracle2 = solve_dre_backward(lq2, 0.02)
    run2 = run_dual_enkf(lq2, 1000, 0.02, rng.substream(1))
    rel2 = relative_value_mse(run2.cov_path, oracle2.values, 0.02, lq2.horizon)
    assert rel2 < 0.05

    p0 = np.linalg.inv(run2.cov_path[0])
    p_inf = solve_are(lq2)
    are_dev = np.linalg.norm(p0 - p_inf, "fro") / np.linalg.norm(p_inf, "fro")
    assert are_dev < 0.05

    absc = {}
    for d in (2, 10):
        lq = make_lq_canonical(d, rng.substream(2 * d))
        run = run_dual_enkf(lq, 1000, 0.02, rng.substream(2 * d + 1))
        closed = lq.A + lq.B @ run.gains[0]
        absc[d] = float(np.max(np.linalg.eigvals(closed).real))
        assert absc[d] < 0.0

    sizes = (250, 500, 1000, 2000)
    reps = 16
    mses = []
    for ni, n in enumerate(sizes):
        vals = [
            relative_value_mse(
                run_dual_enkf(lq2, n, 0.02, rng.substream(10).substream(ni).substream(r)).cov_path,
                oracle2.values, 0.02, lq2.horizon)
            for r in range(reps)
        ]
        mses.append(np.mean(vals))
    slope = np.polyfit(np.log(sizes), np.log(mses), 1)[0]
    assert -1.2 <= slope <= -0.8
    report(9, f"dual ensemble: rel MSE {rel2:.4f} < 5%, value matrix at t=0 "
              f"within {are_dev:.1%} of the stationary solution, closed-loop "
              f"abscissa d=2 {absc[2]:.2f} / d=10 {absc[10]:.2f} < 0, "
              f"MSE~N slope {slope:.2f}")


# ---------------------------------------------------------------------------
# 10. Scalar closed forms
# ---------------------------------------------------------------------------

def test_criterion_10_scalar_closed_forms():
    from cips.models import LQProblem

    A = np.array([[0.0]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    lq = LQProblem(
        dynamics=lambda x, u: np.asarray(x) @ A.T + np.asarray(u) @ B.T,
        cost_output=lambda x: np.asarray(x) @ C.T,
        R=np.eye(1), P_T=np.eye(1), horizon=10.0,
        A=A, B=B, C=C,
    )
    p_inf = solve_are(lq)
    assert abs(p_inf[0, 0] - 1.0) <= 1e-8
    dual = solve_dual_dre(lq, 0.02)
    assert np.abs(dual.values - 1.0).max() <= 1e-8

    n = 1000
    run = run_dual_enkf(lq, n, 0.02, RngStream(110))
    dev = abs(run.cov_path[0, 0, 0] - 1.0)
    assert dev <= 3.0 / np.sqrt(n)
    report(10, f"scalar stationary solutions exact to 1e-8; ensemble "
               f"covariance at t=0 deviates {dev:.4f} <= 3/sqrt(N)")

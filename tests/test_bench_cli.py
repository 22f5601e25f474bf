import numpy as np
import pytest

from cips.bench import (
    ResultTable,
    RunConfig,
    bench_bias_variance,
    bench_dual_enkf,
    bench_mse_levelsets,
    gain_study_table,
    modified_pf_conditional_moments,
    modified_pf_conditional_var,
    modified_pf_mse_exact,
    modified_weights_batch,
    static_fpf_mse,
    static_method_mse,
    static_pf_mse,
)
from cips.cli import load_config, main
from cips.core import RngStream
from cips.exceptions import ConfigError
from cips.kalman import kalman_bucy_run
from cips.linear_ensemble import LinearVariant, linear_enkf_step
from cips.fpf import Ensemble
from cips.models import make_static_param, simulate_truth_and_observations
from cips.sir import static_is_modified


class TestRunConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="nope")

    def test_levelsets_needs_two_reps(self):
        with pytest.raises(ConfigError, match="reps"):
            RunConfig(experiment="mse-levelsets", reps=1)
        RunConfig(experiment="mse-levelsets", reps=2)
        RunConfig(experiment="bias-variance", reps=1, eps_list=(0.1,))

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="mse-levelsets", n_list=(1,))
        with pytest.raises(ConfigError):
            RunConfig(experiment="mse-levelsets", d_list=())
        with pytest.raises(ConfigError):
            RunConfig(experiment="bias-variance", eps_list=(-0.1,))
        with pytest.raises(ConfigError):
            RunConfig(experiment="mse-levelsets", methods=("bogus",))

    def test_fingerprint_stable(self):
        a = RunConfig(experiment="dual-enkf", seed=3, horizon=10.0)
        b = RunConfig(experiment="dual-enkf", seed=3, horizon=10.0)
        assert a.fingerprint() == b.fingerprint()


class TestResultTable:
    def test_csv_format(self):
        table = ResultTable(
            columns=("a", "b"),
            rows=[(1, 0.1), (2, 1.0 / 3.0)],
            metadata={"seed": "0", "schema": "x-v1"},
        )
        text = table.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# seed = 0"
        assert lines[1] == "# schema = x-v1"
        assert lines[2] == "a,b"
        assert lines[3] == "1,0.10000000000000001"  # 17 significant digits
        assert text.endswith("\n")

    def test_rejects_nonfinite(self):
        table = ResultTable(columns=("a",), rows=[(np.nan,)], metadata={})
        with pytest.raises(ValueError):
            table.to_csv()

    def test_rejects_ragged_rows(self):
        table = ResultTable(columns=("a", "b"), rows=[(1,)], metadata={})
        with pytest.raises(ValueError):
            table.to_csv()


class TestModifiedPfOracle:
    def test_conditional_moments_match_quadrature(self):
        from scipy.integrate import quad

        s0, sw = 1.0, 1.3
        s2 = s0**2 + sw**2
        for z in (0.0, 0.8, 2.5, 4.0):
            D2 = (sw**2 / s2) * np.exp(-(z**2) / s2)

            def integrand(x, k):
                g2 = np.exp(-((z - x) ** 2) / sw**2) / D2
                pdf = np.exp(-(x**2) / (2 * s0**2)) / np.sqrt(2 * np.pi * s0**2)
                return g2 * x**k * pdf

            m0, m1, m2 = modified_pf_conditional_moments(np.array([z]), s0, sw)
            for k, closed in ((0, m0[0]), (1, m1[0]), (2, m2[0])):
                ref, _ = quad(integrand, -30, 30, args=(k,), limit=200)
                assert closed == pytest.approx(ref, rel=1e-9)

    def test_exact_mse_equals_known_formula(self):
        # sigma0 = sigma_w: MSE * N = 3 * 2^d - 1/2
        for d in range(1, 8):
            exact = modified_pf_mse_exact(d, 1000)
            assert exact == pytest.approx((3 * 2**d - 0.5) / 1000, rel=1e-9)

    def test_conditional_var_positive_and_symmetric(self):
        for z in (np.array([0.0]), np.array([1.5, -1.5]), np.array([3.0, 0.0, -1.0])):
            v = modified_pf_conditional_var(z, 1.0, 1.0)
            assert v > 0
            assert modified_pf_conditional_var(-z, 1.0, 1.0) == pytest.approx(v, rel=1e-12)

    def test_weights_batch_matches_module_op(self):
        rng = RngStream(3)
        z = rng.standard_normal((5, 2))
        samples = rng.standard_normal((5, 50, 2))
        w = modified_weights_batch(samples, z, 1.0, 1.0)
        for i in range(5):
            ref = static_is_modified(samples[i], z[i], 1.0, 1.0, lambda x: x[:, 0])
            assert float(w[i] @ samples[i, :, 0]) == pytest.approx(ref, rel=1e-12)


def particle_loop_fpf_mse(d, num_particles, reps, rng, sigma0=1.0, sigma_w=1.0,
                          dt=0.02, chunk=128):
    """Reference for static_fpf_mse: steps all N particles of every replicate.

    Same draws in the same order as the moment recursion (truth, prior
    ensemble, then one observation increment per step, per chunk substream).
    """
    a = np.ones(d) / np.sqrt(d)
    chunk = max(1, min(chunk, int(1e7 // max(num_particles * d, 1)) or 1))
    num_steps = int(round(1.0 / dt))
    sq_errors = np.empty(reps)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        sub = rng.substream(done)
        truth = sigma0 * sub.standard_normal((take, d))
        x = sigma0 * sub.standard_normal((take, num_particles, d))
        z1 = np.zeros((take, d))
        for _ in range(num_steps):
            dz = truth * dt + sigma_w * np.sqrt(dt) * sub.standard_normal((take, d))
            z1 += dz
            mean = x.mean(axis=1, keepdims=True)
            centered = x - mean
            cov = centered.transpose(0, 2, 1) @ centered / (num_particles - 1)
            innov = dz[:, None, :] - 0.5 * (x + mean) * dt
            x = x + (innov @ cov) / sigma_w**2
        target = (z1 @ a) * sigma0**2 / (sigma0**2 + sigma_w**2)
        sq_errors[done : done + take] = ((x @ a).mean(axis=1) - target) ** 2
        done += take
    return float(sq_errors.mean()), float(sq_errors.std(ddof=1) / np.sqrt(reps))


class TestStaticBenchmarkCells:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n, reps, kwargs", [
        (20, 150, {}),                                   # crosses the default chunk of 128
        (7, 23, dict(chunk=5, sigma0=1.7, sigma_w=0.6, dt=0.05)),
    ])
    def test_fpf_moment_recursion_matches_particle_loop(self, d, n, reps, kwargs):
        got = static_fpf_mse(d, n, reps, RngStream(31 + d), **kwargs)
        ref = particle_loop_fpf_mse(d, n, reps, RngStream(31 + d), **kwargs)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_fpf_cell_consistent_with_module_filters(self):
        # the vectorized recursion must agree statistically with stepping the
        # square-root ensemble filter through the module API
        d, n, reps = 1, 200, 48
        mse_vec, se_vec = static_fpf_mse(d, n, reps, RngStream(77))
        model = make_static_param(d, 1.0, 1.0)
        rng = RngStream(99)
        errors = np.empty(reps)
        for i in range(reps):
            sub = rng.substream(i)
            _, obs = simulate_truth_and_observations(model, 0.02, 1.0, sub.substream(0))
            ens = Ensemble(model.sample_prior(sub.substream(1), n))
            step = sub.substream(2)
            for k in range(obs.num_steps):
                ens = linear_enkf_step(ens, obs.increments[k], obs.dt, model,
                                       LinearVariant("sqrt"), step)
            z1 = obs.cumulative()[-1]
            errors[i] = (ens.particles.mean() - 0.5 * z1[0]) ** 2
        mse_loop = errors.mean()
        se_loop = errors.std(ddof=1) / np.sqrt(reps)
        assert abs(mse_vec - mse_loop) <= 4 * np.hypot(se_vec, se_loop)

    def test_monotone_in_n(self):
        rng = RngStream(5)
        for method in ("pf", "fpf"):
            small, _ = static_method_mse(method, 1, 1000, 300, rng.substream(1))
            large, _ = static_method_mse(method, 1, 4000, 300, rng.substream(2))
            assert large < small

    def test_pf_modified_plain_average_sanity_band(self):
        # The plain replicate average of the exact-denominator estimator's
        # squared error is heavy-tailed (tail index 3/2) and typically reads
        # tens of percent below the true MSE at this replicate count, so
        # only a wide sanity band is asserted here; the formula-level check
        # lives in the acceptance suite via the stratified measurement.
        mse, _ = static_pf_mse(1, 1000, 2000, RngStream(42), modified=True)
        formula = (3 * 2 - 0.5) / 1000
        assert 0.3 * formula <= mse <= 2.0 * formula


class TestBenchTables:
    def test_levelsets_schema_and_determinism(self):
        cfg = RunConfig(experiment="mse-levelsets", seed=9, reps=40,
                        n_list=(100,), d_list=(1, 2), methods=("pf", "fpf"))
        a = bench_mse_levelsets(cfg)
        b = bench_mse_levelsets(cfg)
        assert a.columns == ("method", "d", "N", "mse", "stderr")
        assert len(a.rows) == 4
        assert a.to_csv() == b.to_csv()

    def test_bias_variance_schema(self):
        cfg = RunConfig(experiment="bias-variance", seed=2, reps=3,
                        n_list=(60,), d_list=(1,), eps_list=(0.1, 1.0))
        table = bench_bias_variance(cfg)
        assert table.columns == ("eps", "N", "d", "mse", "stderr")
        assert len(table.rows) == 2
        assert all(row[3] > 0 for row in table.rows)

    def test_gain_study_per_rep_rows(self):
        cfg = RunConfig(experiment="bias-variance", seed=2, reps=3,
                        n_list=(60,), d_list=(1,), eps_list=(0.2,))
        table = gain_study_table(cfg)
        assert table.columns == ("eps", "N", "rep", "mse")
        assert len(table.rows) == 3
        assert [row[2] for row in table.rows] == [0, 1, 2]

    def test_dual_enkf_schema(self):
        cfg = RunConfig(experiment="dual-enkf", seed=4, reps=2,
                        n_list=(100,), d_list=(2,), dt=0.05, horizon=1.0)
        table = bench_dual_enkf(cfg)
        assert table.columns == ("d", "N", "rep", "rel_mse", "spec_abscissa")
        assert len(table.rows) == 2

    def test_worker_pool_matches_sequential(self):
        base = dict(experiment="bias-variance", seed=11, reps=2,
                    n_list=(50,), d_list=(1,), eps_list=(0.1, 0.5))
        seq = bench_bias_variance(RunConfig(**base, jobs=1))
        par = bench_bias_variance(RunConfig(**base, jobs=2))
        assert seq.to_csv() == par.to_csv()


class TestCli:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--bogus-flag", "1"])
        assert exc.value.code == 2

    def test_bench_requires_experiment(self, capsys):
        assert main(["bench"]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_bench_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["bench", "--experiment", "bias-variance", "--seed", "7",
                "--reps", "2", "--n-list", "50", "--eps-list", "0.1,0.5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lqr_solve_row_count(self, tmp_path):
        out = tmp_path / "gain.csv"
        code = main(["lqr-solve", "--d", "2", "--n", "50", "--seed", "1",
                     "--T", "0.2", "--dt", "0.02", "--out", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        # header + (T/dt)+1 rows
        assert len(lines) == 1 + 11
        assert lines[0] == "t,k_0_0,k_0_1"
        s_lines = (tmp_path / "gain.csv.s.csv").read_text().splitlines()
        assert [ln for ln in s_lines if not ln.startswith("#")][0] == "t,s_0_0,s_0_1,s_1_0,s_1_1"

    def test_lqr_solve_stdout_is_one_table(self, capsys):
        code = main(["lqr-solve", "--d", "2", "--n", "50", "--seed", "1",
                     "--T", "0.2", "--dt", "0.02"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln.split(",") for ln in lines if not ln.startswith("#")]
        assert meta == lines[:len(meta)]
        assert sum(ln.startswith("# version") for ln in meta) == 1
        assert data[0] == ["t", "k_0_0", "k_0_1"]
        assert len(data) == 1 + 11
        assert all(len(row) == 3 and all(np.isfinite(float(v)) for v in row)
                   for row in data[1:])

    def test_lqr_solve_out_s_without_out(self, tmp_path, capsys):
        s_path = tmp_path / "s.csv"
        code = main(["lqr-solve", "--d", "2", "--n", "50", "--seed", "1",
                     "--T", "0.2", "--dt", "0.02", "--out-s", str(s_path)])
        assert code == 0
        assert "t,k_0_0,k_0_1" in capsys.readouterr().out
        assert "t,s_0_0,s_0_1,s_1_0,s_1_1" in s_path.read_text().splitlines()

    def test_gain_study_cli_schema(self, tmp_path):
        out = tmp_path / "gs.csv"
        code = main(["gain-study", "--eps-list", "0.2", "--n-list", "60",
                     "--reps", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "eps,N,rep,mse"
        assert len(data) == 3

    def test_gain_study_rejects_unsupported_specs(self, capsys):
        assert main(["gain-study", "--density", "gauss", "--eps-list", "0.1"]) == 2
        assert main(["gain-study", "--h", "x^2", "--eps-list", "0.1"]) == 2
        capsys.readouterr()

    def test_filter_cli_kalman_matches_direct_call(self, tmp_path):
        out = tmp_path / "kf.csv"
        code = main(["filter", "--model", "static", "--method", "kalman",
                     "--d", "1", "--dt", "0.1", "--T", "0.5", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        model = make_static_param(1, 1.0, 1.0)
        rng = RngStream(5)
        _, obs = simulate_truth_and_observations(model, 0.1, 0.5, rng.substream(0))
        path = kalman_bucy_run(model, obs)
        assert float(rows[-1][1]) == pytest.approx(path.terminal.mean[0], rel=1e-15)
        assert float(rows[-1][2]) == pytest.approx(path.terminal.cov[0, 0], rel=1e-15)

    @pytest.mark.parametrize("method", ["fpf-const", "fpf-galerkin", "fpf-dm",
                                        "sir", "enkf-sqrt", "enkf-perturbed", "enkf-det"])
    def test_filter_cli_all_methods_run(self, tmp_path, method):
        out = tmp_path / f"{method}.csv"
        code = main(["filter", "--method", method, "--d", "1", "--n", "80",
                     "--dt", "0.1", "--T", "0.3", "--seed", "2", "--out", str(out)])
        assert code == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert data[0] == "t,m_0,s_0_0"
        assert len(data) == 1 + 4

    def test_static_update_cli(self, tmp_path):
        out = tmp_path / "post.csv"
        sample_out = tmp_path / "samples.csv"
        code = main([
            "static-update",
            "--cov-x", "[[1.0]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
            "--y", "[2.0]", "--method", "ot", "--samples", "50",
            "--sample-out", str(sample_out), "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = {(r.split(",")[0], r.split(",")[1], r.split(",")[2]): float(r.split(",")[3])
                for r in out.read_text().splitlines() if r and not r.startswith("#")
                and not r.startswith("entry")}
        assert rows[("mean", "0", "0")] == pytest.approx(1.0)
        assert rows[("cov", "0", "0")] == pytest.approx(0.5)
        samples = [ln for ln in sample_out.read_text().splitlines() if not ln.startswith("#")]
        assert samples[0] == "x_0"
        assert len(samples) == 51

    def test_static_update_samples_need_sample_out_before_writing(self, tmp_path, capsys):
        out = tmp_path / "post.csv"
        code = main([
            "static-update",
            "--cov-x", "[[1.0]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
            "--y", "[2.0]", "--samples", "50", "--out", str(out),
        ])
        assert code == 2
        assert "--sample-out" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_numeric_eps_runs(self, tmp_path):
        out = tmp_path / "dm.csv"
        code = main(["filter", "--method", "fpf-dm", "--eps", "0.1", "--d", "1",
                     "--n", "80", "--dt", "0.1", "--T", "0.3", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 4

    def test_filter_numeric_eps_from_config(self, tmp_path):
        cfg = tmp_path / "dm.ini"
        cfg.write_text("[run]\nmethod = fpf-dm\neps = 0.1\nn = 80\ndt = 0.1\nhorizon = 0.3\n")
        assert main(["filter", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("eps", ["banana", "0", "-0.5"])
    def test_filter_bad_eps_exits_2(self, tmp_path, capsys, eps):
        out = tmp_path / "dm.csv"
        code = main(["filter", "--method", "fpf-dm", "--eps", eps, "--d", "1",
                     "--n", "80", "--dt", "0.1", "--T", "0.3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "eps" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bench_levelsets_one_rep_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ls.csv"
        code = main(["bench", "--experiment", "mse-levelsets", "--reps", "1",
                     "--n-list", "20", "--d-list", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "reps" in err
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nexperiment = bias-variance\nreps = 2\n"
                       "n-list = [50]\neps-list = [0.2]\nseed = 1\n")
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
        # flag overrides the config seed
        assert main(["bench", "--config", str(cfg), "--seed", "2",
                     "--out", str(out2)]) == 0
        assert "seed = 1" in out1.read_text()
        assert "seed = 2" in out2.read_text()

    def test_unreadable_config_exits_2(self, capsys):
        assert main(["bench", "--config", "/nonexistent.ini"]) == 2
        assert "config" in capsys.readouterr().err

    def test_load_config_parses_json_values(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[a]\nn-list = [100, 200]\nname = hello\nsigma0 = 1.5\n")
        parsed = load_config(str(cfg))
        assert parsed["n_list"] == [100, 200]
        assert parsed["name"] == "hello"
        assert parsed["sigma0"] == 1.5

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cips.bench import (
    ResultTable,
    RunConfig,
    bench_bias_variance,
    bench_dual_enkf,
    bench_mse_levelsets,
    gain_study_table,
    static_fpf_mse,
    static_method_mse,
    static_pf_mse,
)
from cips import bench, cli
from cips.cli import load_config, main
from cips.core import RngStream
from cips.dual_enkf import run_dual_enkf
from cips.exceptions import ConfigError, FilterDivergenceError
from cips.kalman import kalman_bucy_run
from cips.linear_ensemble import linear_enkf_step
from cips.fpf import Ensemble
from cips.models import make_static_param, simulate_truth_and_observations
from cips.sir import modified_weights
from oracles import (
    modified_pf_conditional_moments,
    modified_pf_conditional_var,
    modified_pf_mse_exact,
)
from test_gain import traced_peak

# Rows of `cips bench --experiment mse-levelsets --d-list 1,2,3 --n-list 50
# --reps 20 --seed 7`, pinned from cells that formed (reps, N, d) temporaries
# and summed the FPF's initial mean row by row.
LEVELSETS_GOLDEN_ROWS = """\
pf,1,50,0.005951149798728711,0.0016781561929687394
pf,2,50,0.034239890630825671,0.01378354704981068
pf,3,50,0.013722710975825059,0.0038179819310855778
pf-modified,1,50,0.030703506014880439,0.0092692041663848153
pf-modified,2,50,0.0455859148390413,0.01785207040385467
pf-modified,3,50,0.076420943733215785,0.031058481208090679
fpf,1,50,0.0064797510963659332,0.0016079295421990132
fpf,2,50,0.007211322323811868,0.0020799358789296051
fpf,3,50,0.01722104089123053,0.004948293390813408
""".splitlines()


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

    @pytest.mark.parametrize("kwargs", [
        dict(experiment="mse-levelsets", dt=0.6),
        dict(experiment="mse-levelsets", dt=1e-320),
        dict(experiment="dual-enkf", horizon=1.0, dt=0.3),
        dict(experiment="dual-enkf", horizon=float("inf")),
    ])
    def test_step_count_checked_at_set_up(self, kwargs):
        with pytest.raises(ConfigError, match="multiple|finite"):
            RunConfig(**kwargs)

    def test_dual_enkf_needs_more_particles_than_d_in_every_cell(self):
        RunConfig(experiment="dual-enkf", n_list=(4, 10), d_list=(1, 3))
        for n_list, d_list in [((2,), (2,)), ((10, 3), (1, 3)), ((10,), (2, 10))]:
            with pytest.raises(ConfigError, match="particles"):
                RunConfig(experiment="dual-enkf", n_list=n_list, d_list=d_list)

    @pytest.mark.parametrize("field, value", [
        ("sigma0", float("nan")), ("sigma_w", 0.0), ("bimodal_sigma2", -1.0),
        ("eps_list", (0.1, float("inf"))), ("methods", ("pf", "zz")),
        ("sigma0", 1e200), ("sigma_w", 1e-200),
    ])
    def test_errors_name_the_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field}\b"):
            RunConfig(**{"experiment": "bias-variance", "eps_list": (0.1,), field: value})

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

    def test_conditional_var_batch_matches_node_loop(self):
        # reference: the per-point formula, called once per Gauss-Hermite node
        def per_point(z, s0, sw):
            m0, m1, m2 = modified_pf_conditional_moments(z, s0, sw)
            ratio1 = m1 / m0
            second = np.sum(m2 / m0) + np.sum(ratio1) ** 2 - np.sum(ratio1**2)
            gain = s0**2 / (s0**2 + sw**2)
            return np.prod(m0) * second / z.shape[0] - (gain * np.sum(z) / np.sqrt(z.shape[0])) ** 2

        from itertools import product as iproduct

        t_nodes, _ = np.polynomial.hermite_e.hermegauss(5)
        for d in range(1, 7):
            for s0, sw in ((1.0, 1.0), (0.7, 1.4)):
                combos = np.array(list(iproduct(range(5), repeat=d)))
                z = np.sqrt(s0**2 + sw**2) * t_nodes[combos]
                batch = modified_pf_conditional_var(z, s0, sw)
                loop = np.array([per_point(row, s0, sw) for row in z])
                assert batch.shape == (z.shape[0],)
                np.testing.assert_allclose(batch, loop, rtol=1e-12, atol=0)
                assert modified_pf_conditional_var(z[7 % len(z)], s0, sw) == batch[7 % len(z)]

    def test_weights_batch_matches_module_op(self):
        rng = RngStream(3)
        z = rng.standard_normal((5, 2))
        samples = rng.standard_normal((5, 50, 2))
        w = modified_weights(samples, z, 1.0, 1.0)
        for i in range(5):
            ref = float(modified_weights(samples[i], z[i], 1.0, 1.0) @ samples[i, :, 0])
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
                                       "sqrt", step)
            z1 = np.cumsum(obs.increments, axis=0)[-1]
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

    @pytest.mark.parametrize("method", ["pf", "pf-modified", "fpf"])
    @pytest.mark.parametrize("reps, kwargs", [(23, dict(chunk=5)), (300, {})],
                             ids=["chunk-5", "default-chunk"])
    @pytest.mark.parametrize("d", [1, 3, 8, 10])
    def test_replicate_blocks_change_no_bit(self, monkeypatch, d, reps, kwargs, method):
        # one replicate per block (1 entry), the default blocks, of which a
        # chunk holds several at N = 100 (and a last partial one), and one
        # block per chunk (2**40): the same draws and the same bits
        results = []
        for elems in (1, bench._BLOCK_ELEMS, 2**40):
            monkeypatch.setattr(bench, "_BLOCK_ELEMS", elems)
            if method == "fpf":
                results.append(static_fpf_mse(d, 100, reps, RngStream(d), **kwargs))
            else:
                results.append(static_pf_mse(d, 100, reps, RngStream(d),
                                             modified=method == "pf-modified", **kwargs))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("modified", [False, True], ids=["pf", "pf-modified"])
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_traced_peak_of_one_chunk(self, d, modified):
        # a 256-replicate chunk draws and weighs its particles in blocks of
        # about 2**14 entries, so its peak no longer grows with chunk N d;
        # the whole (chunk, N, d) draw alone would be about 2 MB at d = 1
        n, chunk = 1000, 256
        static_pf_mse(d, n, chunk, RngStream(8), modified=modified)
        with traced_peak() as peak:
            static_pf_mse(d, n, chunk, RngStream(8), modified=modified)
        assert peak[0] <= 2**20

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_traced_peak_of_fpf_cell(self, d):
        # three chunks of at most 128 replicates; each draw is reduced to its
        # moments block by block
        static_fpf_mse(d, 1000, 300, RngStream(8))
        with traced_peak() as peak:
            static_fpf_mse(d, 1000, 300, RngStream(8))
        assert peak[0] <= 2**20

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

    def test_import_leaves_the_pool_unloaded(self):
        # the process pool's module loads inside _map_ordered when jobs > 1,
        # not at start-up, where every command would pay for it
        script = "import sys, cips.cli; print('concurrent.futures.process' in sys.modules)"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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

    def test_levelsets_golden_rows(self, tmp_path):
        # the importance-sampling rows and the d = 1 FPF row keep every
        # byte; at d >= 2 the FPF's pairwise initial mean moves the last bits
        out = tmp_path / "levelsets.csv"
        assert main(["bench", "--experiment", "mse-levelsets", "--d-list", "1,2,3",
                     "--n-list", "50", "--reps", "20", "--seed", "7", "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "method,d,N,mse,stderr"
        assert len(rows[1:]) == len(LEVELSETS_GOLDEN_ROWS)
        for got, want in zip(rows[1:], LEVELSETS_GOLDEN_ROWS):
            if want.startswith("fpf,") and not want.startswith("fpf,1,"):
                assert got.split(",")[:3] == want.split(",")[:3]
                np.testing.assert_allclose([float(v) for v in got.split(",")[3:]],
                                           [float(v) for v in want.split(",")[3:]],
                                           rtol=1e-14, atol=0)
            else:
                assert got == want

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

    @pytest.mark.filterwarnings("error")
    def test_gain_study_huge_bandwidths_give_the_limit(self, tmp_path):
        # the kernel is exactly uniform from about eps = 1e17 here, and eps
        # enters nothing else: 1e200 and 1e300 overflow nothing and give the
        # rows of 1e50, the constant-gain limit
        mse = {}
        for eps in ("1e50", "1e200", "1e300"):
            out = tmp_path / f"{eps}.csv"
            assert main(["gain-study", "--eps-list", eps, "--n-list", "20", "--reps", "2",
                         "--out", str(out)]) == 0
            data = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
            assert data[0] == ["eps", "N", "rep", "mse"]
            mse[eps] = [row[3] for row in data[1:]]
        assert len(mse["1e50"]) == 2
        assert mse["1e200"] == mse["1e50"] and mse["1e300"] == mse["1e50"]

    def test_gain_study_rejects_unsupported_specs(self, capsys):
        for flag, value in (("--density", "gauss"), ("--h", "x^2")):
            with pytest.raises(SystemExit) as exc:
                main(["gain-study", flag, value, "--eps-list", "0.1"])
            assert exc.value.code == 2
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
        assert float(rows[-1][1]) == pytest.approx(path.final_state.mean[0], rel=1e-15)
        assert float(rows[-1][2]) == pytest.approx(path.final_state.cov[0, 0], rel=1e-15)

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

    @pytest.mark.parametrize("eps", ["banana", "0", "-0.5", "", "Auto", "-1", "nan", "inf",
                                     "true", "null", "[0.1]"])
    def test_filter_bad_eps_exits_2(self, tmp_path, capsys, eps):
        out = tmp_path / "dm.csv"
        code = main(["filter", "--method", "fpf-dm", "--eps", eps, "--d", "1",
                     "--n", "80", "--dt", "0.1", "--T", "0.3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "eps" in err
        assert "Traceback" not in err
        assert not out.exists()

    # Config values are parsed as JSON where they can be: 0 and -1 are
    # numbers, true a bool, null None and [0.1] a list; the rest stay strings.
    @pytest.mark.parametrize("eps", ["banana", "", "Auto", "0", "-1", "nan", "inf",
                                     "true", "null", "[0.1]"])
    def test_filter_bad_eps_in_config_exits_2(self, tmp_path, capsys, eps):
        cfg = tmp_path / "dm.ini"
        cfg.write_text(f"[run]\nmethod = fpf-dm\neps = {eps}\nn = 80\ndt = 0.1\nhorizon = 0.3\n")
        out = tmp_path / "dm.csv"
        code = main(["filter", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "eps" in err
        assert not out.exists()

    # the config value '" 2e-1 "' is the JSON string with its blanks; 3 an int
    @pytest.mark.parametrize("flag, config", [(" 2e-1 ", '" 2e-1 "'), ("3", "3")])
    def test_filter_numeric_eps_spellings_run(self, tmp_path, flag, config):
        cfg = tmp_path / "dm.ini"
        cfg.write_text(f"[run]\nmethod = fpf-dm\neps = {config}\nn = 80\ndt = 0.1\nhorizon = 0.3\n")
        out = tmp_path / "dm.csv"
        assert main(["filter", "--config", str(cfg), "--out", str(out)]) == 0
        by_flag = tmp_path / "flag.csv"
        assert main(["filter", "--method", "fpf-dm", "--eps", flag, "--n", "80", "--dt", "0.1",
                     "--T", "0.3", "--out", str(by_flag)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert data == [ln for ln in by_flag.read_text().splitlines() if not ln.startswith("#")]

    @pytest.mark.parametrize("argv", [
        ["filter", "--n", "1"],
        ["filter", "--method", "sir", "--n", "1"],
        ["filter", "--method", "enkf-det", "--n", "1"],
        ["filter", "--dt", "0"],
        ["filter", "--T", "0"],
        ["filter", "--d", "0"],
        ["filter", "--sigma-w", "0"],
        ["filter", "--sigma0", "-1"],
        ["lqr-solve", "--d", "2", "--n", "2"],
        ["lqr-solve", "--dt", "0"],
        ["lqr-solve", "--d", "0"],
        ["bench", "--experiment", "mse-levelsets", "--n-list", "10,x", "--reps", "2"],
        ["gain-study", "--eps-list", "0.1,abc"],
        ["filter", "--method", "kalman", "--T", "1e308"],
        ["lqr-solve", "--d", "2", "--n", "10", "--dt", "1e-320"],
        ["lqr-solve", "--d", "2", "--n", "10", "--T", "inf"],
        ["bench", "--experiment", "mse-levelsets", "--dt", "1e-320", "--d-list", "1",
         "--n-list", "10", "--reps", "2"],
        ["bench", "--experiment", "mse-levelsets", "--methods", "fpf", "--d-list", "1",
         "--n-list", "200", "--reps", "400", "--dt", "0.6"],
        ["bench", "--experiment", "dual-enkf", "--d-list", "2", "--n-list", "2",
         "--reps", "1", "--T", "0.1"],
        # fewer than one step: used to run no step and write one row at t = 0
        ["lqr-solve", "--d", "2", "--n", "10", "--T", "1e-10"],
        # 1e15 whole steps: the 7 PiB path is refused at once, nothing is allocated
        ["filter", "--method", "kalman", "--T", "1e15", "--dt", "1"],
        # nonfinite scales and bandwidths: NaN passes a "<= 0" check
        ["gain-study", "--eps-list", "nan", "--reps", "2", "--n-list", "20"],
        ["gain-study", "--eps-list", "inf", "--reps", "2", "--n-list", "20"],
        ["gain-study", "--sigma2", "nan", "--eps-list", "0.1", "--reps", "2", "--n-list", "20"],
        ["bench", "--experiment", "mse-levelsets", "--sigma-w", "nan", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        ["filter", "--method", "fpf-const", "--sigma0", "nan", "--n", "10", "--T", "0.04"],
        # static-update vectors: wrong length or nonfinite entries
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[1,2]"],
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[NaN]"],
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[1]", "--mean-x", "[Infinity]"],
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[1]", "--mean-y", "[0, 0]"],
        # a NaN step for an experiment that does not step: "<= 0" let it through
        ["bench", "--experiment", "bias-variance", "--dt", "nan", "--T", "nan",
         "--eps-list", "0.1", "--n-list", "20", "--reps", "2"],
        # the seed is checked before the first table is written
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[1]", "--samples", "3", "--sample-out", "s.csv", "--seed", "-1"],
        # a negative sample count used to draw nothing and exit 0
        ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
         "--y", "[1]", "--samples", "-3"],
        # no methods: used to write a header-only table and exit 0
        ["bench", "--experiment", "mse-levelsets", "--methods", "", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        # repeated entries: used to write rows whose keys repeat
        ["bench", "--experiment", "mse-levelsets", "--methods", "pf,pf", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        ["bench", "--experiment", "mse-levelsets", "--reps", "2", "--n-list", "20,20",
         "--d-list", "1"],
        ["bench", "--experiment", "mse-levelsets", "--reps", "2", "--n-list", "10",
         "--d-list", "1,2,1"],
        ["bench", "--experiment", "bias-variance", "--eps-list", "0.1,0.1", "--reps", "2",
         "--n-list", "20"],
        ["gain-study", "--eps-list", "0.1,0.1", "--reps", "2", "--n-list", "20"],
        # set-up failures found inside the run: used to end in a traceback
        ["gain-study", "--sigma2", "1e-5", "--eps-list", "0.5", "--n-list", "20", "--reps", "2"],
        ["bench", "--experiment", "bias-variance", "--bimodal-sigma2", "1e-5", "--eps-list",
         "0.5", "--n-list", "20", "--reps", "2"],
        ["bench", "--experiment", "dual-enkf", "--reps", "1", "--n-list", "10", "--d-list", "2",
         "--dt", "0.05", "--T", "1e100"],
        # noise scales whose squares underflow: used to fail in the first step
        ["filter", "--n", "20", "--dt", "0.05", "--T", "0.1", "--sigma-w", "1e-300"],
        ["filter", "--model", "static", "--d", "1", "--sigma-w", "1e-200", "--n", "20",
         "--dt", "0.05", "--T", "0.1", "--method", "sir"],
        ["bench", "--experiment", "mse-levelsets", "--sigma-w", "1e-300", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        ["bench", "--experiment", "mse-levelsets", "--sigma-w", "1e-200", "--reps", "2",
         "--n-list", "10", "--d-list", "1", "--methods", "fpf"],
        # and squares that overflow: used to end in an OverflowError traceback
        ["filter", "--n", "20", "--dt", "0.05", "--T", "0.1", "--sigma-w", "1e200"],
        ["filter", "--model", "static", "--d", "1", "--n", "20", "--dt", "0.05", "--T", "0.1",
         "--sigma0", "1e160"],
        ["bench", "--experiment", "mse-levelsets", "--sigma0", "1e200", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        ["bench", "--experiment", "mse-levelsets", "--sigma-w", "1e200", "--reps", "2",
         "--n-list", "10", "--d-list", "1"],
        # a joint covariance that is not positive semidefinite is an input, not a numeric failure
        ["static-update", "--cov-x", "[[0]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
         "--y", "[2.0]"],
        ["static-update", "--cov-x", "[[-1]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
         "--y", "[2.0]"],
        ["static-update", "--cov-x", "[[1.0]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[0]]",
         "--y", "[2.0]"],
        ["static-update", "--cov-x", "[[1.0]]", "--cov-xy", "[[1e100]]", "--cov-y", "[[2.0]]",
         "--y", "[2.0]"],
        # a cov_x the OT map cannot represent: used to write the moments and
        # then end in a LinAlgError or a nonfinite-value traceback
        ["static-update", "--cov-x", "[[0.0]]", "--cov-xy", "[[0.0]]", "--cov-y", "[[2.0]]",
         "--y", "[1.0]", "--samples", "3", "--sample-out", "{tmp}/s.csv"],
        ["static-update", "--cov-x", "[[1e200]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
         "--y", "[2.0]", "--samples", "2", "--sample-out", "{tmp}/s.csv"],
    ])
    def test_bad_sizes_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        code = main([arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()
        assert not any(tmp_path.iterdir())

    def test_commands_import_no_scipy(self, tmp_path):
        # scipy is a test dependency only: no subcommand may load it
        script = f"""
import sys
import cips
from cips.cli import main
out = {str(tmp_path)!r} + "/o.csv"
runs = [
    ["filter", "--method", "kalman", "--T", "0.1"],
    ["filter", "--method", "fpf-dm", "--n", "50", "--T", "0.04"],
    ["gain-study", "--eps-list", "0.5", "--n-list", "20", "--reps", "2"],
    ["lqr-solve", "--d", "2", "--n", "10", "--T", "0.1"],
    ["static-update", "--cov-x", "[[1]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[1]]",
     "--y", "[0.2]"],
    ["bench", "--experiment", "dual-enkf", "--d-list", "1", "--n-list", "5", "--reps", "1",
     "--T", "0.1"],
]
for argv in runs:
    assert main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("flags, expected", [
        # at this seed one particle is thrown far from the rest and has no
        # kernel mass left at t = 0.12; without the isolation guard it would
        # get a silent zero gain there, and from t = 0.16 the fixed point
        # would have no unique solution (a better bandwidth rule may let
        # this run through)
        (["--n", "1000", "--seed", "11"],
         ["gain computation failed at t=0.12:", "1 of 1000 particles isolated"]),
        # a bandwidth far below every nearest-neighbour distance isolates
        # every particle at the first step, whatever the bandwidth rule
        (["--eps", "1e-5", "--n", "50", "--seed", "0"],
         ["gain computation failed at t=0:", "50 of 50 particles isolated", "try eps around"]),
    ], ids=["auto-seed-11", "eps-1e-5"])
    def test_filter_dm_isolated_particle_exits_1(self, tmp_path, capsys, flags, expected):
        out = tmp_path / "dm.csv"
        code = main(["filter", "--model", "static", "--d", "2", "--method", "fpf-dm",
                     *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        for text in expected + ["nearest-neighbour"]:
            assert text in err
        assert "Singular matrix" not in err
        assert not out.exists()

    # the run's own overflows (the moments after the first step, a documented
    # numeric failure, and the next step's distances) are recorded and checked
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_filter_dm_overflowing_bandwidth_exits_1(self, tmp_path, capsys):
        # the first step throws the particles so far that the next step's
        # distances overflow: eps "auto" is inf and is refused before
        # d2 / -(4 eps) makes a NaN of inf / inf (the run named a split kernel graph)
        out = tmp_path / "dm.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["filter", "--method", "fpf-dm", "--sigma0", "1e100", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "median pair squared distance of the 1000 particles overflowed to inf" in err
        assert "splits into" not in err
        assert caught and all(str(w.message).startswith("overflow") for w in caught), caught
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

    def test_config_unknown_key_exits_2(self, tmp_path, capsys):
        # the flag is --T but its config key is "horizon"; "T" must not be
        # dropped in favour of the default horizon
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nmethod = kalman\nT = 0.3\n")
        out = tmp_path / "o.csv"
        code = main(["filter", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'t'" in err and "horizon" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sub, text, key", [
        ("bench", "experiment = mse-levelsets\nreps = abc\n", "reps"),
        ("lqr-solve", "oracle_only = False\n", "oracle_only"),
        ("lqr-solve", "oracle_only = 1\n", "oracle_only"),
        ("bench", "experiment = mse-levelsets\nreps = [1, 2]\n", "reps"),
        ("lqr-solve", "seed = null\n", "seed"),
        ("filter", "method = kalman\nn = 50.7\n", "n"),
        ("filter", "method = kalman\ndt = true\n", "dt"),
        ("bench", "experiment = mse-levelsets\nn_list = [100, null]\n", "n_list"),
        ("static-update", "cov_x = [[1.0]]\ncov_xy = [[0.5]]\ncov_y = [[1.0]]\n"
                          "y = [0.2]\nsamples = abc\n", "samples"),
        # a JSON bool used to be read as 1.0
        ("static-update", "cov_x = [[1.0]]\ncov_xy = [[0.5]]\ncov_y = [[1.0]]\ny = true\n", "y"),
        ("static-update", "cov_x = true\ncov_xy = [[0.5]]\ncov_y = [[1.0]]\ny = [0.2]\n", "cov_x"),
        ("static-update", "cov_x = [[1.0]]\ncov_xy = true\ncov_y = [[1.0]]\ny = [0.2]\n",
         "cov_xy"),
        ("static-update", "cov_x = [[1.0]]\ncov_xy = [[0.5]]\ncov_y = [[1.0]]\ny = [0.2]\n"
                          "mean_x = true\n", "mean_x"),
        ("bench", "experiment = mse-levelsets\nmethods = []\n", "methods"),
        ("bench", "experiment = mse-levelsets\nmethods = [\"fpf\", \"pf\", \"fpf\"]\n",
         "methods"),
        ("bench", "experiment = mse-levelsets\nn_list = [20, 20]\n", "n_list"),
        ("bench", "experiment = mse-levelsets\nd_list = [1, 1]\n", "d_list"),
        ("bench", "experiment = bias-variance\neps_list = [0.1, 0.1]\n", "eps_list"),
    ], ids=["bench-reps-abc", "lqr-oracle-only-False", "lqr-oracle-only-1",
            "bench-reps-list", "lqr-seed-null", "filter-n-fraction", "filter-dt-bool",
            "bench-n-list-null", "static-update-samples-abc", "static-update-y-bool",
            "static-update-cov-x-bool", "static-update-cov-xy-bool",
            "static-update-mean-x-bool", "bench-methods-empty", "bench-methods-repeated",
            "bench-n-list-repeated", "bench-d-list-repeated", "bench-eps-list-repeated"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, sub, text, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\n" + text)
        out = tmp_path / "o.csv"
        code = main([sub, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integral_config_numbers_accepted(self, tmp_path):
        # JSON reads 1e2 as a float; an integral float is a valid count
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nmethod = fpf-const\nn = 1e2\nhorizon = 0.1\n")
        out = tmp_path / "o.csv"
        assert main(["filter", "--config", str(cfg), "--out", str(out)]) == 0
        flag = tmp_path / "flag.csv"
        assert main(["filter", "--method", "fpf-const", "--n", "100", "--T", "0.1",
                     "--out", str(flag)]) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert data == [ln for ln in flag.read_text().splitlines() if not ln.startswith("#")]

    @pytest.mark.parametrize("text, argv, expected", [
        ("oracle_only = false\n", [], False),
        ("oracle_only = true\n", [], True),
        ("", ["--oracle-only"], True),
        ("", [], False),
    ], ids=["config-false", "config-true", "flag", "default"])
    def test_lqr_oracle_only_reads_json_bool_or_flag(self, tmp_path, monkeypatch,
                                                     text, argv, expected):
        import cips.cli

        seen = []

        def spy(lq, *args):
            seen.append(lq.A is None)
            return run_dual_enkf(lq, *args)

        monkeypatch.setattr(cips.cli, "run_dual_enkf", spy)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nd = 2\nn = 50\nhorizon = 0.1\n" + text)
        assert main(["lqr-solve", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
                    + argv) == 0
        assert seen == [expected]

    def test_readme_linear_model_config_runs(self, tmp_path):
        cfg = tmp_path / "model.ini"
        cfg.write_text(
            "[model]\nmodel = linear\n"
            "a_matrix = [[-1.0, 0.5], [-0.5, -1.0]]\nh_matrix = [[1.0, 0.0]]\n"
            "sigma_b = [[0.5, 0.0], [0.0, 0.5]]\nm0 = [1.0, -1.0]\n"
            "sigma0_matrix = [[1.0, 0.0], [0.0, 1.0]]\n"
        )
        out = tmp_path / "o.csv"
        code = main(["filter", "--config", str(cfg), "--method", "enkf-sqrt",
                     "--n", "50", "--T", "0.1", "--seed", "3", "--out", str(out)])
        assert code == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 6

    @pytest.mark.parametrize("sub", ["filter", "lqr-solve", "static-update"])
    def test_jobs_only_where_honoured(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cached_parser_runs_the_current_handler(self, monkeypatch):
        # the parser is built once per process; the handler is looked up at
        # each call, so a wrapped cmd_* (as the benchmark tracer installs) runs
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_filter", lambda args: seen.append(args.method) or [])
        assert main(["filter", "--method", "kalman"]) == 0
        assert seen == ["kalman"]

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


# A valid, quick config of each subcommand.  The filter one runs the linear
# model, so that d, sigma0, n and eps are keys the run ignores.
_BASE_CONFIGS = {
    "filter": dict(model="linear", method="kalman", horizon=0.04,
                   a_matrix=[[-1.0]], h_matrix=[[1.0]], sigma_b=[[0.5]], m0=[0.0],
                   sigma0_matrix=[[1.0]]),
    "gain-study": dict(eps_list=[0.5], n_list=[20], reps=1),
    "lqr-solve": dict(d=1, n=5, horizon=0.04),
    "static-update": dict(cov_x=[[1.0]], cov_xy=[[0.5]], cov_y=[[1.0]], y=[0.2]),
    "bench": dict(experiment="dual-enkf", d_list=[1], n_list=[5], reps=1, horizon=0.04),
}


# A quick run of each subcommand by flags, with {tmp} for a directory; the
# walk over flag values replaces one flag's value at a time.
_BASE_ARGV = {
    "filter": ["--n", "20", "--dt", "0.05", "--T", "0.1"],
    "gain-study": ["--eps-list", "0.5", "--n-list", "20", "--reps", "2"],
    "lqr-solve": ["--d", "2", "--n", "10", "--dt", "0.05", "--T", "0.2"],
    "static-update": ["--cov-x", "[[1.0]]", "--cov-xy", "[[1.0]]", "--cov-y", "[[2.0]]",
                      "--y", "[2.0]", "--samples", "2", "--sample-out", "{tmp}/s.csv"],
    "bench": ["--experiment", "dual-enkf", "--reps", "1", "--n-list", "10", "--d-list", "2",
              "--dt", "0.05", "--T", "0.2"],
}


def _config_text(config: dict) -> str:
    return "[run]\n" + "".join(f"{k} = {json.dumps(v)}\n" for k, v in config.items())


def _bad_values(kind) -> list[str]:
    """Config values, as written in the file, of the JSON types ``kind`` rejects."""
    if kind in (cli.INTS, cli.FLOATS, cli.STRS, cli.MATRIX):
        return ["null", "true", "zz", "[1, null]"]
    return ["[1, 2]", "null", "zz"] + ([] if kind is cli.BOOL else ["true"])


class TestOptionTables:
    @pytest.mark.parametrize("sub, opt", [(sub, opt) for sub, options in cli.OPTIONS.items()
                                          for opt in options],
                             ids=lambda v: getattr(v, "key", v))
    def test_every_option_rejects_wrong_json_types(self, tmp_path, capsys, sub, opt):
        # every declared key is read, also where the run then ignores it
        for bad in _bad_values(opt.kind):
            config = {k: v for k, v in _BASE_CONFIGS[sub].items() if k != opt.key}
            cfg = tmp_path / "run.ini"
            cfg.write_text(_config_text(config) + f"{opt.key} = {bad}\n")
            out = tmp_path / "o.csv"
            code = main([sub, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2, (bad, err)
            assert err.startswith("error:") and re.search(rf"\b{opt.key}\b", err), (bad, err)
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("sub, opt", [(sub, opt) for sub, options in cli.OPTIONS.items()
                                          for opt in options if opt.flag and opt.kind is not cli.BOOL
                                          and "choices" not in opt.kind[1]],
                             ids=lambda v: getattr(v, "key", v))
    # the values overflow on purpose; only the exit code is asked for
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_every_flag_value_exits_cleanly(self, tmp_path, capsys, sub, opt):
        # no value parses as an integer above 1 (int() refuses "1e200"), so
        # --jobs never starts a pool; 1e200 and 1e-200 are scales whose
        # squares overflow and underflow
        base = [arg.format(tmp=tmp_path) for arg in _BASE_ARGV[sub]]
        i = base.index(opt.flag) if opt.flag in base else len(base)
        out, samples = tmp_path / "o.csv", tmp_path / "s.csv"
        for value in ["nan", "inf", "-inf", "0", "-1", "1e100", "1e-300", "1e200", "1e-200"]:
            if opt.kind is cli.MATRIX:
                value = f"[[{value}]]" if opt.key.startswith("cov_") else f"[{value}]"
            argv = [sub, *base[:i], *base[i + 2:], f"{opt.flag}={value}", "--out", str(out)]
            out.unlink(missing_ok=True)
            samples.unlink(missing_ok=True)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the value
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (value, err)
            assert "Traceback" not in err
            assert code == 0 or not (out.exists() or samples.exists()), (value, err)

    @pytest.mark.parametrize("sub", list(_BASE_CONFIGS))
    def test_base_configs_run(self, tmp_path, sub):
        cfg = tmp_path / "run.ini"
        cfg.write_text(_config_text(_BASE_CONFIGS[sub]))
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0

    def test_flags_and_config_keys_unchanged(self):
        flags = {sub: sorted(opt.flag for opt in options if opt.flag)
                 for sub, options in cli.OPTIONS.items()}
        assert flags == {
            "filter": sorted(["--model", "--method", "--d", "--sigma0", "--sigma-w", "--n",
                              "--dt", "--T", "--seed", "--eps"]),
            "gain-study": sorted(["--sigma2", "--eps-list", "--n-list", "--reps", "--seed",
                                  "--jobs"]),
            "lqr-solve": sorted(["--d", "--n", "--dt", "--T", "--seed", "--oracle-only"]),
            "static-update": sorted(["--mean-x", "--mean-y", "--cov-x", "--cov-xy", "--cov-y",
                                     "--y", "--method", "--samples", "--seed"]),
            "bench": sorted(["--experiment", "--seed", "--reps", "--n-list", "--d-list",
                             "--eps-list", "--methods", "--sigma0", "--sigma-w", "--dt", "--T",
                             "--bimodal-sigma2", "--jobs"]),
        }
        for sub, options in cli.OPTIONS.items():
            by_flag = sorted("horizon" if f == "--T" else f[2:].replace("-", "_")
                             for f in flags[sub])
            config_only = ["a_matrix", "h_matrix", "m0", "sigma0_matrix", "sigma_b"]
            assert sorted(opt.key for opt in options) == sorted(
                by_flag + (config_only if sub == "filter" else []))


_SU_FLAGS = ["--cov-x", "[[1.0]]", "--cov-xy", "[[0.5]]", "--cov-y", "[[2.0]]", "--y", "[1.0]"]


def _must_not_run(args):
    raise AssertionError("the command ran")


# An output path that cannot be written ({dir} is a directory, {missing} is
# not there) names the path and exits 2 before the command runs, with no
# traceback and no file written.
@pytest.mark.parametrize("argv, path", [
    (["filter", "--n", "20", "--T", "0.1", "--out", "{missing}/x.csv"], "{missing}/x.csv"),
    (["bench", "--experiment", "dual-enkf", "--reps", "1", "--n-list", "5", "--d-list", "1",
      "--T", "0.1", "--out", "{dir}"], "{dir}"),
    (["lqr-solve", "--d", "1", "--n", "5", "--T", "0.1", "--out", "{dir}/g.csv",
      "--out-s", "{missing}/s.csv"], "{missing}/s.csv"),
    (["static-update", *_SU_FLAGS, "--samples", "3", "--sample-out", "{missing}/s.csv"],
     "{missing}/s.csv"),
], ids=["filter", "bench", "lqr-solve-out-s", "static-update-sample-out"])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv, path):
    names = {"dir": tmp_path, "missing": tmp_path / "missing"}
    argv = [arg.format(**names) for arg in argv]
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), _must_not_run)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path.format(**names)}: "), err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


# One table of a pair that cannot be written leaves the other unwritten too:
# lqr-solve's gains and covariances, static-update's moments and samples, and
# lqr-solve's derived <out>.s.csv.  Each is refused before the run.
@pytest.mark.parametrize("argv, path", [
    (["lqr-solve", "--d", "1", "--n", "5", "--T", "0.1", "--out", "{tmp}/g.csv",
      "--out-s", "{tmp}/missing/s.csv"], "{tmp}/missing/s.csv"),
    (["static-update", *_SU_FLAGS, "--out", "{tmp}/m.csv", "--samples", "3",
      "--sample-out", "{tmp}/missing/s.csv"], "{tmp}/missing/s.csv"),
    (["lqr-solve", "--d", "1", "--n", "5", "--T", "0.1", "--out", "{tmp}/g.csv"],
     "{tmp}/g.csv.s.csv"),
], ids=["lqr-solve-out-s", "static-update-sample-out", "lqr-solve-derived"])
def test_half_pair_writes_nothing(tmp_path, capsys, monkeypatch, argv, path):
    (tmp_path / "g.csv.s.csv").mkdir()  # a directory where the derived path points
    monkeypatch.setattr(cli, "run_dual_enkf", lambda *a, **k: pytest.fail("ran before the check"))
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path.format(tmp=tmp_path)}: "), err
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv.s.csv"]


# A ValueError or MemoryError anywhere in a command is a usage error, also
# while stepping; a NumericError is a numeric failure.  No table is written.
@pytest.mark.parametrize("raised, code, message", [
    (MemoryError("boom"), 2, "error: the configuration does not fit in memory: boom"),
    (ValueError("boom"), 2, "error: boom"),
    (FilterDivergenceError("boom"), 1, "numeric failure: boom"),
], ids=["MemoryError", "ValueError", "FilterDivergenceError"])
def test_step_errors_exit_codes(tmp_path, capsys, monkeypatch, raised, code, message):
    def step(*args, **kwargs):
        raise raised
    monkeypatch.setitem(cli.FILTER_METHODS, "fpf-const", (Ensemble, lambda model, eps: step))
    out = tmp_path / "o.csv"
    assert main(["filter", "--n", "20", "--T", "0.1", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


def test_unallocatable_gain_exits_2(tmp_path, capsys, monkeypatch):
    # a stub kernel that cannot be allocated, raised inside fpf_step: a usage
    # error (exit 2), not a numeric failure of the filter (exit 1)
    def diffusion_map_gain(particles, h_values, eps):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (31623, 31623)")
    monkeypatch.setattr(cli, "diffusion_map_gain", diffusion_map_gain)
    out = tmp_path / "o.csv"
    assert main(["filter", "--method", "fpf-dm", "--n", "20", "--T", "0.1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the configuration does not fit in memory: Unable to allocate "
                            "7.45 GiB for an array with shape (31623, 31623)\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("sub", list(_BASE_ARGV))
def test_stdout_is_the_written_file(tmp_path, capsys, sub):
    # one writer: the table printed without --out is, byte for byte, the
    # file written with it (for lqr-solve, the gain table)
    argv = [sub, *(arg.format(tmp=tmp_path) for arg in _BASE_ARGV[sub])]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


# The "#" header of one run of each subcommand, by flag and by config, as the
# CLI wrote it before its options were declared in tables.  The config hash
# is over the given values as strings, so "--sigma0 1" (a float from
# argparse) and "sigma0 = 1" (an int from JSON) hash differently.
@pytest.mark.parametrize("argv, config, header", [
    (["filter", "--method", "kalman", "--sigma0", "1", "--T", "0.1", "--seed", "3"], None,
     ("filter-kalman-v1", "3", "faa1af63a632495e")),
    (["filter"], "method = kalman\nsigma0 = 1\nhorizon = 0.1\nseed = 3\n",
     ("filter-kalman-v1", "3", "490f685e473000e3")),
    (["gain-study", "--eps-list", "0.5", "--n-list", "20", "--reps", "1", "--seed", "3"], None,
     ("gain-study-v1", "3", "9caf02e33d97f9d0")),
    (["gain-study"], "eps_list = [0.5]\nn_list = [20]\nreps = 1\nseed = 3\n",
     ("gain-study-v1", "3", "9caf02e33d97f9d0")),
    (["lqr-solve", "--d", "1", "--n", "5", "--T", "0.1", "--oracle-only"], None,
     ("lqr-gain-v1", "0", "1b9f94623eb0217e")),
    (["lqr-solve"], "d = 1\nn = 5\nhorizon = 0.1\noracle_only = true\n",
     ("lqr-gain-v1", "0", "1b9f94623eb0217e")),
    (["static-update"] + _SU_FLAGS + ["--seed", "2"], None,
     ("static-update-v1", "2", "42cef3591f2051d5")),
    (["static-update"], "cov_x = [[1.0]]\ncov_xy = [[0.5]]\ncov_y = [[2.0]]\ny = [1.0]\nseed = 2\n",
     ("static-update-v1", "2", "42cef3591f2051d5")),
    (["bench", "--experiment", "dual-enkf", "--d-list", "1", "--n-list", "5", "--reps", "1",
      "--T", "0.1", "--seed", "4"], None,
     ("dual-enkf-v1", "4", "82f26e3461309083")),
    (["bench"], "experiment = dual-enkf\nd_list = [1]\nn_list = [5]\nreps = 1\n"
                "horizon = 0.1\nseed = 4\n",
     ("dual-enkf-v1", "4", "82f26e3461309083")),
], ids=["filter-flag", "filter-config", "gain-study-flag", "gain-study-config",
        "lqr-solve-flag", "lqr-solve-config", "static-update-flag", "static-update-config",
        "bench-flag", "bench-config"])
def test_config_hash_pinned(tmp_path, argv, config, header):
    if config is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\n" + config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    schema, seed, config_hash = header
    assert [ln for ln in out.read_text().splitlines() if ln.startswith("#")] == [
        "# version = 0.1.0", f"# schema = {schema}", f"# seed = {seed}",
        f"# config = {config_hash}",
    ]

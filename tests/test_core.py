import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cips.core import (
    RngStream,
    empirical_moments,
    is_positive_definite,
    psd_factor,
    sample_gaussian,
    sym_sqrt,
    symmetrize,
)
from cips.exceptions import NotPositiveDefiniteError


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234).standard_normal(100)
        b = RngStream(1234).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(0).standard_normal(10)
        b = RngStream(1).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_substreams_are_independent_and_reproducible(self):
        root = RngStream(7)
        s0 = root.substream(0).standard_normal(50)
        s1 = root.substream(1).standard_normal(50)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, RngStream(7).substream(0).standard_normal(50))
        # nested paths are distinct from flat ones
        nested = RngStream(7).substream(0).substream(1).standard_normal(50)
        assert not np.array_equal(nested, s0)
        assert not np.array_equal(nested, s1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_keep_the_stream(self, clone):
        # the clone draws next what the original would have drawn next, and
        # derives the same substreams
        stream, expected = RngStream(3).substream(1), RngStream(3).substream(1)
        stream.standard_normal(4)
        expected.standard_normal(4)
        twin = clone(stream)
        assert (twin.seed, twin._path) == (3, (1,))
        assert np.array_equal(twin.standard_normal(5), expected.standard_normal(5))
        assert np.array_equal(twin.substream(2).standard_normal(5),
                              RngStream(3).substream(1).substream(2).standard_normal(5))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["deepcopy", "pickle"])
    def test_deep_clone_draws_independently(self, clone):
        stream = RngStream(3)
        twin = clone(stream)
        assert np.array_equal(twin.standard_normal(5), stream.standard_normal(5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=st.sampled_from([(1,), (3,), (2, 3)]), n=st.integers(2, 300),
       d=st.integers(1, 6), layout=st.sampled_from(["C", "F", "strided"]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_moments_are_each_ensembles_own(batch, n, d, layout, seed):
    # a batch of ensembles gives, bit for bit, the moments of each 2-D call
    gen = np.random.default_rng(seed)
    x = gen.uniform(-5.0, 5.0, d) + gen.uniform(0.1, 10.0) * gen.standard_normal(batch + (n, d))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros(batch + (2 * n, d + 1))
        wide[..., ::2, 1:] = x
        x = wide[..., ::2, 1:]
    mean, cov = empirical_moments(x)
    assert mean.shape == batch + (d,) and cov.shape == batch + (d, d)
    for idx in np.ndindex(*batch):
        one_mean, one_cov = empirical_moments(np.array(x[idx]))
        assert np.array_equal(mean[idx], one_mean)
        assert np.array_equal(cov[idx], one_cov)


class TestSampleGaussian:
    def test_zero_covariance_returns_exact_mean(self):
        out = sample_gaussian(RngStream(0), np.zeros(2), np.zeros((2, 2)))
        assert np.array_equal(out, np.zeros(2))

    def test_degenerate_diagonal_returns_mean(self):
        out = sample_gaussian(RngStream(3), np.array([1.0, 2.0]), np.diag([0.0, 0.0]))
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_clt_bound_standard_normal(self):
        # mean over 1e6 draws within 4/sqrt(1e6) of 0
        draws = sample_gaussian(RngStream(11), np.zeros(1), np.eye(1), size=1_000_000)
        assert abs(draws.mean()) < 4.0 / np.sqrt(1e6)

    def test_covariance_is_respected(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        draws = sample_gaussian(RngStream(5), np.zeros(2), cov, size=200_000)
        emp = np.cov(draws.T)
        assert np.abs(emp - cov).max() < 0.03

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sample_gaussian(RngStream(0), np.zeros(3), np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.0, -1e-5])
        with pytest.raises(NotPositiveDefiniteError):
            sample_gaussian(RngStream(0), np.zeros(2), bad)

    def test_roundoff_negative_eigenvalue_clipped(self):
        # eigenvalue in [-1e-10 * trace, 0) must be repaired, not rejected
        eps = -0.5e-10
        cov = np.diag([1.0, eps])
        out = sample_gaussian(RngStream(2), np.zeros(2), cov)
        assert np.all(np.isfinite(out))
        assert out[1] == 0.0


class TestSymSqrt:
    def test_identity(self):
        assert np.array_equal(sym_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        root = sym_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-14)

    def test_dense_residual(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = sym_sqrt(mat)
        assert np.linalg.norm(root @ root - mat, "fro") <= 1e-12

    def test_round_trip_random_spd(self):
        rng = RngStream(17)
        for k in range(20):
            g = rng.standard_normal((4, 4))
            root_true = symmetrize(g @ g.T + 0.5 * np.eye(4), rtol=1e-9)
            rebuilt = sym_sqrt(root_true @ root_true)
            scale = np.abs(root_true).max()
            assert np.abs(rebuilt - root_true).max() <= 1e-10 * scale

    def test_negative_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            sym_sqrt(np.diag([1.0, -0.1]))


class TestSymmetrize:
    def test_rejects_asymmetric(self):
        mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(mat)

    def test_accepts_roundoff_asymmetry(self):
        mat = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        out = symmetrize(mat)
        assert np.array_equal(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


def test_psd_factor_matches_covariance():
    rng = RngStream(23)
    g = rng.standard_normal((3, 3))
    cov = g @ g.T
    fac = psd_factor(cov)
    assert np.allclose(fac @ fac.T, cov, atol=1e-12)
    # semidefinite case falls back to the eigen factor
    semi = np.diag([1.0, 0.0])
    fac = psd_factor(semi)
    assert np.allclose(fac @ fac.T, semi, atol=1e-14)


def test_is_positive_definite():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.diag([1.0, 0.0]))

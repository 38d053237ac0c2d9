import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from varfsv.bandlin import BandCholeskyFactor, BandSymMatrix, GaussianInPrecisionForm
from varfsv.exceptions import DimensionMismatchError, NotPositiveDefiniteError
from varfsv.intlike import _add_period_blocks

TRIDIAG = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def random_spd_band(rng, dim, bw):
    a = np.zeros((dim, dim))
    for d in range(bw + 1):
        vals = rng.standard_normal(dim - d)
        idx = np.arange(dim - d)
        a[idx + d, idx] = vals
        a[idx, idx + d] = vals
    # diagonal dominance keeps it SPD
    a[np.diag_indices(dim)] = np.abs(a).sum(axis=1) + 1.0
    return a


def test_identity_cholesky_and_logdet():
    m = BandSymMatrix(np.ones((1, 3)))
    f = m.cholesky()
    assert np.allclose(f.bands, np.ones((1, 3)))
    assert f.log_det == pytest.approx(0.0, abs=1e-15)


def test_tridiagonal_logdet_matches_dense_determinant():
    m = BandSymMatrix.from_dense(TRIDIAG)
    assert m.bandwidth == 1
    # dense oracle: det([[2,-1,0],[-1,2,-1],[0,-1,2]]) = 4
    assert np.linalg.det(TRIDIAG) == pytest.approx(4.0)
    assert m.cholesky().log_det == pytest.approx(np.log(4.0), abs=1e-14)


def test_band_cholesky_matches_dense_cholesky():
    rng = np.random.default_rng(7)
    a = random_spd_band(rng, 50, 6)
    f = BandSymMatrix.from_dense(a).cholesky()
    dense = np.linalg.cholesky(a)
    for d in range(f.bandwidth + 1):
        assert np.max(np.abs(f.bands[d, : 50 - d] - np.diagonal(dense, -d))) <= 1e-12


def test_not_positive_definite_raises():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(NotPositiveDefiniteError):
        BandSymMatrix.from_dense(a).cholesky()


def test_band_solve_identity_returns_rhs():
    f = BandSymMatrix(np.ones((1, 4))).cholesky()
    b = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.allclose(f.solve(b), b)


def test_band_solve_tridiagonal_example():
    f = BandSymMatrix.from_dense(TRIDIAG).cholesky()
    x = f.solve(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(x, [0.75, 0.5, 0.25], atol=1e-14)


def test_band_solve_residual_random():
    rng = np.random.default_rng(11)
    a = random_spd_band(rng, 30, 4)
    m = BandSymMatrix.from_dense(a)
    b = rng.standard_normal(30)
    x = m.cholesky().solve(b)
    assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))


def test_solve_dimension_mismatch():
    f = BandSymMatrix.from_dense(TRIDIAG).cholesky()
    with pytest.raises(DimensionMismatchError):
        f.solve(np.ones(4))


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    a = random_spd_band(rng, 17, 3)
    m = BandSymMatrix.from_dense(a)
    x = rng.standard_normal(17)
    assert np.allclose(m.matvec(x), a @ x)
    xs = rng.standard_normal((5, 17))
    assert np.allclose(m.matvec(xs), xs @ a.T)


def test_period_blocks_widen_a_diagonal_matrix():
    # blocks wider than the band: the bands grow to the block side
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((4, 3, 3))
    blocks = blocks + blocks.transpose(0, 2, 1)
    m = _add_period_blocks(BandSymMatrix(np.zeros((1, 12))), blocks)
    assert m.bandwidth == 2
    dense = np.zeros((12, 12))
    for t in range(4):
        dense[3 * t : 3 * t + 3, 3 * t : 3 * t + 3] = blocks[t]
    assert np.allclose(m.to_dense(), dense)


def test_period_blocks_inside_a_wider_band():
    # blocks narrower than the band: the bands beyond the blocks are kept
    rng = np.random.default_rng(9)
    a = random_spd_band(rng, 10, 3)
    blocks = rng.standard_normal((5, 2, 2))
    blocks = blocks + blocks.transpose(0, 2, 1)
    m = _add_period_blocks(BandSymMatrix.from_dense(a), blocks)
    assert m.bandwidth == 3
    assert np.allclose(m.to_dense(), a + scipy.linalg.block_diag(*blocks))


def test_precision_sample_standard_normal_mean():
    g = GaussianInPrecisionForm(np.zeros(3), BandSymMatrix(np.ones((1, 3))))
    rng = np.random.default_rng(0)
    draws = g.sample(rng, size=100_000)
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(100_000))


def test_precision_sample_covariance_matches_dense_inverse():
    rng = np.random.default_rng(21)
    a = random_spd_band(rng, 4, 1)
    g = GaussianInPrecisionForm(np.zeros(4), BandSymMatrix.from_dense(a))
    draws = g.sample(np.random.default_rng(1), size=100_000)
    cov = np.cov(draws.T)
    assert np.max(np.abs(cov - np.linalg.inv(a))) < 0.02


def test_precision_sample_deterministic_given_seed():
    m = BandSymMatrix.from_dense(TRIDIAG)
    g = GaussianInPrecisionForm(np.arange(3.0), m)
    x1 = g.sample(np.random.default_rng(42))
    x2 = g.sample(np.random.default_rng(42))
    assert np.array_equal(x1, x2)


@pytest.mark.parametrize("size", [None, 1, 500])
def test_sample_with_logpdf_matches_sample_and_logpdf(size):
    rng = np.random.default_rng(23)
    a = random_spd_band(rng, 30, 3)
    g = GaussianInPrecisionForm(rng.standard_normal(30), BandSymMatrix.from_dense(a))
    x, logq = g.sample_with_logpdf(np.random.default_rng(5), size)
    assert np.array_equal(x, g.sample(np.random.default_rng(5), size))
    # the stream is used as one (dim, size) block of standard normals
    z = np.random.default_rng(5).standard_normal(30 if size is None else (30, size))
    want = g.mean + g.factor.solve_upper(z).T
    assert np.array_equal(x, want)
    assert logq.shape == (() if size is None else (size,))
    assert np.all(np.abs(logq - g.logpdf(x)) <= 1e-10 * np.abs(g.logpdf(x)))


def test_log_density_standard_normal_at_zero():
    g = GaussianInPrecisionForm(np.zeros(1), BandSymMatrix(np.ones((1, 1))))
    assert g.logpdf(np.zeros(1)) == pytest.approx(-0.5 * np.log(2 * np.pi))


def test_log_density_diagonal_closed_form():
    g = GaussianInPrecisionForm(
        np.array([1.0, -2.0]), BandSymMatrix(np.full((1, 2), 4.0))
    )
    # at the mean: -log(2*pi) + 0.5*log(16)
    assert g.logpdf(np.array([1.0, -2.0])) == pytest.approx(
        -np.log(2 * np.pi) + 0.5 * np.log(16.0)
    )


def test_log_density_matches_dense_oracle():
    rng = np.random.default_rng(31)
    a = random_spd_band(rng, 20, 5)
    mean = rng.standard_normal(20)
    g = GaussianInPrecisionForm(mean, BandSymMatrix.from_dense(a))
    x = rng.standard_normal(20)
    cov = np.linalg.inv(a)
    want = (
        -10.0 * np.log(2 * np.pi)
        - 0.5 * np.linalg.slogdet(cov)[1]
        - 0.5 * (x - mean) @ a @ (x - mean)
    )
    assert abs(g.logpdf(x) - want) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 4), st.randoms(use_true_random=False))
def test_density_invariant_under_coordinate_permutation(dim, bw, pyrandom):
    bw = min(bw, dim - 1)
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    a = random_spd_band(rng, dim, bw)
    mean = rng.standard_normal(dim)
    x = rng.standard_normal(dim)
    perm = rng.permutation(dim)
    g = GaussianInPrecisionForm(mean, BandSymMatrix.from_dense(a))
    ap = a[np.ix_(perm, perm)]
    # permuted precision generally has wider bands; from_dense re-infers it
    gp = GaussianInPrecisionForm(mean[perm], BandSymMatrix.from_dense(ap, dim - 1))
    assert abs(g.logpdf(x) - gp.logpdf(x[perm])) <= 1e-12 * max(1.0, abs(g.logpdf(x)))


def test_no_dense_allocation_for_large_dim():
    # dim 2e4 dense would be 3.2 GB; banded ops must stay O(dim * bandwidth)
    dim = 20_000
    bands = np.zeros((2, dim))
    bands[0] = 2.0
    bands[1, : dim - 1] = -0.9
    m = BandSymMatrix(bands)
    g = GaussianInPrecisionForm(np.zeros(dim), m)
    x = g.sample(np.random.default_rng(0))
    assert x.shape == (dim,)
    assert np.isfinite(g.logpdf(x))


@pytest.mark.parametrize("k", [None, 1, 7])
@pytest.mark.parametrize(
    "dim, bw",
    # bandwidth 0 and 5 (blocks of the smallest side), 23 (blocks of the
    # bandwidth); dims that fill whole blocks, fewer than one, and one more
    [(1, 0), (9, 0), (16, 5), (17, 5), (4, 3), (46, 23), (47, 23), (70, 23)],
)
def test_solve_upper_matches_dense_triangular_solve(dim, bw, k):
    rng = np.random.default_rng(dim + bw)
    g = _band_factor(rng, dim, bw)
    f = BandSymMatrix.from_dense(g @ g.T, bw).cholesky()
    rhs = rng.standard_normal(dim if k is None else (dim, k))
    _rel_close(f.solve_upper(rhs), scipy.linalg.solve_triangular(g.T, rhs, lower=False))


def test_factor_solve_upper_is_transpose_solve():
    rng = np.random.default_rng(13)
    a = random_spd_band(rng, 15, 2)
    f = BandSymMatrix.from_dense(a).cholesky()
    dense = np.linalg.cholesky(a)
    z = rng.standard_normal(15)
    assert np.allclose(f.solve_upper(z), np.linalg.solve(dense.T, z), atol=1e-12)


def _rel_close(got, want, rtol=1e-10):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * max(
        1.0, np.max(np.abs(want), initial=0.0)
    )


def _band_factor(rng, dim, bw):
    """Dense lower-banded G with a positive diagonal, well conditioned."""
    g = np.diag(1.0 + rng.uniform(size=dim))
    for d in range(1, bw + 1):
        idx = np.arange(dim - d)
        g[idx + d, idx] = rng.standard_normal(dim - d) / (bw + 1)
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.data())
def test_band_routines_match_dense_algebra(dim, data):
    bw = data.draw(st.integers(0, min(dim - 1, 6)), label="bandwidth")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = _band_factor(rng, dim, bw)
    a = g @ g.T
    m = BandSymMatrix.from_dense(a, bw)
    f = m.cholesky()

    dense_chol = np.linalg.cholesky(a)
    for d in range(bw + 1):
        _rel_close(f.bands[d, : dim - d], np.diagonal(dense_chol, -d))
    _rel_close(f.log_det, np.linalg.slogdet(a)[1])

    b = rng.standard_normal(dim)
    bmat = rng.standard_normal((dim, 3))
    _rel_close(f.solve(b), np.linalg.solve(a, b))
    _rel_close(f.solve(bmat), np.linalg.solve(a, bmat))
    _rel_close(f.solve_upper(b), np.linalg.solve(dense_chol.T, b))
    _rel_close(f.solve_upper(bmat), np.linalg.solve(dense_chol.T, bmat))

    xs = rng.standard_normal((4, dim))
    _rel_close(m.matvec(xs[0]), a @ xs[0])
    _rel_close(m.matvec(xs), xs @ a)

    # per-period blocks of any side that tiles dim, narrower or wider than the band
    side = data.draw(st.sampled_from([s for s in range(1, dim + 1) if dim % s == 0]))
    blocks = rng.standard_normal((dim // side, side, side))
    blocks = blocks + blocks.transpose(0, 2, 1)
    _rel_close(
        _add_period_blocks(m, blocks).to_dense(), a + scipy.linalg.block_diag(*blocks)
    )

    mean = rng.standard_normal(dim)
    draws, logq = GaussianInPrecisionForm(mean, m).sample_with_logpdf(rng, 5)
    want = stats.multivariate_normal(mean, np.linalg.inv(a)).logpdf(draws)
    _rel_close(logq, np.atleast_1d(want))

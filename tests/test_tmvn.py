import numpy as np
import pytest
from scipy import stats

from varfsv.tmvn import TruncatedMVN, gibbs_sample_box, ln_normal_prob, trandn, trandn_one


def one_row(mean, root, lb, ub):
    """A sampler holding one row, as for a single sign-restricted equation."""
    return TruncatedMVN(*(np.asarray(a, dtype=float)[None] for a in (mean, root, lb, ub)))


def draw(tm, rng, **kwargs):
    """The one row's draw from `rng`, or None when no proposal was inside."""
    x, _ = tm.sample_one([rng], **kwargs)
    return None if np.isnan(x[0, 0]) else x[0]


def test_ln_normal_prob_matches_scipy():
    a = np.array([-np.inf, -1.0, 0.0, 2.0, 5.0, -np.inf])
    b = np.array([np.inf, 1.0, np.inf, 3.0, 7.0, -4.0])
    want = np.log(stats.norm.cdf(b) - stats.norm.cdf(a))
    assert np.allclose(ln_normal_prob(a, b), want, rtol=1e-10)


def test_trandn_half_normal_moments():
    rng = np.random.default_rng(0)
    x = trandn(rng, np.zeros(200_000), np.full(200_000, np.inf))
    assert np.all(x > 0)
    assert x.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.005)


def test_trandn_far_tail():
    rng = np.random.default_rng(1)
    x = trandn(rng, np.full(50_000, 6.0), np.full(50_000, np.inf))
    assert np.all(x > 6.0)
    # conditional mean of the tail: phi(6)/Phibar(6) ~ 6.158
    want = stats.norm.pdf(6.0) / stats.norm.sf(6.0)
    assert x.mean() == pytest.approx(want, abs=0.01)


@pytest.mark.parametrize(
    "lb, ub",
    [
        (1.2, np.inf), (0.9, 1.4), (6.0, np.inf),     # right tail
        (-np.inf, -0.8), (-2.5, -0.7),                # left tail
        (-0.5, 1.0), (0.2, 0.6),                      # narrow centre
        (-1.5, 2.0), (-0.3, np.inf), (-np.inf, np.inf),  # wide centre
    ],
)
def test_trandn_one_matches_trandn_draw_for_draw(lb, ub):
    # the same value and the same stream position afterwards, seed by seed,
    # through the rejection loops of the tail and the wide centre too
    for seed in range(500):
        one, arr = np.random.default_rng(seed), np.random.default_rng(seed)
        assert trandn_one(one, lb, ub) == trandn(arr, np.array([lb]), np.array([ub]))[0]
        assert one.random() == arr.random()


def test_univariate_positive_truncation():
    tm = one_row(np.zeros(1), np.linalg.cholesky(np.ones((1, 1))), np.zeros(1),
                 np.full(1, np.inf))
    rng = np.random.default_rng(2)
    draws = np.concatenate([draw(tm, rng) for _ in range(100_000)])
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)


def test_correlated_orthant_matches_rejection_oracle():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    mean = np.array([0.3, -0.2])
    lb = np.array([0.0, -np.inf])
    ub = np.array([np.inf, 0.0])
    tm = one_row(mean, np.linalg.cholesky(cov), lb.copy(), ub.copy())
    rng = np.random.default_rng(3)
    draws = np.array([draw(tm, rng) for _ in range(40_000)])
    assert np.all(draws[:, 0] > 0) and np.all(draws[:, 1] < 0)

    # brute-force rejection oracle
    rng2 = np.random.default_rng(4)
    raw = rng2.multivariate_normal(mean, cov, size=400_000)
    keep = raw[(raw[:, 0] > 0) & (raw[:, 1] < 0)]
    assert np.allclose(draws.mean(axis=0), keep.mean(axis=0), atol=0.02)
    assert np.allclose(np.cov(draws.T), np.cov(keep.T), atol=0.04)


def test_low_probability_orthant_returns_none():
    # region roughly 4 sigma out in each of 3 coordinates: a batch of plain
    # proposals essentially never hits it, and the caller falls back to Gibbs
    mean = np.array([-4.0, -4.0, -4.0])
    tm = one_row(mean, np.linalg.cholesky(np.eye(3)), np.zeros(3), np.full(3, np.inf))
    rng = np.random.default_rng(5)
    assert tm.ready
    assert draw(tm, rng) is None


def test_non_finite_root_not_ready():
    # a precision whose triangular solve overflowed leaves inf or nan in
    # the root; the caller then takes the box-Gibbs fallback
    for bad in (np.nan, np.inf):
        root = np.array([[1.0, 0.0], [bad, 1.0]])
        tm = one_row(np.zeros(2), root, np.zeros(2), np.full(2, np.inf))
        assert not tm.ready
        assert draw(tm, np.random.default_rng(9)) is None


def _count_proposals(monkeypatch):
    """Wrap `TruncatedMVN._propose`; returns the list of the `n` of each call."""
    sizes = []
    propose = TruncatedMVN._propose

    def counting(self, rngs, n, rows):
        sizes.append(n)
        return propose(self, rngs, n, rows)

    monkeypatch.setattr(TruncatedMVN, "_propose", counting)
    return sizes


def test_half_accepted_orthant_uses_both_paths_and_matches_oracle(monkeypatch):
    # the positive quadrant holds about 37% of this normal, so the single
    # first proposal misses often enough for the batch to run too
    cov = np.array([[1.0, 0.5], [0.5, 1.5]])
    mean = np.array([0.2, 0.1])
    lb, ub = np.zeros(2), np.full(2, np.inf)
    tm = one_row(mean, np.linalg.cholesky(cov), lb, ub)
    sizes = _count_proposals(monkeypatch)
    rng = np.random.default_rng(10)
    draws = np.array([draw(tm, rng) for _ in range(40_000)])
    assert np.all(draws > 0)
    # every call proposes one point, and a batch of 99 only after a miss
    batches = sizes.count(99)
    assert sizes.count(1) == len(draws)
    assert len(sizes) == len(draws) + batches
    assert 0.3 < 1.0 - batches / len(draws) < 0.6

    rng2 = np.random.default_rng(11)
    raw = rng2.multivariate_normal(mean, cov, size=400_000)
    keep = raw[(raw > 0).all(axis=1)]
    assert np.allclose(draws.mean(axis=0), keep.mean(axis=0), atol=0.02)
    assert np.allclose(np.cov(draws.T), np.cov(keep.T), atol=0.04)


@pytest.mark.parametrize("max_proposals", [0, 1, 2, 5, 100])
def test_sample_one_never_exceeds_max_proposals(monkeypatch, max_proposals):
    # one orthant that is rarely hit and one that is hit half the time
    sizes = _count_proposals(monkeypatch)
    rng = np.random.default_rng(12)
    for mean in (np.full(3, -1.5), np.zeros(1)):
        tm = one_row(mean, np.eye(len(mean)), np.zeros(len(mean)),
                     np.full(len(mean), np.inf))
        for _ in range(200):
            sizes.clear()
            draw(tm, rng, max_proposals=max_proposals)
            assert sum(sizes) <= max_proposals


def test_gibbs_sample_box_moments():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    prec = np.linalg.inv(cov)
    lb = np.zeros(2)
    ub = np.full(2, np.inf)
    rng = np.random.default_rng(6)
    x = np.array([0.5, 0.5])
    draws = []
    for _ in range(30_000):
        x = gibbs_sample_box(rng, np.zeros(2), prec, lb, ub, x, sweeps=2)
        draws.append(x)
    draws = np.array(draws)
    rng2 = np.random.default_rng(7)
    raw = rng2.multivariate_normal(np.zeros(2), cov, size=400_000)
    keep = raw[(raw > 0).all(axis=1)]
    assert np.allclose(draws.mean(axis=0), keep.mean(axis=0), atol=0.02)


def test_sample_one_exhausts_proposals_gracefully():
    tm = one_row(np.zeros(2), np.eye(2), np.zeros(2), np.full(2, np.inf))
    rng = np.random.default_rng(8)
    # with max_proposals=0 nothing can be accepted
    assert draw(tm, rng, max_proposals=0) is None

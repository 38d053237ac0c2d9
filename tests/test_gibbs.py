import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from varfsv import gibbs, model, simulate
from varfsv.exceptions import ConfigError, NotPositiveDefiniteError, NumericalError
from varfsv.model import FREE, NEG, POS, ZERO, ModelSpec, ParamDraw, Permutation, SignMatrix


def tiny_spec(rng, n=2, p=1, r=1, T=20, signs=None):
    data = rng.standard_normal((T + p, n))
    y, x = model.build_lagged(data, p)
    priors = model.default_priors(data, n, p, r)
    signs = signs if signs is not None else SignMatrix.all_free(n, r)
    spec = ModelSpec(n=n, p=p, r=r, T=T, priors=priors, signs=signs)
    return y, x, spec


def volatility_scans(z, h, mu, phi, sig2, rng, scans):
    """`scans` volatility-block scans of the single series z from the path h,
    through the stacked sampler with (T, 1) inputs."""
    ystar = np.log(z**2 + gibbs.LOG_SQUARE_OFFSET)[:, None]
    h = h[:, None]
    for _ in range(scans):
        h = gibbs._stacked_sv_draw(
            ystar, h, np.array([mu]), np.array([phi]), np.array([sig2]), rng
        )
    return h[:, 0]


class TestSampleFactors:
    def test_zero_loadings_draws_from_prior(self):
        rng = np.random.default_rng(0)
        T, n, r = 4, 2, 1
        draw = ParamDraw(
            beta=np.zeros(n * (n + 1)), load=np.zeros((n, r)), mu=np.zeros(n),
            phi=np.full(n + r, 0.5), sig2=np.full(n + r, 0.1),
        )
        h = np.zeros((T, n + r))
        h[:, n:] = np.log(np.array([[0.5], [1.0], [2.0], [4.0]]))
        y = rng.standard_normal((T, n))
        x = np.column_stack([np.ones(T), rng.standard_normal((T, n))])
        draws = np.array(
            [gibbs.sample_factors(y, x, draw, h, rng) for _ in range(20_000)]
        )
        var = draws.var(axis=0)[:, 0]
        want = np.array([0.5, 1.0, 2.0, 4.0])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.05)
        assert np.allclose(var, want, rtol=0.06)

    def test_single_period_closed_form_moments(self):
        rng = np.random.default_rng(1)
        n, r = 2, 1
        load = np.array([[1.5], [-0.7]])
        hy = np.array([0.3, -0.4])
        hf = np.array([0.2])
        draw = ParamDraw(
            beta=np.zeros(n * (n + 1)), load=load, mu=np.zeros(n),
            phi=np.full(3, 0.5), sig2=np.full(3, 0.1),
        )
        y = np.array([[0.8, -0.3]])
        x = np.zeros((1, n + 1))
        h = np.concatenate([hy, hf])[None, :]
        prec = np.exp(-hf[0]) + (load[:, 0] ** 2 * np.exp(-hy)).sum()
        mean = (load[:, 0] * np.exp(-hy) * y[0]).sum() / prec
        draws = np.array(
            [gibbs.sample_factors(y, x, draw, h, rng)[0, 0] for _ in range(20_000)]
        )
        mcse = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - mean) < 3 * mcse
        assert draws.var() == pytest.approx(1.0 / prec, rel=0.06)

    @pytest.mark.parametrize("r", [1, 3])
    def test_draw_uses_time_major_normals(self, r):
        # f_t = K_t^{-1} b_t + chol(K_t)'^{-1} z_t, z the (T, r) normals of
        # an identically seeded generator
        rng = np.random.default_rng(4)
        T, n = 5, 4
        draw = ParamDraw(
            beta=0.2 * rng.standard_normal(n * (n + 1)),
            load=rng.standard_normal((n, r)), mu=np.zeros(n),
            phi=np.full(n + r, 0.5), sig2=np.full(n + r, 0.1),
        )
        y = rng.standard_normal((T, n))
        x = np.column_stack([np.ones(T), rng.standard_normal((T, n))])
        h = 0.5 * rng.standard_normal((T, n + r))
        got = gibbs.sample_factors(y, x, draw, h, np.random.default_rng(7))
        z = np.random.default_rng(7).standard_normal((T, r))
        eps = y - x @ draw.beta_matrix().T
        for t in range(T):
            sinv = np.diag(np.exp(-h[t, :n]))
            k = draw.load.T @ sinv @ draw.load + np.diag(np.exp(-h[t, n:]))
            b = draw.load.T @ sinv @ eps[t]
            noise = np.linalg.solve(np.linalg.cholesky(k).T, z[t])
            want = np.linalg.solve(k, b) + noise
            assert np.allclose(got[t], want, rtol=0, atol=1e-12)

    def test_r0_returns_empty(self):
        draw = ParamDraw(
            beta=np.zeros(6), load=np.zeros((2, 0)), mu=np.zeros(2),
            phi=np.full(2, 0.5), sig2=np.full(2, 0.1),
        )
        out = gibbs.sample_factors(
            np.zeros((3, 2)), np.zeros((3, 3)), draw, np.zeros((3, 2)),
            np.random.default_rng(0),
        )
        assert out.shape == (3, 0)


def draw_equation(y, x, fmat, h, bm, bv, lm, lv, signs, load, rng, rfp=None):
    """One equation's draw through the all-equations block (n = 1)."""
    beta, out = gibbs.sample_beta_loadings(
        y[:, None], x, gibbs.RfpLayout(x, fmat.shape[1]) if rfp is None else rfp, fmat,
        h[:, None], bm[None], bv[None], lm[None], lv[None],
        np.array([signs], dtype=np.int8), np.asarray(load, float)[None], [rng],
    )
    return beta[0], out[0]


class TestSampleBetaLoadings:
    def test_unconstrained_mean_matches_posterior_mode(self):
        rng = np.random.default_rng(2)
        T, k, r = 60, 2, 1
        x = np.column_stack([np.ones(T), rng.standard_normal(T)])
        fmat = rng.standard_normal((T, r))
        beta_true = np.array([0.5, -1.0])
        y = x @ beta_true + fmat[:, 0] * 0.8 + 0.3 * rng.standard_normal(T)
        h = np.full(T, 2 * np.log(0.3))
        bm, bv = np.zeros(k), np.full(k, 10.0)
        lm, lv = np.zeros(r), np.full(r, 10.0)
        z = np.column_stack([x, fmat])
        w = np.exp(-h)
        K = (z * w[:, None]).T @ z + np.diag(1 / np.concatenate([bv, lv]))
        want = np.linalg.solve(K, z.T @ (w * y))
        rfp = gibbs.RfpLayout(x, fmat.shape[1])
        draws = np.array(
            [
                np.concatenate(
                    draw_equation(
                        y, x, fmat, h, bm, bv, lm, lv, [FREE], [0.1], rng, rfp
                    )
                )
                for _ in range(20_000)
            ]
        )
        mcse = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - want) < 4 * mcse)

    def test_positive_restriction_half_normal_moment(self):
        rng = np.random.default_rng(3)
        T = 5
        x = np.ones((T, 1))
        fmat = np.zeros((T, 1))  # no data information: posterior = prior
        y = np.zeros(T)
        h = np.zeros(T)
        rfp = gibbs.RfpLayout(x, fmat.shape[1])
        draws = np.array(
            [
                draw_equation(
                    y, x, fmat, h,
                    np.zeros(1), np.full(1, 1e6),  # diffuse beta prior
                    np.zeros(1), np.ones(1),       # loading prior N(0, 1)
                    [POS], [1.0], rng, rfp,
                )[1][0]
                for _ in range(20_000)
            ]
        )
        assert np.all(draws > 0)
        mcse = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - np.sqrt(2 / np.pi)) < 4 * mcse

    def test_improbable_orthant_falls_back_exactly(self, monkeypatch):
        # posterior = prior N(-2, 0.5^2): the POS region is 4 sd out, so
        # accept-reject almost always fails and the 1-D box-Gibbs update,
        # which draws from the exact conditional, takes over
        fallbacks = []
        box = gibbs.tmvn.gibbs_sample_box

        def counting_box(*args, **kwargs):
            fallbacks.append(1)
            return box(*args, **kwargs)

        monkeypatch.setattr(gibbs.tmvn, "gibbs_sample_box", counting_box)
        rng = np.random.default_rng(5)
        T = 5
        x = np.ones((T, 1))
        fmat = np.zeros((T, 1))
        y = np.zeros(T)
        h = np.zeros(T)
        rfp = gibbs.RfpLayout(x, fmat.shape[1])
        load = np.array([1.0])
        draws = np.empty(10_000)
        for s in range(draws.size):
            _, load = draw_equation(
                y, x, fmat, h, np.zeros(1), np.full(1, 1e6),
                np.full(1, -2.0), np.full(1, 0.25), [POS], load, rng, rfp,
            )
            draws[s] = load[0]
        assert len(fallbacks) > 0.99 * draws.size
        assert np.all(draws > 0)
        want = stats.truncnorm.mean(4.0, np.inf, loc=-2.0, scale=0.5)
        mcse = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - want) < 4 * mcse

    def test_zero_restriction_exact_zero(self):
        rng = np.random.default_rng(4)
        T = 30
        x = np.column_stack([np.ones(T), rng.standard_normal(T)])
        fmat = rng.standard_normal((T, 2))
        y = rng.standard_normal(T)
        h = np.zeros(T)
        _, load = draw_equation(
            y, x, fmat, h, np.zeros(2), np.ones(2), np.zeros(2), np.ones(2),
            [ZERO, POS], [0.0, 1.0], rng,
        )
        assert load[0] == 0.0 and load[1] > 0

    @staticmethod
    def _block_inputs(rng, codes, T=40, k=3):
        n, r = codes.shape
        x = np.column_stack([np.ones(T), rng.standard_normal((T, k - 1))])
        fmat = rng.standard_normal((T, r))
        y = rng.standard_normal((T, n))
        h = 0.3 * rng.standard_normal((T, n))
        bm = 0.1 * rng.standard_normal((n, k))
        bv = rng.uniform(0.5, 2.0, (n, k))
        lm = 0.1 * rng.standard_normal((n, r))
        lv = rng.uniform(0.5, 2.0, (n, r))
        load = np.where(codes == NEG, -0.5, np.where(codes == ZERO, 0.0, 0.5))
        return y, x, fmat, h, bm, bv, lm, lv, load

    def test_equation_permutation_permutes_rows(self):
        # each equation's draw depends only on its own columns, priors,
        # signs and stream, so relabelling the equations relabels the rows
        codes = np.array(
            [[ZERO, ZERO], [ZERO, POS], [FREE, FREE], [POS, NEG], [NEG, POS],
             [POS, FREE]], dtype=np.int8,
        )
        y, x, fmat, h, bm, bv, lm, lv, load = self._block_inputs(
            np.random.default_rng(17), codes
        )
        rfp = gibbs.RfpLayout(x, fmat.shape[1])
        perm = np.array([3, 0, 5, 1, 4, 2])

        def run(order):
            rngs = [np.random.default_rng(100 + i) for i in order]
            return gibbs.sample_beta_loadings(
                y[:, order], x, rfp, fmat, h[:, order], bm[order], bv[order],
                lm[order], lv[order], codes[order], load[order], rngs,
            )

        beta, out = run(np.arange(6))
        beta_p, out_p = run(perm)
        assert np.allclose(beta_p, beta[perm], rtol=0, atol=1e-10)
        assert np.allclose(out_p, out[perm], rtol=0, atol=1e-10)
        assert np.all(out[codes == ZERO] == 0.0)
        assert np.all(out_p[codes[perm] == ZERO] == 0.0)
        assert np.all(out[codes == POS] > 0) and np.all(out[codes == NEG] < 0)

    def test_rows_match_dense_per_equation_draw(self):
        # reference: each equation on its own, zero-restricted regressors
        # dropped, dense solves; same stream, so the draws agree to rounding
        codes = np.array(
            [[ZERO, FREE], [FREE, FREE], [ZERO, ZERO], [POS, NEG], [ZERO, POS]],
            dtype=np.int8,
        )
        y, x, fmat, h, bm, bv, lm, lv, load = self._block_inputs(
            np.random.default_rng(20), codes
        )
        k, r = x.shape[1], codes.shape[1]
        beta, out = gibbs.sample_beta_loadings(
            y, x, gibbs.RfpLayout(x, fmat.shape[1]), fmat, h, bm, bv, lm, lv, codes, load,
            [np.random.default_rng(200 + i) for i in range(len(codes))],
        )
        for i, row in enumerate(codes):
            rng = np.random.default_rng(200 + i)
            kept = np.flatnonzero(row != ZERO)
            z = np.column_stack([x, fmat[:, kept]])
            var0 = np.concatenate([bv[i], lv[i, kept]])
            w = np.exp(-h[:, i])
            K = (z * w[:, None]).T @ z + np.diag(1 / var0)
            rhs = np.concatenate([bm[i], lm[i, kept]]) / var0 + z.T @ (w * y[:, i])
            mean = np.linalg.solve(K, rhs)
            if np.all(row[kept] == FREE):
                theta = mean + np.linalg.solve(
                    np.linalg.cholesky(K).T, rng.standard_normal(k + kept.size)
                )
                l_draw = theta[k:]
            else:
                # all r loadings are proposed through the root inv(chol(Schur))',
                # a zero-restricted one as an unbounded decoupled unit
                # coordinate: one point first, a batch of 99 only on a miss
                schur = K[k:, k:] - K[k:, :k] @ np.linalg.solve(K[:k, :k], K[:k, k:])
                root = np.eye(r)
                root[np.ix_(kept, kept)] = np.linalg.inv(np.linalg.cholesky(schur)).T
                l_mean = np.zeros(r)
                l_mean[kept] = mean[k:]
                lb, ub = model.sign_bounds(row)
                for size in (1, 99):
                    prop = l_mean + rng.standard_normal((size, r)) @ root.T
                    inside = prop[np.all((prop > lb) & (prop < ub), axis=1)]
                    if len(inside):
                        break
                l_draw = inside[0][kept]
                cond = mean[:k] - np.linalg.solve(K[:k, :k], K[:k, k:] @ (l_draw - mean[k:]))
                theta = cond + np.linalg.solve(
                    np.linalg.cholesky(K[:k, :k]).T, rng.standard_normal(k)
                )
            assert np.allclose(beta[i], theta[:k], rtol=0, atol=1e-10)
            assert np.allclose(out[i, kept], l_draw, rtol=0, atol=1e-10)
            assert np.all(out[i, row == ZERO] == 0.0)

    def test_mixed_rows_match_rejection_from_joint_normal(self):
        # oracle: each equation's untruncated joint N(theta_hat, K^-1), built
        # densely without its zero-restricted regressors, kept where the
        # loadings obey the signs
        codes = np.array(
            [[ZERO, POS, FREE], [NEG, ZERO, ZERO], [POS, NEG, FREE]], dtype=np.int8
        )
        y, x, fmat, h, bm, bv, lm, lv, load = self._block_inputs(
            np.random.default_rng(21), codes
        )
        k = x.shape[1]
        rfp = gibbs.RfpLayout(x, fmat.shape[1])
        rngs = [np.random.default_rng(300 + i) for i in range(len(codes))]
        draws = 20_000
        beta = np.empty((draws, *bm.shape))
        out = np.empty((draws, *lm.shape))
        for s in range(draws):
            beta[s], load = gibbs.sample_beta_loadings(
                y, x, rfp, fmat, h, bm, bv, lm, lv, codes, load, rngs
            )
            out[s] = load
        assert np.all(out[:, codes == ZERO] == 0.0)
        rng = np.random.default_rng(22)
        for i, row in enumerate(codes):
            kept = np.flatnonzero(row != ZERO)
            z = np.column_stack([x, fmat[:, kept]])
            var0 = np.concatenate([bv[i], lv[i, kept]])
            w = np.exp(-h[:, i])
            K = (z * w[:, None]).T @ z + np.diag(1 / var0)
            rhs = np.concatenate([bm[i], lm[i, kept]]) / var0 + z.T @ (w * y[:, i])
            raw = rng.multivariate_normal(
                np.linalg.solve(K, rhs), np.linalg.inv(K), size=400_000
            )
            lb, ub = model.sign_bounds(row[kept])
            keep = raw[np.all((raw[:, k:] > lb) & (raw[:, k:] < ub), axis=1)]
            mine = np.column_stack([beta[:, i], out[:, i, kept]])
            mcse = np.sqrt(mine.var(axis=0) / draws + keep.var(axis=0) / len(keep))
            assert np.all(np.abs(mine.mean(axis=0) - keep.mean(axis=0)) < 4 * mcse)

    def test_batched_accept_reject_matches_one_equation_calls(self, monkeypatch):
        # loadings nearly a priori: one orthant holds almost all of its
        # conditional, one about 30% (first coordinate 0.52 sd out), and one
        # is 4 sd out as in the improbable-orthant test above
        codes = np.array([[POS, NEG], [POS, FREE], [POS, FREE]], dtype=np.int8)
        rng = np.random.default_rng(40)
        T, n = 5, 3
        x = np.ones((T, 1))
        fmat = 0.2 * rng.standard_normal((T, 2))
        y = 0.2 * rng.standard_normal((T, n))
        h = np.zeros((T, n))
        bm, bv = np.zeros((n, 1)), np.full((n, 1), 1e6)
        lm = np.array([[3.0, -3.0], [-0.26, 0.0], [-2.0, 0.0]])
        lv = np.full((n, 2), 0.25)
        load = np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 0.0]])
        rfp = gibbs.RfpLayout(x, fmat.shape[1])

        proposals, boxes = [], []
        propose, box = gibbs.tmvn.TruncatedMVN._propose, gibbs.tmvn.gibbs_sample_box

        def counting_propose(self, rngs, size, rows):
            proposals.append((size, tuple(rows)))
            return propose(self, rngs, size, rows)

        def counting_box(*args, **kwargs):
            boxes.append(1)
            return box(*args, **kwargs)

        monkeypatch.setattr(gibbs.tmvn.TruncatedMVN, "_propose", counting_propose)
        monkeypatch.setattr(gibbs.tmvn, "gibbs_sample_box", counting_box)
        joint = [np.random.default_rng(400 + i) for i in range(n)]
        alone = [np.random.default_rng(400 + i) for i in range(n)]
        batched_rows = []
        for _ in range(30):
            proposals.clear()
            boxes.clear()
            beta, out = gibbs.sample_beta_loadings(
                y, x, rfp, fmat, h, bm, bv, lm, lv, codes, load, joint
            )
            # one proposal for every row, then one batch for the rows that missed
            assert proposals[0] == (1, (0, 1, 2))
            assert all(size == 99 for size, _ in proposals[1:]) and len(proposals) <= 2
            batch = proposals[1][1] if len(proposals) == 2 else ()
            assert len(boxes) == 1
            missed = []
            for i in range(n):
                proposals.clear()
                boxes.clear()
                b_i, l_i = draw_equation(
                    y[:, i], x, fmat, h[:, i], bm[i], bv[i], lm[i], lv[i], codes[i],
                    load[i], alone[i], rfp,
                )
                assert np.allclose(beta[i], b_i, rtol=0, atol=1e-12)
                assert np.allclose(out[i], l_i, rtol=0, atol=1e-12)
                if len(proposals) == 2:
                    missed.append(i)
                assert len(boxes) == (i == 2)
            assert batch == tuple(missed)
            batched_rows.append(batch)
            load = out
        assert not any(0 in b for b in batched_rows)
        assert 5 < sum(1 in b for b in batched_rows) < 30
        assert all(2 in b for b in batched_rows)

    def test_precision_not_pd_raises_numerical_error(self):
        codes = np.array([[POS], [FREE], [NEG]], dtype=np.int8)
        y, x, fmat, h, bm, bv, lm, lv, load = self._block_inputs(
            np.random.default_rng(18), codes
        )
        bv[1, 0] = -1e-6
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(NumericalError, match="equation 1"):
            gibbs.sample_beta_loadings(
                y, x, gibbs.RfpLayout(x, fmat.shape[1]), fmat, h, bm, bv, lm, lv, codes,
                load, rngs,
            )

    def test_run_chain_prefixes_sweep(self):
        rng = np.random.default_rng(19)
        y, x, spec = tiny_spec(rng, T=25)
        spec.priors.beta_var[1, 0] = -1e-6
        settings = gibbs.McmcSettings(burn_in=2, draws=2, seed=1)
        with pytest.raises(NumericalError, match=r"^sweep 0: equation 1 "):
            gibbs.run_chain(y, x, spec, settings, reduced_form=True)

    def test_run_chain_keeps_error_type(self, monkeypatch):
        def not_pd(*args):
            raise NotPositiveDefiniteError("factor precision not PD")

        monkeypatch.setattr(gibbs, "sample_factors", not_pd)
        y, x, spec = tiny_spec(np.random.default_rng(20), n=3, T=25)
        settings = gibbs.McmcSettings(burn_in=2, draws=2, seed=1)
        with pytest.raises(NotPositiveDefiniteError, match=r"^sweep 0: factor precision"):
            gibbs.run_chain(y, x, spec, settings, reduced_form=True)


class TestRfpLayout:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 105])
    def test_slots_round_trip_through_lapack(self, N):
        # the slot map against LAPACK's own unpacking, for odd and even N
        r = min(3, N - 1)
        x = np.random.default_rng(N).standard_normal((4, N - 1 - r))
        rfp = gibbs.RfpLayout(x, r)
        il = np.tril_indices(N)
        assert np.array_equal(rfp.pos, rfp.pos.T)
        assert np.array_equal(np.sort(rfp.pos[il]), np.arange(N * (N + 1) // 2))
        a = np.random.default_rng(100 + N).standard_normal((N, N))
        arf = np.empty(N * (N + 1) // 2)
        arf[rfp.pos[il]] = a[il]
        back = scipy.linalg.lapack.dtfttr(N, arf, transr="N", uplo="L")[0]
        assert np.array_equal(np.tril(back), np.tril(a))

    @pytest.mark.parametrize("codes", [
        np.array([[ZERO, FREE, POS], [FREE, FREE, FREE], [NEG, ZERO, ZERO],
                  [POS, NEG, FREE], [ZERO, ZERO, ZERO]], dtype=np.int8),
        np.zeros((3, 0), dtype=np.int8),
    ])
    def test_bordered_precisions_match_dense_build(self, codes):
        # dense oracle: x'Wx + prior with the zero-restricted regressors'
        # rows and columns dropped to a unit diagonal, bordered by the
        # right-hand side and the corner; a second factor draw checks that
        # the layout's factor rows are refreshed
        rng = np.random.default_rng(23)
        y, x, fmat, h, bm, bv, lm, lv, _ = TestSampleBetaLoadings._block_inputs(rng, codes)
        (n, r), k = codes.shape, x.shape[1]
        m = k + r
        rfp = gibbs.RfpLayout(x, r)
        for f in (fmat, rng.standard_normal(fmat.shape)):
            a, keep = gibbs.bordered_precisions(y, x, rfp, f, h, bm, bv, lm, lv, codes)
            for i in range(n):
                kept = np.concatenate([np.ones(k, bool), codes[i] != ZERO])
                z = np.column_stack([x, f]) * kept
                w = np.exp(-h[:, i])
                var0 = np.where(kept, np.concatenate([bv[i], lv[i]]), 1.0)
                theta0 = np.where(kept, np.concatenate([bm[i], lm[i]]), 0.0)
                want = np.zeros((m + 1, m + 1))
                want[:m, :m] = (z * w[:, None]).T @ z + np.diag(1 / var0)
                want[m, :m] = z.T @ (w * y[:, i]) + theta0 / var0
                want[m, m] = 2 * (w @ y[:, i] ** 2 + np.sum(theta0**2 / var0)) + 1
                got = scipy.linalg.lapack.dtfttr(m + 1, a[i], transr="N", uplo="L")[0]
                assert np.array_equal(keep[i], kept)
                assert np.allclose(np.tril(got), np.tril(want), rtol=1e-12, atol=1e-12)


class TestVolatilityPath:
    def test_mixture_matches_log_chi2_moments(self):
        # the 7-component mixture approximates log of a squared standard normal
        mean = np.sum(gibbs._MIX_PROB * gibbs._MIX_MEAN)
        var = np.sum(gibbs._MIX_PROB * (gibbs._MIX_MEAN**2 + gibbs._MIX_VAR)) - mean**2
        assert mean == pytest.approx(-1.2704, abs=5e-4)
        assert var == pytest.approx(np.pi**2 / 2, abs=0.02)
        assert gibbs._MIX_PROB.sum() == pytest.approx(1.0, abs=1e-5)

    def test_indicators_stay_in_range_at_top_uniform(self):
        # with u just below 1 a normalised cumulative sum that rounds below
        # u pointed past the last component; the count stays at most 6
        class TopUniform:
            def uniform(self, size=None):
                return np.full(size, np.nextafter(1.0, 0.0))

        rng = np.random.default_rng(23)
        ystar = rng.normal(-1.0, 3.0, (1000, 100))
        h = rng.normal(0.0, 2.0, (1000, 100))
        s = gibbs._mixture_indicators(ystar, h, TopUniform())
        assert s.min() >= 0 and s.max() <= 6

    @pytest.mark.parametrize("T", [1, 7, 200])
    @pytest.mark.parametrize("d", [1, 23])
    def test_indicators_match_a_cumsum_reference_bit_for_bit(self, T, d):
        rng = np.random.default_rng(100 * T + d)
        ystar = rng.normal(-1.0, 3.0, (T, d))
        h = rng.normal(0.0, 2.0, (T, d))
        dev = ystar - h
        logp = gibbs._MIX_LOG_NORM[:, None, None] - (
            dev - gibbs._MIX_MEAN[:, None, None]
        ) ** 2 / (2.0 * gibbs._MIX_VAR[:, None, None])
        cum = np.cumsum(np.exp(logp - logp.max(axis=0)), axis=0)
        # uniforms on the reference's component boundaries, where a sum one
        # ulp off flips an indicator
        k = rng.integers(0, 6, (T, d))
        v = np.take_along_axis(cum, k[None], axis=0)[0] / cum[-1]

        class BoundaryUniform:
            def uniform(self, size=None):
                assert size == (T, d)
                return v.copy()

        want = np.count_nonzero(cum[:-1] < v * cum[-1], axis=0)
        got = gibbs._mixture_indicators(ystar, h, BoundaryUniform())
        np.testing.assert_array_equal(got, want)

    def test_indicator_frequencies_match_posterior_probabilities(self):
        # at ystar - h = +100 every unshifted component density underflows
        # to 0; component 0 (the widest) then takes all the mass
        diff = np.array([-12.0, -4.0, -1.0, 0.5, 2.0, 100.0])
        draws = 100_000
        h = np.tile(np.linspace(-2.0, 1.0, diff.size), (draws, 1))
        s = gibbs._mixture_indicators(h + diff, h, np.random.default_rng(24))
        logp = stats.norm.logpdf(
            diff[:, None], gibbs._MIX_MEAN, np.sqrt(gibbs._MIX_VAR)
        ) + np.log(gibbs._MIX_PROB)
        want = np.exp(logp - special.logsumexp(logp, axis=1, keepdims=True))
        freq = np.array([np.bincount(c, minlength=7) for c in s.T]) / draws
        mcse = np.sqrt(want * (1.0 - want) / draws)
        assert np.all(np.abs(freq - want) <= 4 * mcse)
        assert want[-1, 0] > 0.99

    def test_degenerate_state_equation_collapses_to_mean(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(50)
        h = volatility_scans(z, np.full(50, -1.3), -1.3, 0.0, 1e-10, rng, scans=20)
        assert np.max(np.abs(h - (-1.3))) < 1e-3

    def test_path_recovery_correlation(self):
        rng = np.random.default_rng(6)
        T, phi, sig2 = 1000, 0.98, 0.1
        sig = np.sqrt(sig2)
        h_true = np.empty(T)
        h_true[0] = sig / np.sqrt(1 - phi**2) * rng.standard_normal()
        for t in range(1, T):
            h_true[t] = phi * h_true[t - 1] + sig * rng.standard_normal()
        z = np.exp(h_true / 2) * rng.standard_normal(T)
        h = volatility_scans(z, np.zeros(T), 0.0, phi, sig2, rng, scans=20)
        total = np.zeros(T)
        for _ in range(150):
            h = volatility_scans(z, h, 0.0, phi, sig2, rng, scans=1)
            total += h
        corr = np.corrcoef(total / 150, h_true)[0, 1]
        assert corr >= 0.9

    def test_two_period_path_matches_quadrature_oracle(self):
        # ergodic average of the kernel vs 2-D quadrature under the mixture
        # measurement model (which the exact log chi-squared density matches
        # to within plotting accuracy)
        phi_i, sig2_i, mu_i = 0.7, 0.3, -0.5
        z = np.array([0.8, -1.4])
        ystar = np.log(z**2 + gibbs.LOG_SQUARE_OFFSET)
        grid = np.linspace(-6.0, 5.0, 601)
        H1, H2 = np.meshgrid(grid, grid, indexing="ij")
        sd0 = np.sqrt(sig2_i / (1 - phi_i**2))

        def mix_loglik(ys, H):
            comp = stats.norm.logpdf(
                ys - H[..., None], gibbs._MIX_MEAN, np.sqrt(gibbs._MIX_VAR)
            )
            m = comp.max(axis=-1)
            return m + np.log(
                np.sum(gibbs._MIX_PROB * np.exp(comp - m[..., None]), axis=-1)
            )

        logp = stats.norm.logpdf(H1, mu_i, sd0)
        logp += stats.norm.logpdf(H2, mu_i + phi_i * (H1 - mu_i), np.sqrt(sig2_i))
        logp += mix_loglik(ystar[0], H1) + mix_loglik(ystar[1], H2)
        w = np.exp(logp - logp.max())
        want = np.array([(H1 * w).sum(), (H2 * w).sum()]) / w.sum()

        rng = np.random.default_rng(0)
        h = volatility_scans(z, np.full(2, mu_i), mu_i, phi_i, sig2_i, rng, scans=20)
        draws = np.empty((40_000, 2))
        for i in range(len(draws)):
            h = volatility_scans(z, h, mu_i, phi_i, sig2_i, rng, scans=1)
            draws[i] = h
        mcse = draws.std(axis=0) / np.sqrt(len(draws) / 8)  # autocorrelation slack
        assert np.all(np.abs(draws.mean(axis=0) - want) < 4 * mcse + 0.01)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_draw_matches_dense_precision_sampler(self, monkeypatch, d, T):
        # with the indicators s and the normals z fixed, the path is
        # P^{-1} rhs + chol(P)'^{-1} z for the dense posterior precision P of
        # the series-major stack, prior part inverted from the stationary
        # AR(1) covariances
        rng = np.random.default_rng(10 * d + T)
        ystar = rng.normal(-1.0, 2.0, (T, d))
        means = rng.normal(0.0, 1.0, d)
        phi = rng.uniform(-0.9, 0.9, d)
        sig2 = rng.uniform(0.02, 0.5, d)
        s = rng.integers(0, 7, (T, d))
        monkeypatch.setattr(gibbs, "_mixture_indicators", lambda ystar, h, rng: s)
        got = gibbs._stacked_sv_draw(
            ystar, np.zeros((T, d)), means, phi, sig2, np.random.default_rng(31)
        )
        z = np.random.default_rng(31).standard_normal(d * T)
        lags = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        prior = scipy.linalg.block_diag(*[
            np.linalg.inv(sig2[i] / (1.0 - phi[i] ** 2) * phi[i] ** lags) for i in range(d)
        ])
        obs_prec = 1.0 / gibbs._MIX_VAR[s].T.ravel()
        prec = prior + np.diag(obs_prec)
        rhs = prior @ np.repeat(means, T) + obs_prec * (ystar - gibbs._MIX_MEAN[s]).T.ravel()
        want = np.linalg.solve(prec, rhs) + np.linalg.solve(np.linalg.cholesky(prec).T, z)
        assert got.shape == (T, d)
        err = np.max(np.abs(got.T.ravel() - want))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("bad", [np.nan, -0.05])
    def test_precision_not_pd_raises(self, bad):
        # a non-finite prior precision, or a negative one that the
        # observations cannot outweigh, gives a bad LDL' pivot
        rng = np.random.default_rng(32)
        T, d = 6, 2
        with pytest.raises(NotPositiveDefiniteError, match="volatility precision"):
            gibbs._stacked_sv_draw(
                rng.normal(-1.0, 2.0, (T, d)), np.zeros((T, d)), np.zeros(d),
                np.full(d, 0.5), np.array([0.1, bad]), rng,
            )

    def test_run_chain_prefixes_volatility_failure(self, monkeypatch):
        # sweep 0 leaves non-finite innovation variances; sweep 1's volatility
        # block then raises, and run_chain names the sweep
        monkeypatch.setattr(
            gibbs, "sample_sigma2", lambda h, *args: np.full(h.shape[1], np.nan)
        )
        y, x, spec = tiny_spec(np.random.default_rng(33), n=3, T=25)
        settings = gibbs.McmcSettings(burn_in=2, draws=2, seed=1)
        with pytest.raises(NotPositiveDefiniteError, match=r"^sweep 1: volatility precision"):
            gibbs.run_chain(y, x, spec, settings, reduced_form=True)

    def test_same_inputs_same_seed_same_path(self):
        z = np.random.default_rng(7).standard_normal(40)
        h0 = np.full(40, -1.0)
        h1 = volatility_scans(z, h0, -1.0, 0.9, 0.05, np.random.default_rng(42), scans=20)
        h2 = volatility_scans(z, h0, -1.0, 0.9, 0.05, np.random.default_rng(42), scans=20)
        assert np.array_equal(h1, h2)


class TestSvParameterSteps:
    def test_sigma2_prior_only_when_path_at_mean(self):
        rng = np.random.default_rng(8)
        h = np.full(12, -0.7)
        draws = np.array(
            [gibbs.sample_sigma2(h, -0.7, 0.5, 5.0, 0.08, rng) for _ in range(40_000)]
        )
        # inverse-gamma(5 + 6, 0.08) mean = 0.08 / (11 - 1)
        mcse = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - 0.08 / 10.0) < 4 * mcse

    def test_sigma2_moment_identity(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal(9) * 0.4 - 1.0
        mu_i, phi_i, nu, s0 = -1.0, 0.6, 4.0, 0.05
        dev = h - mu_i
        stilde = s0 + ((1 - phi_i**2) * dev[0] ** 2 + np.sum((dev[1:] - phi_i * dev[:-1]) ** 2)) / 2
        draws = np.array(
            [gibbs.sample_sigma2(h, mu_i, phi_i, nu, s0, rng) for _ in range(40_000)]
        )
        want = stilde / (nu + 4.5 - 1.0)
        mcse = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - want) < 4 * mcse

    def test_mu_single_observation_diffuse_limit(self):
        rng = np.random.default_rng(10)
        h = np.array([0.37])
        draws = np.array(
            [gibbs.sample_mu(h, 0.0, 0.2, 0.0, 1e12, rng) for _ in range(5_000)]
        )
        assert draws.mean() == pytest.approx(0.37, abs=0.03)

    def test_mu_matches_grid_posterior_mean(self):
        rng = np.random.default_rng(11)
        h = np.array([-0.9, -0.5, -1.1, -0.8, -0.6])
        phi_i, sig2_i, mu0, vmu = 0.7, 0.09, -1.2, 2.0
        grid = np.linspace(-4, 2, 20_001)
        dev0 = h[0] - grid
        logp = -0.5 * (grid - mu0) ** 2 / vmu
        logp += -0.5 * (1 - phi_i**2) * dev0**2 / sig2_i
        for t in range(1, 5):
            innov = (h[t] - grid) - phi_i * (h[t - 1] - grid)
            logp += -0.5 * innov**2 / sig2_i
        w = np.exp(logp - logp.max())
        want = np.sum(grid * w) / np.sum(w)
        draws = np.array(
            [gibbs.sample_mu(h, phi_i, sig2_i, mu0, vmu, rng) for _ in range(60_000)]
        )
        mcse = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - want) < 4 * mcse
        assert abs(draws.mean() - want) < 1e-2

    def test_phi_acceptance_identity_at_current(self):
        # proposal equal to the current state is always accepted
        dev0, sig2_i = 0.3, 0.1
        lr = gibbs._log_g_phi(0.5, dev0, sig2_i) - gibbs._log_g_phi(0.5, dev0, sig2_i)
        assert lr == 0.0

    def test_phi_g_closed_form_when_h1_at_mean(self):
        assert gibbs._log_g_phi(0.6, 0.0, 0.1) == pytest.approx(0.5 * np.log(1 - 0.36))

    def test_phi_stays_in_unit_interval(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal(30) * 0.5
        phi = 0.9
        for _ in range(500):
            phi, _ = gibbs.sample_phi(h, 0.0, 0.05, 0.95, 0.01, phi, rng)
            assert abs(phi) < 1

    def test_batched_sigma2_mu_match_column_by_column_stream(self):
        # one call on the (T, d) paths draws the columns in order from the
        # stream, bit for bit as d one-column calls do
        rng = np.random.default_rng(20)
        T, d = 30, 5
        h = rng.standard_normal((T, d)) * 0.5 - 1.0
        mu = rng.normal(-1.0, 0.3, d)
        phi = rng.uniform(0.2, 0.95, d)
        sig2 = rng.uniform(0.02, 0.2, d)
        shape0, scale0 = rng.uniform(3.0, 6.0, d), rng.uniform(0.02, 0.1, d)
        mu0, vmu = rng.normal(-1.0, 1.0, d), rng.uniform(1.0, 10.0, d)
        batch = np.random.default_rng(21)
        s2 = gibbs.sample_sigma2(h, mu, phi, shape0, scale0, batch)
        m = gibbs.sample_mu(h, phi, sig2, mu0, vmu, batch)
        cols = np.random.default_rng(21)
        s2_cols = [
            gibbs.sample_sigma2(h[:, i], mu[i], phi[i], shape0[i], scale0[i], cols)
            for i in range(d)
        ]
        m_cols = [
            gibbs.sample_mu(h[:, i], phi[i], sig2[i], mu0[i], vmu[i], cols)
            for i in range(d)
        ]
        assert np.array_equal(s2, s2_cols)
        assert np.array_equal(m, m_cols)

    def test_batched_phi_matches_grid_conditional(self):
        # three series with different conditionals advanced together; the
        # target is the N(phi0, v_phi) prior on (-1, 1) times the AR(1)
        # density of the path, stationary first term included
        rng = np.random.default_rng(22)
        T = 25
        mu = np.array([0.0, -1.0, 0.5])
        sig2 = np.array([0.05, 0.2, 0.5])
        phi0 = np.array([0.95, 0.5, 0.0])
        vphi = np.array([0.01, 0.25, 1.0])
        h = np.empty((T, 3))
        h[0] = mu
        for t in range(1, T):
            h[t] = mu + np.array([0.9, 0.6, -0.2]) * (h[t - 1] - mu) + np.sqrt(
                sig2
            ) * rng.standard_normal(3)
        grid = np.linspace(-1.0, 1.0, 20_001)[1:-1]
        want = np.empty(3)
        for i in range(3):
            dev = h[:, i] - mu[i]
            logp = -0.5 * (grid - phi0[i]) ** 2 / vphi[i]
            logp += 0.5 * np.log1p(-(grid**2)) - (1 - grid**2) * dev[0] ** 2 / (
                2 * sig2[i]
            )
            innov = dev[1:, None] - grid * dev[:-1, None]
            logp -= 0.5 * np.sum(innov**2, axis=0) / sig2[i]
            w = np.exp(logp - logp.max())
            want[i] = np.sum(grid * w) / np.sum(w)
        phi = phi0.copy()
        draws = np.empty((40_000, 3))
        for j in range(len(draws)):
            phi, _ = gibbs.sample_phi(h, mu, sig2, phi0, vphi, phi, rng)
            draws[j] = phi
        mcse = draws.std(axis=0) / np.sqrt(len(draws) / 8)  # autocorrelation slack
        assert np.all(np.abs(draws.mean(axis=0) - want) < 4 * mcse)


class TestRunChain:
    def test_zero_draws_rejected(self):
        with pytest.raises(ConfigError):
            gibbs.McmcSettings(burn_in=10, draws=0)

    def test_identical_seeds_identical_chains(self):
        rng = np.random.default_rng(13)
        y, x, spec = tiny_spec(rng, T=25)
        settings = gibbs.McmcSettings(burn_in=5, draws=10, thin=2, seed=7)
        c1 = gibbs.run_chain(y, x, spec, settings, reduced_form=True)
        c2 = gibbs.run_chain(y, x, spec, settings, reduced_form=True)
        assert np.array_equal(c1.beta, c2.beta)
        assert np.array_equal(c1.h, c2.h)
        assert np.array_equal(c1.f, c2.f)

    def test_unidentified_signs_require_reduced_form_flag(self):
        rng = np.random.default_rng(14)
        y, x, spec = tiny_spec(rng)
        settings = gibbs.McmcSettings(burn_in=1, draws=2, seed=1)
        with pytest.raises(ConfigError, match="point-identify"):
            gibbs.run_chain(y, x, spec, settings)

    def test_records_satisfy_invariants_and_signs(self):
        rng = np.random.default_rng(15)
        signs = SignMatrix(np.array([[POS], [NEG], [FREE]], dtype=np.int8))
        y, x, spec = tiny_spec(rng, n=3, T=30, signs=signs)
        settings = gibbs.McmcSettings(burn_in=20, draws=30, seed=3)
        chain = gibbs.run_chain(y, x, spec, settings)
        assert chain.size == 30
        assert chain.validate_records(signs)
        assert np.all(chain.load[:, 0, 0] > 0) and np.all(chain.load[:, 1, 0] < 0)
        assert chain.phi_accept.shape == (4,)
        assert np.all(chain.phi_accept >= 0) and np.all(chain.phi_accept <= 1)

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2)]),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_stored_draws_respect_random_sign_patterns(self, shape, data, seed):
        n, r = shape
        codes = data.draw(
            st.lists(st.sampled_from([POS, NEG, ZERO, FREE]), min_size=n * r,
                     max_size=n * r)
        )
        signs = SignMatrix(np.array(codes, dtype=np.int8).reshape(n, r))
        y, x, spec = tiny_spec(np.random.default_rng(seed), n=n, r=r, signs=signs)
        mcmc = gibbs.McmcSettings(burn_in=2, draws=4, seed=seed)
        chain = gibbs.run_chain(y, x, spec, mcmc, reduced_form=True)
        assert chain.validate_records(signs)
        assert np.all(np.abs(chain.phi) < 1) and np.all(chain.sig2 > 0)

    def test_phi_step_sees_the_new_means(self, monkeypatch):
        rng = np.random.default_rng(17)
        y, x, spec = tiny_spec(rng, n=3, T=25)
        drawn, seen = [], []
        sample_mu, sample_phi = gibbs.sample_mu, gibbs.sample_phi

        def record_mu(*args):
            drawn.append(sample_mu(*args))
            return drawn[-1]

        def record_phi(h, mu, *args):
            seen.append(np.array(mu))
            return sample_phi(h, mu, *args)

        monkeypatch.setattr(gibbs, "sample_mu", record_mu)
        monkeypatch.setattr(gibbs, "sample_phi", record_phi)
        settings = gibbs.McmcSettings(burn_in=2, draws=3, seed=4)
        gibbs.run_chain(y, x, spec, settings, reduced_form=True)
        assert len(seen) == len(drawn) == 5
        for mu, means in zip(drawn, seen):
            assert np.array_equal(means, np.concatenate([mu, [0.0]]))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        y, x, spec = tiny_spec(rng, T=22)
        settings = gibbs.McmcSettings(burn_in=4, draws=6, seed=2)
        chain = gibbs.run_chain(y, x, spec, settings, reduced_form=True)
        chain.save(tmp_path / "chain")
        back = gibbs.McmcChain.read(tmp_path / "chain")
        assert np.array_equal(back.beta, chain.beta)
        assert np.array_equal(back.h, chain.h)
        assert np.array_equal(back.phi_accept, chain.phi_accept)
        assert back.settings == chain.settings

    @pytest.mark.slow
    def test_order_invariance_in_distribution(self):
        # K independent chains per ordering: under order invariance the two
        # means of chain means have the same expectation at any chain length,
        # and the between-chain spread gives their standard errors
        n, p, T, K = 4, 1, 200, 8
        cfg = simulate.DgpConfig(n=n, p=p, r=1, T=T, theta=1.0, seed=5)
        bundle = simulate.generate_dataset(cfg)
        signs = SignMatrix.from_pattern(np.sign(bundle.truth.load))
        raw = np.vstack([bundle.x[0, 1 : 1 + n][None], bundle.y])
        priors = model.default_priors(raw, n, p, 1)
        spec = ModelSpec(n=n, p=p, r=1, T=T, priors=priors, signs=signs)
        perm = Permutation([2, 0, 3, 1])
        yp, xp = model.permute_data(bundle.y, bundle.x, perm)
        spec_p = ModelSpec(
            n=n, p=p, r=1, T=T, priors=priors.permute(perm),
            signs=signs.permute_rows(perm),
        )

        def chain_means(y, x, spec, seed):
            settings = gibbs.McmcSettings(burn_in=100, draws=200, seed=seed)
            c = gibbs.run_chain(y, x, spec, settings)
            return np.concatenate(
                [c.load[:, :, 0].mean(axis=0), c.sig2[:, :n].mean(axis=0),
                 c.mu.mean(axis=0)]
            )

        base = np.array([chain_means(bundle.y, bundle.x, spec, s) for s in range(K)])
        permuted = np.array(
            [chain_means(yp, xp, spec_p, s) for s in range(K, 2 * K)]
        )
        # put the base chains' series in the permuted order
        order = np.concatenate([perm.order, n + perm.order, 2 * n + perm.order])
        base = base[:, order]
        diff = np.abs(base.mean(axis=0) - permuted.mean(axis=0))
        se = np.sqrt(base.var(axis=0, ddof=1) / K + permuted.var(axis=0, ddof=1) / K)
        assert np.all(diff < 6 * se), diff / se

import numpy as np
import pytest
from scipy import stats

from varfsv import gibbs, intlike, marglike, model
from varfsv.exceptions import InsufficientDrawsError
from varfsv.model import ModelSpec, PriorSpec, SignMatrix


def small_chain(rng, n=3, p=1, r=1, T=60, draws=300, seed=4):
    from varfsv import simulate

    cfg = simulate.DgpConfig(n=n, p=p, r=r, T=T, theta=1.0, seed=seed)
    bundle = simulate.generate_dataset(cfg)
    y, x = bundle.y, bundle.x
    raw = np.vstack([x[0, 1 : 1 + n][None], y])
    priors = model.default_priors(raw, n, p, r)
    signs = SignMatrix.from_pattern(np.sign(bundle.truth.load))
    spec = ModelSpec(n=n, p=p, r=r, T=T, priors=priors, signs=signs)
    settings = gibbs.McmcSettings(burn_in=150, draws=draws, seed=seed)
    chain = gibbs.run_chain(y, x, spec, settings)
    return y, x, spec, chain


class TestInvGammaFit:
    def test_recovers_synthetic_parameters(self):
        rng = np.random.default_rng(0)
        draws = stats.invgamma.rvs(5.0, scale=2.0, size=1_000_000, random_state=rng)
        shape, scale = marglike.fit_invgamma(draws)
        assert shape == pytest.approx(5.0, rel=0.01)
        assert scale == pytest.approx(2.0, rel=0.01)

    def test_mle_dominates_moment_match(self):
        rng = np.random.default_rng(1)
        draws = stats.invgamma.rvs(3.0, scale=0.5, size=5_000, random_state=rng)
        shape, scale = marglike.fit_invgamma(draws)
        m, v = draws.mean(), draws.var()
        a0 = 2.0 + m**2 / v
        s0 = m * (a0 - 1.0)
        fitted = marglike._invgamma_logpdf(draws, shape, scale).mean()
        moment = marglike._invgamma_logpdf(draws, a0, s0).mean()
        assert fitted >= moment - 1e-12


class TestCeFamily:
    def test_insufficient_draws_raises(self):
        rng = np.random.default_rng(2)
        y, x, spec, chain = small_chain(rng, draws=40)
        short = gibbs.McmcChain(
            n=chain.n, p=chain.p, r=chain.r, T=chain.T, settings=chain.settings,
            beta=chain.beta[:10], load=chain.load[:10], mu=chain.mu[:10],
            phi=chain.phi[:10], sig2=chain.sig2[:10], h=chain.h[:10], f=chain.f[:10],
            phi_accept=chain.phi_accept,
        )
        with pytest.raises(InsufficientDrawsError):
            marglike.fit_ce_family(short)

    def test_constant_draws_hit_variance_floor(self):
        rng = np.random.default_rng(3)
        y, x, spec, chain = small_chain(rng, draws=60)
        chain.mu[:] = chain.mu[0]
        chain.beta[:] = chain.beta[0]
        fam = marglike.fit_ce_family(chain)
        assert np.all(fam.mu_var == 1e-10)
        # degenerate beta draws still yield a usable (ridged) factor
        assert np.all(np.isfinite(fam.beta_chol))
        assert np.all(np.diagonal(fam.beta_chol, axis1=1, axis2=2) > 0)

    def test_fit_invariant_to_draw_order(self):
        rng = np.random.default_rng(4)
        y, x, spec, chain = small_chain(rng, draws=80)
        fam1 = marglike.fit_ce_family(chain)
        perm = rng.permutation(chain.size)
        shuffled = gibbs.McmcChain(
            n=chain.n, p=chain.p, r=chain.r, T=chain.T, settings=chain.settings,
            beta=chain.beta[perm], load=chain.load[perm], mu=chain.mu[perm],
            phi=chain.phi[perm], sig2=chain.sig2[perm], h=chain.h[perm],
            f=chain.f[perm], phi_accept=chain.phi_accept,
        )
        fam2 = marglike.fit_ce_family(shuffled)
        assert np.allclose(fam1.beta_mean, fam2.beta_mean, atol=1e-12)
        assert np.allclose(fam1.beta_chol, fam2.beta_chol, atol=1e-10)
        assert np.allclose(fam1.sig2_shape, fam2.sig2_shape, rtol=1e-9)


class TestWeights:
    def test_estimate_invariant_to_constant_shift(self):
        rng = np.random.default_rng(5)
        logw = rng.standard_normal(500)
        base, se, ess = intlike.log_importance_average(logw)
        shifted, se2, ess2 = intlike.log_importance_average(logw + 123.0)
        assert shifted - 123.0 == pytest.approx(base, abs=1e-12)
        assert se2 == pytest.approx(se, abs=1e-12)
        assert ess2 == pytest.approx(ess, abs=1e-9)

    def test_truncated_family_normalization_unbiased(self):
        # importance-sample the integral of the prior (= 1) using the fitted
        # family machinery; a wrong truncation mass would bias this away from 1
        rng = np.random.default_rng(6)
        n, p, r = 2, 1, 1
        k = n * p + 1
        signs = SignMatrix(np.array([[model.POS], [model.NEG]], dtype=np.int8))
        priors = PriorSpec(
            beta_mean=np.zeros((n, k)), beta_var=np.full((n, k), 0.5),
            load_mean=np.full((n, r), 0.3), load_var=np.ones((n, r)),
            mu_mean=np.zeros(n), mu_var=np.ones(n),
            phi_mean=np.full(n + r, 0.9), phi_var=np.full(n + r, 0.04),
            sig2_shape=np.full(n + r, 5.0), sig2_scale=np.full(n + r, 0.2),
        )
        spec = ModelSpec(n=n, p=p, r=r, T=10, priors=priors, signs=signs)
        fam = marglike.CeFamilyParams(
            beta_mean=np.full((n, k), 0.1),
            beta_chol=np.tile(np.sqrt(0.8) * np.eye(k), (n, 1, 1)),
            load_mean=np.array([[0.2], [-0.4]]), load_var=np.full((n, r), 1.5),
            sig2_shape=np.full(n + r, 4.0), sig2_scale=np.full(n + r, 0.25),
            mu_mean=np.full(n, 0.1), mu_var=np.full(n, 1.3),
            phi_mean=np.full(n + r, 0.8), phi_var=np.full(n + r, 0.09),
        )
        logw = np.empty(40_000)
        for i in range(len(logw)):
            draw = marglike.sample_from_family(fam, signs, rng)
            logw[i] = marglike.log_prior(draw, spec) - marglike.family_logpdf(
                fam, draw, signs
            )
        w = np.exp(logw)
        mcse = w.std() / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 4 * mcse

    def test_zero_restricted_loading_masked_end_to_end(self):
        # fit -> sample -> density with a ZERO entry: the entry is drawn as
        # exactly 0 and the prior still integrates to 1 over the other entries
        rng = np.random.default_rng(13)
        n, p, r, T, size = 3, 1, 2, 10, 2000
        k = n * p + 1
        codes = np.array(
            [[model.POS, model.ZERO], [model.NEG, model.POS],
             [model.FREE, model.NEG]], dtype=np.int8,
        )
        signs = SignMatrix(codes)
        sign = np.where(codes == model.NEG, -1.0, 1.0)
        priors = PriorSpec(
            beta_mean=np.zeros((n, k)), beta_var=np.full((n, k), 0.5),
            load_mean=sign, load_var=np.full((n, r), 0.5),
            mu_mean=np.zeros(n), mu_var=np.ones(n),
            phi_mean=np.full(n + r, 0.5), phi_var=np.full(n + r, 0.04),
            sig2_shape=np.full(n + r, 5.0), sig2_scale=np.full(n + r, 0.2),
        )
        with pytest.warns(UserWarning):
            spec = ModelSpec(n=n, p=p, r=r, T=T, priors=priors, signs=signs)
        # synthetic "posterior" draws whose fitted family is a little wider
        # than the prior in every block, so the weights have finite variance
        load = rng.normal(sign, 1.0, (size, n, r))
        load = np.where(codes == model.FREE, load, sign * np.abs(load))
        load[:, codes == model.ZERO] = 0.0
        chain = gibbs.McmcChain(
            n=n, p=p, r=r, T=T, settings=gibbs.McmcSettings(),
            beta=rng.normal(0.0, 0.85, (size, n * k)), load=load,
            mu=rng.normal(0.0, 1.2, (size, n)),
            phi=np.clip(rng.normal(0.5, 0.25, (size, n + r)), -0.99, 0.99),
            sig2=stats.invgamma.rvs(4.0, scale=0.18, size=(size, n + r),
                                    random_state=rng),
            h=np.zeros((size, T, n + r)), f=np.zeros((size, T, r)),
            phi_accept=np.zeros(n + r),
        )
        fam = marglike.fit_ce_family(chain)
        assert fam.load_mean.shape == (n, r) and fam.load_var.shape == (n, r)
        logw = np.empty(20_000)
        for i in range(len(logw)):
            draw = marglike.sample_from_family(fam, signs, rng)
            assert draw.load[0, 1] == 0.0
            assert signs.satisfied_by(draw.load)
            logw[i] = marglike.log_prior(draw, spec) - marglike.family_logpdf(
                fam, draw, signs
            )
        w = np.exp(logw)
        mcse = w.std() / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 4 * mcse


class TestAdaptiveIntegratedLikelihood:
    def test_reports_em_iterations(self):
        from varfsv import simulate

        bundle = simulate.generate_dataset(
            simulate.DgpConfig(n=3, p=1, r=1, T=30, seed=5)
        )
        y, x, draw = bundle.y, bundle.x, bundle.truth
        res = marglike.adaptive_integrated_likelihood(
            y, x, draw, np.random.default_rng(0)
        )
        want = intlike.em_mode(y, x, draw).n_em_iters
        assert res.n_em_iters > 0
        assert res.n_em_iters == want


class TestMarginalLikelihood:
    def test_conjugate_micro_model_oracle(self):
        rng = np.random.default_rng(7)
        n, p, T = 1, 1, 6
        s2 = 0.09
        raw = np.empty(T + p)
        raw[0] = 0.0
        for t in range(1, T + p):
            raw[t] = 0.2 + 0.5 * raw[t - 1] + np.sqrt(s2) * rng.standard_normal()
        y, x = model.build_lagged(raw[:, None], p)
        vbeta = np.array([[4.0, 0.25]])
        priors = PriorSpec(
            beta_mean=np.zeros((1, 2)), beta_var=vbeta,
            load_mean=np.zeros((1, 0)), load_var=np.zeros((1, 0)),
            mu_mean=np.array([np.log(s2)]), mu_var=np.array([1e-10]),
            phi_mean=np.array([0.95]), phi_var=np.array([0.01]),
            sig2_shape=np.array([2e4]), sig2_scale=np.array([2e-4]),
        )
        spec = ModelSpec(n=n, p=p, r=0, T=T, priors=priors,
                         signs=SignMatrix.all_free(1, 0))
        settings = gibbs.McmcSettings(burn_in=300, draws=900, seed=9)
        chain = gibbs.run_chain(y, x, spec, settings)
        res = marglike.marginal_likelihood(
            y, x, spec, chain, r2=200, rng=np.random.default_rng(10)
        )
        cov = s2 * np.eye(T) + x @ np.diag(vbeta[0]) @ x.T
        want = stats.multivariate_normal.logpdf(y[:, 0], np.zeros(T), cov)
        assert abs(res.log_value - want) <= 3 * res.se + 0.01
        assert res.ess > 10

    def test_reproducible_given_rng(self):
        rng = np.random.default_rng(8)
        y, x, spec, chain = small_chain(rng, draws=60)
        a = marglike.marginal_likelihood(
            y, x, spec, chain, r2=20, rng=np.random.default_rng(1)
        )
        b = marglike.marginal_likelihood(
            y, x, spec, chain, r2=20, rng=np.random.default_rng(1)
        )
        assert a.log_value == b.log_value
        assert a.r1_history == b.r1_history
        assert a.log_weights.shape == (20,)
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_r1_adaptation_bounded(self):
        rng = np.random.default_rng(9)
        y, x, spec, chain = small_chain(rng, draws=60)
        res = marglike.marginal_likelihood(
            y, x, spec, chain, r2=15, rng=np.random.default_rng(2), r1_cap=80
        )
        assert all(10 <= r1 <= 80 for r1 in res.r1_history)


class TestSelectFactorCount:
    def test_single_candidate_returned(self):
        rng = np.random.default_rng(10)
        y, x, spec, chain = small_chain(rng, draws=60)
        rows = marglike.select_factor_count(
            y, x, lambda r: marglike.reduced_form_spec(spec, r), [1],
            gibbs.McmcSettings(burn_in=50, draws=80, seed=3), r2=15, seed=0,
        )
        assert len(rows) == 1 and rows[0].r == 1 and rows[0].error is None
        assert np.isfinite(rows[0].log_ml)

    def test_failed_candidate_marked_not_raised(self):
        rng = np.random.default_rng(11)
        y, x, spec, chain = small_chain(rng, draws=60)

        def builder(r):
            if r == 2:
                raise ValueError("boom")
            return marglike.reduced_form_spec(spec, r)

        rows = marglike.select_factor_count(
            y, x, builder, [1, 2],
            gibbs.McmcSettings(burn_in=40, draws=60, seed=3), r2=10, seed=0,
        )
        by_r = {row.r: row for row in rows}
        assert by_r[1].error is None
        assert "boom" in by_r[2].error

    def test_reduced_form_spec_from_r0_template(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((30, 2))
        priors = model.default_priors(data, 2, 1, 0)
        spec0 = ModelSpec(n=2, p=1, r=0, T=25, priors=priors,
                          signs=SignMatrix.all_free(2, 0))
        spec2 = marglike.reduced_form_spec(spec0, 2)
        assert spec2.r == 2
        assert spec2.priors.phi_mean.shape == (4,)
        assert spec2.priors.load_var.shape == (2, 2)

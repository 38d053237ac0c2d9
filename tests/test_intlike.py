import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from varfsv import gibbs, intlike, simulate
from varfsv.bandlin import BandSymMatrix
from varfsv.exceptions import (
    MaxIterationsExceededError,
    NonStationaryError,
    NotPositiveDefiniteError,
    NumericalError,
)
from varfsv.model import LatentStates, ParamDraw, Permutation, permute_data, permute_model


def make_problem(rng, n=2, p=1, r=1, T=3, load_scale=1.0):
    k = n * p + 1
    draw = ParamDraw(
        beta=rng.standard_normal(n * k) * 0.2,
        load=rng.standard_normal((n, r)) * load_scale,
        mu=rng.uniform(-1.5, -0.5, n),
        phi=rng.uniform(0.5, 0.95, n + r),
        sig2=rng.uniform(0.05, 0.3, n + r),
    )
    x = np.column_stack([np.ones(T), rng.standard_normal((T, n * p))])
    y = rng.standard_normal((T, n))
    return y, x, draw


def dense_state_covariance(mu, phi, sig2, T):
    d = len(phi)
    m = np.tile(np.concatenate([mu, np.zeros(d - len(mu))]), T)
    H = np.eye(T * d)
    for t in range(1, T):
        H[t * d : (t + 1) * d, (t - 1) * d : t * d] = -np.diag(phi)
    s = np.tile(sig2, T).astype(float)
    s[:d] = sig2 / (1 - phi**2)
    cov = np.linalg.inv(H.T @ np.diag(1 / s) @ H)
    return m, cov


class TestStatePrior:
    @pytest.mark.parametrize("T", [1, 4])
    def test_assembly_matches_dense(self, T):
        mu = np.array([-1.0, 0.5])
        phi = np.array([0.9, -0.3, 0.6])
        sig2 = np.array([0.1, 0.2, 0.05])
        prior = intlike.StatePriorAssembly.build(mu, phi, sig2, T)
        m, cov = dense_state_covariance(mu, phi, sig2, T)
        assert np.allclose(prior.mean, m)
        zero = np.zeros((T, 3))
        precision = intlike.neg_q_hessian(prior, zero, zero).to_dense()
        assert np.allclose(precision, np.linalg.inv(cov), atol=1e-10)

    @pytest.mark.parametrize("T", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 3])
    def test_ar1_precision_times_matches_dense(self, T, d):
        # the dense H' S^{-1} H stacked time-major (stride d) and, permuted,
        # series-major (stride 1)
        rng = np.random.default_rng(10 * T + d)
        phi = rng.uniform(-0.95, 0.95, d)
        sig2 = rng.uniform(0.05, 0.3, d)
        H = np.eye(T * d)
        for t in range(1, T):
            H[t * d : (t + 1) * d, (t - 1) * d : t * d] = -np.diag(phi)
        s = np.tile(sig2, T)
        s[:d] = sig2 / (1 - phi**2)
        dense = H.T @ (H / s[:, None])
        main, lag = intlike.ar1_precision_diagonals(phi, sig2, T)
        v = rng.standard_normal(T * d)
        series = np.arange(T * d).reshape(T, d).T.ravel()
        got = intlike.ar1_precision_times(main.T.ravel(), lag.T.ravel(), v, d)
        assert np.allclose(got, dense @ v, rtol=1e-14, atol=1e-14)
        got = intlike.ar1_precision_times(main.ravel(), lag.ravel(), v[series], 1)
        assert np.allclose(got, (dense @ v)[series], rtol=1e-14, atol=1e-14)

    def test_log_state_prior_T1_is_stationary_density(self):
        mu = np.array([-1.0])
        phi = np.array([0.8, 0.5])
        sig2 = np.array([0.2, 0.1])
        h = np.array([[-0.7, 0.2]])
        got = intlike.log_state_prior(h, mu, phi, sig2)
        want = stats.norm.logpdf(
            -0.7, -1.0, np.sqrt(0.2 / (1 - 0.64))
        ) + stats.norm.logpdf(0.2, 0.0, np.sqrt(0.1 / (1 - 0.25)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_log_state_prior_phi_zero_independent(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 2))
        mu = np.array([0.3])
        sig2 = np.array([0.5, 0.2])
        got = intlike.log_state_prior(h, mu, np.zeros(2), sig2)
        want = stats.norm.logpdf(h[:, 0], 0.3, np.sqrt(0.5)).sum()
        want += stats.norm.logpdf(h[:, 1], 0.0, np.sqrt(0.2)).sum()
        assert got == pytest.approx(want, abs=1e-12)

    def test_log_state_prior_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        mu = np.array([-0.5, 0.2])
        phi = np.array([0.7, -0.4, 0.9])
        sig2 = np.array([0.3, 0.15, 0.08])
        T = 4
        h = rng.standard_normal((T, 3))
        m, cov = dense_state_covariance(mu, phi, sig2, T)
        want = stats.multivariate_normal.logpdf(h.ravel(), m, cov)
        got = intlike.log_state_prior(h, mu, phi, sig2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_nonstationary_raises(self):
        with pytest.raises(NonStationaryError):
            intlike.log_state_prior(
                np.zeros((2, 1)), np.zeros(1), np.array([1.0]), np.array([0.1])
            )


class TestCondLikelihood:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_factor_precision_matches_per_period_formula(self, r):
        rng = np.random.default_rng(2)
        y, x, draw = make_problem(rng, n=3, r=r, T=4)
        eps = intlike.residuals(y, x, draw.beta)
        h = 0.5 * rng.standard_normal((2, 4, 3 + r))  # one leading batch axis
        c, u, ehy = intlike.factor_precision(eps, draw.load, h)
        assert c.shape == (2, 4, r, r) and u.shape == (2, 4, r)
        for i in range(2):
            for t in range(4):
                sinv = np.diag(np.exp(-h[i, t, :3]))
                want = draw.load.T @ sinv @ draw.load + np.diag(np.exp(-h[i, t, 3:]))
                assert np.allclose(c[i, t] @ c[i, t].T, want, rtol=1e-12, atol=1e-12)
                assert np.array_equal(c[i, t], np.tril(c[i, t]))
                want = draw.load.T @ sinv @ eps[t]
                assert np.allclose(c[i, t] @ u[i, t], want, rtol=1e-12, atol=1e-12)
                assert np.array_equal(ehy[i, t], np.diag(sinv))

    def test_non_pd_factor_precision_raises_typed_error(self):
        # exp(-h) underflows to 0, so K_t = 0: every path through K_t's
        # factor raises the package's error, not numpy's
        rng = np.random.default_rng(4)
        y, x, draw = make_problem(rng, n=2, r=1, T=3)
        h = np.full((3, 3), 800.0)
        with pytest.raises(NotPositiveDefiniteError):
            intlike.log_cond_likelihood(y, x, draw.beta, draw.load, h)
        for hessian in (intlike.hessian_em, intlike.hessian_direct):
            with pytest.raises(NotPositiveDefiniteError):
                hessian(intlike._expansion_at(h, draw, y, x))
        with pytest.raises(NotPositiveDefiniteError):
            gibbs.sample_factors(intlike.residuals(y, x, draw.beta), draw.load, h, rng)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4), st.integers(0, 2), st.sampled_from([None, 1, 3]),
        st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_tri_solve_matches_dense_solve(self, r, n_lead, k, trans, seed):
        rng = np.random.default_rng(seed)
        lead = tuple(rng.integers(1, 4, size=n_lead))
        a = rng.standard_normal(lead + (r, r))
        c = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + np.eye(r))
        b = rng.standard_normal(lead + (r,) + (() if k is None else (k,)))
        x = intlike.tri_solve(c, b, trans=trans)
        m = np.swapaxes(c, -1, -2) if trans else c
        want = np.linalg.solve(m, b[..., None] if k is None else b).reshape(b.shape)
        assert x.shape == b.shape
        scale = max(1.0, np.abs(want).max(initial=0.0))
        assert np.allclose(x, want, rtol=1e-10, atol=1e-10 * scale)

    def test_zero_loadings_zero_h_is_standard_normal(self):
        rng = np.random.default_rng(3)
        y, x, draw = make_problem(rng, n=2, T=5, load_scale=0.0)
        h = np.zeros((5, 3))
        eps = intlike.residuals(y, x, draw.beta)
        want = stats.norm.logpdf(eps).sum()
        got = intlike.log_cond_likelihood(y, x, draw.beta, draw.load, h)
        assert got == pytest.approx(want, abs=1e-10)

    def test_matches_dense_oracle_small(self):
        rng = np.random.default_rng(4)
        y, x, draw = make_problem(rng, n=2, r=1, T=1)
        h = rng.standard_normal((1, 3))
        eps = intlike.residuals(y, x, draw.beta)[0]
        cov = draw.load @ np.diag(np.exp(h[0, 2:])) @ draw.load.T + np.diag(
            np.exp(h[0, :2])
        )
        want = stats.multivariate_normal.logpdf(eps, np.zeros(2), cov)
        got = intlike.log_cond_likelihood(y, x, draw.beta, draw.load, h)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n, r", [(5, 1), (1, 1), (3, 2), (2, 0)])
    def test_woodbury_and_dense_routes_agree(self, n, r):
        rng = np.random.default_rng(5)
        y, x, draw = make_problem(rng, n=n, r=r, T=7)
        h = 0.3 * rng.standard_normal((7, n + r))
        got = intlike.log_cond_likelihood(y, x, draw.beta, draw.load, h)
        # dense oracle, time by time
        eps = intlike.residuals(y, x, draw.beta)
        want = 0.0
        for t in range(7):
            cov = draw.load @ np.diag(np.exp(h[t, n:])) @ draw.load.T + np.diag(
                np.exp(h[t, :n])
            )
            want += stats.multivariate_normal.logpdf(eps[t], np.zeros(n), cov)
        assert got == pytest.approx(want, abs=1e-10)

    def test_invariant_under_matched_permutation(self):
        rng = np.random.default_rng(6)
        y, x, draw = make_problem(rng, n=4, p=2, r=1, T=6)
        h = 0.3 * rng.standard_normal((6, 5))
        states = LatentStates(h=h, f=np.zeros((6, 1)))
        perm = Permutation(rng.permutation(4))
        base = intlike.log_cond_likelihood(y, x, draw.beta, draw.load, h)
        base += intlike.log_state_prior(h, draw.mu, draw.phi, draw.sig2)
        yp, xp = permute_data(y, x, perm)
        dp, sp = permute_model(draw, states, perm)
        got = intlike.log_cond_likelihood(yp, xp, dp.beta, dp.load, sp.h)
        got += intlike.log_state_prior(sp.h, dp.mu, dp.phi, dp.sig2)
        assert got == pytest.approx(base, abs=1e-10)

    def test_batched_evaluation_matches_loop(self):
        rng = np.random.default_rng(7)
        y, x, draw = make_problem(rng, n=3, r=1, T=4)
        hs = 0.2 * rng.standard_normal((5, 4, 4))
        batch = intlike.log_cond_likelihood(y, x, draw.beta, draw.load, hs)
        single = [
            intlike.log_cond_likelihood(y, x, draw.beta, draw.load, hs[i])
            for i in range(5)
        ]
        assert np.allclose(batch, single, atol=1e-12)

    @pytest.mark.parametrize("s", [-20.0, -30.0, -40.0, -50.0])
    def test_exact_at_very_negative_h(self, s):
        # one idiosyncratic log variance at s in every period; the Woodbury
        # form eps' Sigma^{-1} eps - |u|^2 loses the quadratic form to
        # cancellation there (off by 58 nats at s = -40 on these data)
        n, T = 3, 4
        load = np.array([[1.0], [0.5], [-0.7]])
        h = np.zeros((T, n + 1))
        h[:, 0] = s
        y = np.random.default_rng(31).standard_normal((T, n))
        got = intlike.log_cond_likelihood(y, np.ones((T, 1)), np.zeros(n), load, h)
        with mpmath.workdps(60):
            lm = mpmath.matrix(load.tolist())
            want = mpmath.mpf(0)
            for t in range(T):
                cov = lm * lm.T
                for i in range(n):
                    cov[i, i] += mpmath.exp(mpmath.mpf(h[t, i]))
                yt = mpmath.matrix(y[t].tolist())
                quad = (yt.T * mpmath.lu_solve(cov, yt))[0]
                logdet = mpmath.log(mpmath.det(cov))
                want -= (n * mpmath.log(2 * mpmath.pi) + logdet + quad) / 2
        assert abs(got - float(want)) <= 1e-6


class TestEmMode:
    def test_r0_mode_matches_per_series_optimizer(self):
        rng = np.random.default_rng(8)
        y, x, draw = make_problem(rng, n=2, r=0, T=6)
        res = intlike.em_mode(y, x, draw)
        eps = intlike.residuals(y, x, draw.beta)
        # independent oracle: BFGS on each series' negative log posterior
        for i in range(2):
            phi, s2, mu = draw.phi[i], draw.sig2[i], draw.mu[i]

            def neg_post(hv, i=i, phi=phi, s2=s2, mu=mu):
                lp = stats.norm.logpdf(hv[0], mu, np.sqrt(s2 / (1 - phi**2)))
                lp += stats.norm.logpdf(
                    hv[1:], mu + phi * (hv[:-1] - mu), np.sqrt(s2)
                ).sum()
                lp += stats.norm.logpdf(eps[:, i], 0.0, np.exp(hv / 2)).sum()
                return -lp

            sol = optimize.minimize(neg_post, np.full(6, mu), method="BFGS", tol=1e-12)
            assert np.allclose(res.h_hat[:, i], sol.x, atol=1e-5)

    def test_gradient_matches_finite_differences(self):
        # Fisher's identity: grad Q at its own E-step is the exact score
        rng = np.random.default_rng(9)
        y, x, draw = make_problem(rng, n=2, r=1, T=3)
        eps = intlike.residuals(y, x, draw.beta)
        prior = intlike.StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, 3)
        h = rng.standard_normal((3, 3)) * 0.5
        c, u, _ = intlike.factor_precision(eps, draw.load, h)
        _, _, zhat = intlike._estep(eps, draw.load, c, u)
        hf = h.ravel()
        grad = intlike.q_gradient(prior, h, zhat)

        def log_target(hflat):
            hc = hflat.reshape(3, 3)
            return intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) + intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        step = 3e-4
        fd = np.empty_like(grad)
        for j in range(hf.size):
            hp, hm = hf.copy(), hf.copy()
            hp[j] += step
            hm[j] -= step
            fd[j] = (log_target(hp) - log_target(hm)) / (2 * step)
        assert np.max(np.abs(fd - grad)) / np.max(np.abs(grad)) < 1e-6

    def test_q_monotone_and_fixed_point(self):
        rng = np.random.default_rng(10)
        y, x, draw = make_problem(rng, n=3, r=1, T=8)
        res = intlike.em_mode(y, x, draw)
        again = intlike.em_mode(y, x, draw, h0=res.h_hat)
        assert again.n_em_iters <= 2
        assert np.allclose(again.h_hat, res.h_hat, atol=1e-3)

    @pytest.mark.parametrize("n, r, T", [(2, 1, 4), (3, 2, 3), (3, 1, 6)])
    def test_mode_matches_joint_optimizer(self, n, r, T):
        rng = np.random.default_rng(20)
        y, x, draw = make_problem(rng, n=n, r=r, T=T)
        res = intlike.em_mode(y, x, draw)

        # independent oracle: BFGS on the negative exact log target
        def neg_target(hflat):
            hc = hflat.reshape(T, n + r)
            return -intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) - intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        start = np.tile(np.concatenate([draw.mu, np.zeros(r)]), T)
        sol = optimize.minimize(neg_target, start, method="BFGS", tol=1e-12)
        assert np.allclose(res.h_hat.ravel(), sol.x, atol=2e-4)

    def test_accepted_point_factors_reused(self, monkeypatch):
        # each trial point is factored once, for the target; the next E-step
        # reuses the factors of the accepted one
        rng = np.random.default_rng(23)
        y, x, draw = make_problem(rng, n=3, r=2, T=6)
        calls = {"factor_precision": 0, "log_state_prior": 0}
        for name in calls:
            fn = getattr(intlike, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(intlike, name, counted)
        res = intlike.em_mode(y, x, draw)
        assert res.n_em_iters > 1
        assert calls["factor_precision"] == calls["log_state_prior"]

    def test_failed_line_search_and_iteration_cap_raise(self, monkeypatch):
        rng = np.random.default_rng(21)
        y, x, draw = make_problem(rng, n=3, r=1, T=8)
        with pytest.raises(MaxIterationsExceededError):
            intlike.em_mode(y, x, draw, max_em=1)
        # a descent direction leaves no non-decreasing step from a point far
        # from the mode
        score = intlike.q_gradient
        monkeypatch.setattr(intlike, "q_gradient", lambda *a: -score(*a))
        with pytest.raises(NumericalError, match="non-decreasing"):
            intlike.em_mode(y, x, draw, h0=np.full((8, 4), 2.0))

    def test_non_pd_exact_hessian_falls_back_to_em_gradient_step(self, monkeypatch):
        # every exact Hessian fails the band Cholesky, so every step is the
        # -H_Q step, and the search must still reach the mode
        n, r, T = 3, 1, 6
        rng = np.random.default_rng(20)
        y, x, draw = make_problem(rng, n=n, r=r, T=T)
        monkeypatch.setattr(
            intlike, "_louis_neg_hessian", lambda ex: BandSymMatrix(-ex.neg_hq.bands)
        )
        res = intlike.em_mode(y, x, draw)
        assert res.n_newton_steps < res.n_em_iters

        def neg_target(hflat):
            hc = hflat.reshape(T, n + r)
            return -intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) - intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        start = np.tile(np.concatenate([draw.mu, np.zeros(r)]), T)
        sol = optimize.minimize(neg_target, start, method="BFGS", tol=1e-12)
        assert np.allclose(res.h_hat.ravel(), sol.x, atol=2e-4)

    @pytest.mark.parametrize("capped", [True, False])
    def test_overshooting_step_is_capped_or_halved(self, monkeypatch, capped):
        # series 0 is fitted almost exactly and barely loads on the factors,
        # under a weak prior: its mode is near h = -10, and the full first
        # Newton step from the flat start sends it below -90, where K_t fails
        # its Cholesky in floating point.  Capped, every trial point keeps
        # K_t PD; uncapped, that trial point counts as a decrease and the
        # step is halved.
        rng = np.random.default_rng(3)
        y, x, draw = make_problem(rng, n=3, r=2, T=4)
        draw.sig2[0], draw.phi[0] = 1.0, 0.99
        draw.load[0] *= 0.01
        y[:, 0] = (x @ draw.beta_matrix().T)[:, 0] + 1e-8 * rng.standard_normal(4)
        if not capped:
            monkeypatch.setattr(intlike, "_EM_MAX_STEP", np.inf)
        raised = []
        fp = intlike.factor_precision

        def recorded(*args):
            try:
                return fp(*args)
            except NotPositiveDefiniteError:
                raised.append(args[2])
                raise

        monkeypatch.setattr(intlike, "factor_precision", recorded)
        res = intlike.em_mode(y, x, draw)
        assert bool(raised) is not capped
        assert all(h.min() < -50 for h in raised)

        def neg_target(hflat):
            hc = hflat.reshape(4, 5)
            return -intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) - intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        start = np.tile(np.concatenate([draw.mu, np.zeros(2)]), 4)
        sol = optimize.minimize(neg_target, start, method="BFGS", tol=1e-12)
        assert np.allclose(res.h_hat.ravel(), sol.x, atol=2e-4)
        assert res.h_hat[:, 0].max() < -9.0

    def test_iterations_bounded_at_design_size(self):
        # (n, p, r, T) = (20, 2, 3, 200) at the truth: the EM gradient step
        # alone took 27 iterations here
        cfg = simulate.DgpConfig(n=20, p=2, r=3, T=200, seed=1)
        bundle = simulate.generate_dataset(cfg)
        res = intlike.em_mode(bundle.y, bundle.x, bundle.truth)
        assert res.n_em_iters <= 15
        assert res.n_newton_steps == res.n_em_iters


class TestHessians:
    def fd_hessian(self, fn, h0, step=1e-3):
        m = h0.size
        H = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                hpp, hpm, hmp, hmm = (h0.copy() for _ in range(4))
                hpp[[i, j]] += step
                hmm[[i, j]] -= step
                hpm[i] += step
                hpm[j] -= step
                hmp[i] -= step
                hmp[j] += step
                if i == j:
                    hp, hm = h0.copy(), h0.copy()
                    hp[i] += step
                    hm[i] -= step
                    H[i, i] = (fn(hp) - 2 * fn(h0) + fn(hm)) / step**2
                else:
                    H[i, j] = H[j, i] = (fn(hpp) - fn(hpm) - fn(hmp) + fn(hmm)) / (
                        4 * step**2
                    )
        return H

    @pytest.mark.parametrize("n, r, T", [(2, 1, 3), (3, 2, 3), (4, 1, 3), (2, 0, 4)])
    def test_hessian_direct_matches_finite_differences(self, n, r, T):
        # off the mode, where the exact Hessian and -H_Q differ most
        rng = np.random.default_rng(11)
        y, x, draw = make_problem(rng, n=n, r=r, T=T)
        h0 = (0.4 * rng.standard_normal((T, n + r))).ravel()

        def log_target(hflat):
            hc = hflat.reshape(T, n + r)
            return intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) + intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        want = -self.fd_hessian(log_target, h0)
        got = intlike.hessian_direct(intlike._expansion_at(h0, draw, y, x)).to_dense()
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_direct_cross_time_band_is_state_precision(self):
        rng = np.random.default_rng(12)
        y, x, draw = make_problem(rng, n=2, r=1, T=4)
        h = 0.3 * rng.standard_normal((4, 3))
        prior = intlike.StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, 4)
        got = intlike.hessian_direct(intlike._expansion_at(h.ravel(), draw, y, x))
        assert np.array_equal(got.bands[3], prior.lag)

    def test_em_hessian_beyond_band_zero_and_spd(self):
        rng = np.random.default_rng(13)
        y, x, draw = make_problem(rng, n=2, r=1, T=5)
        res = intlike.em_mode(y, x, draw)
        kh = intlike.hessian_em(intlike._expansion_at(res.h_hat, draw, y, x))
        assert kh.bandwidth <= 3
        dense = kh.to_dense()
        m = dense.shape[0]
        for i in range(m):
            for j in range(m):
                if abs(i - j) > 3:
                    assert dense[i, j] == 0.0
        kh.cholesky()  # SPD

    def test_r0_em_hessian_is_univariate_negative_hessian(self):
        rng = np.random.default_rng(14)
        y, x, draw = make_problem(rng, n=2, r=0, T=4)
        res = intlike.em_mode(y, x, draw)
        kh = intlike.hessian_em(intlike._expansion_at(res.h_hat, draw, y, x))

        def log_target(hflat):
            hc = hflat.reshape(4, 2)
            return intlike.log_cond_likelihood(
                y, x, draw.beta, draw.load, hc
            ) + intlike.log_state_prior(hc, draw.mu, draw.phi, draw.sig2)

        want = -self.fd_hessian(log_target, res.h_hat.ravel())
        assert np.max(np.abs(kh.to_dense() - want)) / np.max(np.abs(want)) < 1e-5

    def test_em_and_direct_hessians_close_at_mode(self):
        rng = np.random.default_rng(16)
        y, x, draw = make_problem(rng, n=3, r=1, T=6)
        res = intlike.em_mode(y, x, draw)
        ex = intlike._expansion_at(res.h_hat, draw, y, x)
        kem = intlike.hessian_em(ex).to_dense()
        kdir = intlike.hessian_direct(ex).to_dense()
        scale = np.abs(kdir).max()
        assert np.max(np.abs(kem - kdir)) <= 0.10 * scale

    def test_zero_loadings_factor_blocks_reduce(self):
        rng = np.random.default_rng(16)
        y, x, draw = make_problem(rng, n=2, r=1, T=3, load_scale=0.0)
        h = 0.3 * rng.standard_normal((3, 3))
        prior = intlike.StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, 3)
        got = intlike.hessian_direct(intlike._expansion_at(h.ravel(), draw, y, x)).to_dense()
        eps = intlike.residuals(y, x, draw.beta)
        want = intlike.neg_q_hessian(prior, h, np.zeros_like(h)).to_dense()
        for t in range(3):
            for i in range(2):
                want[3 * t + i, 3 * t + i] += 0.5 * eps[t, i] ** 2 * np.exp(-h[t, i])
        assert np.allclose(got, want, atol=1e-12)


class TestIntegratedLikelihood:
    def test_quadrature_oracle_1d(self):
        rng = np.random.default_rng(17)
        y = np.array([[0.4]])
        x = np.array([[1.0]])
        draw = ParamDraw(
            beta=np.array([0.1]), load=np.zeros((1, 0)), mu=np.array([-0.8]),
            phi=np.array([0.9]), sig2=np.array([0.3]),
        )
        sd = np.sqrt(0.3 / (1 - 0.81))

        def integrand(h):
            return stats.norm.pdf(0.4, 0.1, np.exp(h / 2)) * stats.norm.pdf(
                h, -0.8, sd
            )

        truth, _ = integrate.quad(integrand, -0.8 - 10 * sd, -0.8 + 10 * sd)
        res = intlike.integrated_likelihood(y, x, draw, r1=4000, rng=rng)
        assert abs(res.log_value - np.log(truth)) <= 3 * res.se

    def test_consistency_doubling_r1(self):
        rng = np.random.default_rng(18)
        y, x, draw = make_problem(rng, n=2, r=1, T=8)
        a = intlike.integrated_likelihood(y, x, draw, 256, np.random.default_rng(1))
        b = intlike.integrated_likelihood(y, x, draw, 512, np.random.default_rng(2))
        assert abs(a.log_value - b.log_value) <= 3 * np.hypot(a.se, b.se)
        assert a.ess > 2 and b.ess > 2

    def test_permutation_invariance_common_draws(self):
        rng = np.random.default_rng(19)
        y, x, draw = make_problem(rng, n=3, p=1, r=1, T=5)
        g, em, _ = intlike.importance_density(y, x, draw)
        hs, log_q = g.sample_with_logpdf(np.random.default_rng(3), 64)
        base = intlike.integrated_likelihood_from_draws(y, x, draw, hs, log_q)

        perm = Permutation([2, 0, 1])
        states = LatentStates(h=em.h_hat, f=np.zeros((5, 1)))
        dp, _ = permute_model(draw, states, perm)
        yp, xp = permute_data(y, x, perm)
        gp, emp, _ = intlike.importance_density(yp, xp, dp)
        # mode and precision permute covariantly
        assert np.allclose(emp.h_hat[:, :3], em.h_hat[:, perm.order], atol=1e-8)
        hp = hs.reshape(64, 5, 4).copy()
        hp[:, :, :3] = hp[:, :, perm.order]
        hp = hp.reshape(64, -1)
        got = intlike.integrated_likelihood_from_draws(yp, xp, dp, hp, gp.logpdf(hp))
        assert got.log_value == pytest.approx(base.log_value, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4), st.integers(0, 1), st.sampled_from(["em", "direct"]),
        st.randoms(use_true_random=False),
    )
    def test_order_invariance_property(self, n, r, route, pyrandom):
        # reordering the variables moves the importance density covariantly,
        # so under common random numbers the estimate must not change
        rng = np.random.default_rng(pyrandom.getrandbits(32))
        T = 5
        y, x, draw = make_problem(rng, n=n, p=1, r=r, T=T)
        perm = Permutation(rng.permutation(n))
        g, em, _ = intlike.importance_density(y, x, draw, route=route)
        hs, log_q = g.sample_with_logpdf(rng, 64)
        base = intlike.integrated_likelihood_from_draws(y, x, draw, hs, log_q)

        states = LatentStates(h=em.h_hat, f=np.zeros((T, r)))
        dp, _ = permute_model(draw, states, perm)
        yp, xp = permute_data(y, x, perm)
        gp, _, _ = intlike.importance_density(yp, xp, dp, route=route)
        hp = hs.reshape(64, T, n + r).copy()
        hp[:, :, :n] = hp[:, :, perm.order]
        hp = hp.reshape(64, -1)
        got = intlike.integrated_likelihood_from_draws(yp, xp, dp, hp, gp.logpdf(hp))
        assert got.log_value == pytest.approx(base.log_value, abs=1e-8)

    @pytest.mark.parametrize("route", ["em", "direct"])
    @pytest.mark.parametrize("pd", [True, False])
    def test_importance_density_reuses_mode_search_factors(self, monkeypatch, route, pd):
        # K_t is factored only for the mode search's targets: the Hessian and
        # the -H_Q fallback come from the E-step at the last accepted point
        rng = np.random.default_rng(24)
        y, x, draw = make_problem(rng, n=3, r=2, T=6)
        calls = {"factor_precision": 0, "log_state_prior": 0}
        for name in calls:
            fn = getattr(intlike, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(intlike, name, counted)
        if not pd:
            monkeypatch.setattr(
                intlike, f"hessian_{route}",
                lambda ex: BandSymMatrix(-ex.neg_hq.bands),
            )
        g, em, fallback = intlike.importance_density(y, x, draw, route=route)
        assert fallback is not pd
        assert calls["factor_precision"] == calls["log_state_prior"] > 1
        assert np.array_equal(g.mean, em.h_hat.ravel())

    @pytest.mark.parametrize(
        "r1_of_c",
        [lambda c: 1, lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 200],
        ids=["1", "c-1", "c", "c+1", "200"],
    )
    def test_chunked_weights_equal_one_shot_sum(self, r1_of_c):
        # c draws fill one chunk; 200 draws are one full chunk and a partial one
        n, r, T = 3, 2, 200
        c = intlike._CHUNK // (T * (n + r))
        assert c + 1 < 200 < 2 * c
        r1 = r1_of_c(c)
        rng = np.random.default_rng(26)
        y, x, draw = make_problem(rng, n=n, r=r, T=T)
        hs = np.concatenate([draw.mu, np.zeros(r)]) + 0.5 * rng.standard_normal(
            (r1, T, n + r)
        )
        log_q = rng.standard_normal(r1)
        got = intlike.importance_log_weights(y, x, draw, hs.reshape(r1, -1), log_q)
        want = (
            intlike.log_cond_likelihood(y, x, draw.beta, draw.load, hs)
            + intlike.log_state_prior(hs, draw.mu, draw.phi, draw.sig2)
            - log_q
        )
        assert got.shape == (r1,)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("route", ["EM", "dense", None])
    def test_unknown_route_raises(self, route):
        rng = np.random.default_rng(22)
        y, x, draw = make_problem(rng, n=2, r=1, T=4)
        with pytest.raises(ValueError, match="route"):
            intlike.importance_density(y, x, draw, route=route)

    def test_log_importance_average_basics(self):
        lw = np.log(np.array([1.0, 1.0, 1.0, 1.0]))
        log_mean, se, ess = intlike.log_importance_average(lw + 7.0)
        assert log_mean == pytest.approx(7.0)
        assert se == pytest.approx(0.0, abs=1e-12)
        assert ess == pytest.approx(4.0)

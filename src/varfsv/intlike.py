"""Integrated (observed-data) likelihood machinery.

The likelihood of the data with factors integrated out analytically and
log-volatility paths integrated out by importance sampling: a Gaussian
importance density is built from the mode of p(h | y, params) and the
negative Hessian at the mode.  The mode comes from the EM gradient algorithm
(Lange, 1995): one banded Newton step on the EM Q function per iteration,
halved until the exact log target does not decrease, so the iterates are
monotone in that target.  Two Hessian routes are available: the exact
negative Hessian from Louis's identity (route "direct"), and the EM
decomposition with only part of the missing information (the default).

Throughout, `h` is stored (T, n+r) with the idiosyncratic block first;
stacked vectors interleave time-major, matching the banded state precision.
The factor-block precision and the AR(1) prior diagonals defined here are
the only copies in the package; the Gibbs sampler uses them too.
"""

from dataclasses import dataclass

import numpy as np

from .bandlin import BandSymMatrix, GaussianInPrecisionForm, band_add
from .exceptions import (
    DegenerateWeightsError,
    MaxIterationsExceededError,
    NonStationaryError,
    NotPositiveDefiniteError,
    NumericalError,
)

_LOG2PI = np.log(2.0 * np.pi)


def residuals(y, x, beta):
    """VAR residuals y_t - (I kron x_t') beta, shape (T, n)."""
    n = y.shape[1]
    bmat = np.asarray(beta, dtype=float).reshape(n, -1)
    return y - x @ bmat.T


def factor_precision(eps, load, h):
    """Per-period precision and linear term of the factors given the data:
    K_t = L' Sigma_t^{-1} L + Omega_t^{-1} and b_t = L' Sigma_t^{-1} eps_t,
    so f_t | y_t, h_t ~ N(K_t^{-1} b_t, K_t^{-1}).

    h is (..., T, n+r) with any leading batch axes; returns K (..., T, r, r),
    b (..., T, r) and Sigma_t^{-1} = exp(-h_y) as (..., T, n).
    """
    n, r = load.shape
    ehy = np.exp(-h[..., :n])
    # one GEMM against the products L_j L_k laid out as (n, r*r)
    K = (ehy @ (load[:, :, None] * load[:, None, :]).reshape(n, r * r)).reshape(
        ehy.shape[:-1] + (r, r)
    )
    K[..., np.arange(r), np.arange(r)] += np.exp(-h[..., n:])
    return K, (ehy * eps) @ load, ehy


# ---------------------------------------------------------------------------
# state prior


def ar1_precision_diagonals(phi, sig2, T):
    """Main and first-lag diagonals of the stationary AR(1) prior precision
    of each of the d = len(phi) log-volatility series, both (d, T).

    main[i, t] is the precision of h_{t,i}; lag[i, t] couples h_{t,i} with
    h_{t+1,i} and is zero at t = T-1.  Callers stack the rows in their own
    layout.
    """
    main = np.empty((len(phi), T))
    main[:, 0] = (1.0 - phi**2) / sig2
    main[:, 1:] = (1.0 / sig2)[:, None]
    main[:, :-1] += (phi**2 / sig2)[:, None]
    lag = np.zeros((len(phi), T))
    lag[:, : T - 1] = (-phi / sig2)[:, None]
    return main, lag


@dataclass(frozen=True)
class StatePriorAssembly:
    """Stacked state-equation representation of p(h | mu, phi, sig2).

    mean      m, the stacked unconditional mean (idiosyncratic blocks mu,
              factor blocks zero)
    precision the banded matrix H' S^{-1} H, with H the stacked AR(1)
              differencing operator and S the innovation variances (the first
              time block at the stationary variance sig2 / (1 - phi^2))
    """

    mean: np.ndarray
    precision: BandSymMatrix

    @classmethod
    def build(cls, mu, phi, sig2, T):
        mu = np.asarray(mu, dtype=float)
        phi = np.asarray(phi, dtype=float)
        sig2 = np.asarray(sig2, dtype=float)
        if np.any(np.abs(phi) >= 1.0):
            raise NonStationaryError("|phi| must be < 1")
        if np.any(sig2 <= 0):
            raise ValueError("sig2 must be positive")
        d = len(phi)
        n = len(mu)
        mean = np.tile(np.concatenate([mu, np.zeros(d - n)]), T)
        # time-major stacking: period t occupies [t*d, (t+1)*d), so the lag
        # diagonal sits d bands below the main one
        main, lag = ar1_precision_diagonals(phi, sig2, T)
        bands = np.zeros((d + 1 if T > 1 else 1, T * d))
        bands[0] = main.T.ravel()
        if T > 1:
            bands[d] = lag.T.ravel()
        return cls(mean, BandSymMatrix(bands))


def log_state_prior(h, mu, phi, sig2):
    """Exact Gaussian log-density of the stacked log-volatility paths.

    h has shape (T, d) or (batch, T, d); returns a scalar or (batch,).
    """
    h = np.asarray(h, dtype=float)
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sig2 = np.asarray(sig2, dtype=float)
    if np.any(np.abs(phi) >= 1.0):
        raise NonStationaryError("|phi| must be < 1")
    T, d = h.shape[-2], h.shape[-1]
    m = np.concatenate([mu, np.zeros(d - len(mu))])
    dev = h - m
    quad = np.sum((1.0 - phi**2) / sig2 * dev[..., 0, :] ** 2, axis=-1)
    if T > 1:
        innov = dev[..., 1:, :] - phi * dev[..., :-1, :]
        quad = quad + np.sum(innov**2 / sig2, axis=(-2, -1))
    log_det = -T * np.sum(np.log(sig2)) + np.sum(np.log1p(-(phi**2)))
    return -0.5 * T * d * _LOG2PI + 0.5 * log_det - 0.5 * quad


# ---------------------------------------------------------------------------
# conditional likelihood p(y | beta, L, h), factors integrated out


def log_cond_likelihood(y, x, beta, load, h):
    """Sum over t of log N(y_t; (I kron x_t')beta, L Omega_t L' + Sigma_t).

    h may be (T, n+r) or batched (R, T, n+r); returns scalar or (R,).
    The diagonal-plus-low-rank covariance is handled through the Woodbury
    identity and the matrix determinant lemma, which are exact for every
    (n, r), r = 0 included.
    """
    y = np.asarray(y, dtype=float)
    load = np.atleast_2d(np.asarray(load, dtype=float))
    eps = residuals(y, x, beta)
    h = np.asarray(h, dtype=float)
    batched = h.ndim == 3
    hh = h if batched else h[None]
    out = _log_cond_batch(eps, load, hh)
    return out if batched else float(out[0])


def _log_cond_batch(eps, load, h):
    T, n = eps.shape
    hy = h[:, :, :n]
    hf = h[:, :, n:]
    K, b, ehy = factor_precision(eps, load, h)
    try:
        ck = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("factor-block matrix not PD") from exc
    logdet = np.sum(hy, axis=(1, 2)) + np.sum(hf, axis=(1, 2)) + 2.0 * np.sum(
        np.log(np.diagonal(ck, axis1=-2, axis2=-1)), axis=(1, 2)
    )
    quad = np.sum(eps**2 * ehy, axis=(1, 2)) - np.sum(
        b * np.linalg.solve(K, b[..., None])[..., 0], axis=(1, 2)
    )
    return -0.5 * T * n * _LOG2PI - 0.5 * logdet - 0.5 * quad


# ---------------------------------------------------------------------------
# EM mode finding


@dataclass
class EmResult:
    h_hat: np.ndarray  # (T, n + r)
    n_em_iters: int
    n_newton_steps: int  # one per iteration


def _estep(eps, load, h):
    """Conditional factor moments and the per-coordinate quadratic weights
    z-hat entering the Q function (h is (T, n+r), load (n, r))."""
    K, b, _ = factor_precision(eps, load, h)
    fhat = np.linalg.solve(K, b[..., None])[..., 0]
    kinv = np.linalg.inv(K)
    resid = eps - fhat @ load.T
    zy = resid**2 + np.einsum("nj,tjk,nk->tn", load, kinv, load)
    zf = fhat**2 + np.diagonal(kinv, axis1=1, axis2=2)
    return fhat, kinv, np.concatenate([zy, zf], axis=1)


def q_gradient(prior, h_flat, zhat_flat):
    """Gradient of Q(. | h) at h_flat.  With z-hat from the E-step at h_flat
    itself it is the exact score of log p(h | y, params) (Fisher's
    identity)."""
    dev = h_flat - prior.mean
    return -prior.precision.matvec(dev) - 0.5 * (1.0 - np.exp(-h_flat) * zhat_flat)


def neg_q_hessian(prior, h_flat, zhat_flat):
    """-H_Q: the banded state precision plus a positive diagonal; always PD."""
    return prior.precision.add_diagonal(0.5 * np.exp(-h_flat) * zhat_flat)


def em_mode(y, x, draw, h0=None, eps2=1e-4, max_em=100):
    """Mode of p(h | y, params) by the EM gradient algorithm (Lange, 1995).

    Each iteration runs the E-step at the current h and takes one Newton
    step on Q, (-H_Q)^{-1} grad Q, which is an ascent direction of the exact
    log target log p(y | h) + log p(h) because grad Q is its score there.
    The step is halved until that target does not decrease, so the iterates
    are monotone in the exact target; NumericalError is raised if 40 trial
    steps find no such point.  Converged once an accepted step's norm is
    below eps2.
    """
    y = np.asarray(y, dtype=float)
    n, r = draw.n, draw.r
    T = y.shape[0]
    eps = residuals(y, x, draw.beta)
    prior = StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, T)
    if h0 is None:
        h = np.tile(np.concatenate([draw.mu, np.zeros(r)]), (T, 1))
    else:
        h = np.array(h0, dtype=float).reshape(T, n + r)

    def log_target(hh):
        return log_cond_likelihood(y, x, draw.beta, draw.load, hh) + log_state_prior(
            hh, draw.mu, draw.phi, draw.sig2
        )

    target = log_target(h)
    for em_iter in range(1, max_em + 1):
        _, _, zhat = _estep(eps, draw.load, h)
        h_flat, z_flat = h.ravel(), zhat.ravel()
        grad = q_gradient(prior, h_flat, z_flat)
        neg_hq = neg_q_hessian(prior, h_flat, z_flat)
        step = neg_hq.cholesky().solve(grad).reshape(h.shape)
        for _ in range(40):
            h_try = h + step
            target_try = log_target(h_try)
            if target_try >= target - 1e-12 * (1.0 + abs(target)):
                break
            step *= 0.5
        else:
            raise NumericalError(
                f"no non-decreasing step from log target {target:.10g}"
            )
        h, target = h_try, target_try
        if np.linalg.norm(step) < eps2:
            return EmResult(h, em_iter, em_iter)
    raise MaxIterationsExceededError(f"EM did not converge in {max_em} iterations")


# ---------------------------------------------------------------------------
# Hessian routes


def _estep_neg_q_hessian(h_hat, draw, y, x):
    """The E-step at h_hat and -H_Q there: (h, eps, f-hat, K^{-1}, -H_Q)."""
    T = np.asarray(y).shape[0]
    h = np.asarray(h_hat, dtype=float).reshape(T, draw.n + draw.r)
    eps = residuals(np.asarray(y, dtype=float), x, draw.beta)
    prior = StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, T)
    fhat, kinv, zhat = _estep(eps, draw.load, h)
    return h, eps, fhat, kinv, neg_q_hessian(prior, h.ravel(), zhat.ravel())


def hessian_em(h_hat, draw, y, x):
    """Negative Hessian at the mode from the EM identity
    log p(h | .) = Q(h|h) + H(h|h), keeping only part of the missing
    information: the C^2 term, without the conditional-mean term and with the
    idiosyncratic-factor block of C signed as if W were [L; I].  It is not the
    exact Hessian (`hessian_direct` is; at (n,r,T) = (20,3,200) its log det
    runs 56-60 nats above the exact one) and need not be positive definite;
    `importance_density` falls back to -H_Q when its Cholesky fails."""
    h, _, _, kinv, neg_hq = _estep_neg_q_hessian(h_hat, draw, y, x)
    if draw.r == 0:
        return neg_hq
    w = np.vstack([draw.load, np.eye(draw.r)])  # (n+r, r)
    c = np.einsum("dj,tjk,ek->tde", w, kinv, w)
    z = np.exp(-h)[:, :, None] * c
    neg_hh = 0.5 * z.transpose(0, 2, 1) * (np.eye(h.shape[1]) - z)
    return band_add(neg_hq, BandSymMatrix.from_blocks(neg_hh))


def hessian_direct(h_hat, draw, y, x):
    """Exact negative Hessian of log p(y|h) + log p(h) at any h, from Louis's
    identity (Louis, 1982): -H_Q minus the covariance of the complete-data
    score given y and h.  Per period, u = (eps - L f, f) has conditional mean
    m = (eps - L f-hat, f-hat) and covariance C = W K^{-1} W' with W = [-L; I],
    so that covariance is 1/4 e^{-h_i-h_j} (2 C_ij^2 + 4 m_i m_j C_ij); with
    r = 0, C = 0 and -H_Q alone is exact.  Banded (the state precision plus
    one block per period) but not guaranteed positive definite away from the
    mode."""
    h, eps, fhat, kinv, neg_hq = _estep_neg_q_hessian(h_hat, draw, y, x)
    w = np.vstack([-draw.load, np.eye(draw.r)])  # (n+r, r)
    c = w @ kinv @ w.T  # (T, n+r, n+r)
    m = np.hstack([eps - fhat @ draw.load.T, fhat])
    a = np.exp(-h)
    mm = m[:, :, None] * m[:, None, :]
    score_cov = a[:, :, None] * a[:, None, :] * c * (0.5 * c + mm)
    return band_add(neg_hq, BandSymMatrix.from_blocks(-score_cov))


# ---------------------------------------------------------------------------
# importance density and the likelihood estimator


def importance_density(y, x, draw, route="em", **em_kwargs):
    """Gaussian N(h-hat, K_h^{-1}) approximation of p(h | y, params).

    Returns (gaussian, em_result, used_fallback): if the chosen route's
    precision fails the Cholesky test, -H_Q alone (always PD) is used and the
    flag is set.  route is "em" (hessian_em) or "direct" (hessian_direct).
    """
    builders = {"em": hessian_em, "direct": hessian_direct}
    if route not in builders:
        raise ValueError(f'route must be "em" or "direct", not {route!r}')
    em = em_mode(y, x, draw, **em_kwargs)
    kh = builders[route](em.h_hat, draw, y, x)
    fallback = False
    try:
        g = GaussianInPrecisionForm(em.h_hat.ravel(), kh)
        g.factor  # force the factorization
    except NotPositiveDefiniteError:
        fallback = True
        neg_hq = _estep_neg_q_hessian(em.h_hat, draw, y, x)[-1]
        g = GaussianInPrecisionForm(em.h_hat.ravel(), neg_hq)
        g.factor
    return g, em, fallback


def log_importance_average(logw):
    """Log-mean of importance weights given in logs, with a delta-method
    standard error for the log estimate and the effective sample size."""
    logw = np.asarray(logw, dtype=float)
    m = np.max(logw)
    if not np.isfinite(m):
        raise NumericalError("all importance weights are zero or non-finite")
    w = np.exp(logw - m)
    wbar = w.mean()
    log_mean = m + np.log(wbar)
    se = float(w.std(ddof=1) / (wbar * np.sqrt(len(w)))) if len(w) > 1 else np.inf
    ess = float(w.sum() ** 2 / np.sum(w**2))
    return float(log_mean), se, ess


@dataclass
class IntegratedLikelihoodResult:
    log_value: float
    se: float  # delta-method SE of the log estimate
    ess: float
    r1: int
    kh_fallback: bool = False
    n_em_iters: int = 0


def integrated_likelihood(y, x, draw, r1, rng, route="em"):
    """Importance-sampling estimate of log p(y | params) using R1 draws from
    the Gaussian approximation of p(h | y, params)."""
    if r1 < 2:
        raise ValueError("need r1 >= 2")
    g, em, fallback = importance_density(y, x, draw, route=route)
    hs, log_q = g.sample_with_logpdf(rng, r1)
    res = integrated_likelihood_from_draws(y, x, draw, hs, log_q)
    res.kh_fallback = fallback
    res.n_em_iters = em.n_em_iters
    return res


def importance_log_weights(y, x, draw, hs, log_q):
    """Log integrand-over-proposal ratios for stacked draws hs (rows) with
    proposal log-densities log_q."""
    hcube = hs.reshape(-1, np.asarray(y).shape[0], draw.n + draw.r)
    return (
        log_cond_likelihood(y, x, draw.beta, draw.load, hcube)
        + log_state_prior(hcube, draw.mu, draw.phi, draw.sig2)
        - log_q
    )


def integrated_likelihood_from_draws(y, x, draw, hs, log_q):
    """The importance-sampling average for externally supplied draws (rows of
    hs are stacked h vectors) and their proposal log-densities log_q."""
    logw = importance_log_weights(y, x, draw, hs, log_q)
    log_mean, se, ess = log_importance_average(logw)
    if ess < 2.0:
        raise DegenerateWeightsError(
            f"importance weights degenerate (ESS={ess:.2f}); the Gaussian "
            "approximation is poor"
        )
    return IntegratedLikelihoodResult(log_mean, se, ess, r1=len(logw))

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
The factors enter only through the per-period precision K_t, which
`factor_precision` builds and factors once by Cholesky, K_t = C_t C_t'; the
likelihood, the E-step, both Hessians and the Gibbs factor draw all work from
C_t and u_t = C_t^{-1} b_t by triangular substitution (`tri_solve`).  These
and the AR(1) prior diagonals defined here are the only copies in the
package; the Gibbs sampler uses them too.
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
_EM_TOL = 1e-4  # EM stops once an accepted step's norm is below this


def residuals(y, x, beta):
    """VAR residuals y_t - (I kron x_t') beta, shape (T, n)."""
    n = y.shape[1]
    bmat = np.asarray(beta, dtype=float).reshape(n, -1)
    return y - x @ bmat.T


def factor_precision(eps, load, h):
    """Factors of the per-period precision of the factors given the data,
    K_t = L' Sigma_t^{-1} L + Omega_t^{-1}, with b_t = L' Sigma_t^{-1} eps_t,
    so f_t | y_t, h_t ~ N(K_t^{-1} b_t, K_t^{-1}).  The only factorization of
    K_t in the package.

    h is (..., T, n+r) with any leading batch axes; returns the lower
    Cholesky factor C (..., T, r, r) with C C' = K, u = C^{-1} b (..., T, r)
    and Sigma_t^{-1} = exp(-h_y) as (..., T, n).  Then log det K_t is
    2 sum log diag C_t, b_t' K_t^{-1} b_t = |u_t|^2, the conditional mean of
    f_t is C_t'^{-1} u_t and a draw is C_t'^{-1} (u_t + z_t).
    """
    n, r = load.shape
    ehy = np.exp(-h[..., :n])
    # one GEMM against the products L_j L_k laid out as (n, r*r)
    K = (ehy @ (load[:, :, None] * load[:, None, :]).reshape(n, r * r)).reshape(
        ehy.shape[:-1] + (r, r)
    )
    K[..., np.arange(r), np.arange(r)] += np.exp(-h[..., n:])
    try:
        c = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("factor-block precision not PD") from exc
    return c, tri_solve(c, (ehy * eps) @ load), ehy


def tri_solve(c, b, trans=False):
    """x with C x = b, or C' x = b if `trans`, for lower-triangular C of shape
    (..., r, r): r vectorised substitution steps over the leading axes.  b is
    a vector right-hand side (..., r) or a matrix one (..., r, k) carrying
    C's leading axes."""
    vec = b.ndim == c.ndim - 1
    x = np.array(b[..., None] if vec else b, dtype=float)
    r = c.shape[-1]
    for i in range(r - 1, -1, -1) if trans else range(r):
        # the solved entries: j > i of column i of C for C', j < i of row i
        done = slice(i + 1, None) if trans else slice(None, i)
        coef = c[..., done, i] if trans else c[..., i, done]
        x[..., i, :] -= np.sum(coef[..., None] * x[..., done, :], axis=-2)
        x[..., i, :] /= c[..., i, i, None]
    return x[..., 0] if vec else x


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
    identity and the matrix determinant lemma on the Cholesky factor of the
    factor precision K_t, which are exact for every (n, r), r = 0 included.
    """
    load = np.atleast_2d(np.asarray(load, dtype=float))
    eps = residuals(np.asarray(y, dtype=float), x, beta)
    h = np.asarray(h, dtype=float)
    out = _log_cond_from_factors(eps, h, *factor_precision(eps, load, h))
    return out if h.ndim == 3 else float(out)


def _log_cond_from_factors(eps, h, c, u, ehy):
    """`log_cond_likelihood` from `factor_precision(eps, load, h)`: the log
    det of the covariance is sum h + log det K_t and its quadratic form is
    eps' Sigma^{-1} eps - |u|^2, summed over the last two axes."""
    T, n = eps.shape
    logdet = np.sum(h, axis=(-2, -1)) + 2.0 * np.sum(
        np.log(np.diagonal(c, axis1=-2, axis2=-1)), axis=(-2, -1)
    )
    quad = np.sum(eps**2 * ehy, axis=(-2, -1)) - np.sum(u**2, axis=(-2, -1))
    return -0.5 * T * n * _LOG2PI - 0.5 * logdet - 0.5 * quad


# ---------------------------------------------------------------------------
# EM mode finding


@dataclass
class EmResult:
    h_hat: np.ndarray  # (T, n + r)
    n_em_iters: int
    n_newton_steps: int  # one per iteration


def _estep(eps, load, c, u):
    """E-step from `factor_precision`'s C and u at the current h.  Per
    period, u_t = (eps_t - L f_t, f_t) given y and h has mean
    m = (eps - L f-hat, f-hat), with f-hat = C'^{-1} u, and covariance a'a =
    W K^{-1} W' for a = C^{-1} W' and W = [-L; I].  Returns m (T, n+r),
    a (T, r, n+r) and the per-coordinate quadratic weights
    z-hat = m^2 + diag(a'a) entering the Q function."""
    T, r = u.shape
    fhat = tri_solve(c, u, trans=True)
    m = np.concatenate([eps - fhat @ load.T, fhat], axis=1)
    wt = np.concatenate([-load.T, np.eye(r)], axis=1)  # W', (r, n+r)
    a = tri_solve(c, np.broadcast_to(wt, (T,) + wt.shape))
    return m, a, m**2 + np.sum(a**2, axis=1)


def q_gradient(prior, h_flat, zhat_flat):
    """Gradient of Q(. | h) at h_flat.  With z-hat from the E-step at h_flat
    itself it is the exact score of log p(h | y, params) (Fisher's
    identity)."""
    dev = h_flat - prior.mean
    return -prior.precision.matvec(dev) - 0.5 * (1.0 - np.exp(-h_flat) * zhat_flat)


def neg_q_hessian(prior, h_flat, zhat_flat):
    """-H_Q: the banded state precision plus a positive diagonal; always PD."""
    return prior.precision.add_diagonal(0.5 * np.exp(-h_flat) * zhat_flat)


def em_mode(y, x, draw, h0=None, max_em=100):
    """Mode of p(h | y, params) by the EM gradient algorithm (Lange, 1995).

    Each iteration runs the E-step at the current h and takes one Newton
    step on Q, (-H_Q)^{-1} grad Q, which is an ascent direction of the exact
    log target log p(y | h) + log p(h) because grad Q is its score there.
    The step is halved until that target does not decrease, so the iterates
    are monotone in the exact target; NumericalError is raised if 40 trial
    steps find no such point.  Converged once an accepted step's norm is
    below `_EM_TOL`.
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

    def evaluate(hh):
        # the exact log target and the factors of K it was computed from,
        # which the next E-step reuses once hh is accepted
        fp = factor_precision(eps, draw.load, hh)
        lp = log_state_prior(hh, draw.mu, draw.phi, draw.sig2)
        return _log_cond_from_factors(eps, hh, *fp) + lp, fp

    target, fp = evaluate(h)
    for em_iter in range(1, max_em + 1):
        _, _, zhat = _estep(eps, draw.load, *fp[:2])
        h_flat, z_flat = h.ravel(), zhat.ravel()
        grad = q_gradient(prior, h_flat, z_flat)
        neg_hq = neg_q_hessian(prior, h_flat, z_flat)
        step = neg_hq.cholesky().solve(grad).reshape(h.shape)
        for _ in range(40):
            h_try = h + step
            target_try, fp_try = evaluate(h_try)
            if target_try >= target - 1e-12 * (1.0 + abs(target)):
                break
            step *= 0.5
        else:
            raise NumericalError(
                f"no non-decreasing step from log target {target:.10g}"
            )
        h, target, fp = h_try, target_try, fp_try
        if np.linalg.norm(step) < _EM_TOL:
            return EmResult(h, em_iter, em_iter)
    raise MaxIterationsExceededError(f"EM did not converge in {max_em} iterations")


# ---------------------------------------------------------------------------
# Hessian routes


def _estep_neg_q_hessian(h_hat, draw, y, x):
    """The E-step at h_hat and -H_Q there: (h, m, a, -H_Q), m and a as
    returned by `_estep`."""
    T = np.asarray(y).shape[0]
    h = np.asarray(h_hat, dtype=float).reshape(T, draw.n + draw.r)
    eps = residuals(np.asarray(y, dtype=float), x, draw.beta)
    prior = StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, T)
    c, u, _ = factor_precision(eps, draw.load, h)
    m, a, zhat = _estep(eps, draw.load, c, u)
    return h, m, a, neg_q_hessian(prior, h.ravel(), zhat.ravel())


def hessian_em(h_hat, draw, y, x):
    """Negative Hessian at the mode from the EM identity
    log p(h | .) = Q(h|h) + H(h|h), keeping only part of the missing
    information: the C^2 term, without the conditional-mean term (C = a'a
    from `_estep`; the sign of W does not enter C^2).  It is not the exact
    Hessian (`hessian_direct` is; at (n,r,T) = (20,3,200) its log det runs
    56-60 nats above the exact one) and need not be positive definite;
    `importance_density` falls back to -H_Q when its Cholesky fails."""
    h, _, a, neg_hq = _estep_neg_q_hessian(h_hat, draw, y, x)
    if draw.r == 0:
        return neg_hq
    z = np.exp(-h)[:, :, None] * (a.transpose(0, 2, 1) @ a)
    neg_hh = 0.5 * z.transpose(0, 2, 1) * (np.eye(h.shape[1]) - z)
    return band_add(neg_hq, BandSymMatrix.from_blocks(neg_hh))


def hessian_direct(h_hat, draw, y, x):
    """Exact negative Hessian of log p(y|h) + log p(h) at any h, from Louis's
    identity (Louis, 1982): -H_Q minus the covariance of the complete-data
    score given y and h.  Per period, u = (eps - L f, f) has conditional mean
    m = (eps - L f-hat, f-hat) and covariance C = W K^{-1} W' = a'a with
    W = [-L; I], both from `_estep` on the Cholesky factor of K, so that
    covariance is 1/4 e^{-h_i-h_j} (2 C_ij^2 + 4 m_i m_j C_ij); with r = 0,
    C = 0 and -H_Q alone is exact.  Banded (the state precision plus one
    block per period) but not guaranteed positive definite away from the
    mode."""
    h, m, a, neg_hq = _estep_neg_q_hessian(h_hat, draw, y, x)
    c = a.transpose(0, 2, 1) @ a  # (T, n+r, n+r)
    e = np.exp(-h)
    mm = m[:, :, None] * m[:, None, :]
    score_cov = e[:, :, None] * e[:, None, :] * c * (0.5 * c + mm)
    return band_add(neg_hq, BandSymMatrix.from_blocks(-score_cov))


# ---------------------------------------------------------------------------
# importance density and the likelihood estimator


def importance_density(y, x, draw, route="em", max_em=100):
    """Gaussian N(h-hat, K_h^{-1}) approximation of p(h | y, params).

    Returns (gaussian, em_result, used_fallback): if the chosen route's
    precision fails the Cholesky test, -H_Q alone (always PD) is used and the
    flag is set.  route is "em" (hessian_em) or "direct" (hessian_direct);
    `max_em` caps the EM iterations of the mode finding.
    """
    builders = {"em": hessian_em, "direct": hessian_direct}
    if route not in builders:
        raise ValueError(f'route must be "em" or "direct", not {route!r}')
    em = em_mode(y, x, draw, max_em=max_em)
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

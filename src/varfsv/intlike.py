"""Integrated (observed-data) likelihood machinery.

The likelihood of the data with factors integrated out analytically and
log-volatility paths integrated out by importance sampling: a Gaussian
importance density is built from the mode of p(h | y, params) and the
negative Hessian at the mode.  The mode comes from Newton's method on the
exact log target, with the exact negative Hessian from Louis's identity;
where that Hessian is not positive definite the iteration takes the EM
gradient step (Lange, 1995) on the always-PD -H_Q instead.  Every step is
halved until the exact log target does not decrease, so the iterates are
monotone in that target.  Two Hessian routes are available for the
importance density: the exact one (route "direct"), and the EM
decomposition with only part of the missing information (the default).

Throughout, `h` is stored (T, n+r) with the idiosyncratic block first;
stacked vectors interleave time-major, matching the banded state precision.
The factors enter only through the per-period precision K_t, which
`factor_precision` builds and factors once by Cholesky, K_t = C_t C_t'; the
likelihood, the E-step, both Hessians and the Gibbs factor draw all work from
C_t and u_t = C_t^{-1} b_t by triangular substitution (`tri_solve`).  The
likelihood's quadratic form is a sum of non-negative terms (the residual
form), so it stays exact at very negative h.  The state prior is kept as
its mean and the two non-zero diagonals of its precision, which
`ar1_precision_times` applies and `neg_q_hessian` writes into -H_Q's bands.
These and the AR(1) prior diagonals are the only copies in the package; the
Gibbs sampler uses them too, stacked series by series.
"""

from dataclasses import dataclass

import numpy as np

from .bandlin import BandSymMatrix, GaussianInPrecisionForm
from .exceptions import (
    DegenerateWeightsError,
    MaxIterationsExceededError,
    NonStationaryError,
    NotPositiveDefiniteError,
    NumericalError,
)

_LOG2PI = np.log(2.0 * np.pi)
_EM_TOL = 1e-4  # the mode search stops once an accepted step's norm is below this
_EM_MAX_STEP = 3.0  # largest |change| of any h in one mode-search step
# elements of h per chunk of draws in `importance_log_weights`: the chunk's
# temporaries, a few arrays of this size, stay within a 2 MiB cache
_CHUNK = 2**17


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
    and Sigma_t^{-1} = exp(-h_y) as (..., T, n), for the caller to reuse.
    Then log det K_t is 2 sum log diag C_t, b_t' K_t^{-1} b_t = |u_t|^2, the
    conditional mean of f_t is C_t'^{-1} u_t and a draw is
    C_t'^{-1} (u_t + z_t).

    K is built component-major, and the r x r factorization and the
    substitution run as closed-form loops over its entries, each a
    contiguous array over the leading axes; C and u are views of that
    layout.  A batched LAPACK call on many tiny matrices costs far more.
    """
    n, r = load.shape
    lead = h.shape[:-1]
    ehy = np.exp(-h[..., :n])
    # K component-major, (r, r) + lead: one GEMM against the products L_j L_k
    ll = (load[:, :, None] * load[:, None, :]).reshape(n, r * r)
    k = (ll.T @ ehy.reshape(-1, n).T).reshape((r, r) + lead)
    ehf = np.exp(-h[..., n:])
    for i in range(r):
        k[i, i] += ehf[..., i]
    for j in range(r):  # Cholesky in place, column by column
        piv = k[j, j] - sum(k[j, q] ** 2 for q in range(j))
        if not np.all(piv > 0.0):
            raise NotPositiveDefiniteError("factor-block precision not PD")
        k[j, j] = np.sqrt(piv)
        for i in range(j + 1, r):
            k[i, j] = (k[i, j] - sum(k[i, q] * k[j, q] for q in range(j))) / k[j, j]
            k[j, i] = 0.0
    b = (load.T @ (ehy * eps).reshape(-1, n).T).reshape((r,) + lead)
    c = np.moveaxis(k, (0, 1), (-2, -1))
    return c, tri_solve(c, np.moveaxis(b, 0, -1)), ehy


def tri_solve(c, b, trans=False):
    """x with C x = b, or C' x = b if `trans`, for lower-triangular C of shape
    (..., r, r): r substitution steps, each on the per-component slices
    C[..., i, j] and b[..., i] over the leading axes.  b is a vector
    right-hand side (..., r) or a matrix one (..., r, k) carrying C's leading
    axes."""
    vec = b.ndim == c.ndim - 1
    r = c.shape[-1]
    if r == 0:
        return np.array(b, dtype=float)
    x = [None] * r
    for i in range(r - 1, -1, -1) if trans else range(r):
        # the solved entries: j > i of column i of C for C', j < i of row i
        acc = np.array(b[..., i] if vec else b[..., i, :], dtype=float)
        for j in range(i + 1, r) if trans else range(i):
            coef = c[..., j, i] if trans else c[..., i, j]
            acc -= (coef if vec else coef[..., None]) * x[j]
        x[i] = acc / (c[..., i, i] if vec else c[..., i, i, None])
    # a vector solution stays component-major: x[..., i] is contiguous
    return np.moveaxis(np.stack(x), 0, -1) if vec else np.stack(x, axis=-2)


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


def ar1_precision_times(main, lag, v, stride):
    """P v for the AR(1) prior precision P whose diagonals `main` and `lag`
    (`ar1_precision_diagonals`, flat) are stacked like v: lag[j] couples v[j]
    with v[j + stride], d for time-major stacking and 1 for series-major."""
    out = main * v
    coupling = lag[: len(v) - stride]
    out[stride:] += coupling * v[:-stride]
    out[:-stride] += coupling * v[stride:]
    return out


@dataclass(frozen=True)
class StatePriorAssembly:
    """Stacked state-equation representation of p(h | mu, phi, sig2),
    time-major: period t occupies [t*d, (t+1)*d).

    mean  m, the stacked unconditional mean (idiosyncratic blocks mu,
          factor blocks zero)
    main  the main diagonal of the precision H' S^{-1} H, with H the stacked
          AR(1) differencing operator and S the innovation variances (the
          first time block at the stationary variance sig2 / (1 - phi^2))
    lag   its other non-zero diagonal, d below the main one (zero-padded)
    """

    mean: np.ndarray
    main: np.ndarray
    lag: np.ndarray

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
        main, lag = ar1_precision_diagonals(phi, sig2, T)
        return cls(mean, main.T.ravel(), lag.T.ravel())


def log_state_prior(h, mu, phi, sig2):
    """Exact Gaussian log-density of the stacked log-volatility paths.

    h has shape (T, d) or (batch, T, d); returns a scalar or (batch,).  The
    quadratic form runs on the flat time-major rows of length T*d, as
    products with the tiled weights (1 - phi^2)/sig2 and 1/sig2.
    """
    h = np.asarray(h, dtype=float)
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(phi, dtype=float)
    sig2 = np.asarray(sig2, dtype=float)
    if np.any(np.abs(phi) >= 1.0):
        raise NonStationaryError("|phi| must be < 1")
    T, d = h.shape[-2], h.shape[-1]
    m = np.concatenate([mu, np.zeros(d - len(mu))])
    flat = h.reshape(h.shape[:-2] + (T * d,))
    quad = (flat[..., :d] - m) ** 2 @ ((1.0 - phi**2) / sig2)
    if T > 1:
        # innovations h_t - phi h_{t-1} - (1 - phi) m of periods 1..T-1
        innov = np.tile(-phi, T - 1) * flat[..., :-d]
        innov += flat[..., d:]
        innov -= np.tile((1.0 - phi) * m, T - 1)
        innov *= innov
        quad = quad + innov @ np.tile(1.0 / sig2, T - 1)
    log_det = -T * np.sum(np.log(sig2)) + np.sum(np.log1p(-(phi**2)))
    return -0.5 * T * d * _LOG2PI + 0.5 * log_det - 0.5 * quad


# ---------------------------------------------------------------------------
# conditional likelihood p(y | beta, L, h), factors integrated out


def log_cond_likelihood(y, x, beta, load, h):
    """Sum over t of log N(y_t; (I kron x_t')beta, L Omega_t L' + Sigma_t).

    h may be (T, n+r) or batched (R, T, n+r); returns scalar or (R,).
    The diagonal-plus-low-rank covariance is handled through the matrix
    determinant lemma and the residual form of the quadratic form on the
    Cholesky factor of the factor precision K_t, which are exact for every
    (n, r), r = 0 included.
    """
    load = np.atleast_2d(np.asarray(load, dtype=float))
    eps = residuals(np.asarray(y, dtype=float), x, beta)
    h = np.asarray(h, dtype=float)
    out = _log_cond_from_factors(eps, load, h, *factor_precision(eps, load, h))
    return out if h.ndim == 3 else float(out)


def _log_cond_from_factors(eps, load, h, c, u, ehy):
    """`log_cond_likelihood` from `factor_precision(eps, load, h)`, summed over
    the last two axes.  The log det of the covariance is sum h + log det K_t.
    Its quadratic form eps' (L Omega L' + Sigma)^{-1} eps is taken in the
    residual form (eps - L f-hat)' Sigma^{-1} (eps - L f-hat) +
    f-hat' Omega^{-1} f-hat, f-hat = C'^{-1} u: a sum of non-negative terms.
    The Woodbury form eps' Sigma^{-1} eps - |u|^2 equals it, but its two terms
    both grow like eps_i^2 exp(-h_i) and cancel when an h_i is very
    negative."""
    n = load.shape[0]
    fhat = tri_solve(c, u, trans=True)
    # resid = L f-hat - eps, flattened to one row per leading index
    resid = (fhat @ load.T).reshape(h.shape[:-2] + (-1,))
    resid -= eps.ravel()
    quad = np.einsum("...i,...i,...i->...", resid, resid, ehy.reshape(resid.shape))
    quad += np.sum(fhat**2 * np.exp(-h[..., n:]), axis=(-2, -1))
    logdet = np.sum(h, axis=(-2, -1)) + 2.0 * np.sum(
        np.log(np.diagonal(c, axis1=-2, axis2=-1)), axis=(-2, -1)
    )
    return -0.5 * eps.size * _LOG2PI - 0.5 * logdet - 0.5 * quad


# ---------------------------------------------------------------------------
# EM mode finding


@dataclass(frozen=True)
class Expansion:
    """What the mode search and the Hessians take from the E-step at one h:
    m and a as `_estep` returns them, the exact score of the log target
    (`q_gradient`, flat) and -H_Q (`neg_q_hessian`)."""

    h: np.ndarray  # (T, n + r)
    m: np.ndarray
    a: np.ndarray
    score: np.ndarray
    neg_hq: BandSymMatrix


@dataclass
class EmResult:
    h_hat: np.ndarray  # (T, n + r)
    n_em_iters: int
    n_newton_steps: int  # iterations that stepped with the exact Hessian
    expansion: Expansion  # at h_hat, from the factors its target was computed with


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


def q_gradient(prior, h, zhat):
    """Gradient of Q(. | h) at the (T, n+r) paths h, flat.  With z-hat from
    the E-step at h itself it is the exact score of log p(h | y, params)
    (Fisher's identity)."""
    h_flat = h.ravel()
    prec_dev = ar1_precision_times(prior.main, prior.lag, h_flat - prior.mean, h.shape[1])
    return -prec_dev - 0.5 * (1.0 - np.exp(-h_flat) * zhat.ravel())


def neg_q_hessian(prior, h, zhat):
    """-H_Q at the (T, n+r) paths h: the state precision plus a positive
    diagonal, always PD, in the bands the band Cholesky takes (the lag band
    n+r below the main one, none at T = 1)."""
    T, d = h.shape
    bands = np.zeros((d + 1 if T > 1 else 1, T * d))
    bands[0] = prior.main + 0.5 * np.exp(-h.ravel()) * zhat.ravel()
    if T > 1:
        bands[d] = prior.lag
    return BandSymMatrix(bands)


def _expand(eps, load, prior, h, c, u):
    """The `Expansion` at h from `factor_precision`'s C and u there."""
    m, a, zhat = _estep(eps, load, c, u)
    return Expansion(h, m, a, q_gradient(prior, h, zhat), neg_q_hessian(prior, h, zhat))


def _expansion_at(h, draw, y, x):
    """The `Expansion` at a stacked h, from scratch."""
    T = np.asarray(y).shape[0]
    h = np.asarray(h, dtype=float).reshape(T, draw.n + draw.r)
    eps = residuals(np.asarray(y, dtype=float), x, draw.beta)
    prior = StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, T)
    c, u, _ = factor_precision(eps, draw.load, h)
    return _expand(eps, draw.load, prior, h, c, u)


def _add_period_blocks(neg_hq, blocks):
    """-H_Q plus one symmetric (n+r, n+r) block per period on the diagonal,
    blocks (T, n+r, n+r): the lower triangle of each block is added into a
    copy of -H_Q's bands, which grow to n+r rows when T = 1."""
    T, d, _ = blocks.shape
    bands = np.zeros((max(d, len(neg_hq.bands)), T * d))
    bands[: len(neg_hq.bands)] = neg_hq.bands
    for off in range(d):
        bands[off].reshape(T, d)[:, : d - off] += np.diagonal(blocks, -off, 1, 2)
    return BandSymMatrix(bands)


def _louis_neg_hessian(ex):
    """Exact negative Hessian of the log target at `ex.h` (Louis, 1982): -H_Q
    minus the covariance of the complete-data score given y and h.  Per
    period, u = (eps - L f, f) has conditional mean m and covariance
    C = W K^{-1} W' = a'a with W = [-L; I], so the score covariance is
    1/4 e^{-h_i-h_j} (2 C_ij^2 + 4 m_i m_j C_ij); with a and m scaled by
    s = e^{-h/2} that is c (c/2 + m_s m_s'), c = a_s' a_s.  Banded (the state
    precision plus one block per period) but not guaranteed positive definite
    away from the mode."""
    s = np.exp(-0.5 * ex.h)
    a_s = ex.a * s[:, None, :]
    m_s = ex.m * s
    c = a_s.transpose(0, 2, 1) @ a_s
    score_cov = c * (0.5 * c + m_s[:, :, None] * m_s[:, None, :])
    return _add_period_blocks(ex.neg_hq, -score_cov)


def em_mode(y, x, draw, h0=None, max_em=100):
    """Mode of p(h | y, params) by Newton's method on the exact log target
    log p(y | h) + log p(h), with the EM gradient step (Lange, 1995) as its
    fallback.

    Each iteration takes the E-step at the current h, which gives the exact
    score (Fisher's identity) and -H_Q.  The step is the Newton step
    (-H)^{-1} score on the exact negative Hessian -H of Louis's identity
    when -H passes the band Cholesky, and the EM gradient step
    (-H_Q)^{-1} score otherwise; -H_Q is always positive definite, and both
    steps are ascent directions of the exact target.  A step that would
    move any h by more than `_EM_MAX_STEP` is scaled down to that size: from
    the flat start a full Newton step can send the h of a nearly exactly
    fitted series to -100 or below, where exp(-h) swamps K_t and its
    Cholesky fails in floating point.  The step is then halved until the
    target does not decrease, so the iterates are monotone in it; a trial
    point where some K_t is not positive definite counts as a decrease.
    NumericalError is raised if 40 trial steps find no such point.
    Converged once an accepted step's norm is below `_EM_TOL`; at most
    `max_em` iterations.  The target's quadratic form is the residual form
    of `_log_cond_from_factors`, which stays exact at very negative h, where
    a spuriously high target would stall the line search.
    """
    y = np.asarray(y, dtype=float)
    n, r = draw.n, draw.r
    T = y.shape[0]
    eps = residuals(y, x, draw.beta)
    prior = StatePriorAssembly.build(draw.mu, draw.phi, draw.sig2, T)
    if h0 is None:
        h = prior.mean.reshape(T, n + r).copy()
    else:
        h = np.array(h0, dtype=float).reshape(T, n + r)

    def evaluate(hh):
        # the exact log target and the factors of K it was computed from,
        # which the E-step reuses once hh is accepted
        fp = factor_precision(eps, draw.load, hh)
        lp = log_state_prior(hh, draw.mu, draw.phi, draw.sig2)
        return _log_cond_from_factors(eps, draw.load, hh, *fp) + lp, fp

    target, fp = evaluate(h)
    ex = _expand(eps, draw.load, prior, h, *fp[:2])
    n_newton = 0
    for em_iter in range(1, max_em + 1):
        try:
            factor = _louis_neg_hessian(ex).cholesky()
            n_newton += 1
        except NotPositiveDefiniteError:
            factor = ex.neg_hq.cholesky()
        step = factor.solve(ex.score).reshape(h.shape)
        largest = np.max(np.abs(step))
        if largest > _EM_MAX_STEP:
            step *= _EM_MAX_STEP / largest
        for _ in range(40):
            h_try = h + step
            try:
                target_try, fp_try = evaluate(h_try)
            except NotPositiveDefiniteError:
                pass  # some K_t is not PD at the trial point: a failed trial
            else:
                if target_try >= target - 1e-12 * (1.0 + abs(target)):
                    break
            step *= 0.5
        else:
            raise NumericalError(
                f"no non-decreasing step from log target {target:.10g}"
            )
        h, target = h_try, target_try
        ex = _expand(eps, draw.load, prior, h, *fp_try[:2])
        if np.linalg.norm(step) < _EM_TOL:
            return EmResult(h, em_iter, n_newton, ex)
    raise MaxIterationsExceededError(f"EM did not converge in {max_em} iterations")


# ---------------------------------------------------------------------------
# Hessian routes


def hessian_em(ex):
    """Negative Hessian at the mode from the EM identity
    log p(h | .) = Q(h|h) + H(h|h), keeping only part of the missing
    information: the C^2 term, without the conditional-mean term (C = a'a
    from `_estep`; the sign of W does not enter C^2).  It is not the exact
    Hessian (`hessian_direct` is; at (n,r,T) = (20,3,200) its log det runs
    56-60 nats above the exact one) and need not be positive definite;
    `importance_density` falls back to -H_Q when its Cholesky fails.  `ex`
    is the `Expansion` at the mode (`EmResult.expansion`)."""
    z = np.exp(-ex.h)[:, :, None] * (ex.a.transpose(0, 2, 1) @ ex.a)
    neg_hh = 0.5 * z.transpose(0, 2, 1) * (np.eye(ex.h.shape[1]) - z)
    return _add_period_blocks(ex.neg_hq, neg_hh)


def hessian_direct(ex):
    """Exact negative Hessian of log p(y|h) + log p(h) at the h of the
    `Expansion` ex, from Louis's identity (`_louis_neg_hessian`, which the
    mode search steps with); with r = 0 the score covariance is zero and
    -H_Q alone is exact."""
    return _louis_neg_hessian(ex)


# ---------------------------------------------------------------------------
# importance density and the likelihood estimator


def importance_density(y, x, draw, route="em"):
    """Gaussian N(h-hat, K_h^{-1}) approximation of p(h | y, params).

    Returns (gaussian, em_result, used_fallback): if the chosen route's
    precision fails the Cholesky test, -H_Q alone (always PD) is used and the
    flag is set.  route is "em" (hessian_em) or "direct" (hessian_direct).
    Both are built from the E-step that `em_mode` took at its last accepted
    point.
    """
    builders = {"em": hessian_em, "direct": hessian_direct}
    if route not in builders:
        raise ValueError(f'route must be "em" or "direct", not {route!r}')
    em = em_mode(y, x, draw)
    kh = builders[route](em.expansion)
    fallback = False
    try:
        g = GaussianInPrecisionForm(em.h_hat.ravel(), kh)
        g.factor  # force the factorization
    except NotPositiveDefiniteError:
        fallback = True
        g = GaussianInPrecisionForm(em.h_hat.ravel(), em.expansion.neg_hq)
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
    proposal log-densities log_q.

    The likelihood and the prior are evaluated over chunks of draws of about
    `_CHUNK` elements of h each (28 draws at (T, n+r) = (200, 23)), so that
    their temporaries stay in cache; over all R1 draws at once each would be
    an R1 x T x (n+r) array streamed through memory.  The residuals are
    computed once."""
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    hcube = np.asarray(hs, dtype=float).reshape(-1, T, draw.n + draw.r)
    eps = residuals(y, x, draw.beta)
    step = max(1, _CHUNK // (T * (draw.n + draw.r)))
    logw = np.empty(len(hcube))
    for i in range(0, len(hcube), step):
        h = hcube[i : i + step]
        logw[i : i + step] = _log_cond_from_factors(
            eps, draw.load, h, *factor_precision(eps, draw.load, h)
        ) + log_state_prior(h, draw.mu, draw.phi, draw.sig2)
    return logw - log_q


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

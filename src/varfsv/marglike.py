"""Marginal likelihood estimation by adaptive importance sampling.

The importance density over the static parameters is a product of simple
families fitted to posterior draws, following the cross-entropy method:
one full-covariance Gaussian per equation for the VAR coefficients,
componentwise Gaussians for the loadings (truncated to the sign
restrictions), inverse-gammas for the innovation variances, Gaussians for
the volatility means and truncated Gaussians on (-1, 1) for the AR
coefficients.  The untruncated Gaussians and the inverse-gammas are
maximum-likelihood fits (the cross-entropy solution).  The truncated blocks
are not: their parent normal takes the draws' mean and variance, so where
the truncation bites the family is narrower than the draws.  For each
parameter draw the integrated likelihood is estimated with an inner
simulation size adapted until the variance of the log estimate is about one.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import special

from . import intlike, tmvn
from .exceptions import (
    DegenerateWeightsError,
    InsufficientDrawsError,
    VarFsvError,
)
from .gibbs import run_chain
from .model import ZERO, ModelSpec, ParamDraw, PriorSpec, SignMatrix, sign_bounds

_LOG2PI = np.log(2.0 * np.pi)
_VAR_FLOOR = 1e-10
_IG_TOL = 1e-12  # |score| at which the inverse-gamma shape Newton stops
_IG_MAX_ITER = 100
_R1_INIT = 10  # first inner simulation size of the adaptive estimate
_TARGET_VAR = 1.0  # variance of the log estimate the inner size aims for


@dataclass
class CeFamilyParams:
    """Fitted importance-family parameters.

    The VAR-coefficient block is one full-covariance Gaussian per equation
    (intercepts and persistent-lag coefficients are strongly correlated in
    the posterior, and neglecting that correlation degenerates the weights).
    Each loading entry has its own Gaussian, truncated to the entry's sign
    region; `load_mean` and `load_var` are the parent normal's parameters,
    and entries restricted to ZERO are exactly 0 whatever those hold.
    Variances, means and AR coefficients are componentwise.
    """

    beta_mean: np.ndarray  # (n, k)
    beta_chol: np.ndarray  # (n, k, k) lower Cholesky factors of the covariances
    load_mean: np.ndarray  # (n, r)
    load_var: np.ndarray  # (n, r)
    sig2_shape: np.ndarray
    sig2_scale: np.ndarray
    mu_mean: np.ndarray
    mu_var: np.ndarray
    phi_mean: np.ndarray
    phi_var: np.ndarray


def fit_invgamma(x):
    """Maximum-likelihood inverse-gamma fit: moment-matched start, then
    Newton on the profile likelihood in the shape."""
    x = np.asarray(x, dtype=float)
    mean_inv = np.mean(1.0 / x)
    b = np.log(mean_inv) + np.mean(np.log(x))  # >= 0 by Jensen
    m, v = x.mean(), x.var()
    shape = 2.0 + m**2 / v if v > 1e-30 else 1e8
    shape = min(max(shape, 1.01), 1e8)
    for _ in range(_IG_MAX_ITER):
        f = np.log(shape) - special.digamma(shape) - b
        fp = 1.0 / shape - special.polygamma(1, shape)
        step = f / fp
        new = shape - step
        if new <= 0:
            new = shape / 2.0
        shape = min(new, 1e8)
        if abs(f) < _IG_TOL:
            break
    return shape, shape / mean_inv


def _gauss_fit(draws):
    mean = draws.mean(axis=0)
    var = np.maximum(draws.var(axis=0), _VAR_FLOOR)
    return mean, var


def _fit_equation_gaussians(beta_draws, n, k):
    """Per-equation multivariate Gaussian MLE with a light diagonal ridge so
    the Cholesky factor exists even for near-degenerate draw sets."""
    cube = beta_draws.reshape(-1, n, k)
    means = cube.mean(axis=0)
    chols = np.empty((n, k, k))
    for i in range(n):
        dev = cube[:, i, :] - means[i]
        cov = dev.T @ dev / len(dev)
        ridge = 1e-10 + 1e-8 * np.trace(cov) / k
        cov[np.diag_indices(k)] += ridge
        chols[i] = np.linalg.cholesky(cov)
    return means, chols


def fit_ce_family(chain):
    """Blockwise fit of the importance family to the stored posterior draws
    (maximum likelihood except for the truncated blocks; see the module
    docstring).  Loadings restricted to ZERO are 0 in every draw and are
    never sampled, so their fitted entries are not used."""
    if chain.size < 30:
        raise InsufficientDrawsError(
            f"need at least 30 posterior draws, have {chain.size}"
        )
    beta_mean, beta_chol = _fit_equation_gaussians(chain.beta, chain.n, chain.k)
    mu_mean, mu_var = _gauss_fit(chain.mu)
    load_mean, load_var = _gauss_fit(chain.load)
    d = chain.n + chain.r
    sig2_shape = np.empty(d)
    sig2_scale = np.empty(d)
    for i in range(d):
        sig2_shape[i], sig2_scale[i] = fit_invgamma(chain.sig2[:, i])
    phi_mean = np.clip(chain.phi.mean(axis=0), -1 + 1e-6, 1 - 1e-6)
    phi_var = np.maximum(chain.phi.var(axis=0), _VAR_FLOOR)
    return CeFamilyParams(
        beta_mean=beta_mean, beta_chol=beta_chol, load_mean=load_mean,
        load_var=load_var, sig2_shape=sig2_shape, sig2_scale=sig2_scale,
        mu_mean=mu_mean, mu_var=mu_var, phi_mean=phi_mean, phi_var=phi_var,
    )


def sample_from_family(fam, signs, rng):
    """One parameter draw from the fitted family; each sign-restricted
    loading comes from its normal truncated to the sign region."""
    n, k = fam.beta_mean.shape
    z = rng.standard_normal((n, k))
    beta = (
        fam.beta_mean + np.einsum("ikl,il->ik", fam.beta_chol, z)
    ).ravel()
    load = np.zeros((n, signs.r))
    keep = signs.codes != ZERO
    if keep.any():
        lb, ub = sign_bounds(signs.codes[keep])
        lm, ls = fam.load_mean[keep], np.sqrt(fam.load_var[keep])
        load[keep] = lm + ls * tmvn.trandn(rng, (lb - lm) / ls, (ub - lm) / ls)
    sig2 = fam.sig2_scale / rng.gamma(fam.sig2_shape)
    mu = fam.mu_mean + np.sqrt(fam.mu_var) * rng.standard_normal(fam.mu_mean.shape)
    ps = np.sqrt(fam.phi_var)
    phi = fam.phi_mean + ps * tmvn.trandn(
        rng, (-1.0 - fam.phi_mean) / ps, (1.0 - fam.phi_mean) / ps
    )
    return ParamDraw(beta=beta, load=load, mu=mu, phi=phi, sig2=sig2)


def _normal_logpdf(x, mean, var):
    return -0.5 * (_LOG2PI + np.log(var) + (x - mean) ** 2 / var)


def _truncnorm_logpdf(x, mean, var, lb, ub):
    sd = np.sqrt(var)
    mass = tmvn.ln_normal_prob((lb - mean) / sd, (ub - mean) / sd)
    return _normal_logpdf(x, mean, var) - mass


def _invgamma_logpdf(x, shape, scale):
    return (
        shape * np.log(scale)
        - special.gammaln(shape)
        - (shape + 1.0) * np.log(x)
        - scale / x
    )


def _loading_sv_logpdf(draw, dens, codes):
    """Log-density of the loading and SV-parameter blocks under `dens`, a
    PriorSpec or a CeFamilyParams (both name these hyperparameters alike):
    per-entry truncated-normal loadings that are not restricted to ZERO,
    inverse-gamma variances, normal means and truncated-normal AR
    coefficients on (-1, 1), truncation masses included."""
    keep = codes != ZERO
    lb, ub = sign_bounds(codes[keep])
    return (
        np.sum(_truncnorm_logpdf(
            draw.load[keep], dens.load_mean[keep], dens.load_var[keep], lb, ub
        ))
        + np.sum(_invgamma_logpdf(draw.sig2, dens.sig2_shape, dens.sig2_scale))
        + np.sum(_normal_logpdf(draw.mu, dens.mu_mean, dens.mu_var))
        + np.sum(
            _truncnorm_logpdf(draw.phi, dens.phi_mean, dens.phi_var, -1.0, 1.0)
        )
    )


def family_logpdf(fam, draw, signs):
    """Log-density of a parameter draw under the fitted family, including
    the truncation masses of the sign-restricted blocks."""
    n, k = fam.beta_mean.shape
    dev = draw.beta.reshape(n, k) - fam.beta_mean
    total = -0.5 * n * k * _LOG2PI
    for i in range(n):
        white = scipy.linalg.solve_triangular(
            fam.beta_chol[i], dev[i], lower=True, check_finite=False
        )
        total += -np.sum(np.log(np.diag(fam.beta_chol[i]))) - 0.5 * white @ white
    return float(total + _loading_sv_logpdf(draw, fam, signs.codes))


def log_prior(draw, spec):
    """Log prior density: normal VAR coefficients, per-entry truncated-normal
    loadings (normalizing masses included), inverse-gamma variances, normal
    volatility means, truncated-normal AR coefficients on (-1, 1)."""
    pri = spec.priors
    total = np.sum(
        _normal_logpdf(draw.beta, pri.beta_mean.ravel(), pri.beta_var.ravel())
    )
    return float(total + _loading_sv_logpdf(draw, pri, spec.signs.codes))


def adaptive_integrated_likelihood(y, x, draw, rng, r1_cap=640):
    """Integrated-likelihood estimate with the inner simulation size doubled
    from `_R1_INIT` until the variance of the log estimate is at most
    `_TARGET_VAR` or the size reaches `r1_cap`."""
    g, em, fallback = intlike.importance_density(y, x, draw)
    hs, log_q = g.sample_with_logpdf(rng, _R1_INIT)
    logw = intlike.importance_log_weights(y, x, draw, hs, log_q)
    r1 = _R1_INIT
    while True:
        log_mean, se, ess = intlike.log_importance_average(logw)
        if se**2 <= _TARGET_VAR or r1 >= r1_cap:
            break
        extra = min(r1, r1_cap - r1)
        hs, log_q = g.sample_with_logpdf(rng, extra)
        more = intlike.importance_log_weights(y, x, draw, hs, log_q)
        logw = np.concatenate([logw, more])
        r1 += extra
    return intlike.IntegratedLikelihoodResult(
        log_mean, se, ess, r1=r1, refit=False, kh_fallback=fallback,
        n_em_iters=em.n_em_iters,
    )


@dataclass
class MarginalLikelihoodResult:
    log_value: float
    se: float
    ess: float
    r2: int
    log_weights: np.ndarray  # (R2,) log importance weights
    r1_history: list = field(default_factory=list)


def marginal_likelihood(y, x, spec, chain, r2, rng, r1_cap=640):
    """Importance-sampling estimate of the log marginal likelihood: R2 draws
    from the fitted family, each weighted by estimated integrated likelihood
    times prior over family density."""
    if chain.size == 0:
        raise InsufficientDrawsError("chain is empty")
    fam = fit_ce_family(chain)
    # columns: log integrated likelihood, log prior, log family density
    parts = np.empty((r2, 3))
    r1_history = []
    for j in range(r2):
        draw = sample_from_family(fam, spec.signs, rng)
        li = adaptive_integrated_likelihood(y, x, draw, rng, r1_cap=r1_cap)
        r1_history.append(li.r1)
        parts[j] = (
            li.log_value, log_prior(draw, spec),
            family_logpdf(fam, draw, spec.signs),
        )
    logw = parts[:, 0] + parts[:, 1] - parts[:, 2]
    log_mean, se, ess = intlike.log_importance_average(logw)
    if ess < 2.0:
        max_weight = float(1.0 / np.exp(logw - logw.max()).sum())
        sd_like, sd_prior, sd_family = parts.std(axis=0)
        raise DegenerateWeightsError(
            f"marginal-likelihood weights degenerate (ESS={ess:.2f} of "
            f"R2={r2}, largest normalised weight {max_weight:.3f}; "
            f"sd of log likelihood {sd_like:.2f}, log prior {sd_prior:.2f}, "
            f"log family {sd_family:.2f})",
            r2=r2, ess=ess, max_weight=max_weight,
            sd_like=float(sd_like), sd_prior=float(sd_prior),
            sd_family=float(sd_family),
        )
    return MarginalLikelihoodResult(
        log_value=log_mean, se=se, ess=ess, r2=r2, r1_history=r1_history,
        log_weights=logw,
    )


@dataclass
class FactorCountRow:
    r: int
    log_ml: float = None
    se: float = None
    ess: float = None
    error: str = None


def reduced_form_spec(spec, r):
    """Same data and priors as `spec` but with r factors, default unit-variance
    loading priors, and no sign restrictions.  Factor-series SV hyperpriors
    replicate the template's factor block when present, otherwise its first
    idiosyncratic values."""
    pri = spec.priors
    src = spec.n if len(pri.phi_mean) > spec.n else 0

    def pad(a):
        return np.concatenate([a[: spec.n], np.full(r, a[src])])

    priors = PriorSpec(
        beta_mean=pri.beta_mean, beta_var=pri.beta_var,
        load_mean=np.zeros((spec.n, r)), load_var=np.ones((spec.n, r)),
        mu_mean=pri.mu_mean, mu_var=pri.mu_var,
        phi_mean=pad(pri.phi_mean), phi_var=pad(pri.phi_var),
        sig2_shape=pad(pri.sig2_shape), sig2_scale=pad(pri.sig2_scale),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ModelSpec(
            n=spec.n, p=spec.p, r=r, T=spec.T, priors=priors,
            signs=SignMatrix.all_free(spec.n, r),
        )


def select_factor_count(y, x, spec_builder, candidates, settings, r2, seed):
    """Chain plus marginal likelihood per candidate factor count; returns
    rows ranked by log marginal likelihood with ties toward smaller r.
    A candidate fails, and is recorded as a row rather than raised, when the
    caller's `spec_builder` raises anything or when estimation raises a
    `VarFsvError`; any other error from the package propagates.  Chains run
    with `reduced_form=True`, so candidate specs need not point-identify
    the loadings."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    rows = []
    for idx, r in enumerate(candidates):
        try:
            spec_r = spec_builder(r)
        except Exception as exc:  # noqa: BLE001 - caller's code, marked failed
            rows.append(FactorCountRow(r=r, error=f"{type(exc).__name__}: {exc}"))
            continue
        try:
            chain = run_chain(y, x, spec_r, settings, reduced_form=True)
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, 1000 + idx))
            )
            res = marginal_likelihood(y, x, spec_r, chain, r2, rng)
            rows.append(
                FactorCountRow(r=r, log_ml=res.log_value, se=res.se, ess=res.ess)
            )
        except VarFsvError as exc:
            rows.append(FactorCountRow(r=r, error=f"{type(exc).__name__}: {exc}"))
    ok = [row for row in rows if row.error is None]
    failed = [row for row in rows if row.error is not None]
    ok.sort(key=lambda row: (-row.log_ml, row.r))
    return ok + failed

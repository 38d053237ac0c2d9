"""Model and prior types for the factor-SV VAR, sign-restriction validation,
and the variable-permutation machinery."""

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, NonPositiveScaleError

# sign-restriction codes
POS, NEG, ZERO, FREE = 1, -1, 0, 2


class SignMatrix:
    """n x r grid of loading restrictions: positive, negative, zero, or free."""

    def __init__(self, codes):
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise DimensionMismatchError("sign matrix must be 2-D")
        # checked before the cast, which would truncate 0.7 to ZERO
        if not np.isin(codes, [POS, NEG, ZERO, FREE]).all():
            raise ValueError("sign entries must be one of POS, NEG, ZERO, FREE")
        self.codes = codes.astype(np.int8, copy=False)

    @property
    def n(self):
        return self.codes.shape[0]

    @property
    def r(self):
        return self.codes.shape[1]

    @classmethod
    def all_free(cls, n, r):
        return cls(np.full((n, r), FREE, dtype=np.int8))

    @classmethod
    def from_pattern(cls, loadings):
        """Sign pattern of a numeric matrix (zeros map to zero restrictions)."""
        arr = np.asarray(loadings, dtype=float)
        return cls(np.where(arr > 0, POS, np.where(arr < 0, NEG, ZERO)))

    def permute_rows(self, perm):
        return SignMatrix(self.codes[perm.order])

    def satisfied_by(self, loadings):
        """Strict satisfaction: POS means > 0, NEG means < 0, ZERO exact."""
        arr = np.asarray(loadings, dtype=float)
        if arr.shape != self.codes.shape:
            raise DimensionMismatchError("loadings shape does not match sign matrix")
        ok = np.ones_like(arr, dtype=bool)
        pos, neg, zero = self.codes == POS, self.codes == NEG, self.codes == ZERO
        ok[pos] = arr[pos] > 0
        ok[neg] = arr[neg] < 0
        ok[zero] = arr[zero] == 0.0
        return bool(ok.all())


def sign_bounds(codes):
    """Box bounds (lower, upper) of the sign regions of loadings with these
    codes: POS is (0, inf), NEG (-inf, 0), FREE and ZERO unbounded.  Callers
    drop zero-restricted entries or set them to 0 after the draw."""
    lb = np.where(codes == POS, 0.0, -np.inf)
    ub = np.where(codes == NEG, 0.0, np.inf)
    return lb, ub


@dataclass
class ValidationReport:
    passed: bool
    problems: list = field(default_factory=list)


def validate_point_identification(signs):
    """Check the point-identification conditions on a sign matrix: every
    column carries at least one sign restriction, and no column equals
    another column or its sign flip (free entries match only free entries).
    """
    codes = signs.codes
    problems = []
    for j in range(signs.r):
        if not np.any((codes[:, j] == POS) | (codes[:, j] == NEG)):
            problems.append(f"column {j} unsigned")
    flip = {POS: NEG, NEG: POS, ZERO: ZERO, FREE: FREE}
    for j, k in itertools.combinations(range(signs.r), 2):
        if np.array_equal(codes[:, j], codes[:, k]):
            problems.append(f"columns {j} and {k} identical")
        neged = np.vectorize(flip.get, otypes=[np.int8])(codes[:, k])
        if np.array_equal(codes[:, j], neged):
            problems.append(f"columns {j} and {k} are sign flips of each other")
    return ValidationReport(passed=not problems, problems=problems)


@dataclass
class PriorSpec:
    """Hyperparameters of the independent priors, one entry per coordinate.

    Per-equation VAR coefficients and loadings carry diagonal normal priors;
    log-volatility means are normal, AR coefficients truncated normal on
    (-1, 1), and innovation variances inverse-gamma.
    """

    beta_mean: np.ndarray  # (n, k)
    beta_var: np.ndarray  # (n, k), diagonal covariance entries
    load_mean: np.ndarray  # (n, r)
    load_var: np.ndarray  # (n, r)
    mu_mean: np.ndarray  # (n,)
    mu_var: np.ndarray  # (n,)
    phi_mean: np.ndarray  # (n + r,)
    phi_var: np.ndarray  # (n + r,)
    sig2_shape: np.ndarray  # (n + r,)  inverse-gamma shape
    sig2_scale: np.ndarray  # (n + r,)  inverse-gamma scale

    def __post_init__(self):
        for name in (
            "beta_mean", "beta_var", "load_mean", "load_var", "mu_mean",
            "mu_var", "phi_mean", "phi_var", "sig2_shape", "sig2_scale",
        ):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.beta_var <= 0) or np.any(self.load_var <= 0):
            raise ValueError("prior variances must be positive")
        if np.any(self.mu_var <= 0) or np.any(self.phi_var <= 0):
            raise ValueError("prior variances must be positive")
        if np.any(self.sig2_shape <= 1) or np.any(self.sig2_scale <= 0):
            raise ValueError("inverse-gamma shape must exceed 1 and scale be positive")

    def permute(self, perm):
        o, n = perm.order, perm.n
        return PriorSpec(
            beta_mean=_permute_lag_columns(self.beta_mean[o], o),
            beta_var=_permute_lag_columns(self.beta_var[o], o),
            load_mean=self.load_mean[o],
            load_var=self.load_var[o],
            mu_mean=self.mu_mean[o],
            mu_var=self.mu_var[o],
            phi_mean=np.concatenate([self.phi_mean[:n][o], self.phi_mean[n:]]),
            phi_var=np.concatenate([self.phi_var[:n][o], self.phi_var[n:]]),
            sig2_shape=np.concatenate([self.sig2_shape[:n][o], self.sig2_shape[n:]]),
            sig2_scale=np.concatenate([self.sig2_scale[:n][o], self.sig2_scale[n:]]),
        )


def _permute_lag_columns(mat, order):
    """Copy of `mat` whose columns, laid out as (intercept, lag-1 block, ...,
    lag-p block) with one column per variable in each block, follow `order`
    within every lag block."""
    n = len(order)
    out = mat.copy()
    for lag in range((mat.shape[1] - 1) // n):
        cols = slice(1 + lag * n, 1 + (lag + 1) * n)
        out[:, cols] = out[:, cols][:, order]
    return out


def build_minnesota_prior(n, p, kappa1, kappa2, scale_vars, level_data,
                          intercept_factor=100.0):
    """Minnesota-style prior moments for the per-equation VAR coefficients.

    Own-lag variance kappa1 / lag^2, cross-lag (kappa2 / lag^2) * (s_i^2/s_j^2),
    intercept `intercept_factor` * s_i^2.  Prior means are zero, except the
    first own lag is one for level data.

    Parameters
    ----------
    scale_vars : ndarray (n,)
        Residual variances s_i^2 from univariate AR(p) fits.
    """
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("kappa1 and kappa2 must be positive")
    s2 = np.asarray(scale_vars, dtype=float)
    if np.any(s2 <= 0):
        raise NonPositiveScaleError("all AR residual variances must be positive")
    k = n * p + 1
    mean = np.zeros((n, k))
    var = np.empty((n, k))
    var[:, 0] = intercept_factor * s2
    for lag in range(1, p + 1):
        cols = slice(1 + (lag - 1) * n, 1 + lag * n)
        cross = (kappa2 / lag**2) * (s2[:, None] / s2[None, :])
        cross[np.diag_indices(n)] = kappa1 / lag**2
        var[:, cols] = cross
    if level_data:
        mean[np.arange(n), 1 + np.arange(n)] = 1.0
    return mean, var


def ar_residual_variances(data, p):
    """Per-series residual variance from a univariate AR(p) fit with intercept."""
    data = np.asarray(data, dtype=float)
    t_eff = data.shape[0] - p
    if t_eff <= p + 1:
        # too short for a dof-corrected fit; fall back to the sample variance
        return np.var(data, axis=0, ddof=1)
    out = np.empty(data.shape[1])
    for i in range(data.shape[1]):
        yv = data[p:, i]
        xv = np.column_stack(
            [np.ones(t_eff)] + [data[p - lag : -lag, i] for lag in range(1, p + 1)]
        )
        coef, *_ = np.linalg.lstsq(xv, yv, rcond=None)
        resid = yv - xv @ coef
        out[i] = resid @ resid / max(t_eff - p - 1, 1)
    return out


def default_priors(data, n, p, r, kappa1=1.0, kappa2=1.0, level_data=False,
                   load_var=1.0, mu_var=10.0, phi_mean=0.97, phi_var=0.01,
                   sig2_shape=5.0, sig2_scale=0.04):
    """Standard prior setup from the data: Minnesota moments for the VAR
    coefficients, log-volatility means centered so that a tenth of each
    series' sample variance is idiosyncratic a priori, and weakly
    informative SV hyperparameters."""
    s2 = ar_residual_variances(data, p)
    beta_mean, beta_var = build_minnesota_prior(n, p, kappa1, kappa2, s2, level_data)
    sample_var = np.var(np.asarray(data, dtype=float), axis=0, ddof=1)
    d = n + r
    return PriorSpec(
        beta_mean=beta_mean,
        beta_var=beta_var,
        load_mean=np.zeros((n, r)),
        load_var=np.full((n, r), load_var),
        mu_mean=np.log(0.1 * sample_var),
        mu_var=np.full(n, mu_var),
        phi_mean=np.full(d, phi_mean),
        phi_var=np.full(d, phi_var),
        sig2_shape=np.full(d, sig2_shape),
        sig2_scale=np.full(d, sig2_scale),
    )


@dataclass
class ModelSpec:
    """Dimensions, priors and identification restrictions of one model."""

    n: int
    p: int
    r: int
    T: int
    priors: PriorSpec
    signs: SignMatrix

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.r < 0:
            raise ValueError("need n >= 1, p >= 1, r >= 0")
        if self.T <= self.p:
            raise ValueError("need T > p")
        if self.signs.codes.shape != (self.n, self.r):
            raise DimensionMismatchError("sign matrix shape must be (n, r)")
        n, k, d = self.n, self.k, self.n + self.r
        for name, shape in (
            ("beta_mean", (n, k)), ("beta_var", (n, k)),
            ("load_mean", (n, self.r)), ("load_var", (n, self.r)),
            ("mu_mean", (n,)), ("mu_var", (n,)),
            ("phi_mean", (d,)), ("phi_var", (d,)),
            ("sig2_shape", (d,)), ("sig2_scale", (d,)),
        ):
            got = getattr(self.priors, name).shape
            if got != shape:
                raise DimensionMismatchError(
                    f"prior {name} has shape {got}, expected {shape}"
                )
        if self.r > (self.n - 1) / 2:
            warnings.warn(
                f"r={self.r} exceeds (n-1)/2={(self.n - 1) / 2}; loadings may not "
                "be separable from idiosyncratic variances",
                UserWarning,
            )

    @property
    def k(self):
        return self.n * self.p + 1


@dataclass
class ParamDraw:
    """One joint draw of the static parameters.

    `beta` is the stacked per-equation coefficient vector of length n*k with
    k = n*p + 1; each equation block is (intercept, lag-1 coefficients on all
    variables, ..., lag-p coefficients).
    """

    beta: np.ndarray  # (n * k,)
    load: np.ndarray  # (n, r)
    mu: np.ndarray  # (n,)
    phi: np.ndarray  # (n + r,)
    sig2: np.ndarray  # (n + r,)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.load = np.atleast_2d(np.asarray(self.load, dtype=float))
        self.mu = np.asarray(self.mu, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.sig2 = np.asarray(self.sig2, dtype=float)

    @property
    def n(self):
        return self.load.shape[0]

    @property
    def r(self):
        return self.load.shape[1]

    @property
    def k(self):
        return self.beta.size // self.n

    @property
    def p(self):
        return (self.k - 1) // self.n

    def beta_matrix(self):
        """(n, k) view: row i holds equation i's coefficients."""
        return self.beta.reshape(self.n, self.k)

    def validate(self, signs=None):
        if np.any(np.abs(self.phi) >= 1):
            raise ValueError("|phi| must be < 1")
        if np.any(self.sig2 <= 0):
            raise ValueError("sig2 must be positive")
        if signs is not None and not signs.satisfied_by(self.load):
            raise ValueError("loadings violate the sign restrictions")
        return True


@dataclass
class LatentStates:
    """Log-volatility paths (first n columns idiosyncratic, last r factor)
    and factor paths, both over the effective sample."""

    h: np.ndarray  # (T, n + r)
    f: np.ndarray  # (T, r)

    def __post_init__(self):
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        self.f = np.asarray(self.f, dtype=float).reshape(self.h.shape[0], -1)
        if not (np.isfinite(self.h).all() and np.isfinite(self.f).all()):
            raise ValueError("latent states must be finite")


@dataclass(frozen=True)
class Permutation:
    """Reordering of the n variables: new variable i is old variable order[i]."""

    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=int)
        if sorted(order.tolist()) != list(range(len(order))):
            raise ValueError("not a bijection on 0..n-1")
        object.__setattr__(self, "order", order)

    @property
    def n(self):
        return len(self.order)

    def inverse(self):
        inv = np.empty(self.n, dtype=int)
        inv[self.order] = np.arange(self.n)
        return Permutation(inv)


def permute_model(draw, states, perm):
    """Covariant transformation of a parameter draw and latent states under a
    variable reordering: equations and within-lag coefficient columns are
    reordered together, loadings/means/idiosyncratic SV parameters by row,
    factor blocks untouched."""
    n = draw.n
    if perm.n != n:
        raise DimensionMismatchError("permutation length does not match n")
    o = perm.order
    new_beta = _permute_lag_columns(draw.beta_matrix()[o], o).ravel()
    new = ParamDraw(
        beta=new_beta,
        load=draw.load[o],
        mu=draw.mu[o],
        phi=np.concatenate([draw.phi[:n][o], draw.phi[n:]]),
        sig2=np.concatenate([draw.sig2[:n][o], draw.sig2[n:]]),
    )
    new_states = LatentStates(
        h=np.concatenate([states.h[:, :n][:, o], states.h[:, n:]], axis=1),
        f=states.f.copy(),
    )
    return new, new_states


def permute_data(y, x, perm):
    """Reorder data columns and the matching lag-regressor columns."""
    return y[:, perm.order], _permute_lag_columns(x, perm.order)


def build_lagged(raw, p):
    """Split a raw (T_raw, n) series into (y, x) with x_t = (1, y_{t-1}, ..., y_{t-p});
    the first p rows condition the likelihood and are dropped from y."""
    raw = np.asarray(raw, dtype=float)
    t_raw, n = raw.shape
    if t_raw <= p:
        raise ValueError("need more rows than lags")
    t = t_raw - p
    x = np.ones((t, n * p + 1))
    for lag in range(1, p + 1):
        x[:, 1 + (lag - 1) * n : 1 + lag * n] = raw[p - lag : t_raw - lag]
    return raw[p:].copy(), x

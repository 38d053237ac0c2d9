"""Six-block Gibbs sampler for the factor-SV VAR posterior.

Sweep order: latent factors (one Cholesky per period), VAR coefficients and
loadings (all equations in one block: one product of exp(-h)' with the
per-period regressor products writes every equation's bordered posterior
precision straight into LAPACK's rectangular full packed layout, which one
in-place `dpftrf` factors and one `dtfsm` back-solves per equation;
loadings truncated to the sign restrictions by one accept-reject pass over
all sign-restricted equations), log-volatility paths (auxiliary mixture sampler,
one LDL' factorization of the tridiagonal precision and one solve per scan),
innovation variances (inverse-gamma), log-volatility means (normal), and AR
coefficients (independence-chain Metropolis-Hastings).  The SV parameters of
different series are conditionally independent given the paths, so each of
the last three steps draws all series at once.

Each block consumes randomness from its own spawned stream, so chain output
is bit-reproducible from the seed and invariant to the internal ordering of
the conditionally independent equation draws.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import tmvn
from .exceptions import (
    ConfigError,
    NotPositiveDefiniteError,
    NumericalError,
    TruncationFailureError,
)
from .intlike import ar1_precision_diagonals, factor_precision, residuals, tri_solve
from .model import (
    FREE,
    NEG,
    POS,
    ZERO,
    LatentStates,
    ParamDraw,
    sign_bounds,
    validate_point_identification,
)

# 7-component normal mixture approximation of the log chi-squared(1)
# distribution; component means are stored net of the -1.2704 location shift.
_MIX_PROB = np.array(
    [0.00730, 0.10556, 0.00002, 0.04395, 0.34001, 0.24566, 0.25750]
)
_MIX_MEAN = (
    np.array([-10.12999, -3.97281, -8.56686, 2.77786, 0.61942, 1.79518, -1.08819])
    - 1.2704
)
_MIX_VAR = np.array([5.79596, 2.61369, 5.17950, 0.16735, 0.64009, 0.34023, 1.26261])
# the part of each component's log-density that does not depend on the data
_MIX_LOG_NORM = np.log(_MIX_PROB) - 0.5 * np.log(2 * np.pi * _MIX_VAR)

LOG_SQUARE_OFFSET = 1e-4  # c in log(z^2 + c)


@dataclass
class McmcSettings:
    """Sweep counts and seeding: `draws` post-burn-in sweeps are run and
    every `thin`-th is stored."""

    burn_in: int = 1000
    draws: int = 5000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.draws < 1:
            raise ConfigError("draws must be >= 1")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")

    @property
    def stored(self):
        return (self.draws + self.thin - 1) // self.thin


CHAIN_FORMAT = "varfsv-chain-v1"


@dataclass
class McmcChain:
    """Stored posterior draws (thinned, post-burn-in) plus diagnostics."""

    n: int
    p: int
    r: int
    T: int
    settings: McmcSettings
    beta: np.ndarray  # (S, n*k)
    load: np.ndarray  # (S, n, r)
    mu: np.ndarray  # (S, n)
    phi: np.ndarray  # (S, n+r)
    sig2: np.ndarray  # (S, n+r)
    h: np.ndarray  # (S, T, n+r)
    f: np.ndarray  # (S, T, r)
    phi_accept: np.ndarray  # (n+r,) acceptance rates

    @property
    def size(self):
        return self.beta.shape[0]

    @property
    def k(self):
        return self.n * self.p + 1

    def param_draw(self, s):
        return ParamDraw(
            beta=self.beta[s], load=self.load[s], mu=self.mu[s],
            phi=self.phi[s], sig2=self.sig2[s],
        )

    def validate_records(self, signs=None):
        for s in range(self.size):
            self.param_draw(s).validate(signs)
        return True

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(
            os.path.join(directory, "draws.npz"),
            beta=self.beta, load=self.load, mu=self.mu, phi=self.phi,
            sig2=self.sig2, h=self.h, f=self.f, phi_accept=self.phi_accept,
        )
        manifest = {
            "format": CHAIN_FORMAT,
            "n": self.n, "p": self.p, "r": self.r, "T": self.T,
            "settings": {
                "burn_in": self.settings.burn_in,
                "draws": self.settings.draws,
                "thin": self.settings.thin,
                "seed": self.settings.seed,
            },
            "stored": int(self.size),
        }
        with open(os.path.join(directory, "chain.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    @classmethod
    def read(cls, directory):
        with open(os.path.join(directory, "chain.json")) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != CHAIN_FORMAT:
            raise ConfigError(f"unsupported chain format in {directory}")
        data = np.load(os.path.join(directory, "draws.npz"))
        return cls(
            n=manifest["n"], p=manifest["p"], r=manifest["r"], T=manifest["T"],
            settings=McmcSettings(**manifest["settings"]),
            beta=data["beta"], load=data["load"], mu=data["mu"],
            phi=data["phi"], sig2=data["sig2"], h=data["h"], f=data["f"],
            phi_accept=data["phi_accept"],
        )


# ---------------------------------------------------------------------------
# step 1: latent factors


def sample_factors(y, x, draw, h, rng):
    """Joint draw of all factor paths from N(f-hat, K_f^{-1}); K_f is block
    diagonal over time, so with K_t = C_t C_t' a draw is
    f_t = C_t'^{-1} (u_t + z_t), u_t = C_t^{-1} b_t, with the T*r standard
    normals z taken time-major."""
    c, u, _ = factor_precision(residuals(y, x, draw.beta), draw.load, h)
    return tri_solve(c, u + rng.standard_normal(u.shape), trans=True)


# ---------------------------------------------------------------------------
# step 2: VAR coefficients and loadings, all equations in one block


class RfpLayout:
    """The bordered (N, N), N = k + r + 1, posterior precisions of
    `sample_beta_loadings` in LAPACK's rectangular full packed (RFP) format
    (transr 'N', uplo 'L'): `pos[i, j]` is the slot of entry (i, j) in the
    length-N(N+1)/2 array, symmetric, so row `pos[i]` lists every slot of
    row and column i.  `prod` holds, one row per period t, the products of
    the entries of (x_t, f_t) in slot order: the x block is filled here, the
    factor rows by every `bordered_precisions` call, and the border row
    stays zero, so the data part of all n precisions is one product of
    exp(-h)' with it."""

    def __init__(self, x, r):
        T, k = x.shape
        N = k + r + 1
        # dtrttf moves the label i*N + j of entry (i, j) to that entry's slot
        labels = lapack.dtrttf(np.arange(N * N, dtype=float).reshape(N, N),
                               transr="N", uplo="L")[0]
        pos = np.zeros(N * N, np.intp)
        pos[labels.astype(np.intp)] = np.arange(labels.size)
        pos = np.tril(pos.reshape(N, N))
        self.pos = pos + np.tril(pos, -1).T
        i, j = np.tril_indices(N - 1)
        fac = i >= k
        self.prod = np.zeros((T, labels.size))
        self.prod[:, self.pos[i[~fac], j[~fac]]] = x[:, i[~fac]] * x[:, j[~fac]]
        # the factor rows' entries in slot order, so each refresh writes forward
        order = np.argsort(self.pos[i[fac], j[fac]])
        self.fac_rows, self.fac_cols = i[fac][order], j[fac][order]
        self.fac_slots = self.pos[self.fac_rows, self.fac_cols]


def bordered_precisions(y, x, rfp, fmat, h, beta_mean, beta_var, load_mean,
                         load_var, codes):
    """The n bordered posterior precisions [[K_i, .], [b_i', c_i]] of the
    equations' (beta_i, l_i), one RFP array per row of the (n, N(N+1)/2)
    result, and the (n, k + r) mask of coordinates that are not
    zero-restricted.  Only the lower triangle of each is defined."""
    n, k, r = y.shape[1], x.shape[1], fmat.shape[1]
    m = k + r
    pos = rfp.pos
    keep = np.concatenate([np.ones((n, k), bool), codes != ZERO], axis=1)
    var0 = np.where(keep, np.concatenate([beta_var, load_var], axis=1), 1.0)
    theta0 = np.where(keep, np.concatenate([beta_mean, load_mean], axis=1), 0.0)
    w = np.exp(-h.T)
    wy = w * y.T
    xf = np.concatenate([x, fmat], axis=1)
    rfp.prod[:, rfp.fac_slots] = xf[:, rfp.fac_rows] * xf[:, rfp.fac_cols]
    a = w @ rfp.prod
    diag = np.arange(m)
    a[:, pos[diag, diag]] += 1.0 / var0
    a[:, pos[m, :m]] = wy @ xf + theta0 / var0
    # the corner only has to exceed |u|^2 = b'K^{-1}b <= y'Wy + theta0'P theta0;
    # twice that keeps rounding in |u|^2 from ever reaching it
    a[:, pos[m, m]] = 2.0 * (np.sum(wy * y.T, axis=1) + np.sum(theta0**2 / var0, axis=1)) + 1.0
    # zero-restricted coordinates: no cross terms, no right-hand side, unit
    # diagonal (row pos[c] holds every slot of row and column c)
    eq, col = np.nonzero(~keep)
    a[eq[:, None], pos[col]] = 0.0
    a[eq, pos[col, col]] = 1.0
    return a, keep


def sample_beta_loadings(y, x, rfp, fmat, h, beta_mean, beta_var, load_mean,
                         load_var, codes, load, rngs):
    """Joint draw of (beta_i, l_i) for all n equations from their truncated
    normal conditionals; returns the (n, k) coefficients and (n, r) loadings.

    The n posterior precisions are built together in the RFP layout `rfp`
    (an `RfpLayout` of x and r): x'W_i x for all of them from one product of
    exp(-h) with its products, bordered by their right-hand sides b, so one
    in-place `dpftrf` per equation gives L and, in its last row,
    u = L^{-1} b; a draw is theta = L'^{-1}(u + z), one `dtfsm` on
    [u + z; 0].  Zero-restricted loadings are decoupled unit coordinates (no
    cross terms, zero right-hand side), drawn unbounded and set to exactly 0
    at the end.  Sign-restricted loadings are drawn first from their marginal
    N(l_hat = L22'^{-1} u_l, (L22 L22')^{-1}), L22 = L[k:, k:], by one
    accept-reject pass over all sign-restricted equations through the roots
    L22'^{-1}, or by a box-Gibbs update from the current `load` for an
    equation none of whose proposals is inside.  beta then takes its exact
    conditional from z_l = L22'(l - l_hat), which for an accepted proposal is
    that proposal's own normal vector.  Equation i draws only from `rngs[i]`:
    one proposal, the batch only on a miss, the box, then k normals."""
    n, k, r = y.shape[1], x.shape[1], fmat.shape[1]
    m, pos = k + r, rfp.pos
    a, keep = bordered_precisions(y, x, rfp, fmat, h, beta_mean, beta_var,
                                  load_mean, load_var, codes)

    is_signed = np.any((codes == POS) | (codes == NEG), axis=1)
    for i in range(n):
        # in place: row i becomes the factor [[L, 0], [u', .]] in the same layout
        if lapack.dpftrf(m + 1, a[i], transr="N", uplo="L", overwrite_a=1)[1] != 0:
            raise NumericalError(f"equation {i} posterior precision not PD")
    # right-hand sides [u + z; 0]: the last unknown of the bordered solve is 0
    b = np.zeros((n, m + 1))
    b[:, :m] = a[:, pos[m, :m]]
    for i in np.flatnonzero(~is_signed):
        b[i, :m][keep[i]] += rngs[i].standard_normal(np.count_nonzero(keep[i]))
    signed = np.flatnonzero(is_signed)
    if signed.size:
        # L22 is the factor's lower triangle on rows and columns k..m-1
        l22 = a[signed[:, None, None], pos[k:m, k:m]] * np.tri(r)
        l_hat = tri_solve(l22, b[signed, k:m], trans=True)
        root = tri_solve(l22, np.broadcast_to(np.eye(r), l22.shape), trans=True)
        lb, ub = sign_bounds(codes[signed])
        l_draw, z_l = tmvn.TruncatedMVN(l_hat, root, lb, ub).sample_one(
            [rngs[i] for i in signed]
        )
        for j, i in enumerate(signed):
            if np.isnan(l_draw[j, 0]):
                if not np.all((load[i] > lb[j]) & (load[i] < ub[j])):
                    raise TruncationFailureError("no feasible start in the loading orthant")
                l_draw[j] = tmvn.gibbs_sample_box(
                    rngs[i], l_hat[j], l22[j] @ l22[j].T, lb[j], ub[j], load[i]
                )
                z_l[j] = l22[j].T @ (l_draw[j] - l_hat[j])
            b[i, :k] += rngs[i].standard_normal(k)
            b[i, k:m] += z_l[j]
    for i in range(n):
        lapack.dtfsm(1.0, a[i], b[i, :, None], transr="N", uplo="L", trans="T",
                     overwrite_b=1)
    if signed.size:
        b[signed, k:m] = l_draw  # exactly the draw inside the orthant
    return b[:, :k], np.where(keep[:, k:], b[:, k:m], 0.0)


# ---------------------------------------------------------------------------
# step 3: log-volatility paths


def _mixture_indicators(ystar, h, rng):
    """Posterior draw of the mixture component of each (t, series) cell: the
    count of unnormalised cumulative component probabilities, shifted by the
    cell's largest, below u times their total (at most 6 since u < 1)."""
    dev = ystar - h
    p = np.empty((len(_MIX_MEAN),) + dev.shape)
    for j in range(len(_MIX_MEAN)):
        p[j] = _MIX_LOG_NORM[j] - (dev - _MIX_MEAN[j]) ** 2 / (2.0 * _MIX_VAR[j])
    p -= p.max(axis=0)
    np.exp(p, out=p)
    # running sums over the components, the additions of np.cumsum(axis=0)
    # in the same order without its strided scan
    for j in range(1, len(_MIX_MEAN)):
        p[j] += p[j - 1]
    u = rng.uniform(size=dev.shape) * p[-1]
    return np.count_nonzero(p[:-1] < u, axis=0)


def _stacked_sv_draw(ystar, h_current, means, phi, sig2, rng):
    """One scan of the volatility block: mixture indicators drawn from their
    exact conditional given the current paths, then all paths jointly from
    the resulting linear-Gaussian model.  Stacked series by series, its
    precision P is tridiagonal.  One LDL' factorization P = L D L' gives the
    Cholesky factor G = L D^{1/2}, and the draw mean + G'^{-1} z equals
    P^{-1}(rhs + G z), so a single solve gives it (the precision sampler of
    Chan & Jeliazkov, 2009)."""
    T, d = ystar.shape
    s = _mixture_indicators(ystar, h_current, rng)
    # series-major stacking: series i occupies [i*T, (i+1)*T)
    obs = (ystar - _MIX_MEAN[s]).T.ravel()
    obs_prec = (1.0 / _MIX_VAR[s]).T.ravel()
    # the AR(1) prior precision stacked the same way is tridiagonal, since
    # each series' lag diagonal ends in a zero
    main, lag = (a.ravel() for a in ar1_precision_diagonals(phi, sig2, T))
    m = np.repeat(means, T)
    rhs = m * main
    if T > 1:
        rhs[1:] += lag[:-1] * m[:-1]
        rhs[:-1] += lag[:-1] * m[1:]
    rhs += obs_prec * obs
    # at T = 1 the series are uncoupled; LAPACK takes one off-diagonal entry
    # even for a 1 x 1 matrix
    piv, low, info = lapack.dpttrf(main + obs_prec, lag[: max(d * T - 1, 1)])
    if info != 0 or not np.all((piv > 0) & (piv < np.inf)):
        raise NotPositiveDefiniteError("volatility precision not positive definite")
    # G z: sqrt(D) z, plus the unit lower bidiagonal L's one band below
    gz = np.sqrt(piv) * rng.standard_normal(d * T)
    gz[1:] += low[: d * T - 1] * gz[:-1]
    return lapack.dpttrs(piv, low, rhs + gz)[0].reshape(d, T).T


# ---------------------------------------------------------------------------
# steps 4-6: SV parameters


def _by_series(h):
    """The (T, d) paths as contiguous (d, T) rows (a (T,) path as it is), so
    every sum over time is the same pairwise sum for one series or many."""
    return np.ascontiguousarray(np.transpose(h))


def sample_sigma2(h, mu, phi, shape0, scale0, rng):
    """Inverse-gamma conditionals of the innovation variances, one draw per
    column of the (T, d) paths `h` for all series at once, taken from `rng`
    in column order; a (T,) path with scalar parameters gives one draw."""
    dev = _by_series(h - mu)
    ssq = (1.0 - phi**2) * dev[..., 0] ** 2 + np.sum(
        (dev[..., 1:] - np.expand_dims(phi, -1) * dev[..., :-1]) ** 2, axis=-1
    )
    return (scale0 + ssq / 2.0) / rng.gamma(shape0 + len(h) / 2.0)


def sample_mu(h, phi, sig2, mu0, v_mu, rng):
    """Normal conditionals of the idiosyncratic log-volatility means, one
    draw per column of the (T, d) paths `h` for all series at once, taken
    from `rng` in column order."""
    hs = _by_series(h)
    T = hs.shape[-1]
    prec = 1.0 / v_mu + ((1.0 - phi**2) + (T - 1) * (1.0 - phi) ** 2) / sig2
    num = mu0 / v_mu + (
        (1.0 - phi**2) * hs[..., 0]
        + (1.0 - phi)
        * np.sum(hs[..., 1:] - np.expand_dims(phi, -1) * hs[..., :-1], axis=-1)
    ) / sig2
    return num / prec + rng.standard_normal(np.shape(prec)) / np.sqrt(prec)


def _log_g_phi(phi, h1_dev, sig2):
    return 0.5 * np.log1p(-(phi**2)) - (1.0 - phi**2) * h1_dev**2 / (2.0 * sig2)


def sample_phi(h, mu, sig2, phi0, v_phi, phi_cur, rng):
    """Independence-chain MH updates of the AR coefficients, one per column
    of the (T, d) paths `h` for all series at once: the truncated-normal
    proposals of every series are drawn from `rng`, then one uniform each.
    Returns (new values, accepted flags)."""
    dev = _by_series(h - mu)
    ssx = np.sum(dev[..., :-1] ** 2, axis=-1)
    sxy = np.sum(dev[..., :-1] * dev[..., 1:], axis=-1)
    prec = 1.0 / v_phi + ssx / sig2
    mean = (phi0 / v_phi + sxy / sig2) / prec
    sd = 1.0 / np.sqrt(prec)
    prop = mean + sd * tmvn.trandn(rng, (-1.0 - mean) / sd, (1.0 - mean) / sd)
    log_ratio = _log_g_phi(prop, dev[..., 0], sig2) - _log_g_phi(
        phi_cur, dev[..., 0], sig2
    )
    ok = np.log(rng.uniform(size=np.shape(prop))) < log_ratio
    return np.where(ok, prop, phi_cur), ok


# ---------------------------------------------------------------------------
# the full sampler


def initial_values(spec, rng):
    """Starting point inside all support constraints: prior-mean coefficients
    and volatility means, zero factors, loadings of magnitude 0.1 obeying the
    signs, phi = 0.95, sig2 = 0.01."""
    n, r = spec.n, spec.r
    codes = spec.signs.codes
    flip = np.where(rng.uniform(size=codes.shape) < 0.5, -1.0, 1.0)
    draw = ParamDraw(
        beta=spec.priors.beta_mean.ravel().copy(),
        load=0.1 * np.select([codes == POS, codes == NEG, codes == FREE],
                             [1.0, -1.0, flip], 0.0),
        mu=spec.priors.mu_mean.copy(),
        phi=np.full(n + r, 0.95),
        sig2=np.full(n + r, 0.01),
    )
    h = np.tile(np.concatenate([draw.mu, np.zeros(r)]), (spec.T, 1))
    states = LatentStates(h=h, f=np.zeros((spec.T, r)))
    return draw, states


def run_chain(y, x, spec, settings, reduced_form=False):
    """Run the posterior sampler and return the thinned chain.

    The sign matrix must pass the point-identification check unless
    `reduced_form=True` is given explicitly.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n, p, r, T = spec.n, spec.p, spec.r, spec.T
    d = n + r
    if y.shape != (T, n) or x.shape != (T, spec.k):
        raise ConfigError(
            f"data shape mismatch: y {y.shape} x {x.shape}, expected "
            f"{(T, n)} and {(T, spec.k)}"
        )
    if not reduced_form:
        report = validate_point_identification(spec.signs)
        if not report.passed:
            raise ConfigError(
                "sign restrictions do not point-identify the loadings: "
                + "; ".join(report.problems)
                + " (pass reduced_form=True to run anyway)"
            )

    ss = np.random.SeedSequence(settings.seed)
    streams = ss.spawn(5 + n)
    rng_init = np.random.default_rng(streams[0])
    rng_f = np.random.default_rng(streams[1])
    rng_h = np.random.default_rng(streams[2])
    rng_sv = np.random.default_rng(streams[3])
    rng_phi = np.random.default_rng(streams[4])
    rng_eq = [np.random.default_rng(s) for s in streams[5:]]

    draw, states = initial_values(spec, rng_init)
    beta_mat, load, h = draw.beta_matrix(), draw.load, states.h
    mu, phi, sig2 = draw.mu, draw.phi, draw.sig2
    pri = spec.priors
    rfp = RfpLayout(x, r)

    stored = settings.stored
    chain = McmcChain(
        n=n, p=p, r=r, T=T, settings=settings,
        beta=np.empty((stored, n * spec.k)),
        load=np.empty((stored, n, r)),
        mu=np.empty((stored, n)),
        phi=np.empty((stored, d)),
        sig2=np.empty((stored, d)),
        h=np.empty((stored, T, d)),
        f=np.empty((stored, T, r)),
        phi_accept=np.zeros(d),
    )
    total = settings.burn_in + settings.draws
    mean_full = np.concatenate([mu, np.zeros(r)])
    slot = 0
    for sweep in range(total):
        try:
            cur = ParamDraw(beta=beta_mat.ravel(), load=load, mu=mu, phi=phi, sig2=sig2)
            f = sample_factors(y, x, cur, h, rng_f)
            beta_mat, load = sample_beta_loadings(
                y, x, rfp, f, h[:, :n], pri.beta_mean, pri.beta_var,
                pri.load_mean, pri.load_var, spec.signs.codes, load, rng_eq,
            )
            resid = residuals(y, x, beta_mat) - f @ load.T
            zmat = np.concatenate([resid, f], axis=1)
            ystar = np.log(zmat**2 + LOG_SQUARE_OFFSET)
            h = _stacked_sv_draw(ystar, h, mean_full, phi, sig2, rng_h)
            sig2 = sample_sigma2(
                h, mean_full, phi, pri.sig2_shape, pri.sig2_scale, rng_sv
            )
            mu = sample_mu(h[:, :n], phi[:n], sig2[:n], pri.mu_mean, pri.mu_var, rng_sv)
            mean_full[:n] = mu
            phi, ok = sample_phi(
                h, mean_full, sig2, pri.phi_mean, pri.phi_var, phi, rng_phi
            )
            if sweep >= settings.burn_in:
                chain.phi_accept += ok
        except NumericalError as exc:
            raise type(exc)(f"sweep {sweep}: {exc}") from exc
        post = sweep - settings.burn_in
        if post >= 0 and post % settings.thin == 0:
            chain.beta[slot] = beta_mat.ravel()
            chain.load[slot] = load
            chain.mu[slot] = mu
            chain.phi[slot] = phi
            chain.sig2[slot] = sig2
            chain.h[slot] = h
            chain.f[slot] = f
            slot += 1
    chain.phi_accept /= settings.draws
    return chain

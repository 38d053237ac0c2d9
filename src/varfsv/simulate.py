"""Data-generating processes for recovery checks and the factor-count
selection experiments.

`generate_dataset` redraws the VAR coefficients until the companion spectral
radius is below 0.999.  Most rejected draws are caught by `certainly_unstable`,
a trace-power bound that can only ever reject (|tr(B^k)| <= dim rho(B)^k), so
the datasets are those of the eigenvalue test alone."""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import MaxResimulationsError, VarFsvError
from .model import LatentStates, ParamDraw, build_lagged

_BURN = 100  # transient periods discarded before the kept sample
_PHI = 0.98  # AR coefficient of every log-volatility path
_SIG2 = 0.01  # innovation variance of every log-volatility path
_STABILITY_RADIUS = 0.999  # largest companion spectral radius accepted
_MAX_RESIMULATIONS = 1000
_TRACE_SQUARINGS = 10  # powers up to 2^10 in the instability pretest


@dataclass
class DgpConfig:
    """Simulation design: dimensions, signal-to-noise scalar theta multiplying
    the idiosyncratic errors (variance scale theta), and the seed."""

    n: int
    p: int
    r: int
    T: int
    theta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n, self.p, self.T) < 1 or self.r < 0:
            raise ValueError("dimensions must be positive (r >= 0)")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


@dataclass
class DatasetBundle:
    y: np.ndarray  # (T, n)
    x: np.ndarray  # (T, k)
    truth: ParamDraw
    states: LatentStates
    n_resimulations: int = 0


def draw_var_coefficients(cfg, rng):
    """One draw of (a0, A_1..A_p) from the experiment design: intercepts
    U(-10,10); first-lag diagonal U(0,0.5), off-diagonal U(-0.2,0.2); later
    lags N(0, 0.1^2/j^2)."""
    n, p = cfg.n, cfg.p
    a0 = rng.uniform(-10.0, 10.0, n)
    mats = []
    a1 = rng.uniform(-0.2, 0.2, (n, n))
    a1[np.diag_indices(n)] = rng.uniform(0.0, 0.5, n)
    mats.append(a1)
    for j in range(2, p + 1):
        mats.append(rng.normal(0.0, 0.1 / j, (n, n)))
    return a0, mats


def _companion(mats):
    n = mats[0].shape[0]
    p = len(mats)
    comp = np.zeros((n * p, n * p))
    comp[:n] = np.hstack(mats)
    if p > 1:
        comp[n:, : n * (p - 1)] = np.eye(n * (p - 1))
    return comp


def companion_radius(mats):
    return np.max(np.abs(np.linalg.eigvals(_companion(mats))))


def certainly_unstable(mats, bound):
    """True when a trace of a power of the companion matrix C of (A_1..A_p)
    proves its spectral radius at least `bound`.

    With B = C / bound of dimension m = n*p, every power has
    |tr(B^k)| = |sum_i lambda_i^k| <= m rho(B)^k, so |tr(B^k)| > m puts
    rho(C) above bound.  B is squared up to `_TRACE_SQUARINGS` times
    (k = 1, 2, 4, ..., 1024), stopping at the first trace beyond 2 m; the
    factor 2 is margin for rounding.  Each step is one m x m product, against
    an m x m eigenproblem for `companion_radius`.  A non-finite trace ends
    the test with False, and a False answer says nothing.
    """
    power = _companion(mats) / bound
    limit = 2.0 * power.shape[0]
    for j in range(_TRACE_SQUARINGS + 1):
        trace = np.trace(power)
        if not np.isfinite(trace):
            return False
        if abs(trace) > limit:
            return True
        if j < _TRACE_SQUARINGS:
            power = power @ power
    return False


def _simulate_sv_paths(cfg, rng, length):
    """Zero-mean AR(1) log-volatility paths started from their stationary
    law."""
    d = cfg.n + cfg.r
    sd = np.sqrt(_SIG2)
    h = np.empty((length, d))
    h[0] = sd / np.sqrt(1 - _PHI**2) * rng.standard_normal(d)
    shocks = rng.normal(0.0, sd, (length - 1, d))
    for t in range(1, length):
        h[t] = _PHI * h[t - 1] + shocks[t - 1]
    return h


def generate_dataset(cfg, rng=None):
    """Simulate one dataset and its generating parameters.

    The VAR coefficient draw is repeated until the companion spectral radius
    is below `_STABILITY_RADIUS` (the count is reported).  A draw with
    |tr(B^(2^j))| > 2 n p for some j <= 10, B the companion matrix over the
    bound, is rejected by `certainly_unstable` before any eigenvalue is
    computed.  Since |tr(B^k)| <= n p rho(B)^k, that bound only ever rejects
    draws the eigenvalue test rejects too, and every draw it passes goes to
    `companion_radius`, so the datasets are those of the eigenvalue test
    alone.  The returned truth folds the theta scaling of the
    idiosyncratic errors into their log-volatility paths and means, so it is
    an exact parameter point of the estimated model class.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n, p, r, T = cfg.n, cfg.p, cfg.r, cfg.T
    a0, mats = draw_var_coefficients(cfg, rng)
    resim = 0
    while (
        certainly_unstable(mats, _STABILITY_RADIUS)
        or companion_radius(mats) >= _STABILITY_RADIUS
    ):
        resim += 1
        if resim >= _MAX_RESIMULATIONS:
            raise MaxResimulationsError(
                f"no stable coefficient draw in {_MAX_RESIMULATIONS} tries"
            )
        a0, mats = draw_var_coefficients(cfg, rng)
    load = rng.standard_normal((n, r))

    length = _BURN + p + T
    h = _simulate_sv_paths(cfg, rng, length)
    f = np.exp(h[:, n:] / 2.0) * rng.standard_normal((length, r))
    u = np.exp(h[:, :n] / 2.0) * rng.standard_normal((length, n))
    eps = f @ load.T + np.sqrt(cfg.theta) * u

    mean_y = np.linalg.solve(
        np.eye(n) - sum(mats), a0
    )  # unconditional mean used as the start-up value
    yfull = np.empty((length, n))
    yfull[:p] = mean_y
    for t in range(p, length):
        yt = a0 + eps[t]
        for j, aj in enumerate(mats, start=1):
            yt = yt + aj @ yfull[t - j]
        yfull[t] = yt
    y, x = build_lagged(yfull[length - T - p:], p)

    beta = np.hstack([a0[:, None]] + [aj for aj in mats]).ravel()
    h_kept = h[-T:].copy()
    h_kept[:, :n] += np.log(cfg.theta)
    truth = ParamDraw(
        beta=beta,
        load=load,
        mu=np.full(n, np.log(cfg.theta)),
        phi=np.full(n + r, _PHI),
        sig2=np.full(n + r, _SIG2),
    )
    states = LatentStates(h=h_kept, f=f[-T:].copy())
    truth.validate()
    return DatasetBundle(y=y, x=x, truth=truth, states=states, n_resimulations=resim)


@dataclass
class SelectionCellResult:
    """Selection frequencies for one (n, theta, r_true, T) design cell."""

    n: int
    theta: float
    r_true: int
    T: int
    replications: int
    frequencies: dict  # candidate r -> fraction of successful replications
    winners: list = field(default_factory=list)
    failures: int = 0
    failure_messages: list = field(default_factory=list)


def selection_experiment(grid, replications, candidates, run_candidate):
    """Factor-count selection frequencies over a design grid.

    `run_candidate(bundle, r, seed)` must return the log marginal likelihood
    of the candidate model with r factors on the given dataset (the harness
    in `marglike.select_factor_count` provides this).  A replication whose
    data generation or candidate raises a `VarFsvError` is recorded as a
    failure and excluded, with counts reported; any other error propagates.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    if not candidates:
        raise ValueError("candidates must be nonempty")
    results = []
    for cell_idx, (n, theta, r_true, T, p) in enumerate(grid):
        winners = []
        failures = []
        for rep in range(replications):
            seed = 1000 * cell_idx + rep
            try:
                cfg = DgpConfig(n=n, p=p, r=r_true, T=T, theta=theta, seed=seed)
                bundle = generate_dataset(cfg)
                scores = {r: run_candidate(bundle, r, seed) for r in candidates}
            except VarFsvError as exc:
                failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                continue
            winners.append(max(sorted(scores), key=lambda r: (scores[r], -r)))
        freq = {
            r: (np.sum([w == r for w in winners]) / len(winners) if winners else 0.0)
            for r in candidates
        }
        results.append(
            SelectionCellResult(
                n=n, theta=theta, r_true=r_true, T=T,
                replications=replications, frequencies=freq, winners=winners,
                failures=len(failures), failure_messages=failures,
            )
        )
    return results

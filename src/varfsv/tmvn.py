"""Truncated multivariate normal sampling.

`TruncatedMVN` is exact accept-reject from the untruncated normal, proposed
through a square root of its covariance, for a batch of independent rows
(one per sign-restricted equation of the Gibbs sampler), each drawing from
its own stream.  The sign regions hold most of their conditional's mass, so
every row proposes one point, all rows are checked in one comparison, and
only the rows that missed propose a batch; the first inside is returned.

A coordinate-wise Gibbs kernel over the box is provided as a fallback for
regions so improbable that a batch holds no accepted proposal; started from
a feasible point it always returns one, at the cost of exactness per call
(it is a valid MCMC update, which is all the posterior sampler needs).
"""

import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_TINY = 1e-300
# central intervals wider than this are drawn by plain normal rejection,
# narrower ones by inverting the normal cdf
_WIDE_INTERVAL = 2.0
# intervals entirely beyond this are drawn from the Rayleigh tail proposal
_TAIL = 0.66


def _ln_phi_tail(x):
    # log P(Z > x) for Z ~ N(0,1), stable for large x
    return -0.5 * x**2 - np.log(2.0) + np.log(special.erfcx(x / _SQRT2) + _TINY)


def ln_normal_prob(a, b):
    """log P(a < Z < b) for standard normal Z, elementwise, any finite/infinite bounds."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.zeros(np.broadcast(a, b).shape)
    a, b = np.broadcast_arrays(a, b)
    upper = a > 0
    if np.any(upper):
        pa = _ln_phi_tail(a[upper])
        pb = _ln_phi_tail(b[upper])
        p[upper] = pa + np.log1p(-np.exp(pb - pa))
    lower = b < 0
    if np.any(lower):
        pa = _ln_phi_tail(-a[lower])
        pb = _ln_phi_tail(-b[lower])
        p[lower] = pb + np.log1p(-np.exp(pa - pb))
    mid = ~(upper | lower)
    if np.any(mid):
        pa = special.erfc(-a[mid] / _SQRT2) / 2.0
        pb = special.erfc(b[mid] / _SQRT2) / 2.0
        p[mid] = np.log1p(-pa - pb)
    return p


def trandn(rng, lb, ub):
    """Draws from N(0,1) restricted to [lb, ub], elementwise over equal-shape arrays."""
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x = np.empty(lb.shape)
    right = lb > _TAIL
    if np.any(right):
        x[right] = _norm_tail(rng, lb[right], ub[right])
    left = ub < -_TAIL
    if np.any(left):
        x[left] = -_norm_tail(rng, -ub[left], -lb[left])
    mid = ~(right | left)
    if np.any(mid):
        x[mid] = _norm_center(rng, lb[mid], ub[mid])
    return x


def _norm_tail(rng, lb, ub):
    # Rayleigh accept-reject for the upper tail (lb > 0), Marsaglia-style
    c = lb**2 / 2.0
    f = np.expm1(c - ub**2 / 2.0)
    x = c - np.log1p(rng.uniform(size=lb.shape) * f)
    reject = np.flatnonzero(rng.uniform(size=lb.shape) ** 2 * x > c)
    while reject.size:
        cr = c[reject]
        y = cr - np.log1p(rng.uniform(size=reject.shape) * f[reject])
        ok = rng.uniform(size=reject.shape) ** 2 * y < cr
        x[reject[ok]] = y[ok]
        reject = reject[~ok]
    return np.sqrt(2.0 * x)


def _norm_center(rng, lb, ub):
    x = np.empty(lb.shape)
    wide = np.abs(ub - lb) > _WIDE_INTERVAL
    if np.any(wide):
        x[wide] = _norm_reject(rng, lb[wide], ub[wide])
    narrow = ~wide
    if np.any(narrow):
        pl = special.erfc(lb[narrow] / _SQRT2) / 2.0
        pu = special.erfc(ub[narrow] / _SQRT2) / 2.0
        u = rng.uniform(size=int(narrow.sum()))
        x[narrow] = _SQRT2 * special.erfcinv(2.0 * (pl - (pl - pu) * u))
    return x


def _norm_reject(rng, lb, ub):
    x = rng.standard_normal(lb.shape)
    reject = np.flatnonzero((x < lb) | (x > ub))
    while reject.size:
        y = rng.standard_normal(reject.shape)
        ok = (y > lb[reject]) & (y < ub[reject])
        x[reject[ok]] = y[ok]
        reject = reject[~ok]
    return x


def trandn_one(rng, lb, ub):
    """`trandn(rng, [lb], [ub])[0]` for scalar bounds: the same branch, the
    same draws from `rng` (`random()` is `uniform()` on [0, 1)) and the same
    arithmetic, without the array work."""
    if lb > _TAIL:
        return _norm_tail_one(rng, lb, ub)
    if ub < -_TAIL:
        return -_norm_tail_one(rng, -ub, -lb)
    if abs(ub - lb) > _WIDE_INTERVAL:
        x = rng.standard_normal()
        if lb <= x <= ub:
            return x
        while True:
            x = rng.standard_normal()
            if lb < x < ub:
                return x
    pl = special.erfc(lb / _SQRT2) / 2.0
    pu = special.erfc(ub / _SQRT2) / 2.0
    return _SQRT2 * special.erfcinv(2.0 * (pl - (pl - pu) * rng.random()))


def _norm_tail_one(rng, lb, ub):
    c = lb * lb / 2.0
    f = np.expm1(c - ub * ub / 2.0)
    x = c - np.log1p(rng.random() * f)
    u = rng.random()
    if u * u * x > c:
        while True:
            x = c - np.log1p(rng.random() * f)
            u = rng.random()
            if u * u * x < c:
                break
    return np.sqrt(2.0 * x)


class TruncatedMVN:
    """Accept-reject sampler for s independent rows X_j ~ N(mean_j, root_j
    root_j') of length r, each restricted to its own box lb_j < X_j < ub_j.

    `mean`, `lb` and `ub` are (s, r) and `root` is (s, r, r).  Proposals are
    mean_j + root_j z with z standard normal, so `root_j` is any square root
    of the covariance (a Cholesky factor, or the inverse transpose of a
    precision's).  `ready` is False when some root is not finite; those rows
    propose nothing, and callers take the Gibbs fallback for them.
    """

    def __init__(self, mean, root, lb, ub):
        self.mean = np.asarray(mean, dtype=float)
        self.root = np.asarray(root, dtype=float)
        self.lb = np.asarray(lb, dtype=float)
        self.ub = np.asarray(ub, dtype=float)
        if np.any(self.ub <= self.lb):
            raise ValueError("need lb < ub in every coordinate")
        self.ready = bool(np.all(np.isfinite(self.root)))

    def _propose(self, rngs, n, rows):
        # n untruncated draws for each of `rows`, row j's normals from rngs[j]:
        # the normals and the points, both (len(rows), n, r)
        z = np.stack([rngs[j].standard_normal((n, self.mean.shape[1])) for j in rows])
        return z, self.mean[rows, None] + z @ self.root[rows].transpose(0, 2, 1)

    def sample_one(self, rngs, max_proposals=100):
        """One exact draw per row, row j drawing only from `rngs[j]`: the first
        of at most `max_proposals` proposals strictly inside its box.  Every
        row proposes one point, and only the rows that missed propose the
        other `max_proposals - 1`.  Returns the (s, r) draws and the normals z
        that gave them (draw = mean + root z); rows with no proposal inside
        are NaN in both."""
        x = np.full(self.mean.shape, np.nan)
        z = np.full(self.mean.shape, np.nan)
        rows = np.flatnonzero(np.all(np.isfinite(self.root), axis=(1, 2)))
        for n in (min(1, max_proposals), max_proposals - 1):
            if n < 1 or not rows.size:
                break
            zs, xs = self._propose(rngs, n, rows)
            inside = np.all((xs > self.lb[rows, None]) & (xs < self.ub[rows, None]), axis=2)
            hit = np.any(inside, axis=1)
            first = np.argmax(inside[hit], axis=1)
            x[rows[hit]] = xs[hit, first]
            z[rows[hit]] = zs[hit, first]
            rows = rows[~hit]
        return x, z


def gibbs_sample_box(rng, mean, precision, lb, ub, x0, sweeps=5):
    """Coordinate-wise Gibbs pass targeting N(mean, precision^{-1}) on a box.

    `x0` must be feasible.  Exact invariant distribution; output is one draw
    of the Markov kernel, not an independent sample.
    """
    x = np.array(x0, dtype=float)
    dev = x - mean
    sd = 1.0 / np.sqrt(np.diagonal(precision))
    for _ in range(sweeps):
        for i in range(len(x)):
            pii = precision[i, i]
            m = mean[i] - (precision[i] @ dev - pii * dev[i]) / pii
            s = sd[i]
            x[i] = m + s * trandn_one(rng, (lb[i] - m) / s, (ub[i] - m) / s)
            dev[i] = x[i] - mean[i]
    return x

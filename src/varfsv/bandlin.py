"""Banded symmetric linear algebra.

Cholesky factorization of a symmetric positive-definite band matrix,
triangular solves, log-determinants, and exact Gaussian sampling from a
distribution specified by its (banded) precision matrix.  The integrated
likelihood's mode search and importance density run through these routines.
The Gibbs sampler does not use this module: its volatility draw factors a
tridiagonal precision by LAPACK `dpttrf`, and its factor draw solves the
r x r per-period systems by `intlike.tri_solve`.

Storage follows scipy's lower diagonal-ordered form: ``bands[d, j]`` holds
entry ``(j + d, j)`` of the matrix, so row 0 is the main diagonal and row
``d`` the d-th subdiagonal (zero-padded at the tail).  Only the lower bands
are kept; symmetry is implicit.  All operations are O(dim * bandwidth^2) in
time and O(dim * bandwidth) in memory - no dense dim x dim array is ever
allocated.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .exceptions import DimensionMismatchError, NotPositiveDefiniteError

# smallest block side of `BandCholeskyFactor.solve_upper`: at a narrow band,
# blocks only as wide as the band would take one Python-level step per column
_MIN_BLOCK = 8

__all__ = [
    "BandSymMatrix",
    "BandCholeskyFactor",
    "GaussianInPrecisionForm",
]


@dataclass(frozen=True)
class BandSymMatrix:
    """Symmetric matrix stored by its main diagonal and lower bands.

    Parameters
    ----------
    bands : ndarray, shape (bandwidth + 1, dim)
        Lower diagonal-ordered storage; ``bands[d, j] = A[j + d, j]``.
        Entries ``bands[d, dim - d:]`` are padding and must be zero.
    """

    bands: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bands, dtype=float)
        if b.ndim != 2:
            raise DimensionMismatchError("bands must be 2-D (bandwidth+1, dim)")
        if b.shape[1] < 1:
            raise DimensionMismatchError("dim must be >= 1")
        if b.shape[0] > b.shape[1]:
            raise DimensionMismatchError("bandwidth must be < dim")
        object.__setattr__(self, "bands", b)

    @property
    def dim(self):
        return self.bands.shape[1]

    @property
    def bandwidth(self):
        return self.bands.shape[0] - 1

    @classmethod
    def from_dense(cls, a, bandwidth=None):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("expected a square matrix")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("matrix is not symmetric")
        n = a.shape[0]
        if bandwidth is None:
            bandwidth = 0
            for d in range(n - 1, 0, -1):
                if np.any(np.diagonal(a, -d) != 0.0):
                    bandwidth = d
                    break
        bands = np.zeros((bandwidth + 1, n))
        for d in range(bandwidth + 1):
            bands[d, : n - d] = np.diagonal(a, -d)
        return cls(bands)

    def to_dense(self):
        n = self.dim
        a = np.zeros((n, n))
        for d in range(self.bandwidth + 1):
            idx = np.arange(n - d)
            a[idx + d, idx] = self.bands[d, : n - d]
            if d > 0:
                a[idx, idx + d] = self.bands[d, : n - d]
        return a

    def matvec(self, x):
        """A @ x for x of shape (dim,) or (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError("vector length does not match dim")
        n = self.dim
        y = x * self.bands[0]
        for d in range(1, self.bandwidth + 1):
            band = self.bands[d, : n - d]
            y[..., d:] += band * x[..., : n - d]
            y[..., : n - d] += band * x[..., d:]
        return y

    def quad_form(self, x):
        """x' A x, batched over leading axes of x."""
        return np.sum(np.asarray(x) * self.matvec(x), axis=-1)

    def add_diagonal(self, v):
        """A + diag(v) as a new matrix."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatchError("diagonal length does not match dim")
        bands = self.bands.copy()
        bands[0] += v
        return BandSymMatrix(bands)

    def cholesky(self):
        """Lower Cholesky factor G with G G' = A; bandwidth is preserved."""
        try:
            c = scipy.linalg.cholesky_banded(self.bands, lower=True, check_finite=False)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise NotPositiveDefiniteError(f"band Cholesky failed: {exc}") from exc
        if not np.all(np.isfinite(c[0])) or np.any(c[0] <= 0):
            raise NotPositiveDefiniteError("non-positive pivot in band Cholesky")
        return BandCholeskyFactor(c)


@dataclass(frozen=True)
class BandCholeskyFactor:
    """Lower-banded Cholesky factor, same storage layout as BandSymMatrix."""

    bands: np.ndarray

    @property
    def dim(self):
        return self.bands.shape[1]

    @property
    def bandwidth(self):
        return self.bands.shape[0] - 1

    @property
    def log_det(self):
        """Log-determinant of the *factored* matrix A = G G'."""
        return 2.0 * float(np.sum(np.log(self.bands[0])))

    def solve(self, b):
        """A^{-1} b for the factored matrix A; b may be (dim,) or (dim, k)."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dim:
            raise DimensionMismatchError("right-hand side does not match dim")
        return scipy.linalg.cho_solve_banded((self.bands, True), b, check_finite=False)

    def solve_upper(self, b):
        """G' x = b (back substitution) for b of shape (dim,) or (dim, k); the
        sampling backsolve.

        In blocks of side s = max(bandwidth, _MIN_BLOCK), G is block lower
        bidiagonal: entry (j + d, j), d <= bandwidth <= s, lies in the block
        row of column j or in the one below it.  With D_i the diagonal blocks
        of G and E_i the blocks below them, G' x = b solves from the last
        block up as

            x_i = D_i'^{-1} b_i - D_i'^{-1} E_i' x_{i+1},

        one batched product D_i'^{-1} b_i over all blocks and then one
        (s, s) x (s, k) GEMM per block, in place of a substitution step per
        column.  The inverses of the triangular D_i come from one
        substitution over their rows, batched over the blocks.  dim is
        padded to whole blocks with a unit diagonal and zero bands, whose
        solution is zero.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.dim:
            raise DimensionMismatchError("right-hand side does not match dim")
        bw, n = self.bandwidth, self.dim
        s = max(bw, _MIN_BLOCK)
        nb = -(-n // s)
        g = self.bands
        rhs = b.reshape(n, -1)
        if nb * s > n:
            g = np.zeros((bw + 1, nb * s))
            for d in range(bw + 1):
                g[d, : n - d] = self.bands[d, : n - d]
            g[0, n:] = 1.0
            rhs = np.concatenate([rhs, np.zeros((nb * s - n, rhs.shape[1]))])
        # band d is the d-th subdiagonal of each D_i and the (s - d)-th
        # superdiagonal of each E_i, read from flat (s * s) blocks
        diag = np.zeros((nb, s * s))
        below = np.zeros((nb - 1, s * s))
        for d in range(bw + 1):
            band = g[d].reshape(nb, s)
            diag[:, d * s :: s + 1] = band[:, : s - d]
            below[:, s - d :: s + 1][:, :d] = band[:-1, s - d :]
        diag = diag.reshape(nb, s, s)
        d_inv = np.zeros_like(diag)
        for a in range(s):  # row a of D^{-1}: (e_a - D[a, :a] D^{-1}[:a]) / D[a, a]
            row = -(diag[:, a : a + 1, :a] @ d_inv[:, :a])[:, 0]
            row[:, a] += 1.0
            d_inv[:, a] = row / diag[:, a, a, None]
        x = d_inv.transpose(0, 2, 1) @ rhs.reshape(nb, s, -1)
        coupling = -(below.reshape(nb - 1, s, s) @ d_inv[:-1]).transpose(0, 2, 1)
        tmp = np.empty(x.shape[1:])
        for i in range(nb - 2, -1, -1):
            np.matmul(coupling[i], x[i + 1], out=tmp)
            x[i] += tmp
        x = x.reshape(nb * s, -1)[:n]
        return x[:, 0] if b.ndim == 1 else x


@dataclass
class GaussianInPrecisionForm:
    """Gaussian N(mean, precision^{-1}) with a banded precision matrix.

    The Cholesky factor is computed on first use and cached, so repeated
    sampling and density evaluation share one factorization.
    """

    mean: np.ndarray
    precision: BandSymMatrix

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if self.mean.shape != (self.precision.dim,):
            raise DimensionMismatchError("mean length does not match precision dim")

    @cached_property
    def factor(self):
        return self.precision.cholesky()

    def sample(self, rng, size=None):
        """Exact draw(s) x = mean + backsolve(G', z), z ~ N(0, I), of shape
        (dim,) for size=None, else (size, dim)."""
        return self.sample_with_logpdf(rng, size)[0]

    def sample_with_logpdf(self, rng, size=None):
        """`sample`'s draws, same stream use, with their log-densities, (dim,)
        and () for size=None, else (size, dim) and (size,).  A draw is
        mean + G'^{-1} z, so its quadratic form in the precision is ||z||^2:
        no product with the precision is needed."""
        n = self.precision.dim
        z = rng.standard_normal(n if size is None else (n, size))
        x = np.empty(z.shape[::-1])  # one contiguous row per draw
        np.add(self.mean, self.factor.solve_upper(z).T, out=x)
        log_norm = -0.5 * n * np.log(2.0 * np.pi) + 0.5 * self.factor.log_det
        return x, log_norm - 0.5 * np.einsum("i...,i...->...", z, z)

    def logpdf(self, x):
        """Log-density at x, shape (dim,) or (..., dim)."""
        quad = self.precision.quad_form(np.asarray(x, dtype=float) - self.mean)
        n = self.precision.dim
        return -0.5 * n * np.log(2.0 * np.pi) + 0.5 * self.factor.log_det - 0.5 * quad

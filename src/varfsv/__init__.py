"""Order-invariant Bayesian VARs with factor stochastic volatility.

Modules
-------
bandlin     banded symmetric linear algebra and precision-form Gaussians
model       model/prior types, sign-restriction validation, permutations
tmvn        truncated multivariate normal sampling
gibbs       six-block posterior sampler
intlike     integrated (observed-data) likelihood machinery
marglike    marginal likelihood via adaptive importance sampling
simulate    data-generating processes and experiment harnesses
"""

__version__ = "0.1.0"

"""Workloads of the varfsv benchmark.

Each workload builds its inputs from the benchmark seed alone (data through
`simulate.generate_dataset`, sign matrices, and the `intlike` parameter
draws), runs timed operations through the package's public entry points,
checks their outputs, and turns them into metrics.

  gibbs_signed  `gibbs.run_chain` at (n,p,r,T) = (20,2,3,200); every loading
                carries the sign of its true value, so every equation builds a
                `tmvn.TruncatedMVN` on every sweep.
  gibbs_free    the same sampler at (50,2,3,200) with all loadings free
                (`reduced_form=True`); TMVN is never called and the
                per-equation regression dominates.
  intlike       `intlike.integrated_likelihood` (R1 = 200, direct route) at
                (20,2,3,200) over a fixed list of (dataset, parameter point)
                pairs, each point the dataset's truth jittered; EM mode
                finding, Hessian and importance weights, no Gibbs work.  The
                EM work differs from dataset to dataset, so a run cycles over
                many datasets rather than one.  The default (EM-Hessian)
                route is not used: its importance density is too narrow
                when r > 0, and 15-25% of its calls raise
                `DegenerateWeightsError`, so no run would be free of failed
                ops.  The direct route with R1 = 200 keeps every call's ESS
                well above the failure threshold of 2.

One op is one `run_chain` call (a whole chain) or one `integrated_likelihood`
call.  A `VarFsvError` raised by an op is a failed op; any other exception
propagates and aborts the run.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from varfsv import bandlin, gibbs, intlike, model, simulate, tmvn
from varfsv.exceptions import MaxResimulationsError, VarFsvError

GIBBS = ("gibbs_signed", "gibbs_free")
N = {"gibbs_signed": 20, "gibbs_free": 50, "intlike": 20}
P, R, T = 2, 3, 200
BURN_IN, DRAWS = 50, 250  # per chain; fixed because batch-means ESS depends on length
R1 = 200
ROUTE = "direct"  # Hessian route of every intlike call, reference check included
N_POINTS = 96  # intlike cycles over this many (dataset, parameter point) pairs; a run
# makes about as many calls, so its cost averages over many datasets
DATA_ATTEMPTS = 5  # DGP calls per dataset before set-up gives up
BLOCKS = ("beta", "load", "mu", "phi", "sig2")

# stream tags: inputs never share a stream with the samplers' randomness
_DATA, _CHAIN, _JITTER, _IS, _REF, _WARM = range(1, 7)

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REF_CALLS = 6  # calls per reference input in the intlike check
# gibbs_signed recovery: each column of posterior-mean loadings must point
# along the true column.  The column scales are printed, not checked: chains
# start from loadings of 0.1 and at this length reach 0.1-0.9 of the true scale.
RECOVERY_MIN_CORR = 0.8


def _seq(seed, *tags):
    return np.random.SeedSequence([seed, *tags])


def dataset(n, seed, index=0):
    """One simulated dataset.  At n = 50 about 1% of streams need more than
    the DGP's limit of redraws for a stable VAR; those continue drawing from
    the same stream instead of failing the run's set-up."""
    cfg = simulate.DgpConfig(n=n, p=P, r=R, T=T)
    rng = np.random.default_rng(_seq(seed, _DATA, index))
    for _ in range(DATA_ATTEMPTS - 1):
        try:
            return simulate.generate_dataset(cfg, rng=rng)
        except MaxResimulationsError:
            pass
    return simulate.generate_dataset(cfg, rng=rng)


def jittered(truth, rng):
    """A parameter point near the DGP truth, as a posterior draw would be."""
    return model.ParamDraw(
        beta=truth.beta * (1.0 + 0.01 * rng.standard_normal(truth.beta.size)),
        load=truth.load * np.exp(0.05 * rng.standard_normal(truth.load.shape)),
        mu=truth.mu + 0.1 * rng.standard_normal(truth.mu.size),
        phi=np.tanh(np.arctanh(truth.phi) + 0.1 * rng.standard_normal(truth.phi.size)),
        sig2=truth.sig2 * np.exp(0.1 * rng.standard_normal(truth.sig2.size)),
    )


@dataclass
class Inputs:
    workload: str
    seed: int
    rng_offset: int
    y: np.ndarray = None
    x: np.ndarray = None
    truth: model.ParamDraw = None
    spec: model.ModelSpec = None
    points: list = None  # intlike (y, x, parameter point) triples


def setup(workload, seed, rng_offset=0):
    """Everything the timed ops need, built from the seed only."""
    n = N[workload]
    inp = Inputs(workload, seed, rng_offset)
    if workload == "intlike":
        rng = np.random.default_rng(_seq(seed, _JITTER))
        inp.points = []
        for j in range(N_POINTS):
            bundle = dataset(n, seed, j)
            inp.points.append((bundle.y, bundle.x, jittered(bundle.truth, rng)))
        return inp
    bundle = dataset(n, seed)
    inp.y, inp.x, inp.truth = bundle.y, bundle.x, bundle.truth
    if workload == "gibbs_signed":
        signs = model.SignMatrix.from_pattern(bundle.truth.load)
    else:
        signs = model.SignMatrix.all_free(n, R)
    priors = model.default_priors(bundle.y, n, P, R)
    inp.spec = model.ModelSpec(n=n, p=P, r=R, T=T, priors=priors, signs=signs)
    return inp


# ---------------------------------------------------------------------------
# ops


@dataclass
class OpResult:
    seconds: float
    error: str = None  # exception type name of a failed op
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # failed output checks


def batch_means_ess(x):
    """Batch-means effective sample size of each column of x (S, m), with
    floor(sqrt(S)) draws per batch; constant columns give nan."""
    s = x.shape[0]
    b = int(np.sqrt(s))
    nb = s // b
    xs = x[s - nb * b:]
    var = xs.var(axis=0, ddof=1)
    var_b = xs.reshape(nb, b, -1).mean(axis=1).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(var_b > 0, nb * var / var_b, np.nan)


def _fingerprint(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _gibbs_op(inp, i):
    seed = int(_seq(inp.seed, _CHAIN, inp.rng_offset, i).generate_state(1)[0])
    settings = gibbs.McmcSettings(burn_in=BURN_IN, draws=DRAWS, seed=seed)
    t0 = time.perf_counter()
    try:
        chain = gibbs.run_chain(
            inp.y, inp.x, inp.spec, settings,
            reduced_form=inp.workload == "gibbs_free",
        )
    except VarFsvError as exc:
        return OpResult(time.perf_counter() - t0, error=type(exc).__name__)
    res = OpResult(time.perf_counter() - t0)
    arrays = (chain.beta, chain.load, chain.mu, chain.phi, chain.sig2, chain.h, chain.f)
    if not all(np.isfinite(a).all() for a in arrays):
        res.problems.append(f"chain {i}: non-finite stored draw")
    try:
        chain.validate_records(inp.spec.signs)
    except ValueError as exc:
        res.problems.append(f"chain {i}: invalid stored draw: {exc}")
    blocks = {
        "beta": chain.beta, "load": chain.load.reshape(chain.size, -1),
        "mu": chain.mu, "phi": chain.phi, "sig2": chain.sig2,
    }
    ess = {k: float(np.nanmedian(batch_means_ess(v))) for k, v in blocks.items()}
    res.summary = {
        "sweeps": BURN_IN + DRAWS,
        "post_seconds": res.seconds * DRAWS / (BURN_IN + DRAWS),
        "ess": ess,
        "min_ess": min(ess.values()),
        "phi_accept": float(np.mean(chain.phi_accept)),
        "load_mean": chain.load.mean(axis=0),
        "fingerprint": _fingerprint(*arrays),
    }
    return res


def _intlike_call(y, x, draw, rng):
    t0 = time.perf_counter()
    try:
        out = intlike.integrated_likelihood(y, x, draw, R1, rng, route=ROUTE)
    except VarFsvError as exc:
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, out, None


def _intlike_op(inp, i):
    rng = np.random.default_rng(_seq(inp.seed, _IS, inp.rng_offset, i))
    seconds, out, error = _intlike_call(*inp.points[i % len(inp.points)], rng)
    res = OpResult(seconds, error=error)
    if out is not None:
        if not (np.isfinite(out.log_value) and np.isfinite(out.se)):
            res.problems.append(f"call {i}: non-finite estimate or SE")
        res.summary = {
            "log_value": out.log_value, "se": out.se, "ess": out.ess,
            "fingerprint": _fingerprint(np.array([out.log_value, out.se, out.ess])),
        }
    return res


def run_op(inp, i):
    return (_intlike_op if inp.workload == "intlike" else _gibbs_op)(inp, i)


def warm_up(inp):
    """A short untimed op, so that first-call costs (lazy imports, caches)
    fall outside the timed ones."""
    seed = int(_seq(inp.seed, _WARM).generate_state(1)[0])
    try:
        if inp.workload == "intlike":
            intlike.integrated_likelihood(*inp.points[0], R1, np.random.default_rng(seed),
                                          route=ROUTE)
        else:
            gibbs.run_chain(inp.y, inp.x, inp.spec,
                            gibbs.McmcSettings(burn_in=2, draws=3, seed=seed),
                            reduced_form=inp.workload == "gibbs_free")
    except VarFsvError:
        pass  # the timed ops count failures


def run_ops(inp, seconds):
    """Run ops in order while the next one is expected to finish within
    `seconds` (always at least one)."""
    results = []
    spent = 0.0
    while not results or spent + spent / len(results) <= seconds:
        results.append(run_op(inp, len(results)))
        spent += results[-1].seconds
    return results


def op_units(inp, results):
    """Sweeps (Gibbs workloads) or calls (intlike) made by the ops."""
    return len(results) * (BURN_IN + DRAWS if inp.workload in GIBBS else 1)


# ---------------------------------------------------------------------------
# metrics and checks


def failures(results):
    out = {}
    for r in results:
        if r.error:
            out[r.error] = out.get(r.error, 0) + 1
    return out


def ess_per_s(inp, results):
    """Effective draws per second.  Gibbs: per chain the smallest block median
    of batch-means ESS, summed over chains and divided by post-burn-in wall
    seconds (a failed chain counts with ESS 0 and all its time).  intlike:
    summed importance ESS (0 for a failed call) over the wall time of all
    calls."""
    num, den = _ess_terms(inp, results)
    return sum(num) / sum(den)


def _ess_terms(inp, results):
    if inp.workload == "intlike":
        return ([r.summary.get("ess", 0.0) for r in results],
                [r.seconds for r in results])
    return ([r.summary.get("min_ess", 0.0) for r in results],
            [r.summary.get("post_seconds", r.seconds) for r in results])


def seed_spread(inp, results):
    """Within-run spread of ess_per_s across ops, which differ only in their
    chain or RNG seed: the relative standard error of the pooled ratio."""
    num, den = _ess_terms(inp, results)
    if len(num) < 2:
        return "ess_per_s over ops: one op, no within-run estimate"
    rate = sum(num) / sum(den)
    resid = np.array(num) - rate * np.array(den)
    rel_se = resid.std(ddof=1) * np.sqrt(len(num)) / sum(den) / rate
    return f"ess_per_s over {len(num)} ops: relative s.e. {100 * rel_se:.1f}%"


def check_outputs(inp, results):
    """Output checks on the ops themselves: list of (name, passed, detail)."""
    problems = [p for r in results for p in r.problems]
    name = "finite_and_valid_draws" if inp.workload in GIBBS else "finite_estimates"
    checks = [(name, not problems, "; ".join(problems[:5]) or f"{len(results)} ops")]
    ok = [r for r in results if r.error is None]
    if inp.workload == "gibbs_signed" and ok:
        est = np.mean([r.summary["load_mean"] for r in ok], axis=0)
        true = inp.truth.load
        corr = [float(np.corrcoef(est[:, j], true[:, j])[0, 1]) for j in range(R)]
        scale = np.linalg.norm(est, axis=0) / np.linalg.norm(true, axis=0)
        checks.append((
            "loading_recovery", min(corr) >= RECOVERY_MIN_CORR,
            "per-column corr(posterior mean, true loadings) "
            f"{', '.join(f'{c:.3f}' for c in corr)} (min {RECOVERY_MIN_CORR}); "
            f"column scale ratios {', '.join(f'{v:.2f}' for v in scale)} (not checked)",
        ))
    return checks


def check_reference(rng_offset=0):
    """The workload's estimates on the stored reference inputs against their
    accurate values (direct route, large R1): within 4 Monte Carlo standard
    errors."""
    with open(REFERENCE_FILE) as fh:
        refs = json.load(fh)["intlike"]
    checks = []
    for ref in refs:
        bundle = dataset(N["intlike"], ref["data_seed"])
        est, se, failed = [], [], 0
        for k in range(REF_CALLS):
            rng = np.random.default_rng(_seq(ref["data_seed"], _REF, rng_offset, k))
            _, out, error = _intlike_call(bundle.y, bundle.x, bundle.truth, rng)
            if error:
                failed += 1
                continue
            est.append(out.log_value)
            se.append(out.se)
        name = f"intlike_reference_seed{ref['data_seed']}"
        if not est:
            checks.append((name, False, f"all {REF_CALLS} calls failed"))
            continue
        k = len(est)
        mean = float(np.mean(est))
        spread = float(np.std(est, ddof=1)) if k > 1 else 0.0
        mc = np.sqrt(max(spread**2, float(np.mean(np.square(se)))) / k + ref["se"] ** 2)
        dev = mean - ref["log_lik"]
        passed = bool(np.isfinite(mean) and abs(dev) <= 4 * mc)
        checks.append((name, passed, (
            f"mean of {k} estimates {mean:.2f} vs reference {ref['log_lik']:.2f}: "
            f"deviation {dev:+.2f} nats = {dev / mc:+.1f} MC s.e. ({failed} calls failed)"
        )))
    return checks


def identical(base, traced):
    """The traced ops reproduce the untraced ones bit for bit."""
    same = len(base) == len(traced) and all(
        a.error == b.error and a.summary.get("fingerprint") == b.summary.get("fingerprint")
        for a, b in zip(base, traced)
    )
    return ("traced_ops_identical", same, f"{len(traced)} ops compared")


# ---------------------------------------------------------------------------
# per-layer tracing


def wrap_layers(tracer):
    """Wrap the package functions whose spans make up the per-layer metrics."""
    c = tracer.counts

    def not_ready(args, result):
        c["tmvn.not_ready"] += not args[0].ready

    def proposals(args, kwargs):
        c["tmvn.proposals"] += kwargs["n"] if "n" in kwargs else args[2]

    def accepted(args, result):
        c["tmvn.accepted"] += result is not None

    def flops(args, kwargs):
        bw1, dim = args[0].bands.shape
        c["bandlin.cholesky_flop"] += dim * bw1 * bw1

    def em_counts(args, result):
        c["intlike.em_iters"] += result.n_em_iters
        c["intlike.newton_steps"] += result.n_newton_steps

    def kh_fallback(args, result):
        c["intlike.hessian_fallback"] += bool(result[2])

    for owner, attr, name, before, after in (
        (gibbs, "run_chain", "gibbs.run_chain", None, None),
        (gibbs, "sample_factors", "gibbs.sample_factors", None, None),
        (gibbs, "sample_beta_loadings", "gibbs.sample_beta_loadings", None, None),
        (gibbs, "_stacked_sv_draw", "gibbs._stacked_sv_draw", None, None),
        (gibbs, "sample_sigma2", "gibbs.sample_sigma2", None, None),
        (gibbs, "sample_mu", "gibbs.sample_mu", None, None),
        (gibbs, "sample_phi", "gibbs.sample_phi", None, None),
        (tmvn.TruncatedMVN, "__init__", "tmvn.TruncatedMVN.__init__", None, not_ready),
        (tmvn.TruncatedMVN, "sample_one", "tmvn.TruncatedMVN.sample_one", None, accepted),
        (tmvn.TruncatedMVN, "_propose", "tmvn.TruncatedMVN._propose", proposals, None),
        (tmvn, "gibbs_sample_box", "tmvn.gibbs_sample_box", None, None),
        (bandlin.BandSymMatrix, "cholesky", "bandlin.BandSymMatrix.cholesky", flops, None),
        (bandlin.BandSymMatrix, "matvec", "bandlin.BandSymMatrix.matvec", None, None),
        (bandlin.BandCholeskyFactor, "solve", "bandlin.BandCholeskyFactor.solve", None, None),
        (bandlin.BandCholeskyFactor, "solve_upper", "bandlin.BandCholeskyFactor.solve_upper",
         None, None),
        (bandlin.GaussianInPrecisionForm, "sample", "bandlin.GaussianInPrecisionForm.sample",
         None, None),
        (bandlin.GaussianInPrecisionForm, "logpdf", "bandlin.GaussianInPrecisionForm.logpdf",
         None, None),
        (intlike, "integrated_likelihood", "intlike.integrated_likelihood", None, None),
        (intlike, "importance_density", "intlike.importance_density", None, kh_fallback),
        (intlike, "em_mode", "intlike.em_mode", None, em_counts),
        (intlike, "_estep", "intlike._estep", None, None),
        (intlike, "hessian_em", "intlike.hessian_em", None, None),
        (intlike, "hessian_direct", "intlike.hessian_direct", None, None),
        (intlike, "importance_log_weights", "intlike.importance_log_weights", None, None),
    ):
        tracer.wrap(owner, attr, name, before=before, after=after)


def tail(values):
    """(q, value) for the highest percentile q with at least ten values
    beyond it."""
    q = max(0.0, 100.0 * (1.0 - 10.0 / len(values)))
    return q, float(np.percentile(values, q))


def per_layer(inp, base, traced, tracer):
    """Per-layer metrics: spans from the traced ops (per sweep on the Gibbs
    workloads, per call on intlike), ESS and call latency from the untraced
    ones."""
    gibbs_run = inp.workload in GIBBS
    units = op_units(inp, traced)
    tot = tracer.totals()
    c = tracer.counts

    def calls(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl_ms(*names):
        return 1e3 * sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names) / units

    def self_ms(*names):
        return 1e3 * sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names) / units

    def ratio(a, b):
        return a / b if b else 0.0

    ok = [r for r in base if r.error is None]
    m = {
        "gibbs.factors_ms": incl_ms("gibbs.sample_factors"),
        "gibbs.beta_load_self_ms": self_ms("gibbs.sample_beta_loadings"),
        "gibbs.volatility_ms": incl_ms("gibbs._stacked_sv_draw"),
        "gibbs.sv_params_ms": incl_ms("gibbs.sample_sigma2", "gibbs.sample_mu",
                                      "gibbs.sample_phi"),
        "gibbs.run_chain_self_ms": self_ms("gibbs.run_chain"),
        "gibbs.phi_accept": float(np.mean([r.summary["phi_accept"] for r in ok]))
        if gibbs_run and ok else 0.0,
    }
    for block in BLOCKS:
        m[f"gibbs.ess_{block}"] = (
            float(np.mean([r.summary["ess"][block] for r in ok])) if gibbs_run and ok else 0.0
        )
    init = "tmvn.TruncatedMVN.__init__"
    box = "tmvn.gibbs_sample_box"
    m.update({
        "tmvn.setup_ms": incl_ms(init),
        "tmvn.sample_ms": incl_ms("tmvn.TruncatedMVN.sample_one", box),
        "tmvn.draws": (c["tmvn.accepted"] + calls(box)) / units,
        "tmvn.proposals_per_draw": ratio(c["tmvn.proposals"], c["tmvn.accepted"]),
        "tmvn.fallback_frac": ratio(calls(box), calls(init)),
        "tmvn.not_ready": c["tmvn.not_ready"] / units,
        "bandlin.cholesky_ms": incl_ms("bandlin.BandSymMatrix.cholesky"),
        "bandlin.cholesky_calls": calls("bandlin.BandSymMatrix.cholesky") / units,
        "bandlin.cholesky_mflop": c["bandlin.cholesky_flop"] / 1e6 / units,
        "bandlin.matvec_ms": incl_ms("bandlin.BandSymMatrix.matvec"),
        "bandlin.matvec_calls": calls("bandlin.BandSymMatrix.matvec") / units,
        "bandlin.solve_ms": incl_ms("bandlin.BandCholeskyFactor.solve",
                                    "bandlin.BandCholeskyFactor.solve_upper"),
    })
    il = {k: 0.0 for k in (
        "intlike.call_ms_p50", "intlike.call_ms_tail", "intlike.ess_frac",
        "intlike.fail_frac", "intlike.fail_frac_degenerate", "intlike.fail_frac_other",
    )}
    if not gibbs_run:
        ms = [1e3 * r.seconds for r in base]
        il["intlike.call_ms_p50"] = float(np.median(ms))
        il["intlike.call_ms_tail"] = tail(ms)[1]
        if ok:
            il["intlike.ess_frac"] = float(np.median([r.summary["ess"] / R1 for r in ok]))
        fails = failures(base)
        degenerate = fails.get("DegenerateWeightsError", 0)
        il["intlike.fail_frac"] = sum(fails.values()) / len(base)
        il["intlike.fail_frac_degenerate"] = degenerate / len(base)
        il["intlike.fail_frac_other"] = (sum(fails.values()) - degenerate) / len(base)
    m.update(il)
    m.update({
        "intlike.em_ms": incl_ms("intlike.em_mode"),
        "intlike.em_iters": ratio(c["intlike.em_iters"], calls("intlike.em_mode")),
        "intlike.newton_steps": ratio(c["intlike.newton_steps"], calls("intlike.em_mode")),
        "intlike.estep_ms": incl_ms("intlike._estep"),
        "intlike.hessian_ms": incl_ms("intlike.hessian_em", "intlike.hessian_direct"),
        "intlike.hessian_fallback_frac": ratio(c["intlike.hessian_fallback"],
                                               calls("intlike.importance_density")),
        "intlike.weights_ms": incl_ms("intlike.importance_log_weights"),
    })
    # accounting: self times by layer plus the remainder make up op wall time
    op_ms = 1e3 * sum(r.seconds for r in traced) / units
    for layer in ("gibbs", "tmvn", "bandlin", "intlike"):
        m[f"{layer}.self_ms"] = self_ms(*(n for n in tot if n.startswith(layer + ".")))
    m["trace.op_ms"] = op_ms
    m["trace.remainder_ms"] = op_ms - 1e3 * tracer.root_seconds() / units
    untraced = sum(r.seconds for r in base)
    m["trace.overhead_pct"] = 100.0 * (sum(r.seconds for r in traced) / untraced - 1.0)
    return m

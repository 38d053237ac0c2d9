"""Source checks that need no run of the code, and a short traced run that
keeps the benchmark's tracer targets and hooks in step with the package."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import varfsv
from varfsv import gibbs, intlike, model

SOURCES = sorted(Path(varfsv.__file__).parent.glob("*.py"))


def _unread_parameters(tree, filename):
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names = {p.arg for p in params if p is not None} - {"self", "cls"}
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [f"{filename}:{node.lineno} {node.name}({name})"
                  for name in sorted(names - read)]
    return found


def test_every_parameter_is_read():
    assert len(SOURCES) > 5
    found = []
    for path in SOURCES:
        found += _unread_parameters(ast.parse(path.read_text()), path.name)
    assert not found, "parameters never read: " + ", ".join(found)


def _bench_module(name):
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_and_hooks_run():
    # every wrapped target must exist, and the hooks read `_propose`'s `n`,
    # `TruncatedMVN.ready` and the `EmResult` counts
    tracing, workloads = _bench_module("tracing"), _bench_module("workloads")
    rng = np.random.default_rng(0)
    T, n, p, r = 30, 3, 1, 1
    y, x = model.build_lagged(rng.standard_normal((T + p, n)), p)
    signs = model.SignMatrix(np.array([[model.POS], [model.NEG], [model.FREE]], np.int8))
    spec = model.ModelSpec(n=n, p=p, r=r, T=T, signs=signs,
                           priors=model.default_priors(y, n, p, r))
    draw, _ = gibbs.initial_values(spec, rng)
    with tracing.Tracer() as t:
        workloads.wrap_layers(t)
        gibbs.run_chain(y, x, spec, gibbs.McmcSettings(burn_in=2, draws=2, seed=1))
        intlike.em_mode(y, x, draw)
    calls = {name: c for name, (c, _, _) in t.totals().items()}
    assert calls["gibbs.run_chain"] == 1 and calls["intlike.em_mode"] == 1
    assert calls["tmvn.TruncatedMVN.__init__"] == 4  # one sampler per sweep
    assert t.counts["tmvn.proposals"] >= calls["tmvn.TruncatedMVN.sample_one"]
    assert t.counts["intlike.em_iters"] >= 1

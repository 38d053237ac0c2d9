"""Source checks that need no run of the code, and a short traced run that
keeps the benchmark's tracer targets and hooks in step with the package."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import varfsv
from varfsv import gibbs, intlike, model

SOURCES = sorted(Path(varfsv.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))

# definitions that nothing in the package or the benchmark reaches, each kept
# for the reason given; a test-only helper that is not listed here is deleted
TEST_ONLY = {
    "BandSymMatrix.from_dense": "dense oracle of the band routines",
    "BandSymMatrix.to_dense": "dense oracle of the band routines",
    "McmcChain.save": "chain storage, which the diagnostics record extends",
    "McmcChain.read": "chain storage, which the diagnostics record extends",
    "log_cond_likelihood": "the public p(y | beta, L, h), factors integrated out",
    "reduced_form_spec": "factor-count selection, pending a usable marginal likelihood",
    "select_factor_count": "factor-count selection, pending a usable marginal likelihood",
    "selection_experiment": "factor-count selection, pending a usable marginal likelihood",
    "Permutation": "order-invariance oracle",
    "Permutation.inverse": "order-invariance oracle",
    "permute_model": "order-invariance oracle",
    "permute_data": "order-invariance oracle",
    "PriorSpec.permute": "order-invariance oracle",
    "SignMatrix.permute_rows": "order-invariance oracle",
}


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


def _definitions(tree):
    """(qualified name, node) of every module-level function and class and
    every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def _references(tree, strings):
    """(name, line) of every name and attribute load and every `from` import;
    with `strings`, also of every string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unreached():
    """Qualified names of the definitions that no code in the package or the
    benchmark loads outside their own body; the benchmark's tracer wraps
    attributes named by strings, so its string constants count."""
    refs = {}
    for path in SOURCES + BENCH:
        tree = ast.parse(path.read_text())
        for name, line in _references(tree, strings=path in BENCH):
            refs.setdefault(name, []).append((path, line))
    found = set()
    for path in SOURCES:
        for qualname, node in _definitions(ast.parse(path.read_text())):
            own = range(node.lineno, node.end_lineno + 1)
            users = refs.get(node.name, [])
            if all(where == path and line in own for where, line in users):
                found.add(qualname)
    return found


def test_every_definition_is_reached():
    assert len(BENCH) > 2
    unreached = _unreached()
    # reached from tests only: delete it, or list it with a reason
    unlisted = sorted(unreached - TEST_ONLY.keys())
    assert not unlisted, "reached from tests only: " + ", ".join(unlisted)
    # a stale entry: its definition is gone or now reached
    stale = sorted(TEST_ONLY.keys() - unreached)
    assert not stale, "TEST_ONLY names that are reached or gone: " + ", ".join(stale)


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

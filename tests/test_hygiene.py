"""Source checks that need no run of the code."""

import ast
from pathlib import Path

import varfsv

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

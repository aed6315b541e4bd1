"""Every module-level import is read somewhere in its file.

An AST scan over the package, the two entry scripts and the tests. A
name counts as read when an expression names it, when ``__all__`` lists
it, or when a string annotation (``"ray.data.Dataset"``) names it.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files():
    for base in ("heroshi_ray", "tests"):
        for d, _, names in os.walk(os.path.join(ROOT, base)):
            for n in sorted(names):
                if n.endswith(".py"):
                    yield os.path.join(d, n)
    for n in ("bench.py", "__ray_entry__.py"):
        yield os.path.join(ROOT, n)


def _imports(body):
    """Import statements of a module body, including those under
    module-level ``if`` / ``try`` (not those inside functions)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            for b in blocks:
                yield from _imports(b)


def _bound(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for a in node.names:
        if a.name != "*":
            yield a.asname or a.name.split(".")[0]


def _read_names(tree) -> set[str]:
    names, annotations = set(), []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = n.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if n.returns is not None:
                annotations.append(n.returns)
        elif isinstance(n, ast.AnnAssign):
            annotations.append(n.annotation)
        elif isinstance(n, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets
        ):
            names |= {
                e.value for e in ast.walk(n.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                try:
                    expr = ast.parse(c.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {x.id for x in ast.walk(expr) if isinstance(x, ast.Name)}
    return names


def test_no_unused_imports():
    unused = []
    for path in _files():
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        read = _read_names(tree)
        for node in _imports(tree.body):
            for name in _bound(node):
                if name not in read:
                    unused.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {name}")
    assert not unused, unused

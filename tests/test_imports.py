"""Every module-level import is read somewhere in its file, and every
kernel in ``heroshi_ray/functions`` is named somewhere outside its own
body.

An AST scan over the package, the two entry scripts and the tests. A
name counts as read when an expression names it, when ``__all__`` lists
it, or when a string annotation (``"ray.data.Dataset"``) names it. The
kernel scan reads the package, the entry scripts and ``perfbench/``,
not the tests.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(bases=("heroshi_ray", "tests")):
    for base in bases:
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


def _named_lines(tree) -> list[tuple[str, int]]:
    """(identifier, line) for every name an expression reads, every
    attribute access and every identifier-shaped string constant (the
    benchmark's tracer wraps functions by attribute name); ``__all__``
    entries are left out, since listing a name exports it but does not
    call it."""
    exports = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets
        ):
            exports |= {id(e) for e in ast.walk(n.value)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append((n.id, n.lineno))
        elif isinstance(n, ast.Attribute):
            out.append((n.attr, n.lineno))
        elif (
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.isidentifier() and id(n) not in exports
        ):
            out.append((n.value, n.lineno))
    return out


def test_no_uncalled_kernels():
    """A top-level function or class of ``heroshi_ray/functions`` that
    nothing in the package, the entry scripts or the benchmark names is
    dead code kept alive only by its tests."""
    fdir = os.path.join(ROOT, "heroshi_ray", "functions")
    where: dict[str, list[tuple[str, int]]] = {}
    for path in _files(("heroshi_ray", "perfbench")):
        with open(path) as f:
            for name, line in _named_lines(ast.parse(f.read(), filename=path)):
                where.setdefault(name, []).append((path, line))
    uncalled = []
    for n in sorted(os.listdir(fdir)):
        path = os.path.join(fdir, n)
        if not n.endswith(".py"):
            continue
        with open(path) as f:
            body = ast.parse(f.read(), filename=path).body
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(
                p == path and line in own for p, line in where.get(node.name, ())
            ):
                uncalled.append(f"functions/{n}:{node.lineno} {node.name}")
    assert not uncalled, uncalled

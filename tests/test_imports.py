"""Every module-level import is read somewhere in its file; every
top-level function and class of ``heroshi_ray/{functions,stages,
sources,state}`` is named somewhere outside its own body; and only the
registry imports the analytics modules.

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


# Top-level names with no caller in the engine, kept on purpose.
UNCALLED_ALLOWED = {
    "HttpFetcher": "live-HTTP fetcher boundary; crawls run on the fixture web",
    "read_corpus_any": "Lance corpus adapter boundary; pylance is not installed",
    "write_corpus_any": "Lance corpus adapter boundary; pylance is not installed",
}


def test_no_uncalled_kernels():
    """A top-level function or class of ``heroshi_ray/functions``,
    ``stages``, ``sources`` or ``state`` that nothing in the package,
    the entry scripts or the benchmark names is dead code kept alive
    only by its tests."""
    where: dict[str, list[tuple[str, int]]] = {}
    for path in _files(("heroshi_ray", "perfbench")):
        with open(path) as f:
            for name, line in _named_lines(ast.parse(f.read(), filename=path)):
                where.setdefault(name, []).append((path, line))
    uncalled = []
    for sub in ("functions", "stages", "sources", "state"):
        fdir = os.path.join(ROOT, "heroshi_ray", sub)
        for n in sorted(os.listdir(fdir)):
            path = os.path.join(fdir, n)
            if not n.endswith(".py"):
                continue
            with open(path) as f:
                body = ast.parse(f.read(), filename=path).body
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if node.name in UNCALLED_ALLOWED:
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                if all(
                    p == path and line in own
                    for p, line in where.get(node.name, ())
                ):
                    uncalled.append(f"{sub}/{n}:{node.lineno} {node.name}")
    assert not uncalled, uncalled


ANALYTICS = ("heroshi_ray.pipelines.dataops", "heroshi_ray.pipelines.webops")


def _imported_modules(path: str, tree) -> set[str]:
    """Absolute names of every module an import statement anywhere in
    the file (function bodies included) could load: ``from p import m``
    yields both ``p`` and ``p.m``."""
    pkg_dir = os.path.dirname(os.path.relpath(path, ROOT))
    pkg = pkg_dir.split(os.sep) if pkg_dir else []
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            out.add(mod)
            out |= {f"{mod}.{a.name}" for a in node.names}
    return out


def test_analytics_imported_only_by_registry():
    """``pipelines.dataops`` and ``pipelines.webops`` are imported by the
    ``__ray_entry__.py`` registry and the tests only: no engine module,
    CLI or benchmark reaches them, not even through a function-local
    import."""
    importers = []
    for path in _files(("heroshi_ray", "perfbench")):
        if os.path.basename(path) == "__ray_entry__.py":
            continue
        with open(path) as f:
            mods = _imported_modules(path, ast.parse(f.read(), filename=path))
        if mods & set(ANALYTICS):
            importers.append(os.path.relpath(path, ROOT))
    assert not importers, importers

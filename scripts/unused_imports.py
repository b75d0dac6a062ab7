"""Report imported names that a module never uses.

Usage: python scripts/unused_imports.py PATH [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files.  A
name counts as used when the module reads it anywhere (scopes are not told
apart), names it inside a quoted annotation, or lists it in ``__all__``.
An import whose line carries ``# noqa`` is skipped, as are ``__future__``
and star imports.  Prints one ``path:line: name`` line per unused import
and exits 1 if there is any, else 0.  Stdlib only.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _python_files(paths):
    for arg in paths:
        path = pathlib.Path(arg)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _bound_names(tree):
    """(name, line of the name, line of the statement) for every name an
    import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    quoted = ast.parse(n.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(m.id for m in ast.walk(quoted) if isinstance(m, ast.Name))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    used.update(
                        e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    )
    return used


def unused_imports(path) -> list:
    """(line, name) of each import in the file that nothing uses."""
    source = pathlib.Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line, first in _bound_names(tree)
        if name not in used and "# noqa" not in lines[line - 1] and "# noqa" not in lines[first - 1]
    )


def main(argv) -> int:
    if not argv:
        print("usage: python scripts/unused_imports.py PATH [PATH ...]", file=sys.stderr)
        return 2
    found = 0
    for path in _python_files(argv):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

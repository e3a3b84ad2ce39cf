#!/usr/bin/env python3
"""Offline stand-in for the ruff F-rules the CI lint job enforces.

The development container has no ruff wheel, so this AST walker catches the
violations ruff's default ``F`` category would flag most often — unused
imports (F401) and locals assigned but never used (F841) — plus syntax
errors, before they reach CI.  It intentionally mirrors ruff's conventions:
``__init__.py`` re-exports and names listed in ``__all__`` are not flagged,
and ``_``-prefixed locals are exempt.

Usage: python scripts/mini_lint.py [paths...]   (default: src tests benchmarks examples scripts)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "scripts")


def _module_all(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(value, (ast.List, ast.Tuple)):
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        names.add(elt.value)
    return names


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    return used


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _local_bindings(func: ast.AST) -> "list[tuple[int, str]]":
    """``(line, name)`` for each plain, annotated, ``with ... as`` and
    ``except ... as`` binding in ``func``'s own scope.

    Nested functions are checked as scopes of their own and class bodies
    bind attributes, not locals, so neither is entered; tuple unpacking
    and loop targets are not reported, as in pyflakes.
    """
    found: list[tuple[int, str]] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        elif isinstance(node, ast.withitem):
            targets = [node.optional_vars]
        else:
            targets = []
        for target in targets:
            if isinstance(target, ast.Name):
                found.append((target.lineno, target.id))
        if isinstance(node, ast.ExceptHandler) and node.name:
            found.append((node.lineno, node.name))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused_locals(path: Path, tree: ast.Module) -> list[str]:
    problems: list[str] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read: set[str] = set()
        declared: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        if "locals" in read:
            continue  # every local may be read through locals()
        for line, name in sorted(_local_bindings(func)):
            if not (name.startswith("_") or name in read or name in declared):
                problems.append(f"{path}:{line}: local {name!r} is assigned to but never used (F841)")
    return problems


def check_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    problems: list[str] = []
    exported = _module_all(tree)
    used = _used_names(tree)
    reexport_ok = path.name == "__init__.py"
    docstring = ast.get_docstring(tree) or ""

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound in used or bound in exported or bound in docstring:
                    continue
                if reexport_ok or (alias.asname and alias.asname == alias.name):
                    continue  # explicit re-export idiom
                problems.append(f"{path}:{node.lineno}: unused import {bound!r} (F401)")
    problems.extend(_unused_locals(path, tree))
    return problems


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in (argv or list(DEFAULT_PATHS))]
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.py")))
    problems: list[str] = []
    for f in files:
        if "egg-info" in str(f):
            continue
        problems.extend(check_file(f))
    for p in problems:
        print(p)
    print(f"mini-lint: {len(files)} files, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Every module under ``repro`` imports first, in a fresh interpreter state.

An import cycle fails ("partially initialized module") only when a module
inside it is the first one imported, so a suite whose modules happen to
import some other package first never sees it.  The probe runs in a
child interpreter and, before each module, drops every ``repro`` module
already loaded, so each one is the first ``repro`` import of its run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

_PROBE = r"""
import importlib
import sys

failures = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
print("\n".join(failures))
"""


def _module_names() -> "list[str]":
    """Every module and package under ``repro``, found without importing."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(package_dir)
    names = []
    for dirpath, _, filenames in os.walk(package_dir):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, filename[:-3]), root)
            parts = rel.split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return sorted(names)


def test_every_module_imports_first():
    names = _module_names()
    assert "repro.slurm.controller" in names and "repro" in names
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *names],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    failures = [line for line in result.stdout.splitlines() if line]
    assert not failures, (
        f"{len(failures)} of {len(names)} modules fail to import first:\n"
        + "\n".join(failures)
    )

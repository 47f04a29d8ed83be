"""Lint-style hygiene for the runtime waist: one pool lifecycle.

Every process pool in ``src/repro`` is built by
:class:`repro.runtime.lifecycle.WorkerPool`, which owns the lazy
build, the fork guard, restart and close for all of its owners.  The
walk is AST-based, like ``test_obs_hygiene``, so a construction split
across lines or reached through ``concurrent.futures.`` is seen too.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _pool_constructions():
    """Yield ``(site, enclosing class)`` for every ``ProcessPoolExecutor(...)``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "ProcessPoolExecutor":
                continue
            owner = [
                cls.name
                for cls in classes
                if cls.lineno <= node.lineno <= (cls.end_lineno or cls.lineno)
            ]
            yield f"{path.relative_to(SRC.parent)}:{node.lineno}", owner[-1] if owner else None


def test_process_pools_are_built_only_by_worker_pool():
    sites = list(_pool_constructions())
    assert len(sites) == 1, f"ProcessPoolExecutor built at {sites}; use WorkerPool"
    site, owner = sites[0]
    assert site.startswith("repro/runtime/lifecycle.py:") and owner == "WorkerPool", sites

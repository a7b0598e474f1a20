"""The package exports only names that something outside the tests uses.

A public name of ``framedisc`` that only the test suite calls belongs in
``tests/theory.py`` or ``tests/oracles.py``, not in the package. A name
counts as used when code in a module of ``src/framedisc/`` other than
``__init__.py``, or in a script under ``scripts/``, refers to it outside
the name's own ``def`` or ``class`` (docstrings and comments do not
count), or when ``README.md`` names it.
"""

import ast
import re
import types
from pathlib import Path

import framedisc

ROOT = Path(__file__).resolve().parents[1]


def _names_in(node, skip=None) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))} - {skip}


def code_references() -> set:
    """Names read by the package modules (not ``__init__.py``) and the
    scripts, each top-level definition's own name left out of its body."""
    paths = [p for p in sorted((ROOT / "src" / "framedisc").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    names = set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else None
            names |= _names_in(stmt, own)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    public = [name for name in framedisc.__all__
              if not isinstance(getattr(framedisc, name), types.ModuleType)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = code_references()
    unused = [name for name in public if name not in used
              and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not unused, f"public names only the tests use: {unused}"

"""The package holds only code that something outside the tests uses.

A public name of ``framedisc``, or a public module-level function or
method of a module under ``src/framedisc/``, that only the test suite
calls belongs in ``tests/theory.py`` or ``tests/oracles.py``, not in the
package. A name counts as used when code in a module of ``src/framedisc/``
other than ``__init__.py``, or in a script under ``scripts/``, refers to it
outside the name's own ``def`` or ``class`` (docstrings, comments and the
README do not count).

Likewise a parameter with a default, of such a function or method, is a
knob only if a program sets it: some call in ``src/framedisc/``,
``scripts/`` or the benchmark's programs under ``perfbench/`` passes it,
by keyword or by position. A knob only the tests set goes, with its one
production value written into the body. So does a dataclass field with a
default that no program call passes by keyword, to the class or to
``replace``; a ``field(init=False)`` is no knob.

Three modules keep a format to themselves: only ``spaces.py`` reads a
solid space's exponent ``p``, only ``coverings.py`` reads the private
attributes of a ``Covering``, and only ``oscillation.py`` turns norms into
certificates (``sigma_constant``, ``invertibility_condition``); the other
modules read them off an ``OscReport``.
"""

import ast
import types
from pathlib import Path

import framedisc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "framedisc").glob("*.py")
                 if p.name != "__init__.py")


def _names_in(node, skip=()) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))} - set(skip)


def _units(tree):
    """(node, own names) for every top-level statement, a class split into
    its body statements, each of which leaves out the class's name and, for
    a method, the method's own name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.bases + stmt.decorator_list:
                yield node, (stmt.name,)
            for item in stmt.body:
                own = item.name if isinstance(
                    item, (ast.FunctionDef, ast.ClassDef)) else None
                yield item, (stmt.name, own)
        elif isinstance(stmt, ast.FunctionDef):
            yield stmt, (stmt.name,)
        else:
            yield stmt, ()


def code_references() -> set:
    """Names read by the package modules (not ``__init__.py``) and the
    scripts, each definition's own name left out of its body."""
    paths = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
    names = set()
    for path in paths:
        for node, own in _units(ast.parse(path.read_text(encoding="utf-8"))):
            names |= _names_in(node, own)
    return names


def public_definitions() -> list:
    """``module.name`` and ``module.Class.name`` of every public
    module-level function and public method of the package modules."""
    found = []
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                found.append((f"{path.stem}.{stmt.name}", stmt.name))
            elif isinstance(stmt, ast.ClassDef):
                found += [(f"{path.stem}.{stmt.name}.{item.name}", item.name)
                          for item in stmt.body
                          if isinstance(item, ast.FunctionDef)]
    return [(where, name) for where, name in found if not name.startswith("_")]


def _unused(names) -> list:
    used = code_references()
    return [where for where, name in names if name not in used]


def test_every_public_name_has_a_caller_outside_tests():
    public = [(name, name) for name in framedisc.__all__
              if not isinstance(getattr(framedisc, name), types.ModuleType)]
    unused = _unused(public)
    assert not unused, f"public names only the tests use: {unused}"


def test_every_public_function_and_method_has_a_caller_outside_tests():
    definitions = public_definitions()
    assert len(definitions) > 50
    unused = _unused(definitions)
    assert not unused, f"public functions and methods only the tests use: {unused}"


def test_only_spaces_reads_the_exponent():
    """No package module but ``spaces.py`` reads an attribute ``p``: the
    harness asks a solid space for what it needs (``streamed_norms``,
    ``dual``, ``range_metric``, ``cell_space``) and does not branch on
    its exponent."""
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "framedisc").glob("*.py"))
               if path.name != "spaces.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "p"
               and isinstance(node.ctx, ast.Load)]
    assert not readers, f"reads of an exponent p outside spaces.py: {readers}"


def test_only_coverings_reads_a_covering_private():
    """No package module but ``coverings.py`` reads a private attribute of
    a ``Covering`` (its set starts and sizes, its point-major index, its
    cached neighbour pairs and digest, its private constructors): the
    others read the incidence through ``flat_sets``, ``flat_points`` and
    the covering's public methods, so its format stays in one module."""
    cov = framedisc.Covering(framedisc.uniform_grid(4), ([0, 1], [1, 2, 3]))
    cov.identifier(), cov.overlap_bound            # fill the cached ones
    private = {name for name in set(vars(cov)) | set(dir(framedisc.Covering))
               if name.startswith("_") and not name.startswith("__")}
    assert {"_set_starts", "_set_sizes", "_sets_by_point", "_point_ptr",
            "_neighbor_pairs"} <= private
    readers = [f"{path.name}:{node.lineno} {node.attr}"
               for path in sorted((ROOT / "src" / "framedisc").glob("*.py"))
               if path.name != "coverings.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in private]
    assert not readers, f"reads of a covering's private outside coverings.py: {readers}"


def test_only_oscillation_derives_a_certificate():
    """No package module but ``oscillation.py`` calls ``sigma_constant`` or
    ``invertibility_condition``: every certificate is a property of the
    report that holds the norms it is derived from."""
    formulas = {"sigma_constant", "invertibility_condition"}
    callers = [f"{path.name}:{node.lineno} {name}"
               for path in PACKAGE if path.name != "oscillation.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               for name in _names_in(node.func) & formulas]
    assert not callers, f"certificates derived outside oscillation.py: {callers}"


def defaulted_parameters() -> list:
    """``(module.function, name, parameter, position)`` for every parameter
    with a default of a public module-level function or public method of
    the package modules. ``position`` is its index among the positional
    arguments a call passes (``self`` or ``cls`` left out), None for a
    keyword-only parameter."""
    found = []
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef):
                defs = [(f"{path.stem}.{stmt.name}", stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(f"{path.stem}.{stmt.name}.{item.name}", item,
                         0 if any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in item.decorator_list) else 1)
                        for item in stmt.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for where, fn, bound in defs:
                if fn.name.startswith("_"):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found += [(where, fn.name, a.arg, i - bound)
                          for i, a in enumerate(positional) if i >= first]
                found += [(where, fn.name, a.arg, None)
                          for a, default in zip(args.kwonlyargs,
                                                args.kw_defaults)
                          if default is not None]
    return found


def program_calls() -> dict:
    """Per called name, ``(keywords, positional count)`` of every call in
    the package modules, the scripts and the benchmark's programs (not its
    tests). A ``**`` argument passes every keyword and a ``*`` argument
    every position."""
    paths = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords}
            count = float("inf") if any(isinstance(a, ast.Starred)
                                        for a in node.args) else len(node.args)
            calls.setdefault(name, []).append((keywords, count))
    return calls


def defaulted_fields(source: str | None = None) -> list:
    """``(module.Class, Class, field)`` for every field with a default of a
    dataclass of the package modules, or of the module ``source`` (named
    ``inline``) when given, leaving out ``field(init=False)`` fields,
    which no caller can pass."""
    def called(node, name):
        func = node.func if isinstance(node, ast.Call) else node
        return isinstance(func, ast.Name) and func.id == name

    found = []
    modules = [("inline", source)] if source is not None else \
        [(path.stem, path.read_text(encoding="utf-8")) for path in PACKAGE]
    for stem, text in modules:
        for stmt in ast.parse(text).body:
            if not (isinstance(stmt, ast.ClassDef)
                    and any(called(d, "dataclass")
                            for d in stmt.decorator_list)):
                continue
            for item in stmt.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.value is not None):
                    continue
                if called(item.value, "field") and any(
                        k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False
                        for k in item.value.keywords):
                    continue
                found.append((f"{stem}.{stmt.name}", stmt.name,
                              item.target.id))
    return found


def test_every_defaulted_parameter_is_set_by_a_program():
    params = defaulted_parameters()
    assert len(params) > 30
    calls = program_calls()
    unset = [f"{where}({param})" for where, name, param, position in params
             if not any(param in keywords or None in keywords
                        or (position is not None and count > position)
                        for keywords, count in calls.get(name, ()))]
    assert not unset, f"parameters only the tests set: {unset}"


# A dataclass with one field of each kind: the rule reads only ``given``.
DEFAULTED_PROBE = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Probe:
    kept: float
    given: float = 1.0
    made: list = field(init=False)
"""


def test_every_defaulted_field_is_set_by_a_program():
    assert defaulted_fields(DEFAULTED_PROBE) \
        == [("inline.Probe", "Probe", "given")]
    fields = defaulted_fields()
    calls = program_calls()
    unset = [f"{where}.{name}" for where, cls, name in fields
             if not any(name in keywords or None in keywords
                        for keywords, _ in calls.get(cls, [])
                        + calls.get("replace", []))]
    assert not unset, f"dataclass fields only the tests set: {unset}"

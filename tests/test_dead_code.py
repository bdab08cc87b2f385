"""Every function, method and class of the package has a caller outside the
tests, and every module reads every name it imports.

A definition counts as used when its name occurs in code outside its own
definition, anywhere in ``src``, ``demos`` or ``bench``: as an attribute,
and, unless it is a method, also as a bare or imported name.  So a local
variable that shares a method's name does not keep the method alive.  Uses
in ``tests`` do not count, since code that only the tests call belongs in a
tests oracle, and neither do the re-exports of ``atshuffle/__init__.py``.
An identifier-like string counts only in ``bench/spans.py``, the one file
that wraps its targets by name; elsewhere such a string is data (a CLI
command, a config key), and a method that shares its name is not called.
Comments and docstrings do not count.  Dunder methods are called by Python
itself and are exempt.

An imported name is read when it occurs as a bare name anywhere in the
module's code, in ``src``, ``demos``, ``tests`` or ``bench``.  ``from
__future__`` imports switch on language features and are exempt, as are the
re-exports of ``atshuffle/__init__.py``.
"""

import ast
import os
import re
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "atshuffle")
BY_NAME = os.path.join(ROOT, "bench", "spans.py")
REEXPORTS = os.path.join(PACKAGE, "__init__.py")
SEARCHED = ("src", "demos", "bench")
IMPORTING = ("src", "demos", "tests", "bench")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def python_files(tops=SEARCHED):
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def definitions_and_references():
    """(definitions, references): the package's definitions as
    (name, is_method, path, first line, last line), and every name used in
    code as (name, is_bare, path, line), bare meaning a plain or imported
    name."""
    definitions, references = [], []
    for path in python_files():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        in_package = path.startswith(PACKAGE + os.sep)
        by_name = path == BY_NAME
        # ast.walk reaches a class before its body
        methods = set()
        for node in ast.walk(tree):
            kind = type(node)
            if kind in DEFINITIONS:
                if kind is ast.ClassDef:
                    methods.update(map(id, node.body))
                if in_package and not (node.name.startswith("__")
                                       and node.name.endswith("__")):
                    definitions.append((node.name, id(node) in methods, path,
                                        node.lineno, node.end_lineno))
            elif kind is ast.Name:
                references.append((node.id, True, path, node.lineno))
            elif kind is ast.Attribute:
                references.append((node.attr, False, path, node.lineno))
            elif kind is ast.alias:
                references.append((node.name.rsplit(".", 1)[-1], True, path,
                                   node.lineno))
            elif (by_name and kind is ast.Constant
                  and isinstance(node.value, str)
                  and IDENTIFIER.fullmatch(node.value)):
                references.append((node.value, False, path, node.lineno))
    return definitions, references


def unreferenced():
    """The definitions that nothing references, as "path:line name"."""
    definitions, references = definitions_and_references()
    uses = {}
    for name, bare, path, line in references:
        if path != REEXPORTS:
            uses.setdefault(name, []).append((bare, path, line))
    return sorted(
        f"{os.path.relpath(path, ROOT)}:{first} {name}"
        for name, is_method, path, first, last in definitions
        if not any((not bare or not is_method)
                   and (use_path != path or not first <= line <= last)
                   for bare, use_path, line in uses.get(name, ())))


def test_every_definition_is_referenced_outside_itself():
    start = time.perf_counter()
    dead = unreferenced()
    elapsed = time.perf_counter() - start
    assert dead == []
    assert elapsed < 1.0, f"the scan took {elapsed:.2f} s"


def unread_imports():
    """The names a module imports and never reads, as "path:line name"."""
    unread = []
    for path in python_files(IMPORTING):
        if path == REEXPORTS:
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    # import a.b binds a
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        unread += [f"{os.path.relpath(path, ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    return sorted(unread)


def test_every_import_is_read():
    assert unread_imports() == []

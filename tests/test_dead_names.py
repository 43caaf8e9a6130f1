"""Every name the package defines is public or used.

A name defined at module level in ``src/pdc_entanglement/`` must be listed
in the package ``__all__`` or be referenced somewhere in the package
source (a load of the name, an attribute of that name, or an import of
it).  A method or property of a package class (dunders aside) must be
read as an attribute somewhere in the package source.  A name a module
imports must be loaded in that module or listed in its ``__all__``.
Anything else is code no caller in the package reaches; a path only
tests use belongs in the tests.  Only the standard library's ``ast``
reads the source.
"""

import ast
from pathlib import Path

import pdc_entanglement

PACKAGE = Path(pdc_entanglement.__file__).parent


def package_trees(package_dir):
    return {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_names(trees):
    exported = set(ast.literal_eval(next(
        node.value for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
    )))
    used = {name for tree in trees.values() for name in references(tree)}
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in module_level_names(tree)
        if not is_dunder(name) and name not in exported and name not in used
    )


def unused_members(trees):
    """module:Class.member for every method or property (a function in a
    class body, dunders aside) whose name no attribute access reads."""
    read = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    return sorted(
        f"{module}:{cls.name}.{member.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not is_dunder(member.name) and member.name not in read
    )


def unused_imports(trees):
    """module:name for every name a module binds by an import (``from
    __future__`` aside) that the module neither loads nor lists in its
    ``__all__``."""
    found = []
    for module, tree in trees.items():
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = {
            element.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in node.value.elts
        }
        found += [f"{module}:{name}" for name in imported if name not in loaded | exported]
    return sorted(found)


def test_every_module_level_name_is_public_or_used():
    assert dead_names(package_trees(PACKAGE)) == []


def test_every_method_and_property_is_read():
    trees = package_trees(PACKAGE)
    assert "fock_oracle.py" in trees  # the scan reads the package's modules
    assert unused_members(trees) == []


def test_every_import_is_used():
    trees = package_trees(PACKAGE)
    assert "analysis.py" in trees  # the scan reads the package's modules
    assert unused_imports(trees) == []


def test_import_detector_on_a_synthetic_source():
    source = '''
from __future__ import annotations

import math
import os.path
import numpy as np
from dataclasses import dataclass, field, replace
from typing import Optional
from .core import exported, unused_core as renamed

__all__ = ["exported"]


@dataclass
class Cell:
    value: Optional[float] = field(default=None)


def area(r):
    return math.pi * np.square(r)
'''
    assert unused_imports({"m.py": ast.parse(source)}) == [
        "m.py:os",
        "m.py:renamed",
        "m.py:replace",
    ]


def test_member_detector_on_a_synthetic_source():
    source = '''
class Cell:
    def __init__(self):
        self.used()

    def used(self):
        pass

    @property
    def read(self):
        pass

    @property
    def unread(self):
        pass

    def unused(self):
        pass

    def named_only(self):
        pass

    @classmethod
    def built(cls):
        pass


def caller(cell):
    named_only = cell.read
    return Cell.built(), named_only
'''
    assert unused_members({"m.py": ast.parse(source)}) == [
        "m.py:Cell.named_only",
        "m.py:Cell.unread",
        "m.py:Cell.unused",
    ]

"""Every module-level name of the package is public or used.

A name defined at module level in ``src/pdc_entanglement/`` must be listed
in the package ``__all__`` or be referenced somewhere in the package
source (a load of the name, an attribute of that name, or an import of
it).  Anything else is code no caller can reach.  Only the standard
library's ``ast`` reads the source.
"""

import ast
from pathlib import Path

import pdc_entanglement

PACKAGE = Path(pdc_entanglement.__file__).parent


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


def dead_names(package_dir):
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
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
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and name not in used
    )


def test_every_module_level_name_is_public_or_used():
    assert dead_names(PACKAGE) == []

"""Only the moment-ODE oracle names an extended-precision type.

The closed forms, the generic route and ``CovarianceMatrix`` work in
float64: Python floats for scalars, float64 numpy arrays for arrays.  The
moment ODE is the one place that integrates in long double, so
``fock_oracle.py`` is the one module of ``src/pdc_entanglement/`` whose
code may name ``longdouble`` (or its sized aliases), as a name, an
attribute, an import or a dtype string.  Only the standard library's
``ast`` reads the source; prose in docstrings and comments is not code.
"""

import ast
from pathlib import Path

import pdc_entanglement

PACKAGE = Path(pdc_entanglement.__file__).parent
EXTENDED = {"longdouble", "float96", "float128"}
ALLOWED = {"fock_oracle.py"}


def extended_uses(tree):
    """Line numbers where the code names an extended-precision type."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in EXTENDED:
            yield node.lineno


def uses_by_module(package_dir):
    return {
        path.name: sorted(extended_uses(ast.parse(path.read_text())))
        for path in sorted(package_dir.glob("*.py"))
    }


def test_only_the_moment_ode_names_longdouble():
    uses = uses_by_module(PACKAGE)
    assert uses["fock_oracle.py"]  # the detector sees the one allowed use
    assert {name: lines for name, lines in uses.items() if lines and name not in ALLOWED} == {}

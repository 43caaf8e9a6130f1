"""No module of the package names an extended-precision type.

The closed forms, the generic route, ``CovarianceMatrix`` and both
oracles work in float64: Python floats for scalars, float64 numpy arrays
for arrays.  So no module of ``src/pdc_entanglement/`` may name
``longdouble`` (or its sized aliases) in its code, as a name, an
attribute, an import or a dtype string, and the package gives the same
answers where long double is a plain double.  Only the standard
library's ``ast`` reads the source; prose in docstrings and comments is
not code.  Tests may still use long double for their own references.
"""

import ast
from pathlib import Path

import pdc_entanglement

PACKAGE = Path(pdc_entanglement.__file__).parent
EXTENDED = {"longdouble", "float96", "float128"}


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


def test_no_module_names_an_extended_precision_type():
    uses = uses_by_module(PACKAGE)
    assert "fock_oracle.py" in uses  # the scan reads the package's modules
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_detector_sees_each_form_of_use():
    source = '''"""np.longdouble in a docstring is prose."""
import numpy as np
from numpy import float128
# np.float96 in a comment is prose too
a = np.longdouble(1)
b = np.zeros(3, dtype="float96")
c = longdouble
d = np.float64(1)
'''
    assert sorted(extended_uses(ast.parse(source))) == [3, 5, 6, 7]

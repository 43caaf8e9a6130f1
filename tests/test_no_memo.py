"""The closed forms keep nothing from one call to the next.

The benchmark times an item as the fastest of three calls in a row, so a
memo of results would time cache hits, not the closed forms; a speed-up
must come from the work each call does.  ``pdc_dynamics``, ``analysis``
and ``gaussian_core`` therefore apply no ``functools.cache`` or
``lru_cache``, hold no mutable container at module level, rebind no
global from a function, and give no function a mutable default argument.
``fock_oracle`` keeps its bounded caches of read-only plans; the scan
finds them, which shows it can see a cache.  Only the standard library's
``ast`` reads the source.
"""

import ast
from pathlib import Path

import pdc_entanglement

PACKAGE = Path(pdc_entanglement.__file__).parent
CLOSED_FORMS = ("pdc_dynamics.py", "analysis.py", "gaussian_core.py")
CACHES = {"cache", "lru_cache"}
MUTABLE = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "ChainMap",
              "WeakKeyDictionary", "WeakValueDictionary"}


def is_mutable(node):
    """Whether an expression builds a mutable container."""
    if isinstance(node, MUTABLE):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in CONTAINERS
    return False


def memo_sites(tree):
    """(line, what) of every construct in a module that can keep a result
    from one call to the next."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CACHES:
            sites.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in CACHES:
            sites.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            sites += [(node.lineno, alias.name) for alias in node.names if alias.name in CACHES]
        elif isinstance(node, ast.Global):
            sites.append((node.lineno, "global " + ", ".join(node.names)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            sites += [(d.lineno, "mutable default") for d in defaults if is_mutable(d)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            if is_mutable(node.value):
                sites.append((node.lineno, "module-level container"))
    return sites


def test_closed_forms_keep_no_memo():
    for name in CLOSED_FORMS:
        assert memo_sites(ast.parse((PACKAGE / name).read_text())) == [], name


def test_the_scan_finds_the_plan_caches():
    found = {what for _, what in memo_sites(ast.parse((PACKAGE / "fock_oracle.py").read_text()))}
    assert "functools.lru_cache" in found


def test_the_scan_finds_each_kind_of_memo():
    source = """
import functools
from functools import cache
_SEEN = {}
_ORDER: list = []
@functools.lru_cache(maxsize=None)
def a(x): return x
def b(x, memo={}): return memo.setdefault(x, x)
def c(x):
    global _LAST
    _LAST = x
"""
    found = sorted(what for _, what in memo_sites(ast.parse(source)))
    assert found == sorted([
        "cache", "functools.lru_cache", "global _LAST", "module-level container",
        "module-level container", "mutable default",
    ])

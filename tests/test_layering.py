"""Module layering: every import inside cf3 points strictly down the stack.

frobenius and sail share a rank, so neither may import the other.  The
exact-arithmetic idiom is integers: only the modules whose answers are
rationals may import fractions.
"""

import ast
from pathlib import Path

RANKS = {
    "errors": 0,
    "intmat": 1, "zlinalg": 2, "roots": 3, "parallel": 4, "census": 5,
    "commutant": 6,
    "forms": 7,
    "solver": 8,
    "frobenius": 9, "sail": 9,
    "acceptance": 10,
    "cli": 11,
    "__init__": 12,
}

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cf3"


def _imported_modules(tree):
    """cf3 modules named by the relative imports anywhere in a module,
    function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_rank():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(RANKS)


def test_imports_point_strictly_down():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        rank = RANKS[path.stem]
        for target in _imported_modules(ast.parse(path.read_text())):
            if RANKS[target] >= rank:
                upward.append("%s imports %s" % (path.stem, target))
    assert upward == []



FRACTION_MODULES = {"zlinalg", "commutant", "forms", "acceptance"}


def test_only_rational_answer_modules_import_fractions():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                importers.add(path.stem)
            elif isinstance(node, ast.Import) and any(
                    alias.name == "fractions" for alias in node.names):
                importers.add(path.stem)
    assert importers == FRACTION_MODULES

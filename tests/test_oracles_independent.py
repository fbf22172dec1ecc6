"""The test oracles must not share code with the library they check."""
import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("_oracles.py")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    bad = [name for name in imported_modules(tree)
           if name.split(".")[0] == "gmac_seit" or name.startswith(".")]
    assert bad == []

"""The package's public names are the ones its own code, scripts or benchmark use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zonoharm"


def referenced_names(path: Path) -> set:
    """Names a module reads, calls, subclasses or imports; definitions and strings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_has_a_caller_outside_the_tests():
    exported = {
        alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    users += (ROOT / "perfbench" / "tests").glob("*.py")
    used = set().union(*map(referenced_names, users))
    assert "Harmonics" in exported
    assert sorted(exported - used) == []

"""The package's public names are the ones its own code, scripts or benchmark use."""

import ast
import inspect
from pathlib import Path

import pytest

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


def exported_names() -> set:
    """The names ``__init__.py`` imports, and the ones its module ``__getattr__``
    serves: the strings of every module-level tuple that function reads."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    (getattr_def,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    read = {node.id for node in ast.walk(getattr_def) if isinstance(node, ast.Name)}
    served = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in read for t in node.targets)
        for elt in node.value.elts
    }
    return imported | served


def test_every_export_has_a_caller_outside_the_tests():
    exported = exported_names()
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    users += (ROOT / "perfbench" / "tests").glob("*.py")
    used = set().union(*map(referenced_names, users))
    assert {"Harmonics", "Analysis"} <= exported
    assert sorted(exported - used) == []


def test_deferred_exports_resolve():
    # ``Analysis`` and ``compute_filtration`` load on first use, yet read as
    # every other export does
    import zonoharm
    from zonoharm import Analysis, compute_filtration
    from zonoharm.analysis import Analysis as defined

    assert Analysis is defined and callable(compute_filtration)
    assert {"Analysis", "compute_filtration"} <= set(dir(zonoharm))
    assert sorted(exported_names() - set(dir(zonoharm))) == []
    with pytest.raises(AttributeError, match="no_such_name"):
        zonoharm.no_such_name


def test_only_analysis_computes_a_missing_input():
    # ``Analysis`` wires an arrangement's inputs together; the other exported
    # callables take theirs and never compute a missing one.  Only a context
    # has optional inputs: no graph, or cocircuits that it enumerates itself
    import zonoharm

    allowed = {
        ("Analysis", "graph"),
        ("Analysis", "cocircuits"),
    }
    exported = {name: getattr(zonoharm, name) for name in dir(zonoharm) if not name.startswith("_")}
    defaults_none = {
        (name, param.name)
        for name, obj in exported.items()
        if callable(obj)
        for param in inspect.signature(obj).parameters.values()
        if param.default is None
    }
    assert "Analysis" in exported
    assert sorted(defaults_none - allowed) == []

"""Every name the package exports has a caller outside the tests.

A name counts as used when a module under src/thermoservo/ other than
__init__, or under perfbench/, loads it: as a bare name or as an attribute.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thermoservo"

#: Exports kept for checks that live in the tests, with the reason.
TEST_ONLY_EXPORTS = {
    "l_parallel": "the finite-difference reference for the interaction row",
    "required_view_factor": "the acceptance check against the paper's table",
}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def loaded_names() -> set[str]:
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_production_caller():
    unused = exported_names() - loaded_names() - set(TEST_ONLY_EXPORTS)
    assert not unused, f"exports with no caller outside the tests: {sorted(unused)}"


def test_test_only_exports_are_still_exported_and_unused():
    exported, loaded = exported_names(), loaded_names()
    assert set(TEST_ONLY_EXPORTS) <= exported
    assert not set(TEST_ONLY_EXPORTS) & loaded, "drop the exception: the name has a caller"

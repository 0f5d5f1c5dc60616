"""Each public name is declared once, in the module that defines it: no
module lists its names again in `__all__`, and every import inside the
package takes a name from the module whose own code binds it. No module
imports the tests or their tools: test oracles live beside the tests."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskbench"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _defined(tree):
    """The names a module binds at its top level by a def, a class or an
    assignment, not by an import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_lists_its_names_again(module):
    assert "__all__" not in _defined(MODULES[module]), f"{module}.py assigns __all__"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_package_imports_name_the_defining_module(module):
    borrowed = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in _defined(MODULES[node.module])
    ]
    assert not borrowed, f"{module}.py imports names their module does not define: {borrowed}"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_the_tests(module):
    test_code = {path.stem for path in Path(__file__).parent.glob("*.py")} | {"pytest", "hypothesis"}
    imported = {
        (alias.name if isinstance(node, ast.Import) else node.module).split(".")[0]
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.level == 0
        for alias in node.names
    }
    assert not imported & test_code, f"{module}.py imports {sorted(imported & test_code)}"

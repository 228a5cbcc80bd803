"""Import boundaries between juna's modules, read from their source with ast."""

import ast
from pathlib import Path

import pytest

import juna

SOURCES = sorted(Path(juna.__file__).parent.glob("*.py"))


def _imports(path):
    """(module, name) of each import in the file, the module named relative to
    the package; `from . import x` and `import juna.x` give (x, None)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("juna."):
                    yield alias.name.removeprefix("juna."), None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "juna":
                    continue
                module = module.removeprefix("juna").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)


def _private_uses(path, module):
    """Names starting with _ that the file reads as attributes of `module`."""
    return [
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id == module
    ]


def test_sources_found():
    assert {"keyfile.py", "params.py", "chp.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_keyfile(path):
    private = [name for module, name in _imports(path)
               if module == "keyfile" and name and name.startswith("_")]
    assert private + _private_uses(path, "keyfile") == []


@pytest.mark.parametrize("name", ["compress", "attacks", "reform", "chp"])
def test_record_users_import_nothing_from_params(name):
    path = Path(juna.__file__).parent / f"{name}.py"
    assert [imp for imp in _imports(path) if imp[0] == "params"] == []

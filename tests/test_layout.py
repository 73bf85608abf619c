"""The package's module layout: who may import what from whom."""

import ast
from pathlib import Path
from types import ModuleType

import tagrtg.leftcorner
import tagrtg.translate

SOURCES = sorted(Path(tagrtg.translate.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_another():
    private = [
        f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tagrtg")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert SOURCES and private == []


def test_translate_builds_both_forms():
    assert tagrtg.leftcorner.lc_fbrtg is tagrtg.translate.lc_fbrtg


def test_all_lists_the_public_names_the_package_binds():
    # The package binds a name only when it is first read, so ask it
    # through dir() and getattr rather than read its namespace.
    public = {
        name
        for name in dir(tagrtg)
        if not name.startswith("_") and not isinstance(getattr(tagrtg, name), ModuleType)
    }
    assert sorted(tagrtg.__all__) == sorted(public | {"__version__"})
    assert all(hasattr(tagrtg, name) for name in tagrtg.__all__)

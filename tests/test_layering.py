"""Module layering: no superkac module reaches into another one's private
names, so each module's public functions are its whole interface."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "superkac"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(path: Path) -> list:
    """(line, name) for each underscore name that ``path`` imports from, or
    reads as an attribute of, another superkac module."""
    own = f"superkac.{path.stem}"
    aliases = set()               # local names bound to other superkac modules
    found = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "superkac" \
                and node.module != own:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                elif node.module == "superkac":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_checker_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from superkac.exact import _pencil, rref\n"
                     "from superkac import kacmod as km\n"
                     "x = km._subset_order\n", encoding="utf-8")
    assert private_imports(probe) == [(1, "superkac.exact._pencil"),
                                      (3, "km._subset_order")]

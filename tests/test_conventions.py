"""The README's Conventions table names every tolerance constant with its value."""

import ast
import importlib
import re
from pathlib import Path

import qmi

PACKAGE = Path(qmi.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _defined_tolerances() -> dict[str, float]:
    """module.NAME -> value of every `*_TOL` assigned at the top level of a qmi module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                        found[f"{path.stem}.{target.id}"] = getattr(importlib.import_module(f"qmi.{path.stem}"), target.id)
    return found


def _conventions_table() -> dict[str, str]:
    """module.NAME -> value cell of each row of the README's Conventions table."""
    text = README.read_text()
    section = text[text.index("## Conventions"):]
    section = section[: section.index("\n## ", 1)]
    return dict(re.findall(r"^\s*\| `([\w.]+)` \| ([^|]+?) \|", section, flags=re.MULTILINE))


def test_the_conventions_table_lists_each_tolerance_with_its_value():
    defined = _defined_tolerances()
    table = _conventions_table()
    assert defined, "no tolerance constants found"
    assert sorted(table) == sorted(defined)
    for name, value in defined.items():
        assert float(table[name]) == value, name


def test_the_readme_names_no_removed_tolerance():
    names = {name.split(".")[1] for name in _defined_tolerances()}
    mentioned = set(re.findall(r"\b[A-Z][A-Z_]*_TOL\b", README.read_text()))
    assert mentioned <= names, sorted(mentioned - names)

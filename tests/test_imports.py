"""Modules of the package import only each other's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import aabscreen

PACKAGE = Path(aabscreen.__file__).parent


def test_no_private_names_across_modules():
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offending += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offending == []

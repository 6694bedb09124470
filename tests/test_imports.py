"""Modules of the package import only each other's public names, and every
exported name exists."""

from __future__ import annotations

import ast
import importlib
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


def test_every_exported_name_resolves():
    missing = [f"aabscreen.{name}" for name in aabscreen.__all__ if not hasattr(aabscreen, name)]
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"aabscreen.{path.stem}")
        missing += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", [])
            if not hasattr(module, name)
        ]
    assert missing == []

"""Modules of the package import only each other's public names and no
scipy, every exported name exists, and importing the package applies the
AAB_THREADS cap before numpy loads."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
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


def test_every_private_name_is_read_in_its_module():
    """A private module-level function, class or constant that its own
    module never reads is dead: no other module may import it."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.name}: {name}"
            for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read
        ]
    assert unread == []


def test_no_module_imports_scipy():
    """numpy is the one dependency: scipy serves the tests only."""
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offending += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
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


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fresh(args, **env_vars) -> subprocess.CompletedProcess:
    """Run this aabscreen in a new interpreter whose environment has no
    thread variables other than ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in ("AAB_THREADS", *BLAS_VARS)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-W", "default", *args], env=env, capture_output=True, text=True
    )


def blas_vars_after_import(**env_vars) -> list[str]:
    code = f"import os, aabscreen; print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"
    proc = fresh(["-c", code], **env_vars)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestThreadCap:
    def test_import_sets_every_blas_variable(self):
        assert blas_vars_after_import(AAB_THREADS="3") == ["3", "3", "3"]

    def test_a_variable_set_beforehand_is_kept(self):
        assert blas_vars_after_import(AAB_THREADS="3", OPENBLAS_NUM_THREADS="1") == ["3", "1", "3"]

    def test_no_cap_sets_nothing(self):
        assert blas_vars_after_import() == ["None", "None", "None"]

    def test_cap_precedes_every_package_import(self):
        body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        cap = next(k for k, node in enumerate(body) if isinstance(node, ast.If))
        first_import = next(k for k, node in enumerate(body) if isinstance(node, ast.ImportFrom))
        assert cap < first_import
        assert "AAB_THREADS" not in (PACKAGE / "cli.py").read_text(encoding="utf-8")

    def test_commands_import_nothing(self):
        tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
        offending = [
            f"{fn.name}:{node.lineno}"
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert offending == []


def test_cli_module_run_writes_nothing_to_stderr(tmp_path):
    out = tmp_path / "z.json"
    args = ["-m", "aabscreen.cli", "verify", "--mode", "z", "--samples", "1000"]
    proc = fresh([*args, "--seed", "1", "--out", str(out)], AAB_THREADS="1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.exists()

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import cvgauss

SRC = Path(cvgauss.__file__).parent


def test_all_matches_root_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                if node.module != "__future__"
                for alias in node.names}
    assert len(cvgauss.__all__) == len(set(cvgauss.__all__))
    assert set(cvgauss.__all__) == imported


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name} from .{node.module or ''}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _imported_names(tree):
    """Name bound by each import of a module, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_unused_imports():
    # a name in __all__ counts as used: the package root re-exports its imports
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = cvgauss if path.stem == "__init__" else importlib.import_module(
            f"cvgauss.{path.stem}")
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        offenders += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert offenders == []


def test_no_environment_reads():
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
    assert offenders == []


def test_import_loads_no_scipy():
    code = "import sys, cvgauss; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

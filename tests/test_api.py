import ast
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

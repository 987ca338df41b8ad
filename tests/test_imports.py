"""The package's runtime imports: the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latticeepr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "latticeepr"}


def test_src_imports_only_stdlib_and_numpy():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert foreign == []

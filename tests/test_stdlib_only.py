"""The library stays standard-library only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drasp4"


def test_src_imports_only_the_standard_library():
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0])
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("cli.py", "argparse") in imported
    outside = sorted((name, module) for name, module in imported
                     if module not in sys.stdlib_module_names)
    assert not outside, outside

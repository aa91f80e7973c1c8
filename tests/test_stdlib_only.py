"""The library stays standard-library only, and importing it stays light."""

import ast
import json
import subprocess
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


def test_import_loads_neither_dataclasses_nor_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``, which every command would pay for at start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import drasp4; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_loads_only_the_engine_core():
    """``gwa``, ``parser``, ``verify`` and ``cli`` load on first use of one
    of their names; every public name still resolves, is listed by
    ``dir`` and is bound by a star import."""
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import drasp4
lazy = {"drasp4.gwa", "drasp4.parser", "drasp4.verify", "drasp4.cli"}
loaded = sorted(lazy & set(sys.modules))
unlisted = sorted(set(drasp4.__all__) - set(dir(drasp4)))
unresolved = [n for n in drasp4.__all__ if not hasattr(drasp4, n)]
star = {}
exec("from drasp4 import *", star)
unbound = [n for n in drasp4.__all__
           if n not in star or star[n] is not getattr(drasp4, n)]
print(json.dumps([loaded, unlisted, unresolved, unbound,
                  hasattr(drasp4, "no_such_name"),
                  drasp4.evaluate is drasp4.parser.evaluate,
                  drasp4.GwaElem is drasp4.gwa.GwaElem,
                  drasp4.cli is sys.modules["drasp4.cli"]]))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], [], [], False, True, True, True]

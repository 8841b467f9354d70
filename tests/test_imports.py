"""Every name a module of the package imports is used in that module, and
the package imports no heavy stdlib module.

A stdlib `ast` check, since the project runs no linter: each module under
src/cuspidal/ except the re-exporting __init__.py is parsed, and a name
bound by an import that no expression or annotation reads is reported.

Every process pays for the modules the package imports.  `dataclasses`
pulls in `inspect`, `ast` and `dis`, and generates its methods with `exec`
at each import, so a fresh interpreter without `site` (which preloads
nothing) and with only src/ on its path must load neither after importing
the package and its command line.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cuspidal"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for text in (n.value for a in annotations if a for n in ast.walk(a)
                     if isinstance(n, ast.Constant)
                     and isinstance(n.value, str)):
            used.update(n.id for n in ast.walk(ast.parse(text, mode="eval"))
                        if isinstance(n, ast.Name))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from math import gcd, lcm\nimport os.path\n"
              "def f(x: 'Fraction') -> int:\n    return gcd(x, 2)\n"
              "from fractions import Fraction\n")
    assert unused_imports(source) == ["line 1: lcm", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_package_loads_no_dataclasses_or_inspect():
    # -I: no PYTHONPATH and no script directory; -S: no site; -B: no
    # bytecode written, which -I would allow
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import cuspidal, cuspidal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"

"""Every function, class and method of the package has a caller that is not
one of its own unit tests.

A stdlib `ast` check in the style of test_imports.py.  Slow-but-obvious code
belongs in tests/ as an oracle, not in src/, so each top-level function and
class and each non-dunder method of a module under src/cuspidal/ (except the
re-exporting __init__.py) must be referenced from one of:
- the package itself (a re-export does not count);
- the benchmark under perfbench/, where a string, such as a key of the
  tracer's ENTRY_POINTS, counts too;
- the acceptance tests or the CLI tests.
A method is referenced only through an attribute access (x.name), so a local
variable of the same name does not hide it.  A definition's references to
itself do not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cuspidal"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")
USERS = [*sorted((ROOT / "perfbench").rglob("*.py")),
         ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_cli.py"]


def definitions(tree):
    """(qualified name, name, is a method, first line, last line) of each
    top-level function and class and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield (f"{node.name}.{item.name}", item.name, True,
                           item.lineno, item.end_lineno)


def references(tree, strings: bool):
    """(name, through an attribute, line) for each name read and each
    attribute accessed; with strings, also for each string constant, a
    dotted one naming its last part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value.rsplit(".", 1)[-1], True, node.lineno


def unreferenced(modules: dict, users: dict, string_users=()) -> list[str]:
    """The definitions of the modules (file name -> source) that neither the
    modules nor the users (file name -> source) reference, as
    "file: qualified name"."""
    trees = {name: ast.parse(source)
             for name, source in {**modules, **users}.items()}
    seen = defaultdict(list)
    for file, tree in trees.items():
        for name, attribute, line in references(tree, file in string_users):
            seen[name].append((attribute, file, line))
    return sorted(
        f"{file}: {qualname}"
        for file in modules
        for qualname, name, method, first, last in definitions(trees[file])
        if not any((attribute or not method)
                   and not (where == file and first <= line <= last)
                   for attribute, where, line in seen[name]))


def test_the_check_finds_what_only_tests_use():
    module = ("def used():\n    pass\n"
              "def only_tested():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Form:\n"
              "    def word(self):\n        pass\n"
              "    def degree(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "def entry(form):\n"
              "    word = Form()\n"
              "    return used(), form.degree(), word\n")
    bench = "ENTRY_POINTS = {'mod': {'entry': None}}\n"
    test = "from mod import only_tested\n"
    assert unreferenced({"mod.py": module}, {"bench.py": bench,
                                             "test.py": test},
                        {"bench.py"}) == ["mod.py: Form.word",
                                          "mod.py: only_tested",
                                          "mod.py: recursive"]


def test_every_definition_has_a_caller_outside_its_unit_tests():
    modules = {path.name: path.read_text() for path in MODULES}
    users = {str(path.relative_to(ROOT)): path.read_text() for path in USERS}
    string_users = {name for name in users if name.startswith("perfbench")}
    assert unreferenced(modules, users, string_users) == []

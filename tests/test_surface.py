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

Likewise every parameter with a default, of such a function or method or of
a class's __init__, must be passed at some call site in the same modules and
users: by keyword, by position past the required parameters, or by a call
that splats its arguments (*args or **kwargs).  Calls are matched by name as
references are, a constructor by its class's name.
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
    """(qualified name, name, is a method, first line, last line, node) of
    each top-level function and class and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield (node.name, node.name, False, node.lineno, node.end_lineno,
                   node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield (f"{node.name}.{item.name}", item.name, True,
                           item.lineno, item.end_lineno, item)


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
        for qualname, name, method, first, last, _ in definitions(
            trees[file])
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


def defaulted_parameters(tree):
    """(qualified name, name, is a method, first line, last line, parameter,
    position) for each parameter with a default of a definition that
    `definitions` yields, a class standing for its __init__.  position is
    the parameter's index among a call's positional arguments, None for a
    keyword-only parameter."""
    for qualname, name, method, first, last, node in definitions(tree):
        # self or cls is not among a call's arguments
        skip = method and not any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in node.decorator_list)
        if isinstance(node, ast.ClassDef):
            node = next((item for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), None)
            if node is None:
                continue
            skip = True
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        start = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[start:], start):
            yield qualname, name, method, first, last, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, name, method, first, last, arg.arg, None


def passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether the call may set the parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_defaults(modules: dict, users: dict) -> list[str]:
    """The parameters with defaults of the modules' definitions (file name
    -> source) that no call in the modules or the users (file name ->
    source) passes, as "file: qualified name(parameter)"."""
    trees = {name: ast.parse(source)
             for name, source in {**modules, **users}.items()}
    calls = defaultdict(list)
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    calls[node.func.id].append((False, file, node))
                elif isinstance(node.func, ast.Attribute):
                    calls[node.func.attr].append((True, file, node))
    return sorted(
        f"{file}: {qualname}({parameter})"
        for file in modules
        for qualname, name, method, first, last, parameter, position
        in defaulted_parameters(trees[file])
        if not any((attribute or not method)
                   and not (where == file and first <= call.lineno <= last)
                   and passes(call, parameter, position)
                   for attribute, where, call in calls[name]))


def test_the_check_finds_defaults_only_tests_set():
    module = ("def f(a, b=1, *, c=2):\n    return f(a, b)\n"
              "def g(a, b=1, c=2):\n    pass\n"
              "def h(a=1):\n    pass\n"
              "class K:\n"
              "    def __init__(self, x=0):\n        pass\n"
              "    def m(self, x, y=0):\n        pass\n"
              "    def n(self, z=0):\n        pass\n"
              "    @staticmethod\n"
              "    def s(x, y=0):\n        pass\n"
              "def caller(k, args):\n"
              "    g(1, c=3)\n    h(*args)\n    k.m(1, 2)\n    n(1)\n"
              "    k.s(1)\n    return f(0), K(x=1)\n")
    bench = "import mod\nmod.f(0, b=2)\n"
    test = "from mod import g\ng(1, 2)\n"
    assert unset_defaults({"mod.py": module}, {"bench.py": bench}) == [
        "mod.py: K.n(z)", "mod.py: K.s(y)", "mod.py: f(c)", "mod.py: g(b)"]
    assert unset_defaults({"mod.py": module},
                          {"bench.py": bench, "test.py": test}) == [
        "mod.py: K.n(z)", "mod.py: K.s(y)", "mod.py: f(c)"]
    # a constructor is called by its class's name
    assert unset_defaults({"mod.py": module.replace("K(x=1)", "K()")},
                          {"bench.py": bench, "test.py": test}) == [
        "mod.py: K(x)", "mod.py: K.n(z)", "mod.py: K.s(y)", "mod.py: f(c)"]


def test_every_default_is_set_outside_its_unit_tests():
    modules = {path.name: path.read_text() for path in MODULES}
    users = {str(path.relative_to(ROOT)): path.read_text() for path in USERS}
    assert unset_defaults(modules, users) == []

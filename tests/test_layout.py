"""Import hygiene of the package modules, checked on their syntax trees."""

import ast
import os
import re
import subprocess
import sys

import pytest

import queerdual

PACKAGE = os.path.dirname(queerdual.__file__)
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
README = os.path.join(ROOT, "README.md")
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def parse(name: str, directory: str = PACKAGE) -> ast.Module:
    with open(os.path.join(directory, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def readme_words() -> set:
    with open(README) as fh:
        return set(re.findall(r"\w+", fh.read()))


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    local = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(parse(name)) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, f"function-local imports in {name}: {local}"


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    tree = parse(name)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{n}:{line}" for n, line in imported.items() if n not in used)
    assert not unused, f"unused imports in {name}: {unused}"


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_imports_only_the_standard_library_and_the_package(name):
    # pyproject declares no dependencies: any other import would fail on install
    outside = []
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots = [node.module.split(".")[0]]
        else:
            continue
        outside += [f"{root}:{node.lineno}" for root in roots if root not in sys.stdlib_module_names | {"queerdual"}]
    assert not outside, f"imports outside the standard library in {name}: {outside}"


def test_every_module_level_definition_is_used_or_exported():
    # a function or class that no other code of the package refers to, and that
    # __init__ does not export as API that README.md documents, is dead code:
    # only tests could reach it.  A use is a name that is read, or an attribute
    # read as module.name, module a name bound to a package module: a method, a
    # field or an assignment that shares a function's spelling keeps nothing alive
    trees = {name: parse(name) for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))}
    modules = {name.removesuffix(".py") for name in trees}
    used = set()
    for name, tree in trees.items():
        bound = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module in (None, "queerdual")
            for alias in node.names if alias.name in modules
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":
                used.update(alias.name for alias in node.names)
    init = trees["__init__.py"].body
    exported = {alias.name for node in init if isinstance(node, ast.ImportFrom) for alias in node.names} & readme_words()
    dead = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        if node.name not in used | exported
    ]
    assert not dead, f"module-level definitions nothing uses: {dead}"


def is_property(fn: ast.FunctionDef) -> bool:
    """Decorated with property or cached_property, written as a name or as an attribute (functools.cached_property)."""
    return any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property") for d in fn.decorator_list)


def test_every_method_is_read_or_documented():
    # a method that no code of the package or of perfbench/ reads as an
    # attribute, and that README.md does not name as Class.method, is dead
    # code: only tests could call it.  A property (property or
    # functools.cached_property, written as a name or as an attribute) is read
    # as x.name; any other method is read as a call x.name(...), so a field of
    # the same spelling (SuperSpace.parity) keeps no method alive.  Dunder
    # methods are called by the language
    trees = {name: parse(name) for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))}
    bench = [parse(name, PERFBENCH) for name in sorted(f for f in os.listdir(PERFBENCH) if f.endswith(".py"))]
    nodes = [node for tree in (*trees.values(), *bench) for node in ast.walk(tree)]
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    called = {node.func.attr for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    with open(README) as fh:
        readme = fh.read()
    dead = [
        f"{name}:{cls.name}.{fn.name}"
        for name, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and not re.fullmatch(r"__\w+__", fn.name)
        if f"{cls.name}.{fn.name}" not in readme
        and fn.name not in (read if is_property(fn) else called)
    ]
    assert not dead, f"methods nothing reads: {dead}"


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_only_superlinalg_imports_its_private_names(name):
    # its flat operator layout and closure stay behind superlinalg's public
    # functions: another module that imported them would share its internals
    private = [
        f"{alias.name}:{node.lineno}"
        for node in ast.walk(parse(name)) if isinstance(node, ast.ImportFrom)
        if node.module in ("superlinalg", "queerdual.superlinalg")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert name == "superlinalg.py" or not private, f"private names of superlinalg imported in {name}: {private}"


@pytest.mark.parametrize("name", MODULES)
def test_only_scalars_and_superlinalg_call_identity_bound(name):
    # a checker takes its bound from superlinalg.relation_bound, derived from
    # its instances, and writes no bound of its own
    calls = [
        node.lineno
        for node in ast.walk(parse(name)) if isinstance(node, ast.Call)
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "identity_bound"
    ]
    assert name in ("scalars.py", "superlinalg.py") or not calls, f"identity_bound called in {name}: {calls}"


def test_start_up_loads_no_standard_library_module_the_package_does_not_use():
    # every run compiles the package from source when bytecode is not written,
    # and each module it loads adds to that start-up; -S stops a site hook,
    # which may import some of these itself, from hiding one the package pulls in
    script = (
        "import sys, queerdual, queerdual.cli\n"
        "queerdual.duality.load_expectations()\n"
        "print(' '.join(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    run = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
    unused = {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "importlib.resources", "zipfile", "tempfile", "pathlib",
    }
    loaded = set(run.stdout.split())
    assert "queerdual.cli" in loaded
    assert not loaded & unused, sorted(loaded & unused)

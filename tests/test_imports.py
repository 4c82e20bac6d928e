"""Every name a punctrl module imports is used there, and every function or method has a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "punctrl"
# __init__.py imports names only to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_a_leftover_import():
    source = ("import math\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == ["field", "math"]


def test_attribute_and_dotted_uses_count():
    assert unused_imports("import os.path\nimport numpy as np\nnp.zeros(os.path.sep)\n") == []


def test_modules_found():
    assert {"net.py", "train.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def read_names(source: str) -> set[str]:
    """Every name ``source`` refers to, bare or as an attribute; a def and a docstring do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_read_names_skip_definitions_and_docstrings():
    source = 'def f():\n    """Calls g."""\n\ndef g():\n    pass\n\nmod.k(f)\n'
    assert read_names(source) == {"mod", "k", "f"}


def defined_functions(source: str) -> dict[str, str]:
    """Module-level functions and the non-dunder methods of module-level classes, label -> name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            defined[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            defined.update({
                f"{node.name}.{item.name}": item.name
                for item in node.body
                if isinstance(item, functions) and not (item.name.startswith("__")
                                                         and item.name.endswith("__"))
            })
    return defined


def test_defined_functions_include_methods():
    source = ("def f():\n    def inner():\n        pass\n\n"
              "class A:\n    def __init__(self):\n        pass\n\n"
              "    @property\n    def p(self):\n        pass\n\n    def m(self):\n        pass\n")
    assert defined_functions(source) == {"f": "f", "A.p": "p", "A.m": "m"}


# scikit-learn's clone and model selection call set_params; the package itself never does
PROTOCOL_METHODS = {"set_params"}


def test_every_function_has_a_caller():
    """A function or method only tests reach is a second code path; src or bench must call it."""
    # __init__.py only re-exports, so its names are not callers
    sources = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    sources += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    called = set().union(*map(read_names, sources), PROTOCOL_METHODS)
    uncalled = {
        f"{module}:{label}"
        for module in MODULES
        for label, name in defined_functions((PACKAGE / module).read_text("utf-8")).items()
        if name not in called
    }
    assert uncalled == set()


def test_cli_import_loads_no_process_pool():
    """A single-job run never starts workers, so importing the CLI loads no pool machinery."""
    probe = ("import sys, punctrl.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60, env=env)
    assert result.stdout.strip() == "[]"

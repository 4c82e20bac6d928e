"""Every name a punctrl module imports is used there, and every function it defines has a caller."""

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


def test_every_function_has_a_caller():
    """A function only the tests reach is a second code path; the package or bench must call it."""
    # __init__.py only re-exports, so its names are not callers
    sources = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    sources += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    called = set().union(*map(read_names, sources))
    uncalled = {
        f"{module}:{node.name}"
        for module in MODULES
        for node in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in called
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

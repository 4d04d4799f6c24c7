"""Every name a package module imports is used in that module and is
imported at module level, and importing the package loads no module it does
not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfcycl"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements and never read in source."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1, 2)\n") == [
        "gcd (line 2)", "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[int]:
    """The lines of the import statements inside function bodies in source."""
    functions = (node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return sorted({node.lineno for fn in functions for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_the_scan_finds_an_import_in_a_function():
    source = ("import os\n"
              "def f():\n"
              "    from math import gcd\n"
              "    def g():\n"
              "        import re\n"
              "class C:\n"
              "    def h(self):\n"
              "        import sys\n")
    assert function_imports(source) == [3, 5, 8]
    assert function_imports("import os\nfrom math import gcd\nclass C:\n    import re\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    """Every module of the package imports at module level; no import here
    breaks a cycle."""
    assert function_imports(path.read_text()) == []


def assert_statements(source: str) -> list[int]:
    """The lines of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_scan_finds_an_assert_statement():
    assert assert_statements("x = 1\nassert x, 'x'\nif x:\n    assert x > 0\n") == [2, 4]
    assert assert_statements("if not x:\n    raise ValueError('x')\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    """python -O strips assert statements, so the package checks with a raise."""
    assert assert_statements(path.read_text()) == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """dataclasses, with the inspect, ast and dis it pulls in, would be the
    largest part of the package's import time; a fresh process without site
    shows what importing hopfcycl and hopfcycl.cli adds to sys.modules."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hopfcycl, hopfcycl.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert "hopfcycl.cli" in out
    assert sorted({"dataclasses", "inspect"} & set(out)) == []

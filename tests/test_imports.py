"""The package imports nothing beyond its dependencies (numpy and sympy, as
``pyproject.toml`` declares them) and the standard library: an installed but
undeclared package (scipy, say) would import here and fail for a user, and
would add its import time to every start."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "drglab"
ALLOWED = {"numpy", "sympy"} | set(sys.stdlib_module_names)


def imported_modules(path: pathlib.Path):
    """Top-level names of the absolute imports in a source file, anywhere in
    it (function bodies too)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_sympy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert not {(path.name, name) for path in sources for name in imported_modules(path)
                if name not in ALLOWED}

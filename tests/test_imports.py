"""The package imports nothing beyond its dependencies (numpy and sympy, as
``pyproject.toml`` declares them) and the standard library: an installed but
undeclared package (scipy, say) would import here and fail for a user, and
would add its import time to every start."""

import ast
import os
import pathlib
import subprocess
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


def test_only_polys_imports_sympy():
    # factoring and root isolation are the one use of sympy; an exact
    # algebraic-number type would replace it in this module alone
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in sources if "sympy" in imported_modules(path)] == ["polys.py"]


def test_an_array_with_integer_eigenvalues_never_loads_sympy():
    # sympy is imported on first use, to factor: J(10,5)'s eigenvalues are
    # all integers, found by Sturm bisection, so classifying it loads none
    script = ("import sys\n"
              "from drglab.cli import main\n"
              "code = main(['classify', '--ia', '25,16,9,4,1;1,4,9,16,25'])\n"
              "print(code, 'sympy' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stderr.split() == ["0", "False"], done.stderr

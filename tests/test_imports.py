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


def sympy_importers(path: pathlib.Path):
    """(module, function) of every import of sympy in a source file: the
    innermost function around it, or None at module level."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                         else [child.module or ""] if child.level == 0 else [])
                if any(name.split(".")[0] == "sympy" for name in names):
                    yield path.name, owner
            else:
                yield from walk(child, owner)

    return list(walk(ast.parse(path.read_text(), str(path)), None))


def test_only_polys_imports_sympy():
    # factoring and root isolation are the one use of sympy, imported on
    # first use in the two functions that do them; an exact
    # algebraic-number type would replace it there alone
    found = [site for path in sorted(PACKAGE.glob("*.py")) for site in sympy_importers(path)]
    assert sorted(found) == [("polys.py", "_interval_root"), ("polys.py", "real_roots")]


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


def test_every_private_function_has_a_caller_in_the_package():
    # a private module-level function or method that no code of the package
    # names (as a name or an attribute) is a helper left behind by its last
    # caller; the tests and the benchmark do not count as callers
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            defined |= {f.name for f in scope
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and f.name.startswith("_") and not f.name.endswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert {"_check_pairs", "_sources"} <= defined
    unused = sorted(defined - used)
    assert not unused, unused

"""Import hygiene of the package, checked with the standard library's ast:
no module imports a name it never uses, and imports sit at module level.
The package has no runtime dependencies: importing it loads no numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "densepde"

# Expr.__str__ imports the printer when called: the printer imports expr,
# so a module-level import would be circular.
LOCAL_IMPORTS_ALLOWED = {("expr.py", "__str__")}


def _modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    for path in paths:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotation_strings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            continue
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                yield ast.parse(a.value, mode="eval")


def _used_names(tree):
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used.update(n.id for n in ast.walk(root) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in _modules():
        if name == "__init__.py":  # re-exports
            continue
        used = _used_names(tree)
        unused += [f"{name}: {n}" for n in _imported_names(tree) if n not in used]
    assert unused == []


def test_imports_at_module_level():
    local = []
    for name, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    if (name, fn.name) not in LOCAL_IMPORTS_ALLOWED:
                        local.append(f"{name}:{node.lineno} in {fn.name}")
    assert local == []


def test_import_loads_no_numpy():
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, densepde; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

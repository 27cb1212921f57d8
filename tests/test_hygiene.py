"""Import hygiene of the package, checked with the standard library's ast:
no module of the package or of its tests imports a name it never uses,
the package's imports sit at module level, every name the package
re-exports is used by the package or a demo, and every private
module-level function, class or assignment is read by the package.
No constructor fills an instance __dict__ with update(), which gives the
instance a dict of its own keys, not one that shares its class's.
The package has no runtime dependencies: importing it loads no numpy, and
it generates no class code: it loads neither dataclasses nor inspect.  Nor
does it load tempfile or csv, with or without the site module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "densepde"
DEMOS = PACKAGE.parent.parent / "demos"

# Expr.__str__ imports the printer when called: the printer imports expr,
# so a module-level import would be circular.
LOCAL_IMPORTS_ALLOWED = {("expr.py", "__str__")}


def _modules(directory=PACKAGE):
    paths = sorted(directory.glob("*.py"))
    assert paths, f"no modules under {directory}"
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
    for directory in (PACKAGE, TESTS):
        for name, tree in _modules(directory):
            if directory == PACKAGE and name == "__init__.py":  # re-exports
                continue
            used = _used_names(tree)
            unused += [
                f"{directory.name}/{name}: {n}" for n in _imported_names(tree) if n not in used
            ]
    assert unused == []


def _referenced(tree):
    """Names and attributes that the module's top-level statements read:
    a definition's own name is left out of its body, and an assignment's
    targets are no reads."""
    out = set()
    for stmt in tree.body:
        names = {
            n.id for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        out |= names
    return out


def test_reexports_are_used():
    # the package carries what its pipeline, CLI and demos run: a name
    # only the tests call belongs in tests/reference.py, not in the API
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        a.asname or a.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    used = set()
    for name, tree in _modules():
        if name != "__init__.py":
            used |= _referenced(tree)
    demos = sorted(DEMOS.glob("*.py"))
    assert demos, f"no demos under {DEMOS}"
    for path in demos:
        used |= _referenced(ast.parse(path.read_text(), filename=str(path)))
    assert [n for n in exported if n not in used] == []


def _private_definitions(tree):
    """The private (_-prefixed, not dunder) names that the module's
    top-level functions, classes and assignments define."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def test_private_definitions_are_used():
    # a private module-level name that the package never reads is dead
    # code, whatever the tests still call
    modules = list(_modules())
    used = set().union(*(_referenced(tree) for _, tree in modules))
    unused = [
        f"{name}: {n}"
        for name, tree in modules for n in _private_definitions(tree) if n not in used
    ]
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


def test_instance_dicts_are_filled_key_by_key():
    # d[key] = value, one key at a time, keeps an instance's dict sharing
    # its key table with the other instances of its class;
    # __dict__.update() builds a table per instance
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "__dict__.update(" in line
    ]
    assert found == []


def _after_import(expression: str, *flags: str) -> str:
    """What a fresh interpreter, run with `flags`, prints for `expression`
    after `import densepde`; `before` holds the modules loaded before
    that import."""
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys; before = set(sys.modules); import densepde; print({expression})"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_numpy():
    assert _after_import("sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')") == "[]"


def test_import_generates_no_code():
    # the package's classes are plain classes: importing it generates no
    # dataclass code, which would load dataclasses and, with them, inspect;
    # files are written without tempfile and samples without csv.  Without
    # the site module (-S) nothing has loaded them before the import.
    unwanted = "{'dataclasses', 'inspect', 'tempfile', 'csv'}"
    loaded = f"sorted({unwanted} & (set(sys.modules) - before))"
    for flags in ((), ("-S",)):
        assert _after_import(loaded, *flags) == "[]", flags

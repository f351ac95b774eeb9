import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import majdet
from majdet import errors, linalg


def test_every_export_resolves():
    missing = [name for name in majdet.__all__ if not hasattr(majdet, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(majdet.__all__)) == len(majdet.__all__)


ROOT = Path(__file__).resolve().parent.parent


def readme_code_words() -> set[str]:
    """The words of the code spans of README.md."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_export_is_documented():
    """Every name of majdet.__all__ appears in a code span of README.md."""
    documented = readme_code_words()
    assert [name for name in majdet.__all__ if name not in documented] == []


def test_every_bound_gufunc_is_documented():
    """Every LAPACK gufunc of numpy.linalg._umath_linalg that majdet.linalg
    binds at module level is named in a code span of README.md."""
    bound = {f.__name__ for f in vars(linalg).values()
             if isinstance(f, np.ufunc) and getattr(_umath_linalg, f.__name__, None) is f}
    assert "cholesky_lo" in bound
    assert sorted(bound - readme_code_words()) == []


def top_level_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def dotted_name(node) -> str:
    """"a.b.c" for a Name or an Attribute chain on a Name; "" otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_no_numpy_linalg_call_in_the_package():
    """The package reaches LAPACK only through linalg's bindings of numpy's
    gufuncs: no call of np.linalg.* or numpy.linalg.*, and no import from
    numpy.linalg besides _umath_linalg."""
    found = []
    for path in sorted((ROOT / "src" / "majdet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name.startswith(("np.linalg.", "numpy.linalg.")):
                    found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name != "_umath_linalg"]
    assert found == []


def except_handlers(node, func="<module>"):
    """(name of the innermost enclosing function, handler) for each except
    handler under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield func, child
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from except_handlers(child, child.name if inner else func)


def test_one_function_reruns_members_on_a_majdet_error():
    """errors.first_error holds the package's only handler of a MajdetError
    that binds no name: the fallback that reruns the members of a stacked
    call. Every other handler of a MajdetError binds it, to report or
    rename it."""
    found = []
    for path in sorted((ROOT / "src" / "majdet").glob("*.py")):
        for func, handler in except_handlers(ast.parse(path.read_text(), filename=str(path))):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if handler.name is None and "MajdetError" in map(dotted_name, caught):
                found.append(f"{path.name}:{func}")
    assert found == ["errors.py:first_error"]


def test_every_error_class_is_used():
    """Every MajdetError subclass in errors.py is named in the code (not in
    an import, a docstring or a comment) of another module of the package:
    a class goes when its last raiser does."""
    used = set()
    for path in sorted((ROOT / "src" / "majdet").glob("*.py")):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    classes = [name for name, value in vars(errors).items() if isinstance(value, type)
               and issubclass(value, errors.MajdetError) and value is not errors.MajdetError]
    assert classes and [name for name in classes if name not in used] == []


def test_every_private_helper_has_a_caller():
    """Every module-level function or class of the package whose name starts
    with a single underscore is named in the package's code (a name, an
    attribute or an import; not a docstring or a comment): a helper goes
    when its last caller does."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "majdet").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [f"{path.name}:{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined and [d for d in defined if d.split(":")[1] not in used] == []


def test_every_third_party_import_is_declared():
    """Every import under src/, tests/ and bench/ is the standard library,
    majdet, a module beside the importing file, or a requirement of
    pyproject.toml (its import name is its distribution name)."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"],
                    *(r for extra in project["optional-dependencies"].values() for r in extra)]
    declared = {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    undeclared = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            local = {p.stem for p in path.parent.glob("*.py")}
            for name in top_level_imports(path) - set(sys.stdlib_module_names) - local:
                if name != "majdet" and name.lower() not in declared:
                    undeclared.setdefault(name, []).append(str(path.relative_to(ROOT)))
    assert undeclared == {}


def test_import_loads_no_numpy_random():
    """import majdet leaves numpy.random unloaded: fuzzing binds its
    seeding classes on first use, so a process that never draws (the CLI's
    check, a library caller of run_check) does not pay for that import."""
    probe = "import sys, majdet; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"

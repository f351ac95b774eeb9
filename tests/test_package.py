import ast
import re
import sys
from pathlib import Path

import pytest

import majdet


def test_every_export_resolves():
    missing = [name for name in majdet.__all__ if not hasattr(majdet, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(majdet.__all__)) == len(majdet.__all__)


ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_documented():
    """Every name of majdet.__all__ appears in a code span of README.md."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    documented = {word for span in spans for word in re.findall(r"\w+", span)}
    assert [name for name in majdet.__all__ if name not in documented] == []


def top_level_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


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

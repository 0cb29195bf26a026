"""Every function, method and class in the package has a caller outside the
tests.

A definition is reached when a module of the package, or a non-test module
of ``perfbench/``, refers to its name (as a bare name, an attribute or an
imported name), when ``teescrow.__all__`` exports it, or when it is the
console-script entry point.  Names are matched alone, not by owner, so the
check can miss dead code but never flags a reached definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

import teescrow

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teescrow"

#: ``[project.scripts]`` in pyproject.toml: ``teescrow = "teescrow.cli:main"``.
ENTRY_POINTS = {("cli", "main")}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def production_modules() -> list[Path]:
    bench = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")
             and path.name != "conftest.py"]
    return sorted(PACKAGE.glob("*.py")) + bench


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def definitions(path: Path):
    """Yield ``(qualified name, name)`` for every def and class in ``path``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                qualname = prefix + child.name
                yield qualname, child.name
                yield from walk(child, qualname + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(_parse(path), "")


def unreached_definitions() -> list[str]:
    reached = referenced_names(production_modules()) | set(teescrow.__all__)
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name in definitions(path):
            dunder = name.startswith("__") and name.endswith("__")
            if (dunder or name in reached
                    or (path.stem, qualname) in ENTRY_POINTS):
                continue
            offenders.append(f"teescrow/{path.name}: {qualname}")
    return offenders


def test_every_definition_has_a_production_caller():
    offenders = unreached_definitions()
    assert not offenders, "no production caller: " + ", ".join(offenders)


def test_scan_sees_package_and_benchmark_modules():
    paths = production_modules()
    assert PACKAGE / "enclave.py" in paths
    assert ROOT / "perfbench" / "run.py" in paths
    assert not any(path.name.startswith("test_") for path in paths)

"""Static checks on the package source, using only the standard library:
no module imports a name it never uses, every name in an ``__all__`` is
defined in its module, every package name the benchmark harness in
``perfbench/`` reaches still exists, and every name the package exports has
a reader.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sosdensity

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sosdensity"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _imported(node) -> list[str]:
    """Names an import statement binds (``__future__`` imports bind none)."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names if a.name != "*"]
    return []


def unused_imports(path: Path) -> list[str]:
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all_names(tree))
    return [name for node in ast.walk(tree) for name in _imported(node) if name not in used]


def undefined_exports(path: Path) -> list[str]:
    tree = _parse(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        defined |= set(_imported(node))
    return [name for name in _all_names(tree) if name not in defined]


def test_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_defined(path):
    assert undefined_exports(path) == []


def perfbench_names() -> tuple[set[str], set[str]]:
    """The ``TRACED`` keys and the dotted ``sd.<name>...`` chains in perfbench/*.py.

    The harness is read as source, never imported.
    """
    traced, used = set(), set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
                traced |= {k.value for k in node.value.keys}
            elif isinstance(node, ast.Attribute):
                parts, base = [node.attr], node.value
                while isinstance(base, ast.Attribute):
                    parts.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id == "sd":
                    used.add(".".join(reversed(parts)))
    return traced, used


def _resolves(dotted: str) -> bool:
    obj = sosdensity
    for part in dotted.split("."):
        if not hasattr(obj, part) and hasattr(obj, "__path__"):
            # a submodule, which the harness imports as ``import sosdensity.<part>``
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_perfbench_names_exist():
    traced, used = perfbench_names()
    assert traced and used
    assert [name for name in sorted(traced | used) if not _resolves(name)] == []


def src_references() -> set[str]:
    """Names and attributes read in the package modules other than
    ``__init__``, each outside the top-level definition of that name."""
    refs = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    refs.add(name)
    return refs


def dead_exports() -> list[str]:
    """Exported names (dunders aside) that no other module, no perfbench/ use
    and no README line reaches."""
    traced, used = perfbench_names()
    reached = src_references() | traced | {dotted.split(".")[0] for dotted in used}
    readme = (ROOT / "README.md").read_text()
    return [
        name
        for name in sosdensity.__all__
        if not name.startswith("__") and name not in reached and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]


def test_no_dead_exports():
    assert dead_exports() == []


def test_one_horner_kernel():
    # the sampler evaluates every polynomial through sampling._horner
    assert "polyval" not in (SRC / "sampling.py").read_text()

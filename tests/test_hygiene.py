"""Static checks on the package source, using only the standard library:
no module imports a name it never uses, every name in an ``__all__`` is
defined in its module, every package name the benchmark harness in
``perfbench/`` reaches still exists, every name the package exports has
a reader, every parameter with a default is passed by some call, and the
CLI solves orders in one loop; and, at run time, that no package attribute
hides a module, that a bound sweep assembles its pencil once and that the
package loads every module it uses at import.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sosdensity

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sosdensity"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree: ast.Module) -> list[str]:
    """The names listed in a module's ``__all__``; an entry ``*m.__all__``
    expands to the literal ``__all__`` of the package module ``m``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names = []
            for elt in node.value.elts:
                if isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Attribute) and elt.value.attr == "__all__":
                    names += _all_names(_parse(SRC / f"{elt.value.value.id}.py"))
                else:
                    names.append(ast.literal_eval(elt))
            return names
    return []


def _star_imported(node) -> list[str]:
    """Names ``from .m import *`` binds: the ``__all__`` of the package module ``m``."""
    if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]:
        return _all_names(_parse(SRC / f"{node.module}.py"))
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
        defined |= set(_imported(node)) | set(_star_imported(node))
    return [name for name in _all_names(tree) if name not in defined]


def test_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_defined(path):
    assert undefined_exports(path) == []


def test_no_attribute_hides_a_module():
    # once sosdensity.<stem> is imported, the package attribute <stem> is that
    # module: no exported name takes a module's name
    modules = {path.stem: importlib.import_module(f"sosdensity.{path.stem}") for path in MODULES if path.stem != "__init__"}
    assert [stem for stem, module in modules.items() if getattr(sosdensity, stem) is not module] == []


def test_no_name_exported_twice():
    # two modules' __all__ never declare the same name
    assert len(set(sosdensity.__all__)) == len(sosdensity.__all__)


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


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/, tests/ and perfbench/, by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call names the parameter, reaches its position, or unpacks."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, call position or None for keyword-only) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method else 0
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def dead_parameters() -> list[str]:
    """Defaulted parameters of package functions that no call passes.

    Calls are matched by function name, and ``__init__`` by its class name."""
    calls = _calls()
    dead = []
    for path in MODULES:
        tree = _parse(path)
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            called = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for name, position in _defaulted(fn, method=cls is not None and not static):
                if not any(_passes(call, name, position) for call in calls.get(called, [])):
                    dead.append(f"{path.stem}.{fn.name}.{name}")
    return dead


def test_no_dead_parameters():
    assert dead_parameters() == []


def test_one_horner_kernel():
    # the sampler evaluates every polynomial through sampling._horner
    assert "polyval" not in (SRC / "sampling.py").read_text()


def test_one_gaussian_ladder():
    # rate convolves per-axis rows (_ladder) and expands no power of
    # ||x - a||^2: it imports neither the polynomial product nor a per-term
    # moment sum; the mass bracket and the certificate read the one kernel,
    # the certificate forms no H, and the kernel takes one path on every
    # domain: it reads no domain kind
    tree = _parse(SRC / "rate.py")

    def names(node):
        return [getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)]

    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert {"_mul_nums", "_moment_sum"}.isdisjoint(imported)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    callers = {name for name, fn in functions.items() if "_ladder" in names(fn) and name != "_ladder"}
    assert callers == {"_taylor_enclosure", "certificate"}
    assert {"taylor_density", "integrate_poly", "integrate_poly_exact"}.isdisjoint(names(functions["certificate"]))
    assert "kind" not in names(functions["_ladder"])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_streams_without_numpy_random(path):
    # the sampler computes numpy's streams itself (_pcg64), and no other
    # module draws a random number
    text = path.read_text()
    assert "np.random" not in text and "numpy.random" not in text


def test_one_sweep_loop_in_the_cli():
    # bound and bench take their rows from one loop: one function solves
    # orders on a pencil, and the library's sweep is not imported
    tree = _parse(SRC / "cli.py")
    solvers = [
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        if any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "solve" for n in ast.walk(fn))
    ]
    assert solvers == ["_solve_orders"]
    assert "bound_sweep" not in {name for node in ast.walk(tree) for name in _imported(node)}


def test_a_sweep_assembles_once(monkeypatch, capsys):
    # a sweep assembles its top order and solves every order on a leading block
    from sosdensity import bounds, cli, golden

    orders = []
    original = bounds.assemble_AB

    def counted(f, dom, r, *args, **kwargs):
        orders.append(r)
        return original(f, dom, r, *args, **kwargs)

    monkeypatch.setattr(bounds, "assemble_AB", counted)
    tc = sosdensity.get("motzkin")
    assert len(bounds.bound_sweep(tc.f, tc.domain, 8)) == 8
    assert orders == [8]
    orders.clear()
    assert cli.main(["bound", "--fn", "motzkin", "--r", "1..6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert orders == [6]
    orders.clear()
    assert cli.main(["bench"]) == 0
    blocks = [golden.TABLE_BOX_ASSERT_MAX_R] * len(golden.TABLE_BOX) + [10] * len(golden.TABLE_SB)
    assert orders == blocks + [golden.TABLE_N10_ASSERT_MAX_R] * len(golden.TABLE_N10)


# Run in a fresh interpreter: prints the heavy modules that importing the CLI
# loaded, the modules that a sweep, a draw and a simplex certificate added,
# and whether scipy.linalg, imported after all that, has its _flapack.
_FRESH = """
import json, sys
import sosdensity.cli
import sosdensity as sd
heavy = ["scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma", "numpy.polynomial", "numpy.random"]
at_import = [name for name in heavy if name in sys.modules]
before = set(sys.modules)
tc = sd.get("motzkin")
results = sd.bound_sweep(tc.f, tc.domain, 4)
sd.sample(sd.build_chain(results[-1].density, tc.domain), 10, seed=0)
tc = sd.get("three-hump-camel-modified-s")
sd.certificate(tc.f, tc.domain, tc.minimizers[0], 1, tc.f_min)
added = sorted(set(sys.modules) - before)
import scipy.linalg
print(json.dumps([sd.__file__, at_import, added, hasattr(scipy.linalg, "_flapack")]))
"""


def test_imports_happen_at_start_up():
    # scipy's LAPACK is loaded without scipy.linalg, whose import pulls in
    # numpy's f2py, testing, ma and polynomial; nothing loads numpy.random;
    # no call imports a module late, so the first call of a process costs
    # what later ones do
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FRESH], env=env, capture_output=True, text=True, check=True).stdout
    origin, at_import, added, scipy_whole = json.loads(out.splitlines()[-1])
    assert Path(origin).resolve().is_relative_to(SRC)
    assert at_import == []
    assert added == []
    assert scipy_whole

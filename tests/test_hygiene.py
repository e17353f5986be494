"""Static checks on the package source, using only the standard library:
no module imports a name it never uses, every name in an ``__all__`` is
defined in its module, every package name the benchmark harness in
``perfbench/`` reaches still exists, every name the package exports has
a reader, every private helper has a caller in the package, every
parameter with a default is passed by some call, the CLI solves orders in
one loop, the sampler states each coordinate's range in one function, one
function states the rule for scalar integer arguments, one loop of the
polynomials multiplies every pair of terms of two maps and every text-mode ``open``, ``read_text`` and ``write_text`` of the package and
its tests names its encoding; and, at run time, that no
package attribute hides a module, that a bound sweep assembles and equilibrates
its pencil once and solves each order once, that an exact integral builds
no intermediate polynomial, and that the
package loads every module it uses at import.
"""

import ast
import importlib
import json
import math
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
TESTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/tests/*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        name
        for name in sosdensity.__all__
        if not name.startswith("__") and name not in reached and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]


def test_no_dead_exports():
    assert dead_exports() == []


def dead_private_helpers() -> list[str]:
    """Private top-level functions and classes that no other definition in
    the package reads."""
    refs = src_references()
    return [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__") and node.name not in refs
    ]


def test_no_dead_private_helpers():
    assert dead_private_helpers() == []


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
    assert "polyval" not in (SRC / "sampling.py").read_text(encoding="utf-8")


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


def test_one_statement_of_the_sampling_range():
    # each coordinate's range, and the refusal of a domain without a
    # polynomial one, come from sampling._sides; the CLI asks it, not the kind
    readers = {
        node.name for node in _parse(SRC / "sampling.py").body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        if any(isinstance(n, ast.Attribute) and n.attr in ("kind", "bounds") for n in ast.walk(node))
    }
    assert readers == {"_sides"}
    assert not any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(_parse(SRC / "cli.py")))


def _text_opens_without_encoding(path: Path) -> list[int]:
    """Lines of the built-in ``open`` calls in text mode, of the path
    ``read_text`` and ``write_text`` calls, of numpy ``loadtxt`` and of the
    calls with a ``text`` keyword (subprocess's) that name no encoding; a mode
    that is not a literal counts as text."""
    lines = []
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        if getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            text = not (isinstance(mode, ast.Constant) and "b" in mode.value) and len(node.args) < 4
        else:  # the encoding is read_text's first argument, write_text's second and loadtxt's tenth
            slots = {"read_text": 0, "write_text": 1, "loadtxt": 8}.get(getattr(node.func, "attr", None), -1)
            text = len(node.args) <= slots or any(k.arg == "text" for k in node.keywords)
        if text:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_text_files_name_their_encoding(path):
    # the locale's encoding would make the CSV and reports depend on the
    # host, and the tests read them back in the encoding they were written in
    assert _text_opens_without_encoding(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_streams_without_numpy_random(path):
    # the sampler computes numpy's streams itself (_pcg64), and no other
    # module draws a random number
    text = path.read_text(encoding="utf-8")
    assert "np.random" not in text and "numpy.random" not in text


def _where(tree: ast.Module, module: str, hit) -> set[str]:
    """Qualified names of the functions (or the module) holding a node for which hit is true."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                if hit(child):
                    found.add(scope)
                visit(child, scope)

    visit(tree, module)
    return found


def test_one_integer_rule():
    # every scalar order, dimension, degree, count and seed goes through
    # polynomials._integer; operator.index is read elsewhere only by the
    # per-entry parsers of exponent tuples and multi-indices, and no other
    # module tells a bool from an int
    def reads_index(node):
        return (isinstance(node, ast.Name) and node.id == "index") or (
            isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator")

    def asks_bool(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(getattr(k, "id", None) == "bool" for k in kinds)

    index_readers, bool_askers = set(), set()
    for path in MODULES:
        tree = _parse(path)
        index_readers |= _where(tree, path.stem, reads_index)
        bool_askers |= {scope.split(".")[0] for scope in _where(tree, path.stem, asks_bool)}
    assert index_readers == {"polynomials._integer", "polynomials.Polynomial.__init__", "moments._check_alpha"}
    assert bool_askers == {"polynomials"}
    assert not hasattr(importlib.import_module("sosdensity.bounds"), "_order")


def _pairwise_loops(tree: ast.Module, module: str) -> set[str]:
    """Functions holding a loop over every pair of two collections: a for loop
    inside another whose iterable reads no name the outer loop binds, or a
    comprehension generator whose iterable reads no name an earlier one binds."""

    def reads(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def binds(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}

    def pairwise(node):
        if isinstance(node, ast.For):
            inner = [n for n in ast.walk(node) if isinstance(n, ast.For) and n is not node]
            return any(not reads(n.iter) & binds(node) for n in inner)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            gens = node.generators
            return any(not reads(g.iter) & set().union(*(binds(e.target) for e in gens[:j])) for j, g in enumerate(gens) if j)
        return False

    return _where(tree, module, pairwise)


def test_one_pairwise_product_loop():
    # exact products, ladders and powers multiply pairs of terms in
    # polynomials._mul_nums alone; the substitution adds each term's ladder
    # row to one running sum, and evaluation loops over each term's own entries
    assert _pairwise_loops(_parse(SRC / "polynomials.py"), "polynomials") == {"polynomials._mul_nums"}
    # the check tells a loop over pairs from a loop over each item's own entries
    sample = ast.parse(
        "def pairs(p, q):\n    for a in p:\n        b = a\n        for c in q:\n            yield b * c\n"
        "def rows(p):\n    for e in p:\n        k = len(e)\n        for x in e[:k]:\n            yield x\n"
        "def grid(p, q):\n    return [a * b for a in p for b in q]\n"
        "def flat(p):\n    return [x for e in p for x in e]\n"
    )
    assert _pairwise_loops(sample, "m") == {"m.pairs", "m.grid"}


def test_exact_integral_builds_no_intermediate_polynomial(monkeypatch):
    # definite_integrate calls neither antiderivative nor substitute_var,
    # negates and subtracts no Polynomial, and builds one Polynomial: its result
    from sosdensity.polynomials import Polynomial, parse_polynomial

    tree = _parse(SRC / "polynomials.py")
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Polynomial")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "definite_integrate")
    called = {getattr(n.func, "attr", None) or getattr(n.func, "id", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}
    assert {"antiderivative", "substitute_var"}.isdisjoint(called)
    assert not any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub) for n in ast.walk(fn))

    p = parse_polynomial("x1^3*x2^2 - x1*x2 + 2*x2^4 + x3", 3)
    lower, upper = parse_polynomial("x1 - 1/3", 3), parse_polynomial("1 - x1 + x3/7", 3)
    want = p.definite_integrate(1, lower, upper)

    def refused(*args):
        raise AssertionError("definite_integrate went through an intermediate Polynomial")

    for name in ("antiderivative", "substitute_var", "__neg__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Polynomial, name, refused)
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    assert p.definite_integrate(1, lower, upper) == want
    assert len(built) == 1


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
    # a sweep assembles and equilibrates its top order once, and solves every
    # order on a leading block with one eigensolve
    from sosdensity import bounds, cli, golden

    calls = {"assemble_AB": [], "_equilibrate": [], "smallest_generalized_eigenpair": []}

    def counted(name):
        original = getattr(bounds, name)

        def call(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name].append(len(result[2]) if name == "assemble_AB" else len(args[0]))
            return result

        monkeypatch.setattr(bounds, name, call)

    for name in calls:
        counted(name)

    def orders(n, top):
        return [math.comb(n + r, r) for r in range(1, top + 1)]

    def check(pencils, solved):
        assert calls["assemble_AB"] == calls["_equilibrate"] == pencils
        assert calls["smallest_generalized_eigenpair"] == solved
        for made in calls.values():
            made.clear()

    tc = sosdensity.get("motzkin")
    assert len(bounds.bound_sweep(tc.f, tc.domain, 8)) == 8
    check([45], orders(2, 8))
    assert cli.main(["bound", "--fn", "motzkin", "--r", "1..6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7
    check([28], orders(2, 6))
    assert cli.main(["bench"]) == 0
    tops = [golden.TABLE_BOX_ASSERT_MAX_R] * len(golden.TABLE_BOX) + [10] * len(golden.TABLE_SB)
    golden_solved = [m for top in tops for m in orders(2, top)]
    assert len(golden_solved) == 88
    n10 = [golden.TABLE_N10_ASSERT_MAX_R] * len(golden.TABLE_N10)
    check([math.comb(2 + top, top) for top in tops] + [math.comb(10 + top, top) for top in n10],
          golden_solved + [m for top in n10 for m in orders(10, top)])


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
    out = subprocess.run([sys.executable, "-c", _FRESH], env=env, capture_output=True, text=True,
                         encoding="utf-8", check=True).stdout
    origin, at_import, added, scipy_whole = json.loads(out.splitlines()[-1])
    assert Path(origin).resolve().is_relative_to(SRC)
    assert at_import == []
    assert added == []
    assert scipy_whole


def test_mass_bracket_builds_no_fraction_per_rung(monkeypatch):
    # the Taylor bracket sums integers over one denominator: the Fractions
    # rate's own code builds in gaussian_mass (directly or through Fraction
    # arithmetic) are as many at a ladder of order 9 as at one of order 41
    from fractions import Fraction

    from sosdensity import rate
    from sosdensity.moments import Domain

    new = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") == "fractions":
            frame = frame.f_back
        built.append(frame.f_globals.get("__name__") == "sosdensity.rate")
        return new(cls, *args, **kwargs)

    dom = Domain.simplex(1)
    counts = []
    for sigma, K in ((0.82, 9), (0.24, 41)):
        assert rate._ladder_order(dom, [0.0], sigma) == K
        monkeypatch.setattr(Fraction, "__new__", counted)
        built.clear()
        rate.gaussian_mass(dom, [0.0], sigma)
        monkeypatch.undo()
        counts.append(sum(built))
    assert counts[0] == counts[1]

"""Source hygiene: no module under src/cqf imports a name it never uses, or
anything beyond the standard library and numpy, or catches every
exception, or has a function that changes module-level state; only the
algebra builds expressions from raw accumulation maps, and every function
the benchmark's tracer hooks still exists and keeps the call shape the
tracer relies on.

Package ``__init__.py`` files are skipped, since their imports are the
re-exports.  A name counts as used wherever it is read, including as the
base of an attribute access and in an annotation (also a quoted one).
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "cqf")
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "perfbench", "tracer.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = _used(tree)
    return [f"{lineno}: {name}" for lineno, name in _imported(tree) if name not in used]


def test_no_unused_imports():
    found = {}
    for folder, _, files in os.walk(ROOT):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(folder, name)
                unused = _unused_imports(path)
                if unused:
                    found[os.path.relpath(path, ROOT)] = unused
    assert not found, f"unused imports: {found}"


def _third_party_imports(path):
    """Top-level modules imported from outside the package and the standard
    library."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name.partition(".")[0] for name in names}
                  - set(sys.stdlib_module_names) - {"cqf"})


def test_the_package_needs_only_numpy():
    """pyproject.toml declares numpy as the one dependency; SciPy may serve
    the tests, never the package."""
    found = {}
    for folder, _, files in os.walk(ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                outside = [m for m in _third_party_imports(path) if m != "numpy"]
                if outside:
                    found[os.path.relpath(path, ROOT)] = outside
    assert not found, f"imports beyond the standard library and numpy: {found}"


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "..", "..", "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.partition(">")[0] for dep in project["dependencies"]] \
        == ["numpy"]


def test_import_scan_sees_absolute_imports_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os.path, scipy.linalg\n"
        "from numpy import linalg\n"
        "from .steppers import expm\n"
        "from cqf.errors import CqfError\n"
        "def f():\n    import sympy\n",
        encoding="utf-8")
    assert _third_party_imports(path) == ["numpy", "scipy", "sympy"]


def _catch_alls(path):
    """Handlers that catch any exception: bare, Exception or BaseException."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None
                 or any(isinstance(name, ast.Name)
                        and name.id in ("Exception", "BaseException")
                        for name in ast.walk(node.type)))]


def test_no_catch_all_handlers():
    """A catch-all turns a bug into whatever error it re-raises; each
    handler names the errors it expects."""
    found = {}
    for folder, _, files in os.walk(ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                lines = _catch_alls(path)
                if lines:
                    found[os.path.relpath(path, ROOT)] = lines
    assert not found, f"catch-all exception handlers: {found}"


_MUTATORS = ("append", "update", "setdefault")


def _module_state_changes(path):
    """Lines of functions that use ``global``, or change a name bound at
    module level in place: ``NAME[...] = ...``, or a call of its
    ``append``, ``update`` or ``setdefault``.  A name the function binds
    itself, or takes as a parameter, is its own."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    module = {name.id for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for target in getattr(node, "targets", [getattr(node, "target", None)])
              for name in ast.walk(target) if isinstance(name, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        own = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
               + [args.vararg, args.kwarg] if arg is not None}
        own |= {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        shared = module - own
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                base = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                base = node.func.value
            else:
                if isinstance(node, ast.Global):
                    found.add(node.lineno)
                continue
            if isinstance(base, ast.Name) and base.id in shared:
                found.add(node.lineno)
    return sorted(found)


def test_no_function_changes_module_state():
    """State belongs to the object that callers create and pass; a
    module-level table a function fills is shared by every caller in the
    process."""
    found = {}
    for folder, _, files in os.walk(ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                lines = _module_state_changes(path)
                if lines:
                    found[os.path.relpath(path, ROOT)] = lines
    assert not found, f"functions that change module-level state: {found}"


def test_module_state_scan_sees_global_items_and_mutators(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "CACHE = {}\nSEEN: list = []\nCACHE['ok'] = 1\n"
        "def f(x):\n    global COUNT\n    CACHE[x] = 1\n"
        "    SEEN.append(x)\n    CACHE.update({})\n"
        "    return CACHE.setdefault(x, 0)\n"
        "def g(CACHE):\n    CACHE[0] = 1\n"
        "def h():\n    SEEN = []\n    SEEN.append(1)\n    return CACHE.get(0)\n"
        "k = lambda: SEEN.append(2)\n",
        encoding="utf-8")
    assert _module_state_changes(path) == [5, 6, 7, 8, 9, 16]


def test_normal_form_stays_in_the_algebra():
    """Only the scalar and operator modules build expressions from raw
    accumulation maps; every other module goes through their public API."""
    owners = {os.path.join("algebra", "scalars.py"),
              os.path.join("algebra", "qexpr.py")}
    found = []
    for folder, _, files in os.walk(ROOT):
        for name in sorted(files):
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, ROOT)
            if name.endswith(".py") and rel not in owners:
                with open(path, encoding="utf-8") as fh:
                    if "_from_dict" in fh.read():
                        found.append(rel)
    assert not found, f"modules that reference _from_dict: {found}"


def test_catch_all_scan_sees_bare_and_tuple_handlers(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, Exception):\n    pass\n"
        "try:\n    pass\nexcept KeyError:\n    pass\n",
        encoding="utf-8")
    assert _catch_alls(path) == [3, 7]


def test_scan_sees_annotations_and_attribute_bases(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import B, C, D, E\n"
        "def f(x: B) -> 'C':\n"
        "    return os.path.join(x)\n",
        encoding="utf-8")
    assert _unused_imports(path) == ["3: D", "3: E"]


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)   # for its dataclasses
    spec.loader.exec_module(tracer)
    return tracer


def _hook_target(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_benchmark_hook_resolves(monkeypatch):
    """A hook whose target is gone turns its per-layer metrics to null in
    traced benchmark runs, so each (module, attribute) must resolve."""
    missing = [f"{module_name}.{attr}"
               for module_name, attr, _, _ in _tracer(monkeypatch).HOOKS
               if not callable(_hook_target(module_name, attr))]
    assert not missing, f"benchmark hooks without a target: {missing}"


def test_rhs_hooks_keep_their_call_shape(monkeypatch):
    """The tracer hands an "rhs" hook's target a counting wrapper in place
    of its first positional argument, and takes an ``integrate`` call with
    fewer than six positional arguments to carry no layout.  So the
    derivative stays the first parameter of ``integrate`` and
    ``steady_state``, and ``layout`` the sixth of ``integrate``."""
    shapes = {}
    for module_name, attr, name, kind in _tracer(monkeypatch).HOOKS:
        if kind == "rhs":
            params = list(inspect.signature(
                _hook_target(module_name, attr)).parameters)
            shapes[f"{module_name}.{attr}"] = params
            assert params[0] == "f", (module_name, attr, params)
            if name.endswith("integrate"):
                assert params[5] == "layout", (module_name, attr, params)
    assert any(key.endswith(".integrate") for key in shapes)
    assert any(key.endswith(".steady_state") for key in shapes)

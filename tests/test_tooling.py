"""The benchmark's layer tracer names package functions by string; a span
name that no longer resolves (a renamed or unexported check) is never
wrapped, and its per-layer metric silently reads 0.  README's catalog table
is checked against the catalog the same way.  The tracer counts memo hits
and misses by wrapping ``Doctrine.cached``, so no other code may touch a
memo dict.  Every private function of the package is called from the
package, so none is kept alive by tests alone.  The layer script under
``tools/`` runs once on the smallest catalog id, so that it keeps
working.  No module of the package loads ``hashlib`` and, through it,
OpenSSL."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from doctrinelab import catalog

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / "src" / "doctrinelab").glob("*.py"))}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # the tracer imports only the standard library
    return mod


def _resolves(name: str, tracing) -> bool:
    """Does the tracer record spans named ``name``?  A method entry must
    name a function; any other name a function in its traced module's
    ``__all__``, which is what the tracer wraps; "module." selects every
    span of a traced module."""
    if name == tracing.IMPORT_SPAN:
        return True
    methods = {".".join(p for p in entry if p): entry for entry in tracing.METHODS}
    if name in methods:
        m, cls, attr = methods[name]
        owner = importlib.import_module(f"doctrinelab.{m}")
        fn = getattr(getattr(owner, cls, None) if cls else owner, attr, None)
        return inspect.isfunction(fn)
    m, _, attr = name.partition(".")
    if m not in tracing.MODULES:
        return False
    mod = importlib.import_module(f"doctrinelab.{m}")
    return not attr or (attr in mod.__all__ and (m, attr) not in tracing.UNWRAPPED
                        and inspect.isfunction(getattr(mod, attr, None)))


def test_every_traced_span_name_resolves_to_a_function():
    tracing = _tracing()
    names = {n for group in tracing.SELF_TIME_GROUPS.values() for n in group}
    names |= {".".join(p for p in entry if p) for entry in tracing.METHODS}
    assert len(names) > len(tracing.MODULES)
    assert [n for n in sorted(names) if not _resolves(n, tracing)] == []


def test_the_guard_sees_a_renamed_check():
    tracing = _tracing()
    assert _resolves("logic.find_equality", tracing)
    assert not _resolves("logic.no_such_check", tracing)
    assert not _resolves("logic._equality", tracing)  # a function, not exported
    assert not _resolves("ioformat.serialize", tracing)  # exported, never wrapped
    assert not _resolves("theorems.FilterExpr.no_such", tracing)
    assert not _resolves("nomodule.", tracing)


def test_every_traced_generator_is_a_generator_function():
    # the tracer times a generator only around each next() on what the call
    # returns, so the work a plain function does before returning an
    # iterator (or a list) would fall outside every span
    tracing = _tracing()
    assert tracing.GENERATORS
    for m, name in sorted(tracing.GENERATORS):
        fn = getattr(importlib.import_module(f"doctrinelab.{m}"), name)
        assert inspect.isgeneratorfunction(fn), f"{m}.{name}"


def _wraps(wrapper, fn) -> bool:
    """Is ``wrapper`` a wrapper (of a wrapper ...) around ``fn``?"""
    while wrapper is not fn:
        wrapper = getattr(wrapper, "__wrapped__", None)
        if wrapper is None:
            return False
    return True


def test_the_tracer_reaches_the_theorem_registry():
    # the tracer rebuilds tuples around its wrappers but does not look
    # inside a plain class, so a registry of class instances goes untraced
    tracing = _tracing()
    theorems = importlib.import_module("doctrinelab.theorems")
    before = dict(theorems.REGISTRY)

    def checks(registry):
        return [fn for entry in registry.values()
                for fn in (*(fn for _, fn in entry[2]), entry[4])]

    def exported(fn) -> bool:
        mod = sys.modules[fn.__module__]
        return (mod.__name__.removeprefix("doctrinelab.") in tracing.MODULES
                and fn.__name__ in mod.__all__
                and getattr(mod, fn.__name__) is fn)

    originals = checks(before)
    traced = [exported(fn) for fn in originals]
    assert sum(traced) >= 10
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = checks(theorems.REGISTRY)
    finally:
        tracer.uninstall()
    missed = [old.__name__ for fn, old, t in zip(wrapped, originals, traced)
              if ((fn is old or not _wraps(fn, old)) if t else fn is not old)]
    assert missed == []
    assert all(theorems.REGISTRY[tid] is entry for tid, entry in before.items())
    assert checks(theorems.REGISTRY) == originals


def test_readme_catalog_table_lists_the_catalog_in_order():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Catalog instances\n\n", 1)[1].split("\n\n", 1)[0]
    ids = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    assert ids == list(catalog.CATALOG)


def _memo_uses(source: str) -> list[tuple[int, str]]:
    """``(line, function)`` of each use of a memo dict, an attribute or a
    string ``_cache``, other than creating it empty in ``__init__``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (func == "__init__" and isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Dict) and not node.value.keys):
            return
        if ((isinstance(node, ast.Attribute) and node.attr == "_cache")
                or (isinstance(node, ast.Constant) and node.value == "_cache")):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)
    visit(ast.parse(source), None)
    return found


def _outside_cached(source: str) -> list[tuple[int, str]]:
    return [use for use in _memo_uses(source) if use[1] != "cached"]


def test_only_the_cached_methods_touch_a_memo():
    sources = _package_sources()
    assert {name: _outside_cached(text) for name, text in sources.items()
            if _outside_cached(text)} == {}
    owners = sorted(name for name, text in sources.items() if _memo_uses(text))
    assert owners == ["doctrine.py", "fincat.py"]


def test_the_memo_gate_sees_a_fast_path_around_cached():
    source = (ROOT / "src" / "doctrinelab" / "fincat.py").read_text(
        encoding="utf-8")
    fast_path = source.replace(
        "    def call(owner, *args):\n",
        "    def call(owner, *args):\n"
        "        got = owner._cache.get((fn, *args), _MISSING)\n"
        "        if got is not _MISSING:\n"
        "            return got\n")
    assert fast_path != source
    assert _outside_cached(source) == []
    assert [func for _, func in _outside_cached(fast_path)] == ["call"]


def _orphans(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function or method named with
    one leading underscore that no code in ``sources`` outside its own body
    names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) else None)
            if used is not None:
                uses.setdefault(used, []).append(node)
    found = []
    for name, tree in trees.items():
        for top in tree.body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.name.startswith("_")
                        and not fn.name.startswith("__")):
                    inside = set(map(id, ast.walk(fn)))
                    if all(id(use) in inside for use in uses.get(fn.name, [])):
                        found.append(f"{name.removesuffix('.py')}.{fn.name}")
    return found


def test_every_private_function_is_used():
    assert _orphans(_package_sources()) == []


def test_the_orphan_gate_sees_a_helper_nothing_calls():
    sources = _package_sources()
    # a recursive helper names itself, and a method only its own class
    sources["poset.py"] += (
        "\n\ndef _helper(n):\n    return n if n < 2 else _helper(n - 1)\n"
        "\n\nclass _Holder:\n    def _unused(self):\n"
        "        return _Holder\n")
    assert _orphans(sources) == ["poset._helper", "poset._unused"]


def test_the_layer_script_runs_on_one_catalog_id():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "catalog_layers.py"), "TRIV",
         "--repeat", "1"], capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == ("medians of 1 fresh processes; times in ms, "
                        "peak RSS in MB")
    assert lines[1].split() == ["id", "largest", "fiber", "close", "build",
                                "base.validate", "validate_doctrine", "meet",
                                "implication"]
    layers = lines[2].split()
    assert layers[:3] == ["TRIV", "S0", "(1)"] and len(layers) == 9
    assert lines[3].split()[1:5] == ["validate", "ms", "validate", "MB"]
    commands = lines[4].split()
    assert commands[0] == "TRIV" and len(commands) == 9
    assert all(float(ms) > 0 for ms in commands[1::2])
    # a fresh interpreter holds several MB before it imports the package
    assert all(float(mb) > 5 for mb in commands[2::2])
    floor = re.fullmatch(r"import floor (\d+\.\d\d) MB: python -c "
                         r"'import doctrinelab\.cli'; interpreter "
                         r"(\d+\.\d\d) MB: python -c 'pass'", lines[5])
    assert floor and len(lines) == 6
    # the package adds to the interpreter's peak, which the script's own
    # larger peak would hide if it were the measured processes' parent
    imported, bare = map(float, floor.groups())
    assert imported > bare > 5


def test_the_window_sweep_runs_on_a_small_slice():
    # U alone, then PS(1,0), PS(1,1) and PS(1,2), the last past the limit
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "window_limits.py"),
         "--points", "1", "--sets", "1"],
        capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "built 3, refused 1" and len(lines) == 5
    assert re.fullmatch(r"content digest [0-9a-f]{64}", lines[1])
    assert re.fullmatch(r"slowest build \d+\.\d ms: (\{1:0,1\}|PS\(1,[01]\))",
                        lines[2])
    assert re.fullmatch(r"slowest refusal \d+\.\d ms: PS\(1,2\)", lines[3])
    assert lines[4] == "largest fiber 16: PS(1,1)"


# the modules that importing the whole package and hashing one instance load
LOADED = """
import sys
import doctrinelab.cli, doctrinelab.constructions, doctrinelab.recheck
import doctrinelab.theorems
from doctrinelab import catalog, ioformat
ioformat.instance_hash(catalog.instance("TRIV"))
print(*sorted(sys.modules))
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(name)
                            for name in ("_sha2", "_sha256")),
                    reason="no built-in sha256 module")
def test_the_package_never_loads_openssl():
    r = subprocess.run([sys.executable, "-c", LOADED], capture_output=True,
                       text=True, env={**os.environ,
                                       "PYTHONPATH": str(ROOT / "src")})
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "doctrinelab.recheck" in loaded
    assert loaded & {"hashlib", "_hashlib", "_ssl"} == set()

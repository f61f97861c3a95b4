"""emalg has no runtime dependencies: the project declares none, and the
package imports nothing but itself and the standard library.  Its
process-wide caches are declared here, and each is keyed by values.  Only
``algebra.py`` reads an algebra's integer storage, only the modules at the
label boundary read its label views, only ``core.py`` reads label pairs
into up-set rows, only the law battery reads orders by labels or forks a
process, no module imports a process or thread library, and every
definition has a reader in the package."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def imported_modules(tree: ast.AST):
    """The top-level name of every module an ``import`` statement names,
    or None for a relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.split(".")[0]


def package_sources() -> list:
    return sorted((ROOT / "src" / "emalg").rglob("*.py"))


def test_the_package_imports_only_itself_and_the_standard_library():
    sources = package_sources()
    assert len(sources) > 10
    for path in sources:
        for name in imported_modules(ast.parse(path.read_text(), str(path))):
            assert name in (None, "emalg") or name in sys.stdlib_module_names, (path.name, name)


# The functions memoised for the life of the process.  Each is keyed by
# values (letters, ranks, lengths, text, element-index layouts), never by an
# algebra: what is derived from an algebra is memoised on the algebra
# (``algebra._per_algebra``) and lives as long as it does.
VALUE_KEYED_CACHES = {
    "logic._codes",
    "logic._theory_outcome",
    "algebra._layouts",
    "monads._var_tuple",
    "profinite._parsed_library",
    "cli._parser",
}


def _names_a_cache(node: ast.AST) -> bool:
    """Whether ``node`` is ``functools.lru_cache``, ``functools.cache`` or
    one of the two imported by name."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "functools" and node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def test_every_process_wide_cache_is_declared():
    found, uses = set(), 0
    for path in package_sources():
        tree = ast.parse(path.read_text(), str(path))
        uses += sum(map(_names_a_cache, ast.walk(tree)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _names_a_cache(deco.func if isinstance(deco, ast.Call) else deco):
                        found.add(f"{path.stem}.{node.name}")
    # a cache made by a call outside a decorator would escape the list
    assert uses == len(found)
    assert found == VALUE_KEYED_CACHES


def test_only_the_algebra_module_reads_the_integer_storage():
    """An algebra's integer tables (``_coded``) are read in ``algebra.py``
    alone; other modules go through its accessors."""
    readers = set()
    for path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_coded":
                readers.add(path.name)
    assert readers == {"algebra.py"}


def test_only_the_boundary_modules_read_the_label_views():
    """An algebra's label views (``tables`` and its keyword shapes) are
    read where labels are written or shown: ``algebra`` (which decodes
    them), ``algio``, ``cli``, and the law battery, whose own checks stay on
    labels so that they do not check the integer path with itself.  Every
    other module computes over the integer tables."""
    views = ("tables", "mult", "dot", "mix", "omega", "comp")
    readers = set()
    for path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in views:
                readers.add(path.stem)
    assert "algebra" in readers
    assert readers <= {"algebra", "algio", "cli", "lawsuite"}


def test_only_the_core_module_reads_label_pairs_into_rows():
    """``core._rows_of`` turns label pairs into up-set rows for the label
    constructors; every other module builds its carriers and preorders
    from rows, so only ``core.py`` names it."""
    readers = set()
    for path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a name, an attribute, an imported name or a definition
            if "_rows_of" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                readers.add(path.name)
    assert readers == {"core.py"}


def test_only_the_law_battery_reads_the_label_order():
    """Orders and maps are tested over up-set rows and index arrays
    (``core._unordered`` for maps), so no module reads a carrier's or a
    preorder's order by labels (``leq``, ``holds``, ``leq_pairs``,
    ``pairs``) but the law battery, whose checks stay on labels on purpose,
    and ``Preorder.__repr__``, which prints the pairs; the four stay for
    library callers."""
    order_reads = ("leq", "holds", "leq_pairs", "pairs")
    readers = set()
    for path in package_sources():
        for top in ast.parse(path.read_text(), str(path)).body:
            # a method is named by its class too
            for member in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(member, "name", "")
                if member is not top:
                    name = f"{top.name}.{name}"
                for node in ast.walk(member):
                    if isinstance(node, ast.Attribute) and node.attr in order_reads and isinstance(node.ctx, ast.Load):
                        readers.add(f"{path.stem}.{name}")
    assert {r for r in readers if not r.startswith("lawsuite.")} == {"core.Preorder.__repr__"}
    assert any(r.startswith("lawsuite.") for r in readers)


def test_only_the_law_battery_module_forks():
    """``lawsuite.run_all`` forks one worker for the monad-law check; no
    other module starts a process."""
    forkers = set()
    for path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # ``os.fork``, or ``fork`` imported or read by name
            if "fork" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                forkers.add(path.name)
    assert forkers == {"lawsuite.py"}


def test_no_module_imports_a_process_or_thread_library():
    """Each of these, imported, was measured to raise the peak memory of
    ``emalg laws``; its worker is a bare ``os.fork`` and sends its result
    with ``marshal``."""
    for path in package_sources():
        names = set(imported_modules(ast.parse(path.read_text(), str(path))))
        assert not names & {"multiprocessing", "concurrent", "pickle", "threading"}, path.name


# Definitions that no code in ``src/`` reads but that stay: the library
# entries, and the functions perfbench's tracer wraps (it raises when one
# is missing).  A method is named by its class, a top-level definition by
# its module.
LIBRARY_ENTRIES = {
    "FinAlgebra.comp_value",
    "FinAlgebra.omega",
    "FinAlgebra.comp",
    "algebra.morphism",
    "Recognizer.accepts",
    "SyntacticResult.accepts",
    "Dfa.accepts",
    "SortedOrderedSet.chain",
    "algio.dfa_to_text",
    "DividesWitness.verify",
}
TRACED_ENTRIES = {"syntactic.saturate_all", "syntactic.generated_pairs"}


def _reads(trees: dict):
    """Every name read in the package: (kind, name, node) for each loaded
    ``Name`` ("name"), each name an ``import`` brings in ("name") and each
    loaded attribute ("attr")."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield "name", node.id, node
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield "attr", node.attr, node
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield "name", alias.name.split(".")[-1], alias


def _definitions(trees: dict):
    """(entry, kind of read it needs, node) for every top-level function
    and class, and every method and property of a top-level class but the
    dunders, which Python calls itself."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs):
                yield f"{module}.{node.name}", "name", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs[:2]) and not member.name.startswith("__"):
                        yield f"{node.name}.{member.name}", "attr", member


def test_every_definition_has_a_reader_in_the_package():
    """A top-level function or class needs its name read, or imported,
    outside its own body; a method or property needs an attribute of its
    name read somewhere in ``src/`` outside its own body.  Anything in
    ``emalg.__all__`` and the entries listed above pass.

    The test works by name, not by binding: a definition that shares its
    name with something read elsewhere escapes it (a method named ``leq``
    on a class nothing calls it on would pass through ``carrier.leq``)."""
    import emalg

    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package_sources()}
    readers: dict = {}
    for kind, name, node in _reads(trees):
        readers.setdefault((kind, name), []).append(node)
    unread = []
    for entry, kind, node in _definitions(trees):
        if node.name in emalg.__all__ and kind == "name":
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(id(r) not in inside for r in readers.get((kind, node.name), ())):
            unread.append(entry)
    assert sorted(set(unread) - LIBRARY_ENTRIES - TRACED_ENTRIES) == []
    # an entry that gained a reader, or went, leaves the lists
    assert LIBRARY_ENTRIES | TRACED_ENTRIES <= set(unread)

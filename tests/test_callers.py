"""Every function in ``src/gauge2`` has a caller.

A module-level function or public method counts as called when its name
is referenced somewhere else in ``src/``, when the benchmark tracer wraps
it (a key of ``perfbench/tracing.py`` ``SPANS``), or when it is on the
short list below of code that an open ROADMAP item will call.  Library
code that only tests reach fails here: delete it, or give it a command.
"""

import ast
import collections
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "gauge2"

# (module, qualified name) -> the ROADMAP open item that will call it
PLANNED = {
    ("torsor", "EtaH.check_laws"): "item 4",
    ("twogroup", "TwoGroupElement.vertical_inverse"): "item 4",
    ("twogroup", "whisker_scalar"): "item 4",
    ("morphisms", "compose_onemorphisms"): "item 5",
    ("morphisms", "vertical_compose_twomorphisms"): "item 5",
    ("morphisms", "horizontal_compose_twomorphisms"): "item 5",
}


def _spans():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.SPANS)


def _foreign(tree):
    """The names a module binds by ``import`` to modules outside gauge2
    (``np``, ``functools``, ...): ``functools.partial`` calls no method."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.partition(".")[0] != "gauge2"}


def _names(node, foreign=frozenset()):
    """Every name a node references: variables, and attribute names whose
    base is not a ``foreign`` module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and not (
                isinstance(sub.value, ast.Name) and sub.value.id in foreign):
            yield sub.attr


def _uncalled():
    """(module, qualified name) of every module-level function and public
    method whose name no code of ``src/`` outside its own body references."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, node))
            elif isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{sub.name}", sub)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")]
    foreign = {module: _foreign(tree) for module, tree in trees.items()}
    references = collections.Counter()
    for module, tree in trees.items():
        references.update(_names(tree, foreign[module]))
    return {(module, qualname) for module, qualname, node in defined
            if references[node.name]
            == collections.Counter(_names(node, foreign[module]))[node.name]}


def test_every_function_has_a_caller():
    orphans = _uncalled() - _spans() - set(PLANNED)
    assert not orphans, (
        f"no code in src/ calls {sorted(orphans)}: delete it, or list the "
        f"ROADMAP item that will call it in PLANNED")


def test_the_planned_list_holds_only_uncalled_functions():
    stale = set(PLANNED) - _uncalled()
    assert not stale, (
        f"{sorted(stale)} have a caller in src/ or are gone: drop them "
        f"from PLANNED")


def test_a_foreign_module_attribute_is_no_call():
    """``functools.partial`` in dsl.py does not call ``ParamMap.partial``,
    which no code of src/ calls (its tracer span keeps it)."""
    assert ("geometry", "ParamMap.partial") in _uncalled()

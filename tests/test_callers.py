"""Every function in ``src/gauge2`` has a caller, and every default a
caller that sets it.

A module-level function or public method counts as called when its name
is referenced somewhere else in ``src/``, when the benchmark tracer wraps
it (a key of ``perfbench/tracing.py`` ``SPANS``), or when it is on the
short list below of code that an open ROADMAP item will call.  Library
code that only tests reach fails here: delete it, or give it a command.
Likewise a defaulted parameter that no call in ``src/`` sets is a knob
only tests turn: make it a constant, or name why it stays in
``KEPT_DEFAULTS``.  Run as a script, this file prints how many defaulted
parameters ``src/`` has.
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


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _uncalled():
    """(module, qualified name) of every module-level function and public
    method whose name no code of ``src/`` outside its own body references."""
    trees = _trees()
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


# --- knobs -------------------------------------------------------------------

# (module, qualified name, parameter) -> why a default that no call in src/
# sets stays a parameter
KEPT_DEFAULTS = {
    ("cli", "main", "argv"): "the console entry point reads sys.argv",
    ("dsl", "evaluate", "bindings"): "a tracer span's signature",
    ("fields", "jet", "axes"):
        "a ParamMap of a plain callable passes its jet's axes through",
    ("forms", "TransitionData.__init__", "name"): "a label",
    ("geometry", "ParamMap.affine_image", "name"): "a label",
    ("geometry", "straight_path", "name"): "a label",
    ("transport", "horizontal_lift", "p"):
        "the tracer's transport.lift.steps counter reads steps at position 3",
    ("transport", "horizontal_lift", "steps"):
        "the tracer's transport.lift.steps counter reads it",
}


def _defaulted(trees):
    """(module, qualified name, parameter, the name a call uses, the
    parameter's position among the arguments a caller writes or None for
    a keyword-only one) of every defaulted parameter of a module-level
    function or a method of a module-level class."""
    out = []
    for module, tree in trees.items():
        defs = [(node, None) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [(sub, node.name) for node in tree.body
                 if isinstance(node, ast.ClassDef) for sub in node.body
                 if isinstance(sub, ast.FunctionDef)]
        for node, cls in defs:
            args = node.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 0 if cls is None or static else 1    # self or cls
            qualname = node.name if cls is None else f"{cls}.{node.name}"
            called = cls if node.name == "__init__" else node.name
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(module, qualname, arg.arg, called, i - skip)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(module, qualname, arg.arg, called, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
    return out


def _calls(trees):
    """Called name -> [(positional count, keyword names)] of every call in
    src/: a starred argument counts as every position, ``**`` as every
    keyword, and a call of ``cls`` inside a class as a call of that class."""
    calls = collections.defaultdict(list)
    for module, tree in trees.items():
        foreign = _foreign(tree)
        owner = {id(sub): node.name for node in tree.body
                 if isinstance(node, ast.ClassDef) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "cls":
                name = owner.get(id(node), "cls")
            elif isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name)
                    and func.value.id in foreign):
                name = func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name].append((float("inf") if starred else len(node.args),
                                {k.arg for k in node.keywords}))
    return calls


def _unset_defaults():
    """(module, qualified name, parameter) of every defaulted parameter that
    no call in src/ sets, by position or by keyword (a recursive call
    counts); ``Class(...)`` calls ``Class.__init__``."""
    trees = _trees()
    calls = _calls(trees)
    return {(module, qualname, param)
            for module, qualname, param, called, position in _defaulted(trees)
            if not any(None in keywords or param in keywords
                       or (position is not None and count > position)
                       for count, keywords in calls[called])}


def test_every_default_is_set_by_some_caller():
    knobs = _unset_defaults() - set(KEPT_DEFAULTS)
    assert not knobs, (
        f"no call in src/ sets {sorted(knobs)}: make each a constant, or "
        f"name why it stays a parameter in KEPT_DEFAULTS")


def test_the_kept_defaults_are_unset():
    stale = set(KEPT_DEFAULTS) - _unset_defaults()
    assert not stale, (
        f"{sorted(stale)} are set by a call in src/ or are gone: drop them "
        f"from KEPT_DEFAULTS")


if __name__ == "__main__":
    print(f"src/gauge2/*.py: {len(_defaulted(_trees()))} defaulted parameters")

"""Every verdict is set in ``cli.py``.

The library's checks measure; the command line judges each measurement
against its ``TOL`` entry.  Outside ``cli.py`` no module of ``src/gauge2``
takes a tolerance parameter (``tol``, ``tolerance`` or ``*_tol``, a
dataclass field included) or writes a ``pass`` or ``*_pass`` dict key, so
every bound lives where one guard and one mutation table can reach it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "gauge2"


def _is_tolerance(name):
    return name in ("tol", "tolerance") or name.endswith("_tol")


def _is_verdict(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value == "pass" or node.value.endswith("_pass")))


def _offences(tree):
    """(line, what) of every tolerance parameter and verdict key of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if _is_tolerance(arg.arg):
                    yield arg.lineno, f"parameter {arg.arg!r}"
        elif isinstance(node, ast.ClassDef):
            for field in node.body:
                if (isinstance(field, ast.AnnAssign)
                        and isinstance(field.target, ast.Name)
                        and _is_tolerance(field.target.id)):
                    yield field.lineno, f"field {field.target.id!r}"
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None and _is_verdict(key):
                    yield key.lineno, f"key {key.value!r}"
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store) and _is_verdict(node.slice)):
            yield node.lineno, f"key {node.slice.value!r}"


def _library_offences():
    return [f"{path.name}:{line}: {what}"
            for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
            for line, what in _offences(ast.parse(path.read_text()))]


def test_only_the_command_line_judges():
    offences = _library_offences()
    assert not offences, (
        f"{offences}: a library check returns measurements, and cli.py "
        f"judges them against TOL")


def test_the_guard_sees_a_tolerance_and_a_verdict():
    """The guard flags each form it looks for, and cli.py has them."""
    tree = ast.parse(
        "def f(x, tol=1): return {'pass': x <= tol}\n"
        "def g(x, *, span_tol): r = {}; r['containment_pass'] = x\n"
        "class C:\n    tolerance: float = 0.0\n")
    assert sorted(what for _, what in _offences(tree)) == [
        "field 'tolerance'", "key 'containment_pass'", "key 'pass'",
        "parameter 'span_tol'", "parameter 'tol'"]
    assert list(_offences(ast.parse((SRC / "cli.py").read_text())))

"""The benchmark's per-layer tracer (``perfbench/tracing.py``) rebinds gauge2
functions and methods by name, so a rename or a moved import in the
program silently drops or breaks a span.  This checks that every span
still resolves and that uninstalling puts every original back."""

import importlib.util
import pathlib
import sys

import gauge2.cli  # noqa: F401  (imports every layer module the tracer wraps)

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """(module, name) -> value for every attribute of every gauge2 module and
    (module, "Class.attr") for the attributes of the classes it defines."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gauge2"
                               or modname.startswith("gauge2.")):
            continue
        for attr, value in vars(mod).items():
            out[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    out[modname, f"{attr}.{cattr}"] = cvalue
    return out


def test_tracer_binds_every_span_and_restores_every_original():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()

    wrapped = {key for key, value in before.items() if during[key] is not value}
    for modname, qualname in tracing.SPANS:
        assert (f"gauge2.{modname}", qualname) in wrapped, (modname, qualname)
    # every rebinding is a wrapper around the original it replaced
    for key in wrapped:
        assert getattr(during[key], "__wrapped__", None) is before[key], key
    assert during.keys() == before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

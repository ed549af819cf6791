"""Per-layer tracing of gauge2 from outside the program.

``Tracer.install`` wraps the public functions of each layer module and
the public methods of its classes.  A wrapped function is rebound in its
defining module and in every gauge2 module that imported it by name
(``gauge2.cli`` imports the transport, torsor and twogroup entry points,
``gauge2.morphisms`` imports ``horizontal_lift`` and
``surface_transport``, ``gauge2.torsor`` imports ``two_group_compose``);
a wrapper placed only on the defining module would miss those calls.
Methods are wrapped on the class.  ``uninstall`` puts every original
back; a run that never installs the tracer runs the program untouched.

Each call is one span.  Spans nest on a stack; a span's self time is its
duration minus the time of the spans it called.  Only aggregates are
kept: calls, self time, calls that raised, and the layer counters below.
The tracer's own bookkeeping inside a span (drift and batch sizes) is
charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, qualified name) -> span name
SPANS = {
    ("config", "load_config"): "config.load",
    ("dsl", "parse"): "dsl.parse",
    ("dsl", "evaluate"): "dsl.evaluate",
    ("fields", "CoefficientField.__call__"): "fields.eval",
    ("fields", "GroupValuedField.__call__"): "fields.eval",
    ("fields", "directional_diff"): "fields.diff",
    ("geometry", "ParamMap.__call__"): "geometry.map",
    ("geometry", "ParamMap.partial"): "geometry.map",
    ("geometry", "reparameterize"): "geometry.map",
    ("groups", "MatrixGroup.project"): "groups.project",
    ("groups", "MatrixGroup.exp"): "groups.exp",
    ("groups", "MatrixGroup.log"): "groups.log",
    ("forms", "TwoConnection.a_coeffs"): "forms.eval",
    ("forms", "TwoConnection.a_of"): "forms.eval",
    ("forms", "TwoConnection.F_of"): "forms.eval",
    ("forms", "TwoConnection.b_of"): "forms.eval",
    ("forms", "TwoConnection.K_of"): "forms.eval",
    ("forms", "fake_flatness_residual"): "forms.eval",
    ("forms", "check_local_data"): "forms.eval",
    ("transport", "path_ordered_exp"): "transport.path",
    ("transport", "horizontal_lift"): "transport.lift",
    ("transport", "surface_transport"): "transport.surface",
    ("transport", "verify_nonabelian_stokes"): "transport.verify",
    ("transport", "verify_higher_stokes"): "transport.verify",
    ("transport", "reconstruct_A"): "transport.verify",
    ("transport", "reconstruct_B"): "transport.verify",
    ("transport", "ambrose_singer_check"): "transport.verify",
    ("morphisms", "rho_from_phi"): "morphisms.rho",
    ("morphisms", "gauge_transform"): "morphisms.transform",
    ("morphisms", "apply_twomorphism"): "morphisms.transform",
    ("morphisms", "verify_onemorphism_compat"): "morphisms.verify",
    ("torsor", "selftest"): "torsor.selftest",
    ("torsor", "torsor_divide"): "torsor.divide",
    ("torsor", "vertical_compose_etaH"): "torsor.etaH_compose",
    ("torsor", "horizontal_compose_etaH"): "torsor.etaH_compose",
    ("twogroup", "two_group_compose"): "twogroup.compose",
    ("twogroup", "check_crossed_module"): "twogroup.check",
    ("twogroup", "interchange_defect"): "twogroup.interchange",
    ("cli", "run_command"): "cli.command",
}


def _batch(m) -> int:
    shape = np.shape(m)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _drift(m) -> float:
    """max |X^H X - I| over the batch, the distance project corrects."""
    m = np.asarray(m)
    eye = np.eye(m.shape[-1])
    return float(np.max(np.abs(np.swapaxes(m.conj(), -2, -1) @ m - eye)))


def _points(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# Extra counters per span, read from the call's arguments:
# span -> function(stats, args, kwargs)
def _count_project(st, args, kwargs):
    st["matrices"] += _batch(args[1])
    st["max_drift"] = max(st["max_drift"], _drift(args[1]))


def _count_exp(st, args, kwargs):
    st["matrices"] += _batch(args[1])


def _count_points(st, args, kwargs):
    st["points"] += _points(args[1])


def _count_lift(st, args, kwargs):
    st["steps"] += int(kwargs.get("steps", args[3] if len(args) > 3 else 64))


_COUNTERS = {
    "groups.project": _count_project,
    "groups.exp": _count_exp,
    "fields.eval": _count_points,
    "transport.lift": _count_lift,
}


class Tracer:
    """Aggregating span recorder over the gauge2 layer modules."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.lifts_in_surface = 0
        self._stack = []        # [span, child seconds]
        self._undo = []         # (owner, attribute, original)

    def reset(self):
        self.stats.clear()
        self.lifts_in_surface = 0

    def _wrap(self, fn, span):
        stats = self.stats
        stack = self._stack
        counter = _COUNTERS.get(span)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = stats[span]
            if counter is not None:
                t_extra = perf()
                counter(st, args, kwargs)
                if span == "transport.lift" and any(
                        s[0] == "transport.surface" for s in stack):
                    tracer.lifts_in_surface += 1
                if stack:
                    stack[-1][1] += perf() - t_extra
            frame = [span, 0.0]
            stack.append(frame)
            raised = 1.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                raised = 0.0
                return out
            finally:
                elapsed = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                st["calls"] += 1.0
                st["self_s"] += elapsed - frame[1]
                st["raised"] += raised

        return wrapper

    def install(self):
        """Wrap every function in SPANS wherever gauge2 binds it."""
        modules = {name[len("gauge2."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("gauge2.") and mod is not None}
        modules["__init__"] = sys.modules["gauge2"]
        for (modname, qualname), span in SPANS.items():
            owner = modules[modname]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self._wrap(original, span))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, span)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced pass, by metric name."""
        def get(span, key):
            return float(self.stats[span][key]) if span in self.stats else 0.0

        surfaces = get("transport.surface", "calls")
        out = {}
        for name, _ in LAYER_METRICS:
            if name == "trace.overhead_s":
                continue
            if name == "trace.raised":
                value = sum(float(st["raised"]) for st in self.stats.values())
            elif name == "transport.lifts_per_surface":
                value = self.lifts_in_surface / surfaces if surfaces else 0.0
            else:
                span, key = name.rsplit(".", 1)
                value = get(span, key)
            out[name] = value
        return out


# Per-layer metrics of the traced run, in report order; the overhead is
# the traced minus the untraced pass time.
LAYER_METRICS = [
    ("groups.project.calls", "count"),
    ("groups.project.matrices", "count"),
    ("groups.project.self_s", "s"),
    ("groups.project.max_drift", "1"),
    ("groups.exp.calls", "count"),
    ("groups.exp.matrices", "count"),
    ("groups.exp.self_s", "s"),
    ("groups.log.calls", "count"),
    ("groups.log.self_s", "s"),
    ("transport.lift.calls", "count"),
    ("transport.lift.steps", "count"),
    ("transport.lift.self_s", "s"),
    ("transport.lifts_per_surface", "lifts/surface"),
    ("transport.surface.calls", "count"),
    ("transport.surface.self_s", "s"),
    ("transport.path.calls", "count"),
    ("transport.path.self_s", "s"),
    ("transport.verify.calls", "count"),
    ("transport.verify.self_s", "s"),
    ("morphisms.rho.calls", "count"),
    ("morphisms.rho.self_s", "s"),
    ("morphisms.transform.self_s", "s"),
    ("morphisms.verify.self_s", "s"),
    ("fields.eval.calls", "count"),
    ("fields.eval.points", "count"),
    ("fields.eval.self_s", "s"),
    ("fields.diff.calls", "count"),
    ("fields.diff.self_s", "s"),
    ("dsl.evaluate.calls", "count"),
    ("dsl.evaluate.self_s", "s"),
    ("dsl.parse.calls", "count"),
    ("dsl.parse.self_s", "s"),
    ("forms.eval.calls", "count"),
    ("forms.eval.self_s", "s"),
    ("geometry.map.calls", "count"),
    ("geometry.map.self_s", "s"),
    ("config.load.calls", "count"),
    ("config.load.self_s", "s"),
    ("torsor.selftest.self_s", "s"),
    ("torsor.divide.calls", "count"),
    ("torsor.etaH_compose.calls", "count"),
    ("twogroup.compose.calls", "count"),
    ("twogroup.check.self_s", "s"),
    ("twogroup.interchange.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("trace.raised", "count"),
    ("trace.overhead_s", "s"),
]

# Accuracy guards, recorded by the checks from the untraced run's reports.
GUARD_METRICS = [
    ("transport.stokes_defect", "1"),
    ("transport.stokes_order", "order"),
    ("transport.thin_max_change", "1"),
    ("transport.abelian_ref_err", "1"),
    ("transport.higher_stokes_defect", "1"),
    ("forms.bianchi_defect", "1"),
    ("forms.fake_flat_residual", "1"),
    ("morphisms.square_defect", "1"),
]

"""Run-configuration loading, validation and object construction.

Configs are JSON; every field that is a scalar field, path, bigon or cube
component is a DSL expression string.  The schema rejects unknown keys so
that typos fail fast with the JSON path of the offending entry, and all
randomness downstream is seeded from the single ``seed`` key.  This module
validates against ``CONFIG_SCHEMA`` itself, with no schema library at run
time, and reports the error that jsonschema's ``best_match`` would.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json

import numpy as np

from .errors import (ComposabilityError, ConfigError, DomainError, ParseError,
                     StructureError)
from .families import (FAMILY_NAMES, FINITE_DEMO_NAMES, finite_crossed_module,
                       finite_demo_module, matrix_family)
from .fields import CoefficientField
from .forms import TransitionData, TwoConnection
from .geometry import Chart, ParamMap, check_cube_boundaries, unit_grid
from .groups import FiniteGroup, cyclic_group
from .lie2 import LieTwoAlgebra
from .morphisms import OneMorphism, TwoMorphismA

__all__ = ["CONFIG_SCHEMA", "RunConfig", "load_config", "config_hash"]

# Parameter samples per axis at which configured maps are checked
# against the chart box.
_BOX_SAMPLES = 17
_ARITY = {"paths": 1, "bigons": 2, "cubes": 3}

_EXPR = {"type": "string", "minLength": 1}
_EXPR_ROW = {"type": "array", "items": _EXPR, "minItems": 1}
_EXPR_MATRIX = {"type": "array", "items": _EXPR_ROW, "minItems": 1}

_FINITE_GROUP = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "cyclic": {"type": "integer", "minimum": 1},
        "table": {"type": "array",
                  "items": {"type": "array", "items": {"type": "integer"}}},
        "identity": {"type": "integer", "minimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["seed"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "crossed_module": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "finite": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "demo": {"enum": list(FINITE_DEMO_NAMES)},
                        "G": _FINITE_GROUP,
                        "H": _FINITE_GROUP,
                        "t": {"type": "array", "items": {"type": "integer"}},
                        "alpha": {"type": "array",
                                  "items": {"type": "array",
                                            "items": {"type": "integer"}}},
                    },
                },
                "matrix": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family"],
                    "properties": {"family": {"enum": list(FAMILY_NAMES)}},
                },
            },
        },
        "chart": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "box": {"type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "number"},
                                  "minItems": 2, "maxItems": 2}},
            },
        },
        "lie2algebra": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_star": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "number"}}},
                "alpha_star": {"type": "array",
                               "items": {"type": "array",
                                         "items": {"type": "array",
                                                   "items": {"type": "number"}}}},
            },
        },
        "connection": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a"],
            "properties": {
                "a": _EXPR_MATRIX,
                "b": {"anyOf": [{"const": "fake_flat"}, _EXPR_MATRIX]},
                "b_extra": _EXPR_MATRIX,
            },
        },
        "paths": {"type": "object", "additionalProperties": _EXPR_ROW},
        "bigons": {"type": "object", "additionalProperties": _EXPR_ROW},
        "cubes": {"type": "object", "additionalProperties": _EXPR_ROW},
        "morphism": {
            "type": "object",
            "additionalProperties": False,
            "required": ["g", "phi"],
            "properties": {"g": _EXPR_ROW, "phi": _EXPR_MATRIX},
        },
        "two_morphism": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a"],
            "properties": {"a": _EXPR_ROW},
        },
        "transition": {
            "type": "object",
            "additionalProperties": False,
            "required": ["g"],
            "properties": {"g": _EXPR_ROW},
        },
        "numeric": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 8},
                "surface_steps": {"type": "integer", "minimum": 4},
                "volume_steps": {"type": "integer", "minimum": 4},
                "sweep": {"type": "integer", "minimum": 0},
                "grid_per_axis": {"type": "integer", "minimum": 2},
            },
        },
    },
}

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}
_SHORT = {True: "should be non-empty", False: "is too short"}

# keyword -> its message when ``value`` violates it, else a falsy value
_CHECKS = {
    "type": lambda v, t: not _is_type(v, t) and f"{v!r} is not of type {t!r}",
    "minItems": lambda v, n: isinstance(v, list) and len(v) < n
        and f"{v!r} {_SHORT[n == 1]}",
    "minLength": lambda v, n: isinstance(v, str) and len(v) < n
        and f"{v!r} {_SHORT[n == 1]}",
    "maxItems": lambda v, n: isinstance(v, list) and len(v) > n
        and f"{v!r} {'is expected to be empty' if n == 0 else 'is too long'}",
    "minimum": lambda v, m: _is_type(v, "number") and v < m
        and f"{v!r} is less than the minimum of {m!r}",
    # the schema's enum and const values are strings: == is JSON equality
    "enum": lambda v, e: v not in e and f"{v!r} is not one of {e!r}",
    "const": lambda v, c: v != c and f"{c!r} was expected",
}
# every keyword _schema_errors interprets
_KEYWORDS = {*_CHECKS, "properties", "additionalProperties", "required",
             "items", "anyOf"}


def _is_type(value, name):
    """JSON Schema 2020-12 types: a bool is no number, 1.0 is an integer."""
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name]) and (
        name == "boolean" or not isinstance(value, bool))


def _schema_errors(value, schema, path=()):
    """Every violation of ``schema`` (JSON Schema 2020-12) by ``value``, as
    (*relevance, message, anyOf context), with jsonschema's message and,
    for one schema's own errors, its order."""
    mismatch = not ("type" in schema and _is_type(value, schema["type"]))
    for key, arg in schema.items():
        messages, context = [key in _CHECKS and _CHECKS[key](value, arg)], []
        if key == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties" and isinstance(value, dict):
            extra = sorted(value.keys() - schema.get("properties", {}).keys())
            for name in extra if isinstance(arg, dict) else ():
                yield from _schema_errors(value[name], arg, path + (name,))
            if arg is False and extra:
                messages = [f"Additional properties are not allowed ("
                            f"{', '.join(map(repr, extra))} "
                            f"{'was' if len(extra) == 1 else 'were'} unexpected)"]
        elif key == "required" and isinstance(value, dict):
            messages = [f"{n!r} is a required property" for n in arg
                        if n not in value]
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (i,))
        elif key == "anyOf":
            for sub in arg:
                errors = list(_schema_errors(value, sub, path))
                if not errors:
                    break
                context += errors
            else:
                messages = [f"{value!r} is not valid under any of the given schemas"]
        for message in filter(None, messages):
            yield -len(path), path, key != "anyOf", mismatch, message, context


def _best_match(errors):
    """The error jsonschema's ``best_match`` reports, or None.  Relevance
    prefers shallow paths, then later siblings, then any keyword but anyOf,
    then a schema type the value lacks; ties go to the first error.  It
    descends an anyOf while its context has one least relevant error."""
    best = max(errors, key=lambda e: e[:4], default=None)
    while best is not None and best[5]:
        first, *rest = sorted(best[5], key=lambda e: e[:4])
        if rest and rest[0][:4] == first[:4]:
            break
        best = first
    return best


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextlib.contextmanager
def _structure_errors(section: str, part=None):
    """Re-raise a StructureError of the data under ``section`` as a
    ConfigError at the JSON path of the part at fault (``part`` if the
    error names none)."""
    try:
        yield
    except StructureError as err:
        path = f"{section}.{err.part or part}"
        raise ConfigError(f"config invalid at '{path}': {err}",
                          path=path) from None


def _finite_group(spec: dict, label: str) -> FiniteGroup:
    if "cyclic" in spec:
        return cyclic_group(spec["cyclic"], name=f"{label}=Z{spec['cyclic']}")
    if "table" in spec:
        with _structure_errors(f"crossed_module.finite.{label}", "table"):
            return FiniteGroup(spec["table"], identity=spec.get("identity", 0),
                               name=label)
    raise ConfigError(f"finite group needs 'cyclic' or 'table'",
                      path=f"crossed_module.finite.{label}")


def _once(build):
    """A RunConfig method whose object, per argument, is built on first
    use and kept."""
    @functools.wraps(build)
    def built(self, *args):
        key = (build.__name__, *args)
        if key not in self._built:
            self._built[key] = build(self, *args)
        return self._built[key]
    return built


class RunConfig:
    """Validated configuration whose objects are built once, on first use."""

    def __init__(self, raw: dict):
        err = _best_match(_schema_errors(raw, CONFIG_SCHEMA))
        if err is not None:
            path = ".".join(map(str, err[1]))
            raise ConfigError(f"config invalid at '{path}': {err[4]}",
                              path=path)
        self.raw = raw
        self.seed = raw["seed"]
        self.hash = config_hash(raw)
        self._built = {}
        self._check_cross_references()

    def _check_cross_references(self):
        raw = self.raw
        needs_chart = any(k in raw for k in
                          ("connection", "paths", "bigons", "cubes",
                           "morphism", "two_morphism", "transition"))
        if needs_chart and "chart" not in raw:
            raise ConfigError("config declares fields but no 'chart'",
                              path="chart")
        if "connection" in raw and "matrix" not in raw.get("crossed_module", {}):
            raise ConfigError("a connection needs a matrix crossed module",
                              path="crossed_module.matrix")
        chart = raw.get("chart", {})
        box = chart.get("box")
        if box is not None and len(box) != chart["dim"]:
            raise ConfigError(f"config invalid at 'chart.box': a {chart['dim']}-d "
                              f"chart needs {chart['dim']} rows, not {len(box)}",
                              path="chart.box")
        for k, (lo, hi) in enumerate(box or ()):
            if not lo < hi:         # NaN fails as well
                raise ConfigError(f"config invalid at 'chart.box.{k}': "
                                  f"{[lo, hi]!r} is not an interval lo < hi",
                                  path=f"chart.box.{k}")

    # -- builders ---------------------------------------------------------------

    def _require(self, *path):
        node = self.raw
        for k, key in enumerate(path, 1):
            if not isinstance(node, dict) or key not in node:
                seen = ".".join(path[:k])
                raise ConfigError(f"config is missing required section "
                                  f"'{seen}'", path=seen)
            node = node[key]
        return node

    def build(self):
        """Build every section the config has, so that a config error stops
        a run before it writes anything."""
        if "matrix" in self.raw.get("crossed_module", {}):
            self.family()
        if self.has_finite_module():
            self.finite_module()
        for name in ("connection", "paths", "bigons", "cubes", "transition",
                     "morphism", "two_morphism"):
            if name in _ARITY:
                self.param_maps(name)
            elif name in self.raw:
                getattr(self, name)()

    @_once
    def family(self):
        fam = matrix_family(self._require("crossed_module", "matrix")["family"])
        overrides = self.raw.get("lie2algebra", {})
        return self._apply_l2a_overrides(fam, overrides) if overrides else fam

    @staticmethod
    def _apply_l2a_overrides(fam, overrides):
        """Replace the analytic t_star / alpha_star by serialized tables,
        re-validating them against the group-level maps."""
        l2a = fam.l2a
        with _structure_errors("lie2algebra"):
            new = LieTwoAlgebra(
                l2a.g_alg, l2a.h_alg,
                t_star=overrides.get("t_star", l2a.t_star),
                alpha_star=overrides.get("alpha_star", l2a.alpha_star),
                name=f"{l2a.name} (config)")
        if new.homomorphism_defect() > 1e-9:
            raise ConfigError("lie2algebra.t_star is not a Lie algebra "
                              "homomorphism", path="lie2algebra.t_star")
        if new.peiffer_defect() > 1e-9:
            raise ConfigError("lie2algebra override violates the "
                              "infinitesimal Peiffer identity",
                              path="lie2algebra.alpha_star")
        fam = dataclasses.replace(fam, l2a=new)
        checks = {"t_star": ("t", new.t_star_fd_defect(fam.cm)),
                  "alpha_star": ("the action", new.alpha_star_fd_defect(fam))}
        for key, (of, defect) in checks.items():
            if defect > 1e-6:
                raise ConfigError(f"lie2algebra.{key} disagrees with the finite-difference "
                                  f"derivative of {of}", path=f"lie2algebra.{key}")
        return fam

    @_once
    def finite_module(self):
        spec = self._require("crossed_module", "finite")
        if "demo" in spec:
            return finite_demo_module(spec["demo"])
        missing = [k for k in ("G", "H", "t", "alpha") if k not in spec]
        if missing:
            raise ConfigError(
                f"finite crossed module is missing {missing}",
                path="crossed_module.finite")
        G, H = _finite_group(spec["G"], "G"), _finite_group(spec["H"], "H")
        with _structure_errors("crossed_module.finite"):
            return finite_crossed_module(G, H, spec["t"], spec["alpha"],
                                         name="finite-config")

    def has_finite_module(self) -> bool:
        return "finite" in self.raw.get("crossed_module", {})

    def chart(self) -> Chart:
        spec = self._require("chart")
        return Chart(spec["dim"], box=spec.get("box"))

    def _field(self, path: str, shape) -> CoefficientField:
        """The expressions at ``path`` as one field of ``shape``; a wrong
        count, a parse error or a variable outside the chart is a
        ConfigError naming the path."""
        section, key = path.split(".")
        try:
            return CoefficientField(self.raw[section][key], self.chart().dim, shape)
        except (DomainError, ParseError) as err:
            raise ConfigError(f"config invalid at '{path}': {err}",
                              path=path) from None

    @_once
    def connection(self) -> TwoConnection:
        spec = self._require("connection")
        fam, d = self.family(), self.chart().dim
        shape = (d * (d - 1) // 2, fam.l2a.h_alg.dim)
        b = spec.get("b", "fake_flat")
        return TwoConnection(
            fam, self.chart(),
            a=self._field("connection.a", (d, fam.l2a.g_alg.dim)),
            b=b if b == "fake_flat" else self._field("connection.b", shape),
            b_extra=(self._field("connection.b_extra", shape)
                     if "b_extra" in spec else None))

    @_once
    def param_maps(self, kind: str) -> dict:
        """The configured paths, bigons or cubes by name, each checked to
        parse in the variables its arity allows and to map into the chart
        (see :meth:`_check_in_chart`), and a cube's slices to share their
        boundary paths (:func:`gauge2.geometry.check_cube_boundaries`)."""
        arity = _ARITY[kind]
        out = {}
        for name, exprs in self.raw.get(kind, {}).items():
            path = f"{kind}.{name}"
            try:
                pm = ParamMap.from_exprs(exprs, arity, name=name)
                self._check_in_chart(pm, path)
                if arity == 3:
                    check_cube_boundaries(pm)
            except (ComposabilityError, DomainError, ParseError) as err:
                raise ConfigError(f"config invalid at '{path}': {err}",
                                  path=path) from None
            out[name] = pm
        return out

    def _check_in_chart(self, pm: ParamMap, path: str):
        """A map needs one component per chart coordinate and, when the chart
        has a box, its images on a fixed parameter grid inside the box."""
        chart = self.chart()
        if pm.dim != chart.dim:
            raise ConfigError(f"config invalid at '{path}': {pm.dim} components "
                              f"for a {chart.dim}-d chart", path=path)
        if chart.box is None:
            return
        params = unit_grid(_BOX_SAMPLES, pm.arity)
        images = pm(params)
        outside = np.any((images < chart.box[:, 0])
                         | (images > chart.box[:, 1]), axis=-1)
        if np.any(outside):
            k = int(np.argmax(outside))
            raise ConfigError(
                f"config invalid at '{path}': the image "
                f"{np.round(images[k], 6).tolist()} of parameter "
                f"{np.round(params[k], 6).tolist()} leaves the chart box",
                path=path)

    @_once
    def morphism(self) -> OneMorphism:
        self._require("morphism")
        fam, d = self.family(), self.chart().dim
        return OneMorphism(
            fam, self.chart(), name="config-morphism",
            g_map=self._field("morphism.g", (fam.l2a.g_alg.dim,)),
            phi=self._field("morphism.phi", (d, fam.l2a.h_alg.dim)))

    @_once
    def two_morphism(self) -> TwoMorphismA:
        self._require("two_morphism")
        fam = self.family()
        return TwoMorphismA(
            fam, self.chart(), name="config-2morphism",
            a_map=self._field("two_morphism.a", (fam.l2a.h_alg.dim,)))

    @_once
    def transition(self) -> TransitionData:
        self._require("transition")
        fam = self.family()
        return TransitionData(fam, self.chart(),
                              self._field("transition.g", (fam.l2a.g_alg.dim,)))

    def numeric(self) -> dict:
        return {"steps": 64, "surface_steps": 48, "volume_steps": 32,
                "sweep": 0, "grid_per_axis": 5, **self.raw.get("numeric", {})}


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return RunConfig(raw)

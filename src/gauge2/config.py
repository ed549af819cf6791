"""Run-configuration loading, validation and object construction.

Configs are JSON; every field that is a scalar field, path, bigon or cube
component is a DSL expression string.  The schema rejects unknown keys so
that typos fail fast with the JSON path of the offending entry, and all
randomness downstream is seeded from the single ``seed`` key.
"""

from __future__ import annotations

import hashlib
import json

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import ConfigError
from .families import finite_crossed_module, finite_demo_module, matrix_family
from .fields import CoefficientField
from .forms import TransitionData, TwoConnection
from .geometry import Chart, ParamMap
from .groups import FiniteGroup, cyclic_group
from .morphisms import OneMorphism, TwoMorphismA

__all__ = ["CONFIG_SCHEMA", "RunConfig", "load_config", "config_hash"]

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
        "seed": {"type": "integer"},
        "crossed_module": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "finite": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "demo": {"type": "string"},
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
                    "properties": {"family": {"type": "string"}},
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
        "basepoint": {"type": "array", "items": {"type": "number"}},
        "numeric": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 8},
                "surface_steps": {"type": "integer", "minimum": 4},
                "volume_steps": {"type": "integer", "minimum": 4},
                "sweep": {"type": "integer", "minimum": 0},
                "fd_step": {"type": "number", "exclusiveMinimum": 0},
                "fd_richardson": {"type": "boolean"},
                "grid_per_axis": {"type": "integer", "minimum": 2},
            },
        },
    },
}


# Built once: jsonschema.validate would re-check the schema itself against
# the metaschema on every load.
_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _finite_group(spec: dict, label: str) -> FiniteGroup:
    if "cyclic" in spec:
        return cyclic_group(spec["cyclic"], name=f"{label}=Z{spec['cyclic']}")
    if "table" in spec:
        return FiniteGroup(spec["table"], identity=spec.get("identity", 0),
                           name=label)
    raise ConfigError(f"finite group needs 'cyclic' or 'table'",
                      path=f"crossed_module.finite.{label}")


class RunConfig:
    """Validated configuration with lazily-built objects."""

    def __init__(self, raw: dict):
        err = best_match(_VALIDATOR.iter_errors(raw))
        if err is not None:
            path = ".".join(str(p) for p in err.absolute_path)
            raise ConfigError(f"config invalid at '{path}': {err.message}",
                              path=path)
        self.raw = raw
        self.seed = raw["seed"]
        self.hash = config_hash(raw)
        self._family = None
        self._check_cross_references()

    def _check_cross_references(self):
        raw = self.raw
        needs_chart = any(k in raw for k in
                          ("connection", "paths", "bigons", "cubes",
                           "morphism", "two_morphism", "transition"))
        if needs_chart and "chart" not in raw:
            raise ConfigError("config declares fields but no 'chart'",
                              path="chart")
        if "connection" in raw:
            cm = raw.get("crossed_module", {})
            if "matrix" not in cm:
                raise ConfigError(
                    "a connection needs a matrix crossed module",
                    path="crossed_module.matrix")

    # -- builders ---------------------------------------------------------------

    def _require(self, *path):
        node = self.raw
        seen = []
        for key in path:
            seen.append(key)
            if not isinstance(node, dict) or key not in node:
                raise ConfigError(
                    f"config is missing required section "
                    f"'{'.'.join(seen)}'", path=".".join(seen))
            node = node[key]
        return node

    def family(self):
        if self._family is None:
            fam = matrix_family(
                self._require("crossed_module", "matrix")["family"])
            overrides = self.raw.get("lie2algebra", {})
            if overrides:
                fam = self._apply_l2a_overrides(fam, overrides)
            self._family = fam
        return self._family

    @staticmethod
    def _apply_l2a_overrides(fam, overrides):
        """Replace the analytic t_star / alpha_star by serialized tables,
        re-validating them against the group-level maps."""
        import dataclasses

        from .lie2 import LieTwoAlgebra

        l2a = fam.l2a
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
        if new.t_star_fd_defect(fam.cm) > 1e-6:
            raise ConfigError("lie2algebra.t_star disagrees with the "
                              "finite-difference derivative of t",
                              path="lie2algebra.t_star")
        return fam

    def finite_module(self):
        spec = self._require("crossed_module", "finite")
        if "demo" in spec:
            return finite_demo_module(spec["demo"])
        missing = [k for k in ("G", "H", "t", "alpha") if k not in spec]
        if missing:
            raise ConfigError(
                f"finite crossed module is missing {missing}",
                path="crossed_module.finite")
        return finite_crossed_module(
            _finite_group(spec["G"], "G"), _finite_group(spec["H"], "H"),
            spec["t"], spec["alpha"], name="finite-config")

    def has_finite_module(self) -> bool:
        return "finite" in self.raw.get("crossed_module", {})

    def chart(self) -> Chart:
        spec = self._require("chart")
        return Chart(spec["dim"], box=spec.get("box"))

    def connection(self) -> TwoConnection:
        spec = self._require("connection")
        num = self.numeric()
        return TwoConnection(
            self.family(), self.chart(), a=spec["a"],
            b=spec.get("b", "fake_flat"), b_extra=spec.get("b_extra"),
            fd_step=num.get("fd_step"),
            fd_richardson=num.get("fd_richardson", False))

    def param_maps(self, kind: str) -> dict:
        arity = {"paths": 1, "bigons": 2, "cubes": 3}[kind]
        out = {}
        for name, exprs in self.raw.get(kind, {}).items():
            out[name] = ParamMap.from_exprs(exprs, arity, name=name)
        return out

    def morphism(self) -> OneMorphism:
        spec = self._require("morphism")
        return OneMorphism(self.family(), self.chart(), g_map=spec["g"],
                           phi=spec["phi"], name="config-morphism")

    def two_morphism(self) -> TwoMorphismA:
        return TwoMorphismA(self.family(), self.chart(),
                            self._require("two_morphism")["a"],
                            name="config-2morphism")

    def transition(self) -> TransitionData:
        return TransitionData(self.family(), self.chart(),
                              CoefficientField(
                                  self._require("transition")["g"],
                                  self.chart().dim,
                                  (self.family().l2a.g_alg.dim,)))

    def basepoint(self):
        return self.raw.get("basepoint")

    def numeric(self) -> dict:
        defaults = {"steps": 64, "surface_steps": 48, "volume_steps": 32,
                    "sweep": 0, "fd_step": None, "fd_richardson": False,
                    "grid_per_axis": 5}
        defaults.update(self.raw.get("numeric", {}))
        return defaults


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    return RunConfig(raw)

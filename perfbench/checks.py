"""Output checks made apart from the program.

Each check reads the JSON report (and CSV tables) an operation wrote and
returns a list of problems; an empty list means the output is right.  The
references are closed forms computed here, properties the method must
have (recomputed here from the reported values), and exhaustive checks
of the finite tables written by this benchmark.  No check compares with a
stored copy of an earlier output.

Checks may also record accuracy guards in ``result.guards``; the traced
run reports them so that a speed-up which costs accuracy shows.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SELFTEST_LAWS = frozenset({
    "division_solves", "division_unique", "division_functorial",
    "action_composition_equivariance", "functor_extension", "etaH_laws",
    "etaH_round_trip", "vertical_composition", "horizontal_composition",
    "interchange"})

# Tolerances of the property checks.  They are the program's own
# acceptance tolerances where it has one (target identity 1e-6, Stokes
# 1e-6, higher Stokes 1e-5, thin 1e-7, gauge square 1e-6, fake-flat
# 1e-8); the rest are set from the method's order at the step counts the
# workloads use.
MEMBERSHIP_TOL = 1e-10
TARGET_IDENTITY_TOL = 1e-6
STOKES_TOL = 1e-6
MIN_STOKES_ORDER = 3.5
THIN_TOL = 1e-7
GAUGE_SQUARE_TOL = 1e-6
GAUGE_A_TOL = 1e-7
CLOSED_FORM_TOL = 1e-6
HIGHER_STOKES_TOL = 1e-5
KERNEL_TOL = 1e-7
BIANCHI_TOL = 1e-6
FAKE_FLAT_TOL = 1e-8


@dataclass
class Result:
    """What one operation left behind."""

    exit_code: int
    stderr: str
    out_dir: Path
    report: dict | None
    seconds: float
    previous: Result | None = None     # this operation in the last pass
    guards: dict = field(default_factory=dict)


def matrix(value) -> np.ndarray:
    """Report encoding of a complex array -> ndarray."""
    return np.asarray(value["re"]) + 1j * np.asarray(value["im"])


def _cases(result: Result, problems: list) -> list:
    if result.report is None:
        problems.append("no report written")
        return []
    if not result.report.get("pass"):
        problems.append("report says FAIL")
    return result.report.get("cases", [])


def _guard(result: Result, name: str, value: float, worst=max):
    old = result.guards.get(name)
    result.guards[name] = value if old is None else worst(old, value)


def su2_defect(m: np.ndarray) -> float:
    """Distance of a 2x2 matrix from SU(2): unitarity and det = 1."""
    unitary = float(np.max(np.abs(m.conj().T @ m - np.eye(2))))
    return max(unitary, abs(np.linalg.det(m) - 1.0))


# --- surface-su2 -----------------------------------------------------------------


def surface_transport_su2(result: Result) -> list:
    """value_h is in SU(2) and t(h) = tra(source)^-1 tra(target), t = id."""
    problems = []
    for case in _cases(result, problems):
        h = matrix(case["value_h"])
        src = matrix(case["source_transport"])
        tgt = matrix(case["target_transport"])
        if su2_defect(h) > MEMBERSHIP_TOL:
            problems.append(f"{case['name']}: value_h is not in SU(2)")
        tid = float(np.max(np.abs(h - src.conj().T @ tgt)))
        if tid > TARGET_IDENTITY_TOL:
            problems.append(f"{case['name']}: target identity off by {tid:.2e}")
    return problems


def _observed_orders(defects):
    return [math.log2(d0 / d1) for d0, d1 in zip(defects, defects[1:])]


def stokes(result: Result) -> list:
    """Stokes defect is small and converges at order >= 3.5 over the sweep."""
    problems = []
    for case in _cases(result, problems):
        name = case["name"]
        rows = case["rows"]
        defects = [r["defect"] for r in rows]
        if len(rows) < 3 or min(defects) <= 0.0:
            problems.append(f"{name}: sweep has {len(rows)} usable rows")
            continue
        orders = _observed_orders(defects)
        if min(orders) < MIN_STOKES_ORDER:
            problems.append(f"{name}: observed orders {orders}")
        if case["defect"] > STOKES_TOL:
            problems.append(f"{name}: defect {case['defect']:.2e}")
        table = result.out_dir / f"stokes-{name}.csv"
        if not table.is_file():
            problems.append(f"{name}: no convergence table")
        else:
            with open(table, newline="") as fh:
                steps = [int(r["steps"]) for r in csv.DictReader(fh)]
            if steps != [r["steps"] for r in rows]:
                problems.append(f"{name}: CSV steps {steps} differ from report")
        _guard(result, "transport.stokes_defect", case["defect"])
        _guard(result, "transport.stokes_order", min(orders), worst=min)
    return problems


def thin(result: Result) -> list:
    """Thin reparameterizations change the 2-transport by <= 1e-7."""
    problems = []
    for case in _cases(result, problems):
        if case["reparameterizations"] < 5:
            problems.append(f"{case['name']}: only "
                            f"{case['reparameterizations']} reparameterizations")
        if case["max_change"] > THIN_TOL:
            problems.append(f"{case['name']}: change {case['max_change']:.2e}")
        _guard(result, "transport.thin_max_change", case["max_change"])
    return problems


def gauge(result: Result) -> list:
    """The gauge square holds for the morphism and both 2-morphism twists."""
    problems = []
    cases = _cases(result, problems)
    if len(cases) != 3:
        problems.append(f"expected 3 gauge cases, got {len(cases)}")
    for case in cases:
        if case["square_defect"] > GAUGE_SQUARE_TOL:
            problems.append(f"{case['name']}: square {case['square_defect']:.2e}")
        if case["a_pullback_defect"] > GAUGE_A_TOL:
            problems.append(f"{case['name']}: A pullback "
                            f"{case['a_pullback_defect']:.2e}")
        _guard(result, "morphisms.square_defect", case["square_defect"])
    return problems


def u1_lens_closed_form(c: float, k: float) -> complex:
    """2-transport of the lens of amplitude k under a = c x1 dx2 in u(1):
    the flux of F = c dx1^dx2 through the lens is 4 c k / pi."""
    return cmath.exp(1j * c * 4.0 * k / math.pi)


def u1_cube_closed_form() -> complex:
    """Quotient of the end-bigon 2-transports of the abelian cube."""
    return cmath.exp(1j / 24.0)


def _u1_values(result: Result, problems: list) -> dict:
    values = {}
    for case in _cases(result, problems):
        z = complex(matrix(case["value_h"])[0, 0])
        if abs(abs(z) - 1.0) > MEMBERSHIP_TOL:
            problems.append(f"{case['name']}: |value_h| = {abs(z)!r}")
        values[case["name"]] = z
    return values


def abelian_value(expected: dict):
    """Each named bigon's U(1) 2-transport equals its closed form."""
    def check(result: Result) -> list:
        problems = []
        values = _u1_values(result, problems)
        for name, want in expected.items():
            if name not in values:
                problems.append(f"{name}: missing from report")
                continue
            err = abs(values[name] - want)
            _guard(result, "transport.abelian_ref_err", err)
            if err > CLOSED_FORM_TOL:
                problems.append(f"{name}: off the closed form by {err:.2e}")
        return problems
    return check


def abelian_quotient(first: str, second: str, want: complex):
    """value(second) / value(first) equals the closed form (U(1) is
    abelian, so the order of the quotient does not matter)."""
    def check(result: Result) -> list:
        problems = []
        values = _u1_values(result, problems)
        if first not in values or second not in values:
            return problems + [f"missing {first} or {second}"]
        err = abs(values[second] / values[first] - want)
        _guard(result, "transport.abelian_ref_err", err)
        if err > CLOSED_FORM_TOL:
            problems.append(f"quotient off the closed form by {err:.2e}")
        return problems
    return check


def config_error(path: str):
    """A config error names the offending JSON path on stderr."""
    def check(result: Result) -> list:
        if path in result.stderr:
            return []
        return [f"stderr does not name {path}: {result.stderr.strip()!r}"]
    return check


# --- volume-pu2 ------------------------------------------------------------------


def higher_stokes(names: list):
    """Higher Stokes holds, the quotient lies in ker t, Bianchi holds."""
    def check(result: Result) -> list:
        problems = []
        cases = _cases(result, problems)
        if sorted(c["name"] for c in cases) != sorted(names):
            problems.append(f"cases {[c['name'] for c in cases]} != {names}")
        for case in cases:
            name = case["name"]
            if case["defect"] > HIGHER_STOKES_TOL:
                problems.append(f"{name}: defect {case['defect']:.2e}")
            if case["kernel_defect"] > KERNEL_TOL:
                problems.append(f"{name}: not in ker t "
                                f"({case['kernel_defect']:.2e})")
            if case["bianchi_defect"] > BIANCHI_TOL:
                problems.append(f"{name}: Bianchi {case['bianchi_defect']:.2e}")
            _guard(result, "transport.higher_stokes_defect", case["defect"])
            _guard(result, "forms.bianchi_defect", case["bianchi_defect"])
        return problems
    return check


def fake_flat(points: int):
    """Fake-flatness residual on the full chart grid."""
    def check(result: Result) -> list:
        problems = []
        for case in _cases(result, problems):
            if case["grid_points"] != points:
                problems.append(f"grid has {case['grid_points']} points, "
                                f"expected {points}")
            if case["residual"] > FAKE_FLAT_TOL:
                problems.append(f"residual {case['residual']:.2e}")
            _guard(result, "forms.fake_flat_residual", case["residual"])
        return problems
    return check


def reconstruct_a(result: Result) -> list:
    """Reconstruction within tolerance at all 10 sampled points.

    The report carries only the worst error relative to tolerance, not
    the reconstructed vectors, so this is all of the output there is to
    check.
    """
    problems = []
    for case in _cases(result, problems):
        if case["points"] != 10:
            problems.append(f"{case['points']} points, expected 10")
        if not case["worst_relative_to_tolerance"] <= 1.0:
            problems.append(f"worst {case['worst_relative_to_tolerance']}")
    return problems


# --- exact-finite ----------------------------------------------------------------


def _cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


# The named demo modules, written out here from their definitions so the
# axiom check does not read the program's tables.
_DEMOS = {
    "z2_z3_trivial": (_cyclic(2), 0, _cyclic(3), 0, [0, 0, 0],
                      [[0, 1, 2], [0, 1, 2]]),
    "z4_z4_id": (_cyclic(4), 0, _cyclic(4), 0, [0, 1, 2, 3],
                 [[0, 1, 2, 3]] * 4),
    "z2_z4_peiffer_broken": (_cyclic(2), 0, _cyclic(4), 0, [0, 1, 0, 1],
                             [[0, 1, 2, 3], [0, 3, 2, 1]]),
}


def finite_tables(spec: dict) -> tuple:
    """(G table, G identity, H table, H identity, t, alpha) of a module."""
    if "demo" in spec:
        return _DEMOS[spec["demo"]]
    return (spec["G"]["table"], spec["G"]["identity"],
            spec["H"]["table"], spec["H"]["identity"], spec["t"],
            spec["alpha"])


def axiom_failures(tables) -> dict:
    """Exhaustive crossed-module axioms; first failing witness per axiom."""
    G, eG, H, eH, t, alpha = tables
    ginv = [row.index(eG) for row in G]
    hinv = [row.index(eH) for row in H]
    out = {}
    for g in range(len(G)):
        for h in range(len(H)):
            for hp in range(len(H)):
                if t[alpha[g][h]] != G[G[g][t[h]]][ginv[g]]:
                    out.setdefault("equivariance", (g, h))
                if alpha[t[h]][hp] != H[H[h][hp]][hinv[h]]:
                    out.setdefault("peiffer", (h, hp))
                if t[H[h][hp]] != G[t[h]][t[hp]]:
                    out.setdefault("t_homomorphism", (h, hp))
    return out


def axioms(tables, witness: str | None = None):
    """The report's verdict matches an exhaustive check made here; a
    broken module is rejected with the first failing Peiffer pair."""
    own = axiom_failures(tables)

    def check(result: Result) -> list:
        problems = []
        if result.report is None:
            return ["no report written"]
        case = result.report["cases"][0]
        for axiom in ("equivariance", "peiffer", "t_homomorphism"):
            if (case[axiom] != 0.0) != (axiom in own):
                problems.append(f"{axiom}: report {case[axiom]}, "
                                f"exhaustive check {own.get(axiom, 'holds')}")
        if not own:
            if not case["pass"] or case["interchange_defect"] != 0.0:
                problems.append("valid module not accepted exactly")
        if witness is not None:
            got = case["witnesses"].get("peiffer")
            if got != witness or got != str(own.get("peiffer")):
                problems.append(f"peiffer witness {got}, expected {witness}")
            if case["pass"]:
                problems.append("broken module accepted")
        return problems
    return check


def _laws(result: Result, problems: list) -> dict:
    cases = _cases(result, problems)
    if len(cases) != 1:
        problems.append(f"expected one selftest case, got {len(cases)}")
        return {}
    laws = cases[0]["laws"]
    if set(laws) != SELFTEST_LAWS:
        problems.append(f"law table has {sorted(laws)}")
    bad = {k: v for k, v in laws.items() if v != 0.0}
    if bad:
        problems.append(f"laws not exact: {bad}")
    return laws


def selftest_zero(result: Result) -> list:
    """Every torsor law holds with defect exactly 0."""
    problems = []
    _laws(result, problems)
    return problems


def selftest_previous(result: Result) -> list:
    """Exact laws, and the same law table as the previous pass, which ran
    on the other labelling of the same module."""
    problems = []
    laws = _laws(result, problems)
    prev = result.previous
    if prev is not None and prev.report is not None and \
            laws != prev.report["cases"][0]["laws"]:
        problems.append("law table differs between labellings")
    return problems

"""Seeded inputs and operation lists for the three benchmark workloads.

Every workload is a list of operations.  An operation is one ``gauge2``
command on one generated JSON config, the exit code it must return, and
a check of its outputs that does not use the program's own code.  The
seed changes only constants inside the configs (coefficients,
amplitudes, the relabelling of S3), never grid sizes or step counts, so
every seed costs the same work.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

WORKLOADS = ("surface-su2", "volume-pu2", "exact-finite")

# su(2) coefficient fields of configs/su2_demo.json; the generator scales
# each constant by a seeded factor in [0.5, 1] and a seeded sign, so no
# generated connection is rougher than the demo one.
_SU2_A = [[(0.6, "*x2"), (0.3, ""), (0.1, "*x1")],
          [(0.2, ""), (0.5, "*x1"), (0.3, "*x2")]]
_SU2_G = [(0.4, "*x1"), (0.3, "*x2"), (0.2, "*x1*x2")]
_SU2_PHI = [[(0.2, "*x2"), (0.1, ""), None], [(0.1, "*x1"), None, (0.3, "")]]
_SU2_TWO = [(0.3, "*x2"), (0.2, "*x1"), (0.1, "")]
# so(3) 1-form and ker t_* part of b from configs/u2pu2_higher.json
_PU2_A = [[(0.4, "*x2"), (0.1, ""), (0.1, "*x3")],
          [(0.2, ""), (0.3, "*x1"), (0.1, "")],
          [(0.1, "*x2"), (0.2, ""), (0.2, "*x1")]]
_PU2_B_EXTRA = [(0.5, "*x3"), (0.4, "*x1"), (0.3, "*x2")]

_BOX2 = [[-0.5, 1.5], [-0.5, 1.5]]
_BOX3 = [[-0.5, 1.5], [-0.5, 1.5], [-0.5, 1.5]]


@dataclass
class Op:
    """One gauge2 command on one config, with its expected exit code."""

    name: str
    argv: list
    config: str | tuple       # a tuple is cycled through, one per pass
    expect_exit: int
    check: Callable
    # A fault of the program that makes this operation fail on every
    # input; it is counted in ``failed`` but does not make the run wrong.
    known_fault: str | None = None
    # Short commands run several times in a pass, so that their mean
    # time is steady; each run is one attempted operation of ``group``.
    repeat: int = 1
    group: str = ""

    @property
    def command(self) -> str:
        """Report stem gauge2 writes: ``verify stokes`` -> verify-stokes."""
        return "-".join(self.argv)

    def config_for(self, pass_index: int) -> str:
        if isinstance(self.config, str):
            return self.config
        return self.config[pass_index % len(self.config)]


@dataclass
class Workload:
    name: str
    configs: dict                     # file name -> raw config dict
    ops: list = field(default_factory=list)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _scaled(rng: random.Random, spec):
    """Seeded expression for a (demo constant, monomial) pair."""
    if spec is None:
        return "0"
    value, monomial = spec
    sign = rng.choice((-1.0, 1.0))
    return _num(sign * value * rng.uniform(0.5, 1.0)) + monomial


def _matrix(rng, rows):
    return [[_scaled(rng, spec) for spec in row] for row in rows]


# --- surface-su2 -----------------------------------------------------------------


def _surface_su2(rng: random.Random, seed: int) -> Workload:
    # The lens is narrower than the demo's (k in [0.15, 0.25]), so that
    # thin invariance holds to 1e-7 at 40 path steps rather than 64 and
    # the whole pass stays short.
    k = rng.uniform(0.03, 0.06)
    su2 = {
        "seed": seed,
        "crossed_module": {"matrix": {"family": "su2_id_conj"}},
        "chart": {"dim": 2, "box": _BOX2},
        "connection": {"a": _matrix(rng, _SU2_A), "b": "fake_flat"},
        "bigons": {"lens": ["v", f"v + {_num(k)}*(2*u - 1)*sin(pi*v)"]},
        "morphism": {"g": [_scaled(rng, s) for s in _SU2_G],
                     "phi": _matrix(rng, _SU2_PHI)},
        "two_morphism": {"a": [_scaled(rng, s) for s in _SU2_TWO]},
        "numeric": {"steps": 40, "surface_steps": 16, "sweep": 2},
    }
    # abelian u(1) lens: a = c x1 dx2, so F = c dx1^dx2 and the lens flux
    # gives the closed form exp(i c 4k / pi)
    c = rng.uniform(0.4, 0.9)
    k_ab = rng.uniform(0.15, 0.25)
    u1 = {
        "seed": seed,
        "crossed_module": {"matrix": {"family": "u1_id"}},
        "chart": {"dim": 2, "box": _BOX2},
        "connection": {"a": [["0"], [f"{_num(c)}*x1"]], "b": "fake_flat"},
        "bigons": {"lens": ["v", f"v + {_num(k_ab)}*(2*u - 1)*sin(pi*v)"]},
        "numeric": {"steps": 64, "surface_steps": 32, "sweep": 2},
    }
    # Fixed, seed-independent input for the odd-step fault: an odd
    # surface_steps is a config error (exit 2 naming the JSON path), but
    # the program reaches Simpson quadrature first and exits 3.
    odd = {
        "seed": 20260810,
        "crossed_module": {"matrix": {"family": "su2_id_conj"}},
        "chart": {"dim": 2, "box": _BOX2},
        "connection": {"a": [["0.6*x2", "0.3", "0.1*x1"],
                             ["0.2", "0.5*x1", "0.3*x2"]],
                       "b": "fake_flat"},
        "bigons": {"lens": ["v", "v + 0.25*(2*u - 1)*sin(pi*v)"]},
        "numeric": {"steps": 64, "surface_steps": 49, "sweep": 2},
    }
    closed = checks.u1_lens_closed_form(_parse_num(c), _parse_num(k_ab))
    ops = [
        Op("surface-transport", ["surface-transport"], "su2.json", 0,
           checks.surface_transport_su2),
        Op("verify-stokes", ["verify", "stokes"], "su2.json", 0,
           checks.stokes),
        Op("verify-thin", ["verify", "thin"], "su2.json", 0, checks.thin),
        Op("verify-gauge", ["verify", "gauge"], "su2.json", 0,
           checks.gauge),
        Op("u1-lens", ["surface-transport"], "u1_lens.json", 0,
           checks.abelian_value({"lens": closed}), repeat=2),
        Op("odd-surface-steps", ["surface-transport"], "su2_odd_steps.json",
           2, checks.config_error("numeric.surface_steps"),
           known_fault="odd numeric.surface_steps exits 3 from Simpson "
                       "quadrature instead of 2 with the JSON path"),
    ]
    return Workload("surface-su2", {"su2.json": su2, "u1_lens.json": u1,
                                    "su2_odd_steps.json": odd}, ops)


# --- volume-pu2 ------------------------------------------------------------------


def _volume_pu2(rng: random.Random, seed: int) -> Workload:
    amp = [rng.uniform(0.35, 0.5), rng.uniform(0.45, 0.6),
           rng.uniform(0.3, 0.45), rng.uniform(0.4, 0.55),
           rng.uniform(0.1, 0.2)]
    pu2 = {
        "seed": seed,
        "crossed_module": {"matrix": {"family": "u2_to_pu2"}},
        "chart": {"dim": 3, "box": _BOX3},
        "connection": {
            "a": _matrix(rng, _PU2_A),
            "b": "fake_flat",
            "b_extra": [[_scaled(rng, s), "0", "0", "0"]
                        for s in _PU2_B_EXTRA],
        },
        # u-dependent terms carry v(1-v) sin(pi w), so every u-slice is a
        # bigon between the same two boundary paths
        "cubes": {
            "pillow": ["w", f"{_num(amp[0])}*v*sin(pi*w)",
                       f"{_num(amp[1])}*u*v*(1-v)*sin(pi*w)"],
            "twist": [f"w + {_num(amp[4])}*u*v*(1-v)*sin(pi*w)",
                      f"{_num(amp[2])}*v*sin(pi*w)",
                      f"{_num(amp[3])}*u*v*(1-v)*sin(pi*w)"],
        },
        "numeric": {"steps": 64, "surface_steps": 24, "volume_steps": 16,
                    "sweep": 2, "grid_per_axis": 36},
    }
    # Abelian cube: b = x1 dx2^dx3 gives K = dx1^dx2^dx3, and the cube's
    # Jacobian integrates to -A B / 12, so with A B = 1/2 the quotient of
    # its end-bigon 2-transports is exp(i/24) whatever A is.
    a_amp = rng.uniform(0.4, 0.8)
    b_amp = 0.5 / _parse_num(a_amp)
    A, B = _num(a_amp), repr(b_amp)
    u1 = {
        "seed": seed,
        "crossed_module": {"matrix": {"family": "u1_triv"}},
        "chart": {"dim": 3, "box": _BOX3},
        "connection": {"a": [["0"], ["0"], ["0"]],
                       "b": [["0"], ["0"], ["x1"]]},
        "bigons": {"end0": ["v", f"{A}*u*sin(pi*v)", "0"],
                   "end1": ["v", f"{A}*u*sin(pi*v)",
                            f"{B}*u*(1-u)*sin(pi*v)"]},
        "cubes": {"slab": ["w", f"{A}*v*sin(pi*w)",
                           f"{B}*u*v*(1-v)*sin(pi*w)"]},
        "numeric": {"steps": 64, "surface_steps": 32, "volume_steps": 12,
                    "sweep": 2},
    }
    ops = [
        Op("verify-higher-stokes", ["verify", "higher-stokes"], "pu2.json",
           0, checks.higher_stokes(["pillow", "twist"])),
        Op("verify-fake-flat", ["verify", "fake-flat"], "pu2.json", 0,
           checks.fake_flat(36 ** 3)),
        Op("reconstruct-A", ["reconstruct", "A"], "pu2.json", 0,
           checks.reconstruct_a),
        Op("u1-cube-higher-stokes", ["verify", "higher-stokes"],
           "u1_cube.json", 0, checks.higher_stokes(["slab"]), repeat=2),
        Op("u1-cube-ends", ["surface-transport"], "u1_cube.json", 0,
           checks.abelian_quotient("end0", "end1",
                                   checks.u1_cube_closed_form()), repeat=2),
    ]
    return Workload("volume-pu2", {"pu2.json": pu2, "u1_cube.json": u1}, ops)


# --- exact-finite ----------------------------------------------------------------

_S3 = list(itertools.permutations(range(3)))
# the even permutations, the normal subgroup A3 = Z3 of S3
_A3 = [i for i, p in enumerate(_S3)
       if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]


def _s3_tables():
    """Multiplication and conjugation tables of S3 (permutations of 3)."""
    index = {p: i for i, p in enumerate(_S3)}

    def mul(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inv(a):
        out = [0, 0, 0]
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    table = [[index[mul(a, b)] for b in _S3] for a in _S3]
    conj = [[index[mul(mul(g, h), inv(g))] for h in _S3] for g in _S3]
    return table, conj


def s3_module(h_elements=None, sigma=None, tau=None) -> dict:
    """S3 acting by conjugation on a normal subgroup H, with t the
    inclusion, as explicit config tables.

    ``h_elements`` lists the S3 indices that make up H (all of S3, so
    t = id, by default; ``_A3`` for S3 -> A3).  ``sigma`` relabels the
    elements of G and ``tau`` those of H (lists mapping canonical index
    -> new index); identity labels by default.
    """
    h_elements = h_elements or list(range(len(_S3)))
    n, m = len(_S3), len(h_elements)
    sigma = sigma or list(range(n))
    tau = tau or list(range(m))
    table, conj = _s3_tables()
    pos = {g: i for i, g in enumerate(h_elements)}
    h_table = [[pos[table[a][b]] for b in h_elements] for a in h_elements]

    def relabel(tab, perm):
        k = len(perm)
        out = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                out[perm[a]][perm[b]] = perm[tab[a][b]]
        return out

    t = [0] * m
    alpha = [[0] * m for _ in range(n)]
    for h, g in enumerate(h_elements):
        t[tau[h]] = sigma[g]
    for g in range(n):
        for h, gh in enumerate(h_elements):
            alpha[sigma[g]][tau[h]] = tau[pos[conj[g][gh]]]
    return {"G": {"table": relabel(table, sigma), "identity": sigma[0]},
            "H": {"table": relabel(h_table, tau), "identity": tau[0]},
            "t": t, "alpha": alpha}


def _exact_finite(rng: random.Random, seed: int) -> Workload:
    sigma, tau, tau_a3 = list(range(6)), list(range(6)), list(range(3))
    for perm in (sigma, tau, tau_a3):
        rng.shuffle(perm)

    def finite(spec):
        return {"seed": seed, "crossed_module": {"finite": spec}}

    configs = {
        "s3_a3.json": finite(s3_module(_A3)),
        "s3_a3_relabelled.json": finite(s3_module(_A3, sigma, tau_a3)),
        "s3_relabelled.json": finite(s3_module(None, sigma, tau)),
        "z2_z3.json": finite({"demo": "z2_z3_trivial"}),
        "z4_z4.json": finite({"demo": "z4_z4_id"}),
        "z2_z4_broken.json": finite({"demo": "z2_z4_peiffer_broken"}),
    }
    tables = {name: checks.finite_tables(cfg["crossed_module"]["finite"])
              for name, cfg in configs.items()}
    # The non-abelian self-test runs on S3 -> A3: on S3 -> S3 one call
    # takes 10-15 s, too long to time more than twice in a run.  Passes
    # alternate between the canonical and the relabelled tables, and each
    # pass compares its law table with the previous pass's.
    ops = [
        Op("s3-a3-selftest", ["torsor-selftest"],
           ("s3_a3.json", "s3_a3_relabelled.json"), 0,
           checks.selftest_previous),
        Op("s3-a3-relabelled-axioms", ["check-crossed-module"],
           "s3_a3_relabelled.json", 0,
           checks.axioms(tables["s3_a3_relabelled.json"]), repeat=2),
        Op("s3-relabelled-axioms", ["check-crossed-module"],
           "s3_relabelled.json", 0,
           checks.axioms(tables["s3_relabelled.json"])),
        Op("z2-z3-selftest", ["torsor-selftest"], "z2_z3.json", 0,
           checks.selftest_zero, repeat=2),
        Op("z2-z3-axioms", ["check-crossed-module"], "z2_z3.json", 0,
           checks.axioms(tables["z2_z3.json"]), repeat=2),
        Op("z4-z4-selftest", ["torsor-selftest"], "z4_z4.json", 0,
           checks.selftest_zero),
        Op("z4-z4-axioms", ["check-crossed-module"], "z4_z4.json", 0,
           checks.axioms(tables["z4_z4.json"]), repeat=2),
        Op("z2-z4-broken-axioms", ["check-crossed-module"],
           "z2_z4_broken.json", 3,
           checks.axioms(tables["z2_z4_broken.json"], witness="(1, 1)"),
           repeat=2),
    ]
    return Workload("exact-finite", configs, ops)


def _parse_num(x: float) -> float:
    """The value a generated config actually carries for ``x``."""
    return float(_num(x))


_GENERATORS = {"surface-su2": _surface_su2, "volume-pu2": _volume_pu2,
             "exact-finite": _exact_finite}


def build(name: str, seed: int) -> Workload:
    """The workload's configs and operations for one seed."""
    rng = random.Random(f"{name}:{seed}")
    # gauge2 seeds numpy generators with the config seed, which must not
    # be negative
    workload = _GENERATORS[name](rng, seed % 2 ** 32)
    workload.ops = [
        dataclasses.replace(op, name=f"{op.name}.{k}" if op.repeat > 1
                            else op.name, repeat=1, group=op.name)
        for op in workload.ops for k in range(op.repeat)]
    return workload

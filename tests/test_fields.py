"""``gauge2.fields.jet``, the one derivative entry point.

An object with a ``jet`` of its own (a CoefficientField, a ParamMap)
gives its values and partials, and takes no stencil; any other callable
is called once on the points and differenced by one stencil.
"""

import numpy as np
import pytest

from gauge2 import fields
from gauge2.fields import CoefficientField
from gauge2.geometry import ParamMap, straight_path

A = [["0.4*x2", "sin(x1*x3)"], ["0.3*x1*x2", "-x3"], ["exp(0.2*x1)", "0"]]
STENCIL = fields.directional_diff


@pytest.fixture
def stencilled(monkeypatch):
    """The objects ``fields.directional_diff`` is called on, with the
    number of points and of directions of each call."""
    calls = []

    def recording(fn, points, directions, *args):
        calls.append((fn, len(points), len(directions)))
        return STENCIL(fn, points, directions, *args)

    monkeypatch.setattr(fields, "directional_diff", recording)
    return calls


def _bits(pair):
    return [np.asarray(x).tobytes() for x in pair]


def _exact_objects():
    field = CoefficientField(A, 3, (3, 2))
    lens = ParamMap.from_exprs(["v", "v + 0.25*(2*u - 1)*sin(pi*v)"], 2)
    pillow = ParamMap.from_exprs(["w", "0.3*u*v", "0.2*v*sin(pi*w)*u"], 3)
    return [(field, 3), (lens, 2), (pillow.slice_first(0.5), 2),
            (lens.affine_image([0.1, 0.2], [[1.0, 0.5], [0.0, 2.0]]), 2),
            (straight_path([0.0, 1.0], [2.0, -1.0]), 1)]


@pytest.mark.parametrize("index", range(5), ids=[
    "coefficient-field", "dsl-bigon", "sliced-cube", "affine-bigon",
    "straight-path"])
def test_jet_of_an_object_with_a_jet_is_its_own_jet(stencilled, index):
    fn, d = _exact_objects()[index]
    pts = np.random.default_rng(3).uniform(0.1, 0.9, size=(7, d))
    subsets = [None, tuple(range(d)), tuple(reversed(range(d))), (d - 1,)]
    for axes in subsets:
        assert _bits(fields.jet(fn, pts, axes)) == _bits(fn.jet(pts, axes))
    values, partials = fields.jet(fn, pts)
    assert partials.shape[:2] == (7, d)
    order = tuple(reversed(range(d)))
    assert fields.jet(fn, pts, order)[1].tobytes() == \
        partials[:, list(order)].tobytes()
    assert stencilled == [], [repr(f) for f, _, _ in stencilled]


def test_jet_of_a_plain_callable_is_one_call_and_one_stencil(stencilled):
    field = CoefficientField(A, 3, (3, 2))
    sizes = []

    def plain(points):
        sizes.append(len(points))
        return field(points)

    pts = np.random.default_rng(4).uniform(0.2, 0.8, size=(6, 3))
    for axes, k in ((None, 3), ((2, 0), 2)):
        sizes.clear()
        stencilled.clear()
        values, partials = fields.jet(plain, pts, axes, step=2e-3)
        # the points once, then 4 shifted copies per axis in one call
        assert sizes == [6, 4 * k * 6]
        assert stencilled == [(plain, 6, k)]
        assert values.tobytes() == field(pts).tobytes()
        assert partials.shape == (6, k, 3, 2)
        eye = np.eye(3) if axes is None else np.eye(3)[list(axes)]
        assert partials.tobytes() == STENCIL(plain, pts, eye, 2e-3).tobytes()
        assert np.max(np.abs(partials - field.jet(pts, axes)[1])) <= 1e-9

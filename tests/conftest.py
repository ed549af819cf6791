import pytest

from gauge2 import fields

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

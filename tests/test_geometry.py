import numpy as np
import pytest

from gauge2 import fields
from gauge2.errors import ComposabilityError, DomainError
from gauge2.geometry import (Chart, ParamMap, check_cube_boundaries,
                             reparameterize, source_path, straight_path,
                             target_path)


def test_chart_validation():
    with pytest.raises(DomainError):
        Chart(0)
    chart = Chart(2, box=[[0, 1], [0, 2]])
    assert chart.scale == 2.0


def test_from_exprs_variable_guard():
    with pytest.raises(DomainError):
        ParamMap.from_exprs(["u + v"], 1)
    pm = ParamMap.from_exprs(["u", "sin(pi*u)"], 1)
    assert pm.dim == 2 and pm.arity == 1


def test_partial_derivative_order_at_least_39():
    # a plain callable takes the stencil of fields.jet, at the step asked for
    exprs = ParamMap.from_exprs(["sin(pi*u)*v", "u^3 + exp(v)"], 2)

    def plain(params):
        return exprs(params)

    pts = np.array([[0.3, 0.4], [0.6, 0.2], [0.45, 0.7]])
    exact = np.stack([np.pi * np.cos(np.pi * pts[:, 0]) * pts[:, 1],
                      3 * pts[:, 0] ** 2], axis=-1)
    errs = []
    for h in (2e-2, 1e-2):
        partial = fields.jet(plain, pts, (0,), step=h)[1][:, 0]
        errs.append(np.max(np.abs(partial - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.9


def test_expression_maps_carry_exact_partials():
    cube = ParamMap.from_exprs(["w*u", "sin(pi*v)*w", "u^3 - exp(v*w)"], 3)
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 1, size=(9, 3))
    u, v, w = p.T
    jac = np.stack([np.stack([w, 0 * u, 3 * u * u], -1),
                    np.stack([0 * u, np.pi * np.cos(np.pi * v) * w,
                              -w * np.exp(v * w)], -1),
                    np.stack([u, np.sin(np.pi * v), -v * np.exp(v * w)], -1)])
    for k in range(3):
        assert np.max(np.abs(cube.partial(k, p) - jac[k])) <= 1e-13
    assert np.max(np.abs(cube.partial(2, p[0]) - jac[2][0])) <= 1e-13
    # slicing and affine images keep the exact partials
    end = cube.slice_first(0.25)
    vw = p[:, 1:]
    want = np.stack([0 * vw[:, 0],
                     np.pi * np.cos(np.pi * vw[:, 0]) * vw[:, 1],
                     -vw[:, 1] * np.exp(vw[:, 0] * vw[:, 1])], -1)
    assert np.max(np.abs(end.partial(0, vw) - want)) <= 1e-13
    # a negative axis counts from the end of the slice's own parameters
    assert np.array_equal(end.partial(-1, vw), end.partial(1, vw))
    assert np.array_equal(end.jet(vw, (-1,))[1], end.jet(vw)[1][:, 1:])
    with pytest.raises(IndexError):
        end.jet(vw, (2,))
    basis = rng.normal(size=(3, 2))
    image = cube.affine_image(np.array([0.1, 0.2]), basis)
    assert np.max(np.abs(image.partial(1, p) - jac[1] @ basis)) <= 1e-13


def test_reparameterized_bigon_jet_is_the_chain_rule():
    """D(sigma o phi) = D phi @ D sigma(phi) for DSL sigma and phi: the
    analytic Jacobian to roundoff, the stencil of the composite to finite-
    difference error."""
    sigma = ParamMap.from_exprs(["v", "v + 0.25*(2*u - 1)*sin(pi*v)"], 2)
    phi_exprs = ["u^2*(3-2*u)", "v^2*(3-2*v)"]
    phi = ParamMap.from_exprs(phi_exprs, 2)
    composite = reparameterize(sigma, phi)
    uv = np.random.default_rng(4).uniform(0, 1, size=(40, 2))
    values, jac = composite.jet(uv)
    u, v = uv.T
    p, q = u * u * (3 - 2 * u), v * v * (3 - 2 * v)
    dp, dq = 6 * u * (1 - u), 6 * v * (1 - v)
    want = np.stack([np.stack([0 * u, 0.5 * dp * np.sin(np.pi * q)], -1),
                     np.stack([dq, dq + 0.25 * (2 * p - 1) * np.pi
                               * np.cos(np.pi * q) * dq], -1)], axis=1)
    assert np.max(np.abs(values - sigma(np.stack([p, q], -1)))) <= 1e-15
    assert np.max(np.abs(jac - want)) <= 1e-13
    # a call is the values of the jet, bit for bit
    assert np.array_equal(composite(uv), values)
    fd = fields.directional_diff(composite, uv, np.eye(2))
    assert np.max(np.abs(fd - jac)) <= 1e-9
    # only the axes asked for
    assert np.array_equal(composite.jet(uv, (1,))[1][:, 0], jac[:, 1])


def test_straight_path_jet_is_constant():
    a, b = np.array([0.2, -1.0, 3.0]), np.array([1.0, 0.5, 2.0])
    values, partials = straight_path(a, b).jet(np.linspace(0, 1, 5)[:, None])
    assert np.allclose(values[[0, -1]], [a, b], rtol=0, atol=1e-15)
    assert np.array_equal(partials, np.broadcast_to(b - a, (5, 1, 3)))


def piece(pm, exprs):
    return pm.compose_params(ParamMap.from_exprs(exprs, pm.arity))


def test_concat_preserves_endpoints_and_midpoint():
    """The halves of a path start and end where it does, and meet bit for
    bit at its midpoint."""
    gamma = ParamMap.from_exprs(["0.9*u", "0.2*u + 0.3*sin(pi*u)"], 1)
    first, second = piece(gamma, ["u/2"]), piece(gamma, ["(1+u)/2"])
    ends = np.array([[0.0], [1.0]])
    assert np.array_equal(first(ends), gamma([[0.0], [0.5]]))
    assert np.array_equal(second(ends), gamma([[0.5], [1.0]]))


SLAB = ["v", "0.6*u*sin(pi*v)"]


def test_vertical_composition_boundary_checks():
    """The lower half of a bigon starts on its source path and the upper
    half ends on its target path, and the halves meet bit for bit."""
    slab = ParamMap.from_exprs(SLAB, 2)
    lower, upper = piece(slab, ["u/2", "v"]), piece(slab, ["(1+u)/2", "v"])
    v = np.linspace(0.0, 1.0, 17)[:, None]
    assert np.array_equal(source_path(lower)(v), source_path(slab)(v))
    assert np.array_equal(target_path(lower)(v), source_path(upper)(v))
    assert np.array_equal(target_path(upper)(v), target_path(slab)(v))


def test_horizontal_composition_boundary_checks():
    """Split at v = 1/2, where its line is one point, a pinched bigon gives
    two bigons: the first's paths end at that point, where the second's
    start, and the second's end where the whole's do."""
    pinched = ParamMap.from_exprs(["v", "0.4*u*sin(pi*v)*sin(2*pi*v)"], 2)
    first, second = piece(pinched, ["u", "v/2"]), piece(pinched, ["u", "(1+v)/2"])
    u = np.linspace(0.0, 1.0, 17)
    start, end = (np.stack([u, np.full_like(u, v)], -1) for v in (0.0, 1.0))
    assert np.array_equal(first(start), pinched(start))
    assert np.array_equal(first(end), second(start))
    assert np.max(np.abs(first(end) - [0.5, 0.0])) <= 1e-16
    assert np.array_equal(second(end), pinched(end))


# a DSL bigon between two arcs from the origin to (0.7, 0.7)
LENS = ["0.7*v", "0.7*v + 0.2*(2*u - 1)*sin(pi*v)"]


def test_reparameterize_identity_and_example():
    cb = ParamMap.from_exprs(LENS, 2)
    ident = reparameterize(cb, ParamMap.from_exprs(["u", "v"], 2))
    pts = np.random.default_rng(2).uniform(0, 1, (32, 2))
    assert np.max(np.abs(ident(pts) - cb(pts))) == 0.0
    warped = reparameterize(cb, ParamMap.from_exprs(["u^2", "v"], 2))
    assert np.max(np.abs(warped(pts) - cb(np.stack(
        [pts[:, 0] ** 2, pts[:, 1]], -1)))) == 0.0


def test_reparameterize_rejects_boundary_movers():
    cb = ParamMap.from_exprs(LENS, 2)
    with pytest.raises(DomainError, match="fix the boundary"):
        reparameterize(cb, ParamMap.from_exprs(["u/2 + 0.25", "v"], 2))
    with pytest.raises(DomainError, match="fix the boundary"):
        reparameterize(cb, ParamMap.from_exprs(["1 - u", "v"], 2))
    # an interior fold fixes every face but reverses orientation locally
    with pytest.raises(DomainError, match="orientation"):
        reparameterize(cb, ParamMap.from_exprs(
            ["u + 0.5*sin(2*pi*u)", "v"], 2))


def test_reverse_bigon_swaps_paths():
    s = ParamMap.from_exprs(SLAB, 2)
    r = piece(s, ["1-u", "v"])
    v = np.linspace(0, 1, 9)[:, None]
    assert np.array_equal(source_path(r)(v), target_path(s)(v))
    assert np.array_equal(target_path(r)(v), source_path(s)(v))


@pytest.mark.parametrize("exprs,message", [
    (["w", "u*(1 - v)", "0"], "source/target paths at face 0"),
    (["w", "u*v*sin(pi*w)", "0"], "source/target paths at face 1"),
    (["w + 0.1*u*v*(1 - v)*w", "0", "0"], "path endpoints at face 1"),
])
def test_cube_boundaries_take_one_evaluation_and_name_the_failing_face(
        exprs, message):
    calls = []
    cube = ParamMap.from_exprs(exprs, 3, name="bad")
    counted = ParamMap(3, 3, lambda p, axes: calls.append(len(p))
                       or cube.jet(p, axes))
    with pytest.raises(ComposabilityError, match=message):
        check_cube_boundaries(counted)
    # the four faces, and the same points on the u = 0 slice, 9 x 9 each
    assert calls == [2 * 4 * 81]
    check_cube_boundaries(ParamMap.from_exprs(["w", "v*sin(pi*w)", "0"], 3))

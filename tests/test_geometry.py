import numpy as np
import pytest

from gauge2.errors import ComposabilityError, DomainError
from gauge2.geometry import (Chart, ParamMap, canonical_bigon,
                             check_cube_boundaries, compose_bigons_horizontal,
                             compose_bigons_vertical, concat_paths,
                             reparameterize, reverse_bigon, smooth_step,
                             source_path, straight_path, target_path)


def test_chart_validation():
    with pytest.raises(DomainError):
        Chart(0)
    chart = Chart(2, box=[[0, 1], [0, 2]])
    assert chart.scale == 2.0


def test_smooth_step_is_flat_at_the_ends():
    assert smooth_step(0.05) == 0.0
    assert smooth_step(0.96) == 1.0
    x = np.linspace(0.12, 0.88, 33)
    s = smooth_step(x)
    assert np.all(np.diff(s) > 0)


def test_from_exprs_variable_guard():
    with pytest.raises(DomainError):
        ParamMap.from_exprs(["u + v"], 1)
    pm = ParamMap.from_exprs(["u", "sin(pi*u)"], 1)
    assert pm.dim == 2 and pm.arity == 1


def test_partial_derivative_order_at_least_39():
    # the map behind a plain callable, so partial takes the stencil
    exprs = ParamMap.from_exprs(["sin(pi*u)*v", "u^3 + exp(v)"], 2)
    pm = ParamMap(2, 2, lambda params: exprs(params))
    pts = np.array([[0.3, 0.4], [0.6, 0.2], [0.45, 0.7]])
    exact = np.stack([np.pi * np.cos(np.pi * pts[:, 0]) * pts[:, 1],
                      3 * pts[:, 0] ** 2], axis=-1)
    errs = []
    for h in (2e-2, 1e-2):
        errs.append(np.max(np.abs(pm.partial(0, pts, step=h) - exact)))
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
    assert end._jet is not None
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
    # other derived maps take the stencil
    assert cube.compose_params(lambda q: q)._jet is None


def test_reparameterized_bigon_jet_is_the_chain_rule():
    """D(sigma o phi) = D phi @ D sigma(phi) for DSL sigma and phi: the
    analytic Jacobian to roundoff, the stencil of the composite to finite-
    difference error; a phi given as a plain callable takes the stencil."""
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
    stencilled = ParamMap(2, 2, lambda params: composite(params))
    assert stencilled._jet is None
    fd_values, fd = stencilled.jet(uv)
    assert np.array_equal(fd_values, values)
    assert np.max(np.abs(fd - jac)) <= 1e-9
    # only the axes asked for
    assert np.array_equal(composite.jet(uv, (1,))[1][:, 0], jac[:, 1])
    assert np.array_equal(stencilled.jet(uv, (1,))[1][:, 0], fd[:, 1])
    plain = reparameterize(sigma, lambda params: phi(params))
    assert plain._jet is None
    assert np.max(np.abs(plain.jet(uv)[1] - jac)) <= 1e-9


def test_straight_path_jet_is_constant():
    a, b = np.array([0.2, -1.0, 3.0]), np.array([1.0, 0.5, 2.0])
    values, partials = straight_path(a, b).jet(np.linspace(0, 1, 5)[:, None])
    assert np.allclose(values[[0, -1]], [a, b], rtol=0, atol=1e-15)
    assert np.array_equal(partials, np.broadcast_to(b - a, (5, 1, 3)))


def test_concat_preserves_endpoints_and_midpoint():
    g1 = straight_path([0.0, 0.0], [1.0, 0.0])
    g2 = straight_path([1.0, 0.0], [1.0, 1.0])
    c = concat_paths(g1, g2)
    assert np.allclose(c([0.0]), [0.0, 0.0])
    assert np.allclose(c([1.0]), [1.0, 1.0])
    assert np.allclose(c([0.5]), [1.0, 0.0])
    # piecewise evaluation stays on the two segments
    for u in np.linspace(0, 1, 21):
        x, y = c([u])
        assert (abs(y) < 1e-12) or (abs(x - 1) < 1e-12)


def test_concat_rejects_gap():
    g1 = straight_path([0.0, 0.0], [1.0, 0.0])
    g3 = straight_path([2.0, 0.0], [3.0, 0.0])
    with pytest.raises(DomainError, match="endpoint mismatch"):
        concat_paths(g1, g3)


def test_concat_has_sitting_instants():
    g1 = straight_path([0.0, 0.0], [1.0, 0.0])
    g2 = straight_path([1.0, 0.0], [1.0, 1.0])
    c = concat_paths(g1, g2)
    assert np.max(np.abs(c.partial(0, np.array([[0.02], [0.5], [0.98]])))) \
        <= 1e-12


def test_canonical_bigon_degenerate_and_corners():
    z = canonical_bigon(0.0, 0.0)
    uv = np.random.default_rng(0).uniform(0, 1, (64, 2))
    assert np.max(np.abs(z(uv))) == 0.0
    cb = canonical_bigon(0.8, 0.6)
    assert np.allclose(cb([0.0, 0.0]), [0, 0])
    assert np.allclose(cb([1.0, 1.0]), [0.8, 0.6])
    # source path runs along axis 1 first, target along axis 2 first
    src, tgt = source_path(cb), target_path(cb)
    assert np.allclose(src([0.4]), [cb([0.0, 0.4])[0], 0.0])
    assert tgt([0.4])[0] == 0.0


def test_canonical_bigon_image_is_the_rectangle():
    cb = canonical_bigon(0.8, 0.6)
    rng = np.random.default_rng(1)
    pts = cb(rng.uniform(0, 1, (4000, 2)))
    assert np.all(pts >= -1e-9)
    assert np.all(pts[:, 0] <= 0.8 + 1e-9)
    assert np.all(pts[:, 1] <= 0.6 + 1e-9)
    # containment the other way: every cell of a coarse cover is hit
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1],
                                bins=[6, 6], range=[[0, 0.8], [0, 0.6]])
    assert np.all(hist > 0)


def test_canonical_bigon_rejects_bad_extents():
    with pytest.raises(DomainError):
        canonical_bigon(1.2, 0.5)


def _bulge(lo, hi):
    def fn(params):
        u = params[..., 0][..., None]
        v = params[..., 1][..., None]
        w = (1 - u) * lo + u * hi
        return np.concatenate([v, w * np.sin(np.pi * v)], axis=-1)
    return ParamMap(2, 2, fn, name=f"bulge{lo}-{hi}")


def test_vertical_composition_boundary_checks():
    s1, s2 = _bulge(0.0, 0.3), _bulge(0.3, 0.6)
    comp = compose_bigons_vertical(s1, s2)
    v = np.linspace(0, 1, 9)
    assert np.allclose(comp(np.stack([np.zeros(9), v], -1)),
                       s1(np.stack([np.zeros(9), v], -1)))
    assert np.allclose(comp(np.stack([np.ones(9), v], -1)),
                       s2(np.stack([np.ones(9), v], -1)))
    with pytest.raises(DomainError, match="boundary mismatch"):
        compose_bigons_vertical(s1, _bulge(0.5, 0.9))


def test_horizontal_composition_boundary_checks():
    def half(shift):
        def fn(params):
            u = params[..., 0][..., None]
            v = params[..., 1][..., None]
            return np.concatenate(
                [shift + 0.5 * v, 0.3 * u * v * (1 - v)], axis=-1)
        return ParamMap(2, 2, fn, name="half")

    comp = compose_bigons_horizontal(half(0.0), half(0.5))
    assert np.allclose(comp([0.3, 0.0]), [0.0, 0.0])
    assert np.allclose(comp([0.3, 1.0]), [1.0, 0.0])
    bad = _bulge(0.0, 0.4)   # starts at the origin, not at (0.5, 0)
    with pytest.raises(DomainError, match="endpoint mismatch"):
        compose_bigons_horizontal(half(0.0), bad)


def test_smoothing_never_moves_boundary_values():
    s1, s2 = _bulge(0.0, 0.3), _bulge(0.3, 0.6)
    comp = compose_bigons_vertical(s1, s2)
    v = np.linspace(0.0, 1.0, 17)
    for u in (0.0, 1.0):
        params = np.stack([np.full_like(v, u), v], axis=-1)
        ref = (s1 if u == 0.0 else s2)(params)
        assert np.max(np.abs(comp(params) - ref)) == 0.0
    # endpoints of every slice are pinned
    u = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(comp(np.stack([u, np.zeros_like(u)], -1)))) <= 1e-15


def test_reparameterize_identity_and_example():
    cb = canonical_bigon(0.7, 0.7)
    ident = reparameterize(cb, ParamMap.from_exprs(["u", "v"], 2))
    pts = np.random.default_rng(2).uniform(0, 1, (32, 2))
    assert np.max(np.abs(ident(pts) - cb(pts))) == 0.0
    warped = reparameterize(cb, ParamMap.from_exprs(["u^2", "v"], 2))
    assert np.max(np.abs(warped(pts) - cb(np.stack(
        [pts[:, 0] ** 2, pts[:, 1]], -1)))) == 0.0


def test_reparameterize_rejects_boundary_movers():
    cb = canonical_bigon(0.7, 0.7)
    with pytest.raises(DomainError, match="fix the boundary"):
        reparameterize(cb, ParamMap.from_exprs(["u/2 + 0.25", "v"], 2))
    with pytest.raises(DomainError, match="fix the boundary"):
        reparameterize(cb, ParamMap.from_exprs(["1 - u", "v"], 2))
    # an interior fold fixes every face but reverses orientation locally
    with pytest.raises(DomainError, match="orientation"):
        reparameterize(cb, ParamMap.from_exprs(
            ["u + 0.5*sin(2*pi*u)", "v"], 2))


def test_reverse_bigon_swaps_paths():
    s = _bulge(0.0, 0.5)
    r = reverse_bigon(s)
    v = np.linspace(0, 1, 9)
    assert np.allclose(source_path(r)(v[:, None]), target_path(s)(v[:, None]))


@pytest.mark.parametrize("exprs,message", [
    (["w", "u*(1 - v)", "0"], "source/target paths at face 0"),
    (["w", "u*v*sin(pi*w)", "0"], "source/target paths at face 1"),
    (["w + 0.1*u*v*(1 - v)*w", "0", "0"], "path endpoints at face 1"),
])
def test_cube_boundaries_take_one_evaluation_and_name_the_failing_face(
        exprs, message):
    calls = []
    cube = ParamMap.from_exprs(exprs, 3, name="bad")
    counted = ParamMap(3, 3, lambda p: calls.append(len(p)) or cube(p))
    with pytest.raises(ComposabilityError, match=message):
        check_cube_boundaries(counted)
    # the four faces, and the same points on the u = 0 slice, 9 x 9 each
    assert calls == [2 * 4 * 81]
    check_cube_boundaries(ParamMap.from_exprs(["w", "v*sin(pi*w)", "0"], 3))

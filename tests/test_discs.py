"""Disc evaluation, quadratures, root finding, and harmonic machinery."""
import math

import numpy as np
import pytest

from discenv import kernels
from discenv.discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                           CompositeDisc, boundary_lognorms, circle_mean,
                           disc_values, eval_disc, fs_pullback_density,
                           harmonic_extension_and_conjugate,
                           holomorphic_completion_coeffs, random_disc,
                           riesz_area_term, roots_in_unit_disc,
                           validation_grid, winding_number)
from discenv.errors import (BoundaryZeroError, NumericalError,
                            OriginViolation)


def disc_1t():
    return AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))


# ---------------------------------------------------------------------------
# eval_disc


def test_eval_constant_disc():
    d = AnalyticDiscLift(np.array([[1.0, 0.0]], dtype=complex))
    assert np.allclose(d(1j), [1.0, 0.0])


def test_eval_center_exact():
    assert np.allclose(disc_1t()(0.0), [1.0, 0.0])


def test_eval_coefficient_sum():
    assert np.allclose(disc_1t()(1.0), [1.0, 1.0])


def test_eval_outside_disc_rejected():
    with pytest.raises(ValueError):
        disc_1t()(1.1)


def test_eval_origin_violation():
    d = AnalyticDiscLift(np.array([[1.0], [-1.0]], dtype=complex),
                         delta_min=1e-2)
    with pytest.raises(OriginViolation):
        d(1.0)


def test_disc_json_roundtrip():
    rng = np.random.default_rng(0)
    d = random_disc(rng, 3, 4)
    d2 = AnalyticDiscLift.from_json(d.to_json())
    assert np.allclose(d.coeffs, d2.coeffs)


def test_validate_min_norm():
    d = disc_1t()
    assert d.validate() >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# circle_mean


def test_circle_mean_constant():
    g = BoundaryGrid(64)
    assert circle_mean(np.ones(64)) == 1.0
    assert g.weights.sum() == pytest.approx(1.0)


def test_circle_mean_cosine():
    grid = BoundaryGrid(128)
    assert circle_mean(np.real(grid.nodes)) == pytest.approx(0.0, abs=1e-14)


def test_circle_mean_log_distance():
    # mean of log|t - 2| over T is log 2 (harmonic outside the disc);
    # cross-checked against a dense quadrature
    grid = BoundaryGrid(1024)
    vals = np.log(np.abs(grid.nodes - 2.0))
    assert circle_mean(vals) == pytest.approx(math.log(2.0), abs=1e-13)
    dense = BoundaryGrid(1 << 20)
    ref = circle_mean(np.log(np.abs(dense.nodes - 2.0)))
    assert circle_mean(vals) == pytest.approx(ref, abs=1e-12)


def test_circle_mean_exact_for_trig_polys():
    grid = BoundaryGrid(64)
    theta = np.angle(grid.nodes)
    g = 1.0 + np.cos(5 * theta) - 2.0 * np.sin(17 * theta)
    assert circle_mean(g) == pytest.approx(1.0, abs=1e-14)


def test_circle_mean_neg_inf_propagates():
    s = np.zeros(16)
    s[3] = -np.inf
    assert circle_mean(s) == -np.inf


def test_circle_mean_nan_rejected():
    s = np.zeros(16)
    s[3] = np.nan
    with pytest.raises(NumericalError):
        circle_mean(s)


# ---------------------------------------------------------------------------
# Fubini-Study pullback density


def _fd_laplacian(f, t, h=1e-4):
    return (f(t + h) + f(t - h) + f(t + 1j * h) + f(t - 1j * h)
            - 4.0 * f(t)) / h ** 2


def test_density_constant_disc():
    d = AnalyticDiscLift(np.array([[2.0, 1.0]], dtype=complex))
    assert fs_pullback_density(d, 0.3 + 0.2j) == pytest.approx(0.0)


def test_density_against_finite_differences():
    d = disc_1t()

    def lognorm(t):
        return 0.5 * np.log(1.0 + abs(t) ** 2)

    assert fs_pullback_density(d, 0.0) == pytest.approx(
        _fd_laplacian(lognorm, 0.0), abs=1e-6)
    t1 = np.exp(0.7j) * 0.999  # just inside so FD stencil stays in the disc
    assert fs_pullback_density(d, t1) == pytest.approx(
        _fd_laplacian(lognorm, t1), abs=1e-6)


def test_density_values_1t():
    d = disc_1t()
    assert fs_pullback_density(d, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert fs_pullback_density(d, np.exp(1.3j)) == pytest.approx(0.5, abs=1e-12)


def test_density_random_disc_vs_fd():
    rng = np.random.default_rng(5)
    d = random_disc(rng, 3, 4)

    def lognorm(t):
        v = d(t)
        return 0.5 * math.log(float(np.vdot(v, v).real))

    for t in (0.1 + 0.2j, -0.4, 0.3j):
        assert fs_pullback_density(d, t) == pytest.approx(
            _fd_laplacian(lognorm, t), rel=1e-4, abs=1e-4)


def test_density_nonnegative_on_quadrature():
    rng = np.random.default_rng(8)
    quad = AreaQuadrature(32, 64)
    for _ in range(5):
        d = random_disc(rng, 2, 5)
        dens = fs_pullback_density(d, quad.nodes)
        assert np.all(dens >= 0.0)


# ---------------------------------------------------------------------------
# area quadrature + Riesz term


def test_area_quadrature_total_area():
    q = AreaQuadrature(8, 16)
    assert q.integral(np.ones(q.nodes.size)) == pytest.approx(math.pi,
                                                              abs=1e-12)


def test_area_quadrature_log_moment():
    q = AreaQuadrature(32, 16)
    assert q.integral(q.log_r) / math.pi == pytest.approx(-0.5, abs=1e-10)


def test_area_quadrature_polynomial_moment():
    # int_D |t|^2 dA = pi/2
    q = AreaQuadrature(16, 32)
    assert q.integral(np.abs(q.nodes) ** 2) == pytest.approx(math.pi / 2,
                                                             abs=1e-12)


def test_riesz_constant_disc():
    d = AnalyticDiscLift(np.array([[1.0, 2.0]], dtype=complex))
    assert riesz_area_term(d) == pytest.approx(0.0, abs=1e-14)


def test_riesz_disc_1t():
    assert riesz_area_term(disc_1t()) == pytest.approx(-0.5 * math.log(2.0),
                                                       abs=1e-10)


def test_riesz_disc_2t():
    d = AnalyticDiscLift(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
    ref = math.log(2.0) - 0.5 * math.log(5.0)
    assert riesz_area_term(d) == pytest.approx(ref, abs=1e-10)


def test_riesz_identity_random():
    rng = np.random.default_rng(21)
    grid = BoundaryGrid()
    for _ in range(5):
        d = random_disc(rng, 3, 5)
        rhs = math.log(float(np.linalg.norm(d.center))) - \
            circle_mean(boundary_lognorms(d, grid))
        assert riesz_area_term(d) == pytest.approx(rhs, abs=1e-6)


def _riesz_pointwise(disc, quad):
    """riesz_area_term through the flat node list, one density per node."""
    return quad.integral(quad.log_r * fs_pullback_density(disc, quad.nodes)) / (
        2.0 * math.pi)


@pytest.mark.parametrize("m", [2, 3])
def test_riesz_tensor_grid_matches_pointwise(m):
    rng = np.random.default_rng(40 + m)
    quad = AreaQuadrature(48, 96)
    for degree in range(9):
        d = random_disc(rng, m, degree)
        assert riesz_area_term(d, quad) == pytest.approx(
            _riesz_pointwise(d, quad), rel=0, abs=1e-13)


def test_riesz_tensor_grid_matches_pointwise_composite():
    rng = np.random.default_rng(43)
    quad = AreaQuadrature(48, 96)
    comp = CompositeDisc(random_disc(rng, 3, 4),
                         np.array([0.3, 0.2 - 0.1j, 0.05j]))
    assert riesz_area_term(comp, quad) == pytest.approx(
        _riesz_pointwise(comp, quad), rel=0, abs=1e-13)
    assert riesz_area_term(comp, quad) == riesz_area_term(comp.base, quad)


def test_riesz_origin_at_quadrature_node():
    quad = AreaQuadrature(16, 32)
    t0 = quad.nodes[5 * quad.n_theta + 7]
    d = AnalyticDiscLift(np.array([[-t0, 0.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(OriginViolation):
        riesz_area_term(d, quad)


@pytest.mark.parametrize("n_r,n_theta", [(8, 16), (33, 70), (256, 512)])
def test_area_quadrature_flat_arrays_bitwise(n_r, n_theta):
    # the eager construction the flat arrays used to come from
    xs, ws = np.polynomial.legendre.leggauss(n_r)
    s = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    r = s ** 3
    wr = ws * 3.0 * s ** 2 * r
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wt = 2.0 * np.pi / n_theta
    q = AreaQuadrature(n_r, n_theta)
    for got, want in ((q.nodes, (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)),
                      (q.weights, np.repeat(wr * wt, n_theta)),
                      (q.log_r, np.repeat(np.log(r), n_theta))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert q.nodes is q.nodes


def test_area_quadrature_equality_and_hash():
    a, b = AreaQuadrature(32, 64), AreaQuadrature(32, 64)
    assert a == b and hash(a) == hash(b)
    assert a != AreaQuadrature(32, 65)
    assert {a: 1}[b] == 1
    a.nodes  # building the lazy arrays changes neither
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# roots


def test_roots_simple():
    roots = roots_in_unit_disc([-0.5, 1.0])
    assert len(roots) == 1
    a, m = roots[0]
    assert m == 1 and a == pytest.approx(0.5, abs=1e-12)


def test_roots_double():
    # (t - 1/2)^2 = 1/4 - t + t^2
    roots = roots_in_unit_disc([0.25, -1.0, 1.0])
    assert len(roots) == 1
    a, m = roots[0]
    assert m == 2 and a == pytest.approx(0.5, abs=1e-9)


def test_roots_quarter_i():
    roots = roots_in_unit_disc([-0.25j, 0.0, 1.0])
    assert len(roots) == 2
    for a, m in roots:
        assert m == 1 and abs(a) == pytest.approx(0.5, abs=1e-12)


def test_roots_boundary_zero_rejected():
    with pytest.raises(BoundaryZeroError):
        roots_in_unit_disc([-1.0, 1.0])


def test_roots_winding_consistency():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        try:
            roots = roots_in_unit_disc(p)
        except BoundaryZeroError:
            continue
        assert sum(m for _a, m in roots) == winding_number(p)


def test_roots_accuracy():
    targets = [0.3 + 0.1j, -0.7j, 0.25]
    p = np.poly(targets)[::-1]  # ascending
    roots = roots_in_unit_disc(p)
    found = sorted((a for a, _m in roots), key=lambda z: (z.real, z.imag))
    want = sorted(targets, key=lambda z: (z.real, z.imag))
    for a, b in zip(found, want):
        assert abs(a - b) < 1e-10


# ---------------------------------------------------------------------------
# harmonic extension / conjugate


def test_harmonic_constant_data():
    g = np.full(64, 3.5)
    u, v = harmonic_extension_and_conjugate(g, 0.5)
    assert np.allclose(u, 3.5) and np.allclose(v, 0.0, atol=1e-13)


def test_harmonic_cosine_data():
    grid = BoundaryGrid(64)
    theta = np.angle(grid.nodes)
    u, v = harmonic_extension_and_conjugate(np.cos(theta), 0.5)
    assert np.allclose(u, 0.5 * np.cos(theta), atol=1e-13)
    assert np.allclose(v, 0.5 * np.sin(theta), atol=1e-13)


def test_harmonic_vs_poisson_kernel():
    rng = np.random.default_rng(2)
    n = 256
    theta = 2.0 * np.pi * np.arange(n) / n
    g = np.zeros(n)
    for k in range(1, 9):
        g += rng.standard_normal() * np.cos(k * theta)
        g += rng.standard_normal() * np.sin(k * theta)
    r = 0.7
    u, _v = harmonic_extension_and_conjugate(g, r)
    # dense Poisson-kernel quadrature oracle
    m = 1 << 14
    phi = 2.0 * np.pi * np.arange(m) / m
    gd = np.zeros(m)
    rng2 = np.random.default_rng(2)
    for k in range(1, 9):
        gd += rng2.standard_normal() * np.cos(k * phi)
        gd += rng2.standard_normal() * np.sin(k * phi)
    for j in (0, 17, 100):
        diff = theta[j] - phi
        pk = (1 - r ** 2) / (1 - 2 * r * np.cos(diff) + r ** 2)
        ref = float(np.mean(pk * gd))
        assert u[j] == pytest.approx(ref, abs=1e-10)


def test_harmonic_rejects_bad_radius():
    with pytest.raises(ValueError):
        harmonic_extension_and_conjugate(np.zeros(16), 1.0)


def test_completion_is_holomorphic():
    # u + iv at radius r must have no negative-frequency content
    rng = np.random.default_rng(4)
    n = 128
    g = rng.standard_normal(n)
    r = 0.9
    u, v = harmonic_extension_and_conjugate(g, r)
    h = np.fft.fft(u + 1j * v) / n
    neg = h[n // 2 + 1:]
    assert np.abs(neg).max() < 1e-10


def test_completion_coeffs_match_extension():
    rng = np.random.default_rng(6)
    n = 256
    g = rng.standard_normal(n)
    r = 0.8
    u, v = harmonic_extension_and_conjugate(g, r)
    coeffs = holomorphic_completion_coeffs(g, r)
    grid = BoundaryGrid(n)
    import discenv.kernels as kernels

    h = kernels.eval_poly(coeffs[:, None], grid.nodes)[:, 0]
    assert np.allclose(h.real, u, atol=1e-10)
    assert np.allclose(h.imag, v, atol=1e-10)


def test_composite_disc_center_and_values():
    base = disc_1t()
    comp = CompositeDisc(base, np.array([0.5 + 0.0j, 0.1j]))
    t = 0.3 + 0.1j
    ref = base(t) / np.exp(0.5 + 0.1j * t)
    assert np.allclose(comp(t), ref)
    assert np.allclose(comp.center, base.center / math.exp(0.5))


def test_disc_values_match_eval_disc_bitwise():
    plain = random_disc(np.random.default_rng(4), 3, 5)
    comp = CompositeDisc(plain, np.array([0.3 - 0.1j, 0.2j, -0.05]))
    nodes = BoundaryGrid(256).nodes
    t = np.concatenate([nodes, 0.7 * nodes[:64], [0.0]])
    for disc in (plain, comp):
        assert disc_values(disc, t).tobytes() == eval_disc(disc, t).tobytes()
    # the composite's values are the base's divided by exp(g)
    want = kernels.eval_poly(plain.coeffs, t) / \
        np.exp(comp.exponent_values(t))[:, None]
    assert disc_values(comp, t).tobytes() == want.tobytes()


def test_composite_json_roundtrip():
    comp = CompositeDisc(disc_1t(), np.array([0.2 + 0.1j]))
    comp2 = CompositeDisc.from_json(comp.to_json())
    assert np.allclose(comp2.base.coeffs, comp.base.coeffs)
    assert np.allclose(comp2.exponent, comp.exponent)


def test_reparametrized_rotation_matches():
    rng = np.random.default_rng(9)
    d = random_disc(rng, 2, 4)
    rot = d.reparametrized(np.exp(0.4j))
    t = 0.5 - 0.2j
    assert np.allclose(rot(t), eval_disc(d, np.exp(0.4j) * t))


def test_area_quadrature_radial_rule_shared():
    # the radial rule is built once per n_r and shared, read-only
    a, b = AreaQuadrature(33, 70), AreaQuadrature(33, 140)
    assert a.radii is b.radii and not a.radii.flags.writeable
    assert not a.radial_weights.flags.writeable


@pytest.mark.parametrize("n_r,n_theta", [(64, 64), (5, 12)])
def test_validation_grid_cached_bitwise(n_r, n_theta):
    r = np.linspace(0.0, 1.0, n_r)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    want = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
    got = validation_grid(n_r, n_theta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert validation_grid(n_r, n_theta) is got

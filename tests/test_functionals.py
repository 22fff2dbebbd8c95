"""Disc functionals: routes, identities, scaling, and edge cases."""
import math

import numpy as np
import pytest

from discenv import functionals, kernels
from discenv.discs import AnalyticDiscLift, AreaQuadrature, BoundaryGrid, \
    circle_mean, grid_values, random_disc, riesz_area_term
from discenv.errors import InfeasibleDiscError, NumericalError, OriginViolation
from discenv.functionals import (admissible_values, identity_check_eqH,
                                 omega_functional_direct,
                                 omega_functional_lifted, poisson_functional,
                                 riesz_residual, sz_functional,
                                 sz_interior_jensen, sz_interior_roots)
from discenv.projective import (ConstantWeight, FsBall, HomPolynomial,
                                LiftedWeight, LogPolyWeight, ProjPoint,
                                ZeroWeight, chart)


def disc_1t():
    return AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))


def default_pts(disc):
    """The disc's values at the default BoundaryGrid's nodes."""
    return grid_values(disc, BoundaryGrid())


def test_poisson_constant_disc():
    z = np.array([3.0, 4.0], dtype=complex)
    d = AnalyticDiscLift(z[None, :])
    fv = poisson_functional(LiftedWeight(ZeroWeight()), default_pts(d))
    assert fv.total == pytest.approx(math.log(5.0), abs=1e-12)


def test_poisson_disc_1t():
    fv = poisson_functional(LiftedWeight(ZeroWeight()), default_pts(disc_1t()))
    assert fv.total == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_poisson_constant_weight_additivity():
    d = disc_1t()
    pts = default_pts(d)
    f0 = poisson_functional(LiftedWeight(ZeroWeight()), pts).total
    fc = poisson_functional(LiftedWeight(ConstantWeight(2.5)), pts).total
    assert fc == pytest.approx(f0 + 2.5, abs=1e-12)


def test_omega_direct_examples():
    const = AnalyticDiscLift(np.array([[1.0, 1.0]], dtype=complex))

    def total(d):
        return omega_functional_direct(ZeroWeight(), d, default_pts(d)).total

    assert total(const) == pytest.approx(0.0, abs=1e-12)
    assert total(disc_1t()) == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
    d2 = AnalyticDiscLift(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
    assert total(d2) == \
        pytest.approx(math.log(math.sqrt(5.0)) - math.log(2.0), abs=1e-9)


def test_omega_interior_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = random_disc(rng, 3, 4)
        fv = omega_functional_direct(ZeroWeight(), d, default_pts(d))
        assert fv.interior_term >= -1e-10


def test_omega_lifted_examples():
    z = np.array([0.6, 0.8], dtype=complex)
    const = AnalyticDiscLift(z[None, :])
    phi = LiftedWeight(ZeroWeight())
    fv = omega_functional_lifted(phi, const, default_pts(const))
    assert fv.total == pytest.approx(0.0, abs=1e-12)
    fv1 = omega_functional_lifted(phi, disc_1t(), default_pts(disc_1t()))
    assert fv1.total == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_omega_lifted_scaling_invariance():
    rng = np.random.default_rng(1)
    phi = LiftedWeight(ZeroWeight())
    for _ in range(5):
        d = random_disc(rng, 3, 4)
        lam = 10.0 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.uniform())
        ds = d.scaled(lam)
        a = omega_functional_lifted(phi, d, default_pts(d)).total
        b = omega_functional_lifted(phi, ds, default_pts(ds)).total
        assert abs(a - b) < 1e-12


def test_poisson_lift_scaling_shift():
    rng = np.random.default_rng(2)
    phi = LiftedWeight(ZeroWeight())
    for _ in range(5):
        d = random_disc(rng, 3, 3)
        lam = 10.0 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.uniform())
        a = poisson_functional(phi, default_pts(d)).total
        b = poisson_functional(phi, default_pts(d.scaled(lam))).total
        assert b - a == pytest.approx(math.log(abs(lam)), abs=1e-12)


def test_rotation_invariance():
    rng = np.random.default_rng(3)
    d = random_disc(rng, 2, 5)
    rot = d.reparametrized(np.exp(0.77j))
    a = omega_functional_direct(ZeroWeight(), d, default_pts(d)).total
    b = omega_functional_direct(ZeroWeight(), rot, default_pts(rot)).total
    assert a == pytest.approx(b, abs=1e-10)


def test_shrinking_radius_convergence():
    rng = np.random.default_rng(4)
    d = random_disc(rng, 2, 5)
    full = omega_functional_direct(ZeroWeight(), d, default_pts(d)).total
    errs = []
    for r in (0.9, 0.99, 0.999):
        dr = d.reparametrized(r)
        fr = omega_functional_direct(ZeroWeight(), dr, default_pts(dr)).total
        errs.append(abs(fr - full))
    assert errs[0] > errs[1] > errs[2]


def test_identity_eqH_residuals():
    const = AnalyticDiscLift(np.array([[1.0, 2.0]], dtype=complex))
    def residual(phi, d):
        return identity_check_eqH(phi, d, default_pts(d))["residual"]

    assert residual(ZeroWeight(), const) < 1e-12
    assert residual(ZeroWeight(), disc_1t()) < 1e-8
    d3 = AnalyticDiscLift(
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=complex))
    poly = HomPolynomial(((2, 0, 0), (0, 2, 0), (0, 0, 2)), (1.0, 0.5, 0.25))
    assert residual(LogPolyWeight(poly), d3) < 1e-7


def test_riesz_residual_small():
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = random_disc(rng, 3, 4)
        assert riesz_residual(d, riesz_area_term(d, AreaQuadrature()),
                              default_pts(d)) < 1e-6


def test_infeasible_boundary_detected():
    # a caller with a domain tests the disc before it takes a route
    ball = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.1)
    with pytest.raises(InfeasibleDiscError):
        admissible_values(disc_1t(), BoundaryGrid(), ball)


def test_lifted_route_domain_check():
    # admissible_values, then a route on the same grid: the route's value
    # is the one it has without a domain; every route takes the grid third
    grid = BoundaryGrid(64)
    with pytest.raises(InfeasibleDiscError):
        admissible_values(disc_1t(), grid,
                          FsBall(ProjPoint(np.array([1.0, 0.0])), 0.1))
    wide = FsBall(ProjPoint(np.array([1.0, 0.0])), 1.0)
    pts = admissible_values(disc_1t(), grid, wide)
    assert np.array_equal(pts, grid_values(disc_1t(), grid))
    fv = omega_functional_lifted(LiftedWeight(ZeroWeight()), disc_1t(), pts)
    assert fv.total == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    for route in (omega_functional_direct, sz_functional):
        assert route(ZeroWeight(), disc_1t(), pts).meta["nodes"] == 64
    assert fv.meta["nodes"] == 64


def test_admissible_values_clearance_then_floor():
    grid = BoundaryGrid(64)
    wide = FsBall(ProjPoint(np.array([1.0, 0.0])), 1.0)
    # disc (1, t) passes: its grid values come back; its least norm is 1
    assert disc_1t().min_norm_on_grid() >= 1.0 - 1e-12
    pts = admissible_values(disc_1t(), grid, wide)
    assert np.array_equal(pts, grid_values(disc_1t(), grid))
    # every node clears by 1 - pi/4: margins are strict
    clear = wide.clearance_many(pts)
    with pytest.raises(InfeasibleDiscError):
        admissible_values(disc_1t(), grid, wide, float(clear.min()))
    admissible_values(disc_1t(), grid, wide, np.nextafter(clear.min(), 0.0))
    # (t - 1/3)(1, 1) lies on [1 : 1] but vanishes at a floor-grid node
    through = AnalyticDiscLift(np.array([[-1.0, -1.0], [3.0, 3.0]]) / 3.0)
    with pytest.raises(OriginViolation):
        admissible_values(through, grid, wide)
    # the floor is not computed for a disc that leaves the domain
    tiny = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.1)
    with pytest.raises(InfeasibleDiscError):
        admissible_values(through, grid, tiny)


# ---------------------------------------------------------------------------
# Siciak-Zahariuta routes


def _sz_disc(f0_coeffs, other=None):
    f0 = np.asarray(f0_coeffs, dtype=complex)
    sec = np.zeros_like(f0) if other is None else np.asarray(other, complex)
    if other is None:
        sec[0] = 1.0
    return AnalyticDiscLift(np.stack([f0, sec], axis=1))


def test_sz_root_half():
    d = _sz_disc([-0.5, 1.0])
    fv = sz_functional(ZeroWeight(), d, default_pts(d), route="direct")
    assert fv.interior_term == pytest.approx(math.log(2.0), abs=1e-10)
    fj = sz_functional(ZeroWeight(), d, default_pts(d), route="jensen")
    assert fj.interior_term == pytest.approx(math.log(2.0), abs=1e-10)


def test_sz_no_roots_inside():
    d = _sz_disc([1.0, 0.3])  # root at -10/3, outside
    assert sz_interior_jensen(d) == pytest.approx(0.0, abs=1e-12)
    assert sz_interior_roots(d) == 0.0


def test_sz_double_root():
    d = _sz_disc([0.25, -1.0, 1.0])
    fv = sz_functional(ZeroWeight(), d, default_pts(d), route="direct")
    assert fv.interior_term == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert fv.meta == {"nodes": 1024}


def test_sz_center_at_infinity():
    d = _sz_disc([0.0, 1.0])
    fv = sz_functional(ZeroWeight(), d, default_pts(d), route="jensen")
    assert fv.total == math.inf
    assert fv.meta.get("center_on_hyperplane")


def test_sz_boundary_on_hyperplane_rejected():
    d = _sz_disc([-1.0, 1.0])  # f_0 vanishes at t = 1
    with pytest.raises(InfeasibleDiscError):
        sz_functional(ZeroWeight(), d, default_pts(d), route="jensen")


@pytest.mark.parametrize("zero", [1.0, -1.0, 1j, -1j])
def test_sz_interior_jensen_zero_at_a_node(zero):
    # the inverse FFT gives f_0 = t - zero exactly 0 at the node t = zero
    with pytest.raises(InfeasibleDiscError):
        sz_interior_jensen(_sz_disc([-zero, 1.0]))


@pytest.mark.parametrize("weight", [ZeroWeight(), ConstantWeight(0.3)],
                         ids=["zero", "constant"])
def test_sz_functional_matches_chart_formula(weight):
    # the boundary term from the chart of every boundary value, as before
    # the zero weight skipped the chart
    d = _sz_disc([1.0, 0.4 - 0.2j, 0.1j], [0.2, 0.3j, -0.1])
    grid = BoundaryGrid(512)
    fv = sz_functional(weight, d, grid_values(d, grid), route="jensen")
    boundary = circle_mean(weight.value_affine_many(chart(grid_values(d, grid))))
    interior = sz_interior_jensen(d)
    assert fv.boundary_term == boundary
    assert fv.interior_term == interior
    assert np.float64(fv.total).tobytes() == np.float64(boundary + interior).tobytes()
    assert fv.to_json()["meta"] == {"nodes": 512, "jensen_nodes": 65536}


def test_sz_route_agreement_random():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 10:
        deg = int(rng.integers(1, 7))
        f0 = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(f0[0]) < 1e-2:
            continue
        d = _sz_disc(f0)
        try:
            pts = default_pts(d)
            a = sz_functional(ZeroWeight(), d, pts, route="jensen").interior_term
            b = sz_functional(ZeroWeight(), d, pts, route="direct").interior_term
        except (InfeasibleDiscError, Exception) as e:
            if isinstance(e, InfeasibleDiscError):
                continue
            raise
        assert a == pytest.approx(b, abs=1e-9)
        checked += 1


@pytest.mark.parametrize("n", [65536, 4096, 1000])
def test_sz_interior_jensen_product_matches_horner(n, monkeypatch):
    # the n-node mean by Horner on freshly built nodes
    monkeypatch.setattr(functionals, "SZ_JENSEN_NODES", n)
    def horner(disc):
        t = np.exp(2j * np.pi * np.arange(n) / n)
        vals = kernels.eval_poly(np.ascontiguousarray(disc.coeffs[:, :1]), t)[:, 0]
        return float(np.log(np.abs(vals)).mean()) - math.log(abs(disc.coeffs[0, 0]))

    rng = np.random.default_rng(23)
    for _ in range(4):
        d = random_disc(rng, 3, 6)
        assert sz_interior_jensen(d) == pytest.approx(horner(d), rel=0, abs=1e-13)


def test_sz_interior_jensen_exact_discrete_identity(monkeypatch):
    # f_0 = c prod (t - z_k) and prod_j (z - t_j) = z^N - 1 over the N-th
    # roots of unity t_j, so the N-node mean is exactly
    # sum_k [(1/N) log|z_k^N - 1| - log|z_k|]
    def discrete(f0, n):
        total = 0.0
        for z in np.roots(f0[::-1]):
            if abs(z) > 1.0:  # log|z^N - 1| = N log|z| + log|1 - z^-N|
                total += math.log(abs(1.0 - z ** -n)) / n
            else:
                total += math.log(abs(1.0 - z ** n)) / n - math.log(abs(z))
        return total

    rng = np.random.default_rng(31)
    checked = 0
    while checked < 12:
        d = random_disc(rng, 2, int(rng.integers(1, 7)))
        zeros = np.roots(d.coeffs[::-1, 0])
        if np.any(np.abs(np.abs(zeros) - 1.0) < 1e-3):
            continue
        for n in (65536, 4096):
            monkeypatch.setattr(functionals, "SZ_JENSEN_NODES", n)
            assert sz_interior_jensen(d) == pytest.approx(
                discrete(d.coeffs[:, 0], n), rel=0, abs=1e-12)
        checked += 1


def test_inf_arithmetic_guard():
    from discenv.functionals import _combine

    with pytest.raises(NumericalError):
        _combine(-math.inf, math.inf)
    assert _combine(-math.inf, 1.0) == -math.inf

"""Degree-1 structure discs: construction, feasibility, homotopy, eps-test."""
import math

import numpy as np
import pytest

from discenv.discs import AnalyticDiscLift, BoundaryGrid, grid_values
from discenv.errors import DomainError
from discenv.functionals import poisson_functional
from discenv.projective import (FsBall, HyperplaneComplement, LiftedWeight,
                                ProjPoint, ZeroWeight)
from discenv.structure import (StructureDiscParams, centre_homotopy,
                               epsilon_upper_bound, make_structure_disc,
                               radius_r, second_branch_value, star_factor,
                               structure_params, verify_feasible)

HYP = HyperplaneComplement(np.array([0.0, 0.0, 1.0]))


def _rand_pair(rng):
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w[2] += 3.0  # keep w well away from the excluded hyperplane
    return x, w


class FixedLbDomain(HyperplaneComplement):
    """Test double: hyperplane complement with a forced dist_lb value."""

    def __init__(self, normal, lb):
        super().__init__(normal)
        object.__setattr__(self, "_lb", lb)

    def dist_lb(self, w):
        return self._lb


def test_radius_first_branch():
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    w = np.array([1.0, 1.0, 4.0], dtype=complex) / math.sqrt(17.0)
    w = w / np.linalg.norm(w) * np.linalg.norm(x - np.array([0, 0, 0]))
    dom = FixedLbDomain(np.array([0.0, 0.0, 1.0]), 4.0)
    x2 = w + np.array([1.0, 0.0, 0.0])  # separation exactly 1
    assert radius_r(x2, w, dom) == pytest.approx(0.5)


def test_radius_second_branch():
    dom = FixedLbDomain(np.array([0.0, 0.0, 1.0]), 0.2)
    w = np.array([0.0, 1.0, 1.0], dtype=complex)
    x = w + np.array([1.0, 0.0, 0.0])
    assert radius_r(x, w, dom) == pytest.approx(0.1)


def test_radius_shrinks_linearly():
    dom = FixedLbDomain(np.array([0.0, 0.0, 1.0]), 10.0)
    w = np.array([0.0, 1.0, 1.0], dtype=complex)
    for s in (1e-2, 1e-4):
        x = w + np.array([s, 0.0, 0.0])
        assert radius_r(x, w, dom) == pytest.approx(s / (1 + s), rel=1e-12)


def test_center_exact_and_star_radius():
    rng = np.random.default_rng(0)
    t32 = np.exp(2j * np.pi * np.arange(32) / 32)
    for _ in range(20):
        x, w = _rand_pair(rng)
        params = structure_params(x, w, HYP)
        disc = make_structure_disc(params)
        assert np.array_equal(disc.center, params.x)  # exact, coefficient level
        star = star_factor(params, t32)
        assert np.abs(np.linalg.norm(star - params.w, axis=1)
                      - params.r).max() < 1e-12


def test_second_branch_formula():
    rng = np.random.default_rng(1)
    x, w = _rand_pair(rng)
    params = structure_params(x, w, HYP)
    disc = make_structure_disc(params)
    t = -params.r / params.separation
    assert np.allclose(disc(t), second_branch_value(params), atol=1e-12)


def test_boundary_factorization():
    # f(t) = (1 + (s/r) t) * star(t) on |t| = 1
    rng = np.random.default_rng(2)
    x, w = _rand_pair(rng)
    params = structure_params(x, w, HYP)
    disc = make_structure_disc(params)
    s, r = params.separation, params.r
    for t in np.exp(2j * np.pi * np.arange(8) / 8):
        lhs = disc(t)
        rhs = (1.0 + (s / r) * t) * star_factor(params, t)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_x_on_line_rejected():
    w = np.array([0.0, 1.0, 1.0], dtype=complex)
    with pytest.raises(DomainError):
        StructureDiscParams(2.0j * w, w, 0.1)
    with pytest.raises(DomainError):  # no line through 0 and w = 0
        StructureDiscParams(w, np.zeros(3), 0.1)


def test_verify_feasible_positive_and_negative():
    rng = np.random.default_rng(3)
    x, w = _rand_pair(rng)
    disc = make_structure_disc(structure_params(x, w, HYP))
    rep = verify_feasible(disc, HYP)
    assert rep["feasible"] and rep["boundary_ok"] and rep["origin_ok"]
    # negative control: a forced-large dist_lb makes radius_r overshoot, so
    # the boundary circle leaves a small ball around the centre of the set
    ball = FsBall(ProjPoint(np.array([1.0, 0.0, 0.0])), 0.3)
    x2 = np.array([1.0, 0.0, 0.28], dtype=complex)
    w_near = np.array([1.0, 0.27, 0.0], dtype=complex)
    assert ball.contains(x2) and ball.contains(w_near)
    s = float(np.linalg.norm(x2 - w_near))
    r = min(s / (1.0 + s), 1e3 / 2.0)  # what radius_r returns with lb 1e3
    disc_bad = make_structure_disc(StructureDiscParams(x2, w_near, r))
    rep_bad = verify_feasible(disc_bad, ball)
    assert not rep_bad["boundary_ok"]
    assert rep_bad["origin_ok"] is None and not rep_bad["feasible"]
    assert rep_bad["min_clearance"] < 0


def test_verify_feasible_floor_is_delta_min():
    # f = (t - 1/2)(1, 0.5, 1) reads 0.0119 on the floor grid: above 0, but
    # below a declared floor of 0.05; its boundary [1 : 0.5 : 1] lies in HYP
    c = np.array([[-0.5, -0.25, -0.5], [1.0, 0.5, 1.0]], dtype=complex)
    for floor, origin_ok in ((1e-8, True), (0.05, False)):
        rep = verify_feasible(AnalyticDiscLift(c, delta_min=floor), HYP)
        assert rep["boundary_ok"] and rep["origin_ok"] is origin_ok
        assert rep["feasible"] is origin_ok
        assert 0.0 < rep["min_norm"] < 0.05


def test_conservative_radius_never_violates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, w = _rand_pair(rng)
        disc = make_structure_disc(structure_params(x, w, HYP))
        assert verify_feasible(disc, HYP)["boundary_ok"]


def test_centre_homotopy_constant_path():
    rng = np.random.default_rng(5)
    x, w = _rand_pair(rng)
    res = centre_homotopy(x, [w, w, w], HYP)
    assert res["max_coeff_jump"] == 0.0


def test_centre_homotopy_step_scaling():
    rng = np.random.default_rng(6)
    x, w = _rand_pair(rng)
    step = np.array([0.01, 0.0, 0.0])
    fine = centre_homotopy(x, [w + k * step for k in range(5)], HYP)
    coarse = centre_homotopy(x, [w, w + 4 * step], HYP)
    assert fine["max_coeff_jump"] < coarse["max_coeff_jump"]


def test_centre_homotopy_rejects_line_crossing():
    x = np.array([0.0, 1.0, 1.0], dtype=complex)
    with pytest.raises(DomainError):
        centre_homotopy(x, [2.0 * x], HYP)


def test_centre_homotopy_rejects_outside_domain():
    x = np.array([0.0, 1.0, 1.0], dtype=complex)
    with pytest.raises(DomainError):
        centre_homotopy(x, [np.array([1.0, 1.0, 0.0])], HYP)


def test_centre_homotopy_rejects_zero_sample():
    x = np.array([1.0, 0.2, 0.0], dtype=complex)
    ball = FsBall(ProjPoint(np.array([1.0, 0.0, 0.0])), 0.3)
    with pytest.raises(DomainError, match="leaves the domain"):
        centre_homotopy(x, [np.zeros(3)], ball)


def test_epsilon_upper_bound_succeeds():
    phi = LiftedWeight(ZeroWeight())
    rng = np.random.default_rng(7)
    for i in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x[2] += 3.0
        res = epsilon_upper_bound(x, phi, HYP, 1e-2, seed=i)
        assert res["success"]
        assert res["value"] <= res["phi_x"] + 1e-2
        assert np.linalg.norm(res["w"] - x) <= 0.5


def test_epsilon_loose_tolerance_first_radius():
    phi = LiftedWeight(ZeroWeight())
    x = np.array([0.0, 1.0, 2.0], dtype=complex)
    res = epsilon_upper_bound(x, phi, HYP, 1.0, seed=0)
    assert res["success"] and res["radius"] == 0.5


def test_epsilon_rejects_infinite_weight():
    from discenv.projective import LogPolyWeight, HomPolynomial

    poly = HomPolynomial(((0, 0, 1),), (1.0,))
    phi = LiftedWeight(LogPolyWeight(poly))
    x = np.array([1.0, 1.0, 0.0], dtype=complex)  # phi(x) = -inf
    dom = HyperplaneComplement(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        epsilon_upper_bound(x, phi, dom, 1e-2)


@pytest.mark.xfail(strict=True, reason="a 1024-node mean of log|f| reads "
                   "low by about a^N/N where |f| dips near the circle, so "
                   "the search reports success at a disc whose value is "
                   "about 4.9e-4 above phi~(x)")
def test_epsilon_success_holds_on_a_fine_grid():
    # FsBall([1:0], 0.5), x = (1, 0.1i), zero weight, eps = 1e-8: success is
    # reported at radius 2^-11 with H - phi~(x) = -4.24e-4 on 1024 nodes,
    # below the psh floor H >= phi~(x); on 2^16 nodes the same disc reads
    # +4.879e-4, about 49000 eps above it
    phi = LiftedWeight(ZeroWeight())
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    eps = 1e-8
    res = epsilon_upper_bound(np.array([1.0, 0.1j]), phi, dom, eps, seed=0)
    if res["success"]:
        fine = poisson_functional(phi, grid_values(res["disc"],
                                                   BoundaryGrid(2 ** 16)))
        assert fine.total <= res["phi_x"] + eps


def test_epsilon_deterministic():
    phi = LiftedWeight(ZeroWeight())
    x = np.array([0.3, 1.0, 2.0], dtype=complex)
    a = epsilon_upper_bound(x, phi, HYP, 1e-3, seed=5)
    b = epsilon_upper_bound(x, phi, HYP, 1e-3, seed=5)
    assert a["value"] == b["value"]
    assert np.array_equal(a["w"], b["w"])

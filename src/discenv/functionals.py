"""The three disc functionals (Poisson, omega-Poisson, Siciak-Zahariuta)
with independent evaluation routes and the identity checks between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    boundary_lognorms, circle_mean, disc_values,
                    riesz_area_term, roots_in_unit_disc)
from .errors import InfeasibleDiscError, NumericalError
from .projective import Domain, LiftedWeight, Weight

# quadrature size for the Jensen-route boundary mean of log|f_0|; the
# trapezoid aliasing error is |a|^N for a root at distance 1-|a| from T,
# so a large fixed N keeps the route below 1e-12 even for roots 1e-3 away
SZ_JENSEN_NODES = 65536


def encode_float(x):
    """x for a strict-JSON artifact: +-inf as the strings "inf"/"-inf"."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


@dataclass
class FunctionalValue:
    total: float
    boundary_term: float
    interior_term: float
    route: str
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        enc = encode_float
        return {"total": enc(self.total), "boundary_term": enc(self.boundary_term),
                "interior_term": enc(self.interior_term), "route": self.route,
                "meta": self.meta}


def _combine(boundary: float, interior: float) -> float:
    if boundary == -math.inf and interior == math.inf:
        raise NumericalError("-inf boundary term against +inf interior term")
    return boundary + interior


def _check_boundary(domain: Domain | None, pts: np.ndarray):
    if domain is None:
        return
    clear = domain.clearance_many(pts)
    if np.any(clear <= 0):
        raise InfeasibleDiscError(
            f"disc boundary leaves the domain (worst clearance {clear.min():.3e})")


def poisson_functional(phi_tilde: LiftedWeight, disc,
                       grid: BoundaryGrid | None = None) -> FunctionalValue:
    """H(f) = mean over T of phi~(f)."""
    grid = grid or BoundaryGrid()
    pts = disc_values(disc, grid.nodes)
    b = circle_mean(phi_tilde.value_many(pts))
    return FunctionalValue(b, b, 0.0, "poisson", {"nodes": grid.n})


def omega_functional_direct(phi: Weight, disc, domain: Domain | None = None,
                            grid: BoundaryGrid | None = None,
                            quad: AreaQuadrature | None = None) -> FunctionalValue:
    """Interior term from the area quadrature of log|t| times the
    Fubini-Study pullback density, boundary term from phi on pi(f(T))."""
    grid = grid or BoundaryGrid()
    quad = quad or AreaQuadrature()
    pts = disc_values(disc, grid.nodes)
    _check_boundary(domain, pts)
    interior = -riesz_area_term(disc, quad)
    if interior < -1e-10:
        raise NumericalError(f"negative interior term {interior:.3e}")
    boundary = circle_mean(phi.value_proj_many(pts))
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "direct", {"nodes": grid.n, "n_r": quad.n_r,
                                      "n_theta": quad.n_theta})


def omega_functional_lifted(phi_tilde: LiftedWeight, disc,
                            grid: BoundaryGrid | None = None) -> FunctionalValue:
    """H_{omega,phi}(f) = H_{phi~}(f~) - log|f~(0)|."""
    grid = grid or BoundaryGrid()
    return _omega_lifted(phi_tilde, disc, grid, disc_values(disc, grid.nodes))


def _omega_lifted(phi_tilde: LiftedWeight, disc, grid: BoundaryGrid,
                  pts: np.ndarray) -> FunctionalValue:
    """omega_functional_lifted from the disc's values pts on grid.nodes."""
    boundary = circle_mean(phi_tilde.value_many(pts))
    interior = -math.log(float(np.linalg.norm(disc.center)))
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "lifted", {"nodes": grid.n})


@lru_cache(maxsize=4)
def _jensen_nodes(n_nodes: int) -> np.ndarray:
    """The n_nodes equispaced nodes on the unit circle, read-only and
    built once per size."""
    t = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    t.setflags(write=False)
    return t


def sz_interior_jensen(disc, n_nodes: int = SZ_JENSEN_NODES) -> float:
    """-log|f_0(0)| + mean over T of log|f_0|."""
    f0 = np.ascontiguousarray(disc.coeffs[:, :1])
    center = complex(disc.coeffs[0, 0])
    if center == 0:
        return math.inf
    vals = kernels.eval_poly(f0, _jensen_nodes(n_nodes))[:, 0]
    mags = np.abs(vals)
    if np.any(mags == 0):
        raise InfeasibleDiscError("f_0 vanishes on the unit circle")
    # log in place: at 65536 nodes the page faults of a fresh array can
    # cost more than the log itself
    return float(np.log(mags, out=mags).mean()) - math.log(abs(center))


def sz_interior_roots(disc, count_multiplicity: bool = True) -> float:
    """-sum m_a log|a| over the zeros a of f_0 inside the unit disc."""
    f0 = np.asarray(disc.coeffs[:, 0])
    if f0[0] == 0:
        return math.inf
    roots = roots_in_unit_disc(f0)
    total = 0.0
    for a, m in roots:
        total -= (m if count_multiplicity else 1) * math.log(abs(a))
    return total


def sz_functional(phi: Weight, disc: AnalyticDiscLift,
                  domain: Domain | None = None,
                  grid: BoundaryGrid | None = None,
                  route: str = "jensen") -> FunctionalValue:
    """Siciak-Zahariuta functional in the affine chart z_0 != 0.

    route 'jensen': interior from the boundary mean of log|f_0|;
    route 'direct': interior from the zeros of f_0 in the disc
    (multiplicity counted; the multiplicity-free sum is in meta).
    """
    grid = grid or BoundaryGrid()
    return _sz(phi, disc, domain, grid, disc_values(disc, grid.nodes), route)


def _sz(phi: Weight, disc: AnalyticDiscLift, domain: Domain | None,
        grid: BoundaryGrid, pts: np.ndarray, route: str) -> FunctionalValue:
    """sz_functional from the disc's values pts on grid.nodes."""
    mags0 = np.abs(pts[:, 0])
    if np.any(mags0 == 0):
        raise InfeasibleDiscError("disc boundary meets the hyperplane at infinity")
    _check_boundary(domain, pts)
    charts = pts[:, 1:] / pts[:, :1]
    boundary = circle_mean(phi.value_affine_many(charts))
    meta: dict = {"nodes": grid.n}
    center_at_infinity = complex(disc.coeffs[0, 0]) == 0
    if center_at_infinity:
        meta["center_on_hyperplane"] = True
        return FunctionalValue(math.inf, boundary, math.inf, route, meta)
    if route == "jensen":
        interior = sz_interior_jensen(disc)
        meta["jensen_nodes"] = SZ_JENSEN_NODES
    elif route == "direct":
        interior = sz_interior_roots(disc, count_multiplicity=True)
        meta["interior_no_multiplicity"] = sz_interior_roots(
            disc, count_multiplicity=False)
    else:
        raise ValueError(f"unknown sz route {route!r}")
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           route, meta)


def identity_check_eqH(phi: Weight, disc, domain: Domain | None = None,
                       grid: BoundaryGrid | None = None,
                       quad: AreaQuadrature | None = None) -> dict:
    """Residual |direct - lifted| of the lifting identity for one disc.

    Also returns the disc's riesz_area_term on quad (the direct route's
    interior term with its sign flipped), for riesz_residual.
    """
    grid = grid or BoundaryGrid()
    quad = quad or AreaQuadrature()
    direct = omega_functional_direct(phi, disc, domain, grid, quad)
    lifted = omega_functional_lifted(LiftedWeight(phi), disc, grid)
    return {
        "direct": direct.total,
        "lifted": lifted.total,
        "residual": abs(direct.total - lifted.total),
        "area_term": -direct.interior_term,
        "nodes": grid.n,
        "n_r": quad.n_r,
        "n_theta": quad.n_theta,
    }


def riesz_residual(disc, grid: BoundaryGrid | None = None,
                   quad: AreaQuadrature | None = None,
                   area_term: float | None = None) -> float:
    """|riesz_area_term - (log|f(0)| - mean log|f|)| for one disc.

    area_term, if given, is the disc's riesz_area_term on quad, already
    computed (identity_check_eqH returns it), and quad is not used.
    """
    grid = grid or BoundaryGrid()
    if area_term is None:
        area_term = riesz_area_term(disc, quad or AreaQuadrature())
    rhs = math.log(float(np.linalg.norm(disc.center))) - circle_mean(
        boundary_lognorms(disc, grid))
    return abs(area_term - rhs)

"""The three disc functionals (Poisson, omega-Poisson, Siciak-Zahariuta)
with independent evaluation routes and the identity checks between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    boundary_lognorms, circle_mean, circle_powers, grid_values,
                    neg_log_center_norm, polar_values, power_table,
                    riesz_area_term, roots_in_unit_disc)
from .errors import InfeasibleDiscError, NumericalError, OriginViolation
from .projective import Domain, LiftedWeight, Weight, ZeroWeight, chart

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


def admissible_values(disc: AnalyticDiscLift, grid: BoundaryGrid,
                      domain: Domain, margin: float = 0.0) -> np.ndarray:
    """The disc's grid_values, if every node clears the open domain by more
    than margin (InfeasibleDiscError otherwise) and then min_norm_on_grid()
    is at least delta_min (OriginViolation otherwise).  The library's one
    admissibility test; it reads the nodes only (ROADMAP item 1)."""
    pts = grid_values(disc, grid)
    worst = domain.clearance_many(pts).min()
    if not worst > margin:
        raise InfeasibleDiscError(f"disc boundary does not clear the domain by "
                                  f"{margin:g} (worst clearance {worst:.3e})")
    if disc.min_norm_on_grid() < disc.delta_min:
        raise OriginViolation(f"disc comes within {disc.delta_min:g} of the origin")
    return pts


def poisson_functional(phi_tilde: LiftedWeight, disc,
                       grid: BoundaryGrid | None = None) -> FunctionalValue:
    """H(f) = mean over T of phi~(f)."""
    grid = grid or BoundaryGrid()
    pts = grid_values(disc, grid)
    b = circle_mean(phi_tilde.value_many(pts))
    return FunctionalValue(b, b, 0.0, "poisson", {"nodes": grid.n})


def omega_functional_direct(phi: Weight, disc, domain: Domain | None = None,
                            grid: BoundaryGrid | None = None,
                            quad: AreaQuadrature | None = None) -> FunctionalValue:
    """Interior term from the area quadrature of log|t| times the
    Fubini-Study pullback density, boundary term from phi on pi(f(T))."""
    grid = grid or BoundaryGrid()
    quad = quad or AreaQuadrature()
    pts = grid_values(disc, grid) if domain is None else \
        admissible_values(disc, grid, domain)
    interior = -riesz_area_term(disc, quad)
    if interior < -1e-10:
        raise NumericalError(f"negative interior term {interior:.3e}")
    boundary = circle_mean(phi.value_proj_many(pts))
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "direct", {"nodes": grid.n, "n_r": quad.n_r,
                                      "n_theta": quad.n_theta})


def omega_functional_lifted(phi_tilde: LiftedWeight, disc,
                            grid: BoundaryGrid | None = None,
                            domain: Domain | None = None) -> FunctionalValue:
    """H_{omega,phi}(f) = H_{phi~}(f~) - log|f~(0)|."""
    grid = grid or BoundaryGrid()
    pts = grid_values(disc, grid) if domain is None else \
        admissible_values(disc, grid, domain)
    return _omega_lifted(phi_tilde, disc, grid, pts)


def _omega_lifted(phi_tilde: LiftedWeight, disc, grid: BoundaryGrid,
                  pts: np.ndarray) -> FunctionalValue:
    """omega_functional_lifted from the disc's values pts on grid.nodes."""
    boundary = circle_mean(phi_tilde.value_many(pts))
    interior = neg_log_center_norm(disc)
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "lifted", {"nodes": grid.n})


def _jensen_split(n_nodes: int) -> tuple[int, int]:
    """(b, a) with b * a = n_nodes and b the largest divisor of n_nodes
    not above its square root: 256 * 256 for 65536 nodes."""
    b = math.isqrt(n_nodes)
    while n_nodes % b:
        b -= 1
    return b, n_nodes // b


def _jensen_phases(n_nodes: int) -> np.ndarray:
    """omega^j, j < b, for omega = e^{2 pi i/n_nodes} and n_nodes = b * a:
    node j + b l is omega^j e^{2 pi i l/a}, so the values on the nodes are
    polar_values with the radial factors omega^{jk} and a angles."""
    b, _a = _jensen_split(n_nodes)
    return np.exp(2j * np.pi * np.arange(b) / n_nodes)


def sz_interior_jensen(disc, n_nodes: int = SZ_JENSEN_NODES) -> float:
    """-log|f_0(0)| + mean over T of log|f_0|."""
    center = complex(disc.coeffs[0, 0])
    if center == 0:
        return math.inf
    d, a = disc.degree, _jensen_split(n_nodes)[1]
    mags = np.abs(polar_values(disc.coeffs[:, :1], circle_powers(a, d),
                               power_table(_jensen_phases, n_nodes, d)))
    if np.any(mags == 0):
        raise InfeasibleDiscError("f_0 vanishes on the unit circle")
    # log in place: at 65536 nodes the page faults of a fresh array can
    # cost more than the log itself
    return float(np.log(mags, out=mags).mean()) - math.log(abs(center))


def _root_sums(roots) -> tuple[float, float]:
    """-sum m_a log|a| and -sum log|a| over the (zero a, multiplicity m_a)
    list roots."""
    counted = once = 0.0
    for a, m in roots:
        log_a = math.log(abs(a))
        counted -= m * log_a
        once -= log_a
    return counted, once


def sz_interior_roots(disc) -> float:
    """-sum m_a log|a| over the zeros a of f_0 inside the unit disc."""
    f0 = np.asarray(disc.coeffs[:, 0])
    if f0[0] == 0:
        return math.inf
    return _root_sums(roots_in_unit_disc(f0))[0]


def sz_functional(phi: Weight, disc: AnalyticDiscLift,
                  domain: Domain | None = None,
                  grid: BoundaryGrid | None = None,
                  route: str = "jensen") -> FunctionalValue:
    """Siciak-Zahariuta functional in the affine chart z_0 != 0.

    route 'jensen': interior from the 65536-node boundary mean of
    log|f_0|, the independent route of the cross-check;
    route 'direct': interior from the zeros of f_0 in the disc by Jensen's
    formula, exact for any f_0(0) != 0 (multiplicity counted; the
    multiplicity-free sum is in meta).  envelope.evaluate_witness takes
    this route.
    """
    grid = grid or BoundaryGrid()
    pts = grid_values(disc, grid) if domain is None else \
        admissible_values(disc, grid, domain)
    return _sz(phi, disc, grid, pts, route)


def _sz(phi: Weight, disc: AnalyticDiscLift, grid: BoundaryGrid,
        pts: np.ndarray, route: str) -> FunctionalValue:
    """sz_functional from the disc's values pts on grid.nodes."""
    mags0 = np.abs(pts[:, 0])
    if np.any(mags0 == 0):
        raise InfeasibleDiscError("disc boundary meets the hyperplane at infinity")
    if isinstance(phi, ZeroWeight):
        boundary = 0.0  # the zero weight's mean: no chart is needed
    else:
        boundary = circle_mean(phi.value_affine_many(chart(pts)))
    meta: dict = {"nodes": grid.n}
    center_at_infinity = complex(disc.coeffs[0, 0]) == 0
    if center_at_infinity:
        meta["center_on_hyperplane"] = True
        return FunctionalValue(math.inf, boundary, math.inf, route, meta)
    if route == "jensen":
        interior = sz_interior_jensen(disc)
        meta["jensen_nodes"] = SZ_JENSEN_NODES
    elif route == "direct":
        interior, meta["interior_no_multiplicity"] = _root_sums(
            roots_in_unit_disc(disc.coeffs[:, 0]))
    else:
        raise ValueError(f"unknown sz route {route!r}")
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           route, meta)


def identity_check_eqH(phi: Weight, disc, grid: BoundaryGrid | None = None,
                       quad: AreaQuadrature | None = None) -> dict:
    """Residual |direct - lifted| of the lifting identity for one disc.

    Also returns the disc's riesz_area_term on quad (the direct route's
    interior term with its sign flipped), for riesz_residual.
    """
    grid = grid or BoundaryGrid()
    quad = quad or AreaQuadrature()
    direct = omega_functional_direct(phi, disc, None, grid, quad)
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
    rhs = -neg_log_center_norm(disc) - circle_mean(boundary_lognorms(disc, grid))
    return abs(area_term - rhs)

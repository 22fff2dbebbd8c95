"""The three disc functionals (Poisson, omega-Poisson, Siciak-Zahariuta)
with independent evaluation routes and the identity checks between them.
Every route reads pts, the disc's values at a BoundaryGrid's nodes, which
its caller takes once from grid_values or admissible_values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    circle_mean, grid_values, neg_log_center_norm,
                    node_values_fft, riesz_area_term, roots_in_unit_disc)
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
    """The disc's grid_values, if check_admissible passes on their least
    clearance from the domain."""
    pts = grid_values(disc, grid)
    check_admissible(disc, float(domain.clearance_many(pts).min()), margin)
    return pts


def check_admissible(disc: AnalyticDiscLift, worst: float,
                     margin: float = 0.0) -> None:
    """InfeasibleDiscError unless worst, the least clearance of the disc's
    boundary nodes from the open domain, exceeds margin; then
    OriginViolation if min_norm_on_grid() is below delta_min.  The
    library's one admissibility test; it reads the nodes only (ROADMAP
    item 1)."""
    if not worst > margin:
        raise InfeasibleDiscError(f"disc boundary does not clear the domain by "
                                  f"{margin:g} (worst clearance {worst:.3e})")
    if disc.min_norm_on_grid() < disc.delta_min:
        raise OriginViolation(f"disc comes within {disc.delta_min:g} of the origin")


def poisson_functional(phi_tilde: LiftedWeight,
                       pts: np.ndarray) -> FunctionalValue:
    """H(f) = mean over T of phi~(f)."""
    b = circle_mean(phi_tilde.value_many(pts))
    return FunctionalValue(b, b, 0.0, "poisson", {"nodes": len(pts)})


def omega_functional_direct(phi: Weight, disc, pts: np.ndarray,
                            quad: AreaQuadrature | None = None) -> FunctionalValue:
    """Interior term from the area quadrature of log|t| times the
    Fubini-Study pullback density, boundary term from phi on pi(f(T))."""
    quad = quad or AreaQuadrature()
    interior = -riesz_area_term(disc, quad)
    if interior < -1e-10:
        raise NumericalError(f"negative interior term {interior:.3e}")
    boundary = circle_mean(phi.value_proj_many(pts))
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "direct", {"nodes": len(pts), "n_r": quad.n_r,
                                      "n_theta": quad.n_theta})


def omega_functional_lifted(phi_tilde: LiftedWeight, disc,
                            pts: np.ndarray) -> FunctionalValue:
    """H_{omega,phi}(f) = H_{phi~}(f~) - log|f~(0)|."""
    boundary = circle_mean(phi_tilde.value_many(pts))
    interior = neg_log_center_norm(disc)
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           "lifted", {"nodes": len(pts)})


def sz_interior_jensen(disc) -> float:
    """-log|f_0(0)| + mean over T of log|f_0|, f_0 at the SZ_JENSEN_NODES
    nodes by one inverse FFT."""
    center = complex(disc.coeffs[0, 0])
    if center == 0:
        return math.inf
    mags = np.abs(node_values_fft(disc.coeffs[:, 0], SZ_JENSEN_NODES))
    if np.any(mags == 0):
        raise InfeasibleDiscError("f_0 vanishes on the unit circle")
    # log in place: at 65536 nodes the page faults of a fresh array can
    # cost more than the log itself
    return float(np.log(mags, out=mags).mean()) - math.log(abs(center))


def sz_interior_roots(disc) -> float:
    """-sum m_a log|a| over the zeros a of f_0 inside the unit disc."""
    f0 = np.asarray(disc.coeffs[:, 0])
    if f0[0] == 0:
        return math.inf
    interior = 0.0
    for a, m in roots_in_unit_disc(f0):
        interior -= m * math.log(abs(a))
    return interior


def sz_functional(phi: Weight, disc: AnalyticDiscLift, pts: np.ndarray,
                  route: str = "jensen") -> FunctionalValue:
    """Siciak-Zahariuta functional in the affine chart z_0 != 0.

    route 'jensen': interior from the 65536-node boundary mean of
    log|f_0|, the independent route of the cross-check;
    route 'direct': interior from the zeros of f_0 in the disc by Jensen's
    formula, exact for any f_0(0) != 0 (multiplicity counted).
    envelope.evaluate_witness takes this route.
    """
    if np.any(pts[:, 0] == 0):
        raise InfeasibleDiscError("disc boundary meets the hyperplane at infinity")
    if isinstance(phi, ZeroWeight):
        boundary = 0.0  # the zero weight's mean: no chart is needed
    else:
        boundary = circle_mean(phi.value_affine_many(chart(pts)))
    meta: dict = {"nodes": len(pts)}
    if disc.coeffs[0, 0] == 0:  # the centre is at infinity
        meta["center_on_hyperplane"] = True
        return FunctionalValue(math.inf, boundary, math.inf, route, meta)
    if route == "jensen":
        interior = sz_interior_jensen(disc)
        meta["jensen_nodes"] = SZ_JENSEN_NODES
    elif route == "direct":
        interior = sz_interior_roots(disc)
    else:
        raise ValueError(f"unknown sz route {route!r}")
    return FunctionalValue(_combine(boundary, interior), boundary, interior,
                           route, meta)


def identity_check_eqH(phi: Weight, disc, pts: np.ndarray,
                       quad: AreaQuadrature | None = None) -> dict:
    """Residual |direct - lifted| of the lifting identity for one disc,
    and the disc's riesz_area_term on quad (the direct route's interior
    term with its sign flipped), for riesz_residual."""
    quad = quad or AreaQuadrature()
    direct = omega_functional_direct(phi, disc, pts, quad)
    lifted = omega_functional_lifted(LiftedWeight(phi), disc, pts)
    return {"residual": abs(direct.total - lifted.total),
            "area_term": -direct.interior_term}


def riesz_residual(disc, area_term: float, pts: np.ndarray) -> float:
    """|area_term - (log|f(0)| - mean log|f|)| for one disc, area_term its
    riesz_area_term on some AreaQuadrature (identity_check_eqH returns
    it)."""
    rhs = -neg_log_center_norm(disc) - circle_mean(kernels.row_lognorms(pts))
    return abs(area_term - rhs)

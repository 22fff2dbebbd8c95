"""The explicit degree-1 disc construction on cone domains: the disc
through x with boundary on a circle of radius r about w, feasibility
checks, centre-homotopy paths, and the epsilon-approximation search that
witnesses the envelope upper bound at a point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discs import AnalyticDiscLift, BoundaryGrid, grid_values
from .errors import (ConfigError, DomainError, InfeasibleDiscError,
                     OriginViolation)
from .functionals import (admissible_values, check_admissible,
                          poisson_functional)
from .projective import Domain, LiftedWeight, fs_distances

SHRINK_FLOOR = 1e-10
DIRECTIONS_PER_RADIUS = 32


@dataclass(frozen=True)
class StructureDiscParams:
    x: np.ndarray
    w: np.ndarray
    r: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128).reshape(-1)
        w = np.asarray(self.w, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        s, nw = float(np.linalg.norm(x - w)), np.linalg.norm(w)
        if s == 0 or nw == 0 or fs_distances(x[None, :], w / nw)[0] < 1e-7:
            raise DomainError("x lies on the complex line through 0 and w")
        if not 0 < self.r:
            raise ValueError("radius must be positive")
        if self.r / s >= 1.0:
            raise DomainError("r/|x-w| >= 1: boundary parameter leaves the disc")

    @property
    def separation(self) -> float:
        return float(np.linalg.norm(self.x - self.w))


def radius_r(x, w, domain: Domain) -> float:
    """r = min(|x-w|/(1+|x-w|), dist_lb(w)/2); conservative in the second
    branch since dist_lb underestimates the distance to the complement."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    s = float(np.linalg.norm(x - w))
    d = domain.dist_lb(w)
    if d <= 0:
        raise DomainError("w has no positive clearance from the complement")
    return min(s / (1.0 + s), d / 2.0)


def make_structure_disc(params: StructureDiscParams) -> AnalyticDiscLift:
    """f(t) = (|x-w|/r - r/|x-w|) t w + (1 + (r/|x-w|) t) x; degree 1 and
    f(0) = x exactly at the coefficient level."""
    s = params.separation
    r = params.r
    c0 = params.x
    c1 = (s / r - r / s) * params.w + (r / s) * params.x
    return AnalyticDiscLift(np.stack([c0, c1]))


def star_factor(params: StructureDiscParams, t) -> np.ndarray:
    """The bracket factor: for |t| = 1 it lies on the circle of radius r
    about w inside the complex line through x and w."""
    s = params.separation
    r = params.r
    t = np.asarray(t, dtype=np.complex128)
    mob = (s + r * t) / (r + s * t)
    return params.w + (mob[..., None] * (r / s)) * (params.x - params.w)


def second_branch_value(params: StructureDiscParams) -> np.ndarray:
    """f(-r/|x-w|) = (1 - r^2/|x-w|^2)(x - w)."""
    s = params.separation
    return (1.0 - params.r ** 2 / s ** 2) * (params.x - params.w)


def structure_params(x, w, domain: Domain) -> StructureDiscParams:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    return StructureDiscParams(x, w, radius_r(x, w, domain))


def verify_feasible(disc: AnalyticDiscLift, domain: Domain,
                    n_boundary: int = 256) -> dict:
    """functionals.check_admissible on the least clearance of the disc's
    values at n_boundary nodes, evaluated once: origin_ok (norm at least
    delta_min) is None where boundary_ok already fails."""
    pts = grid_values(disc, BoundaryGrid(n_boundary))
    min_clearance = float(domain.clearance_many(pts).min())
    try:
        check_admissible(disc, min_clearance)
        boundary_ok, origin_ok = True, True
    except InfeasibleDiscError:
        boundary_ok, origin_ok = False, None
    except OriginViolation:
        boundary_ok, origin_ok = True, False
    return {
        "boundary_ok": boundary_ok,
        "min_clearance": min_clearance,
        "min_norm": disc.min_norm_on_grid(),
        "origin_ok": origin_ok,
        "feasible": bool(boundary_ok and origin_ok),
    }


def centre_homotopy(x, path_samples, domain: Domain) -> dict:
    """Family f_{x, gamma(s)} along a sampled path gamma in the domain.

    All discs share the center x; continuity is checked by bounding the
    coefficient jump between consecutive samples.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    discs = []
    for i, w in enumerate(path_samples):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if not domain.contains(w):
            raise DomainError(f"path sample {i} leaves the domain")
        if fs_distances(x[None, :], w / np.linalg.norm(w))[0] < 1e-7:
            raise DomainError(f"path sample {i} crosses the line through x")
        discs.append(make_structure_disc(structure_params(x, w, domain)))
    jumps = [float(np.abs(a.coeffs - b.coeffs).max())
             for a, b in zip(discs, discs[1:])]
    return {"discs": discs, "max_coeff_jump": max(jumps, default=0.0)}


def epsilon_upper_bound(x, phi_tilde: LiftedWeight, domain: Domain,
                        eps: float, seed: int = 0,
                        grid: BoundaryGrid | None = None) -> dict:
    """Search for w near x with H_{phi~}(f_{x,w}) <= phi~(x) + eps.

    Radii shrink geometrically (2^-k down to the floor), 32 seeded random
    directions per radius; the winner is the first (radius, direction) hit
    so the result is deterministic.
    """
    if seed < 0:  # a random stream needs a seed >= 0
        raise ConfigError(f"seed must be at least 0, not {seed}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if not domain.contains(x):
        raise DomainError("x must lie in the domain")
    phi_x = phi_tilde.value(x)
    if not math.isfinite(phi_x):
        raise DomainError("phi~(x) must be finite for the epsilon test")
    grid = grid or BoundaryGrid()
    rng = np.random.default_rng([seed, 0x5D])
    rad = 0.5
    best = (math.inf, None, None)
    while rad >= SHRINK_FLOOR:
        dirs = rng.standard_normal((DIRECTIONS_PER_RADIUS, x.size)) + \
            1j * rng.standard_normal((DIRECTIONS_PER_RADIUS, x.size))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for d in dirs:
            w = x + rad * d
            if not domain.contains(w):
                continue
            try:  # no structure disc through w, or not an admissible one
                disc = make_structure_disc(structure_params(x, w, domain))
                pts = admissible_values(disc, grid, domain)
            except (DomainError, ValueError, InfeasibleDiscError,
                    OriginViolation):
                continue
            value = poisson_functional(phi_tilde, pts).total
            if value < best[0]:
                best = (value, w, disc)
            if value <= phi_x + eps:
                return {"success": True, "w": w, "disc": disc, "value": value,
                        "phi_x": phi_x, "radius": rad}
        rad *= 0.5
    return {"success": False, "w": best[1], "disc": best[2], "value": best[0],
            "phi_x": phi_x, "radius": None,
            "note": "shrink floor reached without meeting the tolerance"}

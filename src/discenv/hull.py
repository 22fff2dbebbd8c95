"""Projective-hull membership certificates, the Lambda/C/rho conversions,
the shrinking-tube schedule, and the boundary-normalization conversion
between the two disc characterizations of the hull.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .discs import (AnalyticDiscLift, BoundaryGrid, CompositeDisc,
                    boundary_lognorms, circle_mean, disc_values,
                    holomorphic_completion_coeffs)
from .envelope import (CandidateLibrary, DiscFamilySpec, OptimizerConfig,
                       evaluate_witness, minimize)
from .errors import InfeasibleDiscError, NumericalError
from .functionals import _omega_lifted
from .projective import (Domain, LiftedWeight, ProjPoint, Tube, ZeroWeight,
                         fs_distance, lift)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompactSetSpec:
    samples: tuple
    connected: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.samples:
            raise ValueError("compact set needs at least one sample")
        merged = []
        for p in self.samples:
            if not any(p.isclose(q, 1e-14) for q in merged):
                merged.append(p)
        object.__setattr__(self, "samples", tuple(merged))

    def tube(self, delta: float) -> Tube:
        return Tube(self.samples, delta)

    def fs_distance_to(self, x: ProjPoint) -> float:
        return min(fs_distance(x, p) for p in self.samples)

    def to_json(self) -> dict:
        return {"samples": [p.to_json() for p in self.samples],
                "connected": self.connected, "name": self.name}

    @classmethod
    def from_json(cls, obj: dict) -> "CompactSetSpec":
        return cls(tuple(ProjPoint.from_json(p) for p in obj["samples"]),
                   bool(obj.get("connected", True)), obj.get("name", ""))


@dataclass
class HullCertificate:
    x: ProjPoint
    lam: float
    eps: float
    delta: float
    witness: AnalyticDiscLift
    value: float
    settings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"x": self.x.to_json(), "lambda": self.lam, "eps": self.eps,
                "delta": self.delta, "witness": self.witness.to_json(),
                "value": self.value, "settings": self.settings}

    def revalidate(self, K: CompactSetSpec, grid: BoundaryGrid | None = None,
                   tol: float = 1e-8) -> dict:
        """Recheck boundary-in-tube, center, and value (doubled resolution)."""
        grid = grid or BoundaryGrid(2 * int(self.settings.get("final_nodes", 1024)))
        pts = disc_values(self.witness, grid.nodes)
        clear = K.tube(self.delta).clearance_many(pts)
        center_ok = ProjPoint(self.witness.center).isclose(self.x, 1e-9)
        revalue = _omega_lifted(LiftedWeight(ZeroWeight()), self.witness,
                                grid, pts).total
        return {
            "boundary_in_tube": bool(np.all(clear > 0)),
            "center_ok": center_ok,
            "value_drift": abs(revalue - self.value),
            "ok": bool(np.all(clear > 0)) and center_ok and
                  abs(revalue - self.value) <= tol,
        }


@dataclass(frozen=True)
class SphericalLiftSet:
    """Phase-fiber samples of the unit-sphere lift of a compact set."""

    samples: np.ndarray  # (n_points * n_phase, n+1), all unit norm

    def min_distance(self, z_rows: np.ndarray) -> np.ndarray:
        diff = z_rows[:, None, :] - self.samples[None, :, :]
        return np.linalg.norm(diff, axis=2).min(axis=1)


def lambda_c_rho(value: float, source: str = "lambda") -> dict:
    """Conversions Lambda = log C = -log rho."""
    if source == "lambda":
        lam = float(value)
    elif source == "C":
        if value <= 0:
            raise ValueError("C must be positive")
        lam = math.log(value)
    elif source == "rho":
        if value <= 0:
            raise ValueError("rho must be positive")
        lam = -math.log(value)
    else:
        raise ValueError(f"unknown source {source!r}")
    return {"lambda": lam, "C": math.exp(lam), "rho": math.exp(-lam)}


def spherical_lift(K: CompactSetSpec, n_phase: int) -> SphericalLiftSet:
    if n_phase < 4:
        raise ValueError("need at least 4 phase samples")
    phases = np.exp(2j * np.pi * np.arange(n_phase) / n_phase)
    rows = [ph * p.vec for p in K.samples for ph in phases]
    return SphericalLiftSet(np.stack(rows))


def hull_test(x: ProjPoint, K: CompactSetSpec, lam: float, eps: float,
              delta: float, family: DiscFamilySpec | None = None,
              opt: OptimizerConfig | None = None,
              final_grid: BoundaryGrid | None = None):
    """Search for a disc certifying the quantitative hull condition: center
    x, boundary in the delta-tube of K, functional value < lam + eps.

    Success yields a HullCertificate for that tube; failure is only a
    report (the search is incomplete and proves nothing about x).
    """
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    if not K.connected:
        log.warning("hull test assumes a connected compact set")
    family = (family or DiscFamilySpec(m=x.vec.size)).with_center(x)
    opt = opt or OptimizerConfig()
    final_grid = final_grid or BoundaryGrid()
    tube = K.tube(delta)
    settings = {"final_nodes": final_grid.n, "starts": opt.starts,
                "budget": opt.budget, "seed": opt.seed,
                "degree": family.degree}
    if K.fs_distance_to(x) < delta - family.eta:
        disc = AnalyticDiscLift(x.vec[None, :])
        return HullCertificate(x, lam, eps, delta, disc, 0.0, settings)
    est = minimize("omega", x, tube, ZeroWeight(), family, opt, final_grid)
    if est.upper is not None and est.upper < lam + eps:
        return HullCertificate(x, lam, eps, delta, est.witness, est.upper,
                               settings)
    return {"certified": False, "best_value": est.upper,
            "statement": "condition (B) not certified at this search budget; "
                         "this does not witness exclusion from the hull",
            "settings": settings}


def lambda_schedule(x: ProjPoint, K: CompactSetSpec, deltas,
                    family: DiscFamilySpec | None = None,
                    opt: OptimizerConfig | None = None,
                    final_grid: BoundaryGrid | None = None) -> dict:
    """Envelope estimates along a strictly decreasing tube schedule.

    All searches share one witness pool and every per-delta estimate is the
    minimum over pool members feasible in that tube, so the sequence is
    nondecreasing by construction (smaller tubes admit fewer discs).
    """
    deltas = list(deltas)
    if any(b >= a for a, b in zip(deltas, deltas[1:])) or any(d <= 0 for d in deltas):
        raise ValueError("schedule must be strictly decreasing and positive")
    family = (family or DiscFamilySpec(m=x.vec.size)).with_center(x)
    opt = opt or OptimizerConfig()
    final_grid = final_grid or BoundaryGrid()
    pool: list[AnalyticDiscLift] = []
    for delta in deltas:
        tube = K.tube(delta)
        est = minimize("omega", x, tube, ZeroWeight(), family, opt, final_grid)
        pool.extend(d for _v, d in est.witnesses)
        if K.fs_distance_to(x) < delta - family.eta:
            pool.append(AnalyticDiscLift(x.vec[None, :]))
    estimates = []
    per_delta_witness = []
    for delta in deltas:
        tube = K.tube(delta)
        best = math.inf
        best_disc = None
        for disc in pool:
            value, feasible = evaluate_witness("omega", disc, tube,
                                               ZeroWeight(), family.eta,
                                               final_grid)
            if feasible and value < best:
                best, best_disc = value, disc
        estimates.append(best if math.isfinite(best) else None)
        per_delta_witness.append(best_disc)
    return {"deltas": deltas, "estimates": estimates,
            "witnesses": per_delta_witness,
            "final": estimates[-1]}


def normalize_disc(f0: AnalyticDiscLift, r: float,
                   grid: BoundaryGrid | None = None) -> CompositeDisc:
    """Divide a lift by exp of the (radius-r regularized) holomorphic
    completion of the harmonic extension of log|f0| over the boundary, so
    the boundary norm tends to 1 uniformly as r -> 1-."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0,1)")
    grid = grid or BoundaryGrid()
    g = kernels.lognorm(f0.coeffs, grid.nodes)
    expo = holomorphic_completion_coeffs(g, r)
    return CompositeDisc(f0, expo)


def center_report(disc: CompositeDisc) -> dict:
    p = disc.center
    norm = float(np.linalg.norm(p))
    return {"center": p, "norm": norm, "neg_log_norm": -math.log(norm)}


def b_to_bprime(cert: HullCertificate, K: CompactSetSpec, n_phase: int,
                tube_radius: float, r: float,
                grid: BoundaryGrid | None = None) -> dict:
    """Convert a tube certificate into a normalized disc whose boundary
    hugs the unit-sphere lift of K, with the center-norm bound
    -log|p| <= Lambda + 2 eps + quadrature slack."""
    grid = grid or BoundaryGrid()
    norm_disc = normalize_disc(cert.witness, r, grid)
    lifted = spherical_lift(K, n_phase)
    pts = disc_values(norm_disc, grid.nodes)
    dists = lifted.min_distance(pts)
    worst = float(dists.max())
    if worst > tube_radius:
        raise InfeasibleDiscError(
            f"normalized boundary misses the spherical-lift tube "
            f"(worst distance {worst:.3e} > {tube_radius:g}); try r closer to 1")
    rep = center_report(norm_disc)
    bound = cert.lam + 2.0 * cert.eps + 1e-4
    return {
        "disc": norm_disc,
        "center_norm": rep["norm"],
        "neg_log_center_norm": rep["neg_log_norm"],
        "bound": bound,
        "bound_ok": rep["neg_log_norm"] <= bound,
        "rho_pair": (rep["norm"], math.exp(-cert.lam)),
        "worst_tube_distance": worst,
    }


def bprime_to_b(disc: CompositeDisc, eps: float,
                grid: BoundaryGrid | None = None) -> dict:
    """From a disc with near-unit boundary norm, bound the interior mass
    functional by -log|p| + eps."""
    grid = grid or BoundaryGrid()
    lognorms = boundary_lognorms(disc, grid)
    worst = float(np.abs(lognorms).max())
    if float(lognorms.max()) > eps:
        raise InfeasibleDiscError(
            f"max log-norm on the boundary is {lognorms.max():.3e} > eps")
    rep = center_report(disc)
    functional = -math.log(float(np.linalg.norm(disc.base.center))) + \
        circle_mean(kernels.lognorm(disc.base.coeffs, grid.nodes))
    slack = 1e-8
    ok = functional <= rep["neg_log_norm"] + eps + slack
    if not ok:
        raise NumericalError("interior-mass bound violated beyond slack")
    return {"functional": functional, "neg_log_center_norm": rep["neg_log_norm"],
            "eps": eps, "bound_ok": ok, "max_abs_boundary_lognorm": worst}

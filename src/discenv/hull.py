"""Projective-hull membership certificates, the Lambda/C/rho conversions,
the shrinking-tube schedule, and the boundary-normalization conversion
between the two disc characterizations of the hull.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .discs import (DEFAULT_NODES, AnalyticDiscLift, BoundaryGrid,
                    CompositeDisc, boundary_lognorms, circle_mean, grid_values,
                    holomorphic_completion_coeffs, neg_log_center_norm)
from .envelope import (DiscFamilySpec, OptimizerConfig, evaluate_witness,
                       minimize)
from .errors import InfeasibleDiscError, NumericalError
from .projective import (ProjPoint, Tube, ZeroWeight, bool_from_json,
                         fs_distances)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompactSetSpec:
    samples: tuple
    connected: bool = True
    name: str = ""

    def __post_init__(self):
        if not self.samples:
            raise ValueError("compact set needs at least one sample")
        mat = np.stack([p.vec for p in self.samples])
        keep = [0]
        for i in range(1, len(mat)):
            if fs_distances(mat[keep], mat[i]).min() > 1e-14:
                keep.append(i)
        object.__setattr__(self, "samples", tuple(self.samples[i] for i in keep))

    def tube(self, delta: float) -> Tube:
        return Tube(self.samples, delta)

    def to_json(self) -> dict:
        return {"samples": [p.to_json() for p in self.samples],
                "connected": self.connected, "name": self.name}

    @classmethod
    def from_json(cls, obj: dict) -> "CompactSetSpec":
        return cls(tuple(ProjPoint.from_json(p) for p in obj["samples"]),
                   bool_from_json(obj.get("connected", True)), obj.get("name", ""))


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

    def revalidate(self, K: CompactSetSpec) -> dict:
        """evaluate_witness in the tube at margin 0 on the doubled final grid
        (boundary_in_tube, origin floor included), the center, the drift
        of the value (at most 1e-8) and the value itself, which must lie
        below lambda + eps (below_threshold)."""
        nodes = int(self.settings.get("final_nodes", DEFAULT_NODES))
        grid = BoundaryGrid(2 * nodes)
        revalue, admissible = evaluate_witness(
            "omega", self.witness, K.tube(self.delta), ZeroWeight(), 0.0, grid)
        center_ok = ProjPoint(self.witness.center).isclose(self.x, 1e-9)
        drift = abs(revalue - self.value)
        below = _certifies(self.value, self.lam, self.eps)
        return {
            "boundary_in_tube": admissible,
            "center_ok": center_ok,
            "value_drift": drift,
            "below_threshold": below,
            "ok": admissible and center_ok and drift <= 1e-8 and below,
        }


def _certifies(value: float | None, lam: float, eps: float) -> bool:
    """Whether a disc of this value meets condition (B): value < lam + eps
    (false for a missing value and for a NaN anywhere)."""
    return value is not None and value < lam + eps


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


def spherical_lift(K: CompactSetSpec, n_phase: int) -> np.ndarray:
    """Phase-fiber samples of the unit-sphere lift of K, shape
    (len(K.samples) * n_phase, n+1), all of unit norm."""
    if n_phase < 4:
        raise ValueError("need at least 4 phase samples")
    phases = np.exp(2j * np.pi * np.arange(n_phase) / n_phase)
    return np.stack([ph * p.vec for p in K.samples for ph in phases])


def hull_test(x: ProjPoint, K: CompactSetSpec, lam: float, eps: float,
              delta: float, family: DiscFamilySpec | None = None,
              opt: OptimizerConfig | None = None,
              final_grid: BoundaryGrid | None = None):
    """Search for a disc certifying the quantitative hull condition: center
    x, boundary in the delta-tube of K, functional value < lam + eps.

    Success yields a HullCertificate for that tube; failure is only a
    report (the search is incomplete and proves nothing about x).  The
    disc is minimize's witness under the zero weight: where the constant
    disc at x is admissible in the tube, minimize returns it with value 0
    without a search.
    """
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    if not K.connected:
        log.warning("hull test assumes a connected compact set")
    family = family or DiscFamilySpec()
    opt = opt or OptimizerConfig()
    final_grid = final_grid or BoundaryGrid()
    tube = K.tube(delta)
    settings = {"final_nodes": final_grid.n, "starts": opt.starts,
                "budget": opt.budget, "seed": opt.seed,
                "degree": family.degree}
    est = minimize("omega", x, tube, ZeroWeight(), family, opt, final_grid)
    disc, value = est.witness, est.upper
    if _certifies(value, lam, eps):
        return HullCertificate(x, lam, eps, delta, disc, value, settings)
    return {"certified": False, "best_value": value,
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
    nondecreasing by construction (smaller tubes admit fewer discs).  Where
    the constant disc at x is admissible in a tube, minimize returns it
    alone, without a search, so that tube adds only the constant disc to
    the pool; its value 0 is the least any disc has.
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("schedule must hold at least one tube radius")
    if any(b >= a for a, b in zip(deltas, deltas[1:])) or any(d <= 0 for d in deltas):
        raise ValueError("schedule must be strictly decreasing and positive")
    family = family or DiscFamilySpec()
    opt = opt or OptimizerConfig()
    final_grid = final_grid or BoundaryGrid()
    tubes = [K.tube(d) for d in deltas]
    pool: list[AnalyticDiscLift] = []
    for tube in tubes:
        est = minimize("omega", x, tube, ZeroWeight(), family, opt, final_grid)
        pool.extend(d for _v, d in est.witnesses)
    estimates = []
    per_delta_witness = []
    for tube in tubes:
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
    g = boundary_lognorms(f0, grid)
    expo = holomorphic_completion_coeffs(g, r)
    return CompositeDisc(f0, expo)


def center_report(disc: CompositeDisc) -> dict:
    p = disc.center
    return {"center": p, "norm": float(np.linalg.norm(p)),
            "neg_log_norm": neg_log_center_norm(disc)}


def b_to_bprime(cert: HullCertificate, K: CompactSetSpec, n_phase: int,
                tube_radius: float, r: float,
                grid: BoundaryGrid | None = None) -> dict:
    """Convert a tube certificate into a normalized disc whose boundary
    hugs the unit-sphere lift of K, with the center-norm bound
    -log|p| <= Lambda + 2 eps + quadrature slack."""
    grid = grid or BoundaryGrid()
    norm_disc = normalize_disc(cert.witness, r, grid)
    lifted = spherical_lift(K, n_phase)
    pts = grid_values(norm_disc, grid)
    # the least distance of each node's value to the lifted samples
    worst = float(np.linalg.norm(pts[:, None, :] - lifted[None, :, :],
                                 axis=2).min(axis=1).max())
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
    base_lognorms = boundary_lognorms(disc.base, grid)
    lognorms = base_lognorms - disc.exponent_on_grid(grid).real
    worst = float(np.abs(lognorms).max())
    if float(lognorms.max()) > eps:
        raise InfeasibleDiscError(
            f"max log-norm on the boundary is {lognorms.max():.3e} > eps")
    rep = center_report(disc)
    functional = neg_log_center_norm(disc.base) + circle_mean(base_lognorms)
    slack = 1e-8
    ok = functional <= rep["neg_log_norm"] + eps + slack
    if not ok:
        raise NumericalError("interior-mass bound violated beyond slack")
    return {"functional": functional, "neg_log_center_norm": rep["neg_log_norm"],
            "eps": eps, "bound_ok": ok, "max_abs_boundary_lognorm": worst}

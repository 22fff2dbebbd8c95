"""Envelope estimation: constrained minimization of disc functionals over
polynomial disc families with pinned center, plus lower-bound certificates
from a library of known admissible candidate functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discs import AnalyticDiscLift, BoundaryGrid, DEFAULT_NODES, disc_values
from .errors import ConfigError, DomainError
from .functionals import _omega_lifted, _sz, encode_float
from .kernels import row_lognorms
from .projective import (AffineBall, Domain, FsBall, LiftedWeight, ProjPoint,
                         Tube, Weight, chart)

# exterior penalty weight and the search-time margin inflation; the final
# witness is re-checked penalty-free against the family margin itself
PENALTY_RHO = 1.0e4
ETA_INFLATION = 1.5
ORIGIN_FLOOR = 1e-4
_INTERIOR_RADII = (0.25, 0.5, 0.75)
_INTERIOR_ANGLES = 16


@dataclass(frozen=True)
class DiscFamilySpec:
    degree: int = 6
    m: int = 2
    center: ProjPoint | None = None
    bound: float = 10.0
    eta: float = 1e-3

    def with_center(self, x: ProjPoint) -> "DiscFamilySpec":
        return DiscFamilySpec(self.degree, self.m, x, self.bound, self.eta)


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 20
    budget: int = 2000
    seed: int = 7
    search_nodes: int = 256
    workers: int = 1  # the restarts run in lock step in one process

    def __post_init__(self):
        if self.workers != 1:
            raise ConfigError(f"workers must be 1, got {self.workers}: the "
                              "restarts run in lock step in one process")


@dataclass
class EnvelopeEstimate:
    upper: float | None
    witness: AnalyticDiscLift | None
    lower: float | None
    lower_candidate: str | None
    gap: float | None
    trace: list
    settings: dict
    feasible: bool
    witnesses: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "upper": encode_float(self.upper),
            "witness": self.witness.to_json() if self.witness else None,
            "lower": encode_float(self.lower),
            "lower_candidate": self.lower_candidate,
            "gap": encode_float(self.gap),
            "trace": self.trace,
            "settings": self.settings,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class _ObjectiveSpec:
    """Everything the search needs besides its starting points.

    node_powers and interior_powers are the Vandermonde matrices
    t^k (N, degree+1) of the search and interior probe nodes, built once.
    """

    mode: str
    c0: np.ndarray
    degree: int
    domain: Domain
    weight: Weight
    bound: float
    eta_search: float
    nodes: np.ndarray
    interior_nodes: np.ndarray
    node_powers: np.ndarray = field(init=False, repr=False, compare=False)
    interior_powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.arange(self.degree + 1)
        for name, t in (("node_powers", self.nodes),
                        ("interior_powers", self.interior_nodes)):
            powers = np.asarray(t)[:, None] ** k
            powers.setflags(write=False)
            object.__setattr__(self, name, powers)

    @property
    def m(self) -> int:
        return self.c0.size

    @property
    def dim(self) -> int:
        return 2 * self.degree * self.m


def _theta_to_coeffs(spec: _ObjectiveSpec, theta: np.ndarray) -> np.ndarray:
    """Parameters (..., dim) -> disc coefficients (..., degree+1, m)."""
    c = theta.reshape(theta.shape[:-1] + (spec.degree, 2 * spec.m))
    cplx = c[..., : spec.m] + 1j * c[..., spec.m:]
    c0 = np.broadcast_to(spec.c0, theta.shape[:-1] + (1, spec.m))
    return np.concatenate([c0, cplx], axis=-2)


def _coeffs_to_theta(spec: _ObjectiveSpec, coeffs: np.ndarray) -> np.ndarray:
    tail = np.zeros((spec.degree, spec.m), dtype=np.complex128)
    k = min(spec.degree, coeffs.shape[0] - 1)
    tail[:k] = coeffs[1: 1 + k]
    return np.concatenate([tail.real, tail.imag], axis=1).reshape(-1)


def _clip_bound(spec: _ObjectiveSpec, theta: np.ndarray) -> np.ndarray:
    """Scale every coefficient of norm above the bound back onto it;
    theta has shape (..., dim)."""
    c = theta.reshape(theta.shape[:-1] + (spec.degree, 2 * spec.m))
    nrm = np.sqrt((c * c).sum(axis=-1))
    over = nrm > spec.bound
    if np.any(over):
        c = c.copy()
        c[over] *= (spec.bound / nrm[over])[:, None]
        return c.reshape(theta.shape)
    return theta


def _eval_rows(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Values of R discs, coeffs (R, d+1, m), at the N nodes whose
    Vandermonde matrix is powers (N, d+1), as (R*N, m) rows, disc by
    disc.  Each disc is its own matrix product, so a row does not depend
    on the other discs of the batch."""
    return (powers @ coeffs).reshape(-1, coeffs.shape[-1])


def _objective(spec: _ObjectiveSpec, thetas: np.ndarray) -> np.ndarray:
    """Penalized functional of the discs thetas (R, dim), shape (R,).

    A row is scored on its own: one whose f_0 vanishes at a node (sz mode)
    or whose value is not finite scores inf and leaves the others alone.
    """
    r, n = thetas.shape[0], spec.nodes.size
    coeffs = _theta_to_coeffs(spec, thetas)
    pts = _eval_rows(coeffs, spec.node_powers)
    with np.errstate(divide="ignore", invalid="ignore"):
        lognorms = row_lognorms(pts).reshape(r, n)
        if spec.mode == "omega":
            # center is a unit vector, so -log|f(0)| = 0
            value = np.mean(spec.weight.value_proj_many(pts).reshape(r, n) +
                            lognorms, axis=1)
        else:
            mags0 = np.abs(pts[:, 0]).reshape(r, n)
            charts = pts[:, 1:] / pts[:, :1]
            interior = np.mean(np.log(mags0), axis=1) - math.log(abs(spec.c0[0]))
            value = interior + np.mean(
                spec.weight.value_affine_many(charts).reshape(r, n), axis=1)
            value[np.any(mags0 == 0, axis=1)] = math.inf
        clear = np.clip(spec.domain.clearance_many(pts), -10.0, None).reshape(r, n)
        pen = PENALTY_RHO * np.mean(np.square(
            np.maximum(0.0, spec.eta_search - clear)), axis=1)
        inner = row_lognorms(_eval_rows(coeffs, spec.interior_powers)).reshape(r, -1)
        min_ln = np.minimum(lognorms.min(axis=1), inner.min(axis=1))
        floor_ln = math.log(ORIGIN_FLOOR)
        for i in np.flatnonzero(min_ln < floor_ln):
            pen[i] += 10.0 * (floor_ln - float(min_ln[i])) ** 2
        return np.where(np.isfinite(value), value + pen, math.inf)


def _search(spec: _ObjectiveSpec, theta0s, seed: int,
            budget: int) -> np.ndarray:
    """(1+1)-ES from each start, all restarts in lock step.

    Restart r draws its proposals from its own stream
    default_rng([seed, r, 17]), so its path does not depend on the other
    restarts; one objective call scores the R proposals of a step.
    Returns the final points, shape (R, dim).
    """
    dim = spec.dim
    theta = _clip_bound(spec, np.array(theta0s, dtype=float).reshape(-1, dim))
    rngs = [np.random.default_rng([seed, r, 17]) for r in range(len(theta))]
    best = _objective(spec, theta)
    sigma = np.full(len(theta), 0.25)
    for _ in range(1, budget):
        prop = theta.copy()
        for r, rng in enumerate(rngs):
            if rng.uniform() < 0.5:
                prop[r] += sigma[r] * rng.standard_normal(dim) / math.sqrt(dim)
            else:
                prop[r, rng.integers(dim)] += sigma[r] * rng.standard_normal()
        prop = _clip_bound(spec, prop)
        f = _objective(spec, prop)
        better = f < best
        best = np.where(better, f, best)
        theta[better] = prop[better]
        sigma = np.where(better, np.minimum(sigma * 1.4, 2.0),
                         np.maximum(sigma * 0.98, 1e-10))
    return theta


def _interior_probe_nodes() -> np.ndarray:
    ang = np.exp(2j * np.pi * np.arange(_INTERIOR_ANGLES) / _INTERIOR_ANGLES)
    pts = [np.array([0.0 + 0j])]
    pts.extend(r * ang for r in _INTERIOR_RADII)
    return np.concatenate(pts)


def _constructed_seeds(spec: _ObjectiveSpec) -> list:
    """Deterministic warm starts: the constant disc, plus Mobius-type
    degree-1 discs aimed at ball/tube anchors (the only disc shapes that
    can trade center distance against boundary containment)."""
    seeds = [np.zeros(spec.dim)]
    dom, c0 = spec.domain, spec.c0

    def push(c1):
        tail = np.zeros((spec.degree, spec.m), dtype=np.complex128)
        tail[0] = c1
        seeds.append(np.concatenate([tail.real, tail.imag], axis=1).reshape(-1))

    if spec.mode == "sz" and isinstance(dom, AffineBall):
        x_aff = chart(c0)
        sep = float(np.linalg.norm(x_aff - dom.center))
        if sep > 1e-12:
            amax = (dom.radius - 2.0 * spec.eta_search) / sep
            mu = abs(c0[0])  # c0 = (1, x) / |(1, x)|, first coord real > 0
            for frac in (0.97, 0.9, 0.75, 0.5, 0.25):
                a = frac * min(amax, 0.999)
                if a <= 0:
                    continue
                c1_aff = dom.center + a * a * (x_aff - dom.center)
                c1 = (-mu / a) * np.concatenate([[1.0 + 0j], c1_aff])
                push(c1)
    anchors = []
    if isinstance(dom, FsBall):
        anchors = [dom.center.vec]
    elif isinstance(dom, Tube):
        idx = np.linspace(0, len(dom.samples) - 1, min(8, len(dom.samples)))
        anchors = [dom.samples[int(i)].vec for i in idx]
    for k in anchors:
        perp = k - np.vdot(c0, k) * c0
        nrm = float(np.linalg.norm(perp))
        if nrm < 1e-9:
            continue
        perp /= nrm
        for beta in (0.25, 0.5, 0.75, 1.0, 1.5, 2.5):
            push(beta * perp)
    return seeds


def evaluate_witness(mode: str, disc: AnalyticDiscLift, domain: Domain,
                     weight: Weight, eta: float,
                     grid: BoundaryGrid) -> tuple[float, bool]:
    """Penalty-free functional value and feasibility of a witness disc.

    The value of an infeasible disc is not computed: it is (inf, False).
    The boundary values of the clearance check also give the value.
    """
    pts = disc_values(disc, grid.nodes)
    clear = domain.clearance_many(pts)
    if not (np.all(clear >= eta) and disc.min_norm_on_grid() >= disc.delta_min):
        return math.inf, False
    if mode == "omega":
        value = _omega_lifted(LiftedWeight(weight), disc, grid, pts).total
    else:
        value = _sz(weight, disc, None, grid, pts, "jensen").total
    return value, True


def build_objective_spec(mode: str, x: ProjPoint, domain: Domain,
                         weight: Weight, family: DiscFamilySpec,
                         opt: OptimizerConfig) -> _ObjectiveSpec:
    if mode not in ("omega", "sz"):
        raise ConfigError(f"unknown envelope mode {mode!r}")
    c0 = np.array(x.vec)
    if mode == "sz" and abs(c0[0]) < 1e-14:
        raise DomainError("sz mode needs a center in the chart z_0 != 0")
    grid = BoundaryGrid(opt.search_nodes)
    return _ObjectiveSpec(mode, c0, family.degree, domain, weight,
                          family.bound, ETA_INFLATION * family.eta,
                          grid.nodes, _interior_probe_nodes())


def minimize(mode: str, x: ProjPoint, domain: Domain, weight: Weight,
             family: DiscFamilySpec, opt: OptimizerConfig,
             final_grid: BoundaryGrid | None = None,
             library: "CandidateLibrary | None" = None,
             warm_theta: np.ndarray | None = None) -> EnvelopeEstimate:
    final_grid = final_grid or BoundaryGrid(DEFAULT_NODES)
    spec = build_objective_spec(mode, x, domain, weight, family, opt)
    seeds = _constructed_seeds(spec)
    if warm_theta is not None:
        seeds.insert(0, np.asarray(warm_theta, dtype=float))
    theta0s = []
    rng_master = np.random.default_rng([opt.seed, 0xE1])
    for r in range(opt.starts):
        if r < len(seeds):
            theta0 = seeds[r]
        else:
            mags = 10.0 ** rng_master.uniform(-2.0, math.log10(max(min(family.bound, 2.0), 0.011)),
                                              (spec.degree, 1))
            c = mags * (rng_master.standard_normal((spec.degree, spec.m)) +
                        1j * rng_master.standard_normal((spec.degree, spec.m)))
            theta0 = np.concatenate([c.real, c.imag], axis=1).reshape(-1)
        theta0s.append(theta0)
    thetas = _search(spec, theta0s, opt.seed, opt.budget)

    witnesses = []
    trace = []
    best_so_far = math.inf
    for restart, theta in enumerate(thetas):
        disc = AnalyticDiscLift(_theta_to_coeffs(spec, theta))
        value, feasible = evaluate_witness(mode, disc, domain, weight,
                                           family.eta, final_grid)
        best_so_far = min(best_so_far, value)
        trace.append(best_so_far if math.isfinite(best_so_far) else None)
        if feasible:
            witnesses.append((value, restart, disc))
    # the undescended seeds are legitimate witnesses too; keeping them
    # guards against penalty descent drifting a good seed out of the
    # feasible set
    for i, theta0 in enumerate(seeds):
        disc = AnalyticDiscLift(_theta_to_coeffs(spec, _clip_bound(spec, theta0)))
        value, feasible = evaluate_witness(mode, disc, domain, weight,
                                           family.eta, final_grid)
        if feasible:
            witnesses.append((value, opt.starts + i, disc))

    settings = {
        "mode": mode, "degree": family.degree, "bound": family.bound,
        "eta": family.eta, "starts": opt.starts, "budget": opt.budget,
        "seed": opt.seed, "search_nodes": opt.search_nodes,
        "final_nodes": final_grid.n,
    }
    lower = lower_id = None
    if library is not None:
        lower, lower_id = library.lower_bound(x)
    if not witnesses:
        return EnvelopeEstimate(None, None, lower, lower_id, None, trace,
                                settings, False)
    value, _restart, disc = min(witnesses, key=lambda t: (t[0], t[1]))
    gap = None if lower is None or not math.isfinite(lower) else value - lower
    if lower is not None and math.isfinite(lower) and lower > value + 1e-6:
        settings["inconsistent_bounds"] = True
    return EnvelopeEstimate(value, disc, lower, lower_id, gap, trace,
                            settings, True,
                            witnesses=[(v, d) for v, _r, d in witnesses])


# ---------------------------------------------------------------------------
# Candidate library for lower bounds


@dataclass
class _Candidate:
    name: str
    value_fn: object  # rows of cone representatives -> values
    shift: float
    violation: float  # max over W samples of (v + shift - phi)

    @property
    def excluded(self) -> bool:
        return self.violation > 1e-12


class CandidateLibrary:
    """Named admissible candidates v with v <= phi on sampled W; each gives
    the pointwise lower bound v(x) for the envelope."""

    def __init__(self, mode: str, domain: Domain, weight: Weight,
                 seed: int = 0, n_samples: int = 512):
        self.mode = mode
        self.domain = domain
        self.weight = weight
        rng = np.random.default_rng([seed, 0xCA])
        self._samples = domain.sample_points(rng, n_samples)
        if mode == "omega":
            self._phi_samples = weight.value_proj_many(self._samples)
        else:
            self._phi_samples = weight.value_affine_many(chart(self._samples))
        self.candidates: list[_Candidate] = []
        self._build_defaults()

    def _affine(self, z_rows):
        return chart(np.atleast_2d(z_rows))

    def _build_defaults(self):
        phi_min = float(np.min(self._phi_samples))
        if math.isfinite(phi_min):
            self.add("constant", lambda z: np.full(np.atleast_2d(z).shape[0], phi_min),
                     shift=0.0)
        m = self._samples.shape[1]
        if self.mode == "omega":
            for i in range(m):
                def v(z, i=i):
                    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
                    with np.errstate(divide="ignore"):
                        return np.log(np.abs(z[:, i])) - np.log(np.linalg.norm(z, axis=1))
                self.add(f"log_coord_{i}", v)
        else:
            def logplus(z):
                u = self._affine(z)
                n = np.linalg.norm(u, axis=1)
                return np.where(n > 1.0, np.log(np.maximum(n, 1e-300)), 0.0)

            self.add("log_plus_norm", logplus)
            for i in range(m - 1):
                def v(z, i=i):
                    u = self._affine(z)
                    with np.errstate(divide="ignore"):
                        return np.log(np.abs(u[:, i]))
                self.add(f"log_affine_coord_{i}", v)

    def add(self, name: str, value_fn, shift: float | None = None):
        vals = np.asarray(value_fn(self._samples), dtype=float)
        excess = vals - self._phi_samples
        worst = float(np.max(excess[np.isfinite(excess)], initial=-math.inf))
        if shift is None:
            shift = -max(worst, 0.0) if math.isfinite(worst) else 0.0
            # a candidate already below phi keeps shift 0 (shifting up would
            # break admissibility off the sample set)
            if worst < 0:
                shift = 0.0
        violation = worst + shift
        self.candidates.append(_Candidate(name, value_fn, shift, violation))

    def lower_bound(self, x: ProjPoint) -> tuple[float, str | None]:
        best = -math.inf
        best_name = None
        z = x.vec.reshape(1, -1)
        for c in self.candidates:
            if c.excluded:
                continue
            val = float(np.asarray(c.value_fn(z), dtype=float)[0]) + c.shift
            if val > best:
                best, best_name = val, c.name
        return best, best_name


def envelope_grid(mode: str, points: list, domain: Domain, weight: Weight,
                  family: DiscFamilySpec, opt: OptimizerConfig,
                  final_grid: BoundaryGrid | None = None,
                  library: CandidateLibrary | None = None) -> list:
    """Elementwise minimize with neighbor warm starts (the previous witness
    re-centered at the next point)."""
    out = []
    warm = None
    for x in points:
        fam = family.with_center(x)
        est = minimize(mode, x, domain, weight, fam, opt, final_grid,
                       library=library, warm_theta=warm)
        if est.witness is not None:
            spec = build_objective_spec(mode, x, domain, weight, fam, opt)
            warm = _coeffs_to_theta(spec, est.witness.coeffs)
        out.append(est)
    return out

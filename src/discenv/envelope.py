"""Envelope estimation: constrained minimization of disc functionals over
polynomial disc families with pinned center, plus lower-bound certificates
from a library of known admissible candidate functions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .discs import AnalyticDiscLift, BoundaryGrid, DEFAULT_NODES
from .errors import (BoundaryZeroError, ConfigError, DomainError,
                     InfeasibleDiscError, OriginViolation)
from .functionals import (admissible_values, encode_float,
                          omega_functional_lifted, sz_functional)
from .projective import (AffineBall, ConstantWeight, Domain, FsBall,
                         LiftedWeight, ProjPoint, Tube, Weight, ZeroWeight,
                         affine_lift, chart)
from .structure import StructureDiscParams, make_structure_disc

# exterior penalty weight and the search-time margin inflation; the final
# witness is re-checked penalty-free against the family margin itself
PENALTY_RHO = 1.0e4
ETA_INFLATION = 1.5
ORIGIN_FLOOR = 1e-4
# steps of (1+1)-ES draws per restart and block (see _search)
_DRAW_BLOCK = 16
# the unsearched ball witness clears the ball by this times eta, so that
# rounding cannot bring it down to eta (see _unsearched_witnesses)
OPTIMAL_MARGIN = 1.0 + 1e-7


@dataclass(frozen=True)
class DiscFamilySpec:
    """Degree, coefficient bound and feasibility margin eta of the disc
    family; m and center are not read."""

    degree: int = 6
    m: int = 2
    center: ProjPoint | None = None
    bound: float = 10.0
    eta: float = 1e-3

    def __post_init__(self):
        # eta <= 0 would accept a disc whose boundary leaves the domain
        if self.degree < 1:
            raise ConfigError(f"degree must be at least 1, not {self.degree}")
        for name in ("bound", "eta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, not {v!r}")


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
        # a search grid needs 4 nodes, and a random stream a seed >= 0
        for name, least in (("starts", 1), ("budget", 1), ("search_nodes", 4),
                            ("seed", 0)):
            v = getattr(self, name)
            if v < least:
                raise ConfigError(f"{name} must be at least {least}, not {v}")


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
    """The problem minimize solves, read by both its routes."""

    mode: str
    c0: np.ndarray
    degree: int
    domain: Domain
    weight: Weight
    bound: float
    eta: float
    grid: BoundaryGrid

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def node_powers(self) -> np.ndarray:
        return self.grid.powers(self.degree)

    @functools.cached_property
    def powers32(self) -> np.ndarray:
        """node_powers for the search, which runs in single precision:
        cast to complex64 and transposed to (degree+1, N) on the first
        search step, so that an unsearched minimize pays nothing."""
        powers = self.node_powers.T.astype(np.complex64, order="C")
        powers.setflags(write=False)
        return powers

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


def _coeffs_to_theta(degree: int, coeffs: np.ndarray) -> np.ndarray:
    tail = np.zeros((degree, coeffs.shape[1]), dtype=np.complex128)
    k = min(degree, coeffs.shape[0] - 1)
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


def _coeff_rows(spec: _ObjectiveSpec, thetas: np.ndarray) -> np.ndarray:
    """Parameters (R, dim) -> the discs' coefficients coordinate-major,
    (m*R, degree+1) complex64: row j*R + r is coordinate j of disc r, c0[j]
    and then its tail from theta, filled in place."""
    r, m, d = thetas.shape[0], spec.m, spec.degree
    tail = thetas.reshape(r, d, 2, m).transpose(2, 3, 0, 1)  # (re/im, m, R, d)
    rows = np.empty((m, r, d + 1), dtype=np.complex64)
    rows[:, :, 0] = spec.c0[:, None]
    rows.real[:, :, 1:] = tail[0]
    rows.imag[:, :, 1:] = tail[1]
    return rows.reshape(m * r, d + 1)


def _weight_values(mode: str, weight: Weight, rows: np.ndarray) -> np.ndarray:
    """phi at the cone representatives rows (N, m) in the mode's chart: at
    [z] on P^n (omega) or at u = z'/z_0 (sz)."""
    if mode == "omega":
        return weight.value_proj_many(rows)
    return weight.value_affine_many(chart(rows))


def _functional(spec: _ObjectiveSpec, rows: np.ndarray, sq: np.ndarray,
                norm2: np.ndarray) -> np.ndarray:
    """Penalty-free functional of R discs, shape (R,), from their boundary
    values rows (R*N, m), the squared moduli sq (m, R, N) and |f|^2 norm2
    (R, N).  The logs and means run in the dtype of sq; a weight's values
    follow numpy's promotion."""
    r, n = norm2.shape
    zero_weight = isinstance(spec.weight, ZeroWeight)
    if not zero_weight:
        phi = _weight_values(spec.mode, spec.weight, rows).reshape(r, n)
    if spec.mode == "omega":
        # center is a unit vector, so -log|f(0)| = 0
        lognorms = 0.5 * np.log(norm2)
        return np.mean(lognorms if zero_weight else phi + lognorms, axis=1)
    interior = 0.5 * np.mean(np.log(sq[0]), axis=1) - math.log(abs(spec.c0[0]))
    # the zero weight's mean is 0.0: no chart is needed
    return interior + (0.0 if zero_weight else np.mean(phi, axis=1))


def _domain_penalty(spec: _ObjectiveSpec, rows: np.ndarray,
                    sq: np.ndarray) -> np.ndarray:
    """The exterior penalty of each of the R discs whose boundary values
    are rows (R*N, m), with squared moduli sq (m, R, N), shape (R,): the
    mean of max(0, eta - max(c, -10))^2 over the clearances c.  As
    rounding is monotone, eta - max(c, -10) is clip(eta - c, ., eta + 10)
    to the bit; the clearance is a fresh array, and the penalty runs in
    it."""
    m, r, n = sq.shape
    eta = ETA_INFLATION * spec.eta
    pen = spec.domain.clearance_many(rows, sq.reshape(m, r * n))
    pen = pen.reshape(r, n)
    np.clip(np.subtract(eta, pen, out=pen), 0.0, eta + 10.0, out=pen)
    return PENALTY_RHO * np.mean(np.square(pen, out=pen), axis=1)


def _objective(spec: _ObjectiveSpec, thetas: np.ndarray) -> np.ndarray:
    """Penalized functional of the discs thetas (R, dim), shape (R,).

    It only ranks the search's proposals, so it runs in single precision:
    the boundary values, their moduli, the logs and means, the penalty and
    the origin floor.  Every witness the search returns is re-scored in
    double by evaluate_witness, and only that value is reported.

    A row is scored on its own: one whose value is not finite scores inf
    and leaves the others alone.  That includes a row whose f_0 vanishes
    at a node in sz mode, whose mean log|f_0|^2 is -inf.

    Each |f_j|^2 is taken once, as Re^2 + Im^2, for the functional, the
    origin floor and the domain alike.  The origin floor reads the least
    |f| on the nodes; a near zero of f at an interior point a needs no
    floor, as the functional itself rises by about log(1/|a|) there.
    """
    r, n, m = thetas.shape[0], spec.nodes.size, spec.m
    coeffs = _coeff_rows(spec, thetas)
    vals = (coeffs @ spec.powers32).reshape(m, r, n)
    # the domain and the weights see (R*N, m) rows: a transposed view
    rows = vals.reshape(m, r * n).T
    # each |f_j|^2 as Re^2 + Im^2: the interleaved parts squared in one
    # contiguous pass, faster than two strided ones, and added in pairs
    pairs = np.square(vals.view(np.float32))
    sq = pairs[..., 0::2] + pairs[..., 1::2]
    # |f|^2, the coordinates added in order
    norm2 = sq.sum(axis=0)
    least = norm2.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = _functional(spec, rows, sq, norm2)
        pen = _domain_penalty(spec, rows, sq)
        min_ln = 0.5 * np.log(least)
        pen += 10.0 * np.square(np.maximum(0.0, math.log(ORIGIN_FLOOR) - min_ln))
        return np.where(np.isfinite(value), value + pen, math.inf)


def _search(spec: _ObjectiveSpec, theta0s, seed: int,
            budget: int) -> np.ndarray:
    """(1+1)-ES from each start, all restarts in lock step.

    Restart r draws from its own stream default_rng([seed, r, 17]), so its
    path does not depend on the other restarts; one objective call scores
    the R proposals of a step.  Every _DRAW_BLOCK steps each restart draws
    its next block, always in this order: u = uniform(B), z =
    standard_normal((B, dim)) * (1/sqrt(dim)), k = integers(dim, size=B)
    and g = standard_normal(B), for B = _DRAW_BLOCK.  Step i of a block
    proposes theta + sigma * z[i] where u[i] < 0.5, and otherwise adds
    sigma * g[i] to coordinate k[i] alone; the proposal is clipped to the
    bound.  A budget-B search is thus a prefix of any longer one.  theta,
    sigma and the draws are double; only the scores, which rank the
    proposals, are single precision (_objective).
    Returns the final points, shape (R, dim).
    """
    dim = spec.dim
    theta = _clip_bound(spec, np.array(theta0s, dtype=float).reshape(-1, dim))
    rngs = [np.random.default_rng([seed, r, 17]) for r in range(len(theta))]
    scale = 1.0 / math.sqrt(dim)
    best = _objective(spec, theta)
    sigma = np.full(len(theta), 0.25)
    # one block of draws per restart, a row of each array, filled in place:
    # random(out=) is uniform(size=B) bit for bit
    u = np.empty((len(theta), _DRAW_BLOCK))
    z = np.empty((len(theta), _DRAW_BLOCK, dim))
    k = np.empty((len(theta), _DRAW_BLOCK), dtype=np.int64)
    g = np.empty((len(theta), _DRAW_BLOCK))
    for step in range(budget - 1):
        i = step % _DRAW_BLOCK
        if i == 0:
            for r, rng in enumerate(rngs):
                rng.random(out=u[r])
                rng.standard_normal(out=z[r])
                k[r] = rng.integers(dim, size=_DRAW_BLOCK)
                rng.standard_normal(out=g[r])
            z *= scale
            full = u < 0.5
        prop = np.where(full[:, i, None], theta + sigma[:, None] * z[:, i], theta)
        one = ~full[:, i]
        prop[one, k[one, i]] += sigma[one] * g[one, i]
        prop = _clip_bound(spec, prop)
        f = _objective(spec, prop)
        better = f < best
        best = np.where(better, f, best)
        theta[better] = prop[better]
        sigma = np.where(better, np.minimum(sigma * 1.4, 2.0),
                         np.maximum(sigma * 0.98, 1e-10))
    return theta


def _ball_structure_coeffs(mode: str, c0: np.ndarray, dom: Domain,
                           margin: float) -> np.ndarray | None:
    """Coefficients (2, m) of the structure disc through c0 whose boundary
    is the sphere `margin` inside a ball, rescaled so that f(0) = c0 (row 0
    is c0 itself); None where the domain is no such ball or c0 lies inside
    the shrunk one.

    The ball is round in an affine chart where c0 reads x and the centre
    w: an AffineBall in sz mode has x = (1, u), w = (1, c) and chart radius
    R - margin; an FsBall about p, in any mode, has x = c0/<p, c0>, w = p
    and radius tan(rho - margin) in the chart z -> z/<p, z>.
    """
    if mode == "sz" and isinstance(dom, AffineBall):
        x, w = affine_lift(chart(c0)), affine_lift(dom.center)
        r = dom.radius - margin
    elif isinstance(dom, FsBall) and abs(np.vdot(dom.center.vec, c0)) > 1e-12:
        p = dom.center.vec
        x, w, r = c0 / np.vdot(p, c0), p, math.tan(dom.radius - margin)
    else:
        return None
    try:
        params = StructureDiscParams(x, w, r)
    except (DomainError, ValueError):  # x lies inside the shrunk ball
        return None
    c1 = make_structure_disc(params).coeffs[1]
    return np.stack([c0, c1 * (np.vdot(x, c0) / np.vdot(x, x))])


def _constructed_seeds(spec: _ObjectiveSpec) -> list:
    """Deterministic warm starts worked out from the domain, as parameter
    vectors: the constant disc first, then degree-1 discs through x.

    A ball (_ball_structure_coeffs) gets the structure disc through x whose
    boundary is the sphere 2 eta inside it, clear of the search's penalty
    band below 1.5 eta; for an exterior AffineBall point its value is
    V + log(R/(R - 2 eta)).  Points further inside than that keep the
    constant disc alone.  A Tube gets, for each of up to 8 anchors k, the
    circle about x through k.
    """
    c0, dom = spec.c0, spec.domain
    seeds = [c0[None, :]]
    ball = _ball_structure_coeffs(spec.mode, c0, dom, 2.0 * spec.eta)
    if ball is not None:
        seeds.append(ball)
    if isinstance(dom, Tube):
        idx = np.linspace(0, len(dom.samples) - 1, min(8, len(dom.samples)))
        for i in idx:
            k = dom.samples[int(i)].vec
            a = np.vdot(c0, k)
            perp = k - a * c0
            # f(t) = c0 + t perp/|a| meets [k] at t = conj(a)/|a|
            if abs(a) > 1e-9 and np.linalg.norm(perp) > 1e-9:
                seeds.append(np.stack([c0, perp / abs(a)]))
    return [_coeffs_to_theta(spec.degree, c) for c in seeds]


def evaluate_witness(mode: str, disc: AnalyticDiscLift, domain: Domain,
                     weight: Weight, eta: float,
                     grid: BoundaryGrid) -> tuple[float, bool]:
    """Penalty-free functional value and feasibility of a witness disc.

    Feasible means admissible_values at margin eta, whose values give the
    value; an infeasible disc's is not computed: (inf, False).  In sz mode
    the interior term comes from the zeros of f_0 (Jensen's formula), and
    f_0 may not vanish at a node or within the roots' margin of the circle.
    """
    try:
        pts = admissible_values(disc, grid, domain, eta)
        if mode == "omega":
            return omega_functional_lifted(LiftedWeight(weight), disc, pts).total, True
        return sz_functional(weight, disc, pts, "direct").total, True
    except (InfeasibleDiscError, OriginViolation, BoundaryZeroError):
        return math.inf, False


def _check_mode(mode: str) -> None:
    if mode not in ("omega", "sz"):
        raise ConfigError(f"unknown envelope mode {mode!r}")


def build_objective_spec(mode: str, x: ProjPoint, domain: Domain,
                         weight: Weight, family: DiscFamilySpec,
                         opt: OptimizerConfig) -> _ObjectiveSpec:
    _check_mode(mode)
    c0 = np.array(x.vec)
    if mode == "sz" and abs(c0[0]) < 1e-14:
        raise DomainError("sz mode needs a center in the chart z_0 != 0")
    return _ObjectiveSpec(mode, c0, family.degree, domain, weight,
                          family.bound, family.eta,
                          BoundaryGrid(opt.search_nodes))


def _searched_witnesses(spec: _ObjectiveSpec, opt: OptimizerConfig,
                        final_grid: BoundaryGrid,
                        warm_theta: np.ndarray | None) -> tuple[list, list]:
    """The (1+1)-ES from the constructed seeds, warm_theta first, topped up
    with random starts to opt.starts: the feasible witnesses (value, disc),
    in restart order, and the trace, the best value after each restart."""
    seeds = _constructed_seeds(spec)
    if warm_theta is not None:
        seeds.insert(0, np.asarray(warm_theta, dtype=float))
    theta0s = seeds[:opt.starts]
    rng_master = np.random.default_rng([opt.seed, 0xE1])
    top = math.log10(max(min(spec.bound, 2.0), 0.011))
    for _ in range(opt.starts - len(theta0s)):
        mags = 10.0 ** rng_master.uniform(-2.0, top, (spec.degree, 1))
        c = mags * (rng_master.standard_normal((spec.degree, spec.m)) +
                    1j * rng_master.standard_normal((spec.degree, spec.m)))
        theta0s.append(_coeffs_to_theta(spec.degree, np.vstack([spec.c0, c])))
    thetas = _search(spec, theta0s, opt.seed, opt.budget)

    # the restart end points, then the undescended seeds: legitimate
    # witnesses too, which guards against penalty descent drifting a good
    # seed out of the feasible set.  The trace follows the restarts.
    witnesses = []
    trace = []
    best_so_far = math.inf
    ends = np.concatenate([thetas, _clip_bound(spec, np.array(seeds))])
    for i, theta in enumerate(ends):
        disc = AnalyticDiscLift(_theta_to_coeffs(spec, theta))
        value, feasible = evaluate_witness(spec.mode, disc, spec.domain,
                                           spec.weight, spec.eta, final_grid)
        if feasible:
            witnesses.append((value, disc))
        if i < len(thetas):
            best_so_far = min(best_so_far, value)
            trace.append(best_so_far if math.isfinite(best_so_far) else None)
    return witnesses, trace


def _unsearched_witnesses(spec: _ObjectiveSpec,
                          final_grid: BoundaryGrid) -> list:
    """[(value, disc)] for a disc that no admissible disc beats, or [].

    Every library weight phi is omega-psh (Lelong class in sz mode): by the
    sub-mean property no admissible disc has value below phi(x), so the
    constant disc at x, if admissible, is optimal, with value exactly
    phi(x), not the mean (which may be an ulp off).  Else, under a constant
    weight c on an AffineBall in sz mode: a disc whose boundary clears the
    ball by eta lies in the shrunk ball W_eta, so its value is at least c +
    V_{W_eta}(x), and the structure disc whose boundary is the sphere eta'
    = OPTIMAL_MARGIN * eta inside has c + V_{W_eta'}(x), exact to rounding
    since the sz value sums log|a| over the zeros of f_0.  The excess,
    log((R - eta)/(R - eta')), is about 1e-7 eta/(R - eta): below 1e-9 at
    eta = 1e-3 unless R is below about 0.1.  The disc is taken if it lies
    in the family (its coefficient within the bound) and is admissible at
    the final grid, with its re-evaluated value.  An FsBall in omega mode
    searches: the omega value of its structure disc is a boundary mean of
    log|f|, which reads low where a zero of the disc nears the circle.
    """
    def admitted(disc):
        return evaluate_witness(spec.mode, disc, spec.domain, spec.weight,
                                spec.eta, final_grid)
    constant = AnalyticDiscLift(spec.c0[None, :])
    if admitted(constant)[1]:
        phi = _weight_values(spec.mode, spec.weight, spec.c0[None, :])
        return [(float(phi[0]), constant)]
    if not (spec.mode == "sz" and isinstance(spec.domain, AffineBall) and
            isinstance(spec.weight, ConstantWeight)):
        return []
    coeffs = _ball_structure_coeffs(spec.mode, spec.c0, spec.domain,
                                    OPTIMAL_MARGIN * spec.eta)
    if coeffs is None or np.linalg.norm(coeffs[1]) > spec.bound:
        return []
    disc = AnalyticDiscLift(coeffs)
    value, feasible = admitted(disc)
    return [(value, disc)] if feasible else []


def minimize(mode: str, x: ProjPoint, domain: Domain, weight: Weight,
             family: DiscFamilySpec, opt: OptimizerConfig,
             final_grid: BoundaryGrid | None = None,
             library: "CandidateLibrary | None" = None,
             warm_theta: np.ndarray | None = None) -> EnvelopeEstimate:
    """Upper bound on the envelope at x: the least value of the feasible
    witnesses, over discs of the family centred at x; lower bound and gap
    from the library, if one is given.

    The disc of _unsearched_witnesses, if any, is returned alone and no
    search runs (trace is empty): the constant disc at x, with upper
    exactly phi(x), or under a constant weight outside an AffineBall in sz
    mode the structure disc within 1e-9 of the envelope.  Else a (1+1)-ES
    runs from opt.starts starts, and trace holds the best value after each
    restart.  witnesses are the feasible (value, disc) pairs; ties go to
    the earliest restart.
    """
    final_grid = final_grid or BoundaryGrid(DEFAULT_NODES)
    spec = build_objective_spec(mode, x, domain, weight, family, opt)
    witnesses, trace = _unsearched_witnesses(spec, final_grid), []
    if not witnesses:
        witnesses, trace = _searched_witnesses(spec, opt, final_grid,
                                               warm_theta)

    settings = {
        "mode": mode, "degree": family.degree, "bound": family.bound,
        "eta": family.eta, "starts": opt.starts, "budget": opt.budget,
        "seed": opt.seed, "search_nodes": opt.search_nodes,
        "final_nodes": final_grid.n,
    }
    lower = lower_id = None
    if library is not None:
        lower, lower_id = library.lower_bound(x)
    value, disc = min(witnesses, key=lambda w: w[0], default=(None, None))
    bounded = disc is not None and lower is not None and math.isfinite(lower)
    gap = value - lower if bounded else None
    if bounded and lower > value + 1e-6:
        settings["inconsistent_bounds"] = True
    return EnvelopeEstimate(value, disc, lower, lower_id, gap, trace,
                            settings, disc is not None, witnesses=witnesses)


# ---------------------------------------------------------------------------
# Candidate library for lower bounds


def _candidate_table(mode: str, weight: Weight, rows: np.ndarray,
                     constant: float) -> tuple[list, np.ndarray]:
    """Names and values (N, K) of the library's candidates at the cone
    representatives rows (N, m): the constant (where finite), log|z_i|/|z|
    (omega) or log+|u| and log|u_i| in the chart u = z'/z_0 (sz), and last
    `weight`, phi itself.  A point off the chart reads NaN or +-inf."""
    cols = {}
    if math.isfinite(constant):
        cols["constant"] = np.full(len(rows), constant)
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode == "omega":
            log_norm = np.log(np.linalg.norm(rows, axis=1))
            for i in range(rows.shape[1]):
                cols[f"log_coord_{i}"] = np.log(np.abs(rows[:, i])) - log_norm
        else:
            u = chart(rows)
            n = np.linalg.norm(u, axis=1)
            cols["log_plus_norm"] = np.where(n > 1.0, np.log(np.maximum(n, 1e-300)), 0.0)
            for i in range(u.shape[1]):
                cols[f"log_affine_coord_{i}"] = np.log(np.abs(u[:, i]))
        cols["weight"] = _weight_values(mode, weight, rows)
    return list(cols), np.stack(list(cols.values()), axis=1)


class CandidateLibrary:
    """Named admissible candidates v, each shifted down by its largest
    finite excess over phi on n_samples points sampled in the domain, and
    further by the few ulps that make v + shift <= phi hold in floating
    point at every sample; each gives the pointwise lower bound v(x) +
    shift for the envelope.  A candidate already below phi keeps shift 0:
    shifting it up would break admissibility off the sample set.  The
    last, phi itself, keeps shift 0: every library weight is psh."""

    def __init__(self, mode: str, domain: Domain, weight: Weight,
                 seed: int = 0, n_samples: int = 512):
        _check_mode(mode)
        if seed < 0:  # a random stream needs a seed >= 0
            raise ConfigError(f"seed must be at least 0, not {seed}")
        self.mode, self.weight = mode, weight
        rng = np.random.default_rng([seed, 0xCA])
        samples = domain.sample_points(rng, n_samples)
        phi = _weight_values(mode, weight, samples)
        self.constant = float(np.min(phi))
        self.names, vals = _candidate_table(mode, weight, samples,
                                            self.constant)
        excess = vals - phi[:, None]
        finite = np.isfinite(excess)
        worst = np.max(excess, axis=0, where=finite, initial=-math.inf)
        shifts = np.where(worst > 0, -worst, 0.0)
        # -worst is rounded, so v + shift may land a few ulps above phi:
        # lower such a shift an ulp at a time until it does not
        while (over := np.any((vals + shifts > phi[:, None]) & finite,
                              axis=0)).any():
            shifts[over] = np.nextafter(shifts[over], -math.inf)
        self.shifts = shifts

    def lower_bound(self, x: ProjPoint) -> tuple[float, str | None]:
        """The largest shifted candidate at x and its name (the first of
        equals); (-inf, None) where none exceeds -inf."""
        _names, vals = _candidate_table(self.mode, self.weight,
                                        x.vec.reshape(1, -1), self.constant)
        vals = vals[0] + self.shifts
        vals[np.isnan(vals)] = -math.inf
        best = int(np.argmax(vals))
        if vals[best] == -math.inf:
            return -math.inf, None
        return float(vals[best]), self.names[best]


def envelope_grid(mode: str, points: list, domain: Domain, weight: Weight,
                  family: DiscFamilySpec, opt: OptimizerConfig,
                  final_grid: BoundaryGrid | None = None,
                  library: CandidateLibrary | None = None) -> list:
    """Elementwise minimize with neighbor warm starts (the previous witness
    re-centered at the next point)."""
    out = []
    warm = None
    for x in points:
        est = minimize(mode, x, domain, weight, family, opt, final_grid,
                       library=library, warm_theta=warm)
        if est.witness is not None:
            warm = _coeffs_to_theta(family.degree, est.witness.coeffs)
        out.append(est)
    return out

"""Envelope minimization: feasibility, seeds, lower bounds, determinism."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from discenv import envelope, kernels
from discenv.discs import (DEFAULT_NODES, AnalyticDiscLift, BoundaryGrid,
                           grid_values)
from discenv.envelope import (_DRAW_BLOCK, ETA_INFLATION, ORIGIN_FLOOR,
                              PENALTY_RHO, CandidateLibrary, DiscFamilySpec,
                              EnvelopeEstimate, OptimizerConfig,
                              _clip_bound, _coeff_rows, _constructed_seeds,
                              _objective, _search, _theta_to_coeffs,
                              build_objective_spec, envelope_grid,
                              evaluate_witness, minimize)
from discenv.errors import ConfigError
from discenv.functionals import omega_functional_lifted, sz_functional
from discenv.projective import (AffineBall, AffineLogPolyWeight,
                                ConstantWeight, Domain, FsBall, HomPolynomial,
                                HyperplaneComplement, Intersection,
                                LiftedWeight, LogPolyWeight, ProjPoint, Tube,
                                Weight, ZeroWeight, affine_lift, chart,
                                fs_distance)

SMALL = OptimizerConfig(starts=6, budget=300, seed=3, search_nodes=128)


def test_point_inside_domain_constant_disc():
    x = ProjPoint(np.array([1.0, 0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    assert est.feasible
    assert est.upper <= 1e-9  # constant disc gives phi(x) = 0


def test_constant_weight_shifts_value():
    x = ProjPoint(np.array([1.0, 0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est0 = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    est1 = minimize("omega", x, dom, ConstantWeight(1.0), fam, SMALL)
    assert est1.upper == pytest.approx(est0.upper + 1.0, abs=1e-9)


def test_no_feasible_disc_reported_not_inf():
    # center far outside a tiny ball, low degree, tiny budget
    x = ProjPoint(np.array([0.0, 1.0]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.01)
    fam = DiscFamilySpec(degree=1, m=2, center=x)
    est = minimize("omega", x, dom, ZeroWeight(), fam,
                   OptimizerConfig(starts=2, budget=50, seed=0,
                                   search_nodes=64))
    assert not est.feasible
    assert est.upper is None and est.witness is None


def test_witness_reevaluation_stable():
    x = ProjPoint(np.array([1.0, 0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.6)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    value, feasible = evaluate_witness("omega", est.witness, dom,
                                       ZeroWeight(), fam.eta,
                                       BoundaryGrid(2048))
    assert feasible
    assert value == pytest.approx(est.upper, abs=1e-6)


def test_trace_monotone():
    # outside the ball, so that the search runs and the trace has a value
    # per restart
    x = ProjPoint(np.array([1.0, 0.6]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    assert len(est.trace) == SMALL.starts
    vals = [v for v in est.trace if v is not None]
    assert vals and all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_determinism_json_level():
    # outside the ball: a searched estimate
    x = ProjPoint(np.array([1.0, 0.45]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.4)
    fam = DiscFamilySpec(degree=4, m=2, center=x)
    runs = []
    for _ in range(2):
        est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
        assert est.trace
        runs.append(json.dumps(est.to_json(), sort_keys=True))
    assert runs[0] == runs[1]


def test_siciak_small_budget():
    x = ProjPoint(affine_lift(np.array([2.0 + 0j])))
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    fam = DiscFamilySpec(degree=2, m=2, center=x)
    lib = CandidateLibrary("sz", dom, ZeroWeight(), seed=3)
    est = minimize("sz", x, dom, ZeroWeight(), fam, SMALL, library=lib)
    # the constructed Mobius seeds already land near log 2
    assert math.log(2.0) - 1e-9 <= est.upper <= math.log(2.0) + 0.1
    assert est.lower == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.lower_candidate == "log_plus_norm"


def _reference_library(mode, dom, weight, seed):
    """The library one candidate at a time: each candidate's values at the
    rows z (N, m), its shift (minus its largest finite excess over phi on
    the 512 samples, 0.0 where that is not positive), and a lower bound
    that keeps the first candidate strictly above the best so far."""
    samples = dom.sample_points(np.random.default_rng([seed, 0xCA]), 512)
    phi = (weight.value_proj_many(samples) if mode == "omega" else
           weight.value_affine_many(chart(samples)))
    fns = []
    phi_min = float(np.min(phi))
    if math.isfinite(phi_min):
        fns.append(("constant", lambda z: np.full(len(z), phi_min)))
    m = samples.shape[1]
    if mode == "omega":
        for i in range(m):
            fns.append((f"log_coord_{i}", lambda z, i=i: np.log(
                np.abs(z[:, i])) - np.log(np.linalg.norm(z, axis=1))))
    else:
        def logplus(z):
            n = np.linalg.norm(chart(z), axis=1)
            return np.where(n > 1.0, np.log(np.maximum(n, 1e-300)), 0.0)
        fns.append(("log_plus_norm", logplus))
        for i in range(m - 1):
            fns.append((f"log_affine_coord_{i}",
                        lambda z, i=i: np.log(np.abs(chart(z)[:, i]))))
    cands = []
    for name, fn in fns:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = fn(samples)
        excess = vals - phi
        fin = np.isfinite(excess)
        worst = float(np.max(excess[fin], initial=-math.inf))
        shift = -worst if worst > 0 else 0.0
        # the rounded -worst may leave v + shift a few ulps above phi
        while np.any(vals[fin] + shift > phi[fin]):
            shift = float(np.nextafter(shift, -math.inf))
        assert np.all(excess[fin] + shift <= 0.0)
        cands.append((name, fn, shift))

    def lower_bound(x):
        best, best_name = -math.inf, None
        for name, fn, shift in cands:
            with np.errstate(divide="ignore", invalid="ignore"):
                val = float(fn(x.vec.reshape(1, -1))[0]) + shift
            if val > best:
                best, best_name = val, name
        return best, best_name

    return [c[0] for c in cands], [c[2] for c in cands], lower_bound


def _log_poly(m):
    return LogPolyWeight(HomPolynomial(((1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,)),
                                       (1.0 + 0j, 0.5 - 0.2j)))


def _affine_log_poly(n):
    return AffineLogPolyWeight(HomPolynomial(((1,) + (0,) * (n - 1), (0,) * n),
                                             (1.0 + 0j, 0.5 - 0.2j)))


_P = ProjPoint(np.array([1.0, 0.3 + 0.1j]))
_HYP = HyperplaneComplement(np.array([1.0, 2.0j]))
_LIBRARY_DOMAINS = [
    *[("sz", AffineBall(np.zeros(n, dtype=complex), r), f"ball-C{n}-R{r}")
      for n in (1, 2, 3) for r in (0.5, 1.0, 2.0, 5.0)],
    ("sz", AffineBall(np.array([0.3 - 0.1j, 0.2j]), 1.5), "ball-C2-centred"),
    ("omega", FsBall(_P, 0.5), "fs-ball"),
    ("omega", _HYP, "hyperplane-complement"),
    ("omega", Tube(tuple(ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 64)]))
                         for k in range(64)), 0.05), "circle-tube"),
    ("omega", Intersection((FsBall(_P, 0.6), _HYP)), "intersection"),
]


@pytest.mark.parametrize("mode, dom", [d[:2] for d in _LIBRARY_DOMAINS],
                         ids=[d[2] for d in _LIBRARY_DOMAINS])
def test_candidate_library_matches_one_candidate_at_a_time(mode, dom):
    m = dom.center.size + 1 if mode == "sz" else 2
    weights = [ZeroWeight(), ConstantWeight(-0.7),
               _affine_log_poly(m - 1) if mode == "sz" else _log_poly(m)]
    rng = np.random.default_rng(5)
    points = [ProjPoint(rng.standard_normal(m) + 1j * rng.standard_normal(m))
              for _ in range(12)]
    # off the sz chart: log|u_0| is inf, and log|u_1| NaN where m = 3
    points.append(ProjPoint(np.eye(m)[1]))
    for weight in weights:
        for seed in range(3):
            lib = CandidateLibrary(mode, dom, weight, seed=seed)
            names, shifts, lower_bound = _reference_library(mode, dom, weight, seed)
            assert lib.names == names and list(lib.shifts) == shifts
            for x in points:
                assert lib.lower_bound(x) == lower_bound(x)
    if mode == "sz":
        assert lib.lower_bound(points[-1]) == (math.inf, "log_affine_coord_0")


_ROUNDING_DOMAINS = [d for d in _LIBRARY_DOMAINS if d[2] in (
    "ball-C1-R5.0", "ball-C2-R2.0", "ball-C2-R5.0", "ball-C3-R2.0",
    "ball-C3-R5.0", "ball-C2-centred", "hyperplane-complement")]


@pytest.mark.parametrize("mode, dom", [d[:2] for d in _ROUNDING_DOMAINS],
                         ids=[d[2] for d in _ROUNDING_DOMAINS])
def test_shifted_candidates_below_phi_to_the_bit(mode, dom):
    # -max(v - phi) is rounded: on these domains v + shift read up to
    # 4.4e-16 above phi at a sample before the shifts were stepped down
    m = dom.center.size + 1 if mode == "sz" else 2
    for weight in (ConstantWeight(-0.7),
                   _affine_log_poly(m - 1) if mode == "sz" else _log_poly(m)):
        for seed in range(3):
            lib = CandidateLibrary(mode, dom, weight, seed=seed)
            samples = dom.sample_points(np.random.default_rng([seed, 0xCA]), 512)
            phi = (weight.value_proj_many(samples) if mode == "omega" else
                   weight.value_affine_many(chart(samples)))
            _names, vals = envelope._candidate_table(mode, samples, lib.constant)
            with np.errstate(invalid="ignore"):
                fin = np.isfinite(vals - phi[:, None])
            assert np.all((vals + lib.shifts <= phi[:, None])[fin])


def test_candidate_library_never_shifts_up():
    # log|u_0| < 0 on the unit ball: its largest excess over phi = 0 is
    # negative, and its shift stays 0.0 rather than lifting it onto phi
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    lib = CandidateLibrary("sz", dom, ZeroWeight(), seed=0)
    samples = dom.sample_points(np.random.default_rng([0, 0xCA]), 512)
    assert np.max(np.log(np.abs(chart(samples)[:, 0]))) < 0
    assert lib.shifts[lib.names.index("log_affine_coord_0")] == 0.0


@pytest.mark.parametrize("mode", ["SZ", "Omega", ""])
def test_unknown_mode_rejected(mode):
    # mode names are case sensitive: "SZ" is not read as "sz"
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    x = ProjPoint(affine_lift(np.array([0.5 + 0j])))
    with pytest.raises(ConfigError, match="unknown envelope mode"):
        CandidateLibrary(mode, dom, ZeroWeight())
    with pytest.raises(ConfigError, match="unknown envelope mode"):
        build_objective_spec(mode, x, dom, ZeroWeight(),
                             DiscFamilySpec(degree=2), SMALL)


class _StubLibrary:
    def lower_bound(self, x):
        return 5.0, "stub"


def test_inconsistent_bounds_flagged():
    # a lower bound of 5 lies above the search's value near log 2 at u = 2
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    x = ProjPoint(affine_lift(np.array([2.0 + 0j])))
    fam = DiscFamilySpec(degree=2, m=2, center=x)
    opt = OptimizerConfig(starts=2, budget=50, seed=0, search_nodes=128)
    settings = {}
    for stub in (False, True):
        lib = (_StubLibrary() if stub else
               CandidateLibrary("sz", dom, ZeroWeight(), seed=0))
        est = minimize("sz", x, dom, ZeroWeight(), fam, opt, library=lib)
        assert est.feasible and est.upper < 5.0
        settings[stub] = est.to_json()["settings"]
    assert "inconsistent_bounds" not in settings[False]
    assert settings[True]["inconsistent_bounds"] is True


def test_candidate_library_shift_applied():
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    lib = CandidateLibrary("sz", dom, ConstantWeight(-2.0), seed=0)
    # log^+ = 0 on the ball but phi = -2, so the shift must push it to -2
    x = ProjPoint(affine_lift(np.array([2.0 + 0j])))
    val, _name = lib.lower_bound(x)
    assert val == pytest.approx(math.log(2.0) - 2.0, abs=1e-2)


def test_grid_single_point_matches_minimize():
    x = ProjPoint(np.array([1.0, 0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    single = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    grid = envelope_grid("omega", [x], dom, ZeroWeight(), fam, SMALL)
    assert grid[0].upper == pytest.approx(single.upper, abs=1e-12)


def test_grid_all_inside_w():
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.6)
    pts = [ProjPoint(np.array([1.0, a])) for a in (0.0, 0.1, 0.2)]
    fam = DiscFamilySpec(degree=2, m=2)
    ests = envelope_grid("omega", pts, dom, ZeroWeight(), fam, SMALL)
    assert all(e.upper <= 1e-9 for e in ests)


def test_domain_monotonicity_shared_pool():
    # bigger domain admits every witness of the smaller one
    x = ProjPoint(np.array([1.0, 0.45]))
    center = ProjPoint(np.array([1.0, 0.0]))
    small_dom = FsBall(center, 0.35)
    big_dom = FsBall(center, 0.7)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est_s = minimize("omega", x, small_dom, ZeroWeight(), fam, SMALL)
    est_b = minimize("omega", x, big_dom, ZeroWeight(), fam, SMALL)
    pool = est_s.witnesses + est_b.witnesses
    grid = BoundaryGrid(1024)

    def pooled(dom):
        best = math.inf
        for _v, d in pool:
            value, ok = evaluate_witness("omega", d, dom, ZeroWeight(),
                                         fam.eta, grid)
            if ok:
                best = min(best, value)
        return best

    assert pooled(small_dom) >= pooled(big_dom) - 1e-6


def test_degree_monotonicity_warm_start():
    from discenv.envelope import _coeffs_to_theta

    x = ProjPoint(np.array([1.0, 0.45]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.4)
    fam3 = DiscFamilySpec(degree=3, m=2, center=x)
    est3 = minimize("omega", x, dom, ZeroWeight(), fam3, SMALL)
    fam5 = DiscFamilySpec(degree=5, m=2, center=x)
    warm = _coeffs_to_theta(5, est3.witness.coeffs)
    est5 = minimize("omega", x, dom, ZeroWeight(), fam5, SMALL,
                    warm_theta=warm)
    assert est5.upper <= est3.upper + 1e-9


def _witness_case(mode, c1):
    """(disc, domain, weight) of a degree-2 disc with first coefficient c1;
    each weight depends on the boundary values."""
    if mode == "omega":
        x = ProjPoint(np.array([1.0, 0.2]))
        dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.6)
        weight = ConstantWeight(0.25)
    else:
        x = ProjPoint(affine_lift(np.array([0.3 - 0.2j])))
        dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
        weight = AffineLogPolyWeight(HomPolynomial(((1,),), (1.0,)))  # log|u|
    coeffs = np.array([x.vec, c1 * np.array([-0.2, 1.0]), [0.02j, -0.03]])
    return AnalyticDiscLift(coeffs), dom, weight


@pytest.mark.parametrize("mode", ["omega", "sz"])
def test_evaluate_witness_equals_functional(mode):
    disc, dom, weight = _witness_case(mode, 0.1)
    grid = BoundaryGrid(512)
    value, feasible = evaluate_witness(mode, disc, dom, weight, 1e-3, grid)
    if mode == "omega":
        want = omega_functional_lifted(LiftedWeight(weight), disc,
                                       grid_values(disc, grid))
    else:
        want = sz_functional(weight, disc, grid_values(disc, grid),
                             route="direct")
    assert feasible
    assert value == want.total


def _disc_through(a):
    """f = (t - a)(1, 1/2) / |(1, 1/2)|: its chart is 1/2 everywhere, so it
    lies in the unit ball of C, where V = 0, and -log|a| is the value of
    sz for |a| < 1 (0 for |a| >= 1)."""
    v = np.array([1.0, 0.5]) / math.hypot(1.0, 0.5)
    return AnalyticDiscLift(np.stack([-a * v, v]).astype(complex))


@pytest.mark.parametrize("a, want", [
    (1 + 4.5e-6, 0.0),
    (1 - 4.5e-6, -math.log(1 - 4.5e-6)),
], ids=["zero-outside", "zero-inside"])
def test_witness_value_with_a_zero_next_to_the_circle(a, want):
    # a 65536-node boundary mean of log|f_0| reads -2.1e-5 and -1.6e-5 here
    ball = AffineBall(np.zeros(1, dtype=complex), 1.0)
    value, feasible = evaluate_witness("sz", _disc_through(a), ball,
                                       ZeroWeight(), 1e-3, BoundaryGrid(1024))
    assert feasible
    assert value == pytest.approx(want, rel=0, abs=1e-15)
    assert value >= 0.0


def test_witness_with_a_zero_on_the_circle_is_infeasible():
    # the zero lies between boundary nodes, off the validation grid, and
    # within the roots' 1e-9 margin of the circle: no exception
    a = (1 + 1e-10) * np.exp(1j * np.pi / 1024)
    ball = AffineBall(np.zeros(1, dtype=complex), 1.0)
    assert evaluate_witness("sz", _disc_through(a), ball, ZeroWeight(), 1e-3,
                            BoundaryGrid(1024)) == (math.inf, False)


def _f0_zero_at_node():
    """(disc, domain, weight) of a disc whose f_0 = (1 - t)/2 vanishes at
    the node t = 1, where its boundary [0 : 1 : 0] lies in the FS ball."""
    disc = AnalyticDiscLift([[0.5, 1, 0], [-0.5, 0, 0]])
    return disc, FsBall(ProjPoint(np.array([0.5, 1.0, 0.0])), 1.0), ZeroWeight()


@pytest.mark.parametrize("mode, case, nodes", [
    ("omega", lambda: _witness_case("omega", 3.0), 512),
    ("sz", lambda: _witness_case("sz", 3.0), 512),
    ("sz", _f0_zero_at_node, 1024),
], ids=["omega", "sz", "sz-f0-zero-at-node"])
def test_evaluate_witness_infeasible_disc(mode, case, nodes):
    disc, dom, weight = case()
    assert evaluate_witness(mode, disc, dom, weight, 1e-3,
                            BoundaryGrid(nodes)) == (math.inf, False)


def _objective_cases():
    circle = tuple(ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 16)]))
                   for k in range(16))
    centre = ProjPoint(np.array([1.0, 0.0]))
    return [
        ("omega", centre, Tube(circle, 0.05)),
        ("omega", ProjPoint(np.array([1.0, 0.2])), FsBall(centre, 0.5)),
        ("sz", ProjPoint(affine_lift(np.array([0.3 - 0.2j]))),
         AffineBall(np.zeros(1, dtype=complex), 1.0)),
    ]


@pytest.mark.parametrize("mode,x,dom", _objective_cases(),
                         ids=["omega-tube", "omega-fsball", "sz-affineball"])
def test_batched_objective_matches_single_rows(mode, x, dom):
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    # 6 x 256 search nodes put 1536 rows through the domain's clearance
    spec = build_objective_spec(mode, x, dom, ZeroWeight(), fam,
                                OptimizerConfig(search_nodes=256))
    rng = np.random.default_rng(11)
    thetas = 0.3 * rng.standard_normal((6, spec.dim))
    # f(1) = 0 for omega, f_0(1) = 0 for sz (t = 1 is a search node)
    thetas[2] = 0.0
    thetas[2, :2] = -x.vec.real
    thetas[2, 2:4] = -x.vec.imag
    if mode == "sz":
        thetas[2, 1] = thetas[2, 3] = 0.5
    batched = _objective(spec, thetas)
    single = np.concatenate([_objective(spec, t[None, :]) for t in thetas])
    assert batched.shape == (6,)
    assert batched[2] == math.inf
    assert np.isfinite(np.delete(batched, 2)).all()
    assert batched.tobytes() == single.tobytes()


def _horner_objective(spec, thetas):
    """_objective one disc at a time, from Horner values (kernels.eval_poly)
    and complex moduli."""
    floor_ln = math.log(ORIGIN_FLOOR)
    out = []
    for theta in thetas:
        coeffs = _theta_to_coeffs(spec, theta)
        pts = kernels.eval_poly(coeffs, spec.nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            lognorms = np.log(np.linalg.norm(pts, axis=1))
            if spec.mode == "omega":
                value = np.mean(spec.weight.value_proj_many(pts) + lognorms)
            elif np.any(pts[:, 0] == 0):
                value = math.inf
            else:
                value = (np.mean(np.log(np.abs(pts[:, 0]))) -
                         math.log(abs(spec.c0[0])) +
                         np.mean(spec.weight.value_affine_many(chart(pts))))
            clear = np.clip(spec.domain.clearance_many(pts), -10.0, None)
            pen = PENALTY_RHO * np.mean(
                np.maximum(0.0, ETA_INFLATION * spec.eta - clear) ** 2)
            min_ln = lognorms.min()
        if min_ln < floor_ln:
            pen += 10.0 * (floor_ln - min_ln) ** 2
        out.append(value + pen if np.isfinite(value) else math.inf)
    return np.array(out)


# unit roundoff of single precision, in which _objective runs
U32 = 2.0 ** -24


def _single_precision_bound(spec, thetas):
    """A bound, per disc, on |_objective - _horner_objective| (first order
    in the unit roundoff u = 2^-24 of float32, doubled for the rest), for
    the zero weight and _nonzero_weight, on a Tube, FsBall or AffineBall.

    - Boundary values: _objective rounds the coefficients and the node
      powers to complex64 (relative error u each), multiplies (at most
      sqrt(5) u each) and adds d terms, so with S_j = sum_k |c_kj| and
      |t| = 1 each coordinate is off by at most e_j = (d + 5) u S_j.  A
      relative error r = e/|f| moves log|f| by at most r, and an FS
      distance by at most 2 |e|/|f| (sin d <= |e|/|f|, d <= pi/2 sin d).
    - Each float32 square, sum and log of a modulus adds (m + 3) u (1 +
      |log|); the weight's norm is float32 too: (m + 1) u (1 + |log|).
      numpy's pairwise mean (8 accumulators over blocks of 128, then
      halving) adds (16 + log2 N) u mean|x|.
    - Tube: s = max_k A_k / B in float32.  Each A_k is a product of the
      F = m^2 features with weights of total size at most sqrt(2)|z|^2
      (sum_f |w_kf| feat_f <= sqrt(2) (sum_i |s_ki| |z_i|)^2, |s_k| = 1),
      so s is off by at most 2 (F + m + 4) u, and arccos sqrt s by that
      over sin 2d, or by pi/2 sqrt of it where d is near 0.  AffineBall:
      the chart point w = f_*/f_0 - c moves by (|e_*| + |f_*/f_0| e_0) /
      |f_0|, and the float32 features, squares and root add 2 u (|f_*/f_0|
      + |c|) + (m + 3) u |w|.  FsBall: the atan2 form runs in double on
      the rounded rows, exact to 4u.
    - Penalty: with q = max(0, 1.5 eta - c + dc), both squares lie in
      [0, q^2] and differ by at most 2 q dc; rounding adds 3 u q^2.
    - The origin floor moves by 20 (floor - min + dmin) dmin where the
      least log|f| comes within dmin of it, and the last sum by u |value|.
    """
    out = []
    u, n, m, d = U32, spec.nodes.size, spec.m, spec.degree
    mean_err = (16 + math.log2(n)) * u
    dom, floor_ln = spec.domain, math.log(ORIGIN_FLOOR)
    weighted = not isinstance(spec.weight, ZeroWeight)
    for theta in thetas:
        coeffs = _theta_to_coeffs(spec, theta)
        pts = kernels.eval_poly(coeffs, spec.nodes)
        e = (d + 5) * u * np.abs(coeffs).sum(axis=0)  # (m,)
        absf, nrm = np.abs(pts), np.linalg.norm(pts, axis=1)
        if not (absf[:, 0].min() > 0 and nrm.min() > 0):
            out.append(math.inf)  # f or f_0 vanishes at a node: no bound
            continue
        rel, rel0 = np.linalg.norm(e) / nrm, e[0] / absf[:, 0]
        lognorm, log0 = np.log(nrm), np.log(absf[:, 0])
        if spec.mode == "omega":
            terms = rel + (m + 3) * u * (1 + np.abs(lognorm))
            x = lognorm
            if weighted:  # log|z_0| - log|z|, the norm in float32
                terms += rel0 + rel + (m + 1) * u * (1 + np.abs(lognorm))
                x = x + spec.weight.value_proj_many(pts)
            value = np.mean(x)
        else:
            terms = rel0 + (m + 3) * u * (1 + np.abs(log0))
            x = log0
            if weighted:  # log|u_1| in double, from the rounded rows
                terms = terms + rel0 + e[1] / absf[:, 1]
            value = np.mean(x) - math.log(abs(spec.c0[0]))
        dvalue = np.mean(terms) + mean_err * np.mean(np.abs(x)) + u * abs(value)
        c = dom.clearance_many(pts)
        if isinstance(dom, Tube):
            dist = dom.delta - c
            ds = 2 * (m * m + m + 4) * u
            with np.errstate(divide="ignore"):
                dc = 2 * rel + np.minimum(ds / np.sin(2 * dist),
                                          0.5 * math.pi * math.sqrt(ds))
            dc += 4 * u * (dom.delta + dist)
        elif isinstance(dom, FsBall):
            dc = 2 * rel + 4 * u
        elif isinstance(dom, AffineBall):
            w = pts[:, 1:] / pts[:, :1]
            cn = np.linalg.norm(dom.center)
            wn, dn = np.linalg.norm(w, axis=1), np.linalg.norm(w - dom.center, axis=1)
            dc = ((np.linalg.norm(e[1:]) + wn * e[0]) / absf[:, 0] +
                  2 * u * (wn + cn) + (m + 3) * u * dn)
        else:
            raise TypeError(f"no bound for {type(dom).__name__}")
        q = np.maximum(0.0, ETA_INFLATION * spec.eta - np.maximum(c, -10.0) + dc)
        dpen = PENALTY_RHO * (np.mean(2 * q * dc + 3 * u * q * q) +
                              mean_err * np.mean(q * q))
        dmin = rel.max() + (m + 3) * u * (1 + abs(lognorm.min()))
        dfloor = 20 * max(0.0, floor_ln - lognorm.min() + dmin) * dmin
        out.append(2 * (dvalue + dpen + dfloor))
    return np.array(out)


def _nonzero_weight(mode):
    if mode == "omega":
        return LogPolyWeight(HomPolynomial(((1, 0),), (1.0,)))  # log|z_0| - log|z|
    return AffineLogPolyWeight(HomPolynomial(((1,),), (1.0,)))  # log|u|


@pytest.mark.parametrize("weighted", [False, True], ids=["zero", "weighted"])
@pytest.mark.parametrize("mode,x,dom", _objective_cases(),
                         ids=["omega-tube", "omega-fsball", "sz-affineball"])
def test_objective_matches_horner_reference(mode, x, dom, weighted):
    weight = _nonzero_weight(mode) if weighted else ZeroWeight()
    spec = build_objective_spec(mode, x, dom, weight,
                                DiscFamilySpec(degree=3, m=2, center=x),
                                OptimizerConfig(search_nodes=256))
    thetas = 0.3 * np.random.default_rng(12).standard_normal((6, spec.dim))
    # row 2: f(1) = 0 (omega) or f_0(1) = 0 (sz) at the search node t = 1
    thetas[2] = 0.0
    thetas[2, :2] = -x.vec.real
    thetas[2, 2:4] = -x.vec.imag
    if mode == "sz":
        thetas[2, 1] = thetas[2, 3] = 0.5
    # row 4: f = c0 (1 - a t), a = 2(1 - 2^-15), which nearly vanishes at
    # the interior point t = 1/2; row 6: the constant disc f = c0
    a = 2.0 * (1.0 - 2.0 ** -15)
    thetas[4] = 0.0
    thetas[4, :2], thetas[4, 2:4] = (-a * x.vec).real, (-a * x.vec).imag
    thetas = np.vstack([thetas, np.zeros(spec.dim)])
    got = _objective(spec, thetas)
    want = _horner_objective(spec, thetas)
    bound = _single_precision_bound(spec, thetas)
    assert got[2] == math.inf and np.isfinite(np.delete(got, 2)).all()
    # both discs have the image [c0] and stay clear of the origin on the
    # circle, so they differ by the Jensen term log a of the zero t = 1/a
    # alone: the functional itself, not a penalty, repels interior zeros
    assert abs(want[4] - want[6] - math.log(a)) <= 1e-12 * max(1.0, abs(want[4]))
    assert abs(got[4] - got[6] - math.log(a)) <= bound[4] + bound[6] + \
        1e-12 * max(1.0, abs(want[4]))
    # single precision, within the bound derived for it: the constant
    # disc's value can be 0 up to rounding, so the bound is absolute
    finite = np.isfinite(bound)
    assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])
    # and the bound has teeth: at most 1e-4 of the value (about 1700 u)
    assert np.all(bound[finite] <= 1e-4 * np.maximum(1.0, np.abs(want[finite])))


@pytest.mark.parametrize("nodes", [64, 256])
def test_node_powers_match_vandermonde_expression(nodes):
    # the search nodes and their powers, as _ObjectiveSpec built them
    # before they came from the grid's cached table
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    want_nodes = np.exp(1j * theta)
    x = ProjPoint(np.array([1.0, 0.2]))
    for degree in range(1, 10):
        spec = build_objective_spec("omega", x, FsBall(x, 0.5), ZeroWeight(),
                                    DiscFamilySpec(degree=degree, m=2, center=x),
                                    OptimizerConfig(search_nodes=nodes))
        want = np.asarray(want_nodes)[:, None] ** np.arange(degree + 1)
        assert spec.nodes.tobytes() == want_nodes.tobytes()
        assert spec.node_powers.shape == want.shape
        assert spec.node_powers.tobytes() == want.tobytes()
        assert not spec.node_powers.flags.writeable


def _sz_objective_with_chart(spec, thetas):
    """The sz-mode objective as computed with the chart for every weight,
    from the same single-precision products as _objective: the node
    powers rounded to complex64, the zero weight's mean 0.0 added in
    float32 (another weight's values are double, and promote the sum) and
    the floor term in float32."""
    r, n, m = thetas.shape[0], spec.nodes.size, spec.m
    powers = spec.node_powers.T.astype(np.complex64)
    vals = (_coeff_rows(spec, thetas) @ powers).reshape(m, r, n)
    sq = vals.real ** 2 + vals.imag ** 2
    rows = vals.reshape(m, r * n).T
    with np.errstate(divide="ignore", invalid="ignore"):
        charts = rows[:, 1:] / rows[:, :1]
        interior = (0.5 * np.mean(np.log(sq[0]), axis=1) -
                    math.log(abs(spec.c0[0])))
        mean = np.mean(spec.weight.value_affine_many(charts).reshape(r, n), axis=1)
        if isinstance(spec.weight, ZeroWeight):
            mean = mean.astype(interior.dtype)
        value = interior + mean
        value[np.any(sq[0] == 0, axis=1)] = math.inf
        clear = np.clip(spec.domain.clearance_many(rows), -10.0, None).reshape(r, n)
        pen = PENALTY_RHO * np.mean(np.square(
            np.maximum(0.0, ETA_INFLATION * spec.eta - clear)), axis=1)
        min_ln = 0.5 * np.log(sq.sum(axis=0).min(axis=1))
        floor_ln = math.log(ORIGIN_FLOOR)
        for i in np.flatnonzero(min_ln < floor_ln):
            pen[i] += 10.0 * (floor_ln - min_ln[i]) ** 2
        return np.where(np.isfinite(value), value + pen, math.inf)


@pytest.mark.parametrize("weight", [ZeroWeight(), ConstantWeight(0.3)],
                         ids=["zero", "constant"])
@pytest.mark.parametrize("m", [2, 3])
def test_sz_objective_matches_chart_formula(weight, m):
    x = ProjPoint(affine_lift(np.full(m - 1, 0.2 - 0.1j)))
    spec = build_objective_spec("sz", x, AffineBall(np.zeros(m - 1, dtype=complex), 1.0),
                                weight, DiscFamilySpec(degree=6, m=m, center=x),
                                OptimizerConfig(search_nodes=256))
    thetas = 0.4 * np.random.default_rng(8).standard_normal((20, spec.dim))
    thetas[3] = 0.0  # the constant disc: interior term exactly 0
    thetas[5] = 0.0  # f_0(1) = 0 at the search node t = 1
    thetas[5, 0] = -x.vec[0].real
    got = _objective(spec, thetas)
    assert math.isinf(got[5]) and np.isfinite(np.delete(got, 5)).all()
    assert got.tobytes() == _sz_objective_with_chart(spec, thetas).tobytes()


def _independence_cases():
    circle = tuple(ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 64)]))
                   for k in range(64))
    return [
        # 3 or 6 restarts x 64 nodes: the clearance sees 192 or 384 rows
        (ProjPoint(np.array([1.0, 0.45])),
         FsBall(ProjPoint(np.array([1.0, 0.0])), 0.4), 64),
        # 3 or 6 restarts x 400 nodes: 1200 or 2400 rows, so the first
        # three restarts share a second block of 176 or of 1024 rows
        (ProjPoint(np.array([1.0, 0.0])), Tube(circle, 0.1), 400),
    ]


@pytest.mark.parametrize("x,dom,nodes", _independence_cases(),
                         ids=["fsball", "tube"])
def test_restarts_independent_of_their_number(x, dom, nodes):
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    few = minimize("omega", x, dom, ZeroWeight(), fam,
                   OptimizerConfig(starts=3, budget=150, seed=4, search_nodes=nodes))
    more = minimize("omega", x, dom, ZeroWeight(), fam,
                    OptimizerConfig(starts=6, budget=150, seed=4, search_nodes=nodes))
    assert len(few.trace) == 3 and few.trace == more.trace[:3]
    # the trace keeps only the best value so far; the final search points
    # of each of the first three restarts match as well
    spec = build_objective_spec("omega", x, dom, ZeroWeight(), fam,
                                OptimizerConfig(search_nodes=nodes))
    theta0s = 0.3 * np.random.default_rng(5).standard_normal((6, spec.dim))
    ends = _search(spec, theta0s[:3], 4, 150)
    assert np.isfinite(_objective(spec, ends)).all()
    assert ends.tobytes() == _search(spec, theta0s, 4, 150)[:3].tobytes()


def _serial_search(spec, theta0s, seed, budget):
    """_search's documented draw contract, one restart at a time, each
    proposal scored by a one-row _objective call."""
    dim = spec.dim
    ends = []
    for r, theta0 in enumerate(theta0s):
        rng = np.random.default_rng([seed, r, 17])
        theta = _clip_bound(spec, np.array(theta0, dtype=float).reshape(1, dim))
        best, sigma = _objective(spec, theta)[0], 0.25
        for step in range(budget - 1):
            i = step % _DRAW_BLOCK
            if i == 0:
                u = rng.uniform(size=_DRAW_BLOCK)
                z = rng.standard_normal((_DRAW_BLOCK, dim)) * (1.0 / math.sqrt(dim))
                k = rng.integers(dim, size=_DRAW_BLOCK)
                g = rng.standard_normal(_DRAW_BLOCK)
            prop = theta.copy()
            if u[i] < 0.5:
                prop[0] = theta[0] + sigma * z[i]
            else:
                prop[0, k[i]] += sigma * g[i]
            prop = _clip_bound(spec, prop)
            f = _objective(spec, prop)[0]
            if f < best:
                theta, best, sigma = prop, f, min(sigma * 1.4, 2.0)
            else:
                sigma = max(sigma * 0.98, 1e-10)
        ends.append(theta[0])
    return np.array(ends)


def _search_cases():
    circle = tuple(ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 64)]))
                   for k in range(64))
    return [
        ("sz", ProjPoint(affine_lift(np.array([0.2 - 0.1j, 0.1j]))),
         AffineBall(np.zeros(2, dtype=complex), 1.0), 64),
        # 4 restarts x 256 nodes: 1024 rows, one full Tube block
        ("omega", ProjPoint(np.array([1.0, 0.0])), Tube(circle, 0.1), 256),
    ]


@pytest.mark.parametrize("budget", [40, 150])
@pytest.mark.parametrize("mode,x,dom,nodes", _search_cases(),
                         ids=["sz-affineball-m3", "omega-tube"])
def test_search_matches_serial_reference(mode, x, dom, nodes, budget):
    spec = build_objective_spec(mode, x, dom, ZeroWeight(),
                                DiscFamilySpec(degree=3, m=x.vec.size, center=x),
                                OptimizerConfig(search_nodes=nodes))
    theta0s = 0.3 * np.random.default_rng(6).standard_normal((4, spec.dim))
    theta0s[0] = 0.0  # the constant disc, the first constructed seed
    got = _search(spec, theta0s, 9, budget)
    assert got.shape == theta0s.shape and not np.array_equal(got, theta0s)
    assert got.tobytes() == _serial_search(spec, theta0s, 9, budget).tobytes()


def test_warm_minimize_builds_no_table():
    # every node set's tables (search nodes, final grid, validation grid)
    # are built by the first minimize and only read by the second; the
    # weight is not constant, so the search runs
    from discenv import discs

    def misses():
        return sum(f.cache_info().misses for f in
                   (discs._power_table, discs._circle_nodes,
                    discs.validation_grid))

    x = ProjPoint(affine_lift(np.array([1.3 - 0.2j])))
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    fam = DiscFamilySpec(degree=6, m=2, center=x)
    opt = OptimizerConfig(starts=4, budget=40, seed=5, search_nodes=256)
    first = minimize("sz", x, dom, _affine_log_poly(1), fam, opt)
    before = misses()
    second = minimize("sz", x, dom, _affine_log_poly(1), fam, opt)
    assert misses() == before
    assert first.trace and first.feasible and second.upper == first.upper


def _no_search(*args, **kwargs):
    raise AssertionError("search ran")


_CIRCLE_TUBE = Tube(tuple(
    ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 64)])) for k in range(64)),
    0.05)


@pytest.mark.parametrize("mode, x, dom, weight, c, v", [
    ("sz", ProjPoint(affine_lift(np.array([0.3 - 0.2j]))),
     AffineBall(np.zeros(1, dtype=complex), 1.0), ZeroWeight(), 0.0, 0.0),
    ("sz", ProjPoint(affine_lift(np.array([0.3, -0.5j]))),
     AffineBall(np.zeros(2, dtype=complex), 1.0), ZeroWeight(), 0.0, 0.0),
    ("omega", ProjPoint(np.array([1.0, 0.2])),
     FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5), ZeroWeight(), 0.0, 0.0),
    ("omega", _CIRCLE_TUBE.samples[5], _CIRCLE_TUBE, ZeroWeight(), 0.0, 0.0),
    ("sz", ProjPoint(affine_lift(np.array([0.3 - 0.2j]))),
     AffineBall(np.zeros(1, dtype=complex), 1.0), ConstantWeight(0.3), 0.3, 0.0),
    ("omega", ProjPoint(np.array([1.0, 0.2])),
     FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5), ConstantWeight(0.3), 0.3, 0.0),
    ("sz", ProjPoint(affine_lift(np.array([1.5 + 0.5j]))),
     AffineBall(np.zeros(1, dtype=complex), 1.0), ZeroWeight(), 0.0,
     math.log(abs(1.5 + 0.5j) / (1.0 - 1e-3))),
], ids=["affine-ball-C", "affine-ball-C2", "fs-ball", "tube-sample",
        "constant-weight-sz", "constant-weight-omega", "exterior"])
def test_admissible_constant_disc_returned_without_search(monkeypatch, mode,
                                                          x, dom, weight, c, v):
    # under a constant weight c (0 for the zero weight) no admissible disc
    # has a value below c + V_{W_eta}(x): at the constant disc where it is
    # admissible (V = 0), and outside a ball at the structure disc of the
    # ball shrunk by (1 + 1e-7) eta, within 1e-9 of it
    monkeypatch.setattr(envelope, "_search", _no_search)
    fam = DiscFamilySpec(degree=6, m=x.vec.size, center=x)
    lib = CandidateLibrary(mode, dom, weight, seed=0)
    est = minimize(mode, x, dom, weight, fam, SMALL, library=lib)
    assert est.feasible and est.trace == []
    if v == 0.0:
        assert est.upper == c and est.witness.degree == 0
        assert np.array_equal(est.witness.coeffs, x.vec[None, :])
    else:
        assert c + v - 1e-12 <= est.upper <= c + v + 1e-9
        assert est.witness.degree == 1
        assert np.array_equal(est.witness.coeffs[0], x.vec)
    assert [(u, d is est.witness) for u, d in est.witnesses] == [(est.upper, True)]
    assert est.lower == lib.lower_bound(x)[0]
    assert est.gap == est.upper - est.lower
    assert est.to_json()["settings"]["budget"] == SMALL.budget


@pytest.mark.parametrize("u", [1.5 + 0.5j, 0.3 - 0.2j],
                         ids=["exterior", "interior"])
def test_search_runs_under_a_non_constant_weight(monkeypatch, u):
    # log|u + 0.5 - 0.2i| has no known least value, so neither the constant
    # disc nor the ball's structure disc is known to be optimal
    x = ProjPoint(affine_lift(np.array([u])))
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    monkeypatch.setattr(envelope, "_search", _no_search)
    with pytest.raises(AssertionError, match="search ran"):
        minimize("sz", x, dom, _affine_log_poly(1),
                 DiscFamilySpec(degree=2, m=2), SMALL)


def _exterior_ball_cases():
    """(ball, points, V) for 80 points outside the balls W shrunk by eta =
    1e-3, five on each of 16 AffineBalls (R in {0.5, 1, 2, 5}, in C and
    C^2, centre 0 and not), with V = V_{W_eta} = log(|u - c|/(R - eta))
    there.  The first point of each ball lies in W, within eta of its
    sphere."""
    rng = np.random.default_rng(28)
    eta, cases = 1e-3, []
    for n in (1, 2):
        for r in (0.5, 1.0, 2.0, 5.0):
            for c in (np.zeros(n, dtype=complex), 0.4 * _unit(rng, n)):
                dists = np.array([r - 0.5 * eta, 1.2 * r, 1.7 * r, 2.5 * r, 4.0 * r])
                us = [c + s * _unit(rng, n) for s in dists]
                cases.append(pytest.param(
                    AffineBall(c, r), [ProjPoint(affine_lift(u)) for u in us],
                    np.log(dists / (r - eta)),
                    id=f"affine-C{n}-R{r}-{'off-centre' if c.any() else 'centre-0'}"))
    return cases


def _unit(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("ball, points, v", _exterior_ball_cases())
def test_exterior_ball_points_take_the_shrunk_ball_structure_disc(
        monkeypatch, ball, points, v):
    # no admissible disc has a value below c + V_{W_eta}(x) under a
    # constant weight c; the unsearched structure disc is within 1e-9 of it
    monkeypatch.setattr(envelope, "_search", _no_search)
    m = points[0].vec.size
    fam = DiscFamilySpec(degree=6, m=m)
    for x, vx in zip(points, v):
        for weight, c in ((ZeroWeight(), 0.0), (ConstantWeight(0.3), 0.3)):
            est = minimize("sz", x, ball, weight, fam, SMALL)
            assert est.trace == [] and est.witness.degree == 1
            assert c + vx - 1e-12 <= est.upper <= c + vx + 1e-9
    # a weight of no known least value still searches
    with pytest.raises(AssertionError, match="search ran"):
        minimize("sz", points[1], ball, _affine_log_poly(m - 1), fam, SMALL)


def test_ball_structure_disc_past_the_bound_searches():
    # at u = 1.5 the shrunk unit ball's structure disc has a coefficient of
    # norm about 1.0004, outside a family of bound 0.5, so minimize does not
    # return it and runs the search
    x = ProjPoint(affine_lift(np.array([1.5 + 0j])))
    ball = AffineBall(np.zeros(1, dtype=complex), 1.0)
    fam = DiscFamilySpec(degree=6, m=2, bound=0.5)
    coeffs = envelope._ball_structure_coeffs(
        "sz", x.vec, ball, envelope.OPTIMAL_MARGIN * fam.eta)
    assert np.linalg.norm(coeffs[1]) == pytest.approx(1.0004, abs=1e-4)
    est = minimize("sz", x, ball, ZeroWeight(), fam, SMALL)
    assert len(est.trace) == SMALL.starts
    for _value, disc in est.witnesses:
        assert np.linalg.norm(disc.coeffs[1:], axis=1).max() <= fam.bound * (1 + 1e-12)


@pytest.mark.parametrize("m", [2, 3], ids=["P1", "P2"])
def test_exterior_fs_ball_points_search(monkeypatch, m):
    # the omega value of the shrunk FsBall's structure disc is a boundary
    # mean of log|f|, which reads low where a zero of the disc nears the
    # circle (1.7e-4 below V_{W_eta} at d = rho - eta/2), so FsBall points
    # outside the shrunk ball search, from inside W within eta of its
    # sphere to far outside it
    monkeypatch.setattr(envelope, "_search", _no_search)
    rng = np.random.default_rng(28)
    p, rho = _unit(rng, m), 0.3
    ball = FsBall(ProjPoint(p), rho)
    for d in (rho - 0.5e-3, rho + 0.02, 1.2):
        q = _unit(rng, m)
        q = (q - np.vdot(p, q) * p) / np.linalg.norm(q - np.vdot(p, q) * p)
        x = ProjPoint(math.cos(d) * p + math.sin(d) * q)
        for weight in (ZeroWeight(), ConstantWeight(0.3)):
            with pytest.raises(AssertionError, match="search ran"):
                minimize("omega", x, ball, weight, DiscFamilySpec(degree=6, m=m),
                         SMALL)


def test_workers_other_than_one_rejected():
    with pytest.raises(ConfigError):
        OptimizerConfig(workers=2)


def test_estimate_json_encodes_infinite_bounds():
    # every candidate -inf at the point: lower bound -inf
    est = EnvelopeEstimate(None, None, -math.inf, None, None, [None], {}, False)
    doc = json.loads(json.dumps(est.to_json(), allow_nan=False))
    assert doc["lower"] == "-inf" and doc["upper"] is None
    est = EnvelopeEstimate(0.25, None, 0.125, "constant", 0.125, [0.25], {}, True)
    doc = json.loads(json.dumps(est.to_json(), allow_nan=False))
    assert (doc["upper"], doc["lower"], doc["gap"]) == (0.25, 0.125, 0.125)


# Three sz witnesses found by minimize("sz") at 20 x 2000 on the perfbench
# siciak inputs (seeds 1 and 2, search_nodes=256): their boundaries clear
# the ball at the 1024 final nodes but leave it between nodes.  Stored as
# coefficients, since a changed search no longer finds them.
_BETWEEN_NODES = json.loads(
    (Path(__file__).parent / "data" / "between_nodes_witnesses.json").read_text())


@pytest.mark.parametrize("case", _BETWEEN_NODES, ids=lambda c: c["label"])
def test_between_nodes_witness_clears_nodes_only(case):
    ball = Domain.from_json(case["ball"])
    disc = AnalyticDiscLift.from_json(case["witness"])
    assert np.allclose(disc.center, ProjPoint.from_json(case["point"]).vec)
    nodes = ball.clearance_many(disc(BoundaryGrid(1024).nodes))
    assert nodes.min() >= 1e-3
    fine = np.exp(2j * np.pi * np.arange(2 ** 20) / 2 ** 20)
    assert ball.clearance_many(disc(fine)).min() < 0


_NODES_ONLY = pytest.mark.xfail(strict=True, reason="feasibility is checked "
                               "at the final nodes only (ROADMAP item 1)")


@_NODES_ONLY
@pytest.mark.parametrize("case", _BETWEEN_NODES, ids=lambda c: c["label"])
def test_between_nodes_witness_rejected(case):
    ball = Domain.from_json(case["ball"])
    disc = AnalyticDiscLift.from_json(case["witness"])
    _value, feasible = evaluate_witness("sz", disc, ball, ZeroWeight(), 1e-3,
                                        BoundaryGrid(1024))
    assert not feasible


@_NODES_ONLY
def test_witness_through_the_origin_rejected():
    # f = (t - 1/2)(1, 1) vanishes at t = 1/2, between the radii k/63 of
    # the 64 x 64 floor grid (min_norm_on_grid reads 0.0112), and its
    # boundary [1 : 1] lies on the circle: accepted today with value log 2
    tube = Tube(tuple(ProjPoint(np.array([1.0, np.exp(2j * np.pi * k / 64)]))
                      for k in range(64)), 0.05)
    disc = AnalyticDiscLift(np.array([[-0.5, -0.5], [1.0, 1.0]]))
    _value, feasible = evaluate_witness("omega", disc, tube, ZeroWeight(),
                                        1e-3, BoundaryGrid(1024))
    assert not feasible


# An omega witness found by minimize at 20 x 600 (seed 3) under log|z_0| on
# the unit ball at x = [1:0], where V = phi(x) = 0.  Its f_0 has a zero at
# |a| = 1.000247, just outside the circle, and an N-node boundary mean of
# log|f_0| reads low by about a^-N / N.  Stored as coefficients, so that no
# search runs.
_NEAR_CIRCLE_ZERO = json.loads(
    (Path(__file__).parent / "data" / "near_circle_zero_witness.json").read_text())


def _near_circle_zero_value(n_nodes):
    """(value, feasible, phi(x)) of the stored witness on n_nodes nodes."""
    case = _NEAR_CIRCLE_ZERO
    weight = Weight.from_json(case["weight"])
    value, feasible = evaluate_witness(
        "omega", AnalyticDiscLift.from_json(case["witness"]),
        Domain.from_json(case["domain"]), weight, DiscFamilySpec().eta,
        BoundaryGrid(n_nodes))
    x = ProjPoint.from_json(case["point"])
    return value, feasible, float(weight.value_proj_many(x.vec[None])[0])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_near_circle_zero_witness_not_below_phi():
    # the 1024-node mean reads -1.463e-3, below the envelope
    value, feasible, phi = _near_circle_zero_value(DEFAULT_NODES)
    assert feasible and value >= phi - 1e-12


def test_near_circle_zero_witness_on_a_fine_grid():
    # at 2^16 nodes a^-N / N is below 1e-12: the disc attains phi(x)
    value, feasible, phi = _near_circle_zero_value(2 ** 16)
    assert feasible and abs(value - phi) <= 1e-11


def _seed_discs(mode, x, dom, degree=6):
    spec = build_objective_spec(mode, x, dom, ZeroWeight(),
                                DiscFamilySpec(degree=degree, m=x.vec.size),
                                OptimizerConfig())
    return [AnalyticDiscLift(_theta_to_coeffs(spec, t))
            for t in _constructed_seeds(spec)]


@pytest.mark.parametrize("u, centre, radius", [
    ([2.0], [0.0], 1.0),
    ([-0.4 + 1.1j], [0.1j], 0.7),
    ([0.5 + 1.2j, -0.7], [0.1, 0.2j], 0.8),
])
def test_affine_ball_seed_is_the_blaschke_disc(u, centre, radius):
    u, centre = np.array(u, dtype=complex), np.array(centre, dtype=complex)
    eta = DiscFamilySpec().eta
    dom = AffineBall(centre, radius)
    seeds = _seed_discs("sz", ProjPoint(affine_lift(u)), dom)
    assert len(seeds) == 2 and not seeds[1].coeffs[2:].any()  # degree 1
    value, feasible = evaluate_witness("sz", seeds[1], dom, ZeroWeight(), eta,
                                       BoundaryGrid(1024))
    v = math.log(np.linalg.norm(u - centre) / radius)
    assert feasible
    assert value == pytest.approx(v + math.log(radius / (radius - 2 * eta)),
                                  abs=1e-12)


def test_interior_points_keep_the_constant_disc():
    x = ProjPoint(affine_lift(np.array([0.5j])))
    assert len(_seed_discs("sz", x, AffineBall(np.zeros(1, dtype=complex), 1.0))) == 1
    ball = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    assert len(_seed_discs("omega", ProjPoint(np.array([1.0, 0.2])), ball)) == 1


def test_fs_ball_seed_clears_by_twice_the_margin():
    x = ProjPoint(np.array([1.0, 0.3 + math.tan(0.4) * 1j, -0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.2, 0.1j])), 0.3)
    assert fs_distance(x, dom.center) > dom.radius
    seeds = _seed_discs("omega", x, dom, degree=4)
    assert len(seeds) == 2
    clear = dom.clearance_many(seeds[1](BoundaryGrid(1024).nodes))
    assert np.allclose(clear, 2 * DiscFamilySpec().eta, rtol=0, atol=1e-12)


def test_tube_seeds_at_circle_centre():
    th = 2.0 * np.pi * np.arange(64) / 64
    samples = tuple(ProjPoint(np.array([1.0, np.exp(1j * t)]) / math.sqrt(2.0))
                    for t in th)
    tube = Tube(samples, 0.05)
    x = ProjPoint(np.array([1.0, 0.0]))
    seeds = _seed_discs("omega", x, tube)[1:]
    anchors = np.linspace(0, 63, 8).astype(int)
    assert len(seeds) == len(anchors)
    for disc, k in zip(seeds, anchors):
        want = np.zeros((7, 2), dtype=complex)
        want[0, 0], want[1, 1] = 1.0, np.exp(1j * th[k])
        assert np.allclose(disc.coeffs, want, rtol=0, atol=1e-15)
        value, feasible = evaluate_witness("omega", disc, tube, ZeroWeight(),
                                           DiscFamilySpec().eta,
                                           BoundaryGrid(1024))
        assert feasible and value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(degree=0), dict(degree=-1), dict(bound=0.0), dict(bound=-1.0),
    dict(bound=math.inf), dict(eta=0.0), dict(eta=-0.5), dict(eta=math.nan),
], ids=["degree-0", "degree-neg", "bound-0", "bound-neg", "bound-inf",
        "eta-0", "eta-neg", "eta-nan"])
def test_family_spec_rejects_out_of_range(kwargs):
    # eta <= 0 would accept witnesses whose boundary leaves the domain
    with pytest.raises(ConfigError):
        DiscFamilySpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(starts=0), dict(starts=-1), dict(budget=0), dict(budget=-5),
], ids=["starts-0", "starts-neg", "budget-0", "budget-neg"])
def test_optimizer_config_rejects_out_of_range(kwargs):
    with pytest.raises(ConfigError):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    (dict(search_nodes=3), "search_nodes"), (dict(search_nodes=0), "search_nodes"),
    (dict(seed=-1), "seed"),
], ids=["search-nodes-3", "search-nodes-0", "seed-neg"])
def test_optimizer_config_names_the_field(kwargs, field):
    # at construction, not in minimize: three search nodes once passed
    # here and raised a bare ValueError from the search grid, even under
    # the zero weight, where no search runs
    with pytest.raises(ConfigError, match=f"^{field} must be at least"):
        OptimizerConfig(**kwargs)
    OptimizerConfig(search_nodes=4, seed=0)


def test_perfbench_settings_are_valid():
    DiscFamilySpec(degree=6, bound=10.0, eta=1e-3)
    OptimizerConfig(starts=20, budget=100)

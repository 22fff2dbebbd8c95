"""Envelope minimization: feasibility, seeds, lower bounds, determinism."""
import json
import math

import numpy as np
import pytest

from discenv import kernels
from discenv.discs import AnalyticDiscLift, BoundaryGrid
from discenv.envelope import (CandidateLibrary, DiscFamilySpec,
                              EnvelopeEstimate, OptimizerConfig, _eval_rows,
                              _objective, _search,
                              build_objective_spec, envelope_grid,
                              evaluate_witness, minimize)
from discenv.errors import ConfigError
from discenv.functionals import omega_functional_lifted, sz_functional
from discenv.projective import (AffineBall, AffineLogPolyWeight,
                                ConstantWeight, FsBall, HomPolynomial,
                                LiftedWeight, ProjPoint, Tube, ZeroWeight,
                                affine_lift)

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
    x = ProjPoint(np.array([1.0, 0.2]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    fam = DiscFamilySpec(degree=3, m=2, center=x)
    est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
    vals = [v for v in est.trace if v is not None]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_determinism_json_level():
    x = ProjPoint(np.array([1.0, 0.3]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.4)
    fam = DiscFamilySpec(degree=4, m=2, center=x)
    runs = []
    for _ in range(2):
        est = minimize("omega", x, dom, ZeroWeight(), fam, SMALL)
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


def test_candidate_library_negative_control():
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    lib = CandidateLibrary("sz", dom, ZeroWeight(), seed=0)

    def too_big(z_rows):
        return np.full(np.atleast_2d(z_rows).shape[0], 5.0)

    lib.add("bogus", too_big, shift=0.0)  # forced shift, violates v <= phi
    assert lib.candidates[-1].excluded
    x = ProjPoint(affine_lift(np.array([2.0 + 0j])))
    _val, name = lib.lower_bound(x)
    assert name != "bogus"


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
    from discenv.envelope import _coeffs_to_theta, build_objective_spec

    x = ProjPoint(np.array([1.0, 0.45]))
    dom = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.4)
    fam3 = DiscFamilySpec(degree=3, m=2, center=x)
    est3 = minimize("omega", x, dom, ZeroWeight(), fam3, SMALL)
    fam5 = DiscFamilySpec(degree=5, m=2, center=x)
    spec5 = build_objective_spec("omega", x, dom, ZeroWeight(), fam5, SMALL)
    warm = _coeffs_to_theta(spec5, est3.witness.coeffs)
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
        want = omega_functional_lifted(LiftedWeight(weight), disc, grid)
    else:
        want = sz_functional(weight, disc, None, grid, route="jensen")
    assert feasible
    assert value == want.total


@pytest.mark.parametrize("mode", ["omega", "sz"])
def test_evaluate_witness_infeasible_disc(mode):
    disc, dom, weight = _witness_case(mode, 3.0)
    assert evaluate_witness(mode, disc, dom, weight, 1e-3,
                            BoundaryGrid(512)) == (math.inf, False)


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


@pytest.mark.parametrize("m", [2, 3])
def test_eval_rows_matches_horner(m):
    x = ProjPoint(affine_lift(np.full(m - 1, 0.2 - 0.1j)))
    spec = build_objective_spec("sz", x, AffineBall(np.zeros(m - 1, dtype=complex), 1.0),
                                ZeroWeight(), DiscFamilySpec(degree=6, m=m, center=x),
                                OptimizerConfig(search_nodes=256))
    rng = np.random.default_rng(17)
    coeffs = rng.standard_normal((5, 7, m)) + 1j * rng.standard_normal((5, 7, m))
    for nodes, powers in ((spec.nodes, spec.node_powers),
                          (spec.interior_nodes, spec.interior_powers)):
        assert not powers.flags.writeable
        want = np.concatenate([kernels.eval_poly(c, nodes) for c in coeffs])
        got = _eval_rows(coeffs, powers)
        assert got.shape == (5 * len(nodes), m)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


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
    assert few.trace[-1] is not None
    assert few.trace == more.trace[:3]
    # the trace keeps only the best value so far; the final search points
    # of each of the first three restarts match as well
    spec = build_objective_spec("omega", x, dom, ZeroWeight(), fam,
                                OptimizerConfig(search_nodes=nodes))
    theta0s = 0.3 * np.random.default_rng(5).standard_normal((6, spec.dim))
    assert (_search(spec, theta0s[:3], 4, 150).tobytes() ==
            _search(spec, theta0s, 4, 150)[:3].tobytes())


def test_workers_other_than_one_rejected():
    with pytest.raises(ConfigError):
        OptimizerConfig(workers=2)


def test_estimate_json_encodes_infinite_bounds():
    # every candidate excluded: lower bound -inf
    est = EnvelopeEstimate(None, None, -math.inf, None, None, [None], {}, False)
    doc = json.loads(json.dumps(est.to_json(), allow_nan=False))
    assert doc["lower"] == "-inf" and doc["upper"] is None
    est = EnvelopeEstimate(0.25, None, 0.125, "constant", 0.125, [0.25], {}, True)
    doc = json.loads(json.dumps(est.to_json(), allow_nan=False))
    assert (doc["upper"], doc["lower"], doc["gap"]) == (0.25, 0.125, 0.125)

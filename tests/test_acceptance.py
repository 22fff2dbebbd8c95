"""Acceptance gate: the ten criteria, each printing one pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
"""
import json
import math
import time

import numpy as np
import pytest

import discenv.kernels as kernels
from discenv.discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                           grid_values, random_disc, riesz_area_term,
                           roots_in_unit_disc)
from discenv.envelope import (CandidateLibrary, DiscFamilySpec,
                              OptimizerConfig, evaluate_witness, minimize)
from discenv.errors import BoundaryZeroError
from discenv.functionals import (identity_check_eqH, poisson_functional,
                                 omega_functional_lifted, riesz_residual,
                                 sz_interior_jensen, sz_interior_roots)
from discenv.hull import (CompactSetSpec, HullCertificate, b_to_bprime,
                          hull_test, lambda_schedule, normalize_disc)
from discenv.projective import (AffineBall, ConstantWeight, FsBall,
                                LiftedWeight, ProjPoint, ZeroWeight,
                                affine_lift)
from discenv.structure import (epsilon_upper_bound, make_structure_disc,
                               star_factor, structure_params)
from discenv.projective import HyperplaneComplement


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def disc_population():
    # 100 seeded random discs, m=3, degree <= 6, coefficients in the
    # radius-2 ball, rejection-sampled away from the origin
    rng = np.random.default_rng(7)
    return [random_disc(rng, 3, int(rng.integers(1, 7))) for _ in range(100)]


@pytest.fixture(scope="module")
def siciak_runs():
    x = ProjPoint(affine_lift(np.array([2.0 + 0j])))
    dom = AffineBall(np.zeros(1, dtype=complex), 1.0)
    fam = DiscFamilySpec(degree=6, m=2, center=x)
    opt = OptimizerConfig()  # default budget: 20 restarts x 2000 evals
    out = []
    t0 = time.monotonic()
    for _ in range(2):
        lib = CandidateLibrary("sz", dom, ZeroWeight(), seed=opt.seed)
        est = minimize("sz", x, dom, ZeroWeight(), fam, opt, library=lib)
        out.append(est)
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def hull_runs():
    th = 2.0 * np.pi * np.arange(64) / 64
    K = CompactSetSpec(tuple(
        ProjPoint(np.array([1.0, np.exp(1j * t)]) / math.sqrt(2.0))
        for t in th))
    x = ProjPoint(np.array([1.0, 0.0]))
    certs = [hull_test(x, K, 0.5 * math.log(2.0), 0.01, 0.05)
             for _ in range(2)]
    sched = lambda_schedule(x, K, [0.3, 0.1, 0.03])
    return K, x, certs, sched


def test_criterion_1_identity_eqH(disc_population):
    grid = BoundaryGrid(2048)
    quad = AreaQuadrature(256, 512)
    t0 = time.monotonic()
    worst = max(identity_check_eqH(ZeroWeight(), d, grid_values(d, grid), quad)
                ["residual"] for d in disc_population)
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-8 and elapsed <= 60.0,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_riesz_identity(disc_population):
    d_grid, d_quad = BoundaryGrid(), AreaQuadrature()
    x_grid = BoundaryGrid(2 * d_grid.n)
    x_quad = AreaQuadrature(2 * d_quad.n_r, 2 * d_quad.n_theta)
    w1 = max(riesz_residual(d, riesz_area_term(d, d_quad),
                            grid_values(d, d_grid))
             for d in disc_population)
    w2 = max(riesz_residual(d, riesz_area_term(d, x_quad),
                            grid_values(d, x_grid))
             for d in disc_population)
    _report(2, w1 <= 1e-6 and w2 <= 1e-8,
            f"default {w1:.2e}, doubled {w2:.2e}")


def test_criterion_3_jensen_route():
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    while count < 100:
        deg = int(rng.integers(1, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(c[0]) < 1e-3:
            continue
        try:
            roots_in_unit_disc(c, boundary_margin=1e-3)
        except BoundaryZeroError:
            continue
        sec = np.zeros_like(c)
        sec[0] = 1.0
        d = AnalyticDiscLift(np.stack([c, sec], axis=1))
        worst = max(worst, abs(sz_interior_jensen(d) - sz_interior_roots(d)))
        count += 1
    _report(3, worst <= 1e-9, f"max |jensen - roots| {worst:.2e}")


def test_criterion_4_lift_scaling():
    rng = np.random.default_rng(23)
    phi = LiftedWeight(ZeroWeight())
    w_shift = w_inv = 0.0
    for _ in range(20):
        d = random_disc(rng, 3, int(rng.integers(0, 6)))
        lam = 10.0 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.uniform())
        ds = d.scaled(lam)
        grid = BoundaryGrid()
        pts, pts_s = grid_values(d, grid), grid_values(ds, grid)
        a = poisson_functional(phi, pts).total
        b = poisson_functional(phi, pts_s).total
        w_shift = max(w_shift, abs(b - a - math.log(abs(lam))))
        oa = omega_functional_lifted(phi, d, pts).total
        ob = omega_functional_lifted(phi, ds, pts_s).total
        w_inv = max(w_inv, abs(oa - ob))
    _report(4, w_shift <= 1e-12 and w_inv <= 1e-12,
            f"shift err {w_shift:.2e}, invariance err {w_inv:.2e}")


def test_criterion_5_disc_structure():
    dom = HyperplaneComplement(np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng(31)
    t32 = np.exp(2j * np.pi * np.arange(32) / 32)
    w_center = w_star = 0.0
    for _ in range(50):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w[2] += 3.0
        params = structure_params(x, w, dom)
        disc = make_structure_disc(params)
        w_center = max(w_center, float(np.abs(disc.center - x).max()))
        star = star_factor(params, t32)
        w_star = max(w_star, float(np.abs(
            np.linalg.norm(star - params.w, axis=1) - params.r).max()))
    phi = LiftedWeight(ZeroWeight())  # lifted zero weight is log||.||
    eps_ok = 0
    for i in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x[2] += 3.0
        res = epsilon_upper_bound(x, phi, dom, 1e-2, seed=i)
        eps_ok += bool(res["success"] and res["value"]
                       <= res["phi_x"] + 1e-2)
    _report(5, w_center == 0.0 and w_star <= 1e-12 and eps_ok == 20,
            f"center err {w_center:.1e}, star err {w_star:.2e}, "
            f"eps successes {eps_ok}/20")


def test_criterion_6_siciak_desk_case(siciak_runs):
    (est, _est2), elapsed = siciak_runs
    log2 = math.log(2.0)
    ok = (est.feasible
          and log2 - 1e-9 <= est.upper <= log2 + 5e-2
          and est.lower == log2
          and est.lower_candidate == "log_plus_norm"
          and est.gap <= 5e-2
          and elapsed <= 120.0)
    _report(6, ok, f"upper {est.upper:.6f}, lower {est.lower:.6f}, "
                   f"gap {est.gap:.2e}, {elapsed:.1f}s (two runs)")


def test_criterion_7_hull_self_consistency(hull_runs):
    _K, _x, certs, sched = hull_runs
    cert = certs[0]
    is_cert = isinstance(cert, HullCertificate)
    vals = sched["estimates"]
    nondecr = all(v is not None for v in vals) and \
        all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
    ok = is_cert and cert.value <= 0.5 * math.log(2.0) + 1e-6 and nondecr
    _report(7, ok, f"value {cert.value if is_cert else None}, "
                   f"schedule {['%.4f' % v for v in vals]}")


def test_criterion_8_normalization(hull_runs):
    d = AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    grid = BoundaryGrid(4096)
    errs = []
    for r in (0.9, 0.99, 0.999):
        comp = normalize_disc(d, r, grid)
        vals = kernels.eval_poly(comp.base.coeffs, grid.nodes)
        vals = vals / np.exp(comp.exponent_values(grid.nodes))[:, None]
        errs.append(float(np.abs(np.linalg.norm(vals, axis=1) - 1.0).max()))
    # (1, t) has constant boundary norm, so the sequence is flat at machine
    # epsilon: require non-increase within 1e-12 plus the absolute bound
    seq_ok = all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])) and \
        errs[2] <= 1e-3
    K, _x, certs, _sched = hull_runs
    rep = b_to_bprime(certs[0], K, 16, 0.2, 0.999)
    _report(8, seq_ok and rep["bound_ok"],
            f"norm errs {['%.1e' % e for e in errs]}, center bound "
            f"{rep['neg_log_center_norm']:.4f} <= {rep['bound']:.4f}")


def test_criterion_9_monotonicity_suite():
    center = ProjPoint(np.array([1.0, 0.0]))
    x = ProjPoint(np.array([1.0, math.tan(0.4)]))  # FS distance 0.4 from center
    domains = [FsBall(center, r) for r in (0.3, 0.5, 0.7)]
    fam = DiscFamilySpec(degree=4, m=2, center=x)
    opt = OptimizerConfig(starts=10, budget=800, seed=5)
    grid = BoundaryGrid(1024)
    pool = []
    for dom in domains:
        est = minimize("omega", x, dom, ZeroWeight(), fam, opt, grid)
        pool.extend(d for _v, d in est.witnesses)

    def pooled(dom, weight):
        best = math.inf
        for d in pool:
            v, feas = evaluate_witness("omega", d, dom, weight, fam.eta, grid)
            if feas:
                best = min(best, v)
        return best

    dom_vals = [pooled(dom, ZeroWeight()) for dom in domains]
    dom_ok = all(a >= b - 1e-6 for a, b in zip(dom_vals, dom_vals[1:]))
    wt_small = pooled(domains[1], ZeroWeight())
    wt_big = pooled(domains[1], ConstantWeight(0.5))
    wt_ok = wt_small <= wt_big + 1e-6
    # degree monotonicity: warm-started higher degree never increases upper
    from discenv.envelope import _coeffs_to_theta

    est4 = minimize("omega", x, domains[1], ZeroWeight(), fam, opt, grid)
    fam6 = DiscFamilySpec(degree=6, m=2, center=x)
    warm = _coeffs_to_theta(fam6.degree, est4.witness.coeffs)
    est6 = minimize("omega", x, domains[1], ZeroWeight(), fam6, opt, grid,
                    warm_theta=warm)
    deg_ok = est6.upper <= est4.upper + 1e-6
    _report(9, dom_ok and wt_ok and deg_ok,
            f"domain {['%.4f' % v for v in dom_vals]}, weight "
            f"{wt_small:.4f}<={wt_big:.4f}, degree {est6.upper:.4f}<="
            f"{est4.upper:.4f}")


def test_criterion_10_determinism(siciak_runs, hull_runs):
    (est_a, est_b), _elapsed = siciak_runs
    art_a = json.dumps(est_a.to_json(), sort_keys=True).encode()
    art_b = json.dumps(est_b.to_json(), sort_keys=True).encode()
    _K, _x, certs, _sched = hull_runs
    hull_a = json.dumps(certs[0].to_json(), sort_keys=True).encode()
    hull_b = json.dumps(certs[1].to_json(), sort_keys=True).encode()
    _report(10, art_a == art_b and hull_a == hull_b,
            f"siciak artifacts identical: {art_a == art_b}, "
            f"hull artifacts identical: {hull_a == hull_b}")

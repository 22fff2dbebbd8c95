"""Hull certificates, conversions, schedules, and boundary normalization."""
import logging
import math

import numpy as np
import pytest

from discenv import envelope, kernels
from discenv.discs import (AnalyticDiscLift, BoundaryGrid, CompositeDisc,
                           boundary_lognorms, grid_values)
from discenv.envelope import DiscFamilySpec, OptimizerConfig, evaluate_witness
from discenv.errors import InfeasibleDiscError, OriginViolation
from discenv.functionals import omega_functional_lifted, riesz_residual
from discenv.hull import (CompactSetSpec, HullCertificate, b_to_bprime,
                          bprime_to_b, center_report, hull_test, lambda_c_rho,
                          lambda_schedule, normalize_disc, spherical_lift)
from discenv.projective import (LiftedWeight, ProjPoint, Tube, ZeroWeight,
                                fs_distances)

SMALL = OptimizerConfig(starts=5, budget=300, seed=1, search_nodes=128)


def circle_set(n=64):
    # 64 samples keep the sampled-tube gap (~pi/128) well inside delta=0.05
    th = 2.0 * np.pi * np.arange(n) / n
    pts = tuple(ProjPoint(np.array([1.0, np.exp(1j * t)]) / math.sqrt(2.0))
                for t in th)
    return CompactSetSpec(pts, name="circle")


def test_lambda_c_rho_roundtrips():
    assert lambda_c_rho(0.0) == {"lambda": 0.0, "C": 1.0, "rho": 1.0}
    out = lambda_c_rho(math.log(2.0))
    assert out["C"] == pytest.approx(2.0) and out["rho"] == pytest.approx(0.5)
    out = lambda_c_rho(math.exp(-3.0), source="rho")
    assert out["lambda"] == pytest.approx(3.0)
    assert out["C"] == pytest.approx(math.exp(3.0))
    for lam in (0.0, 0.7, -1.3):
        a = lambda_c_rho(lam)
        assert lambda_c_rho(a["C"], "C")["lambda"] == pytest.approx(lam,
                                                                    abs=1e-15)
        assert lambda_c_rho(a["rho"], "rho")["lambda"] == pytest.approx(
            lam, abs=1e-15)
    with pytest.raises(ValueError):
        lambda_c_rho(-1.0, source="C")


def test_spherical_lift_counts_and_norms():
    K = CompactSetSpec((ProjPoint(np.array([1.0, 0.0])),))
    lifted = spherical_lift(K, 4)
    assert lifted.shape == (4, 2)
    assert np.allclose(np.linalg.norm(lifted, axis=1), 1.0, atol=1e-15)
    # projecting back recovers the K sample
    for row in lifted:
        assert ProjPoint(row).isclose(K.samples[0], 1e-12)


def test_compact_set_dedups():
    p = ProjPoint(np.array([1.0, 0.0]))
    K = CompactSetSpec((p, ProjPoint(np.array([2.0, 0.0])), p))
    assert len(K.samples) == 1


def test_compact_set_json_roundtrip():
    K = CompactSetSpec(circle_set(8).samples, connected=False, name="octagon")
    K2 = CompactSetSpec.from_json(K.to_json())
    assert (K2.connected, K2.name) == (False, "octagon")
    # a point read back is normalized again, which may move an ulp
    assert len(K2.samples) == len(K.samples) == 8
    assert all(np.allclose(p.vec, q.vec, rtol=0, atol=1e-15)
               for p, q in zip(K.samples, K2.samples))


def test_hull_point_on_K_constant_disc():
    K = circle_set()
    x = K.samples[0]
    cert = hull_test(x, K, 1.0, 0.01, 0.05)
    assert isinstance(cert, HullCertificate)
    assert cert.value == 0.0
    assert cert.witness.degree == 0


def test_hull_warns_on_disconnected_set(caplog):
    K = CompactSetSpec(circle_set().samples, connected=False)
    with caplog.at_level(logging.WARNING, logger="discenv.hull"):
        hull_test(K.samples[0], K, 1.0, 0.01, 0.05)
    assert [(r.name, r.levelno) for r in caplog.records] == \
        [("discenv.hull", logging.WARNING)]
    assert "connected" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="discenv.hull"):
        hull_test(K.samples[0], circle_set(), 1.0, 0.01, 0.05)
    assert not caplog.records


def test_hull_circle_case():
    K = circle_set()
    x = ProjPoint(np.array([1.0, 0.0]))
    cert = hull_test(x, K, 0.5 * math.log(2.0), 0.01, 0.05,
                     DiscFamilySpec(m=2), SMALL)
    assert isinstance(cert, HullCertificate)
    assert cert.value <= 0.5 * math.log(2.0) + 1e-6
    rep = cert.revalidate(K)
    assert rep["ok"]


def test_revalidate_applies_the_origin_floor():
    # f = (t - 1/3)(1, 1) vanishes at t = 1/3, a node of the 64 x 64 floor
    # grid: evaluate_witness rejects it, so revalidation must too
    K = circle_set()
    disc = AnalyticDiscLift(np.array([[-1.0, -1.0], [3.0, 3.0]]) / 3.0)
    assert evaluate_witness("omega", disc, K.tube(0.05), ZeroWeight(), 1e-3,
                            BoundaryGrid(1024)) == (math.inf, False)
    cert = HullCertificate(ProjPoint(np.array([1.0, 1.0])), math.log(3.0),
                           0.01, 0.05, disc, math.log(3.0),
                           {"final_nodes": 1024})
    rep = cert.revalidate(K)
    assert rep["center_ok"]
    assert not rep["boundary_in_tube"] and not rep["ok"]


@pytest.mark.parametrize("lam", [-1.0, math.nan], ids=["below-zero", "nan"])
def test_certificate_needs_value_below_lambda_eps(lam):
    # the constant disc at a point of K is admissible, but its value 0 is
    # not below lambda + eps: no certificate, and revalidate refuses one
    # made by hand
    K = circle_set()
    x = K.samples[0]
    out = hull_test(x, K, lam, 0.01, 0.05)
    assert isinstance(out, dict) and not out["certified"]
    assert out["best_value"] == 0.0
    cert = HullCertificate(x, lam, 0.01, 0.05, AnalyticDiscLift(x.vec[None, :]),
                           0.0, {"final_nodes": 1024})
    rep = cert.revalidate(K)
    assert rep["boundary_in_tube"] and rep["center_ok"]
    assert rep["value_drift"] <= 1e-8
    assert not rep["below_threshold"] and not rep["ok"]


def test_hull_failure_is_one_sided():
    K = circle_set()
    x = ProjPoint(np.array([1.0, 0.0]))
    out = hull_test(x, K, 0.1, 0.01, 0.05, DiscFamilySpec(m=2), SMALL)
    assert isinstance(out, dict) and not out["certified"]
    assert "does not witness exclusion" in out["statement"]
    assert out["best_value"] == pytest.approx(0.5 * math.log(2.0), abs=0.05)


def test_schedule_on_K_point_all_zero():
    K = circle_set()
    x = K.samples[3]
    res = lambda_schedule(x, K, [0.3, 0.1, 0.03], DiscFamilySpec(m=2), SMALL)
    assert all(v == 0.0 for v in res["estimates"])


def _raise_on_search(*args, **kwargs):
    raise AssertionError("search ran")


def test_hull_shortcut_off_the_real_axis(monkeypatch):
    # <x, k> is complex for every sample k; x lies 0.0275 from K, inside
    # delta - eta = 0.049, so the constant disc certifies without a search
    K = circle_set()
    x = ProjPoint(np.array([1.0, 0.97 + 0.05j]))
    S = np.stack([p.vec for p in K.samples])
    assert fs_distances(S, x.vec).min() == pytest.approx(0.0275, abs=1e-4)
    monkeypatch.setattr(envelope, "_search", _raise_on_search)
    cert = hull_test(x, K, 0.5 * math.log(2.0), 0.01, 0.05)
    assert isinstance(cert, HullCertificate)
    assert cert.value == 0.0 and cert.witness.degree == 0
    opt = OptimizerConfig(starts=1, budget=2, seed=1, search_nodes=64)
    res = lambda_schedule(x, K, [0.05, 0.04], DiscFamilySpec(m=2), opt)
    assert res["estimates"] == [0.0, 0.0]
    # just outside delta - eta the search runs
    y = ProjPoint(np.array([1.0, 0.913 + 0.05j]))
    assert 0.05 - 1e-3 < fs_distances(S, y.vec).min() < 0.05
    with pytest.raises(AssertionError, match="search ran"):
        hull_test(y, K, 0.5 * math.log(2.0), 0.01, 0.05)


def test_tube_built_once_per_delta():
    K = circle_set(16)
    t = K.tube(0.1)
    assert K.tube(0.1) is t and K.tube(0.2) is not t
    assert t == Tube(K.samples, 0.1)
    assert K == CompactSetSpec(K.samples, name="circle")


def test_schedule_same_with_fresh_tubes(monkeypatch):
    # the schedule reuses each delta's tube; building a fresh tube on
    # every call gives the same outputs
    x = ProjPoint(np.array([1.0, 0.0]))
    fam = DiscFamilySpec(degree=3, m=2)
    opt = OptimizerConfig(starts=4, budget=80, seed=2, search_nodes=64)
    deltas = [0.2, 0.1]
    got = lambda_schedule(x, circle_set(16), deltas, fam, opt)
    monkeypatch.setattr(CompactSetSpec, "tube",
                        lambda self, delta: Tube(self.samples, delta))
    want = lambda_schedule(x, circle_set(16), deltas, fam, opt)
    assert got["estimates"] == want["estimates"]
    assert all(e is not None for e in got["estimates"])
    assert [d.coeffs.tobytes() for d in got["witnesses"]] == \
        [d.coeffs.tobytes() for d in want["witnesses"]]


def test_schedule_rejects_bad_order():
    K = circle_set()
    x = ProjPoint(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lambda_schedule(x, K, [0.1, 0.3], DiscFamilySpec(m=2), SMALL)


def test_schedule_rejects_empty():
    x = ProjPoint(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="at least one"):
        lambda_schedule(x, circle_set(), [], DiscFamilySpec(m=2), SMALL)


def test_normalize_constant_boundary_norm():
    d = AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    grid = BoundaryGrid(1024)
    comp = normalize_disc(d, 0.9, grid)
    import discenv.kernels as kernels

    vals = kernels.eval_poly(comp.base.coeffs, grid.nodes)
    vals = vals / np.exp(comp.exponent_values(grid.nodes))[:, None]
    norms = np.linalg.norm(vals, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12  # constant Dirichlet data


def test_normalize_nonconstant_boundary_decreasing():
    d = AnalyticDiscLift(np.array([[1.5, 0.3], [0.4, 1.0]], dtype=complex))
    grid = BoundaryGrid(2048)
    import discenv.kernels as kernels

    errs = []
    for r in (0.9, 0.99, 0.999):
        comp = normalize_disc(d, r, grid)
        vals = kernels.eval_poly(comp.base.coeffs, grid.nodes)
        vals = vals / np.exp(comp.exponent_values(grid.nodes))[:, None]
        errs.append(float(np.abs(np.linalg.norm(vals, axis=1) - 1.0).max()))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_normalize_center_matches_functional():
    # -log||p|| equals the omega functional of the original disc (phi = 0)
    from discenv.functionals import omega_functional_direct
    from discenv.projective import ZeroWeight

    d = AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    comp = normalize_disc(d, 0.999, BoundaryGrid(4096))
    rep = center_report(comp)
    ref = omega_functional_direct(ZeroWeight(), d,
                                  grid_values(d, BoundaryGrid())).total
    assert rep["neg_log_norm"] == pytest.approx(ref, abs=1e-6)


def test_normalize_rejects_bad_radius():
    d = AnalyticDiscLift(np.array([[1.0], [0.5]], dtype=complex))
    with pytest.raises(ValueError):
        normalize_disc(d, 1.0)


def test_b_to_bprime_constant_certificate():
    K = circle_set()
    x = K.samples[0]
    cert = hull_test(x, K, 1.0, 0.01, 0.05)
    rep = b_to_bprime(cert, K, 16, 0.1, 0.99)
    assert rep["center_norm"] == pytest.approx(1.0, abs=1e-10)
    assert rep["bound_ok"]


def test_b_to_bprime_worst_distance_brute_force():
    K = circle_set(16)
    x = ProjPoint(np.array([1.0, 0.0]))
    witness = AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))
    cert = HullCertificate(x, 1.0, 0.01, 0.05, witness, 0.0, {})
    grid = BoundaryGrid(64)
    rep = b_to_bprime(cert, K, 8, 2.0, 0.99, grid)
    lifted = spherical_lift(K, 8)
    want = max(min(np.linalg.norm(p - row) for row in lifted)
               for p in grid_values(rep["disc"], grid))
    assert 0.1 < want < 2.0
    assert rep["worst_tube_distance"] == pytest.approx(want, rel=0, abs=1e-15)


def test_b_to_bprime_tube_violation():
    K = circle_set()
    x = ProjPoint(np.array([1.0, 0.0]))
    cert = hull_test(x, K, 0.5 * math.log(2.0), 0.01, 0.05,
                     DiscFamilySpec(m=2), SMALL)
    with pytest.raises(InfeasibleDiscError):
        b_to_bprime(cert, K, 16, 1e-6, 0.999)


_THROUGH_ORIGIN = AnalyticDiscLift(np.array([[0.0, 0.0], [1.0, 0.5]],
                                            dtype=complex))  # (t, t/2)


@pytest.mark.parametrize("call", [
    lambda d: omega_functional_lifted(LiftedWeight(ZeroWeight()), d,
                                      grid_values(d, BoundaryGrid())),
    lambda d: riesz_residual(d, 0.0, grid_values(d, BoundaryGrid())),
    lambda d: center_report(normalize_disc(d, 0.9)),
    lambda d: bprime_to_b(normalize_disc(d, 0.9), 1e-2),
], ids=["omega-lifted", "riesz-residual", "center-report", "bprime-to-b"])
def test_center_at_the_origin_is_an_origin_violation(call):
    with pytest.raises(OriginViolation):
        call(_THROUGH_ORIGIN)


def test_bprime_to_b_unit_boundary():
    # normalized (1, t)/sqrt(2): boundary norm exactly 1
    d = AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    comp = normalize_disc(d, 0.999, BoundaryGrid(2048))
    rep = bprime_to_b(comp, 1e-3, BoundaryGrid(2048))
    assert rep["bound_ok"]
    assert rep["functional"] == pytest.approx(rep["neg_log_center_norm"],
                                              abs=1e-3)


def test_bprime_to_b_one_base_evaluation():
    d = AnalyticDiscLift(np.array([[1.5, 0.3], [0.4, 1.0]], dtype=complex))
    grid = BoundaryGrid(2048)
    comp = normalize_disc(d, 0.999, grid)
    rep = bprime_to_b(comp, 1e-2, grid)
    # the boundary log-norms are boundary_lognorms' own
    assert rep["max_abs_boundary_lognorm"] == \
        float(np.abs(boundary_lognorms(comp, grid)).max())
    # the functional by Horner on the nodes
    want = -math.log(float(np.linalg.norm(d.center))) + \
        float(np.mean(kernels.lognorm(d.coeffs, grid.nodes)))
    assert rep["functional"] == pytest.approx(want, rel=0, abs=1e-13)


def test_bprime_to_b_rejects_large_boundary_norm():
    d = AnalyticDiscLift(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
    comp = CompositeDisc(d, np.zeros(1, dtype=complex))
    with pytest.raises(InfeasibleDiscError):
        bprime_to_b(comp, 1e-3)

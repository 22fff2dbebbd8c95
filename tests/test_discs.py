"""Disc evaluation, quadratures, root finding, and harmonic machinery."""
import math

import numpy as np
import pytest

from discenv import discs, kernels
from discenv.discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                           CompositeDisc, _angle_counts, _area_radii,
                           _clustered_roots, _newton_polish,
                           _polar_density_sums, _trig_columns, _trig_rows,
                           _trig_table, _validation_radii, circle_powers,
                           boundary_lognorms, circle_mean,
                           disc_values, eval_disc, fs_pullback_density,
                           grid_values,
                           harmonic_extension_and_conjugate,
                           holomorphic_completion_coeffs,
                           neg_log_center_norm, power_table, random_disc, riesz_area_term, roots_in_unit_disc,
                           validation_grid, winding_number)
from discenv.errors import (BoundaryZeroError, NumericalError,
                            OriginViolation)


def disc_1t():
    return AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))


# ---------------------------------------------------------------------------
# eval_disc


def test_eval_constant_disc():
    d = AnalyticDiscLift(np.array([[1.0, 0.0]], dtype=complex))
    assert np.allclose(d(1j), [1.0, 0.0])


def test_eval_center_exact():
    assert np.allclose(disc_1t()(0.0), [1.0, 0.0])


def test_eval_coefficient_sum():
    assert np.allclose(disc_1t()(1.0), [1.0, 1.0])


def test_eval_outside_disc_rejected():
    with pytest.raises(ValueError):
        disc_1t()(1.1)


def test_eval_origin_violation():
    d = AnalyticDiscLift(np.array([[1.0], [-1.0]], dtype=complex),
                         delta_min=1e-2)
    with pytest.raises(OriginViolation):
        d(1.0)


def test_neg_log_center_norm():
    d = AnalyticDiscLift(np.array([[3.0, 4.0], [1.0, 0.0]], dtype=complex))
    assert neg_log_center_norm(d) == -math.log(5.0)
    half = CompositeDisc(d, np.array([math.log(2.0)]))  # f / 2
    assert neg_log_center_norm(half) == pytest.approx(-math.log(2.5), abs=1e-15)
    # below the floor, for a disc and for a CompositeDisc on its base
    low = AnalyticDiscLift(np.array([[1e-9, 0.0], [1.0, 0.0]], dtype=complex))
    for disc in (low, CompositeDisc(low, np.array([-30.0]))):
        with pytest.raises(OriginViolation):
            neg_log_center_norm(disc)


def test_disc_json_roundtrip():
    rng = np.random.default_rng(0)
    d = random_disc(rng, 3, 4)
    d2 = AnalyticDiscLift.from_json(d.to_json())
    assert np.allclose(d.coeffs, d2.coeffs)


# ---------------------------------------------------------------------------
# circle_mean


def test_circle_mean_constant():
    g = BoundaryGrid(64)
    assert circle_mean(np.ones(64)) == 1.0
    assert g.weights.sum() == pytest.approx(1.0)


def test_circle_mean_cosine():
    grid = BoundaryGrid(128)
    assert circle_mean(np.real(grid.nodes)) == pytest.approx(0.0, abs=1e-14)


def test_circle_mean_log_distance():
    # mean of log|t - 2| over T is log 2 (harmonic outside the disc);
    # cross-checked against a dense quadrature
    grid = BoundaryGrid(1024)
    vals = np.log(np.abs(grid.nodes - 2.0))
    assert circle_mean(vals) == pytest.approx(math.log(2.0), abs=1e-13)
    dense = BoundaryGrid(1 << 20)
    ref = circle_mean(np.log(np.abs(dense.nodes - 2.0)))
    assert circle_mean(vals) == pytest.approx(ref, abs=1e-12)


def test_circle_mean_exact_for_trig_polys():
    grid = BoundaryGrid(64)
    theta = np.angle(grid.nodes)
    g = 1.0 + np.cos(5 * theta) - 2.0 * np.sin(17 * theta)
    assert circle_mean(g) == pytest.approx(1.0, abs=1e-14)


def test_circle_mean_neg_inf_propagates():
    s = np.zeros(16)
    s[3] = -np.inf
    assert circle_mean(s) == -np.inf


def test_circle_mean_nan_rejected():
    s = np.zeros(16)
    s[3] = np.nan
    with pytest.raises(NumericalError):
        circle_mean(s)


def _circle_mean_reference(samples):
    """circle_mean as it was written before it tested the mean alone: every
    sample for NaN and +inf, then for -inf, then the mean."""
    s = np.asarray(samples, dtype=float)
    if np.any(np.isnan(s)) or np.any(np.isposinf(s)):
        raise NumericalError("boundary samples contain NaN or +inf")
    if np.any(np.isneginf(s)):
        return float("-inf")
    return float(s.mean())


def _mixed(*values):
    s = np.linspace(-1.0, 1.0, 32)
    s[:len(values)] = values
    return s


@pytest.mark.parametrize("samples", [
    np.linspace(-3.0, 2.0, 64), _mixed(-np.inf), _mixed(np.nan), _mixed(np.inf),
    _mixed(np.inf, -np.inf), _mixed(-np.inf, np.nan), np.full(16, 1e308),
    np.full(16, -1e308), np.tile([1e308, -1e308, 0, 0, 0, 0, 0, 0], 4)],
    ids=["finite", "-inf", "nan", "+inf", "+-inf", "-inf-nan", "overflow+",
         "overflow-", "overflow+-"])
def test_circle_mean_matches_reference(samples):
    # the same result or exception as the per-sample tests; a finite sum
    # that overflows keeps its overflowed mean (+inf, -inf or NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = _circle_mean_reference(samples)
        except NumericalError:
            with pytest.raises(NumericalError):
                circle_mean(samples)
            return
        got = circle_mean(samples)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# Fubini-Study pullback density


def _fd_laplacian(f, t, h=1e-4):
    return (f(t + h) + f(t - h) + f(t + 1j * h) + f(t - 1j * h)
            - 4.0 * f(t)) / h ** 2


def test_density_constant_disc():
    d = AnalyticDiscLift(np.array([[2.0, 1.0]], dtype=complex))
    assert fs_pullback_density(d, 0.3 + 0.2j) == pytest.approx(0.0)


def test_density_against_finite_differences():
    d = disc_1t()

    def lognorm(t):
        return 0.5 * np.log(1.0 + abs(t) ** 2)

    assert fs_pullback_density(d, 0.0) == pytest.approx(
        _fd_laplacian(lognorm, 0.0), abs=1e-6)
    t1 = np.exp(0.7j) * 0.999  # just inside so FD stencil stays in the disc
    assert fs_pullback_density(d, t1) == pytest.approx(
        _fd_laplacian(lognorm, t1), abs=1e-6)


def test_density_values_1t():
    d = disc_1t()
    assert fs_pullback_density(d, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert fs_pullback_density(d, np.exp(1.3j)) == pytest.approx(0.5, abs=1e-12)


def test_density_random_disc_vs_fd():
    rng = np.random.default_rng(5)
    d = random_disc(rng, 3, 4)

    def lognorm(t):
        v = d(t)
        return 0.5 * math.log(float(np.vdot(v, v).real))

    for t in (0.1 + 0.2j, -0.4, 0.3j):
        assert fs_pullback_density(d, t) == pytest.approx(
            _fd_laplacian(lognorm, t), rel=1e-4, abs=1e-4)


def test_density_nonnegative_on_quadrature():
    rng = np.random.default_rng(8)
    quad = AreaQuadrature(32, 64)
    for _ in range(5):
        d = random_disc(rng, 2, 5)
        dens = fs_pullback_density(d, quad.nodes)
        assert np.all(dens >= 0.0)


# ---------------------------------------------------------------------------
# area quadrature + Riesz term


def test_area_quadrature_total_area():
    q = AreaQuadrature(8, 16)
    assert q.integral(np.ones(q.nodes.size)) == pytest.approx(math.pi,
                                                              abs=1e-12)


def test_area_quadrature_log_moment():
    q = AreaQuadrature(32, 16)
    assert q.integral(q.log_r) / math.pi == pytest.approx(-0.5, abs=1e-10)


def test_area_quadrature_polynomial_moment():
    # int_D |t|^2 dA = pi/2
    q = AreaQuadrature(16, 32)
    assert q.integral(np.abs(q.nodes) ** 2) == pytest.approx(math.pi / 2,
                                                             abs=1e-12)


def test_riesz_constant_disc():
    d = AnalyticDiscLift(np.array([[1.0, 2.0]], dtype=complex))
    assert riesz_area_term(d) == pytest.approx(0.0, abs=1e-14)


def test_riesz_disc_1t():
    assert riesz_area_term(disc_1t()) == pytest.approx(-0.5 * math.log(2.0),
                                                       abs=1e-10)


def test_riesz_disc_2t():
    d = AnalyticDiscLift(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))
    ref = math.log(2.0) - 0.5 * math.log(5.0)
    assert riesz_area_term(d) == pytest.approx(ref, abs=1e-10)


def test_riesz_identity_random():
    rng = np.random.default_rng(21)
    grid = BoundaryGrid()
    for _ in range(5):
        d = random_disc(rng, 3, 5)
        rhs = math.log(float(np.linalg.norm(d.center))) - \
            circle_mean(boundary_lognorms(d, grid))
        assert riesz_area_term(d) == pytest.approx(rhs, abs=1e-6)


def _riesz_pointwise(disc, quad):
    """riesz_area_term through the flat node list, one density per node."""
    return quad.integral(quad.log_r * fs_pullback_density(disc, quad.nodes)) / (
        2.0 * math.pi)


@pytest.mark.parametrize("m,n_r,n_theta,degrees", [
    pytest.param(2, 48, 96, range(9), id="2"),
    pytest.param(3, 48, 96, range(9), id="3"),
    pytest.param(4, 48, 96, range(9), id="4"),
    # identity-check's default grid
    pytest.param(3, 256, 512, [6], id="256x512-d6-m3")])
def test_riesz_tensor_grid_matches_pointwise(m, n_r, n_theta, degrees):
    rng = np.random.default_rng(40 + m)
    quad = AreaQuadrature(n_r, n_theta)
    for degree in degrees:
        d = random_disc(rng, m, degree)
        assert riesz_area_term(d, quad) == pytest.approx(
            _riesz_pointwise(d, quad), rel=0, abs=1e-13)


def test_riesz_tensor_grid_matches_pointwise_composite():
    rng = np.random.default_rng(43)
    quad = AreaQuadrature(48, 96)
    comp = CompositeDisc(random_disc(rng, 3, 4),
                         np.array([0.3, 0.2 - 0.1j, 0.05j]))
    assert riesz_area_term(comp, quad) == pytest.approx(
        _riesz_pointwise(comp, quad), rel=0, abs=1e-13)
    assert riesz_area_term(comp, quad) == riesz_area_term(comp.base, quad)


@pytest.mark.parametrize("small", [1e-2, 1e-3])
@pytest.mark.parametrize("n_r,n_theta", [(48, 96), (256, 512)],
                         ids=["48x96", "256x512"])
def test_riesz_near_origin_matches_pointwise(n_r, n_theta, small):
    # f = (10(t - t0), small, small t): |f| falls to about small near t0,
    # where the rounding of the trigonometric |f|^2 weighs most
    t0 = 0.6 * np.exp(0.7j)
    d = AnalyticDiscLift(np.array([[-10.0 * t0, small, 0.0],
                                   [10.0, 0.0, small]]))
    quad = AreaQuadrature(n_r, n_theta)
    assert riesz_area_term(d, quad) == pytest.approx(
        _riesz_pointwise(d, quad), rel=0, abs=1e-10)


@pytest.mark.parametrize("n_r,n_theta", [(16, 32), (48, 96), (256, 512)],
                         ids=["16x32", "48x96", "256x512"])
def test_riesz_origin_at_quadrature_node(n_r, n_theta):
    # a zero at a node of each radius in turn: the computed |f|^2 there is
    # rounding alone, of either sign, up to about eps (|t0| + r)^2
    quad = AreaQuadrature(n_r, n_theta)
    for i in range(n_r):
        t0 = quad.nodes[i * n_theta + 7]
        d = AnalyticDiscLift(np.array([[-t0, 0.0], [1.0, 0.0]]))
        with pytest.raises(OriginViolation):
            riesz_area_term(d, quad)


def test_riesz_without_lagrange_pairs():
    # degree 0 or m = 1: log|f| is harmonic, the term is 0, and the origin
    # check still applies
    quad = AreaQuadrature(16, 32)
    for coeffs in ([[1.0, 2.0]], [[2.0], [1.0]], [[3.0], [0.5j], [-0.2]]):
        assert riesz_area_term(AnalyticDiscLift(np.array(coeffs)), quad) == 0.0
    t0 = quad.nodes[5 * quad.n_theta + 7]
    for coeffs in ([[1e-9, 0.0]], [[-t0], [1.0]]):
        with pytest.raises(OriginViolation):
            riesz_area_term(AnalyticDiscLift(np.array(coeffs)), quad)


def _sums_and_counts(disc, quad, monkeypatch):
    """The per-radius density sums of the area term and the angle counts
    it chose for them."""
    chosen = []

    def spy(*args):
        chosen.append(_angle_counts(*args))
        return chosen[-1]

    monkeypatch.setattr(discs, "_angle_counts", spy)
    sums = _polar_density_sums(disc.coeffs, disc.delta_min, quad)
    (counts,) = chosen
    return sums, counts


@pytest.mark.parametrize("n_r,n_theta", [(256, 512), (512, 1024)],
                         ids=["256x512", "512x1024"])
def test_area_sums_certified_counts_match_pointwise(n_r, n_theta, monkeypatch):
    # each circle summed on its certified count of angles gives the sum of
    # the pointwise density over all n_theta nodes of the radius
    rng = np.random.default_rng(60)
    quad = AreaQuadrature(n_r, n_theta)
    for degree in range(1, 7):
        d = random_disc(rng, 3, degree)
        sums, counts = _sums_and_counts(d, quad, monkeypatch)
        want = fs_pullback_density(d, quad.nodes).reshape(n_r, n_theta).sum(axis=1)
        assert np.all(np.abs(sums - want) <= 1e-14 * want)
        assert np.all(n_theta % counts == 0) and np.all(counts <= n_theta)
        assert np.all(np.diff(counts) >= 0)
        assert counts[0] < n_theta  # the fewer-angle path ran


def test_angle_counts_odd_n_theta_keeps_every_angle(monkeypatch):
    d = random_disc(np.random.default_rng(61), 3, 2)
    quad = AreaQuadrature(32, 65)  # no n_theta / 2^j is an integer
    sums, counts = _sums_and_counts(d, quad, monkeypatch)
    assert np.all(counts == 65)
    want = fs_pullback_density(d, quad.nodes).reshape(32, 65).sum(axis=1)
    assert np.all(np.abs(sums - want) <= 1e-14 * want)


def test_angle_counts_keep_every_angle_near_a_zero(monkeypatch):
    # f = (10(t - t0), 1e-2, 1e-2 t) nearly vanishes at |t| = 0.6: no
    # strip about those circles keeps |f|^2 away from 0
    t0 = 0.6 * np.exp(0.7j)
    d = AnalyticDiscLift(np.array([[-10.0 * t0, 1e-2, 0.0],
                                   [10.0, 0.0, 1e-2]]))
    quad = AreaQuadrature(256, 512)
    _, counts = _sums_and_counts(d, quad, monkeypatch)
    near = np.abs(quad.radii - 0.6) < 0.1
    assert near.any() and np.all(counts[near] == 512)
    assert counts[0] < 512


def _cache_misses():
    return {f.__name__: f.cache_info().misses for f in (
        discs._trig_table, discs._power_table, discs._circle_nodes,
        discs._radial_rule, discs._gram_map, discs._strip_constants)}


def test_area_term_tables_built_once_per_node_set():
    # a node set no other test uses, so that its first call builds
    quad = AreaQuadrature(37, 96)
    rng = np.random.default_rng(62)
    d6, d3 = random_disc(rng, 3, 6), random_disc(rng, 3, 3)
    first = riesz_area_term(d6, quad)
    before = _cache_misses()
    assert riesz_area_term(d6, quad) == first
    assert _cache_misses() == before
    # another degree up to 8 reads the same node-set tables; only the
    # per-degree index maps and strip constants may be new
    riesz_area_term(d3, quad)
    after = _cache_misses()
    for name in ("_trig_table", "_power_table", "_circle_nodes", "_radial_rule"):
        assert after[name] == before[name], name
    riesz_area_term(d3, quad)
    assert _cache_misses() == after


@pytest.mark.parametrize("n_theta", [512, 1024, 65])
def test_trig_columns_match_per_run_build(n_theta):
    # the cos and sin rows of every (n / k)-th angle, as each run built them
    # before the table was cached: a complex slice, stacked and reshaped
    for span in (15, 17):
        table = _trig_table(n_theta, span)
        assert not table.flags.writeable
        assert _trig_table(n_theta, span) is table
        ks = [n_theta >> j for j in range(n_theta.bit_length())
              if (n_theta >> j) << j == n_theta and n_theta >> j >= 8]
        for k in ks:
            for top in (0, 1, 5, 11, span):
                e = circle_powers(n_theta, span)[::n_theta // k, :top + 1].T
                want = np.stack([e.real, e.imag], axis=1).reshape(-1, k)
                got = _trig_columns(table[:2 * top + 2], k)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_r", [1, 33, 256])
def test_trig_rows_match_complex_product(n_r):
    # the real product against conj(a) viewed as real pairs has the values
    # of the complex product conjugated afterwards; only the sign of an
    # exact zero may differ, so the test is ==, not bytes
    rng = np.random.default_rng(63)
    for degree in range(9):
        radial = power_table(_area_radii, n_r, 2 * degree)
        for m in (1, 2, 3):
            w = rng.standard_normal((degree + 1, m)) + \
                1j * rng.standard_normal((degree + 1, m))
            d1 = degree + 1
            g = w @ w.conj().T
            k, l = np.tril_indices(d1)
            a = np.zeros((2 * d1 - 1, d1), dtype=np.complex128)
            a[k + l, k - l] = np.where(k == l, 1.0, 2.0) * g[k, l]
            want = np.conj(radial[:, :2 * d1 - 1] @ a).view(np.float64)
            got = _trig_rows(w, radial)
            assert got.shape == want.shape == (n_r, 2 * d1)
            assert np.all(got == want)


@pytest.mark.parametrize("n_r,n_theta", [(0, 8), (-1, 8), (4, 0), (4, -2)])
def test_area_quadrature_rejects_empty_rule(n_r, n_theta):
    with pytest.raises(ValueError):
        AreaQuadrature(n_r, n_theta)


@pytest.mark.parametrize("n_r,n_theta", [(8, 16), (33, 70), (256, 512)])
def test_area_quadrature_flat_arrays_bitwise(n_r, n_theta):
    # the eager construction the flat arrays used to come from
    xs, ws = np.polynomial.legendre.leggauss(n_r)
    s = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    r = s ** 3
    wr = ws * 3.0 * s ** 2 * r
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wt = 2.0 * np.pi / n_theta
    q = AreaQuadrature(n_r, n_theta)
    for got, want in ((q.nodes, (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)),
                      (q.weights, np.repeat(wr * wt, n_theta)),
                      (q.log_r, np.repeat(np.log(r), n_theta))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert q.nodes is q.nodes


def test_area_quadrature_equality_and_hash():
    a, b = AreaQuadrature(32, 64), AreaQuadrature(32, 64)
    assert a == b and hash(a) == hash(b)
    assert a != AreaQuadrature(32, 65)
    assert {a: 1}[b] == 1
    a.nodes  # building the lazy arrays changes neither
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# roots


def test_roots_simple():
    roots = roots_in_unit_disc([-0.5, 1.0])
    assert len(roots) == 1
    a, m = roots[0]
    assert m == 1 and a == pytest.approx(0.5, abs=1e-12)


def test_roots_double():
    # (t - 1/2)^2 = 1/4 - t + t^2
    roots = roots_in_unit_disc([0.25, -1.0, 1.0])
    assert len(roots) == 1
    a, m = roots[0]
    assert m == 2 and a == pytest.approx(0.5, abs=1e-9)


def test_roots_double_from_rounded_coefficients():
    # np.poly's coefficients of (t - r)^2 carry rounding, so p and p' are
    # both noise at the computed roots; a Newton step there must not throw
    # a root away (one unguarded step moved this r by 0.25)
    rng = np.random.default_rng(29)
    rs = [-0.17678185 - 0.69683319j] + list(
        rng.uniform(0.2, 0.95, 200) * np.exp(2j * np.pi * rng.uniform(size=200)))
    for r in rs:
        (a, m), = roots_in_unit_disc(np.poly([r, r])[::-1])
        assert m == 2 and abs(a - r) < 1e-6


def test_roots_quarter_i():
    roots = roots_in_unit_disc([-0.25j, 0.0, 1.0])
    assert len(roots) == 2
    for a, m in roots:
        assert m == 1 and abs(a) == pytest.approx(0.5, abs=1e-12)


def test_roots_boundary_zero_rejected():
    with pytest.raises(BoundaryZeroError):
        roots_in_unit_disc([-1.0, 1.0])


def test_roots_boundary_margin():
    # a zero within 1e-9 of the circle raises; one further out is kept or
    # dropped by its side of the circle
    with pytest.raises(BoundaryZeroError):
        roots_in_unit_disc([-(1 - 5e-10) * 1j, 1.0])
    assert roots_in_unit_disc([-(1 + 5e-9), 1.0]) == []
    (a, m), = roots_in_unit_disc([-(1 - 5e-9) * 1j, 1.0])
    assert m == 1 and abs(a - (1 - 5e-9) * 1j) < 1e-15


def test_roots_fast_path_matches_clustered():
    # simple roots skip the clustering loop; they agree with it
    rng = np.random.default_rng(23)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        p = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        desc = p[::-1]
        raw = _newton_polish(desc, np.roots(desc), 1)
        raw = raw[np.argsort(np.abs(raw), kind="stable")]
        want = [(z, m) for z, m in _clustered_roots(desc, raw)
                if abs(z) < 1.0]
        got = roots_in_unit_disc(p)
        assert [m for _z, m in got] == [m for _z, m in want] == [1] * len(got)
        for (z, _m), (w, _n) in zip(got, want):
            assert abs(z - w) <= 1e-12


def test_roots_winding_consistency():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        try:
            roots = roots_in_unit_disc(p)
        except BoundaryZeroError:
            continue
        assert sum(m for _a, m in roots) == winding_number(p)


def test_roots_accuracy():
    targets = [0.3 + 0.1j, -0.7j, 0.25]
    p = np.poly(targets)[::-1]  # ascending
    roots = roots_in_unit_disc(p)
    found = sorted((a for a, _m in roots), key=lambda z: (z.real, z.imag))
    want = sorted(targets, key=lambda z: (z.real, z.imag))
    for a, b in zip(found, want):
        assert abs(a - b) < 1e-10


# ---------------------------------------------------------------------------
# harmonic extension / conjugate


def test_harmonic_constant_data():
    g = np.full(64, 3.5)
    u, v = harmonic_extension_and_conjugate(g, 0.5)
    assert np.allclose(u, 3.5) and np.allclose(v, 0.0, atol=1e-13)


def test_harmonic_cosine_data():
    grid = BoundaryGrid(64)
    theta = np.angle(grid.nodes)
    u, v = harmonic_extension_and_conjugate(np.cos(theta), 0.5)
    assert np.allclose(u, 0.5 * np.cos(theta), atol=1e-13)
    assert np.allclose(v, 0.5 * np.sin(theta), atol=1e-13)


def test_harmonic_vs_poisson_kernel():
    rng = np.random.default_rng(2)
    n = 256
    theta = 2.0 * np.pi * np.arange(n) / n
    g = np.zeros(n)
    for k in range(1, 9):
        g += rng.standard_normal() * np.cos(k * theta)
        g += rng.standard_normal() * np.sin(k * theta)
    r = 0.7
    u, _v = harmonic_extension_and_conjugate(g, r)
    # dense Poisson-kernel quadrature oracle
    m = 1 << 14
    phi = 2.0 * np.pi * np.arange(m) / m
    gd = np.zeros(m)
    rng2 = np.random.default_rng(2)
    for k in range(1, 9):
        gd += rng2.standard_normal() * np.cos(k * phi)
        gd += rng2.standard_normal() * np.sin(k * phi)
    for j in (0, 17, 100):
        diff = theta[j] - phi
        pk = (1 - r ** 2) / (1 - 2 * r * np.cos(diff) + r ** 2)
        ref = float(np.mean(pk * gd))
        assert u[j] == pytest.approx(ref, abs=1e-10)


def test_harmonic_rejects_bad_radius():
    with pytest.raises(ValueError):
        harmonic_extension_and_conjugate(np.zeros(16), 1.0)


def test_completion_is_holomorphic():
    # u + iv at radius r must have no negative-frequency content
    rng = np.random.default_rng(4)
    n = 128
    g = rng.standard_normal(n)
    r = 0.9
    u, v = harmonic_extension_and_conjugate(g, r)
    h = np.fft.fft(u + 1j * v) / n
    neg = h[n // 2 + 1:]
    assert np.abs(neg).max() < 1e-10


def test_completion_coeffs_match_extension():
    rng = np.random.default_rng(6)
    n = 256
    g = rng.standard_normal(n)
    r = 0.8
    u, v = harmonic_extension_and_conjugate(g, r)
    coeffs = holomorphic_completion_coeffs(g, r)
    grid = BoundaryGrid(n)
    import discenv.kernels as kernels

    h = kernels.eval_poly(coeffs[:, None], grid.nodes)[:, 0]
    assert np.allclose(h.real, u, atol=1e-10)
    assert np.allclose(h.imag, v, atol=1e-10)


def test_composite_disc_center_and_values():
    base = disc_1t()
    comp = CompositeDisc(base, np.array([0.5 + 0.0j, 0.1j]))
    t = 0.3 + 0.1j
    ref = base(t) / np.exp(0.5 + 0.1j * t)
    assert np.allclose(comp(t), ref)
    assert np.allclose(comp.center, base.center / math.exp(0.5))


def test_disc_values_match_eval_disc_bitwise():
    plain = random_disc(np.random.default_rng(4), 3, 5)
    comp = CompositeDisc(plain, np.array([0.3 - 0.1j, 0.2j, -0.05]))
    nodes = BoundaryGrid(256).nodes
    t = np.concatenate([nodes, 0.7 * nodes[:64], [0.0]])
    for disc in (plain, comp):
        assert disc_values(disc, t).tobytes() == eval_disc(disc, t).tobytes()
    # the composite's values are the base's divided by exp(g)
    want = kernels.eval_poly(plain.coeffs, t) / \
        np.exp(comp.exponent_values(t))[:, None]
    assert disc_values(comp, t).tobytes() == want.tobytes()


def _rel_diff(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_grid_values_match_horner(m):
    rng = np.random.default_rng(40 + m)
    for n in (16, 256, 1024):
        grid = BoundaryGrid(n)
        for degree in range(9):
            c = rng.standard_normal((degree + 1, m)) + \
                1j * rng.standard_normal((degree + 1, m))
            plain = AnalyticDiscLift(c)
            want = kernels.eval_poly(c, grid.nodes)
            assert grid_values(plain, grid).shape == (n, m)
            assert _rel_diff(grid_values(plain, grid), want) <= 1e-13
            # an exponent longer than the grid folds modulo n
            for terms in (1, 3, 40):
                e = 0.1 * (rng.standard_normal(terms) +
                           1j * rng.standard_normal(terms))
                comp = CompositeDisc(plain, e)
                assert _rel_diff(comp.exponent_on_grid(grid),
                                 comp.exponent_values(grid.nodes)) <= 1e-13
                assert _rel_diff(grid_values(comp, grid),
                                 disc_values(comp, grid.nodes)) <= 1e-13


def test_grid_powers_cached_bitwise():
    for n in (4, 256, 1000):
        # BoundaryGrid's nodes and powers, as built before the cache
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.exp(1j * theta)
        a, b = BoundaryGrid(n), BoundaryGrid(n)
        assert a.nodes.tobytes() == nodes.tobytes() and a.nodes is b.nodes
        for degree in range(12):
            got = a.powers(degree)
            want = nodes[:, None] ** np.arange(degree + 1)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert np.shares_memory(got, b.powers(degree))


@pytest.mark.parametrize("radii,n", [(_validation_radii, 64), (_area_radii, 33)],
                         ids=["validation", "area"])
def test_radial_powers_cached_bitwise(radii, n):
    # the radial tables of the polar node sets, as their callers built
    # them before the cache: r[:, None] ** k
    r = radii(n)
    for degree in range(12):
        got = power_table(radii, n, degree)
        assert got.tobytes() == (r[:, None] ** np.arange(degree + 1)).tobytes()
        assert not got.flags.writeable
        assert np.shares_memory(got, power_table(radii, n, degree))


def test_boundary_lognorms_composite_matches_values():
    plain = random_disc(np.random.default_rng(5), 3, 6)
    comp = CompositeDisc(plain, np.array([0.3 - 0.1j, 0.2j, -0.05]))
    grid = BoundaryGrid(512)
    want = np.log(np.linalg.norm(grid_values(comp, grid), axis=1))
    np.testing.assert_allclose(boundary_lognorms(comp, grid), want,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_r,n_theta", [(64, 64), (5, 12)])
def test_min_norm_on_grid_matches_horner(n_r, n_theta):
    rng = np.random.default_rng(12)
    t = validation_grid(n_r, n_theta)
    for degree in (0, 1, 6, 8):
        for m in (1, 3):
            c = rng.standard_normal((degree + 1, m)) + \
                1j * rng.standard_normal((degree + 1, m))
            disc = AnalyticDiscLift(c)
            want = float(np.linalg.norm(kernels.eval_poly(c, t), axis=1).min())
            assert disc.min_norm_on_grid(n_r, n_theta) == pytest.approx(
                want, rel=1e-13)


def test_composite_json_roundtrip():
    comp = CompositeDisc(disc_1t(), np.array([0.2 + 0.1j]))
    comp2 = CompositeDisc.from_json(comp.to_json())
    assert np.allclose(comp2.base.coeffs, comp.base.coeffs)
    assert np.allclose(comp2.exponent, comp.exponent)


def test_reparametrized_rotation_matches():
    rng = np.random.default_rng(9)
    d = random_disc(rng, 2, 4)
    rot = d.reparametrized(np.exp(0.4j))
    t = 0.5 - 0.2j
    assert np.allclose(rot(t), eval_disc(d, np.exp(0.4j) * t))


def test_area_quadrature_radial_rule_shared():
    # the radial rule is built once per n_r and shared, read-only
    a, b = AreaQuadrature(33, 70), AreaQuadrature(33, 140)
    assert a.radii is b.radii and not a.radii.flags.writeable
    assert not a.radial_weights.flags.writeable
    # the flat nodes, from the shared circle nodes
    theta = 2.0 * np.pi * np.arange(70) / 70
    want = (a.radii[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
    assert a.nodes.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_r,n_theta", [(64, 64), (5, 12)])
def test_validation_grid_cached_bitwise(n_r, n_theta):
    r = np.linspace(0.0, 1.0, n_r)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    want = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
    got = validation_grid(n_r, n_theta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert validation_grid(n_r, n_theta) is got

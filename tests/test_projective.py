"""Projective points, FS geometry, cone domains, weights, and lifts."""
import json
import math
import time

import numpy as np
import pytest

from discenv.projective import (_FORM_BLOCK, AffineBall, ConstantWeight,
                                Domain, FsBall,
                                HomPolynomial, HyperplaneComplement,
                                Intersection, LiftedWeight, LogPolyWeight,
                                ProjPoint, Tube, ZeroWeight, affine_lift,
                                chart, fs_distance, lelong_lift, lift,
                                project, psh_correspondence, Weight)
from discenv import projective
from discenv.errors import ConfigError, DomainError


def test_project_canonicalizes():
    p = project(np.array([2.0, 0.0, 0.0]))
    assert np.allclose(p.vec, [1.0, 0.0, 0.0])


def test_project_phase_normalization():
    p = project(np.array([0.0, 3.0j, 0.0]))
    assert np.allclose(p.vec, [0.0, 1.0, 0.0])


def test_scalar_invariance():
    z = np.array([1.0 + 2.0j, -0.3, 0.7j])
    assert np.allclose(project(z).vec, project(5.0j * z).vec)


def test_project_lift_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = project(z)
        assert np.allclose(project(lift(p)).vec, p.vec)
        assert np.linalg.norm(lift(p)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("m", [3, 4])
def test_point_json_roundtrip_is_bitwise(m):
    # 1000 random points of P^2 and P^3 read back from their JSON text to
    # the bit: canonicalizing the decoded vector again would move an ulp
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = project(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        q = ProjPoint.from_json(json.loads(json.dumps(p.to_json())))
        assert q.vec.tobytes() == p.vec.tobytes()
        assert not q.vec.flags.writeable


def test_point_from_json_canonicalizes_other_vectors():
    # a vector that is not canonical to rounding is canonicalized as
    # project does it
    for obj in ([[0, 2], [0, 0]], [[-1, 0], [0, 0]], [[0, 1], [1, 0]],
                [[0.6, 0], [0.8 + 1e-13, 0]]):
        p = ProjPoint.from_json(obj)
        assert p.vec.tobytes() == \
            project([complex(*c) for c in obj]).vec.tobytes()


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        project(np.zeros(3))


def test_fs_distance_basic():
    e0 = project(np.array([1.0, 0.0]))
    e1 = project(np.array([0.0, 1.0]))
    diag = project(np.array([1.0, 1.0]))
    assert fs_distance(e0, e0) == 0.0
    assert fs_distance(e0, e1) == pytest.approx(math.pi / 2, abs=1e-14)
    assert fs_distance(e0, diag) == pytest.approx(math.pi / 4, abs=1e-14)
    # <p, q> = (1 - i)/2 is complex
    assert fs_distance(project(np.array([1.0, 1.0j])), diag) == \
        pytest.approx(math.pi / 4, abs=1e-14)


def test_fs_distance_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (project(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                   for _ in range(3))
        assert fs_distance(a, c) <= fs_distance(a, b) + fs_distance(b, c) + 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_one_fs_distance(n):
    # pairs whose inner product is complex: fs_distance, an FS ball's and a
    # one-sample tube's clearance, pi/2 less the clearance of the hyperplane
    # normal to p and arccos|<p, q>| are one distance
    rng = np.random.default_rng([n, 0xF5])
    checked = 0
    while checked < 200:
        p, q = (project(rng.standard_normal(n + 1) +
                        1j * rng.standard_normal(n + 1)) for _ in range(2))
        ip = np.vdot(p.vec, q.vec)
        want = math.acos(min(1.0, abs(ip)))
        if not (0.05 <= want <= 1.5 and abs(ip.imag) > 1e-3):
            continue
        row = q.vec[None, :]
        got = [fs_distance(p, q), fs_distance(q, p),
               1.0 - FsBall(p, 1.0).clearance_many(row)[0],
               0.5 - Tube((p,), 0.5).clearance_many(row)[0],
               math.pi / 2 - HyperplaneComplement(p.vec).clearance_many(row)[0]]
        assert got == pytest.approx([want] * 5, rel=0, abs=1e-12)
        checked += 1


def test_lifted_weight_values():
    phi = LiftedWeight(ZeroWeight())
    assert phi.value(np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert phi.value(np.array([2.0, 0.0])) == pytest.approx(math.log(2.0))
    phic = LiftedWeight(ConstantWeight(1.5))
    z = np.array([0.3, 0.4j])
    assert phic.value(z) == pytest.approx(1.5 + math.log(0.5))


def test_lifted_weight_log_homogeneity():
    rng = np.random.default_rng(2)
    poly = HomPolynomial(((2, 0), (0, 2)), (1.0, -0.5j))
    phi = LiftedWeight(LogPolyWeight(poly))
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
        assert phi.value(lam * z) == pytest.approx(
            phi.value(z) + math.log(abs(lam)), abs=1e-12)


def test_psh_correspondence_roundtrip():
    def v(z_rows):
        return np.log(np.abs(z_rows[:, 0])) - np.log(
            np.linalg.norm(z_rows, axis=1))

    u, v_back = psh_correspondence(v)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.allclose(v_back(z), v(z), atol=1e-12)
    # v == 0 lifts to log norm
    u0, _ = psh_correspondence(lambda z_rows: np.zeros(z_rows.shape[0]))
    assert np.allclose(u0(z), np.log(np.linalg.norm(z, axis=1)))


def test_lelong_lift():
    u_tilde = lelong_lift(lambda w: np.zeros(np.atleast_2d(w).shape[0]))
    z = np.array([[2.0, 1.0], [1.0, 5.0]], dtype=complex)
    assert np.allclose(u_tilde(z), [math.log(2.0), 0.0])
    # restriction to z_0 = 1 recovers u; homogeneity on samples
    def u(w):
        w = np.atleast_2d(w)
        return np.linalg.norm(w, axis=1).real

    ut = lelong_lift(u)
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = 2.0 * np.exp(0.3j)
        assert ut(lam * z)[0] == pytest.approx(
            ut(z.reshape(1, -1))[0] + math.log(abs(lam)), abs=1e-12)
    # log-plus example: u = log^+ ||.||, z = (2, 2w) with |w| <= 1 -> log 2
    def logplus(w):
        w = np.atleast_2d(w)
        n = np.linalg.norm(w, axis=1)
        return np.where(n > 1, np.log(n), 0.0)

    lp = lelong_lift(logplus)
    assert lp(np.array([2.0, 2.0 * 0.5]))[0] == pytest.approx(math.log(2.0))
    # z_0 = 0 convention
    assert lelong_lift(u)(np.array([0.0, 1.0]))[0] == -np.inf


# ---------------------------------------------------------------------------
# domains


_C = ProjPoint(np.array([1.0, 0.0]))


def _domains():
    center = _C
    ball = FsBall(center, 0.5)
    tube = Tube((center, ProjPoint(np.array([1.0, 1.0]))), 0.3)
    hyp = HyperplaneComplement(np.array([0.0, 1.0]))
    aff = AffineBall(np.zeros(1, dtype=complex), 1.0)
    inter = Intersection((ball, hyp))
    return [ball, tube, hyp, aff, inter]


_DOMAIN_IDS = ["FsBall", "Tube", "HyperplaneComplement", "AffineBall",
               "Intersection"]


@pytest.mark.parametrize("dom", _domains() + [FsBall(_C, 2.0), Tube((_C,), 2.0)],
                         ids=_DOMAIN_IDS + ["FsBall-radius-2", "Tube-delta-2"])
def test_domain_excludes_zero_vector(dom):
    # the zero vector is no point of P^n, so no cone domain contains it
    zero = np.zeros(2, dtype=complex)
    assert not dom.contains(zero)
    assert dom.clearance(zero) <= 0


@pytest.mark.parametrize("dom", _domains() + [
    AffineBall(np.array([0.4 - 0.3j]), 0.8)],
    ids=_DOMAIN_IDS + ["AffineBall-off-centre"])
def test_clearance_reads_squares(dom):
    # the search's coordinate-major rows with their squared moduli: sq
    # changes no bit of any domain's clearance
    rng = np.random.default_rng(9)
    z = rng.standard_normal((2, 2500)) + 1j * rng.standard_normal((2, 2500))
    z[:, 7] = 0.0
    z[0, 8] = 0.0
    sq = z.real ** 2 + z.imag ** 2
    got = dom.clearance_many(z.T, sq)
    assert got.tobytes() == dom.clearance_many(z.T).tobytes()
    assert got[7] == -math.pi / 2


def test_domain_scalar_invariance():
    rng = np.random.default_rng(5)
    for dom in _domains():
        for _ in range(20):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lam = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
            assert dom.contains(z) == dom.contains(lam * z)


def test_domain_dist_lb_conservative():
    # dist_lb(w) must lower-bound the distance to sampled complement
    # points, and is 0.0 at a point outside the domain
    rng = np.random.default_rng(6)
    outside = {}
    for dom in _domains():
        for _ in range(30):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if not dom.contains(w):
                assert dom.dist_lb(w) == 0.0, type(dom).__name__
                outside[type(dom).__name__] = True
                continue
            lb = dom.dist_lb(w)
            probes = w[None, :] + (lb * 0.999) * _unit_rows(rng, 40, 2)
            inside = dom.clearance_many(probes) > 0
            assert np.all(inside), type(dom).__name__
    # every domain but the hyperplane complement (outside only on the
    # hyperplane itself) met a random point outside
    assert sorted(outside) == ["AffineBall", "FsBall", "Intersection", "Tube"]
    # off the chart z_0 != 0 the affine ball's complement is at distance 0
    assert _domains()[3].dist_lb(np.array([0.0, 1.0])) == 0.0


def _unit_rows(rng, n, m):
    z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return z / np.linalg.norm(z, axis=1)[:, None]


def test_domain_sample_points_inside():
    rng = np.random.default_rng(7)
    for dom in _domains():
        pts = dom.sample_points(rng, 32)
        assert pts.shape == (32, 2)
        assert np.all(dom.clearance_many(pts) > 0)


def test_domain_json_roundtrip():
    for dom in _domains():
        dom2 = Domain.from_json(dom.to_json())
        rng = np.random.default_rng(8)
        z = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        assert np.allclose(dom.clearance_many(z), dom2.clearance_many(z))


def test_hyperplane_clearance_angle():
    hyp = HyperplaneComplement(np.array([0.0, 1.0]))
    # point (1, 0): on the hyperplane z_1 = 0? no -- normal is e_1, so
    # <z, a> = z_1; z = (1, 1) has angle arcsin(1/sqrt(2)) = pi/4
    assert hyp.clearance(np.array([1.0, 1.0])) == pytest.approx(math.pi / 4)
    assert hyp.clearance(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_hyperplane_clearance_next_to_the_hyperplane():
    # a normal whose products read cross terms: points on the hyperplane
    # (to rounding) clear it by rounding at most, points 1e-11 off it by
    # their distance to relative rounding, and dist_lb is |<n, w>|
    rng = np.random.default_rng(44)
    hyp = HyperplaneComplement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    n = hyp.normal
    on = _unit_rows(rng, 2000, 3)
    on = on - (on @ n.conj())[:, None] * n
    on /= np.linalg.norm(on, axis=1)[:, None]
    assert np.all(hyp.clearance_many(on) <= 1e-15)
    off = on + 1e-11 * np.exp(2j * np.pi * rng.uniform(size=(2000, 1))) * n
    np.testing.assert_allclose(hyp.clearance_many(off),
                               1e-11 / np.linalg.norm(off, axis=1), rtol=1e-4)
    for w in off[:200]:
        assert hyp.dist_lb(w) <= abs(np.vdot(n, w))


def test_small_balls_hold_their_centres():
    # an FS ball and an affine ball of radius 1e-9 hold their centre and
    # a point at half the radius from it, not one at twice the radius
    rng = np.random.default_rng(45)
    for _ in range(200):
        p = ProjPoint(_unit_rows(rng, 1, 3)[0])
        v = _unit_rows(rng, 1, 3)[0]
        v -= np.vdot(p.vec, v) * p.vec
        v /= np.linalg.norm(v)  # FS distance t from p: cos t p + sin t v
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = _unit_rows(rng, 1, 2)[0]
        for ball, at in ((FsBall(p, 1e-9), lambda t: math.cos(t) * p.vec + math.sin(t) * v),
                         (AffineBall(c, 1e-9), lambda t: affine_lift(c + t * d))):
            lam = 0.3 + 2j
            assert ball.contains(lam * at(0.0))
            assert ball.contains(lam * at(0.5e-9))
            assert not ball.contains(lam * at(2e-9))


def test_affine_ball_membership():
    aff = AffineBall(np.zeros(1, dtype=complex), 1.0)
    assert aff.contains(affine_lift(np.array([0.5 + 0j])))
    assert not aff.contains(affine_lift(np.array([2.0 + 0j])))
    assert not aff.contains(np.array([0.0, 1.0]))  # hyperplane at infinity


def _affine_ball_reference(ball, z):
    """R - |z_*/z_0 - c| one row at a time."""
    return np.array([ball.radius - np.linalg.norm(row[1:] / row[0] - ball.center)
                     for row in z])


@pytest.mark.parametrize("n", [1, 2])
def test_affine_ball_clearance_matches_row_reference(n):
    rng = np.random.default_rng(40 + n)
    shift = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for centre in (shift, np.zeros(n, dtype=complex)):
        ball = AffineBall(centre, 1.7)
        # more rows than one block of the products
        far = _FORM_BLOCK + 100
        z = 2.0 * cplx(far, n + 1)
        # rows 1e-6 inside and outside the sphere, in random projective scale
        dirs = cplx(40, n)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        rel = np.where(np.arange(40) % 2 == 0, 1.0 - 1e-6, 1.0 + 1e-6)
        u = ball.center + ball.radius * rel[:, None] * dirs
        near = np.concatenate([np.ones((40, 1)), u], axis=1) * cplx(40, 1)
        rows = np.concatenate([z, near])
        got = ball.clearance_many(rows)
        ref = _affine_ball_reference(ball, rows)
        # the distances to the centre agree to rounding
        np.testing.assert_allclose(ball.radius - got, ball.radius - ref,
                                   rtol=1e-13, atol=0)
        assert np.all(np.sign(got[far:]) == np.where(rel < 1, 1.0, -1.0))
        # given squared moduli, the search's coordinate-major rows, and rows
        # 1000-1100, which straddle a block edge of this call, give the
        # same bits
        zc = np.ascontiguousarray(rows.T)
        sq = zc.real ** 2 + zc.imag ** 2
        assert ball.clearance_many(rows, sq).tobytes() == got.tobytes()
        assert ball.clearance_many(zc.T, sq).tobytes() == got.tobytes()
        part = slice(1000, 1100)
        assert ball.clearance_many(rows[part]).tobytes() == got[part].tobytes()
        assert ball.clearance_many(rows[part], sq[:, part]).tobytes() == \
            got[part].tobytes()
        # a point and its scaled copies are one point of P^n
        assert ball.clearance_many(rows * 4.0).tobytes() == got.tobytes()
        assert ball.clearance_many(rows * 2.0 ** -40).tobytes() == got.tobytes()
        np.testing.assert_allclose(ball.clearance_many(rows * (3e5 - 7e4j)),
                                   got, rtol=1e-13, atol=1e-13)
        # z_0 = 0, and the zero row
        off = np.zeros((2, n + 1), dtype=complex)
        off[0, 1:] = cplx(n)
        assert ball.clearance_many(off).tolist() == [-math.pi / 2, -math.pi / 2]


def test_chart_roundtrip():
    u = np.array([0.3 - 0.1j, 2.0j])
    assert np.allclose(chart(affine_lift(u)), u)


def test_weight_json_roundtrip():
    from discenv.projective import Weight

    for w in (ZeroWeight(), ConstantWeight(2.0),
              LogPolyWeight(HomPolynomial(((1, 1),), (2.0,)))):
        w2 = Weight.from_json(w.to_json())
        z = np.array([[1.0, 0.5j], [0.2, 1.0]], dtype=complex)
        assert np.allclose(w.value_proj_many(z), w2.value_proj_many(z))


def test_zero_weight_is_the_constant_weight_0():
    w = ZeroWeight()
    assert isinstance(w, ConstantWeight) and w.value == 0.0
    assert w.to_json() == {"type": "zero"} and Weight.from_json(w.to_json()) == w
    with pytest.raises(TypeError):
        ZeroWeight(0.3)
    # the two write different JSON, so they are not equal
    assert w != ConstantWeight(0.0)
    z = np.array([[1.0, 0.5j], [0.2, 1.0], [0.0, 1.0]], dtype=complex)
    assert w.value_proj_many(z).tobytes() == np.zeros(3).tobytes()
    assert w.value_affine_many(z[:, 1:]).tobytes() == np.zeros(3).tobytes()


def test_log_poly_weight_value():
    # P(z) = z_0 z_1, degree 2: phi = 0.5 log|z_0 z_1| - log ||z||
    w = LogPolyWeight(HomPolynomial(((1, 1),), (1.0,)))
    z = np.array([[1.0, 1.0]], dtype=complex)
    assert w.value_proj_many(z)[0] == pytest.approx(-0.5 * math.log(2.0))


def _circle_samples(rng):
    # the 64-point circle {[1 : e^{it}]} of the hull benchmark
    return tuple(project(np.array([1.0, np.exp(2j * np.pi * k / 64)]))
                 for k in range(64))


def _cloud_samples(rng):
    return tuple(project(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                 for _ in range(40))


@pytest.mark.parametrize("make_samples,delta",
                         [(_circle_samples, 0.05), (_cloud_samples, 0.2)],
                         ids=["circle-m2", "cloud-m3"])
def test_tube_clearance_blocks_match_pairwise_reference(make_samples, delta):
    # more rows than two blocks of the products: rows near samples, a zero
    # row, and a band of rows at FS distance delta +- 1e-3 from a sample
    rng = np.random.default_rng(12)
    tube = Tube(make_samples(rng), delta)
    mat = np.stack([p.vec for p in tube.samples])
    k, m = mat.shape
    z = rng.standard_normal((2500, m)) + 1j * rng.standard_normal((2500, m))
    near = mat[rng.integers(0, k, 500)]
    z[:500] = 3.0 * near + 0.05 * z[:500]
    z[1500] = 0.0
    s = mat[rng.integers(0, k, 500)]
    u = rng.standard_normal((500, m)) + 1j * rng.standard_normal((500, m))
    u -= np.sum(s.conj() * u, axis=1)[:, None] * s
    u /= np.linalg.norm(u, axis=1)[:, None]
    d = delta + rng.uniform(-1e-3, 1e-3, 500)
    scale = rng.uniform(0.5, 2.0, 500) * np.exp(2j * np.pi * rng.uniform(size=500))
    band = scale[:, None] * (np.cos(d)[:, None] * s + np.sin(d)[:, None] * u)
    z = np.concatenate([z, band])
    clear = tube.clearance_many(z)
    ref = np.empty(len(z))
    for i, row in enumerate(z):
        nrm = np.linalg.norm(row)
        # the zero row is in no domain
        ref[i] = tube.delta - min(
            math.acos(min(abs(np.vdot(p.vec, row)) / nrm, 1.0))
            for p in tube.samples) if nrm else -math.pi / 2
    assert clear[1500] == -math.pi / 2
    assert np.any(clear > 0) and np.any(clear < 0)
    # the band's nearest sample is at most delta + 1e-3 away
    assert np.all(clear[2500:] >= -1e-3 - 1e-12) and np.any(clear[2500:] < 0)
    np.testing.assert_allclose(clear, ref, rtol=0, atol=1e-12)


def _form_clearance(tube, z):
    """Tube.clearance_many with a fresh product weights @ features per
    block (the rows are nonzero)."""
    m = z.shape[1]
    cos2 = np.empty(len(z))
    for i in range(0, len(z), _FORM_BLOCK):
        feats = tube._features(z[i:i + _FORM_BLOCK], None)
        cos2[i:i + _FORM_BLOCK] = ((tube._weights @ feats).max(axis=0) /
                                   feats[:m].sum(axis=0))
    return tube.delta - np.arccos(np.sqrt(np.clip(cos2, 0.0, 1.0)))


def test_tube_clearance_bitwise_across_interleaved_calls():
    # 2500 rows end in a partial block; interleaved calls on two tubes of
    # different sizes must not see each other's products
    rng = np.random.default_rng(21)
    circle = Tube(_circle_samples(rng), 0.05)
    cloud = Tube(_cloud_samples(rng), 0.2)
    results = []
    for rows in (5120, 1024, 2500):
        for tube in (circle, cloud):
            m = tube._mat.shape[1]
            z = rng.standard_normal((m, rows)) + 1j * rng.standard_normal((m, rows))
            # the coordinate-major rows of the search, and a C-ordered copy
            for rows_view in (z.T, np.ascontiguousarray(z.T)):
                got = tube.clearance_many(rows_view)
                assert got.tobytes() == _form_clearance(tube, rows_view).tobytes()
                results.append((tube, rows_view, got, got.copy()))
    for tube, z, got, kept in results:
        assert got.tobytes() == kept.tobytes()
        assert tube.clearance_many(z).tobytes() == kept.tobytes()


def test_tube_clearance_rows_independent_of_the_call():
    # features are built once per call and the products run in blocks, so
    # rows 1000-1100 straddle a block edge of the 5120-row call and none of
    # their own call; with sq the features read the given squares
    rng = np.random.default_rng(22)
    tube = Tube(_circle_samples(rng), 0.05)
    zc = rng.standard_normal((2, 5120)) + 1j * rng.standard_normal((2, 5120))
    z, sq = zc.T, zc.real ** 2 + zc.imag ** 2
    part = slice(1000, 1100)
    full = tube.clearance_many(z)
    assert tube.clearance_many(z[part]).tobytes() == full[part].tobytes()
    full_sq = tube.clearance_many(z, sq)
    assert tube.clearance_many(z[part], sq[:, part]).tobytes() == \
        full_sq[part].tobytes()
    empty = tube.clearance_many(np.empty((0, 2), dtype=complex))
    assert empty.shape == (0,)


# unit roundoff of single precision, in which the search's rows come
U32 = 2.0 ** -24


def _atan2_distances(z, p):
    """FS distance from each row of z to the unit vector p, in the atan2
    form: atan2(|z - <z, p> p|, |<z, p>|)."""
    ip = z @ p.conj()
    return np.arctan2(np.linalg.norm(z - ip[:, None] * p, axis=1), np.abs(ip))


def _cone_rows(rng, unit_rows):
    """The rows times random moduli in [0.5, 2] and random phases."""
    k = len(unit_rows)
    scale = rng.uniform(0.5, 2.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    return scale[:, None] * unit_rows


def _unit_perps(rng, p, k):
    """k random unit vectors orthogonal to the unit vector p."""
    v = rng.standard_normal((k, p.size)) + 1j * rng.standard_normal((k, p.size))
    v -= (v @ p.conj())[:, None] * p
    return v / np.linalg.norm(v, axis=1)[:, None]


def _band(rng, k, width=1e-3):
    return rng.uniform(-width, width, k)


def _near_boundary(name, rng, k):
    """(domain, k rows within 1e-3 of its boundary, the pairwise reference
    clearance of rows, the distance map's condition number per row).

    The Tube's distance is arccos sqrt s, whose error is that of s over
    sin 2d; the FS ball and the hyperplane read their distances in double
    from the rows (atan2, and arcsin of a ratio whose norm is float32, an
    error of about tan d), so only the rows' own rounding counts; an
    affine ball's chart point w = z_*/z_0 is off by about |w| + |c| <= 2|c|
    + R times the rows' relative error, in affine units."""
    if name == "tube":
        # the 64-point circle [cos pi/4 : sin pi/4 e^{it}]: a row on a
        # sample's meridian, at FS distance delta +- 1e-3 on either side
        delta, t = 0.1, 2 * np.pi * rng.integers(0, 64, k) / 64
        a = math.pi / 4 + rng.choice([-1.0, 1.0], k) * (delta + _band(rng, k))
        tube = Tube(tuple(project(np.array([1.0, np.exp(2j * np.pi * j / 64)]))
                          for j in range(64)), delta)
        samples = np.stack([p.vec for p in tube.samples])

        def ref(z):
            return delta - np.min([_atan2_distances(z, p) for p in samples], axis=0)
        rows = np.stack([np.cos(a), np.sin(a) * np.exp(1j * t)], axis=1)
        return tube, _cone_rows(rng, rows), ref, \
            lambda z: 1.0 / np.sin(2.0 * (delta - ref(z)))
    if name.startswith("affine"):
        n = int(name[-1])
        c = np.array([0.3 - 0.2j, -0.1j])[:n]
        radius = 0.8
        v = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        v /= np.linalg.norm(v, axis=1)[:, None]
        u = c + (radius + _band(rng, k))[:, None] * v
        rows = np.concatenate([np.ones((k, 1)), u], axis=1)
        ball = AffineBall(c, radius)
        cond = 2 * np.linalg.norm(c) + radius
        return ball, _cone_rows(rng, rows), \
            lambda z: radius - np.linalg.norm(z[:, 1:] / z[:, :1] - c, axis=1), \
            lambda z: np.full(len(z), cond)
    # the hyperplane passes 0.2 from the ball's centre p, through the ball
    p = project(np.array([1.0, 0.4 + 0.3j, -0.2j])).vec
    a = math.sin(0.2) * p + math.cos(0.2) * _unit_perps(rng, p, 1)[0]
    ball, hyp = FsBall(ProjPoint(p), 0.5), HyperplaneComplement(a)

    def ball_rows(k):
        r = ball.radius + _band(rng, k)
        return np.cos(r)[:, None] * p + np.sin(r)[:, None] * _unit_perps(rng, p, k)

    def hyp_rows(k):
        # about the hyperplane's point nearest p, within 0.2 of it
        near = p - np.vdot(a, p) * a
        w = near / np.linalg.norm(near) + 0.2 * _unit_perps(rng, a, k)
        w /= np.linalg.norm(w, axis=1)[:, None]
        r = rng.uniform(0.0, 1e-3, k)
        return np.sin(r)[:, None] * a + np.cos(r)[:, None] * w

    def ball_ref(z):
        return ball.radius - _atan2_distances(z, p)

    def hyp_ref(z):
        return math.pi / 2 - _atan2_distances(z, a)

    def unit_cond(z):
        return np.ones(len(z))
    if name == "fs_ball":
        return ball, _cone_rows(rng, ball_rows(k)), ball_ref, unit_cond
    if name == "hyperplane":
        return hyp, _cone_rows(rng, hyp_rows(k)), hyp_ref, unit_cond
    rows = np.concatenate([ball_rows(k // 2), hyp_rows(k - k // 2)])
    return Intersection((ball, hyp)), _cone_rows(rng, rows), \
        lambda z: np.minimum(ball_ref(z), hyp_ref(z)), unit_cond


@pytest.mark.parametrize("name", ["tube", "affine-C1", "affine-C2", "fs_ball",
                                  "hyperplane", "intersection"])
def test_clearance_of_single_precision_rows(name):
    # the search hands clearance_many complex64 rows (20 restarts x 256
    # nodes); each row's clearance may then move by 64 u times the distance
    # map's condition number, which near these boundaries stays below
    # 2e-5, far inside the search's penalty band of eta = 1e-3
    rng = np.random.default_rng(31)
    dom, z, ref, cond = _near_boundary(name, rng, 5120)
    want = ref(z)
    assert np.abs(want).max() <= 1e-3 + 1e-12
    double = dom.clearance_many(z)
    np.testing.assert_allclose(double, want, rtol=0, atol=1e-13)
    single = dom.clearance_many(z.astype(np.complex64))
    # the form domains work in the rows' precision, the others promote
    form = isinstance(dom, (Tube, AffineBall))
    assert single.dtype == (np.float32 if form else np.float64)
    bound = 64 * U32 * cond(z)
    assert bound.max() <= 2e-5
    assert np.all(np.abs(single - double) <= bound)


def test_affine_log_poly_weight_takes_mixed_degrees():
    # log|u - 1|: terms of degree 1 and 0
    w = Weight.from_json({"type": "affine_log_poly", "terms": [
        {"exponents": [1], "coeff": [1.0, 0.0]},
        {"exponents": [0], "coeff": [-1.0, 0.0]}]})
    u = np.array([[3.0], [1.0 + 2j]], dtype=complex)
    assert np.allclose(w.value_affine_many(u), [math.log(2.0), math.log(2.0)],
                       atol=1e-15)


def test_log_poly_weight_rejects_mixed_degrees():
    with pytest.raises(ConfigError, match="one total degree"):
        Weight.from_json({"type": "log_poly", "terms": [
            {"exponents": [1, 0], "coeff": [1.0, 0.0]},
            {"exponents": [0, 0], "coeff": [-1.0, 0.0]}]})


@pytest.mark.parametrize("kind, exponents", [("log_poly", [0, 0]),
                                              ("affine_log_poly", [0])],
                         ids=["log_poly", "affine_log_poly"])
def test_log_poly_weight_rejects_degree_0(kind, exponents):
    # (1/d) log|P| of a constant P would divide by d = 0
    with pytest.raises(ConfigError, match="total degree at least 1"):
        Weight.from_json({"type": kind, "terms": [
            {"exponents": exponents, "coeff": [2.0, 0.0]}]})


@pytest.mark.parametrize("kind, terms", [
    ("log_poly", [([1, 0], [0.0, 0.0])]),
    ("log_poly", [([1, 0], [0.0, 0.0]), ([0, 1], [0.0, -0.0])]),
    ("log_poly", [([1, 0], [1.5, 0.5]), ([1, 0], [-1.5, -0.5])]),
    ("affine_log_poly", [([1], [0.0, 0.0])]),
    ("affine_log_poly", [([1], [0.0, 0.0]), ([0], [0.0, 0.0])]),
], ids=["log_poly", "log_poly-two-terms", "log_poly-cancelling",
        "affine_log_poly", "affine_log_poly-two-terms"])
def test_log_poly_weight_rejects_the_zero_polynomial(kind, terms):
    # log|0| is -inf everywhere: the envelope read upper -inf with a finite
    # lower bound and inconsistent_bounds
    with pytest.raises(ConfigError, match="nonzero polynomial"):
        Weight.from_json({"type": kind, "terms": [
            {"exponents": e, "coeff": c} for e, c in terms]})
    # one nonzero coefficient is enough
    Weight.from_json({"type": kind, "terms": [
        {"exponents": terms[0][0], "coeff": [1.0, 0.0]}]})


def test_polynomial_rejects_mixed_exponent_lengths():
    with pytest.raises(ConfigError, match="share one length"):
        Weight.from_json({"type": "affine_log_poly", "terms": [
            {"exponents": [1], "coeff": [1.0, 0.0]},
            {"exponents": [0, 1], "coeff": [1.0, 0.0]}]})


@pytest.mark.parametrize("width", [1, 3])
def test_polynomial_rejects_points_of_other_width(width):
    poly = HomPolynomial(((1, 1),), (1.0,))
    with pytest.raises(ConfigError, match="2 variables at points of C\\^"):
        poly.eval_many(np.ones((4, width), dtype=complex))
    assert poly.eval_many(np.full((4, 2), 2.0 + 0j)).tolist() == [4.0] * 4


_C_JSON = [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("make, obj", [
    (lambda: FsBall(_C, 0.0),
     {"type": "fs_ball", "center": _C_JSON, "radius": 0.0}),
    (lambda: FsBall(_C, -0.2),
     {"type": "fs_ball", "center": _C_JSON, "radius": -0.2}),
    (lambda: FsBall(_C, math.inf),
     {"type": "fs_ball", "center": _C_JSON, "radius": math.inf}),
    (lambda: FsBall(_C, math.nan),
     {"type": "fs_ball", "center": _C_JSON, "radius": math.nan}),
    (lambda: HyperplaneComplement(np.zeros(2)),
     {"type": "hyperplane_complement", "normal": [[0.0, 0.0], [0.0, 0.0]]}),
    (lambda: HyperplaneComplement(np.array([math.nan, 1.0])),
     {"type": "hyperplane_complement", "normal": [[math.nan, 0.0], [1.0, 0.0]]}),
    (lambda: Intersection(()),
     {"type": "intersection", "members": []}),
    (lambda: AffineBall(np.zeros(1), 0.0),
     {"type": "affine_ball", "center": [[0.0, 0.0]], "radius": 0.0}),
    (lambda: AffineBall(np.zeros(1), -1.0),
     {"type": "affine_ball", "center": [[0.0, 0.0]], "radius": -1.0}),
    (lambda: AffineBall(np.zeros(1), math.inf),
     {"type": "affine_ball", "center": [[0.0, 0.0]], "radius": math.inf}),
    (lambda: AffineBall(np.zeros(1), math.nan),
     {"type": "affine_ball", "center": [[0.0, 0.0]], "radius": math.nan}),
    (lambda: AffineBall(np.zeros(0), 1.0),
     {"type": "affine_ball", "center": [], "radius": 1.0}),
    (lambda: Tube((_C,), 0.0),
     {"type": "tube", "samples": [_C_JSON], "delta": 0.0}),
    (lambda: Tube((_C,), -0.1),
     {"type": "tube", "samples": [_C_JSON], "delta": -0.1}),
    (lambda: Tube((_C,), math.inf),
     {"type": "tube", "samples": [_C_JSON], "delta": math.inf}),
    (lambda: Tube((_C,), math.nan),
     {"type": "tube", "samples": [_C_JSON], "delta": math.nan}),
    (lambda: Tube((_C,), 1e-9),
     {"type": "tube", "samples": [_C_JSON], "delta": 1e-9}),
], ids=["fs-radius-zero", "fs-radius-negative", "fs-radius-inf",
        "fs-radius-nan", "zero-normal", "nan-normal", "empty-intersection",
        "affine-radius-zero", "affine-radius-negative", "affine-radius-inf",
        "affine-radius-nan", "affine-ball-C0", "tube-delta-zero",
        "tube-delta-negative", "tube-delta-inf", "tube-delta-nan",
        "tube-delta-tiny"])
def test_degenerate_domain_rejected(make, obj):
    with pytest.raises(ConfigError):
        make()
    with pytest.raises(ConfigError):
        Domain.from_json(obj)


def test_thinnest_tube_holds_its_samples():
    # at 1e-9 the arccos sqrt(s) route missed 77 of these 200 anchors, and
    # 180 of 800 sample points of a 4-anchor tube cleared by <= 0
    delta = 1e-7  # the thinnest tube allowed
    rng = np.random.default_rng(0)
    anchors = [ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
               for _ in range(200)]
    assert all(Tube((p,), delta).contains(p.vec) for p in anchors)
    tube = Tube(tuple(anchors[:4]), delta)
    pts = tube.sample_points(np.random.default_rng(1), 800)
    assert tube.clearance_many(pts).min() > 0


@pytest.mark.parametrize("dom", [
    FsBall(ProjPoint(np.array([1.0, 0.3])), 1e-9),
    Intersection((FsBall(_C, 0.1), FsBall(ProjPoint(np.array([0.0, 1.0])), 0.1))),
], ids=["tiny-fs-ball", "disjoint-intersection"])
def test_unsampleable_domain_raises(dom):
    # the sampler gives up after a fixed number of rounds of draws
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        dom.sample_points(np.random.default_rng(0), 8)
    assert time.perf_counter() - t0 < 10.0


def test_intersection_draws_within_one_cap(monkeypatch):
    # the members' draws share the intersection's one cap on rounds: no
    # member runs a rejection loop of its own inside it
    draws = []
    draw = FsBall._draw

    def counted(self, rng, count):
        draws.append(count)
        return draw(self, rng, count)

    monkeypatch.setattr(FsBall, "_draw", counted)
    dom = Intersection((FsBall(_C, 0.1), FsBall(ProjPoint(np.array([0.0, 1.0])), 0.1)))
    with pytest.raises(DomainError):
        dom.sample_points(np.random.default_rng(0), 512)
    assert 0 < len(draws) <= projective._SAMPLE_ROUNDS


def test_small_fs_ball_is_sampled():
    ball = FsBall(ProjPoint(np.array([1.0, 0.3])), 1e-3)
    pts = ball.sample_points(np.random.default_rng(0), 512)
    assert pts.shape == (512, 2)
    assert np.all(ball.clearance_many(pts) > 0)


def test_affine_ball_samples_follow_the_draws():
    # one draw per row, none rejected: the direction u, then the radius
    ball = AffineBall(np.array([0.2, -0.1j]), 0.7)
    pts = ball.sample_points(np.random.default_rng(3), 64)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    r = 0.7 * rng.uniform(0, 1, 64) ** 0.25
    for row, d, s in zip(pts, u, r):
        v = affine_lift(ball.center + s * d / np.linalg.norm(d))
        assert np.allclose(row, v / np.linalg.norm(v), rtol=0, atol=1e-15)
    assert np.all(ball.clearance_many(pts) > 0)

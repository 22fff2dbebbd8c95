"""Timings of the three hot kernels (polynomial evaluation, log-norm,
Fubini-Study pullback density), of Tube.clearance_many at the
sizes of a hull_test on the 64-point circle (one lock-step objective call
over 20 restarts x 256 search nodes, and one 1024-node final grid) on
complex128 rows and on the complex64 rows the search gives it, with
the minor page faults per call, checked against a pairwise atan2
FS-distance reference, and single against double to 64 u / sin 2d at
FS distance d (u = 2^-24), and timings of riesz_area_term on the default and
doubled area quadratures (degree 6, m = 3): its first call on a fresh
node set, which builds the cached cos/sin table, power tables and strip
constants, beside a later call that reads them, against the pointwise
kernels.fs_density route over the flat node list, with the share of the
nodes on which its certified angle counts evaluate the density, checked
to agree to 1e-13 in total and to 1e-14, relative, in each radius's
density sum; and the sz-mode search
path of a minimize on the unit ball: AffineBall.clearance_many at 5120
rows (20 restarts x 256 search nodes) in C and C^2, called as the
search calls it
(coordinate-major rows with their squared moduli sq), checked against a
per-row reference and byte for byte against the call without sq; and
one lock-step _objective call over 20 restarts x 256 nodes for each
search of perfbench's siciak and hull workloads (sz on the unit ball,
m = 2, 3, and omega on the 64-point circle Tube), which runs in single
precision; and the re-evaluation
of one sz witness on the unit ball in C and C^2: evaluate_witness on
the 1024-node final grid against an inline reference (Horner values,
and Jensen's formula from np.roots), checked to agree to 1e-13, and the interior term from the zeros of f_0
(sz_interior_roots, the witness route) beside the 65536-node
sz_interior_jensen (the independent route: f_0 at the nodes by one
inverse FFT; no perfbench workload calls it), checked to agree; and the
re-evaluation of one omega witness in the 0.05-tube about the 64-point
circle (hull_test's path), against Horner values and the pairwise
tube_reference, checked to agree to 1e-13; and one
(1+1)-ES _search at 20 restarts x 100 evaluations for sz on the unit ball
(m = 2, 3) and for omega on the 64-point circle Tube, with the minor page
faults per search, checked byte for byte against a serial
one-restart-at-a-time reference of the documented draw contract; and the
command line at perfbench's identity sizes: cli.build_parser and one
in-process cli.main(["identity-check", ...]) call, the first call of each
in the process against a later one; and the construction of a
CandidateLibrary at 512 samples, which samples its domain: the sz unit
balls of perfbench's siciak workload (C and C^2), and in omega mode FS
balls of radius 0.5 and 0.01, a hyperplane complement and an
intersection in P^1, each checked to sample inside its domain, and its
lower_bound at one exterior point of the domain (the library's cost per
siciak operation); and one
sz minimize on the unit ball in C at perfbench's settings (20 x 100,
256 search nodes, 1024 final nodes) under the zero weight at an interior
point, which returns the constant disc without a search, and at an
exterior one, which returns the structure disc of the eta-shrunk ball
without a search, and at that exterior point under log|u + 2|, which
runs the search, each checked for its witness and trace; and the origin
floor AnalyticDiscLift.min_norm_on_grid on the 64 x 64 validation grid
(m = 2, 3; degree 1 and 6) against the Horner minimum over
validation_grid(), checked to agree to 1e-13.

Run: python benchmarks/bench_kernels.py [--nodes 4096] [--degree 8] [--m 3]
"""
import argparse
import contextlib
import io
import math
import resource
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from discenv import cli, discs, kernels
from discenv.discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                           riesz_area_term, validation_grid)
from discenv.envelope import (_DRAW_BLOCK, CandidateLibrary, DiscFamilySpec,
                              OptimizerConfig, _clip_bound, _objective,
                              _search, build_objective_spec,
                              evaluate_witness, minimize)
from discenv.functionals import sz_interior_jensen, sz_interior_roots
from discenv.projective import (AffineBall, AffineLogPolyWeight, FsBall,
                                HomPolynomial, HyperplaneComplement,
                                Intersection, ProjPoint, Tube, ZeroWeight,
                                affine_lift)

# (rows, samples): the hull_test sizes on the 64-point circle in P^1
TUBE_SIZES = ((5120, 64), (1024, 64))
# (n_r, n_theta): identity-check's default and doubled area quadratures
AREA_SIZES = ((256, 512), (512, 1024))
# restarts x search nodes of one lock-step sz objective call
SZ_RESTARTS, SZ_NODES = 20, 256
# evaluations per restart of one timed search (the perfbench budget)
SEARCH_BUDGET = 100
# the caches of riesz_area_term's tables and constants, cleared before its
# first call on a node set
AREA_CACHES = (discs._circle_nodes, discs._power_table, discs._trig_table,
               discs._gram_map, discs._strip_constants)
# samples of a CandidateLibrary (perfbench's LIBRARY_SAMPLES)
LIBRARY_SAMPLES = 512
# perfbench's identity operation: one degree-6 disc (CLI seed 1000) on the
# default 1024-node boundary and 256 x 512 area grids
IDENTITY_ARGS = ("--count", "1", "--tolerance", "1e-8", "--seed", "1000",
                 "--nodes", "1024", "--radial", "256", "--angular", "512")


def bench(fn, args, repeats: int = 50) -> float:
    fn(*args)  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nodes", type=int, default=4096)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((args.degree + 1, args.m)) + \
        1j * rng.standard_normal((args.degree + 1, args.m))
    t = np.exp(2j * np.pi * rng.uniform(size=args.nodes)) * \
        rng.uniform(0.1, 1.0, args.nodes)

    # first, while the parser and the grids of the process are unbuilt
    bench_cli(min(args.repeats, 10))
    print(f"nodes={args.nodes} degree={args.degree} m={args.m} "
          f"(best of {args.repeats})")
    print(f"{'kernel':<12} {'time':>12}")
    for name in ("eval_poly", "lognorm", "fs_density"):
        tk = bench(getattr(kernels, name), (coeffs, t), args.repeats)
        print(f"{name:<12} {tk * 1e6:>10.1f}us")
    bench_tube(rng, args.repeats)
    bench_riesz(rng, min(args.repeats, 10))
    bench_sz(rng, args.repeats)
    bench_objective(rng, args.repeats)
    bench_witness(rng, min(args.repeats, 20))
    bench_search(rng, min(args.repeats, 10))
    bench_library(min(args.repeats, 20))
    bench_minimize(min(args.repeats, 5))
    bench_min_norm(rng, args.repeats)
    return 0


def tube_reference(z: np.ndarray, samples: np.ndarray, delta: float) -> np.ndarray:
    """delta minus the FS distance (atan2 form) from each row of z to the
    nearest unit row of samples, one pair at a time."""
    out = np.empty(len(z))
    for i, row in enumerate(z):
        ip = samples.conj() @ row
        perp = np.linalg.norm(row[None, :] - ip[:, None] * samples, axis=1)
        out[i] = delta - np.arctan2(perp, np.abs(ip)).min()
    return out


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def bench_tube(rng, repeats: int) -> None:
    print(f"{'Tube.clearance_many':<24} {'complex128':>12} {'complex64':>12} "
          f"{'minflt':>9}")
    for rows, k in TUBE_SIZES:
        th = 2.0 * np.pi * np.arange(k) / k
        tube = Tube(tuple(ProjPoint(np.array([1.0, np.exp(1j * t)])) for t in th),
                    0.05)
        z = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        z32 = z.astype(np.complex64)
        before = minor_faults()
        t = bench(tube.clearance_many, (z,), repeats)
        t32 = bench(tube.clearance_many, (z32,), repeats)
        faults = (minor_faults() - before) / (2 * repeats + 2)
        print(f"{f'{rows} x {k}, m=2':<24} {t * 1e6:>10.1f}us "
              f"{t32 * 1e6:>10.1f}us {faults:>9.1f}")
        double = tube.clearance_many(z)
        if rows == 1024:
            samples = np.stack([p.vec for p in tube.samples])
            assert np.allclose(double, tube_reference(z, samples, tube.delta),
                               rtol=0, atol=1e-12), "tube clearance"
        # arccos sqrt s passes the error of s on over sin 2d
        err = np.abs(tube.clearance_many(z32) - double)
        assert np.all(err <= 64 * 2.0 ** -24 / np.sin(2 * (tube.delta - double))), \
            "single-precision tube clearance"
    print("tube clearance agrees with the pairwise reference, and single "
          "with double precision")


def sums_and_counts(disc, quad):
    """The per-radius density sums of riesz_area_term on this disc and the
    angle counts it chose for them."""
    chosen, choose = [], discs._angle_counts

    def spy(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    with mock.patch.object(discs, "_angle_counts", spy):
        sums = discs._polar_density_sums(disc.coeffs, disc.delta_min, quad)
    return sums, chosen[0]


def bench_riesz(rng, repeats: int) -> None:
    coeffs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    coeffs[0] += 3.0  # keeps |f| away from 0 on the disc
    disc = AnalyticDiscLift(coeffs)

    def pointwise(quad):
        dens, _sq = kernels.fs_density(disc.coeffs, quad.nodes)
        return quad.integral(quad.log_r * dens) / (2.0 * np.pi)

    print(f"{'riesz_area_term, d=6 m=3':<24} {'first':>12} {'trig':>12} "
          f"{'pointwise':>12} {'speedup':>9} {'angles':>7}")
    for n_r, n_theta in AREA_SIZES:
        # a fresh node set: the quadrature's radial rule is built here, and
        # the first call builds the tables that later calls read
        for table in AREA_CACHES:
            table.cache_clear()
        quad = AreaQuadrature(n_r, n_theta)
        first = once(riesz_area_term, disc, quad)
        tt = bench(riesz_area_term, (disc, quad), repeats)
        tp = bench(pointwise, (quad,), repeats)
        sums, counts = sums_and_counts(disc, quad)
        print(f"{f'{n_r} x {n_theta}':<24} {first * 1e3:>10.2f}ms "
              f"{tt * 1e3:>10.2f}ms {tp * 1e3:>10.2f}ms {tp / tt:>8.2f}x "
              f"{counts.sum() / (n_r * n_theta):>6.1%}")
        diff = abs(riesz_area_term(disc, quad) - pointwise(quad))
        assert diff <= 1e-13, f"riesz_area_term differs by {diff:.2e}"
        dens, _sq = kernels.fs_density(disc.coeffs, quad.nodes)
        want = dens.reshape(n_r, n_theta).sum(axis=1)
        rel = float(np.max(np.abs(sums - want) / want))
        assert rel <= 1e-14, f"a radius's density sum differs by {rel:.2e}"
    print("riesz_area_term agrees with the pointwise route, in total and "
          "per radius")


def affine_ball_reference(ball: AffineBall, z: np.ndarray) -> np.ndarray:
    """R - |z_*/z_0 - c|, one row at a time."""
    return np.array([ball.radius - np.linalg.norm(row[1:] / row[0] - ball.center)
                     for row in z])


def bench_sz(rng, repeats: int) -> None:
    rows = SZ_RESTARTS * SZ_NODES
    print(f"{'sz search path':<24} {'time':>12}")
    for m in (2, 3):
        ball = AffineBall(np.zeros(m - 1, dtype=complex), 1.0)
        # the search's rows: a transposed view of (m, rows) values
        zc = rng.standard_normal((m, rows)) + 1j * rng.standard_normal((m, rows))
        z, sq = zc.T, zc.real ** 2 + zc.imag ** 2
        t = bench(ball.clearance_many, (z, sq), repeats)
        print(f"{f'AffineBall {rows}, m={m}':<24} {t * 1e6:>10.1f}us")
        got = ball.clearance_many(z, sq)
        assert np.allclose(got, affine_ball_reference(ball, z),
                           rtol=1e-13, atol=1e-13), "affine ball clearance"
        assert got.tobytes() == ball.clearance_many(z).tobytes(), "sq changes bits"
    print("affine ball clearance agrees with the per-row reference")


def circle_nodes(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def roots_jensen(disc) -> float:
    """The sz interior term by Jensen's formula from np.roots: -sum log|a|
    over the zeros a of f_0 inside the unit disc."""
    zeros = np.roots(disc.coeffs[::-1, 0])
    return float(-np.sum(np.log(np.abs(zeros[np.abs(zeros) < 1.0]))))


def roots_witness(disc, ball: AffineBall, eta: float, nodes: np.ndarray):
    """evaluate_witness('sz', ...) with the zero weight, by Horner and
    np.roots: the clearance on the grid nodes, the origin floor on
    validation_grid, and the interior term of roots_jensen."""
    pts = kernels.eval_poly(disc.coeffs, nodes)
    floor = np.linalg.norm(kernels.eval_poly(disc.coeffs, validation_grid()), axis=1)
    if not (ball.clearance_many(pts).min() > eta and floor.min() >= disc.delta_min):
        return np.inf, False
    return roots_jensen(disc), True


def tube_witness(disc, samples: np.ndarray, delta: float, eta: float,
                 nodes: np.ndarray):
    """evaluate_witness('omega', ...) with the zero weight, by Horner and
    tube_reference: the clearance on the grid nodes, the origin floor on
    validation_grid, and mean log|f| - log|f(0)| over the nodes."""
    pts = kernels.eval_poly(disc.coeffs, nodes)
    floor = np.linalg.norm(kernels.eval_poly(disc.coeffs, validation_grid()), axis=1)
    if not (tube_reference(pts, samples, delta).min() > eta and
            floor.min() >= disc.delta_min):
        return np.inf, False
    return float(np.log(np.linalg.norm(pts, axis=1)).mean() -
                 math.log(np.linalg.norm(disc.coeffs[0]))), True


def omega_witness(rng) -> AnalyticDiscLift:
    """A feasible degree-6 witness for the tube about the 64-point circle
    {[1 : e^{it}]}: the circle f = (1, t) about [1:0], whose boundary runs
    through the samples (value 1/2 log 2), plus small terms of degree 2 to 6."""
    c = np.zeros((7, 2), dtype=complex)
    c[0, 0] = c[1, 1] = 1.0
    c[2:] = 0.002 * (rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    return AnalyticDiscLift(c)


def sz_witness(rng, m: int) -> AnalyticDiscLift:
    """A feasible degree-6 witness for the unit ball in C^(m-1): f_0 =
    1 + t/2 and chart u_0 + 0.3 t e / f_0 with |u_0| < 0.4, |e| = 1,
    plus small terms of degree 2 to 6; centre (1, u_0) / |(1, u_0)|."""
    u0 = np.full(m - 1, 0.25 - 0.1j) / np.sqrt(m - 1)
    e = np.full(m - 1, 1.0) / np.sqrt(m - 1)
    c = np.zeros((7, m), dtype=complex)
    c[0] = np.concatenate([[1.0], u0])
    c[1] = np.concatenate([[0.5], 0.5 * u0 + 0.3 * e])
    c[2:] = 0.005 * (rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m)))
    return AnalyticDiscLift(c / np.linalg.norm(c[0]))


def bench_witness(rng, repeats: int) -> None:
    # the reference's nodes are built once, outside the timed calls
    grid = BoundaryGrid(1024)
    nodes = circle_nodes(grid.n)
    print(f"{'witness re-evaluation':<24} {'tables':>12} {'reference':>12} "
          f"{'speedup':>9}")
    for m in (2, 3):
        ball = AffineBall(np.zeros(m - 1, dtype=complex), 1.0)
        disc = sz_witness(rng, m)
        args = ("sz", disc, ball, ZeroWeight(), 1e-3, grid)
        ref_args = (disc, ball, 1e-3, nodes)
        got, want = evaluate_witness(*args), roots_witness(*ref_args)
        assert got[1] and want[1], "the witness is feasible"
        assert abs(got[0] - want[0]) <= 1e-13, "evaluate_witness value"
        tt = bench(evaluate_witness, args, repeats)
        th = bench(roots_witness, ref_args, repeats)
        print(f"{f'evaluate_witness, m={m}':<24} {tt * 1e3:>10.2f}ms "
              f"{th * 1e3:>10.2f}ms {th / tt:>8.2f}x")
        assert abs(sz_interior_roots(disc) - sz_interior_jensen(disc)) <= 1e-13, \
            "the two interior routes"
        tr = bench(sz_interior_roots, (disc,), repeats)
        tj = bench(sz_interior_jensen, (disc,), repeats)
        print(f"{f'sz interior, m={m}':<24} {tr * 1e3:>10.2f}ms "
              f"{tj * 1e3:>10.2f}ms {tj / tr:>8.2f}x  (zeros, 65536-node mean)")
    angles = 2.0 * np.pi * np.arange(64) / 64
    samples = np.stack([np.array([1.0, np.exp(1j * a)]) / math.sqrt(2.0)
                        for a in angles])
    tube = Tube(tuple(ProjPoint(k) for k in samples), 0.05)
    disc = omega_witness(rng)
    args = ("omega", disc, tube, ZeroWeight(), 1e-3, grid)
    ref_args = (disc, samples, 0.05, 1e-3, nodes)
    got, want = evaluate_witness(*args), tube_witness(*ref_args)
    assert got[1] and want[1], "the witness is feasible"
    assert abs(got[0] - want[0]) <= 1e-13, "evaluate_witness value"
    tt = bench(evaluate_witness, args, repeats)
    th = bench(tube_witness, ref_args, max(repeats // 10, 1))
    print(f"{'evaluate_witness, tube':<24} {tt * 1e3:>10.2f}ms "
          f"{th * 1e3:>10.2f}ms {th / tt:>8.2f}x  (64-point circle, delta 0.05)")
    print("witness re-evaluation agrees with the np.roots Jensen sum and the "
          "pairwise tube reference")


def serial_search(spec, theta0s, seed: int, budget: int) -> np.ndarray:
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


def search_specs():
    """(label, spec) of the searches of perfbench's siciak and hull
    workloads: sz on the unit ball of C^(m-1), omega on the circle's tube."""
    out = []
    for m in (2, 3):
        x = ProjPoint(affine_lift(np.full(m - 1, 0.3 - 0.2j)))
        out.append((f"sz, m={m}", build_objective_spec(
            "sz", x, AffineBall(np.zeros(m - 1, dtype=complex), 1.0), ZeroWeight(),
            DiscFamilySpec(degree=6, m=m, center=x),
            OptimizerConfig(search_nodes=SZ_NODES))))
    th = 2.0 * np.pi * np.arange(64) / 64
    tube = Tube(tuple(ProjPoint(np.array([1.0, np.exp(1j * t)])) for t in th), 0.05)
    x = ProjPoint(np.array([1.0, 0.0]))
    out.append(("omega, 64-point Tube", build_objective_spec(
        "omega", x, tube, ZeroWeight(), DiscFamilySpec(degree=6, m=2, center=x),
        OptimizerConfig(search_nodes=SZ_NODES))))
    return out


def bench_objective(rng, repeats: int) -> None:
    print(f"{f'_objective {SZ_RESTARTS}x{SZ_NODES}':<24} {'time':>12} "
          f"{'minflt':>9}")
    for label, spec in search_specs():
        thetas = 0.3 * rng.standard_normal((SZ_RESTARTS, spec.dim))
        before = minor_faults()
        t = bench(_objective, (spec, thetas), repeats)
        faults = (minor_faults() - before) / (repeats + 1)
        print(f"{label:<24} {t * 1e6:>10.1f}us {faults:>9.1f}")


def bench_search(rng, repeats: int) -> None:
    print(f"{f'_search {SZ_RESTARTS}x{SEARCH_BUDGET}':<24} {'time':>12} "
          f"{'minflt':>9}")
    for label, spec in search_specs():
        theta0s = 0.3 * rng.standard_normal((SZ_RESTARTS, spec.dim))
        args = (spec, theta0s, 7, SEARCH_BUDGET)
        got = _search(*args)
        assert got.tobytes() == serial_search(*args).tobytes(), "search end points"
        before = minor_faults()
        t = bench(_search, args, repeats)
        faults = minor_faults() - before
        print(f"{label:<24} {t * 1e3:>10.2f}ms {faults / (repeats + 1):>9.0f}")
    print("searches equal the serial reference byte for byte")


def library_domains():
    """(label, mode, domain, exterior point) of the timed CandidateLibrary
    constructions and lower bounds."""
    p = ProjPoint(np.array([1.0, 0.3 + 0.1j]))
    hyp = HyperplaneComplement(np.array([1.0, 2.0j]))
    far = ProjPoint(np.array([0.0, 1.0]))
    on_hyp = ProjPoint(np.array([2.0j, 1.0]))
    return [
        ("sz AffineBall, C", "sz", AffineBall(np.zeros(1, dtype=complex), 1.0),
         ProjPoint(affine_lift(np.array([1.5 + 0.5j])))),
        ("sz AffineBall, C^2", "sz", AffineBall(np.zeros(2, dtype=complex), 1.0),
         ProjPoint(affine_lift(np.array([1.5, 0.5j])))),
        ("FsBall 0.5", "omega", FsBall(p, 0.5), far),
        ("FsBall 0.01", "omega", FsBall(p, 0.01), far),
        ("HyperplaneComplement", "omega", hyp, on_hyp),
        ("Intersection", "omega", Intersection((FsBall(p, 0.6), hyp)), on_hyp),
    ]


def bench_library(repeats: int) -> None:
    print(f"{f'CandidateLibrary, {LIBRARY_SAMPLES}':<24} {'construction':>12}"
          f" {'lower_bound':>12}")
    for label, mode, domain, x in library_domains():
        pts = domain.sample_points(np.random.default_rng(0), LIBRARY_SAMPLES)
        assert pts.shape[0] == LIBRARY_SAMPLES, "sample count"
        assert np.all(domain.clearance_many(pts) > 0), "samples inside"
        assert domain.clearance(x.vec) <= 0, "exterior point"
        t = bench(CandidateLibrary, (mode, domain, ZeroWeight(), 0,
                                     LIBRARY_SAMPLES), repeats)
        lib = CandidateLibrary(mode, domain, ZeroWeight(), 0, LIBRARY_SAMPLES)
        assert lib.lower_bound(x)[1] is not None, "a lower bound"
        t_lower = bench(lib.lower_bound, (x,), repeats)
        print(f"{label:<24} {t * 1e3:>10.3f}ms {t_lower * 1e6:>10.1f}us")
    print("every domain samples inside itself")


def bench_minimize(repeats: int) -> None:
    ball = AffineBall(np.zeros(1, dtype=complex), 1.0)
    opt = OptimizerConfig(starts=SZ_RESTARTS, budget=SEARCH_BUDGET, seed=7,
                          search_nodes=SZ_NODES)
    grid = BoundaryGrid(1024)
    eta = DiscFamilySpec().eta
    # log|u + 2| has no known least value: the exterior point searches
    log_poly = AffineLogPolyWeight(HomPolynomial(((1,), (0,)), (1.0, 2.0)))
    print(f"{'minimize sz, C':<24} {'time':>12}")
    for label, u, weight in (("interior", 0.3 - 0.2j, ZeroWeight()),
                             ("exterior", 1.5 + 0.5j, ZeroWeight()),
                             ("exterior, log|u + 2|", 1.5 + 0.5j, log_poly)):
        x = ProjPoint(affine_lift(np.array([u])))
        args = ("sz", x, ball, weight, DiscFamilySpec(degree=6, m=2), opt, grid)
        est = minimize(*args)
        if label == "interior":
            assert est.upper == 0.0 and est.witness.degree == 0, "constant disc"
            assert est.trace == [], "no search"
        elif weight is log_poly:
            assert len(est.trace) == SZ_RESTARTS, "one trace entry a restart"
        else:
            v = math.log(abs(u) / (1.0 - eta))  # V of the shrunk ball
            assert est.witness.degree == 1, "structure disc"
            assert est.trace == [], "no search"
            assert v - 1e-12 <= est.upper <= v + 1e-9, "within 1e-9 of V"
        t = bench(minimize, args, repeats)
        print(f"{label:<24} {t * 1e3:>10.2f}ms")
    print("under the zero weight the interior point returns the constant disc "
          "and the exterior one the structure disc, unsearched")


def horner_min_norm(disc) -> float:
    """The least norm over validation_grid() by Horner values."""
    return float(np.linalg.norm(kernels.eval_poly(disc.coeffs, validation_grid()),
                                axis=1).min())


def bench_min_norm(rng, repeats: int) -> None:
    print(f"{'min_norm_on_grid 64x64':<24} {'tables':>12} {'horner':>12} "
          f"{'speedup':>9}")
    for m in (2, 3):
        for degree in (1, 6):
            disc = AnalyticDiscLift(rng.standard_normal((degree + 1, m)) +
                                    1j * rng.standard_normal((degree + 1, m)))
            got, want = disc.min_norm_on_grid(), horner_min_norm(disc)
            assert abs(got - want) <= 1e-13 * want, "min_norm_on_grid"
            tt = bench(disc.min_norm_on_grid, (), repeats)
            th = bench(horner_min_norm, (disc,), repeats)
            print(f"{f'm={m}, degree {degree}':<24} {tt * 1e6:>10.1f}us "
                  f"{th * 1e6:>10.1f}us {th / tt:>8.2f}x")
    print("min_norm_on_grid agrees with the Horner minimum")


def once(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def bench_cli(repeats: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["identity-check", *IDENTITY_ARGS,
                "--out", str(Path(tmp) / "identity.json")]

        def identity():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, f"identity-check exited with {code}"

        print(f"{'command line':<24} {'first':>12} {'later':>12}")
        first = once(cli.build_parser)
        print(f"{'build_parser':<24} {first * 1e6:>10.1f}us "
              f"{bench(cli.build_parser, (), repeats) * 1e6:>10.1f}us")
        first = once(identity)
        print(f"{'main identity-check':<24} {first * 1e3:>10.2f}ms "
              f"{bench(identity, (), repeats) * 1e3:>10.2f}ms")
    print("identity-check exits 0 at the perfbench sizes")


if __name__ == "__main__":
    sys.exit(main())

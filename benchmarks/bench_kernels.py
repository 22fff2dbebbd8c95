"""Timings of the three hot kernels (polynomial evaluation, log-norm,
Fubini-Study pullback density), of Tube.clearance_many at the
sizes of a hull_test on the 64-point circle (one lock-step objective call
over 20 restarts x 256 search nodes, and one 1024-node final grid),
checked against a pairwise atan2 FS-distance reference, and timings of
riesz_area_term on the default and doubled area quadratures (degree 6,
m = 3) against the pointwise kernels.fs_density route over the flat
node list, checked to agree to 1e-13, and the sz-mode search path of a
minimize on the unit ball: AffineBall.clearance_many at 5120 rows (20
restarts x 256 search nodes) in C and C^2, checked against a per-row
reference, one lock-step _objective call over 20 restarts x 256 nodes,
and the 65536-node sz_interior_jensen of one witness.

Run: python benchmarks/bench_kernels.py [--nodes 4096] [--degree 8] [--m 3]
"""
import argparse
import sys
import time

import numpy as np

from discenv import kernels
from discenv.discs import (AnalyticDiscLift, AreaQuadrature, random_disc,
                           riesz_area_term)
from discenv.envelope import (DiscFamilySpec, OptimizerConfig, _objective,
                              build_objective_spec)
from discenv.functionals import sz_interior_jensen
from discenv.projective import (AffineBall, ProjPoint, Tube, ZeroWeight,
                                affine_lift)

# (rows, samples): the hull_test sizes on the 64-point circle in P^1
TUBE_SIZES = ((5120, 64), (1024, 64))
# (n_r, n_theta): identity-check's default and doubled area quadratures
AREA_SIZES = ((256, 512), (512, 1024))
# restarts x search nodes of one lock-step sz objective call
SZ_RESTARTS, SZ_NODES = 20, 256


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

    print(f"nodes={args.nodes} degree={args.degree} m={args.m} "
          f"(best of {args.repeats})")
    print(f"{'kernel':<12} {'time':>12}")
    for name in ("eval_poly", "lognorm", "fs_density"):
        tk = bench(getattr(kernels, name), (coeffs, t), args.repeats)
        print(f"{name:<12} {tk * 1e6:>10.1f}us")
    bench_tube(rng, args.repeats)
    bench_riesz(rng, min(args.repeats, 10))
    bench_sz(rng, args.repeats)
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


def bench_tube(rng, repeats: int) -> None:
    print(f"{'Tube.clearance_many':<24} {'time':>12}")
    for rows, k in TUBE_SIZES:
        th = 2.0 * np.pi * np.arange(k) / k
        tube = Tube(tuple(ProjPoint(np.array([1.0, np.exp(1j * t)])) for t in th),
                    0.05)
        z = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
        t = bench(tube.clearance_many, (z,), repeats)
        print(f"{f'{rows} x {k}, m=2':<24} {t * 1e6:>10.1f}us")
        if rows == 1024:
            samples = np.stack([p.vec for p in tube.samples])
            assert np.allclose(tube.clearance_many(z),
                               tube_reference(z, samples, tube.delta),
                               rtol=0, atol=1e-12), "tube clearance"
    print("tube clearance agrees with the pairwise reference")


def bench_riesz(rng, repeats: int) -> None:
    coeffs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    coeffs[0] += 3.0  # keeps |f| away from 0 on the disc
    disc = AnalyticDiscLift(coeffs)

    def pointwise(quad):
        dens, _sq = kernels.fs_density(disc.coeffs, quad.nodes)
        return quad.integral(quad.log_r * dens) / (2.0 * np.pi)

    print(f"{'riesz_area_term, d=6 m=3':<24} {'tensor':>12} {'pointwise':>12} "
          f"{'speedup':>9}")
    for n_r, n_theta in AREA_SIZES:
        quad = AreaQuadrature(n_r, n_theta)
        tt = bench(riesz_area_term, (disc, quad), repeats)
        tp = bench(pointwise, (quad,), repeats)
        print(f"{f'{n_r} x {n_theta}':<24} {tt * 1e3:>10.2f}ms "
              f"{tp * 1e3:>10.2f}ms {tp / tt:>8.2f}x")
        diff = abs(riesz_area_term(disc, quad) - pointwise(quad))
        assert diff <= 1e-13, f"riesz_area_term differs by {diff:.2e}"
    print("riesz_area_term agrees with the pointwise route")


def affine_ball_reference(ball: AffineBall, z: np.ndarray) -> np.ndarray:
    """R - |z_*/z_0 - c|, one row at a time."""
    return np.array([ball.radius - np.linalg.norm(row[1:] / row[0] - ball.center)
                     for row in z])


def bench_sz(rng, repeats: int) -> None:
    rows = SZ_RESTARTS * SZ_NODES
    print(f"{'sz search path':<24} {'time':>12}")
    for m in (2, 3):
        ball = AffineBall(np.zeros(m - 1, dtype=complex), 1.0)
        z = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
        t = bench(ball.clearance_many, (z,), repeats)
        print(f"{f'AffineBall {rows}, m={m}':<24} {t * 1e6:>10.1f}us")
        assert np.allclose(ball.clearance_many(z), affine_ball_reference(ball, z),
                           rtol=1e-13, atol=1e-13), "affine ball clearance"

        x = ProjPoint(affine_lift(np.full(m - 1, 0.3 - 0.2j)))
        spec = build_objective_spec(
            "sz", x, ball, ZeroWeight(), DiscFamilySpec(degree=6, m=m, center=x),
            OptimizerConfig(search_nodes=SZ_NODES))
        thetas = 0.3 * rng.standard_normal((SZ_RESTARTS, spec.dim))
        t = bench(_objective, (spec, thetas), repeats)
        print(f"{f'_objective {SZ_RESTARTS}x{SZ_NODES}, m={m}':<24} "
              f"{t * 1e6:>10.1f}us")
    print("affine ball clearance agrees with the per-row reference")
    disc = random_disc(rng, 3, 6)
    t = bench(sz_interior_jensen, (disc,), min(repeats, 20))
    print(f"{'sz_interior_jensen':<24} {t * 1e3:>10.2f}ms")


if __name__ == "__main__":
    sys.exit(main())

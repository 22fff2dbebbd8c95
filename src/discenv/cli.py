"""Command-line front end.

Commands: functional, identity-check, envelope, grid,
hull (test | schedule | normalize), disc-structure (make | epsilon-test).
Structured outputs are JSON (grids are CSV); every artifact embeds its run
configuration and a schema version, stdout carries only the artifact path,
progress goes to stderr.  Exit codes: 1 config, 2 infeasible, 3 numerical.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import envelope as env
from . import hull as hull_mod
from . import structure as struct_mod
from .discs import (AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    boundary_lognorms, random_disc)
from .errors import (BoundaryZeroError, ConfigError, DiscEnvError,
                     DomainError, InfeasibleDiscError, NumericalError,
                     OriginViolation)
from .functionals import (identity_check_eqH, omega_functional_direct,
                          omega_functional_lifted, riesz_residual,
                          sz_functional)
from .projective import (Domain, LiftedWeight, ProjPoint, Weight,
                         ZeroWeight, affine_lift, vec_from_json)

SCHEMA_VERSION = "1"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def _load_point(path: str) -> ProjPoint:
    obj = _load_json(path)
    kind = obj.get("type", "proj")
    coords = vec_from_json(obj["coords"])
    if kind == "affine":
        return ProjPoint(affine_lift(coords))
    if kind == "proj":
        return ProjPoint(coords)
    raise ConfigError(f"unknown point type {kind!r}")


def _write_artifact(path: str, config: dict, result, progress: str = ""):
    doc = {"schema_version": SCHEMA_VERSION, "config": config,
           "result": result}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:  # a NaN or an unencoded inf
        raise NumericalError(f"artifact is not strict JSON: {e}") from e
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
    if progress:
        print(progress, file=sys.stderr)
    print(path)


def _grids(args):
    return BoundaryGrid(args.nodes), AreaQuadrature(args.radial, args.angular)


def _config_dict(args, skip=("func",)):
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_functional(args) -> int:
    disc = AnalyticDiscLift.from_json(_load_json(args.disc))
    weight = Weight.from_json(_load_json(args.weight))
    domain = Domain.from_json(_load_json(args.domain)) if args.domain else None
    grid, quad = _grids(args)
    if args.route == "direct":
        fv = omega_functional_direct(weight, disc, domain, grid, quad)
    elif args.route == "lifted":
        fv = omega_functional_lifted(LiftedWeight(weight, domain), disc, grid)
    elif args.route == "jensen":
        fv = sz_functional(weight, disc, domain, grid, route="jensen")
    else:
        raise ConfigError(f"unknown route {args.route!r}")
    _write_artifact(args.out, _config_dict(args), fv.to_json())
    return 0


def cmd_identity_check(args) -> int:
    rng = np.random.default_rng([args.seed, 0x1D])
    grid, quad = _grids(args)
    grid2 = BoundaryGrid(2 * args.nodes)
    quad2 = AreaQuadrature(2 * args.radial, 2 * args.angular)
    rows = []
    worst = (-1.0, None)
    for i in range(args.count):
        degree = int(rng.integers(1, 7))
        disc = random_disc(rng, 3, degree)
        res = identity_check_eqH(ZeroWeight(), disc, None, grid, quad)
        res2 = identity_check_eqH(ZeroWeight(), disc, None, grid2, quad2)
        riesz = riesz_residual(disc, grid, quad, area_term=res["area_term"])
        rows.append({"index": i, "degree": degree,
                     "eqH_residual": res["residual"],
                     "eqH_residual_doubled": res2["residual"],
                     "riesz_residual": riesz})
        m = max(res["residual"], riesz)
        if m > worst[0]:
            worst = (m, disc)
        print(f"disc {i}: eqH {res['residual']:.3e} riesz {riesz:.3e}",
              file=sys.stderr)
    ok = all(max(r["eqH_residual"], r["riesz_residual"]) <= args.tolerance
             for r in rows)
    _write_artifact(args.out, _config_dict(args),
                    {"rows": rows, "all_within_tolerance": ok})
    if not ok and worst[1] is not None:
        print("worst offender disc:", file=sys.stderr)
        print(json.dumps(worst[1].to_json()), file=sys.stderr)
        return 1
    return 0


def _family_opt(args, x):
    fam = env.DiscFamilySpec(degree=args.degree, m=x.vec.size, center=x,
                             bound=args.bound, eta=args.eta)
    opt = env.OptimizerConfig(starts=args.starts, budget=args.budget,
                              seed=args.seed)
    return fam, opt


def cmd_envelope(args) -> int:
    x = _load_point(args.point)
    domain = Domain.from_json(_load_json(args.domain))
    weight = Weight.from_json(_load_json(args.weight))
    fam, opt = _family_opt(args, x)
    grid = BoundaryGrid(args.nodes)
    lib = env.CandidateLibrary(args.mode, domain, weight, seed=args.seed)
    est = env.minimize(args.mode, x, domain, weight, fam, opt, grid,
                       library=lib)
    _write_artifact(args.out, _config_dict(args), est.to_json(),
                    progress=f"upper={est.upper}")
    return 0 if est.feasible else 2


def cmd_grid(args) -> int:
    pts_doc = _load_json(args.points)
    pts = []
    for obj in pts_doc["points"]:
        coords = vec_from_json(obj["coords"])
        if obj.get("type", "proj") == "affine":
            pts.append(ProjPoint(affine_lift(coords)))
        else:
            pts.append(ProjPoint(coords))
    domain = Domain.from_json(_load_json(args.domain))
    weight = Weight.from_json(_load_json(args.weight))
    fam, opt = _family_opt(args, pts[0])
    grid = BoundaryGrid(args.nodes)
    lib = env.CandidateLibrary(args.mode, domain, weight, seed=args.seed)
    ests = env.envelope_grid(args.mode, pts, domain, weight, fam, opt, grid,
                             library=lib)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "upper", "lower", "gap", "degree"])
        for x, est in zip(pts, ests):
            w.writerow([json.dumps(x.to_json()), est.upper, est.lower,
                        est.gap, args.degree])
    print(args.out)
    return 0


def cmd_hull_test(args) -> int:
    x = _load_point(args.point)
    K = hull_mod.CompactSetSpec.from_json(_load_json(args.set))
    fam, opt = _family_opt(args, x)
    grid = BoundaryGrid(args.nodes)
    out = hull_mod.hull_test(x, K, args.lam, args.eps, args.delta, fam, opt,
                             grid)
    if isinstance(out, hull_mod.HullCertificate):
        _write_artifact(args.out, _config_dict(args), out.to_json())
        return 0
    _write_artifact(args.out, _config_dict(args), out)
    return 2


def cmd_hull_schedule(args) -> int:
    x = _load_point(args.point)
    K = hull_mod.CompactSetSpec.from_json(_load_json(args.set))
    deltas = [float(d) for d in args.deltas.split(",")]
    fam, opt = _family_opt(args, x)
    grid = BoundaryGrid(args.nodes)
    res = hull_mod.lambda_schedule(x, K, deltas, fam, opt, grid)
    payload = {"deltas": res["deltas"], "estimates": res["estimates"],
               "final": res["final"],
               "witnesses": [d.to_json() if d else None
                             for d in res["witnesses"]]}
    _write_artifact(args.out, _config_dict(args), payload)
    return 0


def cmd_hull_normalize(args) -> int:
    disc = AnalyticDiscLift.from_json(_load_json(args.disc))
    grid = BoundaryGrid(args.nodes)
    comp = hull_mod.normalize_disc(disc, args.r, grid)
    rep = hull_mod.center_report(comp)
    worst = float(np.abs(boundary_lognorms(comp, grid)).max())
    payload = {"disc": comp.to_json(),
               "center_norm": rep["norm"],
               "neg_log_center_norm": rep["neg_log_norm"],
               "max_abs_boundary_lognorm": worst}
    _write_artifact(args.out, _config_dict(args), payload)
    return 0


def cmd_structure_make(args) -> int:
    x = vec_from_json(_load_json(args.x)["coords"])
    w = vec_from_json(_load_json(args.w)["coords"])
    domain = Domain.from_json(_load_json(args.domain))
    params = struct_mod.structure_params(x, w, domain)
    disc = struct_mod.make_structure_disc(params)
    report = struct_mod.verify_feasible(disc, domain, args.nodes)
    _write_artifact(args.out, _config_dict(args),
                    {"disc": disc.to_json(), "r": params.r,
                     "feasibility": report})
    return 0 if report["feasible"] else 2


def cmd_structure_epsilon(args) -> int:
    x = vec_from_json(_load_json(args.x)["coords"])
    domain = Domain.from_json(_load_json(args.domain))
    weight = Weight.from_json(_load_json(args.weight))
    phi_tilde = LiftedWeight(weight)
    res = struct_mod.epsilon_upper_bound(x, phi_tilde, domain, args.eps,
                                         seed=args.seed,
                                         grid=BoundaryGrid(args.nodes))
    payload = {
        "success": res["success"],
        "value": res["value"] if math.isfinite(res["value"]) else None,
        "phi_x": res["phi_x"],
        "w": [[float(c.real), float(c.imag)] for c in res["w"]]
             if res["w"] is not None else None,
        "disc": res["disc"].to_json() if res["disc"] is not None else None,
        "radius": res["radius"],
    }
    _write_artifact(args.out, _config_dict(args), payload)
    return 0 if res["success"] else 2


def _add_common(p, nodes=1024, radial=256, angular=512):
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--radial", type=int, default=radial)
    p.add_argument("--angular", type=int, default=angular)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)


def _add_opt(p):
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--bound", type=float, default=10.0)
    p.add_argument("--eta", type=float, default=1e-3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="discenv")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functional")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pe = fsub.add_parser("eval")
    pe.add_argument("--disc", required=True)
    pe.add_argument("--weight", required=True)
    pe.add_argument("--domain", default=None)
    pe.add_argument("--route", choices=["direct", "lifted", "jensen"],
                    required=True)
    _add_common(pe)
    pe.set_defaults(func=cmd_functional)

    p = sub.add_parser("identity-check")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("envelope")
    p.add_argument("--point", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--mode", choices=["omega", "sz"], required=True)
    _add_opt(p)
    _add_common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("grid")
    p.add_argument("--points", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--mode", choices=["omega", "sz"], required=True)
    _add_opt(p)
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("hull")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    pt = hsub.add_parser("test")
    pt.add_argument("--point", required=True)
    pt.add_argument("--set", required=True)
    pt.add_argument("--lambda", dest="lam", type=float, required=True)
    pt.add_argument("--eps", type=float, required=True)
    pt.add_argument("--delta", type=float, required=True)
    _add_opt(pt)
    _add_common(pt)
    pt.set_defaults(func=cmd_hull_test)

    ps = hsub.add_parser("schedule")
    ps.add_argument("--point", required=True)
    ps.add_argument("--set", required=True)
    ps.add_argument("--deltas", required=True,
                    help="comma-separated decreasing tube radii")
    _add_opt(ps)
    _add_common(ps)
    ps.set_defaults(func=cmd_hull_schedule)

    pn = hsub.add_parser("normalize")
    pn.add_argument("--disc", required=True)
    pn.add_argument("--r", type=float, required=True)
    _add_common(pn)
    pn.set_defaults(func=cmd_hull_normalize)

    p = sub.add_parser("disc-structure")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pm = dsub.add_parser("make")
    pm.add_argument("--x", required=True)
    pm.add_argument("--w", required=True)
    pm.add_argument("--domain", required=True)
    _add_common(pm, nodes=256)
    pm.set_defaults(func=cmd_structure_make)

    pep = dsub.add_parser("epsilon-test")
    pep.add_argument("--x", required=True)
    pep.add_argument("--weight", required=True)
    pep.add_argument("--domain", required=True)
    pep.add_argument("--eps", type=float, default=1e-2)
    _add_common(pep)
    pep.set_defaults(func=cmd_structure_epsilon)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as e:
        # a ValueError subclass, but a numerical failure, not a bad input
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (InfeasibleDiscError, DomainError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except (NumericalError, OriginViolation, BoundaryZeroError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except DiscEnvError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

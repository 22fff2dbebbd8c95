"""Command-line front end.

Commands: functional, identity-check, envelope, grid,
hull (test | schedule | normalize), disc-structure (make | epsilon-test).
Structured outputs are JSON (grids are CSV); every artifact embeds its run
configuration and a schema version, stdout carries only the artifact path,
progress goes to stderr.  Exit codes: 1 config, 2 infeasible, 3 numerical,
4 a failed identity check (a residual above --tolerance).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import envelope as env
from . import hull as hull_mod
from . import structure as struct_mod
from .discs import (DEFAULT_ANGULAR, DEFAULT_NODES, DEFAULT_RADIAL,
                    AnalyticDiscLift, AreaQuadrature, BoundaryGrid,
                    boundary_lognorms, grid_values, random_disc)
from .errors import (BoundaryZeroError, ConfigError, DiscEnvError,
                     DomainError, InfeasibleDiscError, NumericalError,
                     OriginViolation)
from .functionals import (admissible_values, identity_check_eqH,
                          omega_functional_direct, omega_functional_lifted,
                          riesz_residual, sz_functional)
from .projective import (Domain, LiftedWeight, ProjPoint, Weight,
                         ZeroWeight, affine_lift, vec_from_json, vec_to_json)

SCHEMA_VERSION = "1"


def _read(path: str, decode):
    """decode applied to the JSON of a file.  Every input file is read
    here: an unreadable file, malformed JSON, and any error while decoding
    (a NaN, a missing key, a null or a bare number where a [re, im] pair
    belongs) are ConfigErrors that name the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        return decode(obj)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: malformed input: {e}") from e


def _coords(obj) -> np.ndarray:
    return vec_from_json(obj["coords"])


def _parse_point(obj) -> ProjPoint:
    """A point from its JSON object {"type": "proj" | "affine", "coords"}."""
    if not isinstance(obj, dict):
        raise ConfigError(f"a point must be a JSON object, not {obj!r}")
    kind = obj.get("type", "proj")
    coords = _coords(obj)
    if kind == "affine":
        return ProjPoint(affine_lift(coords))
    if kind == "proj":
        return ProjPoint(coords)
    raise ConfigError(f"unknown point type {kind!r}")


def _check_writable(path: str):
    """Raises the ConfigError of _write_text now, before any work, where
    path cannot be written: a directory, a file without write permission,
    or a path whose directory is missing or not writable.  Creates no
    file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {reason}")


def _write_text(path: str, text: str, newline: str | None = None):
    """text written to path.  Every output file is written here: an
    unwritable path (a missing directory, a directory) is a ConfigError
    that names it, as an unreadable input is in _read; main tests the
    path before the run with _check_writable."""
    try:
        with open(path, "w", newline=newline) as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _write_artifact(path: str, config: dict, result, progress: str = ""):
    doc = {"schema_version": SCHEMA_VERSION, "config": config,
           "result": result}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:  # a NaN or an unencoded inf
        raise NumericalError(f"artifact is not strict JSON: {e}") from e
    _write_text(path, text + "\n")
    if progress:
        print(progress, file=sys.stderr)
    print(path)


def _grids(args):
    return BoundaryGrid(args.nodes), AreaQuadrature(args.radial, args.angular)


def _config_dict(args):
    # the output path is left out, so an artifact's bytes do not depend on
    # where it is written
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out")}


def cmd_functional(args) -> int:
    disc = _read(args.disc, AnalyticDiscLift.from_json)
    weight = _read(args.weight, Weight.from_json)
    domain = _read(args.domain, Domain.from_json) if args.domain else None
    grid, quad = _grids(args)
    pts = grid_values(disc, grid) if domain is None else \
        admissible_values(disc, grid, domain)
    if args.route == "direct":
        fv = omega_functional_direct(weight, disc, pts, quad)
    elif args.route == "lifted":
        fv = omega_functional_lifted(LiftedWeight(weight), disc, pts)
    else:  # jensen: the parser's choices admit no other route
        fv = sz_functional(weight, disc, pts, route="jensen")
    _write_artifact(args.out, _config_dict(args), fv.to_json())
    return 0


def cmd_identity_check(args) -> int:
    if args.tolerance < 0:  # no residual meets it
        raise ConfigError(f"--tolerance must be at least 0, not {args.tolerance:g}")
    rng = np.random.default_rng([args.seed, 0x1D])
    grid, quad = _grids(args)
    grid2 = BoundaryGrid(2 * args.nodes)
    quad2 = AreaQuadrature(2 * args.radial, 2 * args.angular)
    rows = []
    worst = (-1.0, None)
    for i in range(args.count):
        degree = int(rng.integers(1, 7))
        disc = random_disc(rng, 3, degree)
        pts = grid_values(disc, grid)
        res = identity_check_eqH(ZeroWeight(), disc, pts, quad)
        res2 = identity_check_eqH(ZeroWeight(), disc,
                                  grid_values(disc, grid2), quad2)
        riesz = riesz_residual(disc, res["area_term"], pts)
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
    if not ok:
        print(f"identity failed: a residual exceeds --tolerance "
              f"{args.tolerance:g}", file=sys.stderr)
        if worst[1] is not None:
            print("worst offender disc:", file=sys.stderr)
            print(json.dumps(worst[1].to_json()), file=sys.stderr)
        return 4
    return 0


def _family_opt(args):
    fam = env.DiscFamilySpec(degree=args.degree, bound=args.bound,
                             eta=args.eta)
    opt = env.OptimizerConfig(starts=args.starts, budget=args.budget,
                              seed=args.seed)
    return fam, opt


def cmd_envelope(args) -> int:
    x = _read(args.point, _parse_point)
    domain = _read(args.domain, Domain.from_json)
    weight = _read(args.weight, Weight.from_json)
    fam, opt = _family_opt(args)
    grid = BoundaryGrid(args.nodes)
    lib = env.CandidateLibrary(args.mode, domain, weight, seed=args.seed)
    est = env.minimize(args.mode, x, domain, weight, fam, opt, grid,
                       library=lib)
    _write_artifact(args.out, _config_dict(args), est.to_json(),
                    progress=f"upper={est.upper}")
    return 0 if est.feasible else 2


def cmd_grid(args) -> int:
    pts = _read(args.points,
                lambda obj: [_parse_point(p) for p in obj["points"]])
    if not pts:
        raise ConfigError(f"{args.points}: no points")
    domain = _read(args.domain, Domain.from_json)
    weight = _read(args.weight, Weight.from_json)
    fam, opt = _family_opt(args)
    grid = BoundaryGrid(args.nodes)
    lib = env.CandidateLibrary(args.mode, domain, weight, seed=args.seed)
    ests = env.envelope_grid(args.mode, pts, domain, weight, fam, opt, grid,
                             library=lib)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["point", "upper", "lower", "gap", "degree"])
    for x, est in zip(pts, ests):
        w.writerow([json.dumps(x.to_json()), est.upper, est.lower,
                    est.gap, args.degree])
    _write_text(args.out, buf.getvalue(), newline="")
    print(args.out)
    return 0


def cmd_hull_test(args) -> int:
    x = _read(args.point, _parse_point)
    K = _read(args.set, hull_mod.CompactSetSpec.from_json)
    fam, opt = _family_opt(args)
    grid = BoundaryGrid(args.nodes)
    out = hull_mod.hull_test(x, K, args.lam, args.eps, args.delta, fam, opt,
                             grid)
    if isinstance(out, hull_mod.HullCertificate):
        _write_artifact(args.out, _config_dict(args), out.to_json())
        return 0
    _write_artifact(args.out, _config_dict(args), out)
    return 2


def cmd_hull_schedule(args) -> int:
    x = _read(args.point, _parse_point)
    K = _read(args.set, hull_mod.CompactSetSpec.from_json)
    fam, opt = _family_opt(args)
    grid = BoundaryGrid(args.nodes)
    res = hull_mod.lambda_schedule(x, K, args.deltas, fam, opt, grid)
    payload = {"deltas": res["deltas"], "estimates": res["estimates"],
               "final": res["final"],
               "witnesses": [d.to_json() if d else None
                             for d in res["witnesses"]]}
    _write_artifact(args.out, _config_dict(args), payload)
    return 0


def cmd_hull_normalize(args) -> int:
    disc = _read(args.disc, AnalyticDiscLift.from_json)
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
    x = _read(args.x, _coords)
    w = _read(args.w, _coords)
    domain = _read(args.domain, Domain.from_json)
    params = struct_mod.structure_params(x, w, domain)
    disc = struct_mod.make_structure_disc(params)
    report = struct_mod.verify_feasible(disc, domain, args.nodes)
    _write_artifact(args.out, _config_dict(args),
                    {"disc": disc.to_json(), "r": params.r,
                     "feasibility": report})
    return 0 if report["feasible"] else 2


def cmd_structure_epsilon(args) -> int:
    x = _read(args.x, _coords)
    domain = _read(args.domain, Domain.from_json)
    weight = _read(args.weight, Weight.from_json)
    phi_tilde = LiftedWeight(weight)
    res = struct_mod.epsilon_upper_bound(x, phi_tilde, domain, args.eps,
                                         seed=args.seed,
                                         grid=BoundaryGrid(args.nodes))
    payload = {
        "success": res["success"],
        "value": res["value"] if math.isfinite(res["value"]) else None,
        "phi_x": res["phi_x"],
        "w": vec_to_json(res["w"]) if res["w"] is not None else None,
        "disc": res["disc"].to_json() if res["disc"] is not None else None,
        "radius": res["radius"],
    }
    _write_artifact(args.out, _config_dict(args), payload)
    return 0 if res["success"] else 2


def _positive_int(text: str) -> int:
    """An argparse type: an int of at least 1 (a count of zero checks
    nothing, so it cannot pass)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _finite_float(text: str) -> float:
    """An argparse type: a finite float (a NaN or an infinity would run the
    command and then fail to write a strict-JSON artifact)."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return x


def _finite_floats(text: str) -> list:
    """An argparse type: comma-separated finite floats."""
    return [_finite_float(d) for d in text.split(",")]


def _add_common(p, nodes=DEFAULT_NODES):
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--out", required=True)


def _add_opt(p):
    fam, opt = env.DiscFamilySpec(), env.OptimizerConfig()
    p.add_argument("--degree", type=_positive_int, default=fam.degree)
    p.add_argument("--starts", type=_positive_int, default=opt.starts)
    p.add_argument("--budget", type=_positive_int, default=opt.budget)
    p.add_argument("--bound", type=_finite_float, default=fam.bound)
    p.add_argument("--eta", type=_finite_float, default=fam.eta)
    p.add_argument("--seed", type=int, default=opt.seed)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (config), not 2, the code for infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process.  parse_args builds a fresh namespace on each
    call, so sharing it is safe; callers must not mutate the returned
    parser."""
    ap = _Parser(prog="discenv")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functional")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pe = fsub.add_parser("eval")
    pe.add_argument("--disc", required=True)
    pe.add_argument("--weight", required=True)
    pe.add_argument("--domain", default=None)
    pe.add_argument("--route", choices=["direct", "lifted", "jensen"],
                    required=True)
    pe.add_argument("--radial", type=int, default=DEFAULT_RADIAL)
    pe.add_argument("--angular", type=int, default=DEFAULT_ANGULAR)
    _add_common(pe)
    pe.set_defaults(func=cmd_functional)

    p = sub.add_parser("identity-check")
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--tolerance", type=_finite_float, default=1e-8)
    p.add_argument("--radial", type=int, default=DEFAULT_RADIAL)
    p.add_argument("--angular", type=int, default=DEFAULT_ANGULAR)
    p.add_argument("--seed", type=int, default=7)
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
    pt.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    pt.add_argument("--eps", type=_finite_float, required=True)
    pt.add_argument("--delta", type=_finite_float, required=True)
    _add_opt(pt)
    _add_common(pt)
    pt.set_defaults(func=cmd_hull_test)

    ps = hsub.add_parser("schedule")
    ps.add_argument("--point", required=True)
    ps.add_argument("--set", required=True)
    ps.add_argument("--deltas", type=_finite_floats, required=True,
                    help="comma-separated decreasing tube radii")
    _add_opt(ps)
    _add_common(ps)
    ps.set_defaults(func=cmd_hull_schedule)

    pn = hsub.add_parser("normalize")
    pn.add_argument("--disc", required=True)
    pn.add_argument("--r", type=_finite_float, required=True)
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
    pep.add_argument("--eps", type=_finite_float, default=1e-2)
    pep.add_argument("--seed", type=int, default=7)
    _add_common(pep)
    pep.set_defaults(func=cmd_structure_epsilon)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_writable(args.out)
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

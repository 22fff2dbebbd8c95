"""The three workloads: fixed inputs made from the workload seed, one
operation, and a check of each output against a computation made apart
from discenv (plain numpy on a finer grid, or a closed form).

Every search setting, grid size and disc count is set here, so that a
changed library default cannot silently change a workload.  A workload
runs in whole rounds; every round repeats the same operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from discenv import cli, discs, envelope, hull, projective

FINAL_NODES = 1024
SEARCH_NODES = 256
CHECK_NODES = 4 * FINAL_NODES  # grid of the independent re-evaluations
DEGREE = 6
BOUND = 10.0
ETA = 1e-3
LIBRARY_SAMPLES = 512
# 20 restarts, the library's default and the width of a batched search;
# the per-restart budget is cut from the default 2000 so that a 30 s run
# holds several rounds.  A shorter restart gives the fixed per-search work
# (seed construction, witness re-evaluation) a larger share than a
# default-budget search has.
STARTS = 20
BUDGET = 100


@dataclass
class Op:
    label: str
    inputs: dict
    known_fault: bool = False  # fails today because of a recorded fault


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


class NoResult(CheckFailed):
    """The program returned no result: the symptom of a known fault."""


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _boundary(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Disc values at n equispaced points of the unit circle, (n, m)."""
    t = np.exp(2j * np.pi * np.arange(n) / n)
    return np.stack([np.polyval(coeffs[::-1, j], t)
                     for j in range(coeffs.shape[1])], axis=1)


def _fs_distance_rows(z: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """FS distance from each row of z to each unit row of samples (atan2
    form), shape (len(z), len(samples))."""
    ip = z @ samples.conj().T
    perp = z[:, None, :] - ip[:, :, None] * samples[None, :, :]
    return np.arctan2(np.linalg.norm(perp, axis=2), np.abs(ip))


class Siciak:
    """SZ-mode envelope estimates for the unit ball in C and in C^2 at
    points inside and outside it.  One operation is one estimate."""

    MAX_GAP = 0.05

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 0x51C1])
        self.weight = projective.ZeroWeight()
        self.final_grid = discs.BoundaryGrid(FINAL_NODES)
        self.round = []
        for n in (1, 2):
            centre, radius = np.zeros(n, dtype=complex), 1.0
            ball = projective.AffineBall(centre, radius)
            library = envelope.CandidateLibrary(
                "sz", ball, self.weight, seed=_seed_int(rng),
                n_samples=LIBRARY_SAMPLES)
            for where, (lo, hi) in (("in", (0.1, 0.9)), ("out", (1.2, 3.0))):
                d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u = centre + radius * rng.uniform(lo, hi) * d / np.linalg.norm(d)
                x = projective.ProjPoint(projective.affine_lift(u))
                family = envelope.DiscFamilySpec(degree=DEGREE, m=n + 1,
                                                 center=x, bound=BOUND, eta=ETA)
                opt = envelope.OptimizerConfig(
                    starts=STARTS, budget=BUDGET, seed=_seed_int(rng),
                    search_nodes=SEARCH_NODES, workers=1)
                self.round.append(Op(f"C{n}-{where}", dict(
                    x=x, u=u, ball=ball, library=library, family=family,
                    opt=opt)))

    def run(self, op: Op):
        i = op.inputs
        return envelope.minimize("sz", i["x"], i["ball"], self.weight,
                                 i["family"], i["opt"], self.final_grid,
                                 library=i["library"])

    def check(self, op: Op, est) -> dict:
        u, ball = op.inputs["u"], op.inputs["ball"]
        v = max(0.0, math.log(np.linalg.norm(u - ball.center) / ball.radius))
        if est.lower is None or abs(est.lower - v) > 1e-12:
            raise CheckFailed(f"lower bound {est.lower} is not V = {v}")
        if est.upper is None or not v - 1e-9 <= est.upper <= v + self.MAX_GAP:
            raise CheckFailed(f"upper bound {est.upper} outside [V, V + {self.MAX_GAP}], V = {v}")
        c = np.asarray(est.witness.coeffs)
        centre = np.concatenate([[1.0 + 0j], u])
        if np.max(np.abs(c[0] - centre / np.linalg.norm(centre))) > 1e-12:
            raise CheckFailed("witness centre is not the point")
        # zero weight: the value is the interior term alone, which Jensen's
        # formula gives exactly from the zeros of f_0 in the disc.  A
        # 4096-node mean of log|f_0| misses by 2.6e-9 when f_0 has a zero
        # at |t| = 1.003.
        zeros = np.roots(c[::-1, 0])
        value = float(-np.sum(np.log(np.abs(zeros[np.abs(zeros) < 1.0]))))
        if abs(value - est.upper) > 1e-9:
            raise CheckFailed(f"witness re-evaluates to {value}, not {est.upper}")
        f = _boundary(c, CHECK_NODES)
        if not np.all(np.linalg.norm(f[:, 1:] / f[:, :1] - ball.center, axis=1)
                      < ball.radius):
            raise CheckFailed("witness boundary leaves the ball")
        return {"envelope.gap": est.upper - v}


class Hull:
    """hull_test certificates for the 64-point circle K = {[1 : e^{it}]}.
    A round is three searches at the centre [1:0] and one at the
    off-centre hull point [1:0.5], whose inputs do not depend on the seed."""

    LAM = 0.5 * math.log(2.0)
    EPS = 0.01
    DELTA = 0.05
    K_POINTS = 64
    CENTRE_OPS = 3
    OFF_CENTRE = 0.5
    OFF_CENTRE_SEED = 7

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 0x4811])
        th = 2.0 * np.pi * np.arange(self.K_POINTS) / self.K_POINTS
        self.samples = np.stack([np.array([1.0, np.exp(1j * t)]) / math.sqrt(2.0)
                                 for t in th])
        self.K = hull.CompactSetSpec(tuple(projective.ProjPoint(s)
                                           for s in self.samples))
        self.final_grid = discs.BoundaryGrid(FINAL_NODES)
        self.family = envelope.DiscFamilySpec(degree=DEGREE, m=2, bound=BOUND,
                                              eta=ETA)
        self.round = []
        for k in range(self.CENTRE_OPS):
            self.round.append(self._op(f"centre-{k}", 0.0, _seed_int(rng)))
        self.round.append(self._op("off-centre", self.OFF_CENTRE,
                                   self.OFF_CENTRE_SEED, known_fault=True))

    def _op(self, label, a, opt_seed, known_fault=False):
        x = projective.ProjPoint(np.array([1.0, a], dtype=complex))
        opt = envelope.OptimizerConfig(starts=STARTS, budget=BUDGET,
                                       seed=opt_seed, search_nodes=SEARCH_NODES,
                                       workers=1)
        return Op(label, dict(x=x, opt=opt), known_fault)

    def run(self, op: Op):
        i = op.inputs
        return hull.hull_test(i["x"], self.K, self.LAM, self.EPS, self.DELTA,
                              self.family, i["opt"], self.final_grid)

    def check(self, op: Op, cert) -> dict:
        if not isinstance(cert, hull.HullCertificate):
            raise NoResult(f"no certificate (best value {cert.get('best_value')})")
        top = self.LAM + self.EPS
        if not 0.0 <= cert.value <= top:
            raise CheckFailed(f"certificate value {cert.value} outside [0, {top}]")
        c = np.asarray(cert.witness.coeffs)
        x = op.inputs["x"].vec
        if _fs_distance_rows(c[:1], x[None, :])[0, 0] > 1e-9:
            raise CheckFailed("witness centre is not the point")
        f = _boundary(c, FINAL_NODES)
        value = float(np.mean(np.log(np.linalg.norm(f, axis=1)))) - \
            math.log(float(np.linalg.norm(c[0])))
        if abs(value - cert.value) > 1e-9:
            raise CheckFailed(f"witness re-evaluates to {value}, not {cert.value}")
        # in blocks of rows, so that the check's arrays stay below the
        # program's own in the process's peak memory
        z = _boundary(c, CHECK_NODES)
        worst = max(_fs_distance_rows(z[i:i + 256], self.samples).min(axis=1).max()
                    for i in range(0, len(z), 256))
        if worst > self.DELTA:
            raise CheckFailed(f"witness boundary {worst:.4f} from K, beyond delta")
        return {"hull.cert_margin": top - cert.value}


def _reject_constant(name):
    raise ValueError(f"artifact holds the non-JSON constant {name}")


class Identity:
    """The route identities through the CLI: one operation is one
    in-process `identity-check` call at the default and doubled grids.  A
    round is six calls whose single random disc has degree 1, 2, ..., 6, so
    every round does the same amount of work whatever the seed."""

    NODES, RADIAL, ANGULAR = 1024, 256, 512
    COUNT = 1
    EQH_TOL = 1e-8
    RIESZ_TOL = 1e-6
    # CLI seeds whose first disc has the given degree under identity-check's
    # draw (default_rng([seed, 0x1D]), degree first); the workload seed
    # picks one per degree.  The check confirms each degree, so a changed
    # draw shows as a failed check instead of a silently changed workload.
    CLI_SEEDS = {
        1: (1012, 1016, 1028, 1031, 1036, 1040, 1042, 1055),
        2: (1005, 1007, 1008, 1019, 1024, 1030, 1039, 1051),
        3: (1002, 1004, 1006, 1010, 1014, 1018, 1025, 1038),
        4: (1003, 1009, 1011, 1017, 1022, 1023, 1032, 1033),
        5: (1015, 1020, 1026, 1027, 1034, 1035, 1041, 1043),
        6: (1000, 1001, 1013, 1021, 1029, 1045, 1047, 1050),
    }

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 0x1DE])
        self.round = []
        for degree, cli_seeds in self.CLI_SEEDS.items():
            cli_seed = cli_seeds[int(rng.integers(len(cli_seeds)))]
            path = out_dir / f"identity-{degree}.json"
            argv = ["identity-check", "--count", str(self.COUNT),
                    "--tolerance", str(self.EQH_TOL), "--seed", str(cli_seed),
                    "--nodes", str(self.NODES), "--radial", str(self.RADIAL),
                    "--angular", str(self.ANGULAR), "--out", str(path)]
            self.round.append(Op(f"degree-{degree}", dict(
                argv=argv, path=path, degree=degree)))

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.inputs["argv"])
        return code, out.getvalue()

    def check(self, op: Op, result) -> dict:
        code, stdout = result
        path = op.inputs["path"]
        if code != 0:
            raise CheckFailed(f"identity-check exited with {code}")
        if stdout.strip() != str(path):
            raise CheckFailed("identity-check did not print its artifact path")
        text = path.read_text()
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as e:
            raise CheckFailed(f"artifact is not strict JSON: {e}")
        try:
            rows = doc["result"]["rows"]
            if len(rows) != self.COUNT:
                raise CheckFailed(f"{len(rows)} rows for {self.COUNT} discs")
            for row in rows:
                if row["degree"] != op.inputs["degree"]:
                    raise CheckFailed(f"disc degree {row['degree']}, "
                                      f"expected {op.inputs['degree']}")
                if max(row["eqH_residual"], row["eqH_residual_doubled"]) > self.EQH_TOL:
                    raise CheckFailed(f"eqH residual above {self.EQH_TOL}: {row}")
                if row["riesz_residual"] > self.RIESZ_TOL:
                    raise CheckFailed(f"Riesz residual above {self.RIESZ_TOL}: {row}")
        except (KeyError, TypeError) as e:
            raise CheckFailed(f"artifact lacks a result field: {e!r}") from None
        return {"cli.artifact_bytes": len(text.encode())}


WORKLOADS = {"siciak": Siciak, "hull": Hull, "identity": Identity}

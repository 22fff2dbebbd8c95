"""The benchmark tooling still fits the library: every layer the traced
perfbench run wraps exists, the kernel benchmark script imports and runs
its checks, and one operation of each perfbench workload (two of
`identity`) passes its own check, and the fingerprint script hashes a search as this process does.
The perfbench siciak inputs at the default budget also end at witnesses
that stay in the ball between the final nodes, the searches of the
siciak and hull rounds end clear of the origin inside the disc, and
their reported numbers are double precision, though the search ranks in
single."""
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discenv import envelope
from discenv.discs import AnalyticDiscLift
from discenv.projective import AffineLogPolyWeight, HomPolynomial, ZeroWeight

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer():
    tracer = _load("perfbench/tracing.py", "perfbench_tracing").Tracer()
    assert tracer.missing == {}


def test_bench_kernels_imports():
    bench = _load("benchmarks/bench_kernels.py", "bench_kernels")
    assert callable(bench.main)


def test_bench_kernels_runs():
    # one repeat of every timing: the script's agreement checks are asserts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert "min_norm_on_grid agrees with the Horner minimum" in out


def _run_checked(workload, label):
    op = next(op for op in workload.round if op.label == label)
    return workload.check(op, workload.run(op))


def test_workloads_pass_their_checks(tmp_path):
    workloads = _load("perfbench/workloads.py", "perfbench_workloads")
    assert _run_checked(workloads.Siciak(1, tmp_path), "C1-out")["envelope.gap"] >= 0
    assert _run_checked(workloads.Hull(1, tmp_path), "centre-0")["hull.cert_margin"] >= 0
    identity = workloads.Identity(1, tmp_path)
    # degree 6 has the highest trigonometric degree in the area term
    for label in ("degree-1", "degree-6"):
        assert _run_checked(identity, label)["cli.artifact_bytes"] > 0


def test_fingerprint_one_operation():
    # the script in a fresh process, and its digests in this one, agree:
    # a search's output and an identity-check artifact are functions of
    # the inputs alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "fingerprint.py"),
         "--seeds", "1", "--labels", "C1-out", "centre-0", "degree-1"],
        env=env, capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[:3] for line in lines] == [["siciak", "1", "C1-out"],
                                             ["hull", "1", "centre-0"],
                                             ["identity", "1", "degree-1"]]
    fingerprint = _load("benchmarks/fingerprint.py", "fingerprint")
    for workload, _seed, label, digest in lines:
        assert list(fingerprint.fingerprints(workload, 1, {label})) == \
            [(label, digest)]


@pytest.mark.parametrize("seed", [4, 8, 13, 15])
def test_siciak_interior_witness_clears_between_nodes(seed, tmp_path):
    # a 20 x 2000 search at these C1-in points ends at degree-6 witnesses
    # of value 0.0 that clear the ball at the 1024 final nodes but leave it
    # between them (least clearance at 2^18 nodes -0.063, -0.445, -0.125
    # and -0.732); the constant disc has the same value and stays inside
    workloads = _load("perfbench/workloads.py", "perfbench_workloads")
    siciak = workloads.Siciak(seed, tmp_path)
    i = next(op for op in siciak.round if op.label == "C1-in").inputs
    est = envelope.minimize(
        "sz", i["x"], i["ball"], siciak.weight, i["family"],
        dataclasses.replace(i["opt"], budget=2000), siciak.final_grid)
    fine = np.exp(2j * np.pi * np.arange(2 ** 18) / 2 ** 18)
    clearance = i["ball"].clearance_many(est.witness(fine))
    assert clearance.min() >= i["family"].eta


def test_searches_end_clear_of_the_origin_inside_the_disc(monkeypatch,
                                                         tmp_path):
    # the search's origin floor reads the boundary nodes alone; inside the
    # disc the functional's Jensen term keeps the end points from the
    # origin (least norm 0.054 over workload seeds 1-3 at 20 x 100)
    workloads = _load("perfbench/workloads.py", "perfbench_workloads")
    search, ends = envelope._search, []

    def recorded(spec, theta0s, seed, budget):
        thetas = search(spec, theta0s, seed, budget)
        ends.extend(AnalyticDiscLift(envelope._theta_to_coeffs(spec, t))
                    for t in thetas)
        return thetas

    monkeypatch.setattr(envelope, "_search", recorded)
    # under the siciak workload's zero weight no point searches; under
    # log|u_1 + 2|, which has no known least value, all four do
    siciak = workloads.Siciak(1, tmp_path)
    for op in siciak.round:
        i = op.inputs
        n = i["u"].size
        weight = AffineLogPolyWeight(HomPolynomial(
            ((1,) + (0,) * (n - 1), (0,) * n), (1.0 + 0j, 2.0 + 0j)))
        envelope.minimize("sz", i["x"], i["ball"], weight, i["family"],
                          i["opt"], siciak.final_grid)
    hull = workloads.Hull(1, tmp_path)
    for op in hull.round:
        hull.run(op)
    # the four siciak points and the four hull points search
    assert len(ends) == 8 * workloads.STARTS
    assert min(d.min_norm_on_grid() for d in ends) >= envelope.ORIGIN_FLOOR


def _rescored(mode, disc, domain, weight, eta, grid):
    value, feasible = envelope.evaluate_witness(mode, disc, domain, weight,
                                                eta, grid)
    assert feasible and disc.coeffs.dtype == np.complex128
    return value


def test_reported_numbers_are_double(tmp_path):
    # the search ranks its proposals in single precision; what it reports,
    # a certificate's value and an estimate's upper bound and witnesses,
    # is evaluate_witness's double value of a complex128 disc, to the bit
    workloads = _load("perfbench/workloads.py", "perfbench_workloads")
    hull = workloads.Hull(1, tmp_path)
    op = next(op for op in hull.round if op.label == "centre-0")
    cert = hull.run(op)
    assert type(cert.value) is float
    assert cert.value == _rescored("omega", cert.witness, hull.K.tube(hull.DELTA),
                                   ZeroWeight(), hull.family.eta, hull.final_grid)
    # an exterior siciak point (in C) under log|u_1 + 2|, which has no
    # known least value, as searched in
    # test_searches_end_clear_of_the_origin_inside_the_disc
    siciak = workloads.Siciak(1, tmp_path)
    i = next(op for op in siciak.round if op.label == "C1-out").inputs
    weight = AffineLogPolyWeight(HomPolynomial(((1,), (0,)), (1.0 + 0j, 2.0 + 0j)))
    est = envelope.minimize("sz", i["x"], i["ball"], weight, i["family"],
                            i["opt"], siciak.final_grid)
    assert len(est.trace) == i["opt"].starts and type(est.upper) is float
    assert est.upper == _rescored("sz", est.witness, i["ball"], weight,
                                  i["family"].eta, siciak.final_grid)
    for value, disc in est.witnesses:
        assert value == _rescored("sz", disc, i["ball"], weight,
                                  i["family"].eta, siciak.final_grid)

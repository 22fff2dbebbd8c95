"""Command-line interface: artifacts, exit codes, determinism."""
import argparse
import json
import math

import numpy as np
import pytest

from discenv import discs, envelope, hull
from discenv.cli import _write_artifact, build_parser, main
from discenv.errors import NumericalError
from discenv.projective import AffineBall, FsBall, ProjPoint, ZeroWeight


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def disc_1t_json():
    return {"m": 2, "degree": 1,
            "coeffs": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


def point_affine(u):
    return {"type": "affine", "coords": [[u.real, u.imag]]}


@pytest.fixture
def files(tmp_path):
    return {
        "disc": write(tmp_path / "d.json", disc_1t_json()),
        "zero": write(tmp_path / "w.json", {"type": "zero"}),
        "ball": write(tmp_path / "dom.json",
                      {"type": "affine_ball", "center": [[0.0, 0.0]],
                       "radius": 1.0}),
        "tmp": tmp_path,
    }


def read_artifact(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == "1"
    assert "config" in doc
    return doc


def test_functional_eval_lifted(files, capsys):
    out = str(files["tmp"] / "fv.json")
    rc = main(["functional", "eval", "--disc", files["disc"],
               "--weight", files["zero"], "--route", "lifted",
               "--out", out])
    assert rc == 0
    assert capsys.readouterr().out.strip() == out
    doc = read_artifact(out)
    assert doc["result"]["total"] == pytest.approx(0.5 * math.log(2.0),
                                                   abs=1e-10)


def test_functional_routes_agree(files):
    totals = {}
    for route in ("direct", "lifted"):
        out = str(files["tmp"] / f"fv_{route}.json")
        rc = main(["functional", "eval", "--disc", files["disc"],
                   "--weight", files["zero"], "--route", route,
                   "--out", out])
        assert rc == 0
        totals[route] = read_artifact(out)["result"]["total"]
    assert totals["direct"] == pytest.approx(totals["lifted"], abs=1e-8)


def test_malformed_json_exit_1(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{not json")
    rc = main(["functional", "eval", "--disc", str(bad),
               "--weight", files["zero"], "--route", "lifted",
               "--out", str(files["tmp"] / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_identity_check_passes(files):
    out = str(files["tmp"] / "idc.json")
    rc = main(["identity-check", "--count", "5", "--out", out])
    assert rc == 0
    doc = read_artifact(out)
    assert doc["result"]["all_within_tolerance"]
    assert len(doc["result"]["rows"]) == 5


def test_identity_check_bytes_independent_of_out_path(files):
    # the embedded configuration leaves out the output path
    outs = []
    for sub in ("a", "deeper/directory"):
        (files["tmp"] / sub).mkdir(parents=True)
        out = str(files["tmp"] / sub / "idc.json")
        assert main(["identity-check", "--count", "2", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    assert "out" not in json.loads(outs[0])["config"]


def test_identity_check_zero_discs(files, capsys):
    # checking no disc passes nothing: a usage error, and no artifact
    for count in ("0", "-1"):
        out = files["tmp"] / f"idc{count}.json"
        rc = main(["identity-check", "--count", count, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "config error:" in err
        assert not out.exists()


@pytest.mark.parametrize("angular", ["0", "-2"])
def test_identity_check_nonpositive_angular(files, capsys, angular):
    out = files["tmp"] / "idc_angular.json"
    rc = main(["identity-check", "--count", "1", "--angular", angular,
               "--out", str(out)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_identity_check_impossible_tolerance(files):
    out = str(files["tmp"] / "idc_tight.json")
    rc = main(["identity-check", "--count", "3", "--tolerance", "1e-15",
               "--out", out])
    assert rc == 4


def test_identity_check_failure_exit_code(files, capsys):
    # a coarse grid: eqH residual about 6.5e-6, above the default 1e-8
    out = str(files["tmp"] / "idc_coarse.json")
    rc = main(["identity-check", "--count", "1", "--nodes", "128",
               "--radial", "24", "--angular", "48", "--seed", "3",
               "--out", out])
    assert rc == 4
    err = capsys.readouterr().err
    assert "identity failed" in err and "config error" not in err
    row = read_artifact(out)["result"]["rows"][0]
    assert 1e-8 < row["eqH_residual"] < 1e-4
    assert read_artifact(out)["result"]["all_within_tolerance"] is False


def test_envelope_cli_and_determinism(files, capsys):
    args = ["envelope", "--point",
            write(files["tmp"] / "p.json", point_affine(2.0 + 0j)),
            "--domain", files["ball"], "--weight", files["zero"],
            "--mode", "sz", "--degree", "2", "--starts", "4",
            "--budget", "200", "--seed", "11"]
    outs = []
    for i in range(2):
        out = str(files["tmp"] / f"env{i}.json")
        rc = main(args + ["--out", out])
        assert rc == 0
        capsys.readouterr()
        outs.append(open(out, "rb").read())
    a = json.loads(outs[0])
    b = json.loads(outs[1])
    assert a["result"] == b["result"]  # byte-identity modulo the out path
    assert a["result"]["upper"] <= math.log(2.0) + 0.1


def test_grid_csv(files):
    pts = write(files["tmp"] / "pts.json",
                {"points": [point_affine(1.5 + 0j), point_affine(2.0 + 0j)]})
    out = str(files["tmp"] / "grid.csv")
    rc = main(["grid", "--points", pts, "--domain", files["ball"],
               "--weight", files["zero"], "--mode", "sz", "--degree", "2",
               "--starts", "3", "--budget", "150", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "point,upper,lower,gap,degree"
    assert len(lines) == 3


@pytest.mark.parametrize("points", [[], [{"type": "bogus",
                                          "coords": [[0.5, 0.0]]}]],
                         ids=["empty", "bogus-type"])
def test_grid_bad_points_exit_1(files, points, capsys):
    pts = write(files["tmp"] / "pts.json", {"points": points})
    rc = main(["grid", "--points", pts, "--domain", files["ball"],
               "--weight", files["zero"], "--mode", "sz",
               "--out", str(files["tmp"] / "grid.csv")])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


def test_envelope_point_dimension_mismatch_exit_1(files, capsys):
    # a point of P^2 against a ball in C^1
    p = write(files["tmp"] / "p2.json",
              {"type": "affine", "coords": [[0.2, 0.0], [0.1, 0.0]]})
    rc = main(["envelope", "--point", p, "--domain", files["ball"],
               "--weight", files["zero"], "--mode", "sz", "--degree", "2",
               "--starts", "2", "--budget", "20",
               "--out", str(files["tmp"] / "e.json")])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hull", "test", "--bogus", "1"],
    ["hull", "normalize", "--disc", "d.json", "--r", "0.9", "--seed", "3",
     "--out", "o.json"],
    ["functional", "eval", "--disc", "d.json", "--weight", "w.json",
     "--route", "lifted", "--seed", "3", "--out", "o.json"],
    ["functional", "eval", "--disc", "d.json", "--weight", "w.json",
     "--route", "sz", "--out", "o.json"],
    ["envelope", "--point", "p.json", "--domain", "b.json", "--weight",
     "w.json", "--mode", "sz", "--radial", "64", "--out", "o.json"],
    ["disc-structure", "make", "--x", "x.json", "--w", "w.json",
     "--domain", "b.json", "--angular", "64", "--out", "o.json"],
    ["identity-check"],
    ["nope"],
], ids=["unknown-option", "normalize-seed", "functional-seed",
        "functional-route-sz", "envelope-radial", "make-angular",
        "missing-out", "unknown-command"])
def test_usage_error_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "config error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["hull", "test", "--help"])
    assert e.value.code == 0
    assert "--lambda" in capsys.readouterr().out


def test_artifact_config_records_read_options(files):
    out = str(files["tmp"] / "norm.json")
    assert main(["hull", "normalize", "--disc", files["disc"], "--r", "0.9",
                 "--out", out]) == 0
    assert sorted(read_artifact(out)["config"]) == \
        ["command", "disc", "nodes", "r", "subcommand"]


def test_identity_check_second_disc_builds_no_table(files):
    # the tables of every node set are built for the first disc and only
    # read for the next (degrees 1 to 6 share one table width)
    def misses():
        return sum(f.cache_info().misses for f in
                   (discs._power_table, discs._circle_nodes,
                    discs._radial_rule, discs.validation_grid))

    args = ["identity-check", "--count", "1", "--tolerance", "1e-3",
            "--nodes", "128", "--radial", "24", "--angular", "48",
            "--out", str(files["tmp"] / "id.json")]
    assert main(args + ["--seed", "1"]) == 0
    before = misses()
    for seed in ("2", "3"):
        assert main(args + ["--seed", seed]) == 0
    assert misses() == before


# one small identity-check, shared by the tests of the one parser per process
def _small_identity(files, name="id.json"):
    return ["identity-check", "--count", "1", "--tolerance", "1e-3",
            "--nodes", "128", "--radial", "24", "--angular", "48",
            "--out", str(files["tmp"] / name)]


def test_shared_parser_default_after_explicit_option(files):
    first = _small_identity(files, "a.json")
    second = _small_identity(files, "b.json")
    assert main(first + ["--seed", "3"]) == 0
    assert main(second) == 0
    assert read_artifact(first[-1])["config"]["seed"] == 3
    assert read_artifact(second[-1])["config"]["seed"] == 7


def test_shared_parser_after_usage_error(files, capsys):
    assert main(_small_identity(files, "bad.json") + ["--count", "0"]) == 1
    assert "config error:" in capsys.readouterr().err
    argv = _small_identity(files)
    assert main(argv) == 0
    config = read_artifact(argv[-1])["config"]
    assert (config["command"], config["count"], config["seed"]) == \
        ("identity-check", 1, 7)


def test_shared_parser_after_help(files, capsys):
    with pytest.raises(SystemExit) as e:
        main(["identity-check", "--help"])
    assert e.value.code == 0
    argv = _small_identity(files)
    assert main(argv) == 0
    assert read_artifact(argv[-1])["config"]["angular"] == 48


def test_later_calls_build_no_parser(files, monkeypatch):
    # the parser (11 sub-parsers) is built once per process, not per call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(_small_identity(files) + ["--seed", "1"]) == 0
    built.clear()
    for seed in ("2", "3"):
        assert main(_small_identity(files) + ["--seed", seed]) == 0
    assert built == []


def test_parser_defaults_are_the_library_defaults():
    fam, opt = envelope.DiscFamilySpec(), envelope.OptimizerConfig()
    parse = build_parser().parse_args
    args = parse(["envelope", "--point", "x", "--domain", "d", "--weight",
                  "w", "--mode", "sz", "--out", "o"])
    assert args.nodes == discs.DEFAULT_NODES
    assert (args.degree, args.bound, args.eta) == (fam.degree, fam.bound, fam.eta)
    assert (args.starts, args.budget, args.seed) == (opt.starts, opt.budget, opt.seed)
    for argv in (["identity-check", "--out", "o"],
                 ["functional", "eval", "--disc", "d", "--weight", "w",
                  "--route", "direct", "--out", "o"]):
        args = parse(argv)
        assert args.nodes == discs.DEFAULT_NODES
        assert (args.radial, args.angular) == (discs.DEFAULT_RADIAL,
                                               discs.DEFAULT_ANGULAR)


def test_hull_test_cli(files):
    # 64 samples keep the sampled tube gap (~pi/128) well under delta
    th = 2.0 * np.pi * np.arange(64) / 64
    samples = [[[1.0 / math.sqrt(2), 0.0],
                [math.cos(t) / math.sqrt(2), math.sin(t) / math.sqrt(2)]]
               for t in th]
    K = write(files["tmp"] / "K.json", {"samples": samples})
    p = write(files["tmp"] / "x.json",
              {"type": "proj", "coords": [[1.0, 0.0], [0.0, 0.0]]})
    out = str(files["tmp"] / "cert.json")
    rc = main(["hull", "test", "--point", p, "--set", K,
               "--lambda", str(0.5 * math.log(2.0)), "--eps", "0.01",
               "--delta", "0.05", "--starts", "4", "--budget", "200",
               "--out", out])
    assert rc == 0
    doc = read_artifact(out)
    assert doc["result"]["value"] <= 0.5 * math.log(2.0) + 1e-6


def test_hull_normalize_cli(files):
    out = str(files["tmp"] / "norm.json")
    rc = main(["hull", "normalize", "--disc", files["disc"], "--r", "0.999",
               "--out", out])
    assert rc == 0
    doc = read_artifact(out)
    assert doc["result"]["max_abs_boundary_lognorm"] < 1e-3
    assert doc["result"]["neg_log_center_norm"] == pytest.approx(
        0.5 * math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("argv", [
    ["functional", "eval", "--route", "direct"],
    ["functional", "eval", "--route", "lifted"],
    ["hull", "normalize", "--r", "0.9"],
], ids=["direct", "lifted", "normalize"])
def test_disc_through_origin_exit_3(files, argv, capsys):
    # f = (t, t/2) passes through the origin at t = 0
    disc = write(files["tmp"] / "d0.json",
                 {"m": 2, "degree": 1,
                  "coeffs": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]]})
    if argv[0] == "functional":
        argv = argv + ["--weight", files["zero"]]
    out = files["tmp"] / "o.json"
    rc = main(argv + ["--disc", disc, "--out", str(out)])
    assert rc == 3
    assert "numerical error:" in capsys.readouterr().err
    assert not out.exists()


def test_disc_structure_make_cli(files):
    x = write(files["tmp"] / "sx.json",
              {"coords": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]})
    w = write(files["tmp"] / "sw.json",
              {"coords": [[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]})
    dom = write(files["tmp"] / "hyp.json",
                {"type": "hyperplane_complement",
                 "normal": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    out = str(files["tmp"] / "sd.json")
    rc = main(["disc-structure", "make", "--x", x, "--w", w,
               "--domain", dom, "--out", out])
    assert rc == 0
    doc = read_artifact(out)
    assert doc["result"]["feasibility"]["feasible"]
    assert doc["result"]["disc"]["degree"] == 1


def test_disc_structure_epsilon_cli(files):
    x = write(files["tmp"] / "ex.json",
              {"coords": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]})
    dom = write(files["tmp"] / "hyp2.json",
                {"type": "hyperplane_complement",
                 "normal": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    out = str(files["tmp"] / "eps.json")
    rc = main(["disc-structure", "epsilon-test", "--x", x,
               "--weight", files["zero"], "--domain", dom,
               "--eps", "1e-2", "--out", out])
    assert rc == 0
    doc = read_artifact(out)
    assert doc["result"]["success"]


def test_unknown_domain_type_exit_1(files):
    bad = write(files["tmp"] / "baddom.json", {"type": "nope"})
    rc = main(["functional", "eval", "--disc", files["disc"],
               "--weight", files["zero"], "--domain", bad,
               "--route", "lifted", "--out", str(files["tmp"] / "o.json")])
    assert rc == 1


def test_linalg_error_exit_3(files, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it is a numerical failure, exit 3
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr("discenv.cli.omega_functional_lifted", fail)
    rc = main(["functional", "eval", "--disc", files["disc"],
               "--weight", files["zero"], "--route", "lifted",
               "--out", str(files["tmp"] / "o.json")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["direct", "lifted", "jensen"])
def test_infeasible_exit_2(files, route, capsys):
    # disc (1, t) boundary leaves a tiny ball around [1:0]
    dom = write(files["tmp"] / "tiny.json",
                {"type": "fs_ball",
                 "center": [[1.0, 0.0], [0.0, 0.0]], "radius": 0.1})
    rc = main(["functional", "eval", "--disc", files["disc"],
               "--weight", files["zero"], "--domain", dom,
               "--route", route, "--out", str(files["tmp"] / "o.json")])
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err
    assert not (files["tmp"] / "o.json").exists()


def test_artifact_rejects_non_finite_floats(tmp_path):
    path = tmp_path / "a.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(NumericalError):
            _write_artifact(str(path), {}, {"total": bad})
        assert not path.exists()
    _write_artifact(str(path), {}, {"total": "-inf"})
    assert read_artifact(path)["result"] == {"total": "-inf"}


def _float_option_commands(files):
    """A valid command line per command; argparse keeps an option's last
    value, so appending a bad one overrides the valid one."""
    tmp = files["tmp"]
    circle = [[[1.0, 0.0], [math.cos(t), math.sin(t)]]
              for t in 2.0 * np.pi * np.arange(8) / 8]
    K = write(tmp / "K.json", {"samples": circle})
    x = write(tmp / "x.json", point_affine(0.5 + 0j))
    xh = write(tmp / "xh.json", {"coords": [[1.0, 0.0], [0.2, 0.0]]})
    small = ["--starts", "1", "--budget", "2", "--nodes", "64"]
    hull = ["--point", x, "--set", K] + small
    return {
        "identity-check": ["identity-check", "--count", "1", "--nodes", "64",
                           "--radial", "8", "--angular", "16"],
        "hull test": ["hull", "test", "--lambda", "0.3", "--eps", "0.01",
                      "--delta", "0.05"] + hull,
        "hull schedule": ["hull", "schedule", "--deltas", "0.05"] + hull,
        "hull normalize": ["hull", "normalize", "--disc", files["disc"],
                           "--r", "0.9"],
        "epsilon-test": ["disc-structure", "epsilon-test", "--x", xh,
                         "--weight", files["zero"], "--domain", files["ball"],
                         "--nodes", "64"],
    }


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, template", [
    ("identity-check", "--tolerance", "{}"),
    ("hull test", "--lambda", "{}"),
    ("hull test", "--eps", "{}"),
    ("hull test", "--delta", "{}"),
    ("hull test", "--eta", "{}"),
    ("hull test", "--bound", "{}"),
    ("hull schedule", "--deltas", "{},0.04"),
    ("hull normalize", "--r", "{}"),
    ("epsilon-test", "--eps", "{}"),
], ids=["tolerance", "lambda", "eps", "delta", "eta", "bound", "deltas", "r",
        "epsilon-test-eps"])
def test_non_finite_float_option_exit_1(files, command, flag, template, bad,
                                        capsys):
    out = files["tmp"] / "o.json"
    argv = _float_option_commands(files)[command]
    rc = main(argv + [flag, template.format(bad), "--out", str(out)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_negative_tolerance_exit_1(files, capsys):
    out = files["tmp"] / "o.json"
    rc = main(["identity-check", "--count", "1", "--tolerance", "-1",
               "--out", str(out)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


_CIRCLE_SAMPLES = [[[1.0, 0.0], [math.cos(t), math.sin(t)]]
                   for t in 2.0 * np.pi * np.arange(64) / 64]


def _circle_hull(files, point):
    """hull test on the 64-point circle {[1 : e^{it}]} at [1 : point],
    delta 0.05, at a small budget."""
    K = write(files["tmp"] / "K64.json", {"samples": _CIRCLE_SAMPLES})
    x = write(files["tmp"] / "hx.json",
              {"type": "proj", "coords": [[1.0, 0.0], [point, 0.0]]})
    return ["hull", "test", "--point", x, "--set", K, "--eps", "0.01",
            "--delta", "0.05", "--starts", "2", "--budget", "20"]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_hull_schedule_cli(files, capsys):
    # the circle's centre, where the search finds a disc in both tubes
    K = write(files["tmp"] / "K64.json", {"samples": _CIRCLE_SAMPLES})
    x = write(files["tmp"] / "hx.json",
              {"type": "proj", "coords": [[1.0, 0.0], [0.0, 0.0]]})
    out = files["tmp"] / "schedule.json"
    rc = main(["hull", "schedule", "--point", x, "--set", K, "--deltas",
               "0.1,0.05", "--starts", "2", "--budget", "20", "--out", str(out)])
    assert rc == 0 and capsys.readouterr().out.strip() == str(out)
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    result = doc["result"]
    assert result["deltas"] == [0.1, 0.05]
    est = result["estimates"]
    assert all(v is not None for v in est) and est == sorted(est)
    assert result["final"] == est[-1]
    for w in result["witnesses"]:
        assert w is None or discs.AnalyticDiscLift.from_json(w).to_json() == w


def test_hull_test_below_zero_threshold_exit_2(files):
    # [1:1] is a point of K: the constant disc there is admissible, with
    # value 0, which is not below lambda + eps = -0.99
    out = files["tmp"] / "cert.json"
    rc = main(_circle_hull(files, 1.0) + ["--lambda", "-1", "--budget", "5",
                                          "--out", str(out)])
    assert rc == 2
    result = read_artifact(out)["result"]
    assert result["certified"] is False and result["best_value"] == 0.0


@pytest.mark.parametrize("point, extra", [
    (0.3, ["--lambda", "0", "--eta=-0.5"]),
    (0.1, ["--lambda", "0.35", "--eta=-0.5"]),
    (0.1, ["--lambda", "0.35", "--eta", "0"]),
    (0.1, ["--lambda", "0.35", "--bound", "0"]),
    (0.1, ["--lambda", "0.35", "--bound=-1"]),
    (0.1, ["--lambda", "0.35", "--degree", "0"]),
    (0.1, ["--lambda", "0.35", "--degree=-1"]),
    (0.1, ["--lambda", "0.35", "--starts", "0"]),
    (0.1, ["--lambda", "0.35", "--starts=-1"]),
    (0.1, ["--lambda", "0.35", "--budget=-5"]),
], ids=["eta-constant-disc", "eta-search", "eta-zero", "bound-zero",
        "bound-negative", "degree-zero", "degree-negative", "starts-zero",
        "starts-negative", "budget-negative"])
def test_out_of_range_search_setting_exit_1(files, point, extra, capsys):
    # a negative eta once certified [1:0.3], 0.49 rad from the circle, with
    # the constant disc, and at [1:0.1] a witness that leaves the tube
    out = files["tmp"] / "cert.json"
    rc = main(_circle_hull(files, point) + extra + ["--out", str(out)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def _envelope_on(files, domain):
    dom = write(files["tmp"] / "edom.json", domain)
    x = write(files["tmp"] / "ex.json",
              {"type": "proj", "coords": [[1.0, 0.0], [0.0, 0.0]]})
    return ["envelope", "--point", x, "--domain", dom, "--weight",
            files["zero"], "--mode", "omega", "--starts", "1", "--budget", "2",
            "--nodes", "64", "--out", str(files["tmp"] / "env.json")]


_ORIGIN = [[1.0, 0.0], [0.0, 0.0]]


def _tiny_tube_hull(files):
    # a tube too thin to hold its own samples; argparse keeps the last --delta
    return _circle_hull(files, 0.3) + ["--lambda", "0.35", "--delta", "1e-9",
                                       "--out", str(files["tmp"] / "env.json")]


@pytest.mark.parametrize("argv", [
    lambda f: _envelope_on(f, {"type": "fs_ball", "center": _ORIGIN,
                               "radius": 0.0}),
    lambda f: _envelope_on(f, {"type": "fs_ball", "center": _ORIGIN,
                               "radius": -0.2}),
    lambda f: _envelope_on(f, {"type": "hyperplane_complement",
                               "normal": [[0.0, 0.0], [0.0, 0.0]]}),
    lambda f: _envelope_on(f, {"type": "intersection", "members": []}),
    lambda f: _envelope_on(f, {"type": "affine_ball", "center": [[0.0, 0.0]],
                               "radius": -1.0}),
    lambda f: _envelope_on(f, {"type": "tube", "samples": [_ORIGIN],
                               "delta": -0.1}),
    _tiny_tube_hull,
], ids=["fs-radius-zero", "fs-radius-negative", "zero-normal",
        "empty-intersection", "affine-radius-negative", "tube-delta-negative",
        "hull-tube-delta-tiny"])
def test_degenerate_domain_exit_1(files, argv, capsys):
    rc = main(argv(files))
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not (files["tmp"] / "env.json").exists()


def test_unsampleable_domain_exit_2(files, capsys):
    # no draw lands in an FS ball of radius 1e-9: the candidate library's
    # sampler gives up after a fixed number of rounds instead of hanging
    rc = main(_envelope_on(files, {"type": "fs_ball", "center": _ORIGIN,
                                   "radius": 1e-9}))
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err
    assert not (files["tmp"] / "env.json").exists()


_NO_FILE = object()  # the input path names no file


@pytest.mark.parametrize("flag, obj, msg", [
    ("--point", {"type": "proj", "coords": [1, 0]}, "malformed input"),
    ("--domain", {"type": "fs_ball", "center": _ORIGIN, "radius": None},
     "not a number"),
    ("--point", _NO_FILE, "cannot read"),
    ("--point", {"type": "proj"}, "missing key 'coords'"),
    ("--point", [[1.0, 0.0], [0.0, 0.0]], "must be a JSON object"),
], ids=["bare-number-coords", "null-radius", "unreadable-file", "missing-key",
        "point-not-object"])
def test_malformed_input_exit_1(files, flag, obj, msg, capsys):
    bad = files["tmp"] / "malformed.json"
    if obj is not _NO_FILE:
        write(bad, obj)
    argv = _envelope_on(files, {"type": "fs_ball", "center": _ORIGIN,
                                "radius": 0.5})
    rc = main(argv + [flag, str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "malformed.json" in err and msg in err
    assert not (files["tmp"] / "env.json").exists()


def _unwritable(files, where):
    if where == "missing-dir":
        return str(files["tmp"] / "no-such-dir" / "out")
    return str(files["tmp"])  # an existing directory


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["identity-check", "grid"])
def test_unwritable_out_exit_1(files, command, where, capsys):
    out = _unwritable(files, where)
    if command == "identity-check":
        argv = ["identity-check", "--count", "1", "--nodes", "64",
                "--radial", "8", "--angular", "16", "--out", out]
    else:
        pts = write(files["tmp"] / "pts.json",
                    {"points": [point_affine(2.0 + 0j)]})
        argv = ["grid", "--points", pts, "--domain", files["ball"],
                "--weight", files["zero"], "--mode", "sz", "--degree", "1",
                "--starts", "1", "--budget", "10", "--out", out]
    rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert f"config error: cannot write {out}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _searching_argv(files, command, out):
    """argv of a command that runs an envelope search before it writes."""
    if command == "grid":
        pts = write(files["tmp"] / "pts.json",
                    {"points": [point_affine(2.0 + 0j)]})
        return ["grid", "--points", pts, "--domain", files["ball"],
                "--weight", files["zero"], "--mode", "sz", "--degree", "1",
                "--starts", "1", "--budget", "10", "--out", out]
    if command == "envelope":
        return _envelope_on(files, {"type": "affine_ball",
                                    "center": [[0.0, 0.0]], "radius": 1.0}
                            )[:-1] + [out]
    return _circle_hull(files, 0.3) + ["--lambda", "0.35", "--out", out]


@pytest.mark.parametrize("command", ["grid", "envelope", "hull-test"])
def test_unwritable_out_fails_before_search(files, command, monkeypatch,
                                            capsys):
    def no_search(*args, **kwargs):
        pytest.fail("the search ran although --out cannot be written")

    monkeypatch.setattr(envelope, "minimize", no_search)
    monkeypatch.setattr(hull, "minimize", no_search)
    out = _unwritable(files, "missing-dir")
    assert main(_searching_argv(files, command, out)) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot write {out}" in err
    assert "Traceback" not in err
    assert not (files["tmp"] / "no-such-dir").exists()


@pytest.mark.parametrize("exponents", [[0, 0, 1], [1, 0, 0]],
                         ids=["0,0,1", "1,0,0"])
def test_weight_of_other_width_exit_1(files, exponents, capsys):
    # the disc (1, t) lies in C^2; the weight's terms are in 3 variables
    weight = write(files["tmp"] / "w3.json", {"type": "log_poly", "terms": [
        {"exponents": exponents, "coeff": [1.0, 0.0]}]})
    out = files["tmp"] / "o.json"
    rc = main(["functional", "eval", "--disc", files["disc"], "--weight",
               weight, "--route", "lifted", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind, exponents, route", [
    ("log_poly", [0, 0], "lifted"),
    ("affine_log_poly", [0], "jensen"),
], ids=["log_poly", "affine_log_poly"])
def test_constant_log_poly_weight_exit_1(files, kind, exponents, route, capsys):
    weight = write(files["tmp"] / "const.json", {"type": kind, "terms": [
        {"exponents": exponents, "coeff": [2.0, 0.0]}]})
    rc = main(["functional", "eval", "--disc", files["disc"],
               "--weight", weight, "--route", route,
               "--out", str(files["tmp"] / "o.json")])
    assert rc == 1
    assert "total degree at least 1" in capsys.readouterr().err
    assert not (files["tmp"] / "o.json").exists()


_LOG_POLY = {"type": "log_poly",
             "terms": [{"exponents": [1, 1], "coeff": [1.0, 0.0]}]}
_AFFINE_LOG_POLY = {"type": "affine_log_poly",
                    "terms": [{"exponents": [1], "coeff": [1.0, 0.0]},
                              {"exponents": [0], "coeff": [2.0, 0.0]}]}


def _eval_with(route):
    return lambda f, w: ["functional", "eval", "--disc", f["disc"],
                         "--weight", w, "--route", route]


def _search_with(command, mode, domain):
    def argv(f, w):
        dom = write(f["tmp"] / "wdom.json", domain)
        if command == "grid":
            where = ["--points", write(f["tmp"] / "wpts.json",
                                       {"points": [point_affine(0.3 + 0j)]})]
        else:
            where = ["--point", write(f["tmp"] / "wx.json", point_affine(0.3 + 0j))]
        return [command, *where, "--domain", dom, "--weight", w, "--mode", mode,
                "--starts", "1", "--budget", "2", "--nodes", "64"]
    return argv


_AFFINE_BALL = {"type": "affine_ball", "center": [[0.0, 0.0]], "radius": 1.0}
_FS_BALL = {"type": "fs_ball", "center": _ORIGIN, "radius": 0.5}


@pytest.mark.parametrize("weight, argv, chart", [
    (_LOG_POLY, _eval_with("jensen"), "affine chart"),
    (_AFFINE_LOG_POLY, _eval_with("direct"), "P^n"),
    (_AFFINE_LOG_POLY, _eval_with("lifted"), "P^n"),
    (_LOG_POLY, _search_with("envelope", "sz", _AFFINE_BALL), "affine chart"),
    (_AFFINE_LOG_POLY, _search_with("envelope", "omega", _FS_BALL), "P^n"),
    (_LOG_POLY, _search_with("grid", "sz", _AFFINE_BALL), "affine chart"),
], ids=["jensen-log_poly", "direct-affine_log_poly", "lifted-affine_log_poly",
        "envelope-sz-log_poly", "envelope-omega-affine_log_poly",
        "grid-sz-log_poly"])
def test_weight_in_the_wrong_chart_exit_1(files, weight, argv, chart, capsys):
    # a log_poly weight lives on P^n and an affine_log_poly weight in the
    # affine chart; used in the other one, the run names both and exits 1
    w = write(files["tmp"] / "wchart.json", weight)
    out = files["tmp"] / "o.out"
    rc = main(argv(files, w) + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert weight["type"] in err and chart in err
    assert not out.exists()


def _reading(command):
    """argv of a command on valid input files, writing o.out; a later flag
    replaces one of its inputs (argparse keeps the last)."""
    def argv(f):
        out = ["--out", str(f["tmp"] / "o.out")]
        if command == "functional":
            return ["functional", "eval", "--disc", f["disc"], "--weight",
                    f["zero"], "--route", "lifted"] + out
        if command == "envelope":
            return _envelope_on(f, _FS_BALL)[:-2] + out
        if command == "hull":
            return _circle_hull(f, 0.3) + ["--lambda", "0.35"] + out
        x = write(f["tmp"] / "sx.json",
                  {"coords": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]})
        w = write(f["tmp"] / "sw.json",
                  {"coords": [[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]})
        dom = write(f["tmp"] / "hyp.json",
                    {"type": "hyperplane_complement",
                     "normal": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
        return ["disc-structure", "make", "--x", x, "--w", w,
                "--domain", dom] + out
    return argv


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("command, flag, obj", [
    ("functional", "--disc", lambda x: {
        "m": 2, "degree": 1,
        "coeffs": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [x, 0.0]]]}),
    ("functional", "--weight", lambda x: {"type": "constant", "value": x}),
    ("functional", "--weight", lambda x: {"type": "log_poly", "terms": [
        {"exponents": [1, 0], "coeff": [1.0, x]}]}),
    ("functional", "--domain", lambda x: {"type": "affine_ball",
                                          "center": [[0.0, x]], "radius": 1.0}),
    ("functional", "--domain", lambda x: {"type": "hyperplane_complement",
                                          "normal": [[1.0, 0.0], [x, 0.0]]}),
    ("functional", "--domain", lambda x: {"type": "tube", "delta": 0.1,
                                          "samples": [[[1.0, 0.0], [x, 0.0]]]}),
    ("envelope", "--point", lambda x: {"type": "proj",
                                       "coords": [[1.0, 0.0], [x, 0.0]]}),
    ("hull", "--set", lambda x: {"samples": [[[1.0, 0.0], [0.0, x]]]}),
    ("disc-structure", "--x", lambda x: {
        "coords": [[x, 0.0], [1.0, 0.0], [1.0, 0.0]]}),
], ids=["disc-coeff", "constant-weight", "weight-coeff", "domain-centre",
        "domain-normal", "tube-sample", "point", "set-sample", "structure-x"])
def test_non_finite_input_exit_1(files, command, flag, obj, bad, capsys):
    # json.load accepts NaN and Infinity: a file that holds one is a config
    # error that names it, found as the file is decoded, before any run
    path = write(files["tmp"] / "nonfinite.json", obj(bad))
    rc = main(_reading(command)(files) + [flag, path])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config error: {path}:" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (files["tmp"] / "o.out").exists()


@pytest.mark.parametrize("pair", [[True, False], [1.0, False], [1.0]],
                         ids=["true-false", "false", "short"])
@pytest.mark.parametrize("command, flag, obj", [
    ("functional", "--domain", lambda p: {"type": "affine_ball",
                                          "center": [p], "radius": 1.0}),
    ("envelope", "--point", lambda p: {"type": "proj",
                                       "coords": [[1.0, 0.0], p]}),
], ids=["domain-centre", "point"])
def test_non_number_pair_exit_1(files, command, flag, obj, pair, capsys):
    # a bool is an int to Python: [true, false] is not the number 1
    path = write(files["tmp"] / "nonnumber.json", obj(pair))
    rc = main(_reading(command)(files) + [flag, path])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config error: {path}:" in err and "Traceback" not in err
    assert not (files["tmp"] / "o.out").exists()


@pytest.mark.parametrize("command, flag, obj, bad", [
    ("functional", "--domain", lambda v: {"type": "fs_ball", "center": _ORIGIN,
                                          "radius": v}, True),
    ("functional", "--domain", lambda v: {"type": "affine_ball",
                                          "center": [[0.0, 0.0]], "radius": v}, True),
    ("functional", "--domain", lambda v: {"type": "affine_ball",
                                          "center": [[0.0, 0.0]], "radius": v}, "0.5"),
    ("functional", "--domain", lambda v: {"type": "tube", "delta": v,
                                          "samples": [_ORIGIN]}, True),
    ("functional", "--domain", lambda v: {"type": "tube", "delta": v,
                                          "samples": [_ORIGIN]}, "0.5"),
    ("functional", "--weight", lambda v: {"type": "constant", "value": v}, True),
    ("functional", "--weight", lambda v: {"type": "constant", "value": v}, "0.5"),
    ("hull", "--set", lambda v: {"samples": _CIRCLE_SAMPLES, "connected": v}, "no"),
    ("hull", "--set", lambda v: {"samples": _CIRCLE_SAMPLES, "connected": v}, 1),
], ids=["fs-ball-radius-true", "affine-ball-radius-true",
        "affine-ball-radius-string", "tube-delta-true", "tube-delta-string",
        "constant-weight-true", "constant-weight-string", "connected-string",
        "connected-number"])
def test_non_number_scalar_exit_1(files, command, flag, obj, bad, capsys):
    # float(true) is 1.0, float("0.5") is 0.5 and bool("no") is True: a
    # scalar of the wrong JSON type is a config error that names the file
    path = write(files["tmp"] / "nonnumber.json", obj(bad))
    rc = main(_reading(command)(files) + [flag, path])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config error: {path}:" in err and "Traceback" not in err
    assert not (files["tmp"] / "o.out").exists()


@pytest.mark.parametrize("exponents", [[0.5, 0.5], [-1, 2]],
                         ids=["0.5,0.5", "-1,2"])
def test_non_integer_exponents_exit_1(files, exponents, capsys):
    # both have total degree 1, but neither is a polynomial
    weight = write(files["tmp"] / "wexp.json", {"type": "log_poly", "terms": [
        {"exponents": exponents, "coeff": [1.0, 0.0]}]})
    out = files["tmp"] / "o.json"
    rc = main(["functional", "eval", "--disc", files["disc"], "--weight",
               weight, "--route", "lifted", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "non-negative integers" in err
    assert not out.exists()


def _witness_twice(mode):
    """evaluate_witness on one admissible disc, twice; 0 as a CLI run."""
    disc = discs.AnalyticDiscLift(np.array([[1.0, 0.0], [0.0, 0.2]]))
    if mode == "omega":
        domain = FsBall(ProjPoint(np.array([1.0, 0.0])), 0.5)
    else:
        domain = AffineBall(np.zeros(1, dtype=complex), 1.0)
    for _ in range(2):
        value, feasible = envelope.evaluate_witness(
            mode, disc, domain, ZeroWeight(), 1e-3, discs.BoundaryGrid(64))
        assert feasible and math.isfinite(value)
    return 0


def _functional_in_ball(files, route):
    dom = write(files["tmp"] / "fsb.json",
                {"type": "fs_ball", "center": _ORIGIN, "radius": 1.0})
    return main(["functional", "eval", "--disc", files["disc"], "--weight",
                 files["zero"], "--domain", dom, "--route", route,
                 "--out", str(files["tmp"] / "fv.json")])


@pytest.mark.parametrize("run, nodes", [
    (lambda f: main(_small_identity(f)), [128, 256]),
    (lambda f: _functional_in_ball(f, "direct"), [1024]),
    (lambda f: _functional_in_ball(f, "lifted"), [1024]),
    (lambda f: _functional_in_ball(f, "jensen"), [1024]),
    (lambda f: _witness_twice("omega"), [64, 64]),
    (lambda f: _witness_twice("sz"), [64, 64]),
    (lambda f: main(_reading("disc-structure")(f)), [256]),
], ids=["identity-check", "functional-direct", "functional-lifted",
        "functional-jensen", "witness-omega", "witness-sz", "structure-make"])
def test_one_boundary_evaluation_per_disc_and_grid(files, monkeypatch, run,
                                                   nodes):
    # every evaluation on a BoundaryGrid reads its power table once
    # (min_norm_on_grid and the area term read theirs elsewhere):
    # identity-check evaluates its disc once on each of its two grids,
    # functional eval --domain once, evaluate_witness once per call,
    # disc-structure make once
    calls = []
    powers = discs.BoundaryGrid.powers

    def counted(grid, degree):
        calls.append(grid.n)
        return powers(grid, degree)

    monkeypatch.setattr(discs.BoundaryGrid, "powers", counted)
    assert run(files) == 0
    assert sorted(calls) == nodes

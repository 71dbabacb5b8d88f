import argparse
import functools
import io
import json
import os
import re
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge import cli, regularization
from pointcharge.cli import RunConfig, load_config, parse_eps_grid, run
from pointcharge.errors import ConfigError, InvalidMollifier


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


def test_parse_eps_grid_geometric():
    grid = parse_eps_grid("geometric(0.1, 0.5, 6)")
    assert np.allclose(grid, [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125])


def test_parse_eps_grid_explicit():
    grid = parse_eps_grid("{0.1, 0.05, 0.025}")
    assert np.allclose(grid, [0.1, 0.05, 0.025])


@pytest.mark.parametrize("bad", [
    "geometric(1.5, 0.5, 4)", "{1.5, 0.5}", "{0.1, -0.2}",
    "geometric(nan, 0.5, 4)", "{nan, 0.05, 0.02}",
])
def test_parse_eps_grid_out_of_range(bad):
    with pytest.raises(ConfigError, match=r"epsilon_grid out of \(0,1\]"):
        parse_eps_grid(bad)


def test_parse_eps_grid_geometric_count_bounds():
    assert parse_eps_grid(f"geometric(0.1, 0.5, {cli.MAX_GRID_COUNT})").size \
        == cli.MAX_GRID_COUNT
    for count in (0, -3, cli.MAX_GRID_COUNT + 1):
        with pytest.raises(ConfigError, match="geometric count"):
            parse_eps_grid(f"geometric(0.1, 0.5, {count})")


def test_parse_eps_grid_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_eps_grid("{0.05, 0.1}")


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon_grid = {1.5, 0.5}\n")
    status, _ = invoke(["-c", str(cfg), "selfenergy"])
    assert status == 2
    assert "epsilon_grid out of (0,1]" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    status, _ = invoke(["-c", "/nonexistent.ini", "check"])
    assert status == 2


def test_config_round_trip(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "worldline = circular(1.0, 0.5)\n"
        "mollifier = boxcar\n"
        "epsilon_grid = {0.1, 0.05}\n"
        "e = 2.0\n"
        "mu = 0.5\n"
        "\n"
        "[points]\n"
        "p1 = 3.0, 2.0, 0.0, 0.0\n"
    )
    rc = load_config(str(cfg))
    assert rc.w.label == "circular"
    assert not rc.fam.smooth
    assert rc.e == 2.0 and rc.mu == 0.5
    assert rc.points == ((3.0, 2.0, 0.0, 0.0),)


def test_kinematics_json_schema():
    status, text = invoke(["kinematics"])
    assert status == 0
    lines = text.strip().splitlines()
    assert len(lines) == 3  # default point cloud
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"X", "tau_r", "xi", "K", "kappa", "residual"}
        assert len(rec["X"]) == 4 and len(rec["K"]) == 4
        assert rec["xi"] > 0
        assert abs(rec["residual"]) < 1e-9


def test_fields_eval_csv_shape():
    status, text = invoke(["fields", "eval"])
    assert status == 0
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["X0", "X1", "X2", "X3", "eps"]
    assert len(header) == 21
    assert len(lines) == 1 + 3 * 6  # 3 points x 6 grid values
    row = lines[1].split(",")
    assert len(row) == 21
    # BoxPhi = Lambda + Psi componentwise
    lam = np.array([float(v) for v in row[9:13]])
    psi = np.array([float(v) for v in row[13:17]])
    box = np.array([float(v) for v in row[17:21]])
    assert np.allclose(box, lam + psi, rtol=1e-12)


def test_selfenergy_boxcar_closed_form(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nmollifier = boxcar\n"
                   "epsilon_grid = {0.1, 0.05, 0.025}\n")
    status, text = invoke(["-c", str(cfg), "selfenergy"])
    assert status == 0
    lines = text.strip().splitlines()
    assert lines[0] == "eps,U_ele,U_mag,eps_Uele,eps3_Umag,c_eps,bound,pass"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == pytest.approx(0.5, rel=1e-12)  # e^2/2
        assert float(cells[4]) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert cells[7] == "true"


def test_renormalize_json():
    status, text = invoke(["renormalize", "--mc2", "25.0"])
    assert status == 0
    rec = json.loads(text)
    assert set(rec) == {"eps0", "residual"}
    assert 0 < rec["eps0"] <= 1
    assert abs(rec["residual"]) <= 1e-10 * 25.0


def fresh_family_cache(monkeypatch):
    """An empty family cache for one test; the process-wide one returns
    when the test ends."""
    monkeypatch.setattr(regularization, "_family",
                        functools.cache(regularization._family.__wrapped__))


@pytest.mark.parametrize("mollifier", ["bump", "boxcar"])
def test_renormalize_computes_the_moments_once(monkeypatch, mollifier):
    # m0 and m2 take one Gauss rule each, once per process per mollifier:
    # the printed residual and every later call reuse them
    fresh_family_cache(monkeypatch)
    cfgs = [RunConfig(mollifier=mollifier).resolve() for _ in range(2)]
    assert cfgs[0].fam is cfgs[1].fam
    calls = []
    gauss_integral = regularization.gauss_integral

    def counting_gauss(f, a, b):
        calls.append((a, b))
        return gauss_integral(f, a, b)

    monkeypatch.setattr(regularization, "gauss_integral", counting_gauss)
    for cfg in cfgs:
        cli.cmd_renormalize(cfg, io.StringIO(), argparse.Namespace(mc2=None))
    assert calls == [(1.0, 2.0)] * 2


def test_parser_is_built_once(monkeypatch):
    builds = []
    build = cli.build_parser.__wrapped__

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", functools.cache(counting_build))
    assert invoke(["distalg", "solve"])[0] == 0
    assert invoke(["renormalize", "--mc2", "30"])[0] == 0
    assert len(builds) == 1


def test_family_is_built_once_per_mollifier(monkeypatch):
    fresh_family_cache(monkeypatch)
    built = []
    make_family = regularization.make_family

    def counting_make_family(chi):
        built.append(chi.label)
        return make_family(chi)

    monkeypatch.setattr(regularization, "make_family", counting_make_family)
    fams = [regularization.family(spec) for spec in ("bump", "boxcar", " bump ")]
    fams += [RunConfig(mollifier=spec).resolve().fam
             for spec in ("boxcar", "bump")]
    assert built == ["bump", "boxcar"]
    assert fams[0] is fams[2] is fams[4] and fams[1] is fams[3]
    assert fams[0].mollifier.label == "bump"
    assert fams[1].mollifier.label == "boxcar"
    # a bad spec is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(InvalidMollifier):
            regularization.family("gauss")
    assert built == ["bump", "boxcar"]


def test_in_process_runs_match_fresh_processes(tmp_path, capsys):
    # one process, warm caches, bump and boxcar interleaved with a malformed
    # config and an argparse error; each run must print what a fresh
    # `python -m pointcharge` prints and exit with its code
    boxcar = tmp_path / "boxcar.ini"
    boxcar.write_text("[run]\nmollifier = boxcar\n")
    junk = tmp_path / "junk.ini"
    junk.write_text("[run]\nmollifier = junk\n")
    argvs = [["selfenergy"],
             ["renormalize", "--mc2", "1000"],
             ["-c", str(junk), "selfenergy"],
             ["-c", str(boxcar), "selfenergy"],
             ["renormalize", "--mc2"],
             ["-c", str(boxcar), "renormalize", "--mc2", "1000"],
             ["distalg", "solve"],
             ["-c", str(boxcar), "renormalize", "--mc2", "3e5"],
             ["selfenergy"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    codes = []
    for argv in argvs:
        try:
            status, text = invoke(argv)
        except SystemExit as exc:
            status, text = exc.code, ""
        capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "pointcharge"] + argv,
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (status, text) == (fresh.returncode, fresh.stdout), argv
        codes.append(status)
    assert codes == [0, 0, 2, 0, 2, 0, 0, 0, 0]


FLOATING_POINT_EVENTS = [
    ("[run]\nworldline = hyperbolic(1e300)\n",
     ["kinematics", "fields eval", "associate"]),
    ("[run]\nworldline = hyperbolic(1e-300)\n",
     ["kinematics", "fields eval", "associate"]),
    ("[points]\np = 1e300, 0, 0, 0\n", ["kinematics", "fields eval"]),
    ("[run]\nepsilon_grid = {1e-300, 1e-301, 1e-302, 1e-303}\n",
     ["selfenergy", "fields eval", "check"]),
]


@pytest.mark.parametrize("body, commands", FLOATING_POINT_EVENTS,
                         ids=["hyperbolic_1e300", "hyperbolic_1e-300",
                              "point_1e300", "eps_1e-300"])
def test_floating_point_event_writes_one_line(tmp_path, body, commands):
    # accepted configs that overflow, divide by zero or go invalid: each
    # fresh process exits 1 or 2 with one stderr line, and no NumPy warning
    cfg = tmp_path / "run.ini"
    cfg.write_text(body)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "pointcharge", "-c", str(cfg)]
            + command.split(), capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode in (1, 2), command
        assert proc.stderr.count("\n") <= 1, (command, proc.stderr)
        assert proc.stderr.startswith("error:"), (command, proc.stderr)


def test_floating_point_error_names_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon_grid = {1e-300, 1e-301, 1e-302, 1e-303}\n")
    status, _ = invoke(["-c", str(cfg), "fields", "eval"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: fields eval: floating-point overflow")
    assert err.count("\n") == 1


@pytest.mark.parametrize("body, claim", [
    ("radius = 1e100\n", []),
    ("radius = 1e100\n", ["--claim", "heaviside"]),
    ("center = 3.0, 0.0, 0.0, 0.0\nradius = 1e100\n", ["--claim", "heaviside"]),
], ids=["full", "heaviside", "heaviside_centred"])
def test_huge_test_function_radius_writes_one_line(tmp_path, capsys, body,
                                                   claim):
    # claim (b)'s target |S^3| radius^4 int ... overflows
    cfg = tmp_path / "run.ini"
    cfg.write_text("[testfunction]\n" + body)
    status, _ = invoke(["-c", str(cfg), "associate"] + claim)
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: associate: floating-point overflow")
    assert err.count("\n") == 1


def test_huge_test_function_radius_names_the_on_worldline_bound(tmp_path,
                                                               capsys):
    # claim (d)'s scale band lies within 8 eps of the track at |X| ~ 1e100,
    # below the rounding of X: the message gives the lab distance and the
    # bound 1e-12 max(1, |X|) it fell under
    cfg = tmp_path / "run.ini"
    cfg.write_text("[testfunction]\nradius = 1e100\n")
    status, _ = invoke(["-c", str(cfg), "associate", "--claim",
                        "box_minus_lw"])
    err = capsys.readouterr().err
    assert status == 1
    m = re.fullmatch(r"error: observer point lies on the worldline: lab "
                     r"distance (\S+) below 1e-12\*max\(1, \|X\|\) = "
                     r"(\S+)\n", err)
    assert m, err
    assert float(m[1]) < float(m[2]) and float(m[2]) > 1e80


def test_renormalize_out_of_range_exits_1(capsys):
    # a positive target below U(eps = 1) is a verdict, not an input error
    for flag in ("0.1", "1e-9"):
        status, text = invoke(["renormalize", "--mc2", flag])
        assert status == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and "below the self-energy" in err


def test_renormalize_underflowing_self_energy_names_e_and_mu(tmp_path, capsys):
    # both energies underflow to 0 at eps = 1 although e and mu are not 0
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ne = 1e-200\nmu = 1e-200\n")
    status, text = invoke(["-c", str(cfg), "renormalize"])
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err == ("error: the self-energy at eps = 1 is 0 in floating point "
                   "for e = 1e-200, mu = 1e-200\n")


def test_distalg_solve_output():
    status, text = invoke(["distalg", "solve"])
    assert status == 0
    lines = text.strip().splitlines()
    assert lines[0] == "particular: tplus^-1"
    assert set(lines[1:]) == {"homogeneous: tplus^-1 + tminus^-1",
                              "homogeneous: delta"}


def test_distalg_verify_round_trip():
    status, text = invoke(["distalg", "verify", "tplus^-1"])
    assert status == 0
    assert text.strip() == "delta"
    status, text = invoke(["distalg", "verify", "theta - 1"])
    assert status == 0
    # theta - 1 is homogeneous for the Euler operator; constants print first
    assert text.strip() == "-1 + theta"


def test_check_default_config_green():
    status, text = invoke(["check"])
    assert status == 0
    assert "FAIL" not in text
    for needle in ("worldline rest", "family bump", "retarded kinematics",
                   "box Phi fd oracle", "self-energy bounds",
                   "distribution algebra"):
        assert needle in text


@pytest.mark.parametrize("argv", [
    ["kinematics"],
    ["fields", "eval"],
    ["selfenergy"],
    ["renormalize", "--mc2", "30"],
    ["distalg", "solve"],
])
def test_byte_identical_reruns(argv):
    _, first = invoke(argv)
    _, second = invoke(argv)
    assert first == second


# runs each argv of argv[1] (a JSON list) through cli.run with scipy blocked,
# so that importing any scipy module raises ImportError; prints the
# (exit code, stdout) pairs as JSON
NO_SCIPY = """
import io, json, sys
sys.modules["scipy"] = None
from pointcharge.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    results.append((run(argv, out=out), out.getvalue()))
print(json.dumps(results))
"""


def test_subcommands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may import it
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon_grid = geometric(0.1, 0.5, 4)\n")
    argvs = [["kinematics"], ["fields", "eval"], ["selfenergy"],
             ["renormalize"], ["distalg", "solve"],
             ["distalg", "verify", "tplus^-1"], ["check"],
             ["-c", str(cfg), "associate"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(argvs)
    for argv, (status, text) in zip(argvs, blocked):
        assert (status, text) == (0, invoke(argv)[1]), argv


def test_associate_single_claim_json():
    status, text = invoke(["associate", "--claim", "charge_density"])
    assert status == 0
    rec = json.loads(text)
    assert set(rec) == {"claim", "eps", "pairing", "limit", "order",
                        "target", "pass"}
    assert rec["claim"] == "charge_density"
    assert rec["pass"] is True
    assert len(rec["eps"]) == len(rec["pairing"]) == 6


def assert_input_error(status, capsys):
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_charge_density_claim_off_rest_exits_2(tmp_path, capsys):
    # claim (a) applies to the rest worldline only, so asking for it alone
    # elsewhere is malformed input rather than an empty run
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nworldline = boost(0.99)\n")
    status, text = invoke(["-c", str(cfg), "associate",
                           "--claim", "charge_density"])
    assert text == ""
    assert_input_error(status, capsys)


# (the config body after its [run] header, the subcommand, its exit code):
# 2 for malformed input, 1 for a well-formed input with no answer
EXIT_CODES = [
    ("", ["distalg", "verify", "delta^(8)"], 2),
    ("", ["distalg", "verify", "tplus^-8"], 2),
    ("", ["distalg", "verify", "tminus^-5000"], 2),
    ("epsilon_grid = {0.1, 0.05, 0.025}", ["associate"], 2),
    ("epsilon_grid = {0.1, 0.05}", ["selfenergy"], 2),
    ("epsilon_grid = {0.1, 0.05}", ["check"], 2),
    ("max_delta_order = 65", ["distalg", "solve"], 2),
    ("mollifier = junk", ["selfenergy"], 2),
    ("epsilon-grid = geometric(0.1, 0.5, 6)", ["selfenergy"], 2),
    ("worldlin = rest", ["kinematics"], 2),
    ("[testfunction]\ncentre = 3.0, 0.0, 0.0, 0.0",
     ["associate", "--claim", "heaviside"], 2),
    ("[testfunction]\nradius = -1", ["selfenergy"], 2),
    ("", ["associate", "--claim", "bogus"], 2),
    # behind hyperbolic(1)'s past horizon, X0 + X1 <= 0, no point has a
    # retarded time: a test-function ball whose lower cut lies there, and
    # such a point
    ("worldline = hyperbolic(1)\n[testfunction]\ncenter = 0.5, 1.118, 0, 0\n"
     "radius = 1.5", ["associate"], 2),
    ("worldline = hyperbolic(1)\n[points]\np1 = 1, -3, 0, 0", ["kinematics"], 2),
    ("worldline = hyperbolic(1)\n[points]\np1 = 1, -3, 0, 0", ["fields", "eval"], 2),
    ("", ["distalg", "verify", "delta^(7)"], 0),
    ("max_delta_order = 64", ["distalg", "solve"], 0),
    ("", ["renormalize", "--mc2", "0.5"], 1),
    ("mollifier = boxcar", ["associate"], 1),
    ("mollifier = boxcar", ["associate", "--claim", "heaviside"], 0),
]


@pytest.mark.parametrize("run_keys, argv, code", EXIT_CODES,
                         ids=[" ".join(filter(None, [keys] + argv))
                              for keys, argv, _ in EXIT_CODES])
def test_exit_code(tmp_path, capsys, run_keys, argv, code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{run_keys}\n")
    status, _ = invoke(["-c", str(cfg)] + argv)
    err = capsys.readouterr().err
    assert status == code, err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1, err


# each numeric RunConfig field and the config line that sets it
CONFIG_LINES = {"e": "[run]\ne", "mu": "[run]\nmu", "mc2": "[run]\nmc2",
                "tolerance": "[run]\ntolerance",
                "tf_radius": "[testfunction]\nradius"}


@pytest.mark.parametrize("key", list(CONFIG_LINES))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_run_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"{CONFIG_LINES[key]} = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "selfenergy"])[0], capsys)


def test_bad_testfunction_radius_names_the_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    for value, reason in (("nan", "must be a finite number, got 'nan'"),
                          ("-1", "must be finite and positive, got -1.0")):
        cfg.write_text(f"[testfunction]\nradius = {value}\n")
        assert invoke(["-c", str(cfg), "selfenergy"])[0] == 2
        assert capsys.readouterr().err == \
            f"error: testfunction radius {reason}\n"


def test_radius_alone_applies_to_the_default_centre(tmp_path, capsys):
    # a [testfunction] radius without a center scales the default bump on
    # the track, which at rest is the explicit center 3, 0, 0, 0
    cfg = tmp_path / "run.ini"

    def heaviside(testfunction):
        cfg.write_text("[run]\nepsilon_grid = geometric(0.1, 0.5, 4)\n"
                       f"[testfunction]\n{testfunction}\n")
        status, text = invoke(["-c", str(cfg), "associate", "--claim",
                               "heaviside"])
        assert status == 0 and capsys.readouterr().err == ""
        return text

    alone = heaviside("radius = 0.5")
    assert json.loads(alone)["target"] == 0.02393597406240449
    assert alone == heaviside("center = 3, 0, 0, 0\nradius = 0.5")


@pytest.mark.filterwarnings("error")  # an overflow warning fails the test
def test_selfenergy_row_verdicts_are_per_row(tmp_path, capsys):
    # the first row is finite and meets every bound; U_mag overflows in the
    # other two, whose eps=0.1 message once failed the first row as well
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nepsilon_grid = {0.1000001, 0.1, 0.05}\n"
                   "mu = 9.294688968366496e+152\n")
    status, text = invoke(["-c", str(cfg), "selfenergy"])
    assert status == 1 and capsys.readouterr().err == ""
    assert [row.rsplit(",", 1)[1] for row in text.splitlines()[1:]] == \
        ["true", "false", "false"]


def test_nan_charge_prints_no_true_row(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ne = nan\n")
    status, text = invoke(["-c", str(cfg), "selfenergy"])
    assert_input_error(status, capsys)
    assert "true" not in text


@pytest.mark.parametrize("command", ["selfenergy", "check"])
def test_zero_charge_prints_verdicts(tmp_path, capsys, command):
    # a_eps = m0/eps does not depend on e, so e = 0 needs no division by e
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ne = 0\n")
    status, text = invoke(["-c", str(cfg), command])
    assert status in (0, 1)
    assert text and "Traceback" not in capsys.readouterr().err
    # Phi is linear in e, so the box Phi oracle runs at e = 1 and compares
    # non-zero fields
    oracle = [line for line in text.splitlines() if "oracle" in line]
    assert len(oracle) == (4 if command == "check" else 0)
    assert all(float(line.split("max rel = ")[1].rstrip(")")) > 0
               for line in oracle)


def test_distalg_verify_unparsable_exits_2(capsys):
    assert_input_error(invoke(["distalg", "verify", "foo"])[0], capsys)
    assert_input_error(invoke(["distalg", "verify", "1/0"])[0], capsys)


@pytest.mark.parametrize("expr", ["1e999999999", "1e5000"])
def test_distalg_verify_exponent_constant_exits_2_at_once(capsys, expr):
    # a bare constant takes the coefficient grammar, so no power of ten is
    # built before the term is refused
    start = time.perf_counter()
    assert_input_error(invoke(["distalg", "verify", expr])[0], capsys)
    assert time.perf_counter() - start < 1.0


def test_huge_geometric_count_exits_2_without_allocating(tmp_path, capsys,
                                                         monkeypatch):
    def refuse(*args):
        raise AssertionError("geometric_grid called before the count check")

    monkeypatch.setattr(cli, "geometric_grid", refuse)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nepsilon_grid = geometric(0.1, 0.5, {10**10})\n")
    assert_input_error(invoke(["-c", str(cfg), "selfenergy"])[0], capsys)


@pytest.mark.parametrize("value", ["-1", "1.5", "three"])
def test_bad_max_delta_order_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nmax_delta_order = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "distalg", "solve"])[0], capsys)


def test_load_config_caps_max_delta_order(tmp_path):
    # load_config never runs the solve, so an uncapped order fails here at
    # once instead of row-reducing an exact system of ~N^2 cost
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nmax_delta_order = {cli.MAX_DELTA_ORDER}\n")
    assert load_config(str(cfg)).max_delta_order == cli.MAX_DELTA_ORDER
    for value in (cli.MAX_DELTA_ORDER + 1, 10**5, "9" * 5000):
        cfg.write_text(f"[run]\nmax_delta_order = {value}\n")
        with pytest.raises(ConfigError, match="max_delta_order"):
            load_config(str(cfg))


def test_non_numeric_point_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[points]\np1 = 3.0, x, 0.0, 0.0\n")
    assert_input_error(invoke(["-c", str(cfg), "kinematics"])[0], capsys)


@pytest.mark.parametrize("body", ["center = 3.0, 0.0, zero, 0.0",
                                  "radius = wide",
                                  "center = 3.0, 0.0, 0.0"])
def test_bad_testfunction_exits_2(tmp_path, capsys, body):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[testfunction]\n{body}\n")
    assert_input_error(invoke(["-c", str(cfg), "associate",
                               "--claim", "heaviside"])[0], capsys)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_tolerance_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ntolerance = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "associate",
                               "--claim", "charge_density"])[0], capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_mc2_flag_exits_2(capsys, value):
    assert_input_error(invoke(["renormalize", "--mc2", value])[0], capsys)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_config_mc2_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nmc2 = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "renormalize"])[0], capsys)


@pytest.mark.parametrize("body, command", [
    ("epsilon_grid = geometric(nan, 0.5, 4)", "selfenergy"),
    ("epsilon_grid = {nan, 0.05, 0.02}", "selfenergy"),
    ("epsilon_grid = geometric(0.1, 1e300, 4)", "selfenergy"),
    ("worldline = hyperbolic(nan)", "kinematics"),
    ("worldline = hyperbolic(inf)", "kinematics"),
    ("worldline = boost(50%)", "kinematics"),
    ("e = 1%", "selfenergy"),
])
@pytest.mark.filterwarnings("error")  # the one-line reason is all of stderr
def test_malformed_run_value_exits_2(tmp_path, capsys, body, command):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{body}\n")
    assert_input_error(invoke(["-c", str(cfg), command])[0], capsys)


def test_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"[run]\ne = 1\xff\n")
    assert_input_error(invoke(["-c", str(cfg), "selfenergy"])[0], capsys)


# ---------------------------------------------------------------------------
# property test over the [run] grammar: load_config returns a RunConfig or
# raises ConfigError, never anything else

STRAY = st.text(alphabet=string.ascii_letters + string.digits
                + string.punctuation + " ", max_size=3)
NUMBER = st.floats(allow_nan=True, allow_infinity=True).map(repr)
ARG = st.one_of(NUMBER, NUMBER.map(lambda s: s + "x"), STRAY)


def _call(name, args):
    return f"{name}({', '.join(args)})"


WORLDLINE = st.one_of(
    st.just("rest"),
    st.builds(_call, st.just("boost"), st.lists(ARG, min_size=1, max_size=1)),
    st.builds(_call, st.just("hyperbolic"), st.lists(ARG, min_size=1, max_size=1)),
    st.builds(_call, st.sampled_from(["circular", "boost", "hyperbolic"]),
              st.lists(ARG, min_size=0, max_size=3)),
    STRAY,
).flatmap(lambda s: st.sampled_from([s, s + ")", "(" + s]))
EPSILON_GRID = st.one_of(
    st.builds(lambda a, b, n: f"geometric({a}, {b}, {n})",
              ARG, ARG, st.integers(0, 64).map(str) | STRAY),
    st.lists(ARG, max_size=6).map(lambda xs: "{" + ", ".join(xs) + "}"),
)
NUMERIC_KEYS = ("e", "mu", "mc2", "tolerance", "max_delta_order")


@given(
    worldline=st.none() | WORLDLINE,
    epsilon_grid=st.none() | EPSILON_GRID,
    numbers=st.dictionaries(st.sampled_from(NUMERIC_KEYS), ARG | STRAY),
    radius=st.none() | ARG | STRAY,
)
@settings(max_examples=60, deadline=None)
def test_load_config_returns_or_raises_config_error(
        tmp_path_factory, worldline, epsilon_grid, numbers, radius):
    run_keys = dict(numbers, worldline=worldline, epsilon_grid=epsilon_grid)
    lines = [f"{k} = {v}" for k, v in run_keys.items() if v is not None]
    if radius is not None:
        lines += ["[testfunction]", f"radius = {radius}"]
    cfg = tmp_path_factory.mktemp("grammar") / "run.ini"
    cfg.write_text("[run]\n" + "\n".join(lines) + "\n")
    try:
        assert isinstance(load_config(str(cfg)), RunConfig)
    except ConfigError:
        pass

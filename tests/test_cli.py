import io
import json
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge.cli import RunConfig, load_config, parse_eps_grid, run
from pointcharge.errors import ConfigError


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


def test_renormalize_out_of_range_exits_1(capsys):
    # a positive target below U(eps = 1) is a verdict, not an input error
    for flag in ("0.1", "1e-9"):
        status, text = invoke(["renormalize", "--mc2", flag])
        assert status == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and "below the self-energy" in err


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


def test_associate_single_claim_json():
    status, text = invoke(["associate", "--claim", "charge_density"])
    assert status == 0
    rec = json.loads(text)
    assert set(rec) == {"claim", "eps", "pairing", "limit", "order",
                        "target", "pass"}
    assert rec["claim"] == "charge_density"
    assert rec["pass"] is True
    assert len(rec["eps"]) == len(rec["pairing"]) == 6


def test_associate_unknown_claim_exits_2(capsys):
    status, _ = invoke(["associate", "--claim", "bogus"])
    assert status == 2


def assert_input_error(status, capsys):
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("key", ["e", "mu", "mc2", "tolerance", "tf_radius"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_run_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key} = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "selfenergy"])[0], capsys)


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


@pytest.mark.parametrize("value", ["-1", "1.5", "three"])
def test_bad_max_delta_order_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nmax_delta_order = {value}\n")
    assert_input_error(invoke(["-c", str(cfg), "distalg", "solve"])[0], capsys)


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
NUMERIC_KEYS = ("e", "mu", "mc2", "tolerance", "tf_radius", "max_delta_order")


@given(
    worldline=st.none() | WORLDLINE,
    epsilon_grid=st.none() | EPSILON_GRID,
    numbers=st.dictionaries(st.sampled_from(NUMERIC_KEYS), ARG | STRAY),
)
@settings(max_examples=60, deadline=None)
def test_load_config_returns_or_raises_config_error(
        tmp_path_factory, worldline, epsilon_grid, numbers):
    run_keys = dict(numbers, worldline=worldline, epsilon_grid=epsilon_grid)
    lines = [f"{k} = {v}" for k, v in run_keys.items() if v is not None]
    cfg = tmp_path_factory.mktemp("grammar") / "run.ini"
    cfg.write_text("[run]\n" + "\n".join(lines) + "\n")
    try:
        assert isinstance(load_config(str(cfg)), RunConfig)
    except ConfigError:
        pass

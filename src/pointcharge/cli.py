"""Command-line front end.

Configuration is a line-oriented ini file (key = value, with sections);
all keys live under [run] except observer points ([points]) and the
test-function geometry ([testfunction]).  Every numeric output is printed
with 17 significant digits so repeated runs are byte-identical.

Exit codes: 0 all verdicts pass, 1 a verdict failed or a well-formed input
has no answer, 2 malformed input; `run` alone maps errors to codes.
"""

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import distalg
from .association import CLAIM_NAMES, MIN_LIMIT_POINTS, association_suite, \
    bump_test_function, track_test_function
from .errors import BehindHorizon, ConfigError, InvalidMollifier, \
    PointChargeError, UnsupportedAtom
from .fields import box_phi_arrays, box_phi_fd, phi_arrays
from .minkowski import catalog, inner, parse_worldline, validate_worldline
from .regularization import family, family_check, geometric_grid
from .retarded import kinematics_arrays, retarded_time_bisection
from .selfenergy import MIN_BOUND_POINTS, divergence_bound_check, energies, \
    mass_renormalize


def _fmt(x):
    return f"{float(x):.17g}"


# most values a geometric(start, ratio, count) epsilon grid may hold
MAX_GRID_COUNT = 64
# largest max_delta_order; distalg solve's exact N + 3 column system costs ~N^2
MAX_DELTA_ORDER = 64


def parse_eps_grid(spec):
    """'geometric(start, ratio, count)' or a brace/comma list of values."""
    spec = spec.strip()
    if spec.startswith("geometric(") and spec.endswith(")"):
        args = [s.strip() for s in spec[len("geometric("):-1].split(",")]
        if len(args) != 3:
            raise ConfigError(f"geometric takes 3 arguments, got {spec!r}")
        try:
            start, ratio, count = float(args[0]), float(args[1]), int(args[2])
        except ValueError as exc:
            raise ConfigError(f"bad epsilon_grid {spec!r}: {exc}") from None
        # checked before geometric_grid allocates count floats
        if not 1 <= count <= MAX_GRID_COUNT:
            raise ConfigError(f"geometric count must be in 1..{MAX_GRID_COUNT}, "
                              f"got {count}")
        # an inf/nan or overflowing grid is rejected below, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            grid = geometric_grid(start, ratio, count)
    else:
        body = spec.strip("{}")
        try:
            grid = np.array([float(s) for s in body.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad epsilon_grid {spec!r}: {exc}") from None
    if grid.size < 1 or not np.all((grid > 0) & (grid <= 1)):
        raise ConfigError("epsilon_grid out of (0,1]")
    if not np.all(np.diff(grid) < 0):
        raise ConfigError("epsilon_grid must be strictly decreasing")
    return grid


DEFAULT_POINTS = (
    (3.0, 1.0, 0.0, 0.0),
    (3.0, 0.0, 1.0, 0.0),
    (3.0, 0.5, 0.5, 0.5),
)


@dataclass
class RunConfig:
    worldline: str = "rest"
    mollifier: str = "bump"
    epsilon_grid: str = "geometric(0.1, 0.5, 6)"
    e: float = 1.0
    mu: float = 1.0
    mc2: float = 10.0
    tolerance: float = 1e-3
    max_delta_order: int = 3
    points: tuple = DEFAULT_POINTS
    tf_center: tuple = None
    tf_radius: float = 1.0

    w: object = field(init=False, default=None)
    fam: object = field(init=False, default=None)
    grid: object = field(init=False, default=None)

    def resolve(self):
        self.w = parse_worldline(self.worldline)
        self.fam = family(self.mollifier)
        self.grid = parse_eps_grid(self.epsilon_grid)
        return self


def _number(key, text):
    """A finite float from config text, or ConfigError naming the key."""
    try:
        val = float(text)
    except ValueError:
        val = np.nan
    if not np.isfinite(val):
        raise ConfigError(f"{key} must be a finite number, got {text.strip()!r}")
    return val


def _positive(key, val):
    """val if it is finite and > 0, else ConfigError naming the key."""
    if not (np.isfinite(val) and val > 0):
        raise ConfigError(f"{key} must be finite and positive, got {val!r}")
    return val


def load_config(path=None):
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        text_keys = ("worldline", "mollifier", "epsilon_grid")
        number_keys = ("e", "mu", "mc2", "tolerance")
        # [points] names its points freely; the other sections have fixed keys
        keys = {"run": text_keys + number_keys + ("max_delta_order",),
                "points": None, "testfunction": ("center", "radius")}
        for name in parser.sections():
            if name not in keys:
                raise ConfigError(f"unknown config section [{name}]")
            for key in parser[name] if keys[name] is not None else ():
                if key not in keys[name]:
                    raise ConfigError(f"unknown key {key!r} in [{name}]")
        run = parser["run"] if parser.has_section("run") else {}
        for key in text_keys:
            if key in run:
                setattr(cfg, key, run[key])
        for key in number_keys:
            if key in run:
                setattr(cfg, key, _number(key, run[key]))
        if "max_delta_order" in run:
            text = run["max_delta_order"].strip()
            # float, not int: int() refuses a string of over 4300 digits
            if not (text.isdecimal() and float(text) <= MAX_DELTA_ORDER):
                raise ConfigError(f"max_delta_order must be an integer in "
                                  f"0..{MAX_DELTA_ORDER}, got {text!r}")
            cfg.max_delta_order = int(float(text))
        if parser.has_section("points"):
            pts = []
            for key, val in parser.items("points"):
                comps = [s.strip() for s in val.split(",")]
                if len(comps) != 4:
                    raise ConfigError(f"point needs 4 components, got {val!r}")
                pts.append(tuple(_number(f"point {key}", s) for s in comps))
            if pts:
                cfg.points = tuple(pts)
        if parser.has_section("testfunction"):
            tf = parser["testfunction"]
            if "center" in tf:
                cfg.tf_center = tuple(_number("testfunction center", s)
                                      for s in tf["center"].split(","))
                if len(cfg.tf_center) != 4:
                    raise ConfigError("testfunction center needs 4 components")
            if "radius" in tf:
                cfg.tf_radius = _positive(
                    "testfunction radius",
                    _number("testfunction radius", tf["radius"]))
    for key in ("mc2", "tolerance"):
        _positive(key, getattr(cfg, key))
    return cfg.resolve()


# ---------------------------------------------------------------------------
# subcommands (each returns 0 or 1 and leaves every error to `run`)


def _need_grid(cfg, command, count):
    if cfg.grid.size < count:
        raise ConfigError(f"{command} needs at least {count} epsilon_grid "
                          f"values, got {cfg.grid.size}")


def cmd_kinematics(cfg, out, args):
    pts = np.array(cfg.points, dtype=float)
    k = kinematics_arrays(cfg.w, pts)
    for i in range(pts.shape[0]):
        rec = {
            "X": [float(v) for v in pts[i]],
            "tau_r": float(k["tau_r"][i]),
            "xi": float(k["xi"][i]),
            "K": [float(v) for v in k["K"][i]],
            "kappa": float(k["kappa"][i]),
            "residual": float(k["residual"][i]),
        }
        out.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


FIELDS_HEADER = ("X0,X1,X2,X3,eps,"
                 "Phi0,Phi1,Phi2,Phi3,"
                 "Lambda0,Lambda1,Lambda2,Lambda3,"
                 "Psi0,Psi1,Psi2,Psi3,"
                 "BoxPhi0,BoxPhi1,BoxPhi2,BoxPhi3")


def cmd_fields_eval(cfg, out, args):
    pts = np.array(cfg.points, dtype=float)
    out.write(FIELDS_HEADER + "\n")
    for eps in cfg.grid:
        phi = phi_arrays(cfg.w, cfg.fam, pts, eps, cfg.e)
        lam, psi, tot = box_phi_arrays(cfg.w, cfg.fam, pts, eps, cfg.e)
        for i in range(pts.shape[0]):
            row = ([_fmt(v) for v in pts[i]] + [_fmt(eps)]
                   + [_fmt(v) for v in phi[i]] + [_fmt(v) for v in lam[i]]
                   + [_fmt(v) for v in psi[i]] + [_fmt(v) for v in tot[i]])
            out.write(",".join(row) + "\n")
    return 0


def cmd_associate(cfg, out, args):
    if cfg.tf_center is None:
        phi4 = track_test_function(cfg.w, cfg.tf_radius)
    else:
        phi4 = bump_test_function(cfg.tf_center, cfg.tf_radius)
    if args.claim is not None and args.claim not in CLAIM_NAMES:
        raise ConfigError(f"unknown claim {args.claim!r}; "
                          f"choose from {list(CLAIM_NAMES)}")
    if args.claim == "charge_density" and cfg.w.label != "rest":
        raise ConfigError("claim 'charge_density' needs worldline = rest")
    _need_grid(cfg, "associate", MIN_LIMIT_POINTS)
    report = association_suite(cfg.w, cfg.fam, cfg.grid, cfg.e, phi4=phi4,
                               tolerance=cfg.tolerance,
                               claims=None if args.claim is None else (args.claim,))
    ok = True
    for name, res in report.results.items():
        rec = {
            "claim": name,
            "eps": [float(v) for v in res.eps],
            "pairing": [float(v) for v in res.values],
            "limit": float(res.limit),
            "order": None if not np.isfinite(res.order) else float(res.order),
            "target": float(res.target),
            "pass": bool(res.passed),
        }
        out.write(json.dumps(rec, sort_keys=True) + "\n")
        ok = ok and res.passed
    return 0 if ok else 1


def cmd_selfenergy(cfg, out, args):
    _need_grid(cfg, "selfenergy", MIN_BOUND_POINTS)
    rep = divergence_bound_check(cfg.fam, cfg.grid, cfg.e, cfg.mu)
    out.write("eps,U_ele,U_mag,eps_Uele,eps3_Umag,c_eps,bound,pass\n")
    for i, eps in enumerate(rep.eps):
        row = [_fmt(eps), _fmt(rep.U_ele[i]), _fmt(rep.U_mag[i]),
               _fmt(rep.eps_U_ele[i]), _fmt(rep.eps3_U_mag[i]),
               _fmt(rep.c_eps[i]), _fmt(rep.lower_bound[i]),
               "true" if rep.row_passed[i] else "false"]
        out.write(",".join(row) + "\n")
    return 0 if rep.passed else 1


def cmd_renormalize(cfg, out, args):
    target = cfg.mc2 if args.mc2 is None else _positive("--mc2", args.mc2)
    eps0 = mass_renormalize(cfg.fam, cfg.e, cfg.mu, target)
    ue, um, _ = energies(cfg.fam, cfg.e, cfg.mu, eps0)
    residual = float(ue + um - target)
    out.write(json.dumps({"eps0": eps0, "residual": residual},
                         sort_keys=True) + "\n")
    return 0


def cmd_distalg_solve(cfg, out, args):
    particular, homogeneous = distalg.solve_euler_delta(cfg.max_delta_order)
    out.write(f"particular: {distalg.format_expr(particular)}\n")
    for h in homogeneous:
        out.write(f"homogeneous: {distalg.format_expr(h)}\n")
    return 0


def cmd_distalg_verify(cfg, out, args):
    try:
        u = distalg.parse_expr(args.expr)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad expression {args.expr!r}: {exc}") from None
    result = distalg.euler_apply(u)
    out.write(f"{distalg.format_expr(result)}\n")
    return 0


def cmd_check(cfg, out, args):
    """Run every module's invariant suite and print one line per suite."""
    _need_grid(cfg, "check", MIN_BOUND_POINTS)
    rng = np.random.default_rng(20260823)
    tau_grid = np.linspace(-3.0, 3.0, 601)
    verdicts = []

    def record(name, ok, detail=""):
        verdicts.append(ok)
        suffix = f"  ({detail})" if detail else ""
        out.write(f"{name}: {'pass' if ok else 'FAIL'}{suffix}\n")

    for w in catalog():
        rep = validate_worldline(w, tau_grid)
        record(f"worldline {w.label}", rep.passed,
               f"max |Zdot.Zdot-1| = {rep.max_norm_residual:.2e}")

    rep = family_check(cfg.fam, cfg.grid)
    record(f"family {cfg.fam.mollifier.label}", rep.passed,
           f"sup eps*H' = {rep.sup_eps_dH:.6g}")

    for w in catalog():
        pts = np.empty((50, 4))
        pts[:, 1:] = rng.uniform(-2.0, 2.0, size=(50, 3))
        pts[:, 0] = rng.uniform(2.5, 5.0, size=50)
        if w.label == "hyperbolic":
            pts[:, 1] = np.abs(pts[:, 1]) + 1.0  # stay inside the horizon
        k = kinematics_arrays(w, pts)
        tau_b = retarded_time_bisection(w, pts)
        x2 = np.maximum(np.einsum("ij,ij->i", pts, pts), 1.0)
        ok = (np.abs(k["residual"]) <= 1e-9 * x2).all() \
            and np.abs(k["tau_r"] - tau_b).max() <= 1e-10 \
            and (np.abs(inner(k["K"], k["zdot"]) - 1.0) <= 1e-9).all() \
            and (np.abs(inner(k["K"], k["K"])) <= 1e-9).all() \
            and (k["xi"] > 0).all()
        record(f"retarded kinematics {w.label}", bool(ok),
               f"max |R.R| = {np.abs(k['residual']).max():.2e}")

    # Phi is linear in e, so the oracle runs at e = 1 when e = 0 would make
    # both sides vanish identically
    eps, e = float(cfg.grid[0]), cfg.e or 1.0
    for w in catalog():
        pts = np.empty((10, 4))
        d = rng.normal(size=(10, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        z = w.z(np.asarray(1.0))
        r = rng.uniform(0.5, 1.5, size=10)
        pts[:, 0] = z[0] + 1.3 * r
        pts[:, 1:] = z[1:] + r[:, None] * d
        if cfg.fam.smooth:
            _, _, tot = box_phi_arrays(w, cfg.fam, pts, eps, e)
            fd = box_phi_fd(w, cfg.fam, pts, eps, e=e)
            rel = (np.abs(fd - tot).max(axis=-1)
                   / np.maximum(np.abs(tot).max(axis=-1), 1.0))
            record(f"box Phi fd oracle {w.label}", bool(rel.max() <= 1e-4),
                   f"max rel = {rel.max():.2e}")

    rep = divergence_bound_check(cfg.fam, cfg.grid, cfg.e, cfg.mu)
    record("self-energy bounds", rep.passed, f"c0 = {rep.c0:.6g}")

    try:
        particular, homogeneous = distalg.solve_euler_delta(cfg.max_delta_order)
        ok = (particular == distalg.DistExpr.atom(distalg.fp_plus(1))
              and len(homogeneous) == 2
              and distalg.upsilon() == distalg.DistExpr.atom(distalg.THETA))
        record("distribution algebra", ok,
               f"homogeneous dimension = {len(homogeneous)}")
    except PointChargeError as exc:
        record("distribution algebra", False, str(exc))

    return 0 if all(verdicts) else 1


# ---------------------------------------------------------------------------


@cache
def build_parser():
    """The parser, built once per process and reused by every `run`; each
    subcommand sets `func` to the cmd_* that runs it, bound when the parser
    is first built."""
    p = argparse.ArgumentParser(
        prog="pointcharge",
        description="Regularized point charges: kinematics, fields, "
                    "weak limits, self-energies, distribution algebra.",
    )
    p.add_argument("-c", "--config", default=None,
                   help="ini-style config file (defaults apply if omitted)")
    sub = p.add_subparsers(dest="command", required=True)

    def command(group, name, func, help):
        parser = group.add_parser(name, help=help)
        parser.set_defaults(func=func)
        return parser

    command(sub, "kinematics", cmd_kinematics,
            "retarded kinematics at the configured points (JSON lines)")
    fields = sub.add_parser("fields", help="field evaluation")
    fields_sub = fields.add_subparsers(dest="fields_command", required=True)
    command(fields_sub, "eval", cmd_fields_eval,
            "Phi, Lambda, Psi, box Phi as CSV")
    assoc = command(sub, "associate", cmd_associate, "weak-limit claims (JSON lines)")
    assoc.add_argument("--claim", default=None, help="run a single claim by name")
    command(sub, "selfenergy", cmd_selfenergy, "self-energy scaling table (CSV)")
    ren = command(sub, "renormalize", cmd_renormalize,
                  "solve for eps0 at a target mc^2")
    ren.add_argument("--mc2", type=float, default=None)
    da = sub.add_parser("distalg", help="distribution algebra")
    da_sub = da.add_subparsers(dest="distalg_command", required=True)
    command(da_sub, "solve", cmd_distalg_solve, "solve t*u' + u = delta")
    verify = command(da_sub, "verify", cmd_distalg_verify,
                     "apply the Euler operator")
    verify.add_argument("expr", help="expression, e.g. 'tplus^-1 + delta^(0)'")
    command(sub, "check", cmd_check, "run the full invariant suite")
    return p


# malformed input (a point behind the past horizon has no retarded time to
# ask for); any other PointChargeError means no answer exists
INPUT_ERRORS = (ConfigError, InvalidMollifier, UnsupportedAtom, BehindHorizon)


def _stage(args):
    """The subcommand as typed, e.g. 'fields eval'."""
    sub = getattr(args, "fields_command", None) or getattr(
        args, "distalg_command", None)
    return args.command if sub is None else f"{args.command} {sub}"


def run(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        # an overflow, a division by zero or an invalid operation ends the
        # run with one error line instead of a warning; code that expects
        # one opens its own errstate, which takes precedence.  Underflow is
        # no event: bump underflows near its edge on every run.
        with np.errstate(over="raise", divide="raise", invalid="raise",
                         under="ignore"):
            return args.func(load_config(args.config), out, args)
    except PointChargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, INPUT_ERRORS) else 1
    except FloatingPointError as exc:
        print(f"error: {_stage(args)}: floating-point {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

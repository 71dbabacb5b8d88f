"""Self-test of the benchmark's checks: each passes on the program's real
output and fails once one value in it is perturbed.

    python3 perfbench/selftest.py        # from the root of a checkout

Exit 0 when every check behaves, 1 otherwise.  Writes only under
perfbench/out/.
"""

import json
import sys

import numpy as np

import run

run.import_program()
import oracles     # noqa: E402
import workloads   # noqa: E402

OUT = run.OUT / "selftest"
problems = []


def expect(label, fails, fail):
    ok = bool(fails) == fail
    print(f"{'ok ' if ok else 'BAD'} {label}: "
          f"{'fails' if fails else 'passes'}{' as it should' if ok else ''}")
    if not ok:
        problems.append(label)


def oracle_self_consistency():
    """The oracles agree with plain root finding on their own definitions."""
    rng = np.random.default_rng(7)
    for label in ("rest", "boost", "hyperbolic"):
        X = workloads._scattered_points(label, rng, 50)
        lo, hi = np.full(50, -60.0), X[:, 0].copy()
        if label == "hyperbolic":
            lo[:] = -8.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            z, _ = oracles.worldline(label, mid)
            R = X - z
            past = oracles.mink(R, R) > 0
            lo, hi = np.where(past, mid, lo), np.where(past, hi, mid)
        gap = np.abs(oracles.closed_form_tau(label, X) - 0.5 * (lo + hi)).max()
        expect(f"closed-form tau_r {label} vs bisection (gap {gap:.1e})",
               [] if gap <= 1e-10 else ["gap"], False)
    ref = 0.3829756
    expect("heaviside target 0.3829756",
           [] if abs(oracles.heaviside_target() - ref) <= 1e-7 else ["off"], False)
    a, b = oracles.self_energy_moments("bump")
    s = np.linspace(1.0, 2.0, 200_001)
    a_trap = np.trapezoid(oracles.chi(s) ** 2, s)
    expect("bump moment int chi^2 vs trapezoid",
           [] if abs(a / a_trap - 1) <= 1e-9 else ["off"], False)
    e0 = oracles.boxcar_eps0(40.0, 1.0, 1.0)
    expect("boxcar root solves U = T",
           [] if abs(oracles.total_self_energy((1.0, 0.5), 1, 1, e0) - 40) <= 1e-12
           else ["off"], False)


def associate_checks():
    e, tol = 1.3, 1e-3
    eps = 0.1 * 0.5 ** np.arange(4)
    targets = {"charge_density": e * np.exp(-1.0),
               "heaviside": oracles.heaviside_target()}
    names = ["charge_density", "heaviside", "psi_0", "psi_1", "psi_2", "psi_3",
             "box_minus_lw"]

    def text(**changes):
        lines = []
        for n in names:
            rec = {"claim": n, "eps": list(eps), "limit": targets.get(n, 0.0),
                   "pass": True, "pairing": [], "order": 2.0, "target": 0.0}
            rec.update(changes.get(n, {}))
            lines.append(json.dumps(rec))
        return "\n".join(lines) + "\n"

    check = lambda out, rc=0: oracles.check_associate(out, rc, e, eps, tol)
    expect("associate: limits on target", check(text()), False)
    expect("associate: exit code 1", check(text(), 1), True)
    for name, val in (("charge_density", targets["charge_density"] + 2e-3 * e),
                      ("heaviside", targets["heaviside"] * 1.003),
                      ("psi_0", 2e-3 * e), ("psi_3", -2e-3 * e),
                      ("box_minus_lw", 2e-3 * e), ("psi_1", float("nan"))):
        expect(f"associate: {name} limit {val:.4g}",
               check(text(**{name: {"limit": val}})), True)
    expect("associate: pass false", check(text(psi_2={"pass": False})), True)
    expect("associate: eps grid", check(text(heaviside={"eps": list(eps * 1.01)})),
           True)
    expect("associate: claim missing", check(text().split("\n", 1)[1]), True)

    wl = workloads.AssociateRest()
    OUT.mkdir(parents=True, exist_ok=True)
    wl.outdir, wl.seed = OUT, 0
    for trace, stdout in ((0, "a\n"), (1, "a\n")):
        wl.stdouts = [stdout]
        fails = wl.finish(trace)
    expect("associate: same stdout traced and untraced", fails, False)
    wl.stdouts = ["b\n"]
    expect("associate: stdout differs traced and untraced", wl.finish(0), True)
    wl.stdouts = ["a\n", "b\n"]
    expect("associate: stdout differs between rounds", wl.finish(1), True)


def kinematics_checks():
    wl = workloads.KinematicsCatalog()
    wl.POINTS = 400
    OUT.mkdir(parents=True, exist_ok=True)
    wl.setup(0, OUT)
    _, failed, results = wl.round()
    expect("kinematics: program output", wl.check(results) + [failed] * failed,
           False)
    for (w, X, tau0), (kin, lam, psi) in zip(wl.inputs, results):
        def run_check(kin=kin, lam=lam, psi=psi):
            return oracles.check_kinematics(w.label, X, kin, lam, psi, wl.e,
                                            wl.eps, tau0)

        def bump(key, i, delta):
            k = dict(kin)
            k[key] = k[key].copy()
            k[key][i] += delta
            return k

        shell = (kin["xi"] > wl.eps) & (kin["xi"] < 2 * wl.eps)
        far = int(np.flatnonzero(~shell)[-1])
        inside = int(np.flatnonzero(shell)[0])
        expect(f"kinematics {w.label}: tau_r + 1e-9",
               run_check(kin=bump("tau_r", far if w.label != "circular" else 0,
                                  1e-9)), True)
        expect(f"kinematics {w.label}: R0 sign", run_check(kin=bump(
            "R", (far, 0), -2 * kin["R"][far, 0])), True)
        expect(f"kinematics {w.label}: K scaled by 1 + 1e-8", run_check(kin=bump(
            "K", far, 1e-8 * kin["K"][far])), True)
        expect(f"kinematics {w.label}: K0 + 1e-8", run_check(kin=bump(
            "K", (far, 0), 1e-8)), True)
        expect(f"kinematics {w.label}: xi + 1e-9", run_check(kin=bump(
            "xi", far, 1e-9)), True)
        lam2 = lam.copy()
        lam2[far, 0] *= 1 + 1e-9
        expect(f"kinematics {w.label}: Lambda off by 1e-9", run_check(lam=lam2), True)
        psi2 = psi.copy()
        psi2[far, 2] = 1e-300
        expect(f"kinematics {w.label}: Psi != 0 outside the shell",
               run_check(psi=psi2), True)
        if w.label == "rest":
            psi3 = psi.copy()
            psi3[inside, 0] *= 1 + 1e-7
            expect("kinematics rest: Psi off the closed form by 1e-7",
                   run_check(psi=psi3), True)


def selfenergy_checks():
    wl = workloads.SelfenergyRenorm()
    OUT.mkdir(parents=True, exist_ok=True)
    wl.setup(0, OUT)
    wl.tables, wl.renorms = wl.tables[::3], wl.renorms[::4]   # one per family
    _, failed, results = wl.round()
    expect("selfenergy: program output", wl.check(results) + [failed] * failed,
           False)
    for kind, rc, out, *info in results:
        if kind == "table":
            mol, grid, moments = info
            rows = out.splitlines()

            def with_cell(col, value, rows=rows):
                cells = rows[2].split(",")
                cells[col] = value(cells[col])
                return "\n".join(rows[:2] + [",".join(cells)] + rows[3:])

            def check(text, rc=0, mol=mol, grid=grid, moments=moments):
                return oracles.check_selfenergy(text, rc, mol, wl.e, wl.mu,
                                                grid, moments)

            bigger = lambda c: repr(float(c) * (1 + 1e-8))
            expect(f"selfenergy {mol}: U_ele x (1 + 1e-8)",
                   check(with_cell(1, bigger)), True)
            expect(f"selfenergy {mol}: U_mag x (1 + 1e-8)",
                   check(with_cell(2, bigger)), True)
            expect(f"selfenergy {mol}: c_eps below 1/eps",
                   check(with_cell(5, lambda c: repr(float(0.99 / grid[1])))), True)
            expect(f"selfenergy {mol}: pass false",
                   check(with_cell(7, lambda c: "false")), True)
            expect(f"selfenergy {mol}: row missing", check("\n".join(rows[:-1])),
                   True)
            expect(f"selfenergy {mol}: exit 1", check(out, 1), True)
        elif kind == "renorm":
            mol, target, moments = info
            eps0 = json.loads(out)["eps0"]
            text = json.dumps({"eps0": eps0 * (1 + 1e-9), "residual": 0.0})
            expect(f"renormalize {mol}: eps0 x (1 + 1e-9)",
                   oracles.check_renormalize(text, 0, mol, 1.0, 1.0, target,
                                             moments), True)
        elif kind == "solve":
            expect("distalg solve: particular changed", oracles.check_distalg_solve(
                out.replace("particular: tplus^-1", "particular: tminus^-1"), 0),
                True)
            expect("distalg solve: homogeneous sign", oracles.check_distalg_solve(
                out.replace("tplus^-1 + tminus^-1", "tplus^-1 - tminus^-1"), 0),
                True)
            expect("distalg solve: dependent basis", oracles.check_distalg_solve(
                out.replace("homogeneous: delta",
                            "homogeneous: 2*tplus^-1 + 2*tminus^-1"), 0), True)
        elif kind == "verify":
            terms = info[0]
            wrong = [(c * 2 if i == 0 else c, a) for i, (c, a) in enumerate(terms)]
            expect(f"distalg verify: coefficient doubled ({out.strip()})",
                   oracles.check_distalg_verify(out, 0, wrong), True)
        else:
            atom, lhs, rhs = info
            expect(f"duality {atom}: off by 1e-5",
                   oracles.check_duality(atom, lhs + 1e-5, rhs), True)
            expect(f"duality {atom}: nan",
                   oracles.check_duality(atom, float("nan"), rhs), True)


if __name__ == "__main__":
    oracle_self_consistency()
    associate_checks()
    kinematics_checks()
    selfenergy_checks()
    print(f"{len(problems)} check(s) misbehaved" if problems else "all checks behave")
    sys.exit(1 if problems else 0)

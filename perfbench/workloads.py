"""The three workloads: inputs from a seed, one round of operations, checks.

Each workload's `setup` makes its inputs from the seed, writes the config
files the program reads and loads them through `cli.load_config`.  A
round runs the same operations on the same inputs, so every round of a
run does the same work.  The program is called through module
attributes (`retarded.kinematics_arrays`, not a name bound at import), so
that the traced run sees every call.
"""

import io
import traceback
from fractions import Fraction

import numpy as np

import oracles
from pointcharge import cli, distalg, fields, minkowski, retarded


def _write_config(path, run):
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _cli(argv):
    """One in-process `pointcharge` invocation: (exit code, stdout)."""
    out = io.StringIO()
    try:
        rc = cli.run(argv, out=out)
    except Exception:           # the benchmark counts it as a failed operation
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


def _fmt_list(values):
    return "{" + ", ".join(repr(float(v)) for v in values) + "}"


class AssociateRest:
    """`pointcharge associate`, all seven claims, on the rest worldline."""

    name = "associate_rest"
    EPS_COUNT = 4

    def setup(self, seed, outdir):
        rng = np.random.default_rng([seed, 1])
        self.e = float(rng.uniform(0.5, 2.0))
        # the default grid start: claim (a) fails on some other starts
        start = 0.1
        self.eps = start * 0.5 ** np.arange(self.EPS_COUNT)
        self.tolerance = 1e-3
        self.config = _write_config(outdir / f"{self.name}-seed{seed}.ini", {
            "worldline": "rest", "mollifier": "bump",
            "epsilon_grid": f"geometric({start!r}, 0.5, {self.EPS_COUNT})",
            "e": repr(self.e), "tolerance": repr(self.tolerance)})
        cli.load_config(self.config)
        self.outdir, self.seed = outdir, seed
        self.stdouts = []

    def round(self):
        rc, out = _cli(["-c", self.config, "associate"])
        self.stdouts.append(out)
        return 1, int(rc != 0), (rc, out)

    def check(self, result):
        rc, out = result
        if rc != 0:
            return []               # counted as failed, not as incorrect
        return oracles.check_associate(out, rc, self.e, self.eps, self.tolerance)

    def finish(self, trace):
        """Stdout repeats byte for byte across rounds and between the traced
        and the untraced run of the same seed (whichever ran second checks)."""
        fails = []
        if len(set(self.stdouts)) > 1:
            fails.append("associate stdout differs between rounds")
        stem = f"{self.name}-seed{self.seed}"
        (self.outdir / f"{stem}-trace{trace}.stdout").write_text(self.stdouts[0])
        other = self.outdir / f"{stem}-trace{1 - trace}.stdout"
        if other.exists() and other.read_text() != self.stdouts[0]:
            fails.append("associate stdout differs between traced and untraced runs")
        return fails


def _cone_points(label, rng, n, xi_lo, xi_hi):
    """X = Z(tau0) + rho (1, n) on the future light cone of Z(tau0), so that
    tau_r(X) = tau0 exactly and xi = rho Zdot.(1, n) lies in [xi_lo, xi_hi]."""
    tau0 = rng.uniform(0.0, 3.0, n)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    z, zd = oracles.worldline(label, tau0)
    xi = rng.uniform(xi_lo, xi_hi, n)
    rho = xi / (zd[:, 0] - (zd[:, 1:] * d).sum(axis=-1))
    X = z + rho[:, None] * np.concatenate([np.ones((n, 1)), d], axis=1)
    return X, tau0


def _scattered_points(label, rng, n):
    X = np.empty((n, 4))
    X[:, 0] = rng.uniform(2.5, 6.0, n)
    X[:, 1:] = rng.uniform(-4.0, 4.0, (n, 3))
    if label == "hyperbolic":
        X[:, 1] = np.abs(X[:, 1]) + 1.0     # stay inside the horizon
    return X


class KinematicsCatalog:
    """`kinematics_arrays` then analytic box Phi on each catalog worldline."""

    name = "kinematics_catalog"
    POINTS = 20_000     # per worldline: 1/4 in the shell, 1/4 near, 1/2 far

    def setup(self, seed, outdir):
        rng = np.random.default_rng([seed, 2])
        self.e = float(rng.uniform(0.5, 2.0))
        self.eps = float(rng.uniform(0.02, 0.08))
        cfg = cli.load_config(_write_config(
            outdir / f"{self.name}-seed{seed}.ini",
            {"mollifier": "bump", "e": repr(self.e)}))
        self.fam = cfg.fam
        self.worldlines = minkowski.catalog()
        labels = tuple(w.label for w in self.worldlines)
        if labels != oracles.CATALOG:
            raise RuntimeError(f"catalog is {labels}, expected {oracles.CATALOG}")
        q = self.POINTS // 4
        self.inputs = []
        for w in self.worldlines:
            shell, t_shell = _cone_points(w.label, rng, q, self.eps, 2.0 * self.eps)
            near, t_near = _cone_points(w.label, rng, q, 2.0 * self.eps, 1.5)
            far = _scattered_points(w.label, rng, self.POINTS - 2 * q)
            X = np.concatenate([shell, near, far])
            tau0 = np.concatenate([t_shell, t_near, np.full(len(far), np.nan)])
            self.inputs.append((w, X, tau0))

    def round(self):
        attempted = failed = 0
        results = []
        for w, X, _ in self.inputs:
            attempted += 2
            try:
                kin = retarded.kinematics_arrays(w, X)
                lam, psi, _ = fields.box_phi_arrays(w, self.fam, X, self.eps,
                                                    self.e, kin=kin)
            except Exception:
                traceback.print_exc()
                failed += 2
                results.append(None)
                continue
            results.append((kin, lam, psi))
        return attempted, failed, results

    def check(self, results):
        fails = []
        for (w, X, tau0), res in zip(self.inputs, results):
            if res is not None:
                kin, lam, psi = res
                fails += oracles.check_kinematics(w.label, X, kin, lam, psi,
                                                  self.e, self.eps, tau0)
        return fails

    def finish(self, trace):
        return []


DUALITY_ATOMS = ([distalg.fp_plus(k) for k in range(1, 5)]
                 + [distalg.fp_minus(k) for k in range(1, 5)]
                 + [distalg.delta(k) for k in range(4)]
                 + [distalg.THETA, distalg.mono(0), distalg.mono(1)])
VERIFY_ATOMS = ("1", "t", "t^2", "t^3", "theta", "delta", "delta^(1)",
                "delta^(2)", "delta^(3)", "tplus^-1", "tminus^-1")


def _test_function(rng):
    """Bump times a cubic on (c - r, c + r), with its exact derivative."""
    c, r = rng.uniform(-1.0, 1.0), rng.uniform(2.0, 3.0)
    a = rng.uniform(-1.0, 1.0, size=4)

    def phi(t):
        y = (t - c) / r
        if abs(y) >= 1.0:
            return 0.0
        return float(np.exp(-1.0 / (1.0 - y * y))
                     * (a[0] + y * (a[1] + y * (a[2] + y * a[3]))))

    def dphi(t):
        y = (t - c) / r
        if abs(y) >= 1.0:
            return 0.0
        w = 1.0 - y * y
        bump = np.exp(-1.0 / w)
        p = a[0] + y * (a[1] + y * (a[2] + y * a[3]))
        dp = a[1] + y * (2 * a[2] + y * 3 * a[3])
        return float((bump * (-2.0 * y / (w * w)) * p + bump * dp) / r)

    return phi, dphi, (c - r, c + r)


def _expression(rng):
    terms = []
    for atom in rng.choice(VERIFY_ATOMS, size=3, replace=False):
        coef = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5)))
        terms.append((coef if rng.random() < 0.5 else -coef, str(atom)))
    text = " ".join(("- " if c < 0 else "+ ")
                    + (atom if abs(c) == 1 else f"{abs(c)}*{atom}")
                    for c, atom in terms)
    return text.removeprefix("+ "), terms


class SelfenergyRenorm:
    """Self-energy tables and mass renormalization for bump and boxcar, plus
    the distribution algebra and its finite-part pairing oracle."""

    name = "selfenergy_renorm"
    GRIDS, GRID_SIZE, TARGET_OCTAVES = 3, 5, (1, 2, 3, 4)

    def setup(self, seed, outdir):
        rng = np.random.default_rng([seed, 3])
        self.e, self.mu = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        grids = [float(rng.uniform(0.3, 1.0)) * float(rng.uniform(0.3, 0.7))
                 ** np.arange(self.GRID_SIZE) for _ in range(self.GRIDS)]
        self.tables, self.renorms = [], []
        for mol in ("bump", "boxcar"):
            moments = oracles.self_energy_moments(mol)
            for i, grid in enumerate(grids):
                path = _write_config(
                    outdir / f"{self.name}-seed{seed}-{mol}{i}.ini",
                    {"mollifier": mol, "epsilon_grid": _fmt_list(grid),
                     "e": repr(self.e), "mu": repr(self.mu)})
                cli.load_config(path)
                self.tables.append((mol, path, grid, moments))
            # renormalize at e = mu = 1 to the target T = U(eps0) of a seeded
            # eps0 = 2^-(k + u), u in [0.25, 0.75]: mass_renormalize halves its
            # lower bracket end from 1, so each k costs the same halvings on
            # every seed and the work stays seed-stable
            path = _write_config(outdir / f"{self.name}-seed{seed}-{mol}.ini",
                                 {"mollifier": mol})
            cli.load_config(path)
            for k in self.TARGET_OCTAVES:
                eps0 = 2.0 ** -(k + rng.uniform(0.25, 0.75))
                target = oracles.total_self_energy(moments, 1.0, 1.0, eps0)
                self.renorms.append((mol, path, target, moments))
        self.exprs = [_expression(rng) for _ in range(3)]
        self.phi, self.dphi, self.support = _test_function(rng)
        self.config = self.tables[0][1]

    def round(self):
        attempted = failed = 0
        results = []

        def op(kind, argv, *info):
            nonlocal attempted, failed
            attempted += 1
            rc, out = _cli(argv)
            failed += rc != 0
            results.append((kind, rc, out) + info)

        for mol, path, grid, moments in self.tables:
            op("table", ["-c", path, "selfenergy"], mol, grid, moments)
        for mol, path, target, moments in self.renorms:
            op("renorm", ["-c", path, "renormalize", "--mc2", repr(target)],
               mol, target, moments)
        op("solve", ["-c", self.config, "distalg", "solve"])
        for text, terms in self.exprs:
            op("verify", ["-c", self.config, "distalg", "verify", text], terms)
        for atom in DUALITY_ATOMS:
            attempted += 1
            try:
                u = distalg.DistExpr.atom(atom)
                lhs = distalg.pair_expr(distalg.differentiate(u), self.phi,
                                        self.support)
                rhs = -distalg.numeric_pairing(atom, self.dphi, self.support)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            results.append(("duality", 0, None, atom, lhs, rhs))
        return attempted, failed, results

    def check(self, results):
        fails = []
        for kind, rc, out, *info in results:
            if rc != 0:
                continue            # counted as failed, not as incorrect
            if kind == "table":
                mol, grid, moments = info
                fails += oracles.check_selfenergy(out, rc, mol, self.e, self.mu,
                                                  grid, moments)
            elif kind == "renorm":
                mol, target, moments = info
                fails += oracles.check_renormalize(out, rc, mol, 1.0, 1.0,
                                                   target, moments)
            elif kind == "solve":
                fails += oracles.check_distalg_solve(out, rc)
            elif kind == "verify":
                fails += oracles.check_distalg_verify(out, rc, info[0])
            else:
                fails += oracles.check_duality(*info)
        return fails

    def finish(self, trace):
        return []


WORKLOADS = {w.name: w for w in (AssociateRest, KinematicsCatalog,
                                 SelfenergyRenorm)}

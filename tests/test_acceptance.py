"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (run with -s to see them all;
pytest always shows the lines of failing tests).  Criterion 4 checks that
the shell remainder Psi_eps diverges pointwise like 1/eps while every
pairing converges.  At rest kappa = 0 and K = (1, x/|x|), and on the shell
s = xi/eps lies in [1, 2] with H' = chi(s)/eps and xi*H'' = s*chi'(s)/eps,
so Psi = -(e/eps) K (2 chi(s) + s chi'(s)/2) and sup|Psi_eps| = C/eps.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from oracles import GeneralizedNet, grad_tau_check, moderateness_slope, psi_sup_values
from pointcharge.association import association_suite, claim_charge_density
from pointcharge.distalg import (
    DistExpr,
    THETA,
    delta,
    differentiate,
    euler_apply,
    fp_minus,
    fp_plus,
    mono,
    mul_by_t,
    numeric_pairing,
    pair_expr,
    solve_euler_delta,
    upsilon,
)
from pointcharge.fields import box_phi_arrays, box_phi_fd, static_rho
from pointcharge.minkowski import catalog, inner, rest_worldline
from pointcharge.regularization import (
    boxcar_mollifier,
    bump_mollifier,
    geometric_grid,
    make_family,
)
from pointcharge.retarded import (
    kinematics_arrays,
    retarded_time_bisection,
)
from pointcharge.selfenergy import energies, mass_renormalize

BUMP = make_family(bump_mollifier())
BOX = make_family(boxcar_mollifier())
GRID = geometric_grid()


def report(criterion, ok, detail):
    line = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return ok


def point_cloud(w, n, rng):
    pts = np.empty((n, 4))
    pts[:, 0] = rng.uniform(1.0, 6.0, size=n)
    pts[:, 1:] = rng.uniform(-3.0, 3.0, size=(n, 3))
    if w.label == "hyperbolic":
        pts[:, 1] = np.abs(pts[:, 1]) + pts[:, 0] * 0.1 + 0.5
    return pts


def shell_cloud(w, eps, n, rng, lo=1.05, hi=1.95):
    """Points with retarded distance xi inside [lo*eps, hi*eps]."""
    target = rng.uniform(lo * eps, hi * eps, size=4 * n)
    tau = rng.uniform(0.5, 2.0, size=4 * n)
    d = rng.normal(size=(4 * n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    z = w.z(tau)
    rad = target.copy()
    for _ in range(60):
        X = np.concatenate([(z[:, 0] + 1.3 * rad)[:, None],
                            z[:, 1:] + rad[:, None] * d], axis=1)
        xi = kinematics_arrays(w, X)["xi"]
        rad = rad * np.clip(np.sqrt(target / xi), 0.5, 2.0)
    keep = (xi >= lo * eps) & (xi <= hi * eps)
    assert keep.sum() >= n
    return X[keep][:n]


def test_criterion_1_retarded_solver():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_closed = 0.0
    worst_res = 0.0
    worst_gap = 0.0
    for w in catalog():
        pts = point_cloud(w, 1000, rng)
        tau = kinematics_arrays(w, pts)["tau_r"]
        if w.label == "rest":
            expect = pts[:, 0] - np.linalg.norm(pts[:, 1:], axis=-1)
            worst_closed = float(np.abs(tau - expect).max())
        else:
            R = pts - w.z(tau)
            scale = (pts * pts).sum(axis=-1)
            worst_res = max(worst_res,
                            float((np.abs(inner(R, R)) / scale).max()))
            gap = np.abs(tau - retarded_time_bisection(w, pts))
            worst_gap = max(worst_gap, float(gap.max()))
    elapsed = time.time() - t0
    ok = (worst_closed <= 1e-10 and worst_res <= 1e-9 and worst_gap <= 1e-10
          and elapsed < 10.0)
    assert report(1, ok,
                  f"closed-form gap {worst_closed:.2e}, null residual "
                  f"{worst_res:.2e}, bisection gap {worst_gap:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_2_kinematic_identities():
    t0 = time.time()
    rng = np.random.default_rng(102)
    h = 1e-4
    worst = {"Kzdot": 0.0, "KK": 0.0, "grad_tau": 0.0, "dxi": 0.0, "divK": 0.0}
    xi_positive = True
    for w in catalog():
        pts = point_cloud(w, 1000, rng)
        k = kinematics_arrays(w, pts)
        zdot = w.zdot(k["tau_r"])
        worst["Kzdot"] = max(worst["Kzdot"],
                             float(np.abs(inner(k["K"], zdot) - 1).max()))
        worst["KK"] = max(worst["KK"],
                          float(np.abs(inner(k["K"], k["K"])).max()))
        xi_positive &= bool((k["xi"] > 0).all())
        # FD identities on a subsample (O(h^2) in h = 1e-4)
        sub = pts[:100]
        ks = kinematics_arrays(w, sub)
        worst["grad_tau"] = max(worst["grad_tau"], grad_tau_check(w, sub, h=h))

        def xi_of(tau):
            return inner(w.zdot(tau), sub - w.z(tau))

        fd = (xi_of(ks["tau_r"] + h) - xi_of(ks["tau_r"] - h)) / (2 * h)
        expect = ks["xi"] * ks["kappa"] - 1.0
        worst["dxi"] = max(worst["dxi"],
                           float((np.abs(fd - expect)
                                  / np.abs(expect)).max()))
        div = np.zeros(sub.shape[0])
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = h
            div += (kinematics_arrays(w, sub + e)["K"][:, mu]
                    - kinematics_arrays(w, sub - e)["K"][:, mu]) / (2 * h)
        worst["divK"] = max(worst["divK"],
                            float((np.abs(div - 2 / ks["xi"])
                                   / (2 / ks["xi"])).max()))
    elapsed = time.time() - t0
    ok = (worst["Kzdot"] <= 1e-9 and worst["KK"] <= 1e-9 and xi_positive
          and worst["grad_tau"] <= 1e-4 and worst["dxi"] <= 1e-4
          and worst["divK"] <= 1e-4 and elapsed < 30.0)
    assert report(2, ok,
                  f"|K.Zdot-1| {worst['Kzdot']:.1e}, |K.K| {worst['KK']:.1e}, "
                  f"grad tau {worst['grad_tau']:.1e}, d xi/d tau "
                  f"{worst['dxi']:.1e}, div K {worst['divK']:.1e}, "
                  f"{elapsed:.1f}s")


def test_criterion_3_box_phi_oracle():
    t0 = time.time()
    rng = np.random.default_rng(103)
    eps = 0.05
    worst_in = 0.0
    worst_out = 0.0
    for w in catalog():
        inside = shell_cloud(w, eps, 100, rng)
        # h small enough to resolve the steep H derivatives near the shell
        # edges; roundoff in the second difference is still ~1e-9 here
        _, _, tot = box_phi_arrays(w, BUMP, inside, eps)
        fd = box_phi_fd(w, BUMP, inside, eps, h=eps / 1280.0)
        rel = (np.abs(fd - tot).max(axis=-1)
               / np.maximum(np.abs(tot).max(axis=-1), 1.0))
        worst_in = max(worst_in, float(rel.max()))

        tau = rng.uniform(0.5, 2.0, size=400)
        d = rng.normal(size=(400, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        r = rng.uniform(3.0 * eps, 1.5, size=400)
        z = w.z(tau)
        outside = np.concatenate([(z[:, 0] + 1.3 * r)[:, None],
                                  z[:, 1:] + r[:, None] * d], axis=1)
        # the Doppler factor can compress xi well below r; keep genuinely
        # outside-shell points only
        xi = kinematics_arrays(w, outside)["xi"]
        outside = outside[xi >= 3.0 * eps][:100]
        assert outside.shape[0] == 100
        _, _, tot = box_phi_arrays(w, BUMP, outside, eps)
        fd = box_phi_fd(w, BUMP, outside, eps)
        rel = (np.abs(fd - tot).max(axis=-1)
               / np.maximum(np.abs(tot).max(axis=-1), 1.0))
        worst_out = max(worst_out, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst_in <= 1e-3 and worst_out <= 1e-4 and elapsed < 60.0
    assert report(3, ok, f"in-shell rel {worst_in:.2e}, outside rel "
                         f"{worst_out:.2e}, {elapsed:.1f}s")


def test_criterion_4_association_suite():
    t0 = time.time()
    w = rest_worldline()
    e = 1.0
    rep = association_suite(w, BUMP, GRID)
    pairings_ok = rep.passed
    sup_vals = psi_sup_values(w, BUMP, GRID, e=e)
    net = GeneralizedNet(eps=GRID, payloads=tuple(sup_vals))
    slope = moderateness_slope(net, abs)
    slope_ok = abs(slope - (-1.0)) <= 0.1
    nonzero_net = bool(np.all(sup_vals > 0))
    # closed form from the mollifier alone, on the radii psi_sup_values
    # samples (0.3*eps .. 4*eps): eps*sup|Psi_eps| = e*max|2 chi + s chi'/2|
    s = np.linspace(0.3, 4.0, 80)
    m = BUMP.mollifier
    const = e * float(np.abs(2.0 * m.chi(s) + 0.5 * s * m.chi_prime(s)).max())
    const_gap = float(np.abs(GRID * sup_vals / const - 1.0).max())
    const_ok = const_gap <= 1e-9
    elapsed = time.time() - t0
    ok = (pairings_ok and slope_ok and nonzero_net and const_ok
          and elapsed < 120.0)
    assert report(4, ok,
                  f"pairing limits {'pass' if pairings_ok else 'fail'}, "
                  f"sup|Psi| slope {slope:.3f} (required -1 +/- 0.1), "
                  f"eps*sup|Psi| rel gap {const_gap:.1e} to {const:.9f}, "
                  f"{elapsed:.1f}s")


def test_criterion_5_self_energy_scaling():
    t0 = time.time()
    e, mu = 1.0, 1.0
    u_ele, u_mag, c_eps = energies(BUMP, e, mu, GRID)
    ue, um = GRID * u_ele, GRID ** 3 * u_mag
    chi2, _ = quad(lambda t: BUMP.mollifier.chi(t) ** 2, 1, 2, epsrel=1e-12)
    chi2w, _ = quad(lambda t: BUMP.mollifier.chi(t) ** 2 / t ** 2, 1, 2,
                    epsrel=1e-12)
    const_ok = (np.abs(ue / (0.5 * chi2) - 1).max() <= 1e-8
                and np.abs(um / (chi2w / 3) - 1).max() <= 1e-8)
    box_ele, box_mag, _ = energies(BOX, e, mu, GRID)
    box_ok = bool(np.all(np.abs(box_ele * 2 * GRID - 1) <= 1e-12)
                  and np.all(np.abs(box_mag * 6 * GRID ** 3 - 1) <= 1e-12))
    bounds_ok = True
    c0 = 1.0 / (8.0 * max(GRID * c_eps))
    for t, c, u in zip(GRID, c_eps, u_ele):
        a = 2.0 * u
        bounds_ok &= c >= (1 - 1e-9) / t and a >= (1 - 1e-9) * c0 / t
    ineq_ok = True
    for fam in (BUMP, BOX):
        ele, mag, _ = energies(fam, 1.0, 1.0, np.geomspace(0.4999, 1e-3, 10))
        ineq_ok &= bool(np.all(2 * ele <= 3 * mag * (1 + 1e-12)))
    elapsed = time.time() - t0
    ok = const_ok and box_ok and bounds_ok and ineq_ok and elapsed < 5.0
    assert report(5, ok,
                  f"scaling {'ok' if const_ok else 'BAD'}, boxcar closed "
                  f"forms {'ok' if box_ok else 'BAD'}, lower bounds "
                  f"{'ok' if bounds_ok else 'BAD'}, inequality "
                  f"{'ok' if ineq_ok else 'BAD'}, {elapsed:.1f}s")


def test_criterion_6_mass_renormalization():
    t0 = time.time()
    rng = np.random.default_rng(106)
    ue, um, _ = energies(BUMP, 1.0, 1.0, 1.0)
    floor = ue + um
    residual_ok = True
    for target in rng.uniform(2.0 * floor, 1e4, size=10):
        eps0 = mass_renormalize(BUMP, 1.0, 1.0, target)
        ue, um, _ = energies(BUMP, 1.0, 1.0, eps0)
        res = abs(ue + um - target)
        residual_ok &= res <= 1e-10 * target
    target = 40.0
    eps0 = mass_renormalize(BOX, 1.0, 1.0, target)
    oracle = brentq(lambda t: 1 / (2 * t) + 1 / (6 * t ** 3) - target,
                    1e-4, 1.0, xtol=1e-15)
    box_ok = abs(eps0 - oracle) <= 1e-12
    elapsed = time.time() - t0
    ok = residual_ok and box_ok and elapsed < 5.0
    assert report(6, ok,
                  f"residuals {'ok' if residual_ok else 'BAD'}, boxcar root "
                  f"gap {abs(eps0 - oracle):.1e}, {elapsed:.1f}s")


def _analytic_test_function(rng):
    """Bump times a cubic, with its exact derivative (the oracle comparison
    needs phi' without finite-difference noise).  Support edges stay at
    distance >= 1 from the origin."""
    c = rng.uniform(-1.0, 1.0)
    r = rng.uniform(2.0, 3.0)
    a = rng.uniform(-1.0, 1.0, size=4)

    def phi(t):
        y = (t - c) / r
        if abs(y) >= 1.0:
            return 0.0
        p = a[0] + y * (a[1] + y * (a[2] + y * a[3]))
        return float(np.exp(-1.0 / (1.0 - y * y)) * p)

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


@pytest.mark.filterwarnings("error")
def test_criterion_7_distribution_algebra():
    t0 = time.time()
    structure_ok = True
    for n in (0, 1, 4, 8):
        particular, homogeneous = solve_euler_delta(n)
        structure_ok &= particular == DistExpr.atom(fp_plus(1))
        structure_ok &= len(homogeneous) == 2
        span = {fp_plus(1), fp_minus(1), delta(0)}
        for h in homogeneous:
            structure_ok &= euler_apply(h, max(9, n + 1)).is_zero()
            structure_ok &= set(h.coeffs) <= span
            structure_ok &= (h.coeffs.get(fp_plus(1), Fraction(0))
                             == h.coeffs.get(fp_minus(1), Fraction(0)))
    upsilon_ok = upsilon() == DistExpr.atom(THETA)
    leibniz_ok = all(
        differentiate(mul_by_t(DistExpr.atom(a)))
        == DistExpr.atom(a) + mul_by_t(differentiate(DistExpr.atom(a)))
        for a in ([mono(n) for n in range(4)]
                  + [fp_plus(k) for k in range(1, 6)]
                  + [fp_minus(k) for k in range(1, 6)]
                  + [delta(k) for k in range(6)]))
    worst = 0.0
    rng = np.random.default_rng(2718)
    table_atoms = ([fp_plus(k) for k in range(1, 5)]
                   + [fp_minus(k) for k in range(1, 5)]
                   + [delta(k) for k in range(4)] + [THETA, mono(0), mono(1)])
    for _ in range(20):
        phi, dphi, support = _analytic_test_function(rng)

        def tphi(t):
            return t * phi(t)

        for atom in table_atoms:
            u = DistExpr.atom(atom)
            lhs = pair_expr(differentiate(u), phi, support)
            rhs = -numeric_pairing(atom, dphi, support)
            worst = max(worst, abs(lhs - rhs))
            if atom != THETA:  # t*theta leaves the alphabet by design
                lhs = pair_expr(mul_by_t(u), phi, support)
                rhs = numeric_pairing(atom, tphi, support)
                worst = max(worst, abs(lhs - rhs))
    oracle_ok = worst <= 1e-6
    elapsed = time.time() - t0
    ok = structure_ok and upsilon_ok and leibniz_ok and oracle_ok \
        and elapsed < 30.0
    assert report(7, ok,
                  f"euler structure {'ok' if structure_ok else 'BAD'}, "
                  f"upsilon {'ok' if upsilon_ok else 'BAD'}, Leibniz "
                  f"{'ok' if leibniz_ok else 'BAD'}, oracle worst gap "
                  f"{worst:.1e}, {elapsed:.1f}s")


def test_criterion_8_charge_normalization():
    t0 = time.time()
    e = 2.0
    worst = 0.0
    for eps in GRID:
        total, _ = quad(lambda r: 4 * np.pi * r ** 2
                        * static_rho(BUMP, r, eps, e),
                        eps, 2 * eps, epsabs=0.0, epsrel=1e-12, limit=200)
        worst = max(worst, abs(total - e) / e)
    res = claim_charge_density(BUMP, GRID, e)
    elapsed = time.time() - t0
    ok = (worst <= 1e-8 and res.passed and np.isfinite(res.order)
          and res.order > 0 and elapsed < 20.0)
    assert report(8, ok,
                  f"total charge rel gap {worst:.1e}, pairing limit "
                  f"{res.limit:.6f} -> e*phi(0) = {res.target:.6f} at order "
                  f"{res.order:.2f}, {elapsed:.1f}s")

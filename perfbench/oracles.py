"""Reference values and output checks, computed apart from pointcharge.

Nothing here imports the program: the mollifier, the catalog worldlines,
the closed-form retarded times, the self-energy moments and the Euler
operator on distributions are written out again from their definitions.
Every check returns a list of failure messages; an empty list passes.
"""

import json
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# quadrature and the mollifier


def gauss(f, a, b, n=400):
    """Gauss-Legendre rule with n nodes on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return float(half * np.dot(w, f(0.5 * (a + b) + half * x)))


def _bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


BUMP_NORM = 2.0 / gauss(_bump, -1.0, 1.0)   # chi = BUMP_NORM*bump(2s-3)


def chi(s):
    """Bump mollifier on [1, 2] with unit mass."""
    return BUMP_NORM * _bump(2.0 * np.asarray(s, dtype=float) - 3.0)


def chi_prime(s):
    u = 2.0 * np.asarray(s, dtype=float) - 3.0
    w = np.where(np.abs(u) < 1.0, 1.0 - u * u, 1.0)
    return 2.0 * BUMP_NORM * _bump(u) * (-2.0 * u / (w * w))


def heaviside_target():
    """int of the unit 4D bump exp(-1/(1-|y|^2)) = 2 pi^2 int r^3 bump(r)."""
    return 2.0 * np.pi ** 2 * gauss(lambda r: r ** 3 * _bump(r), 0.0, 1.0)


def self_energy_moments(mollifier):
    """(int chi^2, int chi^2/s^2) over [1, 2]."""
    if mollifier == "boxcar":
        return 1.0, 0.5
    return (gauss(lambda s: chi(s) ** 2, 1.0, 2.0),
            gauss(lambda s: chi(s) ** 2 / s ** 2, 1.0, 2.0))


def total_self_energy(moments, e, mu, eps):
    """U_ele + U_mag = e^2 A/(2 eps) + mu^2 B/(3 eps^3)."""
    a, b = moments
    return e * e * a / (2.0 * eps) + mu * mu * b / (3.0 * eps ** 3)


def boxcar_eps0(target, e, mu):
    """Root in (0, 1] of 6 T eps^3 - 3 e^2 eps^2 - mu^2 = 0."""
    roots = np.roots([6.0 * target, -3.0 * e * e, 0.0, -mu * mu])
    real = roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real
    real = real[(real > 0.0) & (real <= 1.0)]
    if real.size != 1:
        raise ValueError(f"no unique boxcar root in (0, 1] for T={target!r}")
    return float(real[0])


# ---------------------------------------------------------------------------
# Minkowski space and the catalog worldlines


def mink(a, b):
    return a[..., 0] * b[..., 0] - (a[..., 1:] * b[..., 1:]).sum(axis=-1)


BOOST_V = 0.6
HYPERBOLIC_A = 1.0
CIRCLE_R, CIRCLE_OMEGA = 1.0, 0.5
CATALOG = ("rest", "boost", "hyperbolic", "circular")


def worldline(label, tau):
    """(Z, Zdot) of the catalog worldline at eigentimes tau."""
    tau = np.asarray(tau, dtype=float)
    z = np.zeros(tau.shape + (4,))
    zd = np.zeros(tau.shape + (4,))
    if label == "rest":
        z[..., 0], zd[..., 0] = tau, 1.0
    elif label == "boost":
        g = 1.0 / np.sqrt(1.0 - BOOST_V ** 2)
        z[..., 0], z[..., 1] = g * tau, g * BOOST_V * tau
        zd[..., 0], zd[..., 1] = g, g * BOOST_V
    elif label == "hyperbolic":
        a = HYPERBOLIC_A
        z[..., 0], z[..., 1] = np.sinh(a * tau) / a, np.cosh(a * tau) / a
        zd[..., 0], zd[..., 1] = np.cosh(a * tau), np.sinh(a * tau)
    elif label == "circular":
        v = CIRCLE_R * CIRCLE_OMEGA
        g = 1.0 / np.sqrt(1.0 - v * v)
        w = CIRCLE_OMEGA * g
        z[..., 0] = g * tau
        z[..., 1], z[..., 2] = CIRCLE_R * np.cos(w * tau), CIRCLE_R * np.sin(w * tau)
        zd[..., 0] = g
        zd[..., 1], zd[..., 2] = -CIRCLE_R * w * np.sin(w * tau), CIRCLE_R * w * np.cos(w * tau)
    else:
        raise ValueError(f"unknown worldline {label!r}")
    return z, zd


def closed_form_tau(label, X):
    """Retarded eigentime in closed form, or None where none is written."""
    X = np.asarray(X, dtype=float)
    xx = mink(X, X)
    if label == "rest":
        return X[:, 0] - np.linalg.norm(X[:, 1:], axis=-1)
    if label == "boost":
        # tau^2 - 2b tau + X.X = 0, smaller root in the cancellation-free form
        g = 1.0 / np.sqrt(1.0 - BOOST_V ** 2)
        b = g * (X[:, 0] - BOOST_V * X[:, 1])
        root = np.sqrt(b * b - xx)
        return np.where(b > 0, xx / (b + root), b - root)
    if label == "hyperbolic":
        # u = e^{a tau}: (X1 - X0) u^2 + (a X.X - 1/a) u + (X1 + X0) = 0
        # (Fulton & Rohrlich 1960); the retarded root is the smaller positive one
        a = HYPERBOLIC_A
        A, B, C = X[:, 1] - X[:, 0], a * xx - 1.0 / a, X[:, 1] + X[:, 0]
        disc = np.sqrt(B * B - 4.0 * A * C)
        q = -0.5 * (B + np.copysign(disc, B))
        r1, r2 = q / A, C / q
        both = np.stack([r1, r2], axis=-1)
        both = np.where(both > 0, both, np.inf)
        return np.log(both.min(axis=-1)) / a
    return None


# ---------------------------------------------------------------------------
# checks


def _bad(mask):
    return int(np.count_nonzero(~np.asarray(mask)))


def check_associate(stdout, exit_code, e, eps_grid, tolerance):
    """Every claim passes; the limits match targets computed here."""
    fails = []
    if exit_code != 0:
        fails.append(f"associate exit code {exit_code}")
    recs = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        recs[rec["claim"]] = rec
    want = ["charge_density", "heaviside", "psi_0", "psi_1", "psi_2",
            "psi_3", "box_minus_lw"]
    if sorted(recs) != sorted(want):
        return fails + [f"associate claims {sorted(recs)} != {sorted(want)}"]
    h = heaviside_target()
    targets = {"charge_density": (e * np.exp(-1.0), abs(e)), "heaviside": (h, h)}
    for name, rec in recs.items():
        target, scale = targets.get(name, (0.0, abs(e)))
        if rec["pass"] is not True:
            fails.append(f"{name}: pass is {rec['pass']!r}")
        if not np.allclose(rec["eps"], eps_grid, rtol=1e-15, atol=0.0):
            fails.append(f"{name}: eps {rec['eps']} != {list(eps_grid)}")
        lim = rec["limit"]
        if not (np.isfinite(lim) and abs(lim - target) <= tolerance * scale):
            fails.append(f"{name}: limit {lim!r} vs {target!r} "
                         f"(tolerance {tolerance * scale:.3g})")
    return fails


def check_kinematics(label, X, kin, lam, psi, e, eps, tau0):
    """Closed forms, light-cone identities, Lambda and Psi at each point.

    kin holds the program's tau_r, R, xi, K; lam and psi come from its
    analytic box Phi.  tau0 is the eigentime each cone-built point was
    built from (nan for scattered points).
    """
    fails = []
    tau = kin["tau_r"]
    z, zd = worldline(label, tau)
    R = X - z
    scale = np.maximum(1.0, (X * X).sum(axis=-1))
    cf = closed_form_tau(label, X)
    if cf is not None:
        n = _bad(np.abs(tau - cf) <= 1e-10)
        if n:
            fails.append(f"{label}: {n} tau_r off the closed form by > 1e-10 "
                         f"(max {np.abs(tau - cf).max():.2e})")
    built = np.isfinite(tau0)
    n = _bad(np.abs(tau[built] - tau0[built]) <= 1e-10)
    if n:
        fails.append(f"{label}: {n} cone-built points miss their tau0")
    if _bad(np.abs(kin["R"] - R) <= 1e-12 * np.sqrt(scale)[:, None]):
        fails.append(f"{label}: R != X - Z(tau_r)")
    if _bad(np.abs(mink(R, R)) <= 1e-9 * scale):
        fails.append(f"{label}: |R.R| above 1e-9 max(1, |X|^2)")
    if _bad(R[:, 0] > 0):
        fails.append(f"{label}: R0 <= 0")
    xi = mink(zd, R)
    if _bad(xi > 0) or _bad(np.abs(kin["xi"] - xi) <= 1e-12 * np.sqrt(scale)):
        fails.append(f"{label}: xi <= 0 or xi != Zdot.R")
    K = kin["K"]
    if _bad(np.abs(mink(K, zd) - 1.0) <= 1e-9):
        fails.append(f"{label}: |K.Zdot - 1| above 1e-9")
    if _bad(np.abs(mink(K, K)) <= 1e-9):
        fails.append(f"{label}: |K.K| above 1e-9")
    lam_ref = -e * zd / xi[:, None]
    if _bad(np.abs(lam - lam_ref) <= 1e-12 * np.abs(lam_ref).max(axis=-1)[:, None]):
        fails.append(f"{label}: Lambda != -e Zdot/xi")
    shell = (xi > eps) & (xi < 2.0 * eps)
    if _bad(psi[~shell] == 0.0):
        fails.append(f"{label}: Psi != 0 outside the shell")
    if label == "rest" and shell.any():
        s = xi[shell] / eps
        ref = (-(e / eps) * (2.0 * chi(s) + 0.5 * s * chi_prime(s)))[:, None] \
            * (R[shell] / xi[shell, None])
        gap = np.abs(psi[shell] - ref).max()
        if not gap <= 1e-9 * abs(e) / eps:
            fails.append(f"rest: Psi off -(e/eps)K(2chi + s chi'/2) by {gap:.2e}")
    if not shell.any() or not (~shell).any():
        fails.append(f"{label}: inputs miss the shell or its outside")
    return fails


def _csv_rows(text):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def check_selfenergy(stdout, exit_code, mollifier, e, mu, eps_grid, moments):
    """eps-scaling of U_ele and U_mag against the moments, and c_eps >= 1/eps."""
    fails = []
    if exit_code != 0:
        fails.append(f"selfenergy exit code {exit_code}")
    rows = _csv_rows(stdout)
    if len(rows) != len(eps_grid):
        return fails + [f"selfenergy: {len(rows)} rows for {len(eps_grid)} eps"]
    a, b = moments
    rtol = 1e-12 if mollifier == "boxcar" else 1e-9
    for row, eps in zip(rows, eps_grid):
        got_eps = float(row["eps"])
        u_e, u_m, c = float(row["U_ele"]), float(row["U_mag"]), float(row["c_eps"])
        ele, mag = e * e * a / 2.0, mu * mu * b / 3.0
        where = f"selfenergy {mollifier} eps={eps:.6g}"
        if got_eps != eps:
            fails.append(f"{where}: printed eps {got_eps!r}")
        if not abs(eps * u_e / ele - 1.0) <= rtol:
            fails.append(f"{where}: eps U_ele {eps * u_e!r} != {ele!r}")
        if not abs(eps ** 3 * u_m / mag - 1.0) <= rtol:
            fails.append(f"{where}: eps^3 U_mag {eps ** 3 * u_m!r} != {mag!r}")
        if not c >= (1.0 - 1e-12) / eps:
            fails.append(f"{where}: c_eps {c!r} < 1/eps")
        if row["pass"] != "true":
            fails.append(f"{where}: pass is {row['pass']!r}")
    return fails


def check_renormalize(stdout, exit_code, mollifier, e, mu, target, moments):
    """eps0 against numpy.roots (boxcar) or the moment formula (bump)."""
    if exit_code != 0:
        return [f"renormalize {mollifier} T={target!r}: exit code {exit_code}"]
    eps0 = json.loads(stdout)["eps0"]
    where = f"renormalize {mollifier} T={target:.6g}"
    if not 0.0 < eps0 <= 1.0:
        return [f"{where}: eps0 {eps0!r} outside (0, 1]"]
    if mollifier == "boxcar":
        ref = boxcar_eps0(target, e, mu)
        if not abs(eps0 - ref) <= 1e-12:
            return [f"{where}: eps0 {eps0!r} != numpy.roots {ref!r}"]
        return []
    res = total_self_energy(moments, e, mu, eps0) - target
    if not abs(res) <= 1e-9 * target:
        return [f"{where}: |U(eps0) - T| = {abs(res):.3e}"]
    return []


# ---------------------------------------------------------------------------
# distributions: text form and the Euler operator t u' + u


def parse_dist(text):
    """'9/4*t^2 - delta + 2*theta' -> {atom text: Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    if not text.startswith("-"):
        text = "+ " + text
    else:
        text = "- " + text[1:]
    toks = text.split(" ")
    out = {}
    for sign, term in zip(toks[0::2], toks[1::2]):
        coef, _, atom = term.rpartition("*")
        if not atom[0].isalpha():      # a bare constant
            coef, atom = atom, "1"
        c = Fraction(coef) if coef else Fraction(1)
        out[atom] = out.get(atom, 0) + (c if sign == "+" else -c)
    return {k: v for k, v in out.items() if v != 0}


def euler_image(atom):
    """t u' + u on the atoms the benchmark feeds to `distalg verify`."""
    if atom == "theta":
        return {"theta": Fraction(1)}
    if atom == "tplus^-1":
        return {"delta": Fraction(1)}
    if atom == "tminus^-1":
        return {"delta": Fraction(-1)}
    if atom == "delta":
        return {}
    if atom.startswith("delta^("):
        k = int(atom[7:-1])
        return {atom: Fraction(-k)}
    n = 0 if atom == "1" else (1 if atom == "t" else int(atom[2:]))
    return {atom: Fraction(n + 1)}


def euler_expected(terms):
    out = {}
    for coef, atom in terms:
        for a, c in euler_image(atom).items():
            out[a] = out.get(a, 0) + coef * c
    return {k: v for k, v in out.items() if v != 0}


def check_distalg_verify(stdout, exit_code, terms):
    if exit_code != 0:
        return [f"distalg verify exit code {exit_code}"]
    got, want = parse_dist(stdout), euler_expected(terms)
    return [] if got == want else [f"distalg verify: {got} != {want}"]


def check_distalg_solve(stdout, exit_code):
    """Particular solution maps to delta, the two homogeneous solutions to 0
    and are independent."""
    if exit_code != 0:
        return [f"distalg solve exit code {exit_code}"]
    part, hom = None, []
    for line in stdout.strip().splitlines():
        kind, _, expr = line.partition(": ")
        if kind == "particular":
            part = parse_dist(expr)
        elif kind == "homogeneous":
            hom.append(parse_dist(expr))
    fails = []

    def image(u):
        return euler_expected([(c, a) for a, c in u.items()])

    if part is None or image(part) != {"delta": 1}:
        fails.append(f"distalg solve: particular {part} does not give delta")
    if len(hom) != 2 or any(image(h) for h in hom):
        fails.append(f"distalg solve: homogeneous basis {hom} is not annihilated")
    else:
        keys = sorted(set(hom[0]) | set(hom[1]))
        m = np.array([[float(h.get(k, 0)) for k in keys] for h in hom])
        if np.linalg.matrix_rank(m) != 2:
            fails.append("distalg solve: homogeneous basis is dependent")
    return fails


def check_duality(atom, lhs, rhs, tol=1e-6):
    """<u', phi> = -<u, phi'> with phi' analytic."""
    if np.isfinite(lhs) and np.isfinite(rhs) and abs(lhs - rhs) <= tol:
        return []
    return [f"pairing {atom}: <u', phi> = {lhs!r} but -<u, phi'> = {rhs!r}"]

"""Weak-limit harness: pair eps-nets against test functions and extrapolate.

The four association claims verified here:
  (a) <rho_eps, phi>          -> e * phi(0)      (3D, rest frame)
  (b) <H_eps(xi), phi>        -> int phi         (4D)
  (c) <Psi_eps_a, phi>        -> 0               (4D, each component)
  (d) <boxPhi_fd_a - Lambda_a H_eps(xi), phi> -> 0   (4D)

Pairings use Lebesgue measure with no metric weight.  Claim (a) and the
target of claim (b) pair radial integrands against a radial bump, so they
are 1D radial integrals: claim (a) over the shell r in [eps, 2*eps] where
rho_eps lives, the target int phi over [0, radius].  Claims (b)-(d) pair
integrands supported near the transition shell xi in [eps, 2*eps]: the 4D
quadrature slices the test ball at Gauss times and integrates each slice
in spherical coordinates around the worldline's simultaneous track point,
over the lab-frame band r in [0.05*eps, 8*eps] with radial panels of width
<= eps/8.  The band leaves out the inner ball r < 0.05*eps, where
H_eps(xi) - 1 = -1, so claim (b)'s pairing misses the defect -int phi over
that ball: it scales as eps^3 (2.3e-7 at eps = 0.1 and 4.5e-10 at
eps = 0.0125 on the default rest config).  Psi_eps, the integrand of
claim (c) and in exact arithmetic of claim (d), is supported in the shell
itself, so claim (d) runs its finite-difference stencil on the band nodes
with eps < xi < 2*eps only, while its scale <Lambda_0 H_eps(xi), phi> is
summed over the whole band.  The suite builds one time slice at a time,
pairs it with every claim and sums the pairings over the slices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoTrend
from .fields import box_phi_arrays, box_phi_fd, static_rho
from .regularization import bump, gauss_panels
from .retarded import _tau_simultaneous, kinematics_arrays


@dataclass(frozen=True)
class TestFunction:
    """Smooth bump exp(-1/(1-|y|^2)) on a ball, optionally times a polynomial.

    dimension 1, 3 or 4; center and radius fix the support ball; poly maps
    the centered, scaled coordinate y to a smooth factor (default 1).
    """

    dimension: int
    center: np.ndarray
    radius: float
    poly: callable = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            y = (x - self.center[0]) / self.radius
            rho2 = y * y
        else:
            y = (x - self.center) / self.radius
            rho2 = (y * y).sum(axis=-1)
        out = bump(rho2)
        mask = rho2 < 1.0
        if self.poly is not None and np.any(mask):
            out[mask] *= self.poly(y[mask])
        return float(out) if self.dimension == 1 and x.ndim == 0 else out


def bump_test_function(dimension, center, radius, poly=None):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != dimension:
        raise ValueError("center size must match the dimension")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return TestFunction(dimension=dimension, center=center,
                        radius=float(radius), poly=poly)


def track_test_function(w, radius=1.0):
    """The default 4D bump of the association suite: centred on the
    worldline at coordinate time t = 3, so that the transition shell
    actually meets its support."""
    t0 = 3.0
    track = w.z(_tau_simultaneous(w, np.asarray(t0)))
    return bump_test_function(4, np.concatenate([[t0], track[1:]]), radius)


def integral_of(phi):
    """int phi over its support ball, as |S^(d-1)| radius^d times
    int_0^1 exp(-1/(1-s^2)) s^(d-1) ds on 32 panels of 16 Gauss-Legendre
    nodes; only a bump without a poly factor is radial."""
    if phi.poly is not None:
        raise ValueError("integral_of needs a bump without a poly factor")
    d = phi.dimension
    s, half, w = gauss_panels(np.linspace(0.0, 1.0, 33), 16)
    s, ws = s.ravel(), (half * w).ravel()
    sphere = 2.0 * np.pi ** (d / 2) / math.gamma(d / 2)
    profile = bump(s * s) * s ** (d - 1)
    return float(sphere * phi.radius ** d * (profile * ws).sum())


# ---------------------------------------------------------------------------
# quadrature grids


def radial_nodes(eps, r_lo, r_hi):
    """Gauss nodes/weights on [r_lo, r_hi]: panels of width <= eps/8 with
    4 nodes each."""
    if r_hi <= r_lo:
        return np.empty(0), np.empty(0)
    n = max(2, int(np.ceil((r_hi - r_lo) / (eps / 8.0))))
    r, half, w = gauss_panels(np.linspace(r_lo, r_hi, n + 1), 4)
    return r.ravel(), (half * w).ravel()


def _angular_grid():
    """8 x 8 directions: Gauss-Legendre in cos(theta), uniform in phi."""
    (ct,), _, wt = gauss_panels((-1.0, 1.0), 8)
    ph = 2.0 * np.pi * np.arange(8) / 8
    wp = np.full(8, 2.0 * np.pi / 8)
    st = np.sqrt(1.0 - ct * ct)
    dirs = np.stack([
        np.outer(st, np.cos(ph)),
        np.outer(st, np.sin(ph)),
        np.outer(ct, np.ones(8)),
    ], axis=-1).reshape(-1, 3)
    return dirs, np.outer(wt, wp).ravel()


@dataclass(frozen=True)
class SliceGrid:
    """Spacetime quadrature nodes around the worldline track, with the
    retarded kinematics and phi shared by its integrands."""

    points: np.ndarray      # (n, 4)
    weights: np.ndarray     # (n,)
    kin: dict
    phi_values: np.ndarray  # (n,), the test function the grid was built for

    def pair(self, values, where=slice(None)):
        """<values, phi> on the nodes `where` (all by default), given
        `values` at those nodes only."""
        return float((values * self.phi_values[where] * self.weights[where]).sum())


def slice_grid(w, phi, eps, t, t_weight, r_lo, r_hi):
    """Build the time slice at coordinate time t (Gauss weight t_weight) of
    the product grid time x radius x angle, restricted to the radial band
    [r_lo, r_hi] around the track, and solve the kinematics: radial panels
    of width <= eps/8 with 4 nodes each, and 8 x 8 directions."""
    if phi.dimension != 4:
        raise ValueError("spacetime pairing needs a 4D test function")
    track = w.z(_tau_simultaneous(w, np.asarray(t)))[1:]
    r, wr = radial_nodes(eps, r_lo, r_hi)
    dirs, wa = _angular_grid()
    pts = np.empty((r.size, dirs.shape[0], 4))
    pts[..., 0] = t
    pts[..., 1:] = track + r[:, None, None] * dirs[None, :, :]
    wts = t_weight * (wr * r * r)[:, None] * wa[None, :]
    pts = pts.reshape(-1, 4)
    kin = kinematics_arrays(w, pts)
    return SliceGrid(points=pts, weights=wts.ravel(), kin=kin, phi_values=phi(pts))


# the shell xi in [eps, 2*eps] sits inside this radial band (in units of
# eps) for the catalog worldlines and the test geometry used here
SHELL_BAND = (0.05, 8.0)


# ---------------------------------------------------------------------------
# extrapolation


@dataclass(frozen=True)
class AssociationResult:
    eps: np.ndarray
    values: np.ndarray
    limit: float
    order: float
    target: float
    tolerance: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "fail"
        return (f"association: {status} limit={self.limit:.6g} "
                f"target={self.target:.6g} order={self.order:.3g}")


# differences below NOISE*scale count as converged in weak_limit
NOISE = 1e-9
# fewest grid values weak_limit extrapolates from
MIN_LIMIT_POINTS = 4


def weak_limit(values, eps_grid, target, tolerance=1e-3, scale=None):
    """Extrapolate <u_eps, phi> = L + A*eps^p from the tail of the grid.

    The measured order p comes from successive differences on the
    (geometric) grid; if the differences have already dropped below the
    noise floor NOISE*scale the last value is taken as the limit.
    """
    values = np.asarray(values, dtype=float)
    eps_grid = np.asarray(eps_grid, dtype=float)
    if values.size < MIN_LIMIT_POINTS:
        raise ValueError(f"need at least {MIN_LIMIT_POINTS} grid points")
    if scale is None:
        scale = max(abs(target), 1.0)
    d = np.diff(values)
    d1, d2 = d[-2], d[-1]
    if max(abs(d1), abs(d2)) <= NOISE * scale:
        limit, order = values[-1], np.inf
    else:
        if abs(d2) >= abs(d1):
            raise NoTrend(
                f"pairing differences do not decrease: |{d1:.3e}| -> |{d2:.3e}|"
            )
        ratio = eps_grid[-1] / eps_grid[-2]
        order = np.log(abs(d2) / abs(d1)) / np.log(ratio)
        q = abs(d2) / abs(d1)
        limit = values[-1] + d2 * q / (1.0 - q)
    bound = tolerance * scale
    passed = np.isfinite(limit) and np.isfinite(bound) and abs(limit - target) <= bound
    return AssociationResult(eps=eps_grid, values=values, limit=float(limit),
                             order=float(order), target=float(target),
                             tolerance=tolerance, passed=bool(passed))


# ---------------------------------------------------------------------------
# the four claims


def claim_charge_density(fam, phi3, eps_grid, e=1.0, tolerance=1e-3):
    """(a) <rho_eps, phi> -> e*phi(0) for the charge at rest.

    rho_eps and a bump centered on the charge are both radial, so the
    pairing is 4 pi int_eps^2eps rho_eps(r) phi3(r) r^2 dr, on 8 panels of
    8 Gauss nodes over the shell [eps, 2 eps] where rho_eps lives."""
    if (phi3.dimension != 3 or phi3.poly is not None
            or np.any(phi3.center != 0.0)):
        raise ValueError("claim (a) needs a 3D bump centered on the charge, "
                         "without a poly factor")
    s, half, w = gauss_panels(np.linspace(1.0, 2.0, 9), 8)
    s, ws = s.ravel(), (half * w).ravel()
    vals = []
    for eps in eps_grid:
        r = eps * s
        on_axis = r[:, None] * np.array([0.0, 0.0, 1.0])
        rho_phi = static_rho(fam, r, eps, e) * phi3(on_axis)
        vals.append(4.0 * np.pi * float((rho_phi * r * r * eps * ws).sum()))
    target = e * float(phi3(np.zeros(3)))
    return weak_limit(vals, eps_grid, target, tolerance,
                      scale=max(abs(e), abs(target), 1e-3))


def claim_heaviside(g, fam, eps):
    """(b) on one time slice: the defect <H_eps(xi) - 1, phi> of
    <H_eps(xi), phi> from int phi; H - 1 is supported in xi < 2*eps, and
    the band captures all of it but the inner ball r < 0.05*eps, whose
    defect -int phi scales as eps^3 (2.3e-7 at eps = 0.1 on the default
    rest config)."""
    return g.pair(fam.H(g.kin["xi"], eps) - 1.0)


def claim_psi(w, fam, g, eps, e):
    """(c) on one time slice: the pairings <Psi_eps_a, phi> of the four
    components a (Psi is supported in the transition shell, so the band
    captures it exactly).  Psi is computed once for all four."""
    psi = box_phi_arrays(w, fam, g.points, eps, e, kin=g.kin)[1]
    return [g.pair(psi[..., a]) for a in range(4)]


def claim_box_minus_lw(w, fam, g, eps, e):
    """(d) on one time slice: (<boxPhi_fd_0 - Lambda_0 H_eps(xi), phi>,
    <Lambda_0 H_eps(xi), phi>); the second value sets the claim's scale.

    Uses the finite-difference d'Alembertian, so the claim does not lean
    on the analytic Psi formula that claim (c) already exercises.  The
    difference is Psi_eps, whose support is the shell eps < xi < 2*eps:
    below it Phi = Lambda H = 0, above it H = 1 and box(eR/2) = Lambda.
    So the stencil runs on the shell nodes only, and every other node
    adds exactly 0 to the first pairing.  The scale is summed over every
    node of the slice.
    """
    xi = g.kin["xi"]
    lam_H = -e * g.kin["zdot"][..., 0] / xi * fam.H(xi, eps)
    shell = (xi > eps) & (xi < 2.0 * eps)
    kin = {k: v[shell] for k, v in g.kin.items()}
    fd = box_phi_fd(w, fam, g.points[shell], eps, e=e, kin=kin)[..., 0]
    return g.pair(fd - lam_H[shell], shell), g.pair(lam_H)


def psi_sup_values(w, fam, eps_grid, e=1.0):
    """sup over a shell sample of max-component |Psi_eps|, per eps.

    Sample points sit on 200 rays from the worldline point at eigentime 1,
    with radii covering the transition shell.
    """
    rng = np.random.default_rng(20260823)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    out = []
    z = w.z(np.asarray(1.0))
    for eps in eps_grid:
        radii = np.linspace(0.3 * eps, 4.0 * eps, 80)
        pts = np.empty((dirs.shape[0], radii.size, 4))
        pts[..., 0] = z[0] + 1.5 * eps
        pts[..., 1:] = z[1:] + radii[None, :, None] * dirs[:, None, :]
        _, psi, _ = box_phi_arrays(w, fam, pts, eps, e)
        out.append(float(np.abs(psi).max()))
    return np.array(out)


@dataclass(frozen=True)
class SuiteReport:
    results: dict
    passed: bool

    def __str__(self):
        lines = [f"association suite: {'pass' if self.passed else 'fail'}"]
        lines += [f"  {name}: {res}" for name, res in self.results.items()]
        return "\n".join(lines)


CLAIM_NAMES = ("charge_density", "heaviside", "psi_0", "psi_1", "psi_2",
               "psi_3", "box_minus_lw")


def association_suite(w, fam, eps_grid, e=1.0, phi4=None, tolerance=1e-3,
                      claims=None):
    """Run the four claims; claim (a) only applies to the rest worldline.

    Claims (b)-(d) make one pass over eps and, per eps, over the 12 Gauss
    times of phi4's support: each time slice (with its retarded kinematics
    and phi values) is built once, paired by every wanted claim, and
    dropped before the next slice.  Each claim sums its pairings over the
    slices; weak_limit then runs once per claim.  Pass a subset of
    CLAIM_NAMES as `claims` to restrict the run."""
    if claims is not None:
        unknown = set(claims) - set(CLAIM_NAMES)
        if unknown:
            raise ValueError(f"unknown claims {sorted(unknown)}")

    def wanted(name):
        return claims is None or name in claims

    if phi4 is None:
        phi4 = track_test_function(w)
    results = {}
    if w.label == "rest" and wanted("charge_density"):
        phi3 = bump_test_function(3, np.zeros(3), 1.0)
        results["charge_density"] = claim_charge_density(
            fam, phi3, eps_grid, e, tolerance)
    spacetime = [n for n in CLAIM_NAMES[1:] if wanted(n)]
    psi_names = [f"psi_{a}" for a in range(4)]
    target = integral_of(phi4) if wanted("heaviside") else None
    (gx,), _, gw = gauss_panels((-1.0, 1.0), 12)
    times = list(zip(phi4.center[0] + phi4.radius * gx, phi4.radius * gw))
    vals = {n: [] for n in CLAIM_NAMES[1:]}
    for eps in eps_grid if spacetime else ():
        band = (SHELL_BAND[0] * eps, min(SHELL_BAND[1] * eps, 2.5 * phi4.radius))
        sums = dict.fromkeys(vals, 0.0)
        lam_ref = 0.0
        for t, t_weight in times:
            g = slice_grid(w, phi4, eps, t, t_weight, *band)
            if wanted("heaviside"):
                sums["heaviside"] += claim_heaviside(g, fam, eps)
            if any(map(wanted, psi_names)):
                for name, v in zip(psi_names, claim_psi(w, fam, g, eps, e)):
                    sums[name] += v
            if wanted("box_minus_lw"):
                v, lam = claim_box_minus_lw(w, fam, g, eps, e)
                sums["box_minus_lw"] += v
                lam_ref += lam
            del g   # free this slice before the next one is built
        for name in spacetime:
            vals[name].append(sums[name])
    for name in spacetime:
        if name == "heaviside":
            limit_at, scale = target, max(abs(target), 1e-3)
            vals[name] = [target + v for v in vals[name]]
        elif name == "box_minus_lw":
            limit_at, scale = 0.0, max(abs(lam_ref), 1e-3)
        else:
            limit_at, scale = 0.0, 1.0
        results[name] = weak_limit(vals[name], eps_grid, limit_at, tolerance,
                                   scale=scale)
    return SuiteReport(results=results,
                       passed=all(r.passed for r in results.values()))

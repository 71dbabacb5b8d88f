"""Weak-limit harness: pair eps-nets against test functions and extrapolate.

The four association claims verified here:
  (a) <rho_eps, phi>          -> e * phi(0)      (3D, rest frame)
  (b) <H_eps(xi), phi>        -> int phi         (4D)
  (c) <Psi_eps_a, phi>        -> 0               (4D, each component)
  (d) <boxPhi_eps_0 - Lambda_0 H_eps(xi), phi> -> 0  (4D, weak form)

Pairings use Lebesgue measure with no metric weight.  Claim (a) pairs
against the unit 3D bump centred on the charge, claims (b)-(d) against a
4D bump on a ball (TestFunction).  Claim (a) and the target of claim (b)
pair radial integrands against a radial bump, so they are 1D radial
integrals: claim (a) over the shell r in [eps, 2*eps] where
rho_eps lives, the target int phi over [0, radius].  Claims (b)-(d) pair
integrands supported near the transition shell xi in [eps, 2*eps], on a
grid in the retarded coordinates of the worldline, x = z(tau) + xi K with
K = zdot(tau) + n and n a unit direction of zdot's rest frame.  There
tau_r = tau, R = xi K and d4x = xi^2 dtau dxi dOmega on any worldline
(Teitelboim, Villarroel & van Weert, Riv. Nuovo Cimento 3, 1980), so no
node needs a retarded solve, and the shell is the slab eps < xi < 2*eps.
Per (xi, tau) the grid takes the 38 directions n of Lebedev's octahedral
rule, exact on the sphere up to degree 9.  The grid's xi panels have
edges at 0, 0.05*eps, eps and 2*eps: claims (b) and (d) integrate from
xi = 0, and claim (c) runs on the shell slab only.  Claim (d) pairs in
weak form, with box moved onto phi, so it needs no retarded solve and no
finite-difference stencil.  The suite finds the tau windows of every
ray of every (eps, xi panel) that a claim reads in one search, then
builds one slab of up to 16 xi nodes at a time on the windows of its
rays, pairs it with every claim that reads it and sums the pairings over
the slabs.  Claim (d)'s scale <Lambda_0 H_eps(xi), phi> is summed at the
last eps over the lab-frame band r in [0.05*eps, 8*eps] around the
worldline's simultaneous track point, with a cold retarded solve per
node.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoTrend, OnWorldline
from .fields import _psi, static_rho
from .minkowski import _dot, _rows, inner
from .regularization import bump, gauss_panels
from .retarded import DEFAULT_TOL, MAX_ITER, _rtsafe, kinematics_arrays


@dataclass(frozen=True)
class TestFunction:
    """The smooth 4D bump exp(-1/(1-|y|^2)) on a ball, y = (x - center) /
    radius, |y| Euclidean: center (4,) and radius fix the support ball."""

    center: np.ndarray
    radius: float

    def _terms(self, x):
        """y = (x - center)/radius (one component at a time, in x's
        layout), u = |y|^2 (Euclidean) and f = bump(u) at x."""
        x = np.asarray(x, dtype=float)
        y = np.empty_like(x, shape=np.broadcast_shapes(x.shape,
                                                       self.center.shape))
        for k in range(4):
            y[..., k] = (x[..., k] - self.center[k]) / self.radius
        u = _dot(y, y)
        return y, u, bump(u)

    def __call__(self, x):
        return self._terms(x)[2]

    def _with_box(self, x):
        """(phi(x), box phi(x)) from one pass of _terms, with the
        d'Alembertian d0^2 - d1^2 - d2^2 - d3^2 of the bump in closed form.
        With y = (x - c)/a, u = |y|^2 (Euclidean) and f(u) = exp(-1/(1-u)),

            box phi = 4 f''(u) (y0^2 - |y_vec|^2)/a^2 - 4 f'(u)/a^2,

        where f' = -f s^2 and f'' = f (s^4 - 2 s^3), s = 1/(1-u)."""
        y, u, f = self._terms(x)
        s = np.zeros_like(u)
        inside = u < 1.0
        s[inside] = 1.0 / (1.0 - u[inside])
        s2 = s * s
        d1, d2 = -f * s2, f * s2 * (s2 - 2.0 * s)
        return f, (4.0 * (d2 * (2.0 * (y[..., 0] * y[..., 0]) - u) - d1)
                   / self.radius ** 2)


def bump_test_function(center, radius):
    """The TestFunction on the ball of center (4,) and radius > 0."""
    center = np.asarray(center, dtype=float)
    if center.shape != (4,):
        raise ValueError("center must have 4 components")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return TestFunction(center=center, radius=float(radius))


def track_test_function(w, radius=1.0):
    """The default 4D bump of the association suite: centred on the
    worldline at coordinate time t = 3, so that the transition shell
    actually meets its support."""
    t0 = 3.0
    track = w.z(w.tau_at(t0))
    return bump_test_function(np.concatenate([[t0], track[1:]]), radius)


def integral_of(phi):
    """int phi over its support ball, as |S^3| radius^4 times
    int_0^1 exp(-1/(1-s^2)) s^3 ds on 32 panels of 16 Gauss-Legendre
    nodes.  radius^4 is a float64, so that it overflows under the caller's
    errstate rather than as a Python OverflowError."""
    s, half, w = gauss_panels(np.linspace(0.0, 1.0, 33), 16)
    s, ws = s.ravel(), (half * w).ravel()
    sphere = 2.0 * np.pi ** 2
    profile = bump(s * s) * s ** 3
    return float(sphere * np.float64(phi.radius) ** 4 * (profile * ws).sum())


# ---------------------------------------------------------------------------
# the retarded-coordinate grid


# xi panels of the grid as (lo, hi, Gauss nodes), lo and hi in units of
# eps: the inner ball, the rest of H_eps = 0 and the transition shell;
# from 2 eps on no claim's integrand is nonzero
XI_PANELS = ((0.0, 0.05, 4), (0.05, 1.0, 8), (1.0, 2.0, 32))
# Gauss nodes in tau per ray window, and the polar and azimuthal node
# count of the lab-frame direction rule of claim (d)'s scale
TAU_NODES = 12
DIRECTIONS = 8
# eigentimes at which _tau_windows samples dt/dtau on rays where t may turn
TURN_SAMPLES = 33
# xi nodes per slab: the 4- and 8-node panels are one slab each and the
# shell's 32 nodes two (16 x 38 directions x 12 tau nodes = 7,296 nodes
# at rest): 4 slabs per eps, each one set of numpy passes; whole 32-node
# panels raise peak RSS
SLAB_XI_NODES = 16


def _angular_grid(n):
    """n x n unit directions: Gauss-Legendre in cos(theta), uniform in phi;
    the weights sum to 4 pi."""
    (ct,), _, wt = gauss_panels((-1.0, 1.0), n)
    ph = 2.0 * np.pi * np.arange(n) / n
    wp = np.full(n, 2.0 * np.pi / n)
    st = np.sqrt(1.0 - ct * ct)
    dirs = np.stack([
        np.outer(st, np.cos(ph)),
        np.outer(st, np.sin(ph)),
        np.outer(ct, np.ones(n)),
    ], axis=-1).reshape(-1, 3)
    return dirs, np.outer(wt, wp).ravel()


def _octahedral_orbit(v):
    """Every point (+-v_i, +-v_j, +-v_k), (i, j, k) a permutation of (0, 1,
    2): the orbit of v under the cube's symmetry group, each point once."""
    signs = itertools.product((1.0, -1.0), repeat=3)
    return np.array(sorted({tuple(s * x for s, x in zip(sign, perm))
                            for sign in signs
                            for perm in itertools.permutations(v)}))


def _lebedev_38():
    """Lebedev's 38-point octahedral rule (USSR Comput. Math. Math. Phys.
    16, 1976), exact on the sphere up to degree 9: the 6 axis points with
    weight 1/105, the 8 cube corners (+-1, +-1, +-1)/sqrt(3) with 9/280 and
    the 24 points (+-p, +-q, 0) and their permutations, q = sqrt(1 - p^2),
    with 1/35, every weight times 4 pi.  Read-only."""
    p, c = 0.4597008433809831, 1.0 / math.sqrt(3.0)
    orbits = [(1.0, 0.0, 0.0), (c, c, c), (p, math.sqrt(1.0 - p * p), 0.0)]
    dirs = np.vstack([_octahedral_orbit(v) for v in orbits])
    weights = 4.0 * np.pi * np.repeat([1.0 / 105.0, 9.0 / 280.0, 1.0 / 35.0],
                                      [6, 8, 24])
    dirs.flags.writeable = weights.flags.writeable = False
    return dirs, weights


# the directions n and weights of the retarded-coordinate grid, shared
# read-only by every slab: 38 points where an 8 x 8 product rule, exact
# only up to degree 7, takes 64
GRID_DIRECTIONS = _lebedev_38()


def _null_direction(zdot, m):
    """K = zdot + n, where n is the pure boost to zdot of the lab-frame
    unit vector (0, m): n0 = v.m and n = m + (v.m)/(1 + zdot0) v with
    v = zdot[1:], so that n.n = -1, n.zdot = 0 and K is null with
    K.zdot = 1.  1 + zdot0 >= 2, so no velocity needs a special case.  K
    is formed one component at a time, in zdot's memory layout."""
    vm = _dot(zdot[..., 1:], m)
    f = 1.0 + vm / (1.0 + zdot[..., 0])
    K = np.empty_like(zdot)
    K[..., 0] = zdot[..., 0] + vm
    for k in (1, 2, 3):
        K[..., k] = zdot[..., k] * f + m[..., k - 1]
    return K


def _first_retarded_time(w, phi):
    """A lower bound on tau_r over phi's support ball: the ball lies in the
    causal future of P = (c0 - sqrt(2) radius, c), so no point of it has
    tau_r below tau_r(P), the eigentime of P itself when P is on the
    worldline."""
    P = phi.center.copy()
    P[0] -= np.sqrt(2.0) * phi.radius
    try:
        return float(kinematics_arrays(w, P)["tau_r"])
    except OnWorldline:
        return float(w.tau_at(P[0]))


def _ray_lab_time(w, xi, m, tau):
    """Lab time t = z0 + xi K0 on the rays (xi, m) at eigentime tau, and
    dt/dtau = zdot0 + xi (zddot0 + zddot.m)."""
    z, zd, zdd = w.jet(tau)
    t = z[:, 0] + xi * (zd[:, 0] + _dot(zd[:, 1:], m))
    dt = zd[:, 0] + xi * (zdd[:, 0] + _dot(zdd[:, 1:], m))
    return t, dt


def _lab_time_root(w, xi, m, target, lo, hi, sign):
    """Per ray (xi, m), the eigentime in [lo, hi] at which the ray's lab
    time reaches target, on a piece where sign * t increases, by
    safeguarded Newton: lo where sign * (t(lo) - target) >= 0 and hi where
    sign * (t(hi) - target) <= 0."""

    def fdf(idx, tau):
        t, dt = _ray_lab_time(w, xi[idx], _rows(m, idx), tau)
        return sign[idx] * (t - target[idx]), sign[idx] * dt

    every = np.arange(xi.size)
    f_lo, f_hi = fdf(every, lo)[0], fdf(every, hi)[0]
    root = np.where(f_lo >= 0.0, lo, hi)
    cross = (f_lo < 0.0) & (f_hi > 0.0)
    if cross.any():
        idx = every[cross]
        # exact at rest, where t = tau + xi
        start = np.clip(w.tau_at(target[idx]) - xi[idx], lo[idx], hi[idx])
        root[idx], done = _rtsafe(lambda i, tau: fdf(idx[i], tau), start,
                                  lo[idx], hi[idx], np.inf, DEFAULT_TOL)
        if not done.all():
            raise NoConvergence(MAX_ITER, np.nan)
    return root


def _lab_time_turn(w, xi, m, lo, hi, sign):
    """Per ray, the eigentime in [lo, hi] where sign * dt/dtau changes sign
    from - to +, by bisection (no third derivative of z is at hand)."""

    def fdf(idx, tau):
        dt = _ray_lab_time(w, xi[idx], _rows(m, idx), tau)[1]
        return sign[idx] * dt, np.zeros_like(tau)

    turn, done = _rtsafe(fdf, 0.5 * (lo + hi), lo, hi, np.inf, DEFAULT_TOL)
    if not done.all():
        raise NoConvergence(MAX_ITER, np.nan)
    return turn


def _tau_windows(w, phi, xi, m):
    """The eigentime windows of the rays (xi, m) on which the ray's lab time
    lies in phi's time extent [c0 - radius, c0 + radius], cut to the
    retarded times [first, last] that phi's support ball can have, last
    being the eigentime at lab time c0 + radius.

    Returns (ray, lo, hi), one window per piece of [first, last] on which
    a ray's lab time t is monotone.  Along a ray dt/dtau >= zdot0 (1 - 2 xi
    alpha), alpha the largest proper acceleration at TURN_SAMPLES
    eigentimes spread over [first, last], so t rises throughout on every
    ray with 2 xi alpha < 1: one piece.  On the other rays (behind a
    strongly accelerated charge, where t can fall before it rises) t turns
    where dt/dtau changes sign between two of those eigentimes.  Every step
    works per ray, so a ray's windows do not depend on the other rays
    searched with it: the suite searches the rays of all its slabs at once
    (_slabs).  m (n, 3) is best component-major: its rows are gathered so."""
    c0, radius = phi.center[0], phi.radius
    first = _first_retarded_time(w, phi)
    last = float(w.tau_at(c0 + radius))
    samples = np.linspace(first, last, TURN_SAMPLES)
    zdd = w.zddot(samples)
    alpha = np.sqrt(max(0.0, float(-inner(zdd, zdd).min())))
    # the pieces as (ray, lo, hi, sign of dt/dtau)
    ray = np.arange(xi.size)
    lo, hi, sign = np.full(xi.size, first), np.full(xi.size, last), np.ones(xi.size)
    check = np.flatnonzero(2.0 * xi * alpha >= 1.0)
    if check.size:
        n = TURN_SAMPLES
        rising = _ray_lab_time(w, np.repeat(xi[check], n),
                               _rows(m, np.repeat(check, n)),
                               np.tile(samples, check.size))[1] > 0.0
        rising = rising.reshape(check.size, n)
        sign[check] = np.where(rising[:, 0], 1.0, -1.0)
        # turn j of ray check[r] lies between samples k and k + 1, in order
        r, k = np.nonzero(rising[:, 1:] != rising[:, :-1])
        if r.size:
            up = np.where(rising[r, k + 1], 1.0, -1.0)
            turns = _lab_time_turn(w, xi[check[r]], _rows(m, check[r]),
                                   samples[k], samples[k + 1], up)
            same = np.append(r[1:] == r[:-1], False)
            _, head = np.unique(r, return_index=True)
            hi[check[r[head]]] = turns[head]
            ray = np.concatenate([ray, check[r]])
            lo = np.concatenate([lo, turns])
            hi = np.concatenate([hi, np.where(same, np.roll(turns, -1), last)])
            sign = np.concatenate([sign, up])
    ray_xi, ray_m = xi[ray], _rows(m, ray)
    lo_w = _lab_time_root(w, ray_xi, ray_m, c0 - sign * radius, lo, hi, sign)
    hi_w = _lab_time_root(w, ray_xi, ray_m, c0 + sign * radius, lo, hi, sign)
    return ray, np.minimum(lo_w, hi_w), np.maximum(lo_w, hi_w)


@dataclass(frozen=True)
class SliceGrid:
    """Spacetime quadrature nodes around the worldline, with the retarded
    kinematics, phi and box phi shared by its integrands."""

    points: np.ndarray      # (n, 4)
    weights: np.ndarray     # (n,)
    kin: dict
    phi_values: np.ndarray  # (n,), the test function the grid was built for
    box_values: np.ndarray  # (n,), its box
    xi_nodes: np.ndarray    # the slab's xi nodes
    xi_index: np.ndarray    # (n,), each node's index into xi_nodes

    def pair(self, values):
        """<values, phi>, given `values` at the nodes."""
        return float((values * self.phi_values * self.weights).sum())

    def per_xi(self, f, eps):
        """f(xi, eps) at the nodes for an f of xi alone, once per xi node."""
        return f(self.xi_nodes, eps)[self.xi_index]


def slice_grid(w, phi, xi, xi_weights, windows):
    """The slab of the retarded-coordinate grid at the xi nodes `xi` (with
    their quadrature weights) over phi's support ball, with the
    kinematics at its nodes in closed form, under kinematics_arrays' keys.

    A node is x = z(tau) + xi K(tau) with K = zdot + n, n a unit direction of
    zdot's rest frame (_null_direction), so that tau_r(x) = tau, R = xi K and
    d4x = xi^2 dtau dxi dOmega.  Per xi the slab takes the directions of
    GRID_DIRECTIONS, and TAU_NODES Gauss nodes in tau on each window of
    _tau_windows, where the ray's lab time lies in the ball's time extent
    [c0 - radius, c0 + radius].  windows is _tau_windows of the slab's rays
    (xi-major, one per direction per xi node); a node's xi and direction
    come from its ray's index.  Vectors are formed by components in the
    jet's component-major layout, phi and box phi in one pass, and a
    function of xi alone once per xi node (SliceGrid.per_xi).
    """
    dirs, wa = GRID_DIRECTIONS
    ray, lo, hi = windows
    ray_xi, ray_dir = np.divmod(ray, dirs.shape[0])
    (x,), _, wt = gauss_panels((-1.0, 1.0), TAU_NODES)
    half = 0.5 * (hi - lo)[:, None]
    tau = (0.5 * (hi + lo)[:, None] + half * x).ravel()
    r = xi[ray_xi]
    wts = half * wt * (wa[ray_dir] * r * r * xi_weights[ray_xi])[:, None]
    xi_index = np.repeat(ray_xi, TAU_NODES)
    node_xi = xi[xi_index]
    z, zdot, zddot = w.jet(tau)
    K = _null_direction(zdot, _rows(dirs, np.repeat(ray_dir, TAU_NODES)))
    R = node_xi[:, None] * K
    pts = z + R
    kin = {"tau_r": tau, "R": R, "xi": node_xi, "K": K,
           "kappa": inner(zddot, K), "zdot": zdot, "zddot": zddot}
    phi_values, box_values = phi._with_box(pts)
    return SliceGrid(points=pts, weights=wts.ravel(), kin=kin,
                     phi_values=phi_values, box_values=box_values,
                     xi_nodes=xi, xi_index=xi_index)


def _slabs(w, phi, panels):
    """(panel index, slab) for every xi panel in `panels`, a list of (xi
    nodes, quadrature weights), SLAB_XI_NODES of its xi nodes at a time,
    built one by one.  One _tau_windows search finds the windows of the
    rays of every panel, xi-major, one per direction of GRID_DIRECTIONS per
    xi node; a slab takes those of its own rays, numbered from 0, in the
    order of the search: every ray's first window, then the turn pieces.
    Each step of the search works per ray, so they are the windows of a
    search on the slab's rays alone, bit for bit."""
    dirs = GRID_DIRECTIONS[0]
    xi = np.concatenate([p[0] for p in panels])
    ray, lo, hi = _tau_windows(w, phi, np.repeat(xi, len(dirs)),
                               np.tile(dirs.T, xi.size).T)
    a = 0   # the slab's first ray
    for k, (x, wx) in enumerate(panels):
        for i in range(0, x.size, SLAB_XI_NODES):
            part = slice(i, i + SLAB_XI_NODES)
            b = a + len(dirs) * x[part].size
            mine = (ray >= a) & (ray < b)
            yield k, slice_grid(w, phi, x[part], wx[part],
                                (ray[mine] - a, lo[mine], hi[mine]))
            a = b


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


# differences below NOISE*scale count as converged in weak_limit
NOISE = 1e-9
# fewest grid values weak_limit extrapolates from
MIN_LIMIT_POINTS = 4


def weak_limit(values, eps_grid, target, tolerance=1e-3, *, scale):
    """Extrapolate <u_eps, phi> = L + A*eps^p from the tail of the grid.

    The measured order p comes from successive differences on the
    (geometric) grid; if the differences have already dropped below the
    noise floor NOISE*scale the last value is taken as the limit, and the
    limit passes within tolerance*scale of target.
    """
    values = np.asarray(values, dtype=float)
    eps_grid = np.asarray(eps_grid, dtype=float)
    if values.size < MIN_LIMIT_POINTS:
        raise ValueError(f"need at least {MIN_LIMIT_POINTS} grid points")
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
        q = abs(d2) / abs(d1)
        # a flat tail, d2 == 0, has order inf and the last value as limit
        with np.errstate(divide="ignore"):
            order = np.log(q) / np.log(ratio)
        limit = values[-1] + d2 * q / (1.0 - q)
    bound = tolerance * scale
    passed = np.isfinite(limit) and np.isfinite(bound) and abs(limit - target) <= bound
    return AssociationResult(eps=eps_grid, values=values, limit=float(limit),
                             order=float(order), target=float(target),
                             tolerance=tolerance, passed=bool(passed))


# ---------------------------------------------------------------------------
# the four claims


def claim_charge_density(fam, eps_grid, e=1.0, tolerance=1e-3):
    """(a) <rho_eps, phi> -> e*phi(0) for the charge at rest, phi the unit
    3D bump exp(-1/(1-r^2)) centered on the charge.

    rho_eps and phi are both radial, so the pairing is
    4 pi int_eps^2eps rho_eps(r) phi(r) r^2 dr, on 8 panels of 8 Gauss
    nodes over the shell [eps, 2 eps] where rho_eps lives."""
    s, half, w = gauss_panels(np.linspace(1.0, 2.0, 9), 8)
    s, ws = s.ravel(), (half * w).ravel()
    vals = []
    for eps in eps_grid:
        r = eps * s
        rho_phi = static_rho(fam, r, eps, e) * bump(r * r)
        vals.append(4.0 * np.pi * float((rho_phi * r * r * eps * ws).sum()))
    target = e * float(bump(0.0))
    return weak_limit(vals, eps_grid, target, tolerance,
                      scale=max(abs(e), abs(target), 1e-3))


def claim_heaviside(g, H):
    """(b) on one slab: the defect <H_eps(xi) - 1, phi> of <H_eps(xi), phi>
    from int phi, given H = H_eps(xi) at the slab's nodes; H - 1 is
    supported in xi < 2*eps, which the slabs below 2*eps cover from xi = 0
    on."""
    return g.pair(H - 1.0)


def claim_psi(fam, g, eps, e):
    """(c) on one slab: the pairings <Psi_eps_a, phi> of the four
    components a (Psi is supported in the transition shell, which is one
    slab of the grid).  Psi is computed once for all four."""
    psi = _psi(fam, g.kin, eps, e, g.per_xi)
    return [g.pair(psi[..., a]) for a in range(4)]


def claim_box_minus_lw(g, H, e):
    """(d) on one slab: <boxPhi_eps_0 - Lambda_0 H_eps(xi), phi> in weak form.

    Phi_eps is smooth, so <boxPhi_eps, phi> = <Phi_eps, box phi>, and
    <e R/2, box phi> = <Lambda, phi> holds with no eps in it (box R =
    -2 zdot/xi off the worldline, and R = O(xi) leaves no delta term
    there).  Subtracting the second identity from the first,

        <boxPhi_0 - Lambda_0 H, phi>
            = int (H_eps(xi) - 1) [(e/2) R_0 box phi - Lambda_0 phi] d4x,

    with Lambda_0 = -e zdot_0/xi.  H - 1 = 0 from xi = 2 eps on, so the
    slabs below 2 eps carry the whole pairing.  The integrand uses only H,
    R, zdot and box phi (of the test function g was built for, which the
    slab holds), so the claim checks the analytic Psi formula of claim
    (c), whose pairing it equals at each eps, by an independent route.
    """
    integrand = (0.5 * e * g.kin["R"][..., 0] * g.box_values
                 + e * g.kin["zdot"][..., 0] / g.kin["xi"] * g.phi_values)
    return float(((H - 1.0) * integrand * g.weights).sum())


# radial panel edges, in units of eps, of the lab-frame band over which
# claim (d)'s scale is summed
SCALE_BAND = (0.05, 1.0, 2.0, 8.0)


def box_minus_lw_scale(w, fam, phi, eps, e):
    """Claim (d)'s scale: <Lambda_0 H_eps(xi), phi> over the lab-frame band
    r in [0.05 eps, min(8 eps, 2.5 radius)] around the worldline's
    simultaneous track point, on phi's TAU_NODES Gauss times, the 8 x 8
    direction rule taken in the lab frame and radial panels with edges
    SCALE_BAND of 4 Gauss nodes each, with the retarded kinematics of a
    cold solve at every node.

    The band is in the lab frame, so it holds retarded distances up to
    about 8 eps gamma (1 + v) ahead of a fast charge: the scale grows with
    the Doppler factor, as claim (d)'s pairings do.  The scale sets claim
    (d)'s bound, so it keeps the 8 x 8 lab rule of _angular_grid(DIRECTIONS)
    rather than the grid's GRID_DIRECTIONS, which would move that bound
    (by 2.8% on boost(0.999))."""
    edges = np.unique(np.minimum(np.array(SCALE_BAND) * eps, 2.5 * phi.radius))
    if edges.size < 2:
        return 0.0
    r, half, wr = gauss_panels(edges, 4)
    r, wr = r.ravel(), (half * wr).ravel()
    dirs, wa = _angular_grid(DIRECTIONS)
    (x,), _, wt = gauss_panels((-1.0, 1.0), TAU_NODES)
    t = phi.center[0] + phi.radius * x
    track = w.z(w.tau_at(t))
    pts = np.empty((4, t.size, r.size, dirs.shape[0]))
    pts[0] = t[:, None, None]
    pts[1:] = (track.T[1:, :, None, None]
               + r[None, None, :, None] * dirs.T[:, None, None, :])
    wts = (phi.radius * wt)[:, None, None] * (wr * r * r)[:, None] * wa
    pts = pts.reshape(4, -1).T
    kin = kinematics_arrays(w, pts)
    xi = kin["xi"]
    lam_H = -e * kin["zdot"][..., 0] / xi * fam.H(xi, eps)
    return float((lam_H * phi(pts) * wts.ravel()).sum())


@dataclass(frozen=True)
class SuiteReport:
    results: dict
    passed: bool


CLAIM_NAMES = ("charge_density", "heaviside", "psi_0", "psi_1", "psi_2",
               "psi_3", "box_minus_lw")


def _reads(name, lo, hi):
    """Whether claim `name` has a nonzero integrand on the xi panel
    [lo, hi] (in units of eps)."""
    if name in ("heaviside", "box_minus_lw"):
        return lo < 2.0         # H - 1 = 0 from 2 eps on
    return lo < 2.0 and hi > 1.0    # Psi lives in the shell


def association_suite(w, fam, eps_grid, e=1.0, phi4=None, tolerance=1e-3,
                      claims=None):
    """Run the four claims; claim (a) only applies to the rest worldline.

    Claims (b)-(d) collect every (eps, xi panel of XI_PANELS) that a
    wanted claim reads, and _slabs finds the tau windows of all their rays
    in one search.  Each slab (with its kinematics and phi values) is then
    built once, paired by every wanted claim that reads its panel, and
    dropped before the next slab is built; claims (b) and (d) share its
    H_eps.  Each claim sums its pairings over the slabs; weak_limit then
    runs once per claim.  Pass a subset of CLAIM_NAMES as `claims` to
    restrict the run."""
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
        results["charge_density"] = claim_charge_density(
            fam, eps_grid, e, tolerance)
    spacetime = [n for n in CLAIM_NAMES[1:] if wanted(n)]
    target = integral_of(phi4) if wanted("heaviside") else None
    # every (eps, xi panel) that a wanted claim reads: the eps index, the
    # claims reading it and its xi nodes and weights
    panels = []
    for k, eps in enumerate(eps_grid if spacetime else ()):
        for lo, hi, nodes in XI_PANELS:
            readers = [n for n in spacetime if _reads(n, lo, hi)]
            if readers:
                (xi,), half, wx = gauss_panels((lo * eps, hi * eps), nodes)
                panels.append((k, readers, xi, half[0, 0] * wx))
    vals = {n: [0.0] * len(eps_grid) for n in spacetime}
    slabs = _slabs(w, phi4, [p[2:] for p in panels]) if panels else ()
    for p, g in slabs:
        k, readers = panels[p][:2]
        eps = eps_grid[k]
        psi_names = [n for n in readers if n.startswith("psi_")]
        H = (g.per_xi(fam.H, eps)
             if {"heaviside", "box_minus_lw"} & set(readers) else None)
        if "heaviside" in readers:
            vals["heaviside"][k] += claim_heaviside(g, H)
        if psi_names:
            psi = claim_psi(fam, g, eps, e)
            for name in psi_names:
                vals[name][k] += psi[int(name[-1])]
        if "box_minus_lw" in readers:
            vals["box_minus_lw"][k] += claim_box_minus_lw(g, H, e)
        del g, H    # free this slab before the next one is built
    for name in spacetime:
        if name == "heaviside":
            limit_at, scale = target, max(abs(target), 1e-3)
            vals[name] = [target + v for v in vals[name]]
        elif name == "box_minus_lw":
            lam = box_minus_lw_scale(w, fam, phi4, eps_grid[-1], e)
            limit_at, scale = 0.0, max(abs(lam), 1e-3)
        else:
            limit_at, scale = 0.0, 1.0
        results[name] = weak_limit(vals[name], eps_grid, limit_at, tolerance,
                                   scale=scale)
    return SuiteReport(results=results,
                       passed=all(r.passed for r in results.values()))

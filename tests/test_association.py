import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge import association
from pointcharge.association import (
    XI_PANELS,
    association_suite,
    box_minus_lw_scale,
    bump_test_function,
    claim_box_minus_lw,
    claim_charge_density,
    integral_of,
    psi_sup_values,
    slice_grid,
    track_test_function,
    weak_limit,
)
from pointcharge.errors import NoTrend
from pointcharge.fields import box_phi_fd
from pointcharge.minkowski import boost_worldline, circular_worldline, \
    hyperbolic_worldline, inner, rest_worldline
from pointcharge.retarded import _tau_simultaneous, kinematics_arrays
from pointcharge.regularization import (
    bump_mollifier,
    gauss_panels,
    geometric_grid,
    make_family,
    moderateness_slope,
    GeneralizedNet,
)

BUMP = make_family(bump_mollifier())
GRID = geometric_grid()
SHORT = geometric_grid(0.1, 0.5, 4)


def test_bump_test_function_support():
    phi = bump_test_function(3, np.zeros(3), 1.0)
    assert phi(np.zeros(3)) == pytest.approx(np.exp(-1.0))
    assert phi(np.array([1.0, 0.0, 0.0])) == 0.0
    assert phi(np.array([2.0, 0.0, 0.0])) == 0.0
    pts = np.random.default_rng(0).uniform(-0.99, 0.99, size=(50, 3))
    inside = np.linalg.norm(pts, axis=1) < 1
    assert np.all(phi(pts)[inside] > 0)


def test_bump_test_function_validates():
    with pytest.raises(ValueError):
        bump_test_function(3, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        bump_test_function(3, np.zeros(3), -1.0)


def test_integral_of_matches_quad():
    phi = bump_test_function(1, 0.3, 2.0)
    ref, _ = quad(lambda t: float(phi(t)), -1.7, 2.3, epsabs=1e-13)
    # quad calls phi itself, so this ties the radial profile integral_of
    # integrates to the test function
    assert integral_of(phi) == pytest.approx(ref, rel=1e-13)


def tensor_stack_integral(phi, n_gauss=40):
    """The full tensor-grid sum: phi evaluated on every one of n^d nodes."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    d = phi.dimension
    axes = [phi.center[i] + phi.radius * x for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = phi(np.stack(grids, axis=-1) if d > 1 else grids[0])
    wgrid = np.ones_like(vals)
    for i in range(d):
        shape = [1] * d
        shape[i] = n_gauss
        wgrid = wgrid * (phi.radius * w).reshape(shape)
    return float((vals * wgrid).sum())


@pytest.mark.parametrize("phi", [
    bump_test_function(4, np.array([3.0, 0.0, 0.0, 0.0]), 1.0),
    bump_test_function(4, np.array([0.3, -0.2, 0.1, 0.5]), 0.7,
                       poly=lambda y: 1.0 + y[..., 0] * y[..., 1] ** 2),
    bump_test_function(1, 0.3, 2.0, poly=lambda y: 1.0 + y ** 3),
], ids=["bump4", "poly4", "poly1"])
def test_integral_of_is_the_tensor_stack_sum(phi):
    # the radial rule agrees with the 40-node tensor Gauss stack to within
    # the stack's own error (8.7e-8 relative on the unit 4D bump); a poly
    # factor is not radial, so integral_of refuses it
    if phi.poly is not None:
        with pytest.raises(ValueError):
            integral_of(phi)
    else:
        assert integral_of(phi) == pytest.approx(tensor_stack_integral(phi),
                                                  rel=1e-6)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_integral_of_matches_radial_quad(d):
    # |S^(d-1)| radius^d int_0^1 exp(-1/(1-s^2)) s^(d-1) ds, off the origin
    phi = bump_test_function(d, np.linspace(0.4, -0.9, d), 0.7)
    sphere = {1: 2.0, 3: 4.0 * np.pi, 4: 2.0 * np.pi ** 2}[d]
    radial, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)) * s ** (d - 1),
                     0.0, 1.0, epsabs=0.0, epsrel=2e-14, limit=200)
    assert integral_of(phi) == pytest.approx(sphere * 0.7 ** d * radial,
                                             rel=1e-13)


def slab(w, eps, lo, hi, nodes=None):
    """The whole xi panel [lo*eps, hi*eps] of the default test function's
    grid as one slab, on the node count of XI_PANELS' panel [lo, hi]
    unless given."""
    if nodes is None:
        nodes = {(a, b): n for a, b, n in XI_PANELS}[(lo, hi)]
    (xi,), half, wx = gauss_panels((lo * eps, hi * eps), nodes)
    return slice_grid(w, track_test_function(w), xi, half[0, 0] * wx)


def test_radial_nodes_resolve_the_shell():
    # panel edges fall on eps and 2 eps, so the shell is one slab; its 32
    # Gauss nodes in xi put <Psi_eps_0, phi> within 2e-5 of a rule with 16
    # panels of 8 nodes at rest (one panel of 16 nodes is 2.5e-3 off)
    w, eps = rest_worldline(), 0.1
    assert (1.0, 2.0) in {(lo, hi) for lo, hi, _ in XI_PANELS}
    g = slab(w, eps, 1.0, 2.0)
    xi = g.kin["xi"]
    assert np.all((xi > eps) & (xi < 2.0 * eps))
    psi = association.claim_psi(w, BUMP, g, eps, 1.0)[0]
    edges = np.linspace(1.0, 2.0, 17)
    ref = sum(association.claim_psi(w, BUMP, slab(w, eps, lo, hi, 8), eps, 1.0)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    assert psi == pytest.approx(ref, rel=1e-4)


def test_grid_volume_is_xi_squared_dtau_dxi_domega():
    # at rest every ray with xi < (sqrt(2) - 1) radius has the tau window
    # [c0 - radius - xi, c0 + radius - xi] of length 2 radius, so the
    # weights of the panels below 8 eps sum to 2 radius * 4 pi (8 eps)^3 / 3
    w, eps = rest_worldline(), 0.01
    total = sum(slab(w, eps, lo, hi, n).weights.sum()
                for lo, hi, n in XI_PANELS + ((2.0, 8.0, 8),))
    assert total == pytest.approx(2.0 * 4.0 * np.pi * (8.0 * eps) ** 3 / 3.0,
                                  rel=1e-12)


@pytest.mark.parametrize("w", [
    rest_worldline(), boost_worldline(0.6), hyperbolic_worldline(1.0),
    circular_worldline(1.0, 0.5), hyperbolic_worldline(5.0),
    boost_worldline(0.999),
], ids=["rest", "boost", "hyperbolic", "circular", "hyperbolic5", "boost0.999"])
def test_grid_kinematics_match_the_solver(w):
    # the closed forms at x = z(tau) + xi K agree with a cold retarded solve
    # in tau_r, xi and R = X - z(tau_r), R to within what a tau_r error of
    # tol moves z; the solver's own K = R/xi carries the rounding of R
    # divided by xi (down to 3.5e-5 on the inner panel), so K is checked
    # at every node instead: null and normalised, K.K = 0 and K.zdot = 1
    eps = 0.1
    rng = np.random.default_rng(5)
    for lo, hi, _ in XI_PANELS + ((2.0, 8.0, 8),):
        g = slab(w, eps, lo, hi, 8 if hi == 8.0 else None)
        K, zdot = g.kin["K"], g.kin["zdot"]
        k0 = np.abs(K[:, 0])
        assert np.all(np.abs(inner(K, K)) <= 1e-12 * k0 * k0)
        assert np.all(np.abs(inner(K, zdot) - 1.0) <= 1e-12 * k0 * zdot[:, 0])
        pick = rng.choice(len(g.points), size=100, replace=False)
        X = g.points[pick]
        k = kinematics_arrays(w, X)
        tol = 1e-12 * np.maximum(1.0, np.linalg.norm(X, axis=-1))
        for key in ("tau_r", "xi"):
            assert np.all(np.abs(k[key] - g.kin[key][pick]) <= tol), key
        R = g.kin["R"][pick]
        assert np.all(np.abs(k["R"] - R)
                      <= (tol * (1.0 + zdot[pick, 0]))[:, None])


def test_weak_limit_extrapolates_power_law():
    grid = GRID
    vals = 2.0 + 3.0 * grid ** 2
    res = weak_limit(vals, grid, 2.0)
    assert res.passed
    assert res.limit == pytest.approx(2.0, abs=1e-9)
    assert res.order == pytest.approx(2.0, abs=1e-6)


def test_weak_limit_flags_no_trend():
    grid = GRID
    vals = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    with pytest.raises(NoTrend):
        weak_limit(vals, grid, 1.5)


def test_weak_limit_noise_floor():
    grid = GRID
    vals = 5.0 + 1e-14 * np.random.default_rng(1).normal(size=grid.size)
    res = weak_limit(vals, grid, 5.0)
    assert res.passed
    assert res.order == np.inf


def test_weak_limit_takes_a_flat_tail_under_raising_errstate():
    # the last two values agree exactly while the two before differ (a
    # shrinking shell that stops meeting phi): order inf and the last value
    # as the limit, also where the CLI raises on division by zero
    vals = np.array([1.5, 1.2, 1.1, 1.0, 1.0, 1.0]) - np.array(
        [0.0, 0.0, 0.0, 1e-3, 0.0, 0.0])
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        res = weak_limit(vals, GRID, 1.0)
    assert res.passed and res.limit == 1.0 and res.order == np.inf


@pytest.mark.parametrize("vals, scale", [
    (2.0 + 3.0 * GRID ** 2, np.inf),
    (np.full(GRID.size, np.nan), None),
])
def test_weak_limit_never_passes_non_finite(vals, scale):
    assert not weak_limit(vals, GRID, 2.0, scale=scale).passed


def test_charge_density_pairs_to_point_charge():
    phi3 = bump_test_function(3, np.zeros(3), 1.0)
    res = claim_charge_density(BUMP, phi3, GRID, e=2.0)
    assert res.passed
    assert res.target == pytest.approx(2.0 * np.exp(-1.0))
    assert res.order == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("phi3", [
    bump_test_function(3, np.array([0.0, 0.0, 0.2]), 1.0),
    bump_test_function(3, np.zeros(3), 1.0, poly=lambda y: 1.0 + y[..., 0]),
], ids=["off_centre", "poly"])
def test_charge_density_needs_a_radial_bump_on_the_charge(phi3):
    # the pairing is a radial integral about the charge
    with pytest.raises(ValueError):
        claim_charge_density(BUMP, phi3, GRID)


@pytest.mark.parametrize("start", [0.06, 0.09, 0.1, 0.1045, 0.12])
def test_charge_density_limit_does_not_depend_on_grid_start(start):
    # the shell panels are laid out in units of eps, so no panel count
    # hinges on how a quotient of eps values rounds
    phi3 = bump_test_function(3, np.zeros(3), 1.0)
    res = claim_charge_density(BUMP, phi3, geometric_grid(start, 0.5, 4))
    assert res.passed
    assert abs(res.limit - res.target) <= 1e-4


def test_heaviside_pairs_to_lebesgue():
    w = rest_worldline()
    phi4 = bump_test_function(4, np.array([3.0, 0.0, 0.0, 0.0]), 1.0)
    rep = association_suite(w, BUMP, SHORT, phi4=phi4, claims=("heaviside",))
    res = rep.results["heaviside"]
    assert res.passed
    assert res.target == pytest.approx(integral_of(phi4))


def test_suite_subset_selection():
    w = rest_worldline()
    rep = association_suite(w, BUMP, SHORT, claims=("charge_density",))
    assert set(rep.results) == {"charge_density"}
    with pytest.raises(ValueError):
        association_suite(w, BUMP, SHORT, claims=("bogus",))


def test_suite_evaluates_phi_and_psi_once_per_grid(monkeypatch):
    phi_calls, psi_calls = [], []

    class CountingTestFunction(association.TestFunction):
        def __call__(self, x):
            phi_calls.append(np.shape(x))
            return super().__call__(x)

    w = rest_worldline()
    phi4 = CountingTestFunction(dimension=4, center=np.array([3.0, 0.0, 0.0, 0.0]),
                                radius=1.0)
    box_phi_arrays = association.box_phi_arrays

    def counting_box_phi(*args, **kwargs):
        psi_calls.append(np.shape(args[2]))
        return box_phi_arrays(*args, **kwargs)

    monkeypatch.setattr(association, "box_phi_arrays", counting_box_phi)
    rep = association_suite(w, BUMP, SHORT, phi4=phi4)
    assert rep.passed, str(rep)
    # once per slab of 4 xi nodes x 64 directions x 12 tau nodes, and Psi
    # on the shell's 8 slabs only; integral_of does not evaluate phi, and
    # claim (d)'s scale evaluates it once on its lab-frame band of 12 times
    # x 12 radii x 64 directions
    per_slab = association.SLAB_XI_NODES
    slab_shape = (per_slab * 64 * 12, 4)
    slabs = sum(n for _, _, n in XI_PANELS) // per_slab
    assert phi_calls == [slab_shape] * (slabs * SHORT.size) + [(12 * 12 * 64, 4)]
    assert psi_calls == [slab_shape] * (32 // per_slab * SHORT.size)


def test_suite_frees_each_grid_before_the_next(monkeypatch):
    # at most one slab's kinematics are alive at a time
    built = []
    slice_grid = association.slice_grid

    def tracking_slice_grid(*args, **kwargs):
        alive = [i for i, ref in enumerate(built) if ref() is not None]
        assert not alive, f"slabs {alive} still alive at build {len(built)}"
        g = slice_grid(*args, **kwargs)
        built.append(weakref.ref(g.kin["xi"]))
        return g

    monkeypatch.setattr(association, "slice_grid", tracking_slice_grid)
    rep = association_suite(rest_worldline(), BUMP, SHORT,
                            claims=("heaviside", "psi_0"))
    assert rep.passed, str(rep)
    # claim (b) reads the 11 slabs below 2 eps, which hold the shell's 8
    # that claim (c) reads
    assert len(built) == 11 * SHORT.size


def test_full_suite_boost():
    rep = association_suite(boost_worldline(0.6), BUMP, SHORT)
    assert rep.passed, str(rep)
    assert set(rep.results) == {"heaviside", "psi_0", "psi_1", "psi_2",
                                "psi_3", "box_minus_lw"}


def lam_H(g, fam, eps, e=1.0):
    xi = g.kin["xi"]
    return -e * g.kin["zdot"][..., 0] / xi * fam.H(xi, eps)


def test_box_minus_lw_runs_the_stencil_on_the_shell_only(monkeypatch):
    counts = []

    def counting_box_phi_fd(w, fam, X, *args, **kwargs):
        counts.append(len(X))
        return box_phi_fd(w, fam, X, *args, **kwargs)

    monkeypatch.setattr(association, "box_phi_fd", counting_box_phi_fd)
    w, eps = boost_worldline(0.6), 0.05
    sizes = {}
    for lo, hi, n in ((0.05, 1.0, 8), (1.0, 2.0, 32), (2.0, 8.0, 8)):
        g = slab(w, eps, lo, hi, n)
        sizes[lo] = len(g.points)
        claim_box_minus_lw(w, BUMP, g, eps, 1.0)
    assert counts == [sizes[1.0]]


@pytest.mark.parametrize("w, bound", [
    (rest_worldline(), 1e-8),
    (boost_worldline(0.6), 1e-7),
], ids=["rest", "boost"])
def test_box_minus_lw_matches_the_full_band_pairing(w, bound):
    # off the shell the stencil on the band xi in [0.05 eps, 8 eps] adds
    # only its truncation error: 6.3e-12 of the scale at rest and 8.8e-8 on
    # boost(0.6)
    eps = 0.1
    full = value = scale = 0.0
    for lo, hi, n in ((0.05, 1.0, 8), (1.0, 2.0, 32), (2.0, 8.0, 8)):
        g = slab(w, eps, lo, hi, n)
        lam = g.pair(lam_H(g, BUMP, eps))
        full += g.pair(box_phi_fd(w, BUMP, g.points, eps, kin=g.kin)[..., 0]) - lam
        value += claim_box_minus_lw(w, BUMP, g, eps, 1.0)
        scale += lam
    assert value == pytest.approx(full, rel=0.0, abs=bound * abs(scale))


def test_box_minus_lw_is_zero_off_the_shell():
    # the slab xi in [3 eps, 8 eps] misses the shell
    w, eps = rest_worldline(), 0.1
    g = slab(w, eps, 3.0, 8.0, 8)
    assert g.kin["xi"].min() > 2.0 * eps
    assert claim_box_minus_lw(w, BUMP, g, eps, 1.0) == 0.0
    assert g.pair(lam_H(g, BUMP, eps)) != 0.0     # the slab meets phi


def test_box_minus_lw_passes_on_a_fast_boost():
    # the full-band stencil's error off the shell failed this claim
    rep = association_suite(boost_worldline(0.99), BUMP, GRID,
                            claims=("box_minus_lw",))
    assert rep.passed, str(rep)


def test_off_centre_test_function_pairs_every_component():
    # a ball off the track and off every symmetry plane of boost(0.6), so
    # that no pairing of Psi_1..Psi_3 vanishes by symmetry
    phi4 = bump_test_function(4, np.array([3.0, 1.9, 0.2, -0.15]), 0.8)
    rep = association_suite(boost_worldline(0.6), BUMP, SHORT, phi4=phi4)
    assert rep.passed, str(rep)
    for name in ("psi_1", "psi_2", "psi_3"):
        assert np.all(np.abs(rep.results[name].values) > 1e-10), name


def lab_frame_pairing(w, f, phi4, h, half_width, rho_max):
    """<f(xi), phi4> by a midpoint rule in lab coordinates, with xi from
    kinematics_arrays: phi4 and the worldline are symmetric about the x1
    axis, so cells of side h in (t, s, rho), with x1 = z1(t) + s and weight
    2 pi rho, cover |s| <= half_width and rho <= rho_max.  Also returns
    max |f| on the cells at the box's edge."""
    c0, radius = phi4.center[0], phi4.radius
    mid = lambda lo, hi: np.arange(lo + 0.5 * h, hi, h)
    t = mid(c0 - radius, c0 + radius)
    s = mid(-half_width, half_width)
    rho = mid(0.0, rho_max)
    z1 = w.z(_tau_simultaneous(w, t))[:, 1]
    X = np.zeros((s.size, rho.size, 4))
    X[..., 1] = s[:, None]
    X[..., 2] = rho
    edge = np.zeros((s.size, rho.size), dtype=bool)
    edge[[0, -1]] = edge[:, -1] = True
    total = edge_max = 0.0
    for ti, z1i in zip(t, z1):
        X[..., 0] = ti
        pts = (X + np.array([0.0, z1i, 0.0, 0.0])).reshape(-1, 4)
        phi = phi4(pts)
        inside = phi > 0.0
        if not inside.any():
            continue
        values = f(kinematics_arrays(w, pts[inside])["xi"])
        total += (values * phi[inside] * 2.0 * np.pi * pts[inside, 2]).sum()
        on_edge = edge.ravel()[inside]
        if on_edge.any():
            edge_max = max(edge_max, np.abs(values[on_edge]).max())
    return total * h ** 3, edge_max


def test_heaviside_defect_matches_a_lab_frame_oracle():
    # hyperbolic(1) at eps = 0.1: the grid reads -1.5076e-3, the oracle
    # -1.5009e-3; 8 x 8 lab-frame directions around the track read
    # -1.7107e-3, 14% off
    w, eps = hyperbolic_worldline(1.0), 0.1
    phi4 = track_test_function(w)
    oracle, edge_max = lab_frame_pairing(w, lambda xi: BUMP.H(xi, eps) - 1.0,
                                         phi4, 0.006, 0.12, 0.24)
    assert edge_max == 0.0      # the box holds the support of H - 1
    rep = association_suite(w, BUMP, SHORT, phi4=phi4, claims=("heaviside",))
    defect = rep.results["heaviside"].values[0] - integral_of(phi4)
    assert defect == pytest.approx(oracle, rel=1e-2)


def ray_grid(lo, hi):
    """The rays of the grid's xi panel [lo, hi] on 8 Gauss nodes."""
    (xi,), half, wx = gauss_panels((lo, hi), 8)
    dirs, _ = association._angular_grid(association.DIRECTIONS)
    return xi, half[0, 0] * wx, np.repeat(xi, len(dirs)), np.tile(dirs, (8, 1))


@pytest.mark.parametrize("w, lo, hi", [
    (hyperbolic_worldline(5.0), 0.2, 0.8),
    (circular_worldline(1.0, 0.9), 0.8, 3.0),
], ids=["hyperbolic5", "circular0.9"])
def test_tau_windows_hold_every_time_in_the_ball_extent(w, lo, hi):
    # behind hyperbolic(5) (2 xi a up to 8) the lab time along a ray falls
    # before it rises, and around circular(1, 0.9) it turns more than once;
    # the windows still hold exactly the eigentimes in [first, last] at
    # which the ray's lab time lies in the ball's time extent
    phi = track_test_function(w)
    _, _, xi, m = ray_grid(lo, hi)
    ray, tau_lo, tau_hi = association._tau_windows(w, phi, xi, m)
    assert ray.size > xi.size           # some rays have more than one piece
    first = association._first_retarded_time(w, phi)
    last = _tau_simultaneous(w, phi.center[0] + phi.radius)
    tau = np.linspace(first, last, 2001)
    t = association._ray_lab_time(w, np.repeat(xi, tau.size),
                                  np.repeat(m, tau.size, axis=0),
                                  np.tile(tau, xi.size))[0].reshape(xi.size, -1)
    held = np.zeros(t.shape, dtype=bool)
    for r, a, b in zip(ray, tau_lo, tau_hi):
        if b > a:       # a window of width 0 has no weight
            held[r] |= (tau >= a) & (tau <= b)
    gap = np.abs(t - phi.center[0]) - phi.radius
    assert np.all(held[gap < -1e-9]) and not np.any(held[gap > 1e-9])


def test_grid_matches_a_lab_frame_oracle_where_lab_time_turns():
    # on the xi panel [0.2, 0.8] of hyperbolic(5), <g(xi), phi> with g a
    # sin^2 bump over the panel reads 1.35678e-2 on the grid, against
    # 1.35690e-2 from the midpoint oracle at h = 0.02 (1.35539e-2 at
    # h = 0.015); dropping the rays' rising pieces read 1.35622e-2
    w = hyperbolic_worldline(5.0)
    phi4 = track_test_function(w)

    def g(xi):
        inside = (xi > 0.2) & (xi < 0.8)
        return np.where(inside, np.sin(np.pi * (xi - 0.2) / 0.6) ** 2, 0.0)

    xi, wx, _, _ = ray_grid(0.2, 0.8)
    grid = sum(s.pair(g(s.kin["xi"])) for s in (
        slice_grid(w, phi4, xi[i:i + 4], wx[i:i + 4]) for i in (0, 4)))
    oracle, edge_max = lab_frame_pairing(w, g, phi4, 0.02, 2.0, 1.0)
    assert edge_max == 0.0
    assert grid == pytest.approx(oracle, rel=5e-3)


def test_box_minus_lw_scale_resolves_its_lab_band(monkeypatch):
    # the scale's radial panels with edges at 0.05, 1, 2 and 8 eps agree
    # with 64 panels of width < eps/8 to 4.9e-5 on hyperbolic(5), whose
    # band holds retarded distances far beyond 8 eps
    w, eps = hyperbolic_worldline(5.0), 0.003125
    phi4 = track_test_function(w)
    scale = box_minus_lw_scale(w, BUMP, phi4, eps, 1.0)
    monkeypatch.setattr(association, "SCALE_BAND",
                        tuple(np.linspace(0.05, 8.0, 65)))
    fine = box_minus_lw_scale(w, BUMP, phi4, eps, 1.0)
    assert scale == pytest.approx(fine, rel=1e-4)


def doubled(monkeypatch):
    """Double the tau nodes, the shell's xi nodes and the directions."""
    monkeypatch.setattr(association, "TAU_NODES", 2 * association.TAU_NODES)
    monkeypatch.setattr(association, "DIRECTIONS", 2 * association.DIRECTIONS)
    monkeypatch.setattr(association, "XI_PANELS", tuple(
        (lo, hi, 2 * n if (lo, hi) == (1.0, 2.0) else n)
        for lo, hi, n in XI_PANELS))


def assert_resolved(w, claims, monkeypatch):
    """Each limit moves by less than a tenth of its bound, tolerance times
    the claim's scale, when the grid's resolution doubles."""
    base = association_suite(w, BUMP, SHORT, claims=claims).results
    with monkeypatch.context() as m:
        doubled(m)
        fine = association_suite(w, BUMP, SHORT, claims=claims).results
    eps = SHORT[-1]
    for name, res in base.items():
        if name == "heaviside":
            scale = abs(res.target)
        elif name == "box_minus_lw":
            scale = max(abs(box_minus_lw_scale(w, BUMP, track_test_function(w),
                                               eps, 1.0)), 1e-3)
        else:
            scale = 1.0
        move = abs(fine[name].limit - res.limit)
        assert move < 0.1 * res.tolerance * scale, name


@pytest.mark.parametrize("w", [
    rest_worldline(), boost_worldline(0.6), hyperbolic_worldline(1.0),
], ids=["rest", "boost", "hyperbolic"])
def test_claims_b_c_are_resolved(w, monkeypatch):
    # the limits move by at most 3.3e-4 of the bound
    assert_resolved(w, ("heaviside", "psi_0", "psi_1", "psi_2", "psi_3"),
                    monkeypatch)


def test_claim_d_is_resolved(monkeypatch):
    # 1.4e-2 of the bound on boost(0.6), 1.3e-3 at rest and 9.0e-3 on
    # hyperbolic(1); the stencil on the doubled shell makes this the
    # slowest of the three, so it runs on boost(0.6) only
    assert_resolved(boost_worldline(0.6), ("box_minus_lw",), monkeypatch)


def test_psi_sup_diverges_like_inverse_eps():
    # sup |Psi| ~ H' ~ xi*H'' ~ 1/eps: nonzero as a net, vanishing weakly
    w = rest_worldline()
    vals = psi_sup_values(w, BUMP, GRID)
    net = GeneralizedNet(eps=GRID, payloads=tuple(vals))
    slope = moderateness_slope(net, abs)
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(vals > 0)

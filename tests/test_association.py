import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge import association, fields, retarded
from pointcharge.association import (
    XI_PANELS,
    association_suite,
    box_minus_lw_scale,
    bump_test_function,
    claim_box_minus_lw,
    claim_charge_density,
    integral_of,
    slice_grid,
    track_test_function,
    weak_limit,
)
from oracles import GeneralizedNet, charge_density_pairings, \
    moderateness_slope, psi_sup_values, same_bits, turned
from pointcharge.errors import NoTrend
from pointcharge.minkowski import boost_worldline, circular_worldline, \
    hyperbolic_worldline, inner, rest_worldline
from pointcharge.retarded import kinematics_arrays
from pointcharge.regularization import (
    bump_mollifier,
    gauss_panels,
    geometric_grid,
    make_family,
)

BUMP = make_family(bump_mollifier())
GRID = geometric_grid()
SHORT = geometric_grid(0.1, 0.5, 4)


def test_bump_test_function_support():
    phi = bump_test_function(np.zeros(4), 1.0)
    assert phi(np.zeros(4)) == pytest.approx(np.exp(-1.0))
    assert phi(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
    assert phi(np.array([0.0, 0.0, 2.0, 0.0])) == 0.0
    pts = np.random.default_rng(0).uniform(-0.99, 0.99, size=(50, 4))
    inside = np.linalg.norm(pts, axis=1) < 1
    assert np.all(phi(pts)[inside] > 0)


def test_bump_test_function_validates():
    with pytest.raises(ValueError):
        bump_test_function(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        bump_test_function(np.zeros((1, 4)), 1.0)
    with pytest.raises(ValueError):
        bump_test_function(np.zeros(4), -1.0)


def test_integral_of_matches_quad():
    center = np.array([0.3, -0.2, 0.1, 0.5])
    phi = bump_test_function(center, 2.0)
    e = np.array([0.5, -0.5, 0.5, 0.5])
    # |S^3| int_0^radius phi(center + r e) r^3 dr: quad calls phi itself
    # on a ray from its centre, so this ties the radial profile integral_of
    # integrates to the test function
    ref, _ = quad(lambda r: float(phi(center + r * e)) * r ** 3, 0.0, 2.0,
                  epsabs=0.0, epsrel=2e-14, limit=200)
    assert integral_of(phi) == pytest.approx(2.0 * np.pi ** 2 * ref,
                                             rel=1e-13)


def tensor_stack_integral(phi, n_gauss=40):
    """The full tensor-grid sum: phi evaluated on every one of n^4 nodes."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    axes = [phi.center[i] + phi.radius * x for i in range(4)]
    vals = phi(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    wgrid = np.ones_like(vals)
    for i in range(4):
        shape = [1] * 4
        shape[i] = n_gauss
        wgrid = wgrid * (phi.radius * w).reshape(shape)
    return float((vals * wgrid).sum())


@pytest.mark.parametrize("phi", [
    bump_test_function(np.array([3.0, 0.0, 0.0, 0.0]), 1.0),
], ids=["bump4"])
def test_integral_of_is_the_tensor_stack_sum(phi):
    # the radial rule agrees with the 40-node tensor Gauss stack to within
    # the stack's own error (8.7e-8 relative on the unit 4D bump)
    assert integral_of(phi) == pytest.approx(tensor_stack_integral(phi),
                                              rel=1e-6)


def test_integral_of_matches_radial_quad():
    # |S^3| radius^4 int_0^1 exp(-1/(1-s^2)) s^3 ds, off the origin
    phi = bump_test_function(np.linspace(0.4, -0.9, 4), 0.7)
    radial, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)) * s ** 3,
                     0.0, 1.0, epsabs=0.0, epsrel=2e-14, limit=200)
    assert integral_of(phi) == pytest.approx(2.0 * np.pi ** 2 * 0.7 ** 4
                                             * radial, rel=1e-13)


def central_box(f, pts, h):
    """d0^2 - d1^2 - d2^2 - d3^2 of f by central second differences."""
    out = np.zeros(len(pts))
    for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0)):
        step = np.zeros(4)
        step[mu] = h
        out += sign * (f(pts + step) - 2.0 * f(pts) + f(pts - step)) / h ** 2
    return out


@pytest.mark.parametrize("radius", [0.5, 1.7])
def test_box_of_the_bump_matches_central_differences(radius):
    # box phi carries 1/radius^2 once y is scaled; at radius 1 a slip to
    # 1/radius^4 could not show, so neither radius is 1 (such a slip reads
    # 3.0 at radius 0.5 and 0.65 at 1.7).  200 points inside |y| < 0.9, off
    # the centre in every coordinate; the gap reads 3.8e-5 at both radii
    center = np.array([3.0, 0.4, -0.2, 0.1])
    phi = bump_test_function(center, radius)
    rng = np.random.default_rng(26)
    d = rng.normal(size=(200, 4))
    d /= np.linalg.norm(d, axis=1)[:, None]
    pts = center + radius * rng.uniform(0.0, 0.9, 200)[:, None] * d
    exact = phi._with_box(pts)[1]
    fd = central_box(phi, pts, 1e-3 * radius)
    assert np.abs(exact - fd).max() <= 1e-4 * np.abs(exact).max()


def own_windows(w, phi, xi):
    """The tau windows of a slab at the xi nodes `xi`, from a search on its
    own rays: xi-major, one per direction of GRID_DIRECTIONS per node."""
    dirs, _ = association.GRID_DIRECTIONS
    return association._tau_windows(w, phi, np.repeat(xi, len(dirs)),
                                    np.tile(dirs, (xi.size, 1)))


def slab(w, eps, lo, hi, nodes=None):
    """The whole xi panel [lo*eps, hi*eps] of the default test function's
    grid as one slab, on the node count of XI_PANELS' panel [lo, hi]
    unless given."""
    if nodes is None:
        nodes = {(a, b): n for a, b, n in XI_PANELS}[(lo, hi)]
    (xi,), half, wx = gauss_panels((lo * eps, hi * eps), nodes)
    phi = track_test_function(w)
    return slice_grid(w, phi, xi, half[0, 0] * wx, own_windows(w, phi, xi))


def test_radial_nodes_resolve_the_shell():
    # panel edges fall on eps and 2 eps, so the shell is one slab; its 32
    # Gauss nodes in xi put <Psi_eps_0, phi> within 2e-5 of a rule with 16
    # panels of 8 nodes at rest (one panel of 16 nodes is 2.5e-3 off)
    w, eps = rest_worldline(), 0.1
    assert (1.0, 2.0) in {(lo, hi) for lo, hi, _ in XI_PANELS}
    g = slab(w, eps, 1.0, 2.0)
    xi = g.kin["xi"]
    assert np.all((xi > eps) & (xi < 2.0 * eps))
    psi = association.claim_psi(BUMP, g, eps, 1.0)[0]
    edges = np.linspace(1.0, 2.0, 17)
    ref = sum(association.claim_psi(BUMP, slab(w, eps, lo, hi, 8), eps, 1.0)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    assert psi == pytest.approx(ref, rel=1e-4)


def sphere_monomial(a, b, c):
    """The integral of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    g = math.gamma
    return (2.0 * g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2)
            / g((a + b + c + 3) / 2))


def rule_error(degree):
    """The largest error of the grid's direction rule on the monomials of
    the given degree."""
    dirs, wa = association.GRID_DIRECTIONS
    return max(abs((wa * dirs[:, 0] ** a * dirs[:, 1] ** b
                    * dirs[:, 2] ** (degree - a - b)).sum()
                   - sphere_monomial(a, b, degree - a - b))
               for a in range(degree + 1) for b in range(degree + 1 - a))


def test_grid_directions_are_exact_up_to_degree_9():
    # Lebedev's 38-point rule: unit directions, weights summing to 4 pi and
    # every monomial of degree <= 9 integrated to rounding (3.6e-15), where
    # the 8 x 8 product rule first fails at degree 8; degree 10 misses by
    # 1.2e-2, which pins the rule's degree
    dirs, wa = association.GRID_DIRECTIONS
    assert len(dirs) == 38 and not dirs.flags.writeable
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert wa.sum() == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert max(rule_error(n) for n in range(10)) <= 1e-13
    assert rule_error(10) > 1e-3


def test_grid_directions_resolve_psi_on_a_fast_orbit(monkeypatch):
    # circular(1, 0.9): each pairing of Psi_0 and Psi_1 within 1e-4 of the
    # 16 x 16 product rule's (1.5e-5 and 3.5e-5 off; the 8 x 8 rule is
    # 5.8e-4 and 9.9e-4 off); no stencil runs
    w, claims = circular_worldline(1.0, 0.9), ("psi_0", "psi_1")
    base = association_suite(w, BUMP, SHORT, claims=claims).results
    monkeypatch.setattr(association, "GRID_DIRECTIONS",
                        association._angular_grid(16))
    fine = association_suite(w, BUMP, SHORT, claims=claims).results
    for name in claims:
        assert np.allclose(base[name].values, fine[name].values,
                           rtol=1e-4, atol=0.0), name


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
    res = weak_limit(vals, grid, 2.0, scale=2.0)
    assert res.passed
    assert res.limit == pytest.approx(2.0, abs=1e-9)
    assert res.order == pytest.approx(2.0, abs=1e-6)


def test_weak_limit_flags_no_trend():
    grid = GRID
    vals = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    with pytest.raises(NoTrend):
        weak_limit(vals, grid, 1.5, scale=1.5)


def test_weak_limit_noise_floor():
    grid = GRID
    vals = 5.0 + 1e-14 * np.random.default_rng(1).normal(size=grid.size)
    res = weak_limit(vals, grid, 5.0, scale=5.0)
    assert res.passed
    assert res.order == np.inf


def test_weak_limit_takes_a_flat_tail_under_raising_errstate():
    # the last two values agree exactly while the two before differ (a
    # shrinking shell that stops meeting phi): order inf and the last value
    # as the limit, also where the CLI raises on division by zero
    vals = np.array([1.5, 1.2, 1.1, 1.0, 1.0, 1.0]) - np.array(
        [0.0, 0.0, 0.0, 1e-3, 0.0, 0.0])
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        res = weak_limit(vals, GRID, 1.0, scale=1.0)
    assert res.passed and res.limit == 1.0 and res.order == np.inf


@pytest.mark.parametrize("vals, scale", [
    (2.0 + 3.0 * GRID ** 2, np.inf),
    (np.full(GRID.size, np.nan), 2.0),
])
def test_weak_limit_never_passes_non_finite(vals, scale):
    assert not weak_limit(vals, GRID, 2.0, scale=scale).passed


def test_charge_density_pairs_to_point_charge():
    res = claim_charge_density(BUMP, GRID, e=2.0)
    assert res.passed
    assert res.target == pytest.approx(2.0 * np.exp(-1.0))
    assert res.order == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("grid", [GRID, SHORT], ids=["default", "short"])
def test_charge_density_keeps_the_bits_of_the_3d_bump(grid):
    # claim (a) reads the radial profile bump(r^2) directly; a 3D bump at
    # the charge, evaluated on the z axis, gives its pairings and target
    # bit for bit
    vals, target = charge_density_pairings(BUMP, grid, 2.0)
    res = claim_charge_density(BUMP, grid, 2.0)
    assert same_bits(res.values, np.array(vals))
    assert same_bits(res.target, target)


@pytest.mark.parametrize("start", [0.06, 0.09, 0.1, 0.1045, 0.12])
def test_charge_density_limit_does_not_depend_on_grid_start(start):
    # the shell panels are laid out in units of eps, so no panel count
    # hinges on how a quotient of eps values rounds
    res = claim_charge_density(BUMP, geometric_grid(start, 0.5, 4))
    assert res.passed
    assert abs(res.limit - res.target) <= 1e-4


def test_heaviside_pairs_to_lebesgue():
    w = rest_worldline()
    phi4 = bump_test_function(np.array([3.0, 0.0, 0.0, 0.0]), 1.0)
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
    phi_calls, box_calls, psi_calls, h_calls = [], [], [], []

    class CountingTestFunction(association.TestFunction):
        # the one pass over the points that phi and box phi share
        def _terms(self, x):
            phi_calls.append(np.shape(x))
            return super()._terms(x)

        def _with_box(self, x):
            box_calls.append(np.shape(x))
            return super()._with_box(x)

    class CountingFamily(type(BUMP)):
        def H(self, r, eps):
            h_calls.append(("H", np.size(r)))
            return super().H(r, eps)

        def dH(self, r, eps):
            h_calls.append(("dH", np.size(r)))
            return super().dH(r, eps)

        def d2H(self, r, eps):
            h_calls.append(("d2H", np.size(r)))
            return super().d2H(r, eps)

    w = rest_worldline()
    phi4 = CountingTestFunction(center=np.array([3.0, 0.0, 0.0, 0.0]),
                                radius=1.0)
    fam = CountingFamily(mollifier=BUMP.mollifier, _h1=BUMP._h1)
    psi = association._psi

    def counting_psi(fam, kin, *args):
        psi_calls.append(np.shape(kin["K"]))
        return psi(fam, kin, *args)

    monkeypatch.setattr(association, "_psi", counting_psi)
    rep = association_suite(w, fam, SHORT, phi4=phi4)
    assert rep.passed, str(rep)
    # phi and box phi once per slab, from one pass, x the grid's directions
    # x 12 tau nodes, the slabs of each eps holding 4, 8, 16 and 16 xi
    # nodes (the 4- and 8-node panels and the shell's two halves), and Psi
    # on the shell's 2 slabs only; integral_of does not evaluate phi, and
    # claim (d)'s scale evaluates it (without box phi) once on its
    # lab-frame band of 12 times x 12 radii x 64 directions
    assert association.SLAB_XI_NODES == 16
    per_xi = len(association.GRID_DIRECTIONS[0]) * 12
    per_eps = [(n * per_xi, 4) for n in (4, 8, 16, 16)]
    assert phi_calls == per_eps * SHORT.size + [(12 * 12 * 64, 4)]
    assert box_calls == per_eps * SHORT.size
    assert psi_calls == per_eps[2:] * SHORT.size
    # H, H' and H'' of a slab once per xi node: H on every slab below
    # 2 eps, H' and H'' on the shell's 2; claim (a) takes H'' on its 64
    # radial nodes per eps first, and the scale H on its band's nodes last
    shell = [("H", 16), ("dH", 16), ("d2H", 16)]
    slabs = [("H", 4), ("H", 8)] + shell + shell
    assert h_calls == ([("d2H", 64)] * SHORT.size + slabs * SHORT.size
                       + [("H", 12 * 12 * 64)])


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
    # claim (b) reads the 4 slabs below 2 eps, which hold the shell's 2
    # that claim (c) reads
    assert len(built) == 4 * SHORT.size


def test_full_suite_boost():
    rep = association_suite(boost_worldline(0.6), BUMP, SHORT)
    assert rep.passed, str(rep)
    assert set(rep.results) == {"heaviside", "psi_0", "psi_1", "psi_2",
                                "psi_3", "box_minus_lw"}


def lam_H(g, fam, eps, e=1.0):
    xi = g.kin["xi"]
    return -e * g.kin["zdot"][..., 0] / xi * fam.H(xi, eps)


def test_box_minus_lw_makes_no_stencil_and_no_retarded_solve(monkeypatch):
    # claim (d) pairs in weak form from the grid's closed-form kinematics:
    # neither the finite-difference box Phi nor a retarded solve runs
    w, eps = boost_worldline(0.6), 0.05
    slabs = [slab(w, eps, lo, hi, n)
             for lo, hi, n in ((0.05, 1.0, 8), (1.0, 2.0, 32), (2.0, 8.0, 8))]

    def refuse(*args, **kwargs):
        raise AssertionError("claim (d) called a stencil or a solve")

    for module in (fields, association):
        monkeypatch.setattr(module, "box_phi_fd", refuse, raising=False)
    monkeypatch.setattr(retarded, "_solve", refuse)
    values = [claim_box_minus_lw(g, BUMP.H(g.kin["xi"], eps), 1.0)
              for g in slabs]
    assert values[0] != 0.0 and values[1] != 0.0
    assert values[2] == 0.0


def test_box_minus_lw_is_zero_off_the_shell():
    # the slab xi in [3 eps, 8 eps] misses the shell
    w, eps = rest_worldline(), 0.1
    g = slab(w, eps, 3.0, 8.0, 8)
    assert g.kin["xi"].min() > 2.0 * eps
    H = BUMP.H(g.kin["xi"], eps)
    assert claim_box_minus_lw(g, H, 1.0) == 0.0
    assert g.pair(lam_H(g, BUMP, eps)) != 0.0     # the slab meets phi


@pytest.mark.parametrize("w, radius", [
    (rest_worldline(), 1.0), (boost_worldline(0.6), 1.0),
    (hyperbolic_worldline(1.0), 1.0), (hyperbolic_worldline(5.0), 1.0),
    (boost_worldline(0.999), 1.0), (circular_worldline(1.0, 0.9), 1.0),
    (rest_worldline(), 0.5), (boost_worldline(0.6), 0.5),
], ids=["rest", "boost", "hyperbolic", "hyperbolic5", "boost0.999",
        "circular0.9", "rest-r0.5", "boost-r0.5"])
def test_claim_d_pairs_as_claim_c_at_each_eps(w, radius):
    # pointwise box Phi_0 - Lambda_0 H = Psi_0, so claim (d)'s weak pairing
    # and claim (c)'s analytic Psi pairing are one number by two routes.
    # Where eps/radius <= 1/160 they agree to 3.4e-5 (circular(1, 0.9) at
    # eps = 1/160); at coarser eps/radius the tau rule's error shows
    # (1.4e-4 on boost(0.6) at radius 0.5 and eps = 1/160)
    res = association_suite(w, BUMP, GRID, phi4=track_test_function(w, radius),
                            claims=("psi_0", "box_minus_lw")).results
    d, c = res["box_minus_lw"].values, res["psi_0"].values
    fine = GRID <= radius / 160.0
    assert fine.any()
    assert np.all(np.abs(d[fine] - c[fine]) <= 1e-4 * np.abs(c[fine]))


def test_box_minus_lw_passes_on_a_fast_boost():
    # ahead of boost(0.99) the shell is about eps/gamma thin; the weak
    # pairing integrates it on the grid's retarded coordinates, with no step
    rep = association_suite(boost_worldline(0.99), BUMP, GRID,
                            claims=("box_minus_lw",))
    assert rep.passed, str(rep)


def test_off_centre_test_function_pairs_every_component():
    # a ball off the track and off every symmetry plane of boost(0.6), so
    # that no pairing of Psi_1..Psi_3 vanishes by symmetry
    phi4 = bump_test_function(np.array([3.0, 1.9, 0.2, -0.15]), 0.8)
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
    z1 = w.z(w.tau_at(t))[:, 1]
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
    dirs, _ = association.GRID_DIRECTIONS
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
    last = w.tau_at(phi.center[0] + phi.radius)
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


@pytest.mark.parametrize("w", [
    rest_worldline(), hyperbolic_worldline(5.0), circular_worldline(1.0, 0.9),
], ids=["rest", "hyperbolic5", "circular0.9"])
def test_one_window_search_equals_a_search_per_slab(w, monkeypatch):
    # _slabs searches the windows of every panel of every eps at once; each
    # slab's share, turn pieces included, is a search on its rays alone
    phi = track_test_function(w)
    panels = [gauss_panels((lo * eps, hi * eps), n)[0][0]
              for eps in GRID for lo, hi, n in XI_PANELS]
    handed = []

    def capturing_slice_grid(w, phi, xi, xi_weights, windows):
        handed.append((xi, windows))
        return None

    monkeypatch.setattr(association, "slice_grid", capturing_slice_grid)
    slabs = list(association._slabs(w, phi, [(xi, 1.0 + xi) for xi in panels]))
    # 4 slabs per eps, which hand on their panels' xi nodes in order
    assert len(slabs) == 4 * GRID.size
    assert [p for p, _ in slabs] == sorted(p for p, _ in slabs)
    assert same_bits(np.concatenate([xi for xi, _ in handed]),
                     np.concatenate(panels))
    turns = 0
    for xi, mine in handed:
        alone = own_windows(w, phi, xi)
        assert all(same_bits(a, b) for a, b in zip(mine, alone))
        turns += alone[0].size - xi.size * len(association.GRID_DIRECTIONS[0])
    assert (turns > 0) == (w.label.startswith("hyperbolic"))


def test_suite_searches_tau_windows_once(monkeypatch):
    calls = []
    search = association._tau_windows

    def counting_search(*args, **kwargs):
        calls.append(args[2].size)
        return search(*args, **kwargs)

    monkeypatch.setattr(association, "_tau_windows", counting_search)
    rep = association_suite(rest_worldline(), BUMP, SHORT)
    assert rep.passed, str(rep)
    rays = sum(n for _, _, n in XI_PANELS) * len(association.GRID_DIRECTIONS[0])
    assert calls == [rays * SHORT.size]


def summed_phi(phi, x):
    """TestFunction.__call__ with its squared radius from .sum(axis=-1)."""
    y = (x - phi.center) / phi.radius
    return association.bump((y * y).sum(axis=-1))


def summed_box(phi, x):
    """The box phi of TestFunction._with_box with u from .sum(axis=-1)."""
    y = (x - phi.center) / phi.radius
    y2 = y * y
    u = y2.sum(axis=-1)
    f = association.bump(u)
    s = np.zeros_like(u)
    s[u < 1.0] = 1.0 / (1.0 - u[u < 1.0])
    s2 = s * s
    d1, d2 = -f * s2, f * s2 * (s2 - 2.0 * s)
    return 4.0 * (d2 * (2.0 * y2[..., 0] - u) - d1) / phi.radius ** 2


def test_component_sums_keep_the_bits_of_phi():
    rng = np.random.default_rng([2030, 4, 0])
    center, radius = rng.normal(size=4), 0.7
    phi = bump_test_function(center, radius)
    x = center + rng.uniform(-1.2 * radius, 1.2 * radius, size=(5000, 4))
    values = phi(x)
    assert np.count_nonzero(values) > 500
    assert same_bits(values, summed_phi(phi, x))
    assert same_bits(phi._with_box(x)[1], summed_box(phi, x))


@pytest.mark.parametrize("w", [
    rest_worldline(), turned(boost_worldline(0.999)),
    turned(hyperbolic_worldline(5.0)), turned(circular_worldline(1.0, 0.9)),
], ids=["rest", "boost0.999", "hyperbolic5", "circular0.9"])
def test_component_sums_keep_the_bits_of_the_grid_kinematics(w):
    rng = np.random.default_rng([2030, len(w.label)])
    tau, xi = rng.uniform(-1.0, 3.0, 4000), rng.uniform(0.0, 2.0, 4000)
    m = rng.normal(size=(tau.size, 3))
    m /= np.linalg.norm(m, axis=1)[:, None]
    z, zd, zdd = w.jet(tau)
    v = zd[:, 1:]
    vm = (v * m).sum(axis=-1)
    K = np.empty_like(zd)
    K[:, 0] = zd[:, 0] + vm
    K[:, 1:] = v * (1.0 + vm / (1.0 + zd[:, 0]))[:, None] + m
    assert same_bits(association._null_direction(zd, m), K)
    t = z[:, 0] + xi * (zd[:, 0] + (zd[:, 1:] * m).sum(-1))
    dt = zd[:, 0] + xi * (zdd[:, 0] + (zdd[:, 1:] * m).sum(-1))
    got = association._ray_lab_time(w, xi, m, tau)
    assert same_bits(got[0], t) and same_bits(got[1], dt)


def suite_slabs(w, phi, eps, lo, hi):
    """The suite's slabs of the xi panel [lo*eps, hi*eps] of XI_PANELS."""
    nodes = {(a, b): n for a, b, n in XI_PANELS}[(lo, hi)]
    (xi,), half, wx = gauss_panels((lo * eps, hi * eps), nodes)
    return [g for _, g in association._slabs(w, phi, [(xi, half[0, 0] * wx)])]


@pytest.mark.parametrize("w", [
    hyperbolic_worldline(5.0), circular_worldline(1.0, 0.9),
], ids=["hyperbolic5", "circular0.9"])
def test_per_xi_factors_keep_the_bits_of_a_per_node_evaluation(w):
    # H, H' and H'' taken once per xi node of a shell slab and gathered to
    # its nodes are the per-node values bit for bit, and so is Psi
    eps = 0.025
    slabs = suite_slabs(w, track_test_function(w), eps, 1.0, 2.0)
    assert [g.xi_nodes.size for g in slabs] == [16, 16]
    for g in slabs:
        xi = g.kin["xi"]
        assert same_bits(g.xi_nodes[g.xi_index], xi)
        for f in (BUMP.H, BUMP.dH, BUMP.d2H):
            assert same_bits(g.per_xi(f, eps), f(xi, eps))
        assert same_bits(fields._psi(BUMP, g.kin, eps, 1.0, g.per_xi),
                         fields._psi(BUMP, g.kin, eps, 1.0))


@pytest.mark.parametrize("w", [
    rest_worldline(), boost_worldline(0.999), hyperbolic_worldline(5.0),
    circular_worldline(1.0, 0.9),
], ids=["rest", "boost0.999", "hyperbolic5", "circular0.9"])
def test_slab_phi_and_box_phi_are_those_of_the_test_function(w):
    # the slab's phi and box phi, from one pass over its nodes, are phi
    # and the closed form of box phi (summed_box) at its points bit for bit
    phi = track_test_function(w)
    for lo, hi, _ in XI_PANELS:
        for g in suite_slabs(w, phi, 0.05, lo, hi):
            assert np.count_nonzero(g.phi_values) > 0
            assert same_bits(g.phi_values, phi(g.points))
            assert same_bits(g.box_values, summed_box(phi, g.points))


def test_grid_matches_a_lab_frame_oracle_where_lab_time_turns():
    # on the xi panel [0.2, 0.8] of hyperbolic(5), <g(xi), phi> with g a
    # sin^2 bump over the panel reads 1.35723e-2 on the grid, against
    # 1.35690e-2 from the midpoint oracle at h = 0.02 (1.35539e-2 at
    # h = 0.015); dropping the rays' rising pieces read 1.35622e-2
    w = hyperbolic_worldline(5.0)
    phi4 = track_test_function(w)

    def g(xi):
        inside = (xi > 0.2) & (xi < 0.8)
        return np.where(inside, np.sin(np.pi * (xi - 0.2) / 0.6) ** 2, 0.0)

    xi, wx, _, _ = ray_grid(0.2, 0.8)
    grid = sum(s.pair(g(s.kin["xi"])) for s in (
        slice_grid(w, phi4, xi[i:i + 4], wx[i:i + 4],
                   own_windows(w, phi4, xi[i:i + 4])) for i in (0, 4)))
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
    """Double the tau nodes, the shell's xi nodes and the directions: the
    grid's 38-point rule becomes the 16 x 16 product rule (exact up to
    degree 15 where the rule is exact up to degree 9), and the scale's
    8 x 8 lab rule becomes 16 x 16."""
    monkeypatch.setattr(association, "TAU_NODES", 2 * association.TAU_NODES)
    monkeypatch.setattr(association, "DIRECTIONS", 2 * association.DIRECTIONS)
    monkeypatch.setattr(association, "GRID_DIRECTIONS",
                        association._angular_grid(16))
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


@pytest.mark.parametrize("w", [
    rest_worldline(), boost_worldline(0.6), hyperbolic_worldline(1.0),
], ids=["rest", "boost", "hyperbolic"])
def test_claim_d_is_resolved(w, monkeypatch):
    # 2.6e-2 of the bound at rest, 4.8e-2 on boost(0.6) and 7.7e-3 on
    # hyperbolic(1)
    assert_resolved(w, ("box_minus_lw",), monkeypatch)


def test_psi_sup_diverges_like_inverse_eps():
    # sup |Psi| ~ H' ~ xi*H'' ~ 1/eps: nonzero as a net, vanishing weakly
    w = rest_worldline()
    vals = psi_sup_values(w, BUMP, GRID)
    net = GeneralizedNet(eps=GRID, payloads=tuple(vals))
    slope = moderateness_slope(net, abs)
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(vals > 0)

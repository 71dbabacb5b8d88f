import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge import association
from pointcharge.association import (
    SHELL_BAND,
    association_suite,
    bump_test_function,
    claim_box_minus_lw,
    claim_charge_density,
    integral_of,
    psi_sup_values,
    radial_nodes,
    weak_limit,
)
from pointcharge.errors import NoTrend
from pointcharge.fields import box_phi_fd
from pointcharge.minkowski import boost_worldline, rest_worldline
from pointcharge.regularization import (
    bump_mollifier,
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


def test_radial_nodes_resolve_the_shell():
    nodes, wts = radial_nodes(0.1, 0.0, 0.5)
    # panel width <= eps/8 means at least 40 panels over [0, 0.5]
    assert nodes.size >= 40 * 4
    assert wts.sum() == pytest.approx(0.5, rel=1e-12)


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
    # once per time slice: 12 slices of 256 radii x 64 directions per eps;
    # integral_of does not evaluate phi
    slice_shape = (256 * 64, 4)
    assert phi_calls == [slice_shape] * (12 * SHORT.size)
    assert psi_calls == [slice_shape] * (12 * SHORT.size)


def test_suite_frees_each_grid_before_the_next(monkeypatch):
    # at most one time slice's kinematics are alive at a time
    built = []
    slice_grid = association.slice_grid

    def tracking_slice_grid(*args, **kwargs):
        alive = [i for i, ref in enumerate(built) if ref() is not None]
        assert not alive, f"slices {alive} still alive at build {len(built)}"
        g = slice_grid(*args, **kwargs)
        built.append(weakref.ref(g.kin["xi"]))
        return g

    monkeypatch.setattr(association, "slice_grid", tracking_slice_grid)
    rep = association_suite(rest_worldline(), BUMP, SHORT,
                            claims=("heaviside", "psi_0"))
    assert rep.passed, str(rep)
    assert len(built) == 12 * SHORT.size


def test_full_suite_boost():
    rep = association_suite(boost_worldline(0.6), BUMP, SHORT)
    assert rep.passed, str(rep)
    assert set(rep.results) == {"heaviside", "psi_0", "psi_1", "psi_2",
                                "psi_3", "box_minus_lw"}


def middle_slice(w, eps, r_lo=SHELL_BAND[0], r_hi=SHELL_BAND[1]):
    """The time slice t = 3 of the default test function's support, on the
    radial band [r_lo*eps, r_hi*eps] around the track."""
    phi4 = association.track_test_function(w)
    return association.slice_grid(w, phi4, eps, 3.0, 1.0, r_lo * eps, r_hi * eps)


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
    g = middle_slice(w, eps)
    claim_box_minus_lw(w, BUMP, g, eps, 1.0)
    xi = g.kin["xi"]
    on_shell = int(((xi > eps) & (xi < 2.0 * eps)).sum())
    assert 0 < on_shell < len(xi)
    assert counts == [on_shell]


@pytest.mark.parametrize("w, bound", [
    (rest_worldline(), 1e-8),
    (boost_worldline(0.6), 1e-7),
], ids=["rest", "boost"])
def test_box_minus_lw_matches_the_full_band_pairing(w, bound):
    # off the shell the full-band stencil adds only its truncation error:
    # 4e-12 of the scale at rest and 5.1e-8 on boost(0.6), whose band
    # reaches xi = 9.9 eps with the far-field step
    eps = 0.1
    g = middle_slice(w, eps)
    full = g.pair(box_phi_fd(w, BUMP, g.points, eps, kin=g.kin)[..., 0]
                  - lam_H(g, BUMP, eps))
    scale = g.pair(lam_H(g, BUMP, eps))
    value, lam = claim_box_minus_lw(w, BUMP, g, eps, 1.0)
    assert lam == scale
    assert value == pytest.approx(full, rel=0.0, abs=bound * abs(scale))


def test_box_minus_lw_is_zero_off_the_shell():
    # at rest xi = r, so the band r in [3 eps, 8 eps] misses the shell
    w, eps = rest_worldline(), 0.1
    g = middle_slice(w, eps, r_lo=3.0)
    assert g.kin["xi"].min() > 2.0 * eps
    value, lam = claim_box_minus_lw(w, BUMP, g, eps, 1.0)
    assert value == 0.0
    assert lam == g.pair(lam_H(g, BUMP, eps)) != 0.0


def test_box_minus_lw_passes_on_a_fast_boost():
    # the full-band stencil's error off the shell failed this claim
    rep = association_suite(boost_worldline(0.99), BUMP, GRID,
                            claims=("box_minus_lw",))
    assert rep.passed, str(rep)


def test_psi_sup_diverges_like_inverse_eps():
    # sup |Psi| ~ H' ~ xi*H'' ~ 1/eps: nonzero as a net, vanishing weakly
    w = rest_worldline()
    vals = psi_sup_values(w, BUMP, GRID)
    net = GeneralizedNet(eps=GRID, payloads=tuple(vals))
    slope = moderateness_slope(net, abs)
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(vals > 0)
